"""The benchmark's workloads: their inputs, their seeded job streams and the
oracles every answer is checked against.

A job is one or more `decompgen` CLI calls and a check of their output.  The
check returns None for a right answer and a short reason for a wrong one.
Every job names `.alg` files, so the CLI loads a fresh algebra each time, as
it does for a user (`verify-all` builds each of its algebras afresh from
the registry); reusing algebra objects would time the engine's per-object
caches instead.

Why these four:

* stratify_b3     recursion that analyses the same fiber table several times
                  and heavy k(d) arithmetic over Q(d), GF(2)(d) and GF(3)(d):
                  the workload on which a fiber memo or faster function-field
                  arithmetic shows.
* generic_fibers  the same heavy k(d) arithmetic and dim-14/15 linear algebra,
                  but no fiber is analysed twice: an arithmetic gain shows
                  here and a memo gain must not.
* point_queries   many short seeded queries on small registry algebras over
                  finite and rational fibers: per-call loading, validation
                  and prime checks dominate, and there are enough jobs for a
                  tail percentile.
* verify_all      `verify-all --serial`: the registry sweep, 24 checks of
                  every kind in one call.  It runs in-process, because the
                  CLI's process pool fills both cores of a 2-vCPU guest and
                  its throughput spread by a third of its median between
                  runs of the same code; the pool itself is not measured.
"""

import json
import os
import random
import sys
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_STRATIFY = os.path.join(HERE, "golden", "B3_Z.stratify.txt")

# Registry algebras whose generic fiber is split, with their base ring.
QUERY_ALGEBRAS = {
    "ZC2": "Z", "ZS3": "Z", "Mat2_Z": "Z", "UT2_Z": "Z", "Dual_Z": "Z",
    "B2_Z": "Z[d]", "TL2_Z": "Z[d]", "B2_Q": "Q[d]", "TL3_Q": "Q[d]",
}
QUERY_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _builders(workload):
    """Algebra builders for the `.alg` files a workload reads."""
    from decompgen.corpus import REGISTRY, STRETCH, brauer_algebra
    from decompgen.rings import parse_ring

    if workload == "stratify_b3":
        return {"B3_Z": lambda: brauer_algebra(3, parse_ring("Z[d]"), "B3_Z")}
    if workload == "generic_fibers":
        return {"TL4_Q": REGISTRY["TL4_Q"].algebra, "B3_Q": STRETCH["B3_Q"].algebra}
    if workload == "point_queries":
        return {key: REGISTRY[key].algebra for key in QUERY_ALGEBRAS}
    return {}


def write_inputs(workdir, workload):
    from decompgen.algebra import serialize_algebra

    os.makedirs(workdir, exist_ok=True)
    for key, build in _builders(workload).items():
        with open(os.path.join(workdir, f"{key}.alg"), "w", encoding="utf-8") as fh:
            fh.write(serialize_algebra(build()))


@dataclass
class Job:
    label: str
    calls: list                      # argv lists for decompgen.cli.main
    check: object                    # (list of (exit code, stdout)) -> None | reason


# --- stratify_b3 ----------------------------------------------------------------------

def _stratify_children(lines, indent):
    """Labels of the `at <prime> [status]:` lines at one indent, each with the
    labels of its own children two levels deeper."""
    out = {}
    current = None
    pad = " " * indent
    for line in lines:
        if line.startswith(pad + "at ") and line.endswith("]:"):
            current = line[len(pad) + 3:].rsplit(" [", 1)[0]
            out[current] = []
        elif current is not None and line.startswith(pad + "    at "):
            out[current].append(line[len(pad) + 7:].rsplit(" [", 1)[0])
    return out


def _check_stratify(results, golden):
    (rc, out), = results
    if rc != 0:
        return f"exit {rc}"
    if out != golden:
        return "stratify report differs from the golden copy"
    tree = out.split("\nstrata:\n", 1)[0].splitlines()
    kids = _stratify_children(tree, 2)
    if set(kids) != {"(2)", "(3)", "(d + 2)", "(d - 1)"}:
        return f"top-level strata {sorted(kids)}"
    if set(kids["(2)"]) != {"(d)", "(d + 1)"} or kids["(3)"] != ["(d + 2)"]:
        return "wrong sub-strata under (2) or (3)"
    return None


def stratify_jobs(seed, workdir):
    with open(GOLDEN_STRATIFY, encoding="utf-8") as fh:
        golden = fh.read()
    argv = ["stratify", os.path.join(workdir, "B3_Z.alg"), "--seed", str(seed)]
    while True:
        yield Job("stratify B3_Z", [argv], lambda r: _check_stratify(r, golden))


# --- generic_fibers -------------------------------------------------------------------

def _check_generic(results):
    (rc1, out1), (rc2, out2) = results
    if rc1 != 0 or rc2 != 0:
        return f"exit {rc1}/{rc2}"
    # TL4 is semisimple off d in {0, 1, -1, sqrt 2, -sqrt 2}; the quadratic
    # leg needs a number-field residue field, which is out of scope.
    disc = json.loads(out1)
    got = {(pt.get("prime") or pt["generator"], pt["status"]) for pt in disc["points"]}
    want = {("(d)", "Excluded"), ("(d - 1)", "Excluded"), ("(d + 1)", "Excluded"),
            ("d^2 - 2", "Unknown")}
    if got != want:
        return f"TL4_Q discriminant points {sorted(got)}"
    # B3's generic simples have dimensions 1, 1, 2, 3 and the squares sum to 15.
    split = json.loads(out2)
    dims = sorted(s["dim"] for s in split["simples"])
    if not split["split"] or dims != [1, 1, 2, 3] or sum(d * d for d in dims) != 15:
        return f"B3_Q generic simples {dims}, split {split['split']}"
    if split["radical_dim"] != 0:
        return f"B3_Q generic radical dim {split['radical_dim']}"
    return None


def generic_jobs(seed, workdir):
    calls = [
        ["discriminant", os.path.join(workdir, "TL4_Q.alg"), "--seed", str(seed),
         "--format", "structured"],
        ["split-check", os.path.join(workdir, "B3_Q.alg"), "--prime", "generic",
         "--seed", str(seed), "--format", "structured"],
    ]
    while True:
        yield Job("discriminant TL4_Q + split-check B3_Q", calls, _check_generic)


# --- point_queries --------------------------------------------------------------------

def _linear(a):
    if a == 0:
        return "d"
    return f"d - {a}" if a > 0 else f"d + {-a}"


def _irreducible_quadratic(p, rng):
    """A monic d^2 + b*d + c with no root mod p, hence irreducible mod p."""
    while True:
        b, c = rng.randrange(p), rng.randrange(p)
        if all((x * x + b * x + c) % p for x in range(p)):
            return "d^2" + (f" + {b}*d" if b else "") + (f" + {c}" if c else "")


def _prime_shapes(ring):
    """Every shape of valid prime a query on `ring` takes, with its parameter."""
    if ring == "Z":
        return [("p", p) for p in QUERY_PRIMES]
    shifts = [("d - a", a) for a in range(-4, 5)]
    if ring == "Q[d]":
        return shifts
    return ([("p", p) for p in QUERY_PRIMES] + shifts
            + [(shape, p) for shape in ("p, d - a", "p, q") for p in QUERY_PRIMES])


def _prime(shape, x, rng):
    """(prime string, characteristic or 0, whether the prime contains d)."""
    if shape == "p":
        return f"p={x}", x, False
    if shape == "d - a":
        return f"gen=[{_linear(x)}]", 0, x == 0
    if shape == "p, d - a":
        a = rng.randrange(x)
        return f"gen=[{x}, {_linear(a)}]", x, a == 0
    return f"gen=[{x}, {_irreducible_quadratic(x, rng)}]", x, False


def _is_permutation(rows):
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    cols = list(zip(*rows))
    return all(sorted(v) == [0] * (n - 1) + [1] for v in list(rows) + cols)


def _expected_trivial(key, prime, char, has_d):
    """Registry fact for the query, or False when the prime contains a
    component of the registry's excluded locus, else None."""
    from decompgen.corpus import REGISTRY

    facts = REGISTRY[key].facts
    if prime in facts.get("trivial", {}):
        return facts["trivial"][prime]
    for q in facts.get("excluded", []):
        if (q == "d" and has_d) or (q != "d" and int(q) == char):
            return False
    return None


def _check_query(kind, key, prime, char, has_d, results):
    from decompgen.corpus import REGISTRY

    (rc, out), = results
    rep = json.loads(out)
    want = _expected_trivial(key, prime, char, has_d)
    if kind == "decmat":
        if rc != 0:
            return f"exit {rc}"
        rows, row_dims, col_dims = rep["rows"], rep["row_dims"], rep["col_dims"]
        for i, row in enumerate(rows):
            if sum(n * c for n, c in zip(row, col_dims)) != row_dims[i]:
                return f"row {i}: reduction does not preserve dimension"
        fact = REGISTRY[key].facts.get("decmat", {}).get(prime)
        if fact is not None and rows != fact:
            return f"matrix {rows}, registry says {fact}"
        trivial = rep["trivial"]
        if trivial != _is_permutation(rows):
            return "trivial flag disagrees with the matrix"
    else:
        trivial = rep["trivial"]
        if rc != (0 if trivial else 1):
            return f"exit {rc} for trivial={trivial}"
        if not rep["matrix_agrees"] or trivial != _is_permutation(rep["matrix"]):
            return "matrix and radical criterion disagree"
        g, f = rep["generic_radical_dim"], rep["fiber_radical_dim"]
        if f < g or trivial != (f == g):
            return f"radical dims {g} generic, {f} fiber"
    if want is not None and trivial != want:
        return f"trivial={trivial}, expected {want}"
    return None


def query_jobs(seed, workdir):
    """Rounds of one query per algebra in seeded order.  Each algebra deals
    its queries from a seeded deck of every (command, prime shape) pair, so
    every run has close to the same mix of algebras, commands and fibers."""
    rng = random.Random(seed)
    keys = sorted(QUERY_ALGEBRAS)
    decks = {key: [] for key in keys}
    while True:
        rng.shuffle(keys)
        for key in keys:
            if not decks[key]:
                decks[key] = [(kind, shape) for kind in ("decmat", "trivial")
                              for shape in _prime_shapes(QUERY_ALGEBRAS[key])]
                rng.shuffle(decks[key])
            kind, (shape, x) = decks[key].pop()
            prime, char, has_d = _prime(shape, x, rng)
            argv = [kind, os.path.join(workdir, f"{key}.alg"), "--prime", prime,
                    "--seed", str(seed), "--format", "structured"]
            if kind == "trivial":
                argv.append("--verify")
            yield Job(f"{kind} {key} {prime}", [argv],
                      lambda r, a=(kind, key, prime, char, has_d): _check_query(*a, r))


# --- verify_all -----------------------------------------------------------------------

VERIFY_CHECKS = 24


def _expected_verify_labels():
    """The check labels the registry's facts call for."""
    from decompgen.corpus import REGISTRY

    labels = set()
    for key, entry in REGISTRY.items():
        facts = entry.facts
        if facts.get("generic_split") is False:
            labels.add(f"{key}:notsplit")
        if not facts.get("generic_split"):
            continue
        if "excluded" in facts:
            labels.add(f"{key}:discriminant")
        if "schur" in facts:
            labels.add(f"{key}:schur")
        for kind in ("trivial", "decmat"):
            labels.update(f"{key}:{kind}@{prime}" for prime in facts.get(kind, {}))
    return labels


def _check_verify(results, expected):
    (rc, out), = results
    if rc != 0:
        return f"exit {rc}"
    rep = json.loads(out)
    labels = [j["job"] for j in rep["jobs"]]
    if len(labels) != VERIFY_CHECKS or set(labels) != expected:
        return f"{len(labels)} checks, expected {VERIFY_CHECKS}: {sorted(set(labels) ^ expected)}"
    bad = [j["job"] for j in rep["jobs"] if not j["ok"]]
    if bad or rep["passed"] != VERIFY_CHECKS or rep["failed"]:
        return f"{rep['passed']} passed, {rep['failed']} failed: {bad}"
    return None


def verify_jobs(seed, workdir):
    expected = _expected_verify_labels()
    argv = ["verify-all", "--serial", "--seed", str(seed), "--format", "structured"]
    while True:
        yield Job("verify-all --serial", [argv], lambda r: _check_verify(r, expected))


WORKLOADS = {
    "stratify_b3": stratify_jobs,
    "generic_fibers": generic_jobs,
    "point_queries": query_jobs,
    "verify_all": verify_jobs,
}


if __name__ == "__main__":
    # Set-up step, timed from outside in a fresh interpreter:
    #   python3 workloads.py <src dir> <work dir> <workload>
    sys.path.insert(0, sys.argv[1])
    import decompgen.cli  # noqa: F401  (the import every CLI call pays)

    write_inputs(sys.argv[2], sys.argv[3])
