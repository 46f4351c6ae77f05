"""A seeded sweep of the command line over registry algebras with swapped
ring lines and three two-element algebras (NIL, BIV and SQ).

Every call runs `decompgen.cli.main` in-process.  `sweep_calls(texts,
seed, count)` draws the calls, and `run_sweep(workdir, texts, calls)`
writes the algebra files into workdir and returns one (argv, exit code,
stdout, stderr) record per call.  A call that raises is re-raised as an
AssertionError naming it: the engine must answer every input with an exit
code.  Run as a script, the sweep prints every record, so two runs (under
different PYTHONHASHSEED values, say) compare with cmp:

    PYTHONPATH=src python tests/cli_sweep.py [--seed N] [--count N] > sweep.out

With --universe it runs every call of `universe(texts)` once, in order, in
place of a draw.  tests/golden/cli_universe.txt.gz holds that output, the
oracle of every drawn call too; a change meant to alter some answer
regenerates it and says so:

    PYTHONPATH=src python tests/cli_sweep.py --universe | gzip -9 -n > tests/golden/cli_universe.txt.gz
"""

import argparse
import contextlib
import gzip
import io
import os
import random
import re
import sys
import tempfile

from decompgen.algebra import serialize_algebra
from decompgen.cli import main
from decompgen.corpus import REGISTRY

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_universe.txt.gz")

# Q[d][t]/(t^2 - d), Q[x,y][t]/((t - x)(t - y)) and Q[y][t]/((t - y)^2)
SQ = """algebra SQ
ring Q[d]
basis one t
unit 1, 0
mul 0 0 0 1
mul 0 1 1 1
mul 1 0 1 1
mul 1 1 0 d
"""

BIV = """algebra BIV
ring Q[x,y]
basis one t
unit 1, 0
mul 0 0 0 1
mul 0 1 1 1
mul 1 0 1 1
mul 1 1 0 -x*y
mul 1 1 1 x + y
"""

NIL = """algebra NIL
ring Q[y]
basis one t
unit 1, 0
mul 0 0 0 1
mul 0 1 1 1
mul 1 0 1 1
mul 1 1 0 -y^2
mul 1 1 1 2*y
"""

EXTRA = {"SQ": SQ, "BIV": BIV, "NIL": NIL}

# the registry's dimension-14 algebra alone would take most of the time
SKIP = ("TL4_Q",)

COEFFS = ("Z", "Q", "GF(2)", "GF(3)", "GF(5)", "GF(7)")

PRIME_COMMANDS = (["fiber"], ["radical"], ["simples"], ["split-check"], ["fingerprint"],
                  ["decmat"], ["trivial"], ["trivial", "--verify"])
GLOBAL_COMMANDS = (["validate"], ["schur"], ["schur", "--verify"], ["discriminant"],
                   ["stratify"])

# kept in every draw: characteristic 2 divides the dimension of Mat2's simple
FIXED = (("Mat2_Z", "GF(2)", ["schur"], "table"),
         ("Mat2_Z", "GF(2)", ["schur", "--verify"], "table"),
         ("Mat2_Z", "GF(2)[d]", ["schur", "--verify"], "structured"))


def base_texts():
    """Definition text of every algebra the sweep varies, by name."""
    texts = {key: serialize_algebra(entry.algebra())
             for key, entry in sorted(REGISTRY.items()) if key not in SKIP}
    texts.update(EXTRA)
    return texts


def _ring_line(text):
    return re.search(r"^ring (.*)$", text, re.M).group(1)


def swapped_rings(ring):
    """The ring with each coefficient domain in turn, variables kept; a
    ring with no variables also gets two-variable ones."""
    variables = ring[ring.index("["):] if "[" in ring else ""
    out = [c + variables for c in COEFFS]
    if not variables:
        out += ["Q[d,e]", "GF(3)[d,e]"]
    return out


def primes_of(ring):
    """Prime arguments for the ring, the invalid and the unsupported ones
    included."""
    variables = re.findall(r"[A-Za-z_]\w*", ring[ring.index("["):]) if "[" in ring else []
    over_z = ring.startswith("Z")
    out = ["generic"]
    if over_z:
        out += ["p=2", "p=3", "p=4"]
    if variables:
        v = variables[0]
        out += [f"gen=[{v}]", f"gen=[{v} - 1]", f"gen=[{v}^2 + 1]"]
        if over_z:
            out.append(f"gen=[2, {v}]")
        if len(variables) == 2:
            out.append(f"gen=[{v} - {variables[1]}]")
    return out


def universe(texts):
    """Every (key, ring, command, format) call the sweep can draw, once, and
    then the FIXED calls that no swapped ring reaches: the CLI's --seed
    changes no report, so no call is drawn at several seeds."""
    calls = []
    for key, text in texts.items():
        for ring in swapped_rings(_ring_line(text)):
            for fmt in ("table", "structured"):
                for cmd in GLOBAL_COMMANDS:
                    calls.append((key, ring, cmd, fmt))
                for cmd in PRIME_COMMANDS:
                    for prime in primes_of(ring):
                        calls.append((key, ring, cmd + ["--prime", prime], fmt))
    return calls + [call for call in FIXED if call not in calls]


def sweep_calls(texts, seed=1, count=300):
    """count distinct calls drawn from the universe with the seed, FIXED
    included."""
    rng = random.Random(seed)
    pool = [call for call in universe(texts) if call not in FIXED]
    return list(FIXED) + rng.sample(pool, count - len(FIXED))


def _file_name(key, ring):
    return f"{key}_{re.sub(r'[^A-Za-z0-9]', '_', ring)}.alg"


def _argv(workdir, key, ring, cmd, fmt):
    """The command line of a call, its algebra file in workdir."""
    return [cmd[0], os.path.join(workdir, _file_name(key, ring)), *cmd[1:], "--format", fmt]


def run_sweep(workdir, texts, calls):
    """One (argv, exit code, stdout, stderr) record per call, with workdir
    written as <dir>."""
    records = []
    for key, ring, cmd, fmt in calls:
        argv = _argv(workdir, key, ring, cmd, fmt)
        path = argv[1]
        if not os.path.exists(path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(texts[key].replace(f"ring {_ring_line(texts[key])}\n", f"ring {ring}\n"))
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        except Exception as e:
            raise AssertionError(f"{' '.join(argv)} raised {type(e).__name__}: {e}") from e
        records.append(tuple(s.replace(workdir, "<dir>") if isinstance(s, str) else s
                             for s in (" ".join(argv), rc, out.getvalue(), err.getvalue())))
    return records


def format_records(records):
    """The records as the script prints them, one block per call."""
    return "".join(f"$ {argv}\nexit {rc}\n{out}--- stderr\n{err}\n"
                   for argv, rc, out, err in records)


def golden_blocks(texts):
    """{argv: its block} for every call of the universe, cut out of the
    committed output at each call's head line, in universe order."""
    with gzip.open(GOLDEN, "rt", encoding="utf-8") as fh:
        text = fh.read()
    lines = [" ".join(_argv("<dir>", *call)) for call in universe(texts)]
    starts, pos = [], 0
    for line in lines:
        pos = text.index(f"$ {line}\nexit ", pos)
        starts.append(pos)
    return {line: text[a:b] for line, a, b in zip(lines, starts, starts[1:] + [len(text)])}


def _main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=300)
    ap.add_argument("--universe", action="store_true",
                    help="run every call of the universe once, in order, not a draw")
    args = ap.parse_args()
    texts = base_texts()
    calls = universe(texts) if args.universe else sweep_calls(texts, args.seed, args.count)
    with tempfile.TemporaryDirectory() as workdir:
        sys.stdout.write(format_records(run_sweep(workdir, texts, calls)))


if __name__ == "__main__":
    _main()
