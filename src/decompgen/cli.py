"""Command line interface.

Exit codes: 0 success, 1 mathematical negative (a check that can honestly
say "no", like `trivial` or `split-check`, or a command that needs a split
fiber run on one that does not split), 2 validation error in the input,
3 request outside the supported scope.  Until failures get codes of their
own, 1 also covers a failed internal check and an exhausted chop budget.
Reports are deterministic; `--format structured` emits JSON with stable
keys.  `--seed` is accepted for compatibility and has no effect.
"""

import argparse
import json
import sys
from functools import cache
from itertools import groupby

from . import factor
from .algebra import load_algebra_file, serialize_algebra, specialize
from .corpus import REGISTRY, STRETCH
from .decomposition import (
    dec_gen_membership,
    decomposition_matrix,
    is_trivial,
    split_data,
)
from .errors import EngineError, NotSplit, ValidationError
from .fingerprints import fingerprint_of_simple
from .modules import is_split, radical
from .primes import parse_prime
from .strata import (
    UnresolvedPrime,
    dec_ex,
    schur_discriminant_crosscheck,
    schur_elements,
    stratify,
    tree_lines,
)


def _emit(report, lines, fmt):
    if fmt == "structured":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _load(args):
    try:
        return load_algebra_file(args.algebra)
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(str(e)) from None


def _prime(args, A):
    return parse_prime(args.prime, A.ring)


def cmd_validate(args):
    A = _load(args)
    report = {
        "algebra": A.name,
        "ring": repr(A.ring),
        "dim": A.dim,
        "basis": list(A.basis_names),
        "symmetric": A.trace_vector is not None,
        "valid": True,
    }
    lines = [f"{A.name}: dim {A.dim} over {A.ring!r}, "
             f"{'symmetric' if A.trace_vector is not None else 'no trace form'}, valid"]
    _emit(report, lines, args.format)
    return 0


def cmd_fiber(args):
    A = _load(args)
    p = _prime(args, A)
    F = specialize(A, p, validate=True)
    consts = [[i, j, k, F.field.to_str(c)]
              for i, plane in enumerate(F.terms)
              for j, ts in enumerate(plane) for k, c in ts]
    report = {
        "algebra": A.name,
        "prime": p.short_str(),
        "field": repr(F.field),
        "dim": F.dim,
        "constants": consts,
    }
    lines = [f"fiber of {A.name} at {p.short_str()} over {F.field!r}, dim {F.dim}"]
    lines += [f"  b{i} * b{j} -> b{k} : {s}" for i, j, k, s in consts]
    _emit(report, lines, args.format)
    return 0


def cmd_radical(args):
    A = _load(args)
    p = _prime(args, A)
    F = specialize(A, p)
    lat = radical(F)
    rows = [[F.field.to_str(c) for c in row] for row in lat.rows]
    report = {"algebra": A.name, "prime": p.short_str(), "dim": lat.dim, "basis": rows}
    lines = [f"radical of {A.name} at {p.short_str()}: dim {lat.dim}"]
    lines += ["  [" + ", ".join(r) + "]" for r in rows]
    _emit(report, lines, args.format)
    return 0


def _wedderburn_report(A, p, wd):
    simples = []
    for s, mult, jh, e in zip(wd.simples, wd.multiplicities, wd.jh_multiplicities, wd.endo_dims):
        simples.append({"dim": s.dim, "top_multiplicity": mult,
                        "regular_multiplicity": jh, "endo_dim": e})
    return {
        "algebra": A.name,
        "prime": p.short_str(),
        "split": wd.split,
        "radical_dim": wd.radical_dim,
        "simples": simples,
    }


def cmd_simples(args):
    A = _load(args)
    p = _prime(args, A)
    ok, wd = is_split(specialize(A, p))
    report = _wedderburn_report(A, p, wd)
    lines = [f"{A.name} at {p.short_str()}: {len(wd.simples)} simples, "
             f"radical dim {wd.radical_dim}, {'split' if ok else 'not split'}"]
    for s in report["simples"]:
        lines.append(f"  dim {s['dim']}: multiplicity {s['regular_multiplicity']} "
                     f"in the regular module, End dim {s['endo_dim']}")
    _emit(report, lines, args.format)
    return 0


def cmd_split_check(args):
    A = _load(args)
    p = _prime(args, A)
    ok, wd = is_split(specialize(A, p))
    report = _wedderburn_report(A, p, wd)
    lines = [f"{A.name} at {p.short_str()}: {'split' if ok else 'NOT split'} "
             f"(endo dims {wd.endo_dims})"]
    _emit(report, lines, args.format)
    return 0 if ok else 1


def cmd_fingerprint(args):
    A = _load(args)
    p = _prime(args, A)
    ok, wd = is_split(specialize(A, p))
    fps = []
    for s in wd.simples:
        fp = fingerprint_of_simple(s)
        fps.append({"dim": s.dim, "polys": fp.to_strings()})
    report = {"algebra": A.name, "prime": p.short_str(), "fingerprints": fps}
    lines = [f"fingerprints of the {len(fps)} simples of {A.name} at {p.short_str()}"]
    for rec in fps:
        lines.append(f"  dim {rec['dim']}:")
        for poly in rec["polys"]:
            lines.append("    [" + ", ".join(poly) + "]")
    _emit(report, lines, args.format)
    return 0


def _matrix_lines(D):
    lines = [f"decomposition matrix of {D.algebra_name} at {D.prime.short_str()}"]
    colhdr = "  ".join(f"T{j}(d{dj})" for j, dj in enumerate(D.col_dims))
    lines.append(f"{'':>10}  {colhdr}")
    for i, row in enumerate(D.entries):
        label = f"S{i}(d{D.row_dims[i]})"
        lines.append(f"{label:>10}  " + "  ".join(f"{c:>7d}" for c in row))
    return lines


def cmd_decmat(args):
    A = _load(args)
    p = _prime(args, A)
    D = decomposition_matrix(A, p)
    report = {
        "algebra": A.name,
        "prime": p.short_str(),
        "rows": [list(r) for r in D.entries],
        "row_dims": list(D.row_dims),
        "col_dims": list(D.col_dims),
        "trivial": is_trivial(D),
    }
    _emit(report, _matrix_lines(D), args.format)
    return 0


def cmd_trivial(args):
    A = _load(args)
    p = _prime(args, A)
    ev = dec_gen_membership(A, p, verify=args.verify)
    report = {
        "algebra": A.name,
        "prime": p.short_str(),
        "trivial": ev.trivial,
        "generic_radical_dim": ev.generic_radical_dim,
        "fiber_radical_dim": ev.fiber_radical_dim,
    }
    if args.verify:
        report["matrix"] = [list(r) for r in ev.matrix.entries]
        report["matrix_agrees"] = ev.matrix_agrees
    verdict = "Trivial" if ev.trivial else "NonTrivial"
    lines = [f"{A.name} at {p.short_str()}: {verdict} "
             f"(radical dims {ev.generic_radical_dim} generic, {ev.fiber_radical_dim} fiber)"]
    _emit(report, lines, args.format)
    return 0 if ev.trivial else 1


def cmd_schur(args):
    A = _load(args)
    cs = schur_elements(A)
    report = {"algebra": A.name, "schur_elements": [str(c) for c in cs]}
    lines = [f"Schur elements of {A.name}: " + ", ".join(str(c) for c in cs)]
    if args.verify:
        rep = schur_discriminant_crosscheck(A)
        report["product"] = str(rep["product"])
        report["matches_discriminant"] = rep["match"]
        lines.append(f"product {rep['product']}; matches verified discriminant: {rep['match']}")
    _emit(report, lines, args.format)
    return 0


def _discriminant_report(dec):
    pts = []
    for pt in dec.points:
        rec = {"status": pt.status}
        if isinstance(pt.prime, UnresolvedPrime):
            rec["generator"] = str(pt.prime.generator)
        else:
            rec["prime"] = pt.prime.short_str()
        if pt.status == "Unknown":
            rec["reason"] = pt.reason
        else:
            rec["fiber_radical_dim"] = pt.fiber_radical_dim
            rec["generic_radical_dim"] = pt.generic_radical_dim
        pts.append(rec)
    return {"algebra": dec.algebra_name, "candidate": str(dec.candidate), "points": pts}


def cmd_discriminant(args):
    A = _load(args)
    dec = dec_ex(A)
    report = _discriminant_report(dec)
    lines = [f"candidate discriminant of {A.name}: ({dec.candidate})"]
    for pt in dec.points:
        where = (f"({pt.prime.generator})" if isinstance(pt.prime, UnresolvedPrime)
                 else pt.prime.short_str())
        detail = (pt.reason if pt.status == "Unknown"
                  else f"radical {pt.generic_radical_dim} -> {pt.fiber_radical_dim}")
        lines.append(f"  {where}: {pt.status} ({detail})")
    _emit(report, lines, args.format)
    return 0


def _tree_report(node):
    if node.kind == "point-leaf":
        return {"kind": node.kind, "algebra": node.algebra_name}
    if node.kind == "unresolved-leaf":
        return {"kind": node.kind, "algebra": node.algebra_name, "reason": node.reason}
    return {
        "kind": node.kind,
        "algebra": node.algebra_name,
        "ring": repr(node.ring),
        "discriminant": _discriminant_report(node.discriminant),
        "stratum": node.stratum_description(),
        "children": [
            {"at": (pt.prime.short_str() if not isinstance(pt.prime, UnresolvedPrime)
                    else f"({pt.prime.generator})"),
             "status": pt.status,
             "child": _tree_report(child)}
            for pt, child in node.children
        ],
    }


def _flat_strata(node, out=None):
    if out is None:
        out = []
    out.append({"algebra": node.algebra_name, "stratum": node.stratum_description()})
    if node.kind == "node":
        for _, child in node.children:
            _flat_strata(child, out)
    return out


def cmd_stratify(args):
    A = _load(args)
    tree = stratify(A)
    report = {"tree": _tree_report(tree), "strata": _flat_strata(tree)}
    lines = tree_lines(tree)
    lines.append("strata:")
    for i, s in enumerate(report["strata"]):
        lines.append(f"  {i}: {s['algebra']}: {s['stratum']}")
    _emit(report, lines, args.format)
    return 0


def cmd_corpus_build(args):
    import os

    entries = dict(REGISTRY)
    entries.update(STRETCH)
    keys = args.keys or sorted(REGISTRY)
    written = []
    try:
        os.makedirs(args.out, exist_ok=True)
        for key in keys:
            if key not in entries:
                print(f"unknown corpus entry {key!r}", file=sys.stderr)
                return 2
            A = entries[key].algebra()
            path = os.path.join(args.out, f"{key}.alg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_algebra(A))
            written.append(path)
    except OSError as e:
        raise ValidationError(str(e)) from None
    _emit({"written": written}, [f"wrote {p}" for p in written], args.format)
    return 0


# --- verify-all -----------------------------------------------------------------------

def _verify_job(job, A):
    """One corpus verification job on A, the job's registry algebra: (ok, detail)."""
    kind, key, prime_str = job
    entry = REGISTRY[key]
    try:
        if kind == "notsplit":
            try:
                split_data(A)
                return False, "expected a non-split generic fiber"
            except NotSplit:
                return True, "generic fiber is not split, as expected"
        if kind == "discriminant":
            dec = dec_ex(A)
            got = sorted(str(pt.prime.generators[0]) for pt in dec.excluded)
            want = sorted(entry.facts["excluded"])
            ok = got == want and not dec.unknown
            return ok, f"excluded {got}, expected {want}"
        if kind == "schur":
            rep = schur_discriminant_crosscheck(A)
            want = entry.facts["schur"]
            got = [str(c) for c in rep["schur_elements"]]
            ok = rep["match"] and got == want
            return ok, f"schur {got} (expected {want}), match {rep['match']}"
        if kind == "trivial":
            p = parse_prime(prime_str, A.ring)
            ev = dec_gen_membership(A, p, verify=True)
            want = entry.facts["trivial"][prime_str]
            ok = ev.trivial == want and ev.matrix_agrees
            return ok, f"trivial={ev.trivial} (expected {want}), matrix agrees"
        if kind == "decmat":
            p = parse_prime(prime_str, A.ring)
            D = decomposition_matrix(A, p)
            want = tuple(tuple(r) for r in entry.facts["decmat"][prime_str])
            ok = D.entries == want
            return ok, f"matrix {D.entries} (expected {want})"
        return False, f"unknown job kind {kind}"
    except EngineError as e:
        return False, f"{type(e).__name__}: {e}"


def _verify_jobs():
    jobs = []
    for key in sorted(REGISTRY):
        entry = REGISTRY[key]
        facts = entry.facts
        if not facts.get("generic_split", False):
            if facts.get("generic_split") is False:
                jobs.append(("notsplit", key, None))
            continue
        if "excluded" in facts:
            jobs.append(("discriminant", key, None))
        if "schur" in facts:
            jobs.append(("schur", key, None))
        for prime_str in facts.get("trivial", {}):
            jobs.append(("trivial", key, prime_str))
        for prime_str in facts.get("decmat", {}):
            jobs.append(("decmat", key, prime_str))
    return jobs


def cmd_verify_all(args):
    report = {"jobs": [], "passed": 0, "failed": 0}
    lines = []
    # _verify_jobs lists each key's jobs together: they share one algebra and
    # its fiber analyses, which are freed when the sweep moves to the next key
    for key, jobs in groupby(_verify_jobs(), key=lambda job: job[1]):
        A = REGISTRY[key].algebra()
        for job in jobs:
            kind, _, prime_str = job
            ok, msg = _verify_job(job, A)
            label = f"{key}:{kind}" + (f"@{prime_str}" if prime_str else "")
            report["jobs"].append({"job": label, "ok": ok, "detail": msg})
            report["passed" if ok else "failed"] += 1
            lines.append(f"{'PASS' if ok else 'FAIL'}  {label}  {msg}")
    lines.append(f"{report['passed']} passed, {report['failed']} failed")
    _emit(report, lines, args.format)
    return 0 if report["failed"] == 0 else 1


def _positive_int(text):
    if not text.isdigit() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="decompgen",
        description="Exact decomposition-matrix and stratification engine "
                    "for finite free algebras given by structure constants.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_algebra=True, needs_prime=False):
        if needs_algebra:
            p.add_argument("algebra", help="algebra definition file")
        if needs_prime:
            p.add_argument("--prime", default="generic",
                           help="p=<int> | gen=[<poly>,...] | generic")
        p.add_argument("--seed", type=int,
                       help="accepted for compatibility; has no effect, since "
                            "reports are deterministic")
        p.add_argument("--format", choices=("table", "structured"), default="table")
        p.add_argument("--max-degree", type=_positive_int, default=None,
                       help="factorization budget (trial division limit)")

    def register(name, fn, needs_prime=False, needs_algebra=True, extra=None):
        p = sub.add_parser(name)
        common(p, needs_algebra, needs_prime)
        if extra:
            extra(p)
        # by name: main looks the handler up in this module when it runs, so
        # a handler replaced after the parser was built is the one called
        p.set_defaults(handler=fn.__name__)

    register("validate", cmd_validate)
    register("fiber", cmd_fiber, needs_prime=True)
    register("radical", cmd_radical, needs_prime=True)
    register("simples", cmd_simples, needs_prime=True)
    register("split-check", cmd_split_check, needs_prime=True)
    register("fingerprint", cmd_fingerprint, needs_prime=True)
    register("decmat", cmd_decmat, needs_prime=True)
    register("trivial", cmd_trivial, needs_prime=True,
             extra=lambda p: p.add_argument("--verify", action="store_true",
                                            help="also compute the matrix and check agreement"))
    register("schur", cmd_schur,
             extra=lambda p: p.add_argument("--verify", action="store_true",
                                            help="cross-check against the verified discriminant"))
    register("discriminant", cmd_discriminant)
    register("stratify", cmd_stratify)
    register("corpus-build", cmd_corpus_build, needs_algebra=False,
             extra=lambda p: (p.add_argument("keys", nargs="*"),
                              p.add_argument("--out", default="corpus")))
    register("verify-all", cmd_verify_all, needs_algebra=False,
             extra=lambda p: p.add_argument("--serial", action="store_true",
                                            help="accepted for compatibility; verify-all "
                                                 "always runs its jobs in-process"))
    return ap


@cache
def _parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    handler = globals()[args.handler]
    saved_limit = factor.DEFAULT_TRIAL_LIMIT
    if args.max_degree:
        factor.DEFAULT_TRIAL_LIMIT = args.max_degree
    try:
        return handler(args)
    except EngineError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    finally:
        factor.DEFAULT_TRIAL_LIMIT = saved_limit


if __name__ == "__main__":
    sys.exit(main())
