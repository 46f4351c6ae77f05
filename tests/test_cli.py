"""Command line surface: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys

import pytest

from cli_sweep import BIV, NIL, SQ
from decompgen.cli import main
from decompgen.rings import MAX_EXPONENT


@pytest.fixture(scope="module")
def corpdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("alg")
    rc = main(["corpus-build", "--out", str(d)])
    assert rc == 0
    return d


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_corpus_build_writes_all_registry_entries(corpdir):
    names = sorted(p for p in os.listdir(corpdir) if p.endswith(".alg"))
    from decompgen.corpus import REGISTRY

    assert names == sorted(f"{k}.alg" for k in REGISTRY)


def test_validate(corpdir, capsys):
    rc, out, _ = run_cli(["validate", str(corpdir / "ZS3.alg")], capsys)
    assert rc == 0
    assert "dim 6" in out and "symmetric" in out


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra x\nring Z\nbasis a\nunit 0\n")
    rc, out, err = run_cli(["validate", str(bad)], capsys)
    assert rc == 2
    bad.write_text("algebra x\nring Z\nbasis a\nunit 1\nfoo 1\n")
    rc, out, err = run_cli(["validate", str(bad)], capsys)
    assert rc == 2 and "line 5: unknown definition line 'foo 1'" in err


def test_trivial_exit_codes(corpdir, capsys):
    rc, out, _ = run_cli(["trivial", str(corpdir / "ZS3.alg"), "--prime", "p=5"], capsys)
    assert rc == 0 and "Trivial" in out
    rc, out, _ = run_cli(["trivial", str(corpdir / "ZS3.alg"), "--prime", "p=2"], capsys)
    assert rc == 1 and "NonTrivial" in out


def test_trivial_verify_mode(corpdir, capsys):
    rc, out, _ = run_cli(["trivial", str(corpdir / "ZC2.alg"), "--prime", "p=2",
                          "--verify", "--format", "structured"], capsys)
    assert rc == 1
    rep = json.loads(out)
    assert rep["matrix_agrees"] is True
    assert rep["matrix"] == [[1], [1]]


def test_trivial_at_a_large_prime(corpdir, capsys):
    rc, out, _ = run_cli(["trivial", str(corpdir / "ZS3.alg"),
                          "--prime", f"p={2**61 - 1}"], capsys)
    assert rc == 0 and "Trivial" in out

def test_unsupported_prime_exit_code(corpdir, capsys):
    rc, out, err = run_cli(["trivial", str(corpdir / "B2_Q.alg"),
                            "--prime", "gen=[d^2 - 2]"], capsys)
    assert rc == 3


def test_bad_prime_exit_code(corpdir, capsys):
    rc, out, err = run_cli(["trivial", str(corpdir / "ZS3.alg"), "--prime", "gen=[4]"],
                           capsys)
    assert rc == 2
    rc, out, err = run_cli(["trivial", str(corpdir / "B2_Z.alg"), "--prime", "gen=[d, d^2]"],
                           capsys)
    assert rc == 2 and not out
    assert err == "error: (d, d^2) is not a maximal point: redundant generators\n"


def test_generators_of_a_euclidean_prime_collapse_to_their_gcd(corpdir, capsys):
    rc, out, err = run_cli(["decmat", str(corpdir / "ZS3.alg"), "--prime", "gen=[6, 10]"],
                           capsys)
    assert rc == 0 and not err
    assert out.splitlines()[0] == "decomposition matrix of ZS3 at (2)"


def test_internal_invariants_are_not_invalid_input(corpdir, capsys):
    """Factoring zero and the minimal primes of the zero ideal are broken
    invariants of the engine, reported with exit 1 as an EngineError, and so
    is a linalg shape error, since linalg only meets matrices the engine
    built; a malformed prime polynomial is bad input and still exits 2."""
    from decompgen.errors import (
        DimensionMismatch, EngineError, NotSquare, UnsupportedError, ValidationError)
    from decompgen.factor import (
        factor_gf, factor_integer, factor_qq, factor_univariate)
    from decompgen.fields import GFPrime, Rationals
    from decompgen.linalg import Matrix, det, solve
    from decompgen.rings import parse_ring
    from decompgen.strata import minimal_primes

    Zd, Qd = parse_ring("Z[d]"), parse_ring("Q[d]")
    for call in (lambda: factor_integer(0), lambda: factor_gf(GFPrime(5), ()),
                 lambda: factor_qq(()), lambda: factor_univariate(Qd.zero()),
                 lambda: factor_univariate(Zd.zero()), lambda: minimal_primes(Zd.zero())):
        with pytest.raises(EngineError) as exc:
            call()
        assert type(exc.value) is EngineError and exc.value.exit_code == 1
    row = Matrix(Rationals(), [[1, 2]])
    for call, error in ((lambda: det(row), NotSquare), (lambda: row.mul(row), DimensionMismatch),
                        (lambda: solve(row, [1, 2]), DimensionMismatch)):
        with pytest.raises(error) as exc:
            call()
        assert not isinstance(exc.value, (ValidationError, UnsupportedError))
        assert exc.value.exit_code == 1
    rc, out, err = run_cli(["trivial", str(corpdir / "B2_Z.alg"), "--prime", "gen=[d^^2 - 2]"],
                           capsys)
    assert rc == 2 and not out and err == "error: expected integer exponent\n"


def test_unreadable_input_exits_2_and_internal_errors_surface(corpdir, tmp_path, capsys,
                                                               monkeypatch):
    """A missing or non-UTF-8 file, a non-integer p= and an unknown variable
    are bad input: exit 2 with one error line.  main catches only the
    engine's own errors, so a ValueError from inside the engine is a crash
    that surfaces, not a silent exit 2."""
    missing = str(tmp_path / "missing.alg")
    rc, out, err = run_cli(["validate", missing], capsys)
    assert rc == 2 and not out
    assert err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
    binary = tmp_path / "binary.alg"
    binary.write_bytes(b"\xffalgebra x\n")
    rc, out, err = run_cli(["validate", str(binary)], capsys)
    assert rc == 2 and not out
    assert err == ("error: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")
    alg = str(corpdir / "ZS3.alg")
    rc, out, err = run_cli(["trivial", alg, "--prime", "p=abc"], capsys)
    assert rc == 2 and not out
    assert err == ("error: cannot parse prime 'p=abc' (use p=<int>, gen=[...], "
                   "or generic)\n")
    rc, out, err = run_cli(["trivial", str(corpdir / "B2_Z.alg"), "--prime", "gen=[z - 1]"],
                           capsys)
    assert rc == 2 and not out and err == "error: unknown variable 'z' in Z[d]\n"
    # an integer past Python's str-to-int limit is bad input too
    digits = "9" * 5000
    for prime in (f"p={digits}", f"gen=[d - {digits}]"):
        rc, out, err = run_cli(["trivial", str(corpdir / "B2_Z.alg"), "--prime", prime], capsys)
        assert rc == 2 and not out and err.count("\n") == 1
    binary.write_text(f"algebra x\nring GF({digits})\nbasis e\nunit 1\nmul 0 0 0 1\n")
    rc, out, err = run_cli(["validate", str(binary)], capsys)
    assert rc == 2 and not out and err.count("\n") == 1
    monkeypatch.setattr("decompgen.cli.cmd_validate", lambda args: int("x"))
    with pytest.raises(ValueError):
        main(["validate", alg])


@pytest.mark.parametrize("args", [["discriminant"], ["decmat", "--prime", "p=5"]])
def test_not_split_is_a_negative_not_invalid_input(corpdir, capsys, args):
    """ZC3 is a valid algebra whose generic fiber does not split (x^2 + x + 1
    is irreducible over Q): commands that need a split fiber say so with the
    exit code of a mathematical negative, as split-check does."""
    cmd, *rest = args
    rc, out, err = run_cli([cmd, str(corpdir / "ZC3.alg"), *rest], capsys)
    assert rc == 1 and not out
    assert err == "error: the generic fiber of ZC3 does not split\n"
    rc, out, _ = run_cli(["split-check", str(corpdir / "ZC3.alg")], capsys)
    assert rc == 1 and "NOT split" in out


def test_decmat(corpdir, capsys):
    rc, out, _ = run_cli(["decmat", str(corpdir / "ZC2.alg"), "--prime", "p=2",
                          "--format", "structured"], capsys)
    assert rc == 0
    rep = json.loads(out)
    assert rep["rows"] == [[1], [1]]
    assert rep["trivial"] is False


def test_simples_and_fingerprint_and_radical(corpdir, capsys):
    rc, out, _ = run_cli(["simples", str(corpdir / "ZS3.alg"), "--prime", "p=3",
                          "--format", "structured"], capsys)
    rep = json.loads(out)
    assert rep["radical_dim"] == 4
    assert [s["dim"] for s in rep["simples"]] == [1, 1]
    rc, out, _ = run_cli(["radical", str(corpdir / "ZS3.alg"), "--prime", "p=3",
                          "--format", "structured"], capsys)
    assert json.loads(out)["dim"] == 4
    rc, out, _ = run_cli(["fingerprint", str(corpdir / "ZC2.alg"), "--prime", "p=2",
                          "--format", "structured"], capsys)
    rep = json.loads(out)
    assert rep["fingerprints"][0]["polys"] == [["1", "1"], ["1", "1"]]


def test_split_check_negative(corpdir, capsys, tmp_path):
    rc = main(["corpus-build", "ZC3", "--out", str(tmp_path)])
    assert rc == 0
    rc, out, _ = run_cli(["split-check", str(tmp_path / "ZC3.alg"),
                          "--prime", "generic"], capsys)
    assert rc == 1 and "NOT split" in out


def test_fiber_and_schur(corpdir, capsys):
    rc, out, _ = run_cli(["fiber", str(corpdir / "B2_Z.alg"), "--prime", "gen=[2, d]"],
                         capsys)
    assert rc == 0 and "GF(2)" in out
    rc, out, _ = run_cli(["schur", str(corpdir / "ZS3.alg"), "--verify"], capsys)
    assert rc == 0 and "6, 6, 3" in out and "True" in out


def test_discriminant_and_stratify(corpdir, capsys):
    rc, out, _ = run_cli(["discriminant", str(corpdir / "B2_Z.alg"),
                          "--format", "structured"], capsys)
    rep = json.loads(out)
    assert rep["candidate"] == "4*d^2"
    assert {p["prime"]: p["status"] for p in rep["points"]} == {
        "(2)": "Excluded", "(d)": "Excluded"}
    rc, out, _ = run_cli(["stratify", str(corpdir / "ZC2.alg"),
                          "--format", "structured"], capsys)
    rep = json.loads(out)
    assert len(rep["strata"]) == 2


def test_stratify_reports_a_component_it_cannot_verify(corpdir, capsys):
    """TL4_Q's candidate has the component d^2 - 2, whose residue field is
    out of scope: the tree keeps it as an unresolved leaf."""
    rc, out, err = run_cli(["stratify", str(corpdir / "TL4_Q.alg")], capsys)
    assert rc == 0 and not err
    lines = out.splitlines()
    at = lines.index("  at (d^2 - 2)? [Unknown]:")
    assert lines[at + 1] == ("    unresolved TL4_Q: residue field of (d^2 - 2) "
                             "is a degree-2 number field")
    assert ("  4: TL4_Q: unresolved: residue field of (d^2 - 2) is a degree-2 "
            "number field") in lines


def test_reports_are_byte_identical_across_runs(corpdir, capsys):
    # --seed is accepted and has no effect: the default run and the run at
    # --seed 5 give the same bytes as the two at --seed 7
    outs = []
    for seed in (["--seed", "7"], ["--seed", "7"], [], ["--seed", "5"]):
        rc, out, _ = run_cli(["stratify", str(corpdir / "B2_Z.alg"), *seed,
                              "--format", "structured"], capsys)
        assert rc == 0
        outs.append(out)
    assert outs[1:] == outs[:1] * 3
    outs = []
    for _ in range(2):
        rc, out, _ = run_cli(["simples", str(corpdir / "TL3_Q.alg"),
                              "--prime", "generic", "--seed", "3"], capsys)
        outs.append(out)
    assert outs[0] == outs[1]


def test_verify_all_serial(capsys):
    rc, out, _ = run_cli(["verify-all", "--serial"], capsys)
    assert rc == 0
    assert "0 failed" in out


def test_max_degree_applies_to_one_call_only(corpdir, capsys, monkeypatch):
    from decompgen import factor

    monkeypatch.setattr(factor, "DEFAULT_TRIAL_LIMIT", factor.DEFAULT_TRIAL_LIMIT)
    rc, _, _ = run_cli(["validate", str(corpdir / "ZS3.alg"), "--max-degree", "3"], capsys)
    assert rc == 0
    # 1009 * 1013 needs trial division past 3; a leaked budget raises here
    assert factor.factor_integer(1009 * 1013) == (1, [(1009, 1), (1013, 1)])
    for bad in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["validate", str(corpdir / "ZS3.alg"), "--max-degree", bad])
        assert exc.value.code == 2


@pytest.mark.parametrize("bad", ["0", "two"])
def test_max_degree_must_be_a_positive_integer(corpdir, capsys, bad):
    """A --max-degree that is not a positive integer is a usage error: exit
    2 with one error line and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(corpdir / "ZS3.alg"), "--max-degree", bad])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"decompgen validate: error: argument --max-degree: must be a positive "
        f"integer, got {bad!r}"]
    assert "Traceback" not in err


def test_max_degree_is_restored_after_a_valid_call(corpdir, capsys):
    from decompgen import factor

    before = factor.DEFAULT_TRIAL_LIMIT
    rc, _, _ = run_cli(["validate", str(corpdir / "ZS3.alg"), "--max-degree", "5"], capsys)
    assert rc == 0 and factor.DEFAULT_TRIAL_LIMIT == before


def test_a_handler_replaced_after_the_first_call_is_the_one_called(corpdir, capsys,
                                                                  monkeypatch):
    # the parser is built once per process; the handler is looked up when
    # main runs, so one patched in later (as a tracer does) still runs
    import decompgen.cli as cli

    path = str(corpdir / "ZC2.alg")
    assert run_cli(["validate", path], capsys)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_validate", lambda args: seen.append(args.algebra) or 7)
    assert run_cli(["validate", path], capsys)[0] == 7
    assert seen == [path]
    monkeypatch.undo()
    assert run_cli(["validate", path], capsys)[0] == 0 and seen == [path]


def test_definition_roundtrip_through_cli(corpdir, tmp_path, capsys):
    from decompgen.algebra import load_algebra_file, serialize_algebra

    A = load_algebra_file(str(corpdir / "B2_Z.alg"))
    text = serialize_algebra(A)
    assert (corpdir / "B2_Z.alg").read_text() == text


def _write(tmp_path, text):
    path = tmp_path / (text.split()[1] + ".alg")
    path.write_text(text)
    return str(path)


def test_quadratic_extension_of_a_function_field(tmp_path, capsys):
    """Q[d][t]/(t^2 - d): the generic fiber is a field, so it is certified
    simple and not split instead of exhausting the chop budget."""
    sq = _write(tmp_path, SQ)
    rc, out, err = run_cli(["split-check", sq, "--prime", "generic"], capsys)
    assert rc == 1 and "NOT split (endo dims [2])" in out and not err
    rc, out, err = run_cli(["stratify", sq], capsys)
    assert rc == 0 and not err
    assert "unresolved SQ: the generic fiber of SQ does not split" in out


def test_stratify_over_two_variables_descends_to_a_line(tmp_path, capsys):
    """Q[x,y][t]/((t - x)(t - y)) splits generically over Q(x, y) and is
    excluded on the diagonal, where the restriction over Q[y] has a radical
    that stays one-dimensional everywhere."""
    rc, out, err = run_cli(["stratify", _write(tmp_path, BIV)], capsys)
    assert rc == 0 and not err
    lines = out.splitlines()
    assert lines[0].startswith("BIV over Q[x,y]: ")
    assert lines[1] == "  at (x - y) [Excluded]:"
    assert lines[2] == "    BIV|(x - y) over Q[y]: candidate (1), stratum = all of Spec(R)"


def test_discriminant_and_stratify_over_a_euclidean_ring(tmp_path, capsys):
    nil = _write(tmp_path, NIL)
    rc, out, err = run_cli(["discriminant", nil], capsys)
    assert rc == 0 and not err
    assert out.splitlines()[0] == "candidate discriminant of NIL: (1)"
    assert "RecoveredTrivial" not in out
    rc, out, err = run_cli(["stratify", nil], capsys)
    assert rc == 0 and not err and "NIL: all of Spec(R)" in out


def test_a_local_fiber_over_a_function_field_reads_its_simple_off_the_generic_one(
        tmp_path, capsys):
    """NIL over Z[y] is Z[y][t]/((t - y)^2); its fiber at (2) is
    GF(2)(y)[t]/((t + y)^2), local, whose dim-2 regular module the chop
    cannot split over GF(2)(y).  The generic simple t -> y reduces to its
    one simple, so decmat and trivial answer."""
    nil = _write(tmp_path, NIL.replace("ring Q[y]", "ring Z[y]"))
    rc, out, err = run_cli(["decmat", nil, "--prime", "p=2"], capsys)
    assert rc == 0 and not err
    assert out.splitlines() == ["decomposition matrix of NIL at (2)",
                                "            T0(d1)", "    S0(d1)        1"]
    for verify in ([], ["--verify"]):
        rc, out, err = run_cli(["trivial", nil, *verify, "--prime", "p=2"], capsys)
        assert rc == 0 and not err
        assert out == "NIL at (2): Trivial (radical dims 1 generic, 1 fiber)\n"


# the order Z 1 + Z i + 3 Mat2(Z), i = E12 - E21, on the basis (1, i, 3 E11, 3 E12)
LAMI = """algebra LamI
ring Z
basis one i p11 p12
unit 1, 0, 0, 0
mul 0 0 0 1
mul 0 1 1 1
mul 0 2 2 1
mul 0 3 3 1
mul 1 0 1 1
mul 1 1 0 -1
mul 1 2 1 3
mul 1 2 3 -1
mul 1 3 0 -3
mul 1 3 2 1
mul 2 0 2 1
mul 2 1 3 1
mul 2 2 2 3
mul 2 3 3 3
mul 3 0 3 1
mul 3 1 2 -1
"""


def test_an_unknown_point_at_a_certified_prime_prints_its_reason(tmp_path, capsys):
    """LamI's generic fiber is Mat2(Q), but its fiber at (3) does not split:
    the discriminant keeps (3) as Unknown and reports why, in both formats."""
    lam = _write(tmp_path, LAMI)
    rc, out, err = run_cli(["discriminant", lam], capsys)
    assert rc == 0 and not err
    assert out.splitlines() == ["candidate discriminant of LamI: (1296)",
                                "  (2): RecoveredTrivial (radical 0 -> 0)",
                                "  (3): Unknown (the fiber of LamI at (3) does not split)"]
    rc, out, err = run_cli(["discriminant", lam, "--format", "structured"], capsys)
    assert rc == 0 and not err
    assert json.loads(out)["points"][1] == {
        "prime": "(3)", "status": "Unknown",
        "reason": "the fiber of LamI at (3) does not split"}


def test_malformed_primes_and_trace_forms_are_invalid_input(corpdir, tmp_path, capsys):
    """A --prime of no known shape, a trace form that is not symmetric and
    one that is degenerate over the fraction field exit 2 on one error line."""
    for prime in ("q=3", "gen=d"):
        rc, out, err = run_cli(["decmat", str(corpdir / "ZC2.alg"), "--prime", prime], capsys)
        assert rc == 2 and not out and err.startswith(f"error: cannot parse prime '{prime}'")
    table = ("algebra NS\nring Z\nbasis a b c\nunit 1, 0, 1\ntrace 0, 1, 0\n"
             "mul 0 0 0 1\nmul 0 1 1 1\nmul 1 2 1 1\nmul 2 2 2 1\n")
    rc, out, err = run_cli(["validate", _write(tmp_path, table)], capsys)
    assert rc == 2 and not out and err == "error: trace form is not symmetric\n"
    zc2 = (corpdir / "ZC2.alg").read_text().replace("trace 1, 0", "trace 0, 0")
    rc, out, err = run_cli(["validate", _write(tmp_path, zc2)], capsys)
    assert rc == 2 and not out
    assert err == "error: trace form is degenerate over the fraction field\n"


def _sympy_modules_after(argv):
    """The sympy modules a fresh interpreter holds after importing the CLI
    and, when argv is given, running cli.main(argv) in it.  The suite itself
    imports sympy, so the cold start is only visible from a new process."""
    script = ("import contextlib, io, sys\n"
              "import decompgen.cli\n"
              "if sys.argv[1:]:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        rc = decompgen.cli.main(sys.argv[1:])\n"
              "    if rc:\n"
              "        sys.exit(rc)\n"
              "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'sympy'))\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cold_start_imports_no_sympy():
    assert _sympy_modules_after([]) == "[]"


def test_finite_field_calls_import_no_sympy(corpdir, tmp_path):
    assert _sympy_modules_after(["corpus-build", "--out", str(tmp_path)]) == "[]"
    assert _sympy_modules_after(["decmat", str(corpdir / "Dual_Z.alg"),
                                 "--prime", "p=29"]) == "[]"
    # the generic point of Z is Q, where the characteristic polynomials
    # of ZS3 split into rational roots and small root-free cofactors
    assert _sympy_modules_after(["simples", str(corpdir / "ZS3.alg"),
                                 "--prime", "generic"]) == "[]"
    # SQ's generic fiber is over Q(d), where t^2 - d is factored by sympy:
    # the probe does see sympy when a call loads it
    assert "'sympy'" in _sympy_modules_after(["simples", _write(tmp_path, SQ),
                                              "--prime", "generic"])


_MALFORMED = [
    ("Z[d]", "1/0", "1/0 has a zero denominator"),
    ("Q[d]", "0/0", "0/0 has a zero denominator"),
    ("GF(5)[d]", "1/5", "1/5 has no value in GF(5)"),
    ("Z[d]", f"d^{10**12}", f"exponent {10**12} of d exceeds {MAX_EXPONENT}"),
]


@pytest.mark.parametrize("ring, coeff, message", _MALFORMED,
                         ids=["zero-den", "zero-over-zero", "p-in-den", "huge-exponent"])
def test_malformed_coefficients_are_invalid_input(tmp_path, capsys, ring, coeff, message):
    """A zero denominator, a denominator divisible by the characteristic and
    an exponent above rings.MAX_EXPONENT are bad input, in a definition file
    (named by its line) and in a --prime: exit 2 and one error line."""
    table = ("algebra idem\nring {}\nbasis e s\nunit 1, 0\n"
             "mul 0 0 0 1\nmul 0 1 1 1\nmul 1 0 1 1\nmul 1 1 1 {}\n")
    bad = tmp_path / "bad.alg"
    bad.write_text(table.format(ring, coeff))
    rc, out, err = run_cli(["validate", str(bad)], capsys)
    assert rc == 2 and not out and err == f"error: line 8: {message}\n"
    good = _write(tmp_path, table.format(ring, 1))
    rc, out, err = run_cli(["decmat", good, "--prime", f"gen=[d - {coeff}]"], capsys)
    assert rc == 2 and not out and err == f"error: {message}\n"
