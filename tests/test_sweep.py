"""The seeded command-line sweep of cli_sweep.py: every call answers with a
documented exit code, each answer is the record of that call in the
committed universe output tests/golden/cli_universe.txt.gz, and a second
run repeats every answer byte for byte.

A change meant to alter some answer regenerates that file and says so:

    PYTHONPATH=src python tests/cli_sweep.py --universe | gzip -9 -n > tests/golden/cli_universe.txt.gz
"""

from cli_sweep import base_texts, format_records, golden_blocks, run_sweep, sweep_calls


def test_cli_sweep_exits_cleanly_and_repeats(tmp_path):
    texts = base_texts()
    calls = sweep_calls(texts)
    first = run_sweep(str(tmp_path), texts, calls)
    assert len(first) == 300
    bad = [(argv, rc) for argv, rc, _, _ in first if rc not in (0, 1, 2, 3)]
    assert not bad, bad
    # the schur calls on Mat2 over GF(2) answer: dim S = 2 is zero there
    assert all(rc == 0 for argv, rc, _, _ in first if "schur <dir>/Mat2_Z_GF_2_" in argv)
    golden = golden_blocks(texts)
    changed = [r[0] for r in first if golden[r[0]] != format_records([r])]
    assert not changed, changed
    assert run_sweep(str(tmp_path), texts, calls) == first
