"""The seeded command-line sweep of cli_sweep.py: every call answers with a
documented exit code, the answers are those of the committed oracle
tests/golden/cli_sweep_300.txt, and a second run repeats every answer byte
for byte.

A change meant to alter some answer regenerates the oracle and says so:

    PYTHONPATH=src python tests/cli_sweep.py > tests/golden/cli_sweep_300.txt
"""

import os

from cli_sweep import base_texts, format_records, run_sweep, sweep_calls

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_sweep_300.txt")


def test_cli_sweep_exits_cleanly_and_repeats(tmp_path):
    texts = base_texts()
    calls = sweep_calls(texts)
    first = run_sweep(str(tmp_path), texts, calls)
    assert len(first) == 300
    bad = [(argv, rc) for argv, rc, _, _ in first if rc not in (0, 1, 2, 3)]
    assert not bad, bad
    # the schur calls on Mat2 over GF(2) answer: dim S = 2 is zero there
    assert all(rc == 0 for argv, rc, _, _ in first if "schur <dir>/Mat2_Z_GF_2_" in argv)
    with open(GOLDEN, encoding="utf-8") as fh:
        assert format_records(first) == fh.read()
    assert run_sweep(str(tmp_path), texts, calls) == first
