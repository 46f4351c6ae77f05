"""Reports pinned byte for byte.

Reports are deterministic for a fixed seed, so a committed copy is the
oracle for any change that should not move them (a faster scalar type, a
new memo).  Regenerate a file only for a change that is meant to alter
that report, and say so in the change."""

import os

import pytest

from decompgen.algebra import serialize_algebra
from decompgen.cli import main
from decompgen.corpus import REGISTRY, STRETCH

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CASES = [
    ("TL4_Q.discriminant.txt", REGISTRY["TL4_Q"], ["discriminant", "{alg}"]),
    ("B3_Q.split-check.json", STRETCH["B3_Q"],
     ["split-check", "{alg}", "--prime", "generic", "--format", "structured"]),
    ("verify-all.txt", None, ["verify-all", "--serial"]),
]
# every registry algebra over a ring with a variable: the radical and the
# split test of its generic fiber over k(d)
CASES += [(f"{key}.{argv[0]}.json", REGISTRY[key], argv)
          for key in ("B2_Q", "B2_Z", "TL2_Z", "TL3_Q", "TL4_Q")
          for argv in (["radical", "{alg}", "--format", "structured"],
                       ["split-check", "{alg}", "--prime", "generic", "--format", "structured"])]


@pytest.mark.parametrize("name,entry,argv", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(tmp_path, capsys, name, entry, argv):
    if entry is not None:
        path = tmp_path / f"{entry.key}.alg"
        path.write_text(serialize_algebra(entry.algebra()))
        argv = [a.format(alg=path) for a in argv]
    rc = main(argv)
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        want = fh.read()
    assert rc == 0
    assert out == want
