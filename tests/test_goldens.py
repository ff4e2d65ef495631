"""Byte-for-byte goldens of the JSON commands: ``spectrum`` and ``structure``
at n = 1..8 (``structure`` with and without ``--gamma``) and a small
``verify`` run.  Each file under ``tests/data`` holds the exact standard
output of the call named in ``GOLDENS``."""

import pathlib

import pytest

from oddpu.cli import main

DATA = pathlib.Path(__file__).parent / "data"

#: Frequencies and weights of the n-mode goldens: the first n (or 2n)
#: entries.  The frequencies leave ascending order at n = 6, so the sorted
#: flag and the reordering are pinned too.
OMEGAS = ("0.7", "1.3", "1.9", "2.45", "2.9", "0.45", "1.65", "2.2")
GAMMA = ("1.5", "-0.8", "-1.2", "0.9", "0.6", "-1.7", "-2", "1.1",
         "0.75", "-0.55", "-1.35", "1.8", "1.25", "-0.65", "-0.9", "1.45")


def _goldens():
    out = {}
    for n in range(1, 9):
        omegas = ["--omegas", *OMEGAS[:n]]
        out["spectrum_n%d.json" % n] = ["spectrum", *omegas]
        out["structure_n%d.json" % n] = ["structure", *omegas]
        out["structure_n%d_gamma.json" % n] = ["structure", *omegas,
                                                "--gamma", *GAMMA[:2 * n]]
    out["verify_n3_t4_s7.json"] = ["verify", "--n-max", "3", "--trials", "4",
                                   "--seed", "7"]
    return out


GOLDENS = _goldens()


@pytest.mark.parametrize("fixture", sorted(GOLDENS))
def test_output_matches_golden(capsys, fixture):
    code = main(GOLDENS[fixture])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / fixture).read_text()
