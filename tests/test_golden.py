"""CLI stdout against stored files, byte for byte.

Each file in tests/golden/ holds the stdout of one command.  The files
pin every printed digit of the tables, sweeps and checks, so a change that
moves one fails here.  Regenerate a file only when a change of output is
intended, from the root of a checkout:

    PYTHONPATH=src python -m rkdglab.cli ARGS > tests/golden/NAME.txt
"""
import pathlib

import pytest

from rkdglab.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

#: file name -> command line
CASES = {
    "accuracy_1d": "accuracy --r 2,3 --variant both --N 8,16",
    "accuracy_1d_perturbed": "accuracy --r 2,3 --variant both --N 8,16 --perturb 0.15 --seed 7",
    "accuracy_2d": "accuracy --dim 2 --r 3 --variant both --N 4,8",
    "regularity": "regularity --r 3 --variant both --N 16,32 --T 0.25",
    "regularity_two_orders": "regularity --r 2,3 --variant both --N 16,32 --T 0.25",
    "regularity_2d": "regularity --dim 2 --r 2 --variant both --N 4,8 --T 0.25",
    "stability_1d": "stability --r 3 --k 2 --variant both --N 8 --cfl 0.1,0.3",
    "stability_2d": "stability --r 3 --k 2 --variant both --N 8 --cfl 0.1,0.3 --dim 2",
    "cfl": "cfl --variant both --r 2,3",
    "prop_tests": "prop-tests",
}


@pytest.mark.parametrize("name", CASES)
def test_cli_stdout_matches_the_golden_file(name, capsys):
    assert main(CASES[name].split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("ascii") == (GOLDEN / f"{name}.txt").read_bytes()
