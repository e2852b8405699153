"""CLI stdout against stored files, byte for byte.

Each file in tests/golden/ holds the stdout of one command.  The files
pin every printed digit of the tables, sweeps and checks, so a change that
moves one fails here.  Regenerate a file only when a change of output is
intended, from the root of a checkout:

    PYTHONPATH=src python -m rkdglab.cli ARGS > tests/golden/NAME.txt
"""
import os
import pathlib
import subprocess
import sys

import pytest

import rkdglab
from rkdglab.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

#: file name -> command line
CASES = {
    "accuracy_1d": "accuracy --r 2,3 --variant both --N 8,16",
    "accuracy_1d_perturbed": "accuracy --r 2,3 --variant both --N 8,16 --perturb 0.15 --seed 7",
    "accuracy_1d_perturbed_r4": "accuracy --r 4 --variant both --N 4,8 --perturb 0.15 --seed 7",
    "accuracy_2d": "accuracy --dim 2 --r 3 --variant both --N 4,8",
    "regularity": "regularity --r 3 --variant both --N 16,32 --T 0.25",
    "regularity_two_orders": "regularity --r 2,3 --variant both --N 16,32 --T 0.25",
    "regularity_2d": "regularity --dim 2 --r 2 --variant both --N 4,8 --T 0.25",
    "regularity_1d_perturbed": ("regularity --r 2,3 --variant both --N 16,32 --T 0.25"
                                " --perturb 0.15 --seed 7"),
    "stability_1d": "stability --r 3 --k 2 --variant both --N 8 --cfl 0.1,0.3",
    "stability_2d": "stability --r 3 --k 2 --variant both --N 8 --cfl 0.1,0.3 --dim 2",
    "cfl": "cfl --variant both --r 2,3",
    "cfl_high_k": "cfl --r 3 --k 13 --variant both",
    "prop_tests": "prop-tests",
}


@pytest.mark.parametrize("name", CASES)
def test_cli_stdout_matches_the_golden_file(name, capsys):
    assert main(CASES[name].split()) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode("ascii") == (GOLDEN / f"{name}.txt").read_bytes()


#: a sweep whose larger CFL numbers overflow the symbols (exit status 1)
OVERFLOW = "stability --r 2,3 --N 4,5 --cfl 1e50,1e80,1e150 --variant both"


def test_overflowing_sweep_flags_every_nan_row_and_prints_no_lapack_message():
    # a subprocess: LAPACK writes to the process's own stdout, which capsys misses
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rkdglab.__file__)))
    out = subprocess.run([sys.executable, "-m", "rkdglab.cli", *OVERFLOW.split()],
                         capture_output=True, timeout=60, env=env)
    assert out.returncode == 1
    assert b"DLASCL" not in out.stdout
    assert out.stdout == (GOLDEN / "stability_overflow.txt").read_bytes()
    nan_rows = [line.split(",") for line in out.stdout.decode("ascii").splitlines()
                if line.endswith(",nan,nan")]
    assert len(nan_rows) == 16
    # each row is named by its own error: RK3DG2's symbols overflow at 1e150
    # (operators.symbol_powers), every other growth overflows afterwards
    assert out.stderr.decode("ascii") == "".join(
        f"error: {scheme} {variant} N={n} m={m} cfl={cfl}: "
        f"{'symbols are' if (scheme, cfl) == ('RK3DG2', '1e+150') else 'growth is'} not finite\n"
        for scheme, variant, _, n, m, cfl, _, _ in nan_rows
    ) + f"error: {len(nan_rows)} failed row(s)\n"
