import csv
import os
import subprocess
import sys

import pytest

import rkdglab

from rkdglab import cli, stability
from rkdglab.cli import (
    ACCURACY_HEADER,
    CFL_HEADER,
    COMMAND_KEYS,
    KEY_SPECS,
    STABILITY_HEADER,
    _check_step_counts,
    _schemes_for,
    main,
    parse_config,
    run,
)
from rkdglab.errors import ConfigError
from rkdglab.experiments import resolve_timestep
from rkdglab.schemes import MAX_STEPPED_STEPS


def resolve(text=None, **kv):
    return parse_config(text, [(k, v) for k, v in kv.items()])


def _read_csv(text):
    """(meta, fieldnames, rows): the '# key: value' lines, then the plain CSV below them."""
    lines = text.splitlines()
    meta = dict((part.strip() for part in line[1:].split(":", 1))
                for line in lines if line.startswith("#"))
    reader = csv.DictReader(line for line in lines if not line.startswith("#"))
    rows = list(reader)
    return meta, reader.fieldnames, rows


def test_missing_command_is_rejected():
    with pytest.raises(ConfigError, match="missing command"):
        parse_config("", [])


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="frobnicate"):
        resolve("frobnicate = 3", command="cfl")


def test_bad_line_and_bad_value():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("what is this", [("command", "cfl")])
    with pytest.raises(ConfigError, match="bad value"):
        resolve(command="accuracy", N="twenty")


def test_conflicting_k_with_multiple_orders():
    with pytest.raises(ConfigError, match="conflict"):
        resolve(command="accuracy", r="2,3", k="1")


def test_defaults_per_command():
    cfl = resolve(command="cfl")
    assert cfl["r"] == tuple(range(2, 9))
    acc = resolve(command="accuracy")
    assert acc["N"] == (20, 40, 80, 160, 320)
    st = resolve(command="stability", dim="2")
    assert st["N"] == (4, 8, 16)


def test_flags_override_file():
    text = "command = cfl\nr = 2\nvariant = standard\n"
    values = parse_config(text, [("variant", "sdA")])
    assert values["variant"] == "sdA"
    assert values["command"] == "cfl"


def test_cfl_job_single_scheme(capsys):
    values = resolve(command="cfl", r="2", k="1", variant="sdA")
    assert run(values) == 0
    meta, fields, rows = _read_csv(capsys.readouterr().out)
    assert ",".join(fields) == CFL_HEADER
    assert len(rows) == 1
    assert rows[0]["scheme"] == "RK2DG1" and rows[0]["variant"] == "sdA"
    assert abs(float(rows[0]["cfl"]) - 0.333) <= 0.005
    assert "config" in meta and "seed" in meta and "version" in meta


def test_cfl_job_full_family(capsys):
    values = resolve(command="cfl", variant="sdA")
    assert run(values) == 0
    _, _, rows = _read_csv(capsys.readouterr().out)
    expected = (0.333, 0.191, 0.127, 0.104, 0.085, 0.076, 0.064)
    assert len(rows) == 7
    for row, ref in zip(rows, expected):
        assert abs(float(row["cfl"]) - ref) <= 0.005


def test_stability_job_single_point(capsys):
    values = resolve(command="stability", r="3", k="2", variant="sdA", N="32", cfl="0.1")
    assert run(values) == 0
    text = capsys.readouterr().out
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == STABILITY_HEADER
    assert len(lines) == 2  # header plus exactly one data row
    assert float(lines[1].split(",")[-1]) == 1e-16


def test_accuracy_job_headers_and_roundtrip(capsys):
    values = resolve(command="accuracy", r="2", dim="1", N="20,40")
    assert run(values) == 0
    meta, fields, rows = _read_csv(capsys.readouterr().out)
    assert ",".join(fields) == ACCURACY_HEADER
    assert [r["N"] for r in rows] == ["20", "40"]
    assert rows[0]["eoc"] == ""
    assert float(rows[1]["eoc"]) == pytest.approx(2.09, abs=0.02)
    # rounded column carries 3 significant digits; _raw carries full precision
    assert len(rows[0]["l2_error"]) == 8
    assert float(rows[0]["l2_error_raw"]) == pytest.approx(4.6747422599e-03, rel=1e-9)


def test_byte_identical_reruns(capsys):
    values = resolve(command="stability", r="2", k="1", N="16", cfl="0.2,0.4")
    assert run(values) == 0
    first = capsys.readouterr().out
    assert run(values) == 0
    assert capsys.readouterr().out == first


def test_prop_tests_command(capsys):
    values = resolve(command="prop-tests")
    assert run(values) == 0
    assert all(line.startswith("PASS") for line in capsys.readouterr().out.splitlines())


def test_main_with_config_file(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("command = cfl\nr = 2\nk = 1\nvariant = sdA\n"
                   f"output = {tmp_path / 'out.csv'}\n")
    assert main(["--config", str(cfg)]) == 0
    meta, fields, rows = _read_csv((tmp_path / "out.csv").read_text(encoding="ascii"))
    assert rows[0]["cfl"].startswith("0.333")


def test_infinite_timestep_in_a_config_file_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("command = accuracy\nr = 2\nN = 4,8\ntimestep = inf\n")
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", "error: timestep must be > 0 and < inf, "
                                       "got timestep = inf\n")


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_bytes(b"command = cfl\nr = 2 # \xff\n")
    assert main(["--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read config: ")
    assert captured.err.count("\n") == 1


def test_config_file_with_a_byte_order_mark_runs(tmp_path, capsys):
    # some editors save UTF-8 with a leading byte-order mark
    cfg = tmp_path / "job.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfcommand = cfl\nr = 2\n")
    assert main(["--config", str(cfg)]) == 0
    from_file = capsys.readouterr()
    assert from_file.err == ""
    assert main(["cfl", "--r", "2"]) == 0
    assert from_file.out.splitlines()[1:] == capsys.readouterr().out.splitlines()[1:]


def test_non_ascii_output_path_is_escaped_in_the_ascii_file(tmp_path, capsys):
    argv = ["accuracy", "--r", "2", "--N", "4,8"]
    assert main(argv) == 0
    _, _, expected = _read_csv(capsys.readouterr().out)
    path = tmp_path / "\u00e9.csv"
    assert main([*argv, "--output", str(path)]) == 0
    meta, _, rows = _read_csv(path.read_bytes().decode("ascii"))
    assert rows == expected
    assert meta["config"].endswith(f"output={tmp_path}/\\xe9.csv quad_points=auto")


def test_main_hands_the_resolved_values_to_run_alone(monkeypatch, capsys):
    # bench/worker.py --setup-only times config resolution through this seam:
    # it replaces cli.run with a stub and calls main
    calls = []

    def recorder(*args, **kwargs):
        calls.append((args, kwargs))
        return 7

    monkeypatch.setattr(cli, "run", recorder)
    assert main(["accuracy", "--r", "2", "--N", "4,8"]) == 7
    assert capsys.readouterr() == ("", "")
    assert calls == [((resolve(command="accuracy", r="2", N="4,8"),), {})]


def test_main_reports_config_errors(capsys):
    assert main(["accuracy", "--set", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["accuracy", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["accuracy", "--N"], "argument --N: expected one argument"),
    (["accuracyy"], "argument command: invalid choice: 'accuracyy'"),
    (["accuracy", "--set", "N=8"], "unrecognized arguments: --set N=8"),
    # a flag prefix is no flag: --t could mean T or timestep, --q quad_points
    (["accuracy", "--r", "2", "--N", "8", "--t", "0.5"], "unrecognized arguments: --t 0.5"),
    (["accuracy", "--q", "3"], "unrecognized arguments: --q 3"),
    (["regularity", "--flat", "r"], "unrecognized arguments: --flat r"),
], ids=["unknown-flag", "flag-without-value", "unknown-command", "set-is-gone",
        "prefix-t", "prefix-q", "prefix-flat"])
def test_command_line_syntax_error_is_one_error_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_help_lists_each_key_once_with_its_own_name(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = [line.strip() for line in capsys.readouterr().out.splitlines()]
    for key in KEY_SPECS:
        if key == "command":
            continue
        usage = f"--{key.replace('_', '-')} {key.upper()}"
        assert sum(line.startswith(usage) for line in lines) == 1, usage


def test_io_failure_exit_code():
    values = resolve(command="cfl", r="2", k="1",
                     output="/nonexistent-dir/impossible/out.csv")
    assert run(values) == 2


@pytest.mark.parametrize("argv, message", [
    (["cfl", "--k", "0", "--r", "2"], "cfl needs r >= 2 and k >= 1, got r = 2, k = 0"),
    (["cfl", "--r", "1"], "cfl needs r >= 2 and k >= 1, got r = 1, k = 0"),
    (["accuracy", "--k", "-1", "--r", "2", "--N", "8"], "k must be >= 0, got k = -1"),
    (["regularity", "--k", "-1", "--r", "2", "--N", "8"], "k must be >= 0, got k = -1"),
    (["regularity", "--k", "1", "--r", "3", "--N", "8"], "regularity needs k = r - 1"),
    (["regularity", "--r", "1", "--N", "8,16"],
     "regularity with flat_mode r needs flat = r >= 2, got r = 1"),
    (["stability", "--k", "-1", "--r", "2", "--N", "8", "--cfl", "0.1"],
     "k must be >= 0, got k = -1"),
], ids=["cfl-k0", "cfl-r1", "accuracy-negative-k", "regularity-negative-k",
        "regularity-k-not-r-1", "regularity-r1-flat-r", "stability-negative-k"])
def test_bad_degree_or_order_is_a_config_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.out == ""


def test_workers_key_is_gone(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("command = cfl\nr = 2\nworkers = 2\n")
    assert main(["--config", str(cfg)]) == 2
    assert "unknown config key 'workers'" in capsys.readouterr().err


def test_sda_with_k0_is_a_config_error(capsys):
    assert main(["stability", "--variant", "sdA", "--k", "0", "--r", "2", "--N", "8",
                 "--cfl", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: variant sdA") and "k = 0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["accuracy", "--r", "2", "--N", "1"], "N must be >= 2, got N = 1"),
    (["accuracy", "--dim", "2", "--r", "2", "--N", "8,1"], "N must be >= 2, got N = 1"),
    (["stability", "--r", "2", "--m", "0"], "m must be >= 1, got m = 0"),
    (["accuracy", "--r", "2", "--perturb", "0.5"], "perturb must be >= 0 and < 0.5, got perturb = 0.5"),
    (["accuracy", "--r", "2", "--perturb", "-0.1"], "perturb must be >= 0 and < 0.5, got perturb = -0.1"),
    (["accuracy", "--r", "2", "--quad-points", "0"],
     "quad_points must be >= 1 and <= 100, got quad_points = 0"),
    # leggauss(100000) would ask for an 80 GB companion matrix
    (["accuracy", "--r", "2", "--quad-points", "101"],
     "quad_points must be >= 1 and <= 100, got quad_points = 101"),
    (["accuracy", "--r", "2", "--timestep", "0"], "timestep must be > 0 and < inf, got timestep = 0.0"),
    (["accuracy", "--r", "2", "--timestep", "-0.01"],
     "timestep must be > 0 and < inf, got timestep = -0.01"),
    # an infinite step takes no step: it once printed the initial error as that at T
    (["accuracy", "--r", "2", "--N", "4,8", "--timestep", "inf"],
     "timestep must be > 0 and < inf, got timestep = inf"),
    (["accuracy", "--r", "2", "--N", "8", "--T", "-1"], "T must be >= 0 and < inf, got T = -1.0"),
    (["stability", "--r", "2", "--cfl", "0.1,-0.1"], "cfl must be >= 0 and < inf, got cfl = -0.1"),
    # an infinite CFL number once printed a nan row, "symbols are not finite", and exit 1
    (["stability", "--r", "2", "--N", "4", "--cfl", "inf"],
     "cfl must be >= 0 and < inf, got cfl = inf"),
    (["accuracy", "--r", "0"], "r must be >= 1, got r = 0"),
    (["accuracy", "--dim", "3"], "dim must be >= 1 and <= 2, got dim = 3"),
    (["accuracy", "--seed", "-1"], "seed must be >= 0, got seed = -1"),
    (["stability", "--r", "2", "--N", "8", "--cfl", "0.1,0.3", "--perturb", "0.3"],
     "stability meshes are uniform: perturb must be 0, got perturb = 0.3"),
    (["accuracy", "--dim", "2", "--r", "2", "--N", "8", "--perturb", "0.3"],
     "2D meshes are uniform: perturb must be 0, got perturb = 0.3"),
    (["regularity", "--dim", "2", "--r", "2", "--N", "8", "--T", "0.1", "--perturb", "0.3"],
     "2D meshes are uniform: perturb must be 0, got perturb = 0.3"),
    # a repeated N would divide its EOC by log(N / N) = 0
    (["accuracy", "--r", "2", "--N", "4,4"], "N must not repeat a value, got N = 4 more than once"),
    (["accuracy", "--dim", "2", "--r", "2", "--N", "4,4"],
     "N must not repeat a value, got N = 4 more than once"),
    (["regularity", "--r", "2", "--N", "8,8", "--T", "0.1"],
     "N must not repeat a value, got N = 8 more than once"),
    (["stability", "--r", "2", "--N", "8,16,8"],
     "N must not repeat a value, got N = 8 more than once"),
    # a repeated r would print and compute each of its rows twice
    (["accuracy", "--r", "2,2"], "r must not repeat a value, got r = 2 more than once"),
    (["regularity", "--r", "2,3,2", "--N", "8,16", "--T", "0.1"],
     "r must not repeat a value, got r = 2 more than once"),
    (["stability", "--r", "3,3"], "r must not repeat a value, got r = 3 more than once"),
    (["cfl", "--r", "2,2"], "r must not repeat a value, got r = 2 more than once"),
], ids=["N1", "N1-2d", "m0", "perturb-high", "perturb-negative", "quad0", "quad101", "timestep0",
        "timestep-negative", "timestep-inf", "T-negative", "cfl-negative", "cfl-inf", "r0", "dim3",
        "seed-negative", "perturb-stability", "perturb-2d-accuracy", "perturb-2d-regularity",
        "N-repeated", "N-repeated-2d", "N-repeated-regularity", "N-repeated-stability",
        "r-repeated", "r-repeated-regularity", "r-repeated-stability", "r-repeated-cfl"])
def test_out_of_range_value_is_a_config_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("key", [key for key, (_, _, bounds) in KEY_SPECS.items() if bounds])
def test_a_non_finite_number_is_a_config_error_that_names_its_key(key):
    command = next(command for command, keys in COMMAND_KEYS.items() if key in keys)
    for raw in ("inf", "nan"):
        with pytest.raises(ConfigError, match=rf"^(bad value for key '{key}'|{key} must be )"):
            resolve(command=command, **{key: raw})


@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 7.45 GiB for an array with shape (100000000, 10) and data type float64",
     "Unable to allocate 7.45 GiB for an array with shape (100000000, 10) and data type float64"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_an_allocation_failure_is_one_error_line(message, line, monkeypatch, capsys):
    # numpy raises a MemoryError when an array cannot be allocated; no test allocates one
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "accuracy_table", exhausted)
    assert main(["accuracy", "--r", "2", "--N", "8"]) == 2
    assert capsys.readouterr() == ("", f"error: {line}\n")


@pytest.mark.parametrize("argv, message", [
    (["cfl", "--r", "2", "--dim", "2", "--N", "8", "--m", "3", "--seed", "5"],
     "cfl does not read dim, N, seed, m"),
    (["stability", "--r", "2", "--N", "8", "--cfl", "0.1", "--T", "3", "--quad-points", "2"],
     "stability does not read T, quad_points"),
    (["stability", "--r", "2", "--N", "8", "--seed", "3"], "stability does not read seed"),
    (["accuracy", "--r", "2", "--N", "8", "--cfl", "0.1", "--m", "2"],
     "accuracy does not read m, cfl"),
    (["regularity", "--r", "2", "--N", "8", "--timestep", "0.01"],
     "regularity does not read timestep"),
    (["prop-tests", "--r", "3"], "prop-tests does not read r"),
    (["cfl", "--flat-mode", "r+1"], "cfl does not read flat_mode"),
    (["accuracy", "--r", "2", "--N", "8", "--seed", "5", "--T", "0.1"],
     "seed selects a perturbed 1D mesh: it needs perturb > 0, got seed = 5 with perturb = 0"),
    (["accuracy", "--dim", "2", "--r", "2", "--N", "8", "--seed", "5"],
     "seed selects a perturbed 1D mesh: it needs perturb > 0, got seed = 5 with perturb = 0"),
    (["regularity", "--r", "2", "--N", "8,16", "--T", "0.1", "--seed", "0", "--perturb", "0"],
     "seed selects a perturbed 1D mesh: it needs perturb > 0, got seed = 0 with perturb = 0"),
    (["regularity", "--dim", "2", "--r", "2", "--N", "8", "--T", "0.1", "--seed", "5"],
     "seed selects a perturbed 1D mesh: it needs perturb > 0, got seed = 5 with perturb = 0"),
], ids=["cfl-echoed-keys", "stability-T-quad", "stability-seed", "accuracy-m-cfl",
        "regularity-timestep", "prop-tests-r", "cfl-set-pair", "accuracy-seed-unperturbed",
        "accuracy-seed-2d", "regularity-seed-perturb-0", "regularity-seed-2d"])
def test_key_the_command_does_not_read_is_a_config_error(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_unread_key_from_a_config_file_is_an_error_and_defaults_are_not(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("command = cfl\nr = 2\nN = 8\n")
    assert main(["--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: cfl does not read N\n"
    # keys left at their defaults are echoed but never rejected, and
    # stability still takes an explicit perturb = 0
    values = resolve(command="stability", r="2", N="8", cfl="0.1", perturb="0", output="-")
    assert values["T"] == "auto" and values["perturb"] == 0.0
    # a seed with a perturbed 1D mesh is read
    values = resolve(command="accuracy", r="2", N="8", perturb="0.15", seed="3", output="-")
    assert values["seed"] == 3 and values["perturb"] == 0.15


def test_blown_up_row_names_scheme_n_and_step(capsys):
    # tau = 0.5 is cfl 4 at N = 8: the first steps already cross the blow-up limit
    assert main(["accuracy", "--r", "3", "--N", "8", "--timestep", "0.5", "--T", "20"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: RK3DG2 standard N=8 blew up at step 4\n"
                            "warning: 1 flagged row(s)\n")
    assert captured.out.splitlines()[-1] == "RK3DG2,standard,1,8,24,nan,,nan,"


def test_cfl_row_with_no_stable_number_is_named(monkeypatch, capsys):
    # an unsatisfiable growth threshold leaves no stable CFL number
    monkeypatch.setattr(stability, "CFL_GROWTH_TOL", -1.0)
    assert main(["cfl", "--r", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: RK2DG1 standard has no stable CFL number of 0.0005 "
                            "or more\nwarning: 1 flagged row(s)\n")
    assert captured.out.splitlines()[-1] == "RK2DG1,standard,2,1,0,0"


@pytest.mark.parametrize("argv, message", [
    (["accuracy", "--r", "2", "--N", "8", "--T", "1e300", "--timestep", "1e-300"],
     "T = 1e+300 is not a finite number of time steps of 1e-300"),
    (["accuracy", "--r", "2", "--N", "8", "--T", "1", "--timestep", "1e-320"],
     "T = 1.0 is not a finite number of time steps of 1e-320"),
    (["regularity", "--r", "3", "--N", "8", "--T", "1e308"],
     "T = 1e+308 is not a finite number of time steps of 0.0125"),
], ids=["T-huge", "timestep-subnormal", "regularity-T-huge"])
def test_step_count_that_is_not_finite_exits_2_before_any_row(argv, message):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rkdglab.__file__)))
    out = subprocess.run([sys.executable, "-m", "rkdglab.cli", *argv], capture_output=True,
                         text=True, timeout=60, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["accuracy", "--r", "2", "--N", "8", "--perturb", "0.2", "--seed", "1", "--T", "1e9"],
     "T = 1000000000.0 needs 80000000000 time steps of 0.0125, "
     "more than the 100000000 taken on a perturbed mesh"),
    (["regularity", "--r", "3", "--N", "16,8", "--perturb", "0.1", "--T", "2e6"],
     "T = 2000000.0 needs 320000000 time steps of 0.00625, "
     "more than the 100000000 taken on a perturbed mesh"),
    (["accuracy", "--r", "2", "--N", "4", "--perturb", "0.1", "--timestep", "1e-300"],
     "T = 1.0 needs 1e+300 time steps of 1e-300, "
     "more than the 100000000 taken on a perturbed mesh"),
], ids=["accuracy", "regularity", "accuracy-1e-300"])
def test_more_steps_than_a_perturbed_mesh_is_stepped_exits_2_before_any_row(argv, message):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rkdglab.__file__)))
    out = subprocess.run([sys.executable, "-m", "rkdglab.cli", *argv], capture_output=True,
                         text=True, timeout=30, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["accuracy", "--dim", "2", "--r", "4", "--N", "4", "--timestep", "1e-9"],
     "1e+09 time steps of 1e-09 to final time 1.0 exceed the 100000000 that stepping takes; "
     "the Fourier route cannot bound their growth"),
    (["accuracy", "--r", "2", "--N", "4", "--timestep", "1e-300"],
     "1e+300 time steps of 1e-300 to final time 1.0 exceed the 100000000 that stepping takes; "
     "the Fourier route cannot bound their growth"),
], ids=["2d-r4", "1d-r2"])
def test_more_steps_than_stepping_takes_on_a_uniform_mesh_exits_2(argv, message):
    # the Fourier route declines these runs (its growth bound overflows), so
    # they would step, and the step cap refuses them before the first step
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rkdglab.__file__)))
    out = subprocess.run([sys.executable, "-m", "rkdglab.cli", *argv], capture_output=True,
                         text=True, timeout=30, env=env)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {message}\n")


def test_longest_regularity_run_is_within_the_step_bound():
    # r = 5 at the default T = 500 on a perturbed N = 1280 mesh: 2.7e7 steps
    values = resolve(command="regularity", r="5", N="1280", perturb="0.15")
    pairs = _schemes_for(values)
    _check_step_counts(values, pairs, None)
    tau = resolve_timestep("benchmark", 5, 1, 1280)
    assert 2.6e7 < 500.0 / tau < 2.8e7 < MAX_STEPPED_STEPS


def test_non_finite_growth_row_is_named_without_numpy_warnings():
    # a huge cfl overflows the one-step symbols: the row is a flagged nan
    # row, stderr names it and its error before the count, and no
    # RuntimeWarning leaks
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rkdglab.__file__)))
    for argv, row in [(["--r", "3", "--k", "2", "--N", "16", "--cfl", "1e300"],
                       "RK3DG2,standard,1,16,1,1e+300"),
                      (["--r", "2", "--N", "4", "--cfl", "1e308"], "RK2DG1,standard,1,4,1,1e+308")]:
        out = subprocess.run([sys.executable, "-m", "rkdglab.cli", "stability", *argv],
                             capture_output=True, text=True, timeout=60, env=env)
        scheme, variant, _, n, m, cfl = row.split(",")
        assert out.returncode == 1
        assert "RuntimeWarning" not in out.stderr
        assert out.stderr == (f"error: {scheme} {variant} N={n} m={m} cfl={cfl}: "
                              "symbols are not finite\nerror: 1 failed row(s)\n")
        assert out.stdout.splitlines()[-1] == f"{row},nan,nan"
