import io

import pytest

from rkdglab.cli import (
    ACCURACY_HEADER,
    CFL_HEADER,
    STABILITY_HEADER,
    main,
    parse_config,
    read_csv,
    run,
)
from rkdglab.errors import ConfigError


def resolve(text=None, **kv):
    return parse_config(text, [(k, v) for k, v in kv.items()])


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


def test_cfl_job_single_scheme():
    values = resolve(command="cfl", r="2", k="1", variant="sdA")
    out = io.StringIO()
    assert run(values, out_stream=out) == 0
    meta, fields, rows = read_csv(io.StringIO(out.getvalue()))
    assert ",".join(fields) == CFL_HEADER
    assert len(rows) == 1
    assert rows[0]["scheme"] == "RK2DG1" and rows[0]["variant"] == "sdA"
    assert abs(float(rows[0]["cfl"]) - 0.333) <= 0.005
    assert "config" in meta and "seed" in meta and "version" in meta


def test_cfl_job_full_family():
    values = resolve(command="cfl", variant="sdA")
    out = io.StringIO()
    assert run(values, out_stream=out) == 0
    _, _, rows = read_csv(io.StringIO(out.getvalue()))
    expected = (0.333, 0.191, 0.127, 0.104, 0.085, 0.076, 0.064)
    assert len(rows) == 7
    for row, ref in zip(rows, expected):
        assert abs(float(row["cfl"]) - ref) <= 0.005


def test_stability_job_single_point():
    values = resolve(command="stability", r="3", k="2", variant="sdA", N="32", cfl="0.1")
    out = io.StringIO()
    assert run(values, out_stream=out) == 0
    text = out.getvalue()
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert lines[0] == STABILITY_HEADER
    assert len(lines) == 2  # header plus exactly one data row
    assert float(lines[1].split(",")[-1]) == 1e-16


def test_accuracy_job_headers_and_roundtrip():
    values = resolve(command="accuracy", r="2", dim="1", N="20,40")
    out = io.StringIO()
    assert run(values, out_stream=out) == 0
    meta, fields, rows = read_csv(io.StringIO(out.getvalue()))
    assert ",".join(fields) == ACCURACY_HEADER
    assert [r["N"] for r in rows] == ["20", "40"]
    assert rows[0]["eoc"] == ""
    assert float(rows[1]["eoc"]) == pytest.approx(2.09, abs=0.02)
    # rounded column carries 3 significant digits; _raw carries full precision
    assert len(rows[0]["l2_error"]) == 8
    assert float(rows[0]["l2_error_raw"]) == pytest.approx(4.6747422599e-03, rel=1e-9)


def test_byte_identical_reruns():
    values = resolve(command="stability", r="2", k="1", N="16", cfl="0.2,0.4")
    out1, out2 = io.StringIO(), io.StringIO()
    assert run(values, out_stream=out1) == 0
    assert run(values, out_stream=out2) == 0
    assert out1.getvalue() == out2.getvalue()


def test_prop_tests_command():
    values = resolve(command="prop-tests")
    out = io.StringIO()
    assert run(values, out_stream=out) == 0
    assert all(line.startswith("PASS") for line in out.getvalue().splitlines())


def test_main_with_config_file(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("command = cfl\nr = 2\nk = 1\nvariant = sdA\n"
                   f"output = {tmp_path / 'out.csv'}\n")
    assert main(["--config", str(cfg)]) == 0
    meta, fields, rows = read_csv(str(tmp_path / "out.csv"))
    assert rows[0]["cfl"].startswith("0.333")


def test_main_reports_config_errors(capsys):
    assert main(["accuracy", "--set", "bogus=1"]) == 2
    assert "bogus" in capsys.readouterr().err


def test_io_failure_exit_code():
    values = resolve(command="cfl", r="2", k="1",
                     output="/nonexistent-dir/impossible/out.csv")
    assert run(values) == 2


@pytest.mark.parametrize("argv", [
    ["stability", "--r", "2", "--k", "1", "--N", "4", "--cfl", "0.1"],
    ["accuracy", "--r", "2", "--N", "10"],
])
def test_bad_worker_env_is_a_config_error(argv, monkeypatch, capsys):
    monkeypatch.setenv("RKDGLAB_WORKERS", "abc")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: RKDGLAB_WORKERS") and "'abc'" in captured.err
    assert captured.out == ""


def test_sda_with_k0_is_a_config_error(capsys):
    assert main(["stability", "--variant", "sdA", "--k", "0", "--r", "2", "--N", "8",
                 "--cfl", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: variant sdA") and "k = 0" in captured.err
    assert captured.out == ""
