"""Configuration-driven command line for tables, sweeps and property checks.

Config files hold "key = value" lines (# starts a comment); command-line
flags override file values.  Unknown keys are rejected.  Output is CSV
with a provenance header (resolved config echo, seed, version); errors are
printed with 3 significant digits, growth metrics and CFL numbers with 6,
and every rounded column has a full-precision twin with suffix _raw.
"""
import argparse
import io
import math
import sys

from . import __version__
from .errors import ConfigError
from .experiments import ProblemSpec, accuracy_table, regularity_study
from .props import run_all as run_property_checks
from .schemes import taylor_scheme
from .stability import cfl_sweep, fourier_cfl

COMMANDS = ("accuracy", "regularity", "stability", "cfl", "prop-tests")

ACCURACY_HEADER = "scheme,variant,dim,N,dofs,l2_error,eoc,l2_error_raw,eoc_raw"
STABILITY_HEADER = "scheme,variant,dim,N,m,cfl,delta,delta_raw"
CFL_HEADER = "scheme,variant,r,k,cfl,cfl_raw"

_INT_LIST = "int_list"
_FLOAT_LIST = "float_list"

#: key -> (kind, default); "auto" defaults are resolved per command
KEY_SPECS = {
    "command": ("command", None),
    "r": (_INT_LIST, "auto"),
    "k": ("int_or_auto", "auto"),
    "variant": ("variant", "standard"),
    "dim": ("dim", 1),
    "N": (_INT_LIST, "auto"),
    "perturb": ("float", 0.0),
    "seed": ("int", 0),
    "m": ("int", 1),
    "cfl": (_FLOAT_LIST, "auto"),
    "T": ("float_or_auto", "auto"),
    "timestep": ("timestep", "benchmark"),
    "flat_mode": ("flat_mode", "r"),
    "output": ("str", "-"),
    "quad_points": ("int_or_auto", "auto"),
    "workers": ("int_or_auto", "auto"),
}

DEFAULT_CFL_GRID = (0.025, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)


def _parse_value(key, raw):
    kind, _ = KEY_SPECS[key]
    raw = raw.strip()
    try:
        if kind == "command":
            if raw not in COMMANDS:
                raise ConfigError(f"unknown command {raw!r}")
            return raw
        if kind == _INT_LIST:
            return tuple(int(tok) for tok in raw.split(","))
        if kind == _FLOAT_LIST:
            return tuple(float(tok) for tok in raw.split(","))
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "int_or_auto":
            return "auto" if raw == "auto" else int(raw)
        if kind == "float_or_auto":
            return "auto" if raw == "auto" else float(raw)
        if kind == "timestep":
            return raw if raw == "benchmark" else float(raw)
        if kind == "variant":
            if raw not in ("standard", "sdA", "both"):
                raise ConfigError(f"variant must be standard, sdA or both, got {raw!r}")
            return raw
        if kind == "dim":
            val = int(raw)
            if val not in (1, 2):
                raise ConfigError("dim must be 1 or 2")
            return val
        if kind == "flat_mode":
            if raw not in ("r", "r+1"):
                raise ConfigError("flat_mode must be 'r' or 'r+1'")
            return raw
        if kind == "str":
            return raw
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for key {key!r}: {raw!r}") from exc
    raise ConfigError(f"unhandled key kind for {key!r}")


def parse_config(text=None, overrides=None):
    """Resolve a config from file text plus override pairs (strict schema)."""
    values = {key: default for key, (_, default) in KEY_SPECS.items()}
    explicit = set()

    def absorb(key, raw, origin):
        if key not in KEY_SPECS:
            raise ConfigError(f"unknown config key {key!r} ({origin})")
        values[key] = _parse_value(key, raw)
        explicit.add(key)

    if text:
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"config line {lineno} is not 'key = value': {line!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            absorb(key, raw, f"config line {lineno}")
    for key, raw in overrides or ():
        absorb(key, raw, "command line")

    if values["command"] is None:
        raise ConfigError("missing command (one of: " + ", ".join(COMMANDS) + ")")
    command = values["command"]

    if values["r"] == "auto":
        values["r"] = tuple(range(2, 9)) if command == "cfl" else (2, 3, 4, 5)
    if any(r < 1 for r in values["r"]):
        raise ConfigError("orders r must be positive")
    if values["k"] != "auto" and len(values["r"]) > 1:
        raise ConfigError("conflict: explicit k with several orders r")
    if values["N"] == "auto":
        if command == "stability":
            values["N"] = (16, 32, 64) if values["dim"] == 1 else (4, 8, 16)
        elif command == "regularity":
            values["N"] = (80, 160, 320, 640, 1280)
        else:
            values["N"] = (20, 40, 80, 160, 320) if values["dim"] == 1 else (20, 40, 80)
    if values["cfl"] == "auto":
        values["cfl"] = DEFAULT_CFL_GRID
    return values


def _echo(values):
    parts = []
    for key in KEY_SPECS:
        val = values[key]
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        parts.append(f"{key}={val}")
    return " ".join(parts)


def _sig3(x):
    return "nan" if not math.isfinite(x) else f"{x:.2e}"


def _sig6(x):
    return "nan" if not math.isfinite(x) else f"{x:.5e}"


def _raw(x):
    return "nan" if not math.isfinite(x) else f"{x:.17g}"


def _schemes_for(values):
    variants = ("standard", "sdA") if values["variant"] == "both" else (values["variant"],)
    pairs = []
    for variant in variants:
        for r in values["r"]:
            k = values["k"] if values["k"] != "auto" else r - 1
            if variant == "sdA" and k == 0:
                raise ConfigError("variant sdA needs polynomial degree k >= 1, got k = 0")
            pairs.append((taylor_scheme(r, variant), k))
    return pairs


def run(values, out_stream=None, err_stream=None):
    """Execute a resolved config; returns the process exit status."""
    err = err_stream if err_stream is not None else sys.stderr
    command = values["command"]
    warn_rows = 0
    failed_rows = 0

    if command == "prop-tests":
        buf = io.StringIO()
        failures = run_property_checks(out=lambda s: buf.write(s + "\n"))
        try:
            _write_output(values, buf.getvalue(), out_stream, err, plain=True)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=err)
            return 2
        return 0 if failures == 0 else 1

    workers = None if values["workers"] == "auto" else values["workers"]
    n_quad = None if values["quad_points"] == "auto" else values["quad_points"]
    rows = []
    if command in ("accuracy", "regularity"):
        header = ACCURACY_HEADER
        if command == "accuracy":
            t_end = 1.0 if values["T"] == "auto" else values["T"]
            problem = ProblemSpec(dim=values["dim"], ic="sin", final_time=t_end)
            table = accuracy_table(
                _schemes_for(values), problem, values["N"],
                timestep=values["timestep"], perturb=values["perturb"],
                seed=values["seed"], workers=workers, n_quad=n_quad,
            )
        else:
            table = []
            t_end = None if values["T"] == "auto" else values["T"]
            for scheme, k in _schemes_for(values):
                table.extend(regularity_study(
                    scheme, k, values["flat_mode"], values["N"], final_time=t_end,
                    dim=values["dim"], perturb=values["perturb"], seed=values["seed"],
                    workers=workers, n_quad=n_quad,
                ))
        for row in table:
            warn_rows += 1 if row.flagged else 0
            eoc = "" if row.eoc is None else f"{row.eoc:.2f}"
            eoc_raw = "" if row.eoc is None else _raw(row.eoc)
            rows.append(
                f"{row.scheme},{row.variant},{row.dim},{row.n},{row.dofs},"
                f"{_sig3(row.l2_error)},{eoc},{_raw(row.l2_error)},{eoc_raw}"
            )
    elif command == "stability":
        header = STABILITY_HEADER
        for scheme, k in _schemes_for(values):
            for pt in cfl_sweep(scheme, k, values["dim"], values["N"],
                                values["m"], values["cfl"], workers=workers):
                failed_rows += 1 if pt.flagged else 0
                rows.append(
                    f"{pt.scheme},{pt.variant},{pt.dim},{pt.n},{pt.m},"
                    f"{pt.cfl:.6g},{_sig6(pt.delta)},{_raw(pt.delta)}"
                )
    elif command == "cfl":
        header = CFL_HEADER
        for scheme, k in _schemes_for(values):
            res = fourier_cfl(scheme.variant, scheme.order, k)
            warn_rows += 0 if res.found else 1
            rows.append(
                f"RK{scheme.order}DG{k},{scheme.variant},{scheme.order},{k},"
                f"{res.value:.6g},{_raw(res.value)}"
            )
    else:  # pragma: no cover - parse_config already validates
        raise ConfigError(f"unknown command {command!r}")

    body = header + "\n" + "".join(line + "\n" for line in rows)
    try:
        _write_output(values, body, out_stream, err)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=err)
        return 2
    if warn_rows:
        print(f"warning: {warn_rows} flagged row(s)", file=err)
    if failed_rows:
        print(f"error: {failed_rows} failed row(s)", file=err)
        return 1
    return 0


def _write_output(values, body, out_stream, err, plain=False):
    preamble = ""
    if not plain:
        preamble = (
            f"# config: {_echo(values)}\n"
            f"# seed: {values['seed']}\n"
            f"# version: {__version__}\n"
        )
    text = preamble + body
    if out_stream is not None:
        out_stream.write(text)
        return
    if values["output"] == "-":
        sys.stdout.write(text)
        return
    with open(values["output"], "w", encoding="ascii") as fh:
        fh.write(text)


def read_csv(stream_or_path):
    """Parse harness CSV back into (meta, fieldnames, rows-of-dicts)."""
    if hasattr(stream_or_path, "read"):
        text = stream_or_path.read()
    else:
        with open(stream_or_path, "r", encoding="ascii") as fh:
            text = fh.read()
    meta = {}
    fieldnames = None
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            meta[key.strip()] = val.strip()
            continue
        cells = line.split(",")
        if fieldnames is None:
            fieldnames = cells
            continue
        rows.append(dict(zip(fieldnames, cells)))
    return meta, fieldnames, rows


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="rkdglab",
        description="Upwind DG / explicit RK laboratory: accuracy tables, "
                    "stability sweeps, CFL numbers and operator identity checks.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="what to run (may also come from the config file)")
    parser.add_argument("--config", help="path of a 'key = value' config file")
    parser.add_argument("--set", dest="pairs", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    for key in KEY_SPECS:
        if key == "command":
            continue
        parser.add_argument(f"--{key.replace('_', '-')}", dest=f"opt_{key}", default=None)
    args = parser.parse_args(argv)

    text = None
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return 2
    overrides = []
    for pair in args.pairs:
        if "=" not in pair:
            print(f"error: --set needs KEY=VALUE, got {pair!r}", file=sys.stderr)
            return 2
        key, _, val = pair.partition("=")
        overrides.append((key.strip(), val))
    for key in KEY_SPECS:
        if key == "command":
            continue
        val = getattr(args, f"opt_{key}")
        if val is not None:
            overrides.append((key, val))
    if args.command:
        overrides.append(("command", args.command))

    try:
        values = parse_config(text, overrides)
        return run(values)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
