"""Configuration-driven command line for tables, sweeps and property checks.

Config files hold "key = value" lines (# starts a comment); command-line
flags override file values.  Unknown keys are rejected.  Output is CSV
with a provenance header (resolved config echo, seed, version); errors are
printed with 3 significant digits, growth metrics and CFL numbers with 6,
and every rounded column has a full-precision twin with suffix _raw.
"""
import argparse
import math
import operator
import sys

from . import __version__
from .errors import ConfigError, SteppingLimitError
from .experiments import (
    ProblemSpec,
    accuracy_table,
    regularity_default_time,
    regularity_study,
    resolve_timestep,
)
from .props import run_all as run_property_checks
from .schemes import MAX_STEPPED_STEPS, step_plan, taylor_scheme
from .stability import CFL_BISECT_TOL, cfl_sweep, fourier_cfl

COMMANDS = ("accuracy", "regularity", "stability", "cfl", "prop-tests")

ACCURACY_HEADER = "scheme,variant,dim,N,dofs,l2_error,eoc,l2_error_raw,eoc_raw"
STABILITY_HEADER = "scheme,variant,dim,N,m,cfl,delta,delta_raw"
CFL_HEADER = "scheme,variant,r,k,cfl,cfl_raw"


def _choice(options, message):
    """Parser of one of options; any other value raises message, formatted with it."""
    def parse(raw):
        if raw not in options:
            raise ConfigError(message.format(raw))
        return raw
    return parse


def _keyword_or(keyword, number):
    """Parser of the keyword itself or a number of the given type."""
    return lambda raw: raw if raw == keyword else number(raw)


def _list_of(number):
    """Parser of a comma list of numbers of the given type."""
    return lambda raw: tuple(number(tok) for tok in raw.split(","))


DEFAULT_CFL_GRID = (0.025, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)

#: key -> (parser, default, range); "auto" defaults are resolved per command.
#: A parser raises ValueError on a malformed value.  A range lists
#: (comparison, bound) pairs that every number given for the key must satisfy.
KEY_SPECS = {
    "command": (_choice(COMMANDS, "unknown command {!r}"), None, ()),
    "r": (_list_of(int), "auto", ((">=", 1),)),
    "k": (_keyword_or("auto", int), "auto", ((">=", 0),)),
    "variant": (_choice(("standard", "sdA", "both"),
                        "variant must be standard, sdA or both, got {!r}"), "standard", ()),
    "dim": (int, 1, ((">=", 1), ("<=", 2))),
    "N": (_list_of(int), "auto", ((">=", 2),)),
    "perturb": (float, 0.0, ((">=", 0), ("<", 0.5))),
    "seed": (int, 0, ((">=", 0),)),
    "m": (int, 1, ((">=", 1),)),
    "cfl": (_list_of(float), DEFAULT_CFL_GRID, ((">=", 0), ("<", math.inf))),
    "T": (_keyword_or("auto", float), "auto", ((">=", 0), ("<", math.inf))),
    "timestep": (_keyword_or("benchmark", float), "benchmark", ((">", 0), ("<", math.inf))),
    "flat_mode": (_choice(("r", "r+1"), "flat_mode must be 'r' or 'r+1'"), "r", ()),
    "output": (str, "-", ()),
    "quad_points": (_keyword_or("auto", int), "auto", ((">=", 1), ("<=", 100))),
}

#: the keys each command reads besides command and output; giving any
#: other key explicitly is a configuration error
COMMAND_KEYS = {
    "accuracy": ("r", "k", "variant", "dim", "N", "perturb", "seed", "T", "timestep",
                 "quad_points"),
    "regularity": ("r", "k", "variant", "dim", "N", "perturb", "seed", "T", "flat_mode",
                   "quad_points"),
    # stability reads perturb only to insist on 0: its meshes are uniform
    "stability": ("r", "k", "variant", "dim", "N", "perturb", "m", "cfl"),
    "cfl": ("r", "k", "variant"),
    "prop-tests": (),
}

_COMPARISONS = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}


def _parse_value(key, raw):
    raw = raw.strip()
    try:
        return KEY_SPECS[key][0](raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for key {key!r}: {raw!r}") from exc


def _check_range(key, value):
    """Reject any number in value outside the key's range ("auto" and the like pass)."""
    bounds = KEY_SPECS[key][2]
    for val in value if isinstance(value, tuple) else (value,):
        if isinstance(val, str):
            continue
        if not all(_COMPARISONS[cmp](val, bound) for cmp, bound in bounds):
            rule = " and ".join(f"{cmp} {bound}" for cmp, bound in bounds)
            raise ConfigError(f"{key} must be {rule}, got {key} = {val}")


def parse_config(text=None, overrides=None):
    """Resolve a config from file text plus override pairs (strict schema)."""
    values = {key: default for key, (_, default, _) in KEY_SPECS.items()}
    given = set()

    def absorb(key, raw, origin):
        if key not in KEY_SPECS:
            raise ConfigError(f"unknown config key {key!r} ({origin})")
        values[key] = _parse_value(key, raw)
        _check_range(key, values[key])
        given.add(key)

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
    unread = [key for key in KEY_SPECS if key in given
              and key not in ("command", "output", *COMMAND_KEYS[command])]
    if unread:
        raise ConfigError(f"{command} does not read {', '.join(unread)}")

    if values["r"] == "auto":
        values["r"] = tuple(range(2, 9)) if command == "cfl" else (2, 3, 4, 5)
    if values["k"] != "auto" and len(values["r"]) > 1:
        raise ConfigError("conflict: explicit k with several orders r")
    if values["N"] == "auto":
        if command == "stability":
            values["N"] = (16, 32, 64) if values["dim"] == 1 else (4, 8, 16)
        elif command == "regularity":
            values["N"] = (80, 160, 320, 640, 1280)
        else:
            values["N"] = (20, 40, 80, 160, 320) if values["dim"] == 1 else (20, 40, 80)
    for key in ("r", "N"):
        repeated = [v for i, v in enumerate(values[key]) if v in values[key][:i]]
        if repeated:
            raise ConfigError(f"{key} must not repeat a value, got {key} = {repeated[0]} more than once")
    if values["perturb"] and (command == "stability" or values["dim"] == 2):
        where = "stability meshes" if command == "stability" else "2D meshes"
        raise ConfigError(f"{where} are uniform: perturb must be 0, got perturb = {values['perturb']}")
    if "seed" in given and not values["perturb"]:
        raise ConfigError(f"seed selects a perturbed 1D mesh: it needs perturb > 0, "
                          f"got seed = {values['seed']} with perturb = 0")
    return values


def _echo(values):
    parts = []
    for key in KEY_SPECS:
        val = values[key]
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        parts.append(f"{key}={val}")
    return " ".join(parts)


def _fmt(x, spec):
    """x in the given format spec, or nan when it is not finite."""
    return format(x, spec) if math.isfinite(x) else "nan"


def _schemes_for(values):
    variants = ("standard", "sdA") if values["variant"] == "both" else (values["variant"],)
    command = values["command"]
    pairs = []
    for variant in variants:
        for r in values["r"]:
            k = values["k"] if values["k"] != "auto" else r - 1
            if command == "cfl" and (r < 2 or k < 1):
                raise ConfigError(f"cfl needs r >= 2 and k >= 1, got r = {r}, k = {k}")
            if command == "regularity" and k != r - 1:
                raise ConfigError(f"regularity needs k = r - 1, got r = {r}, k = {k}")
            if command == "regularity" and values["flat_mode"] == "r" and r < 2:
                raise ConfigError(f"regularity with flat_mode r needs flat = r >= 2, got r = {r}")
            if variant == "sdA" and k == 0:
                raise ConfigError("variant sdA needs polynomial degree k >= 1, got k = 0")
            pairs.append((taylor_scheme(r, variant), k))
    return pairs


def _check_step_counts(values, pairs, t_end):
    """Reject, before any row runs, a final time (None: regularity_default_time)
    that no finite number of the row's time steps reaches, or that a perturbed
    mesh, which is stepped, reaches in more than MAX_STEPPED_STEPS steps."""
    for scheme, _ in pairs:
        t = regularity_default_time(scheme.order) if t_end is None else t_end
        for n in values["N"]:
            tau = resolve_timestep(values["timestep"], scheme.order, values["dim"], n)
            if not math.isfinite(t / tau):
                raise ConfigError(f"T = {t} is not a finite number of time steps of {tau}")
            whole, _, shortened = step_plan(t, tau)
            count = whole + shortened
            if values["perturb"] and count > MAX_STEPPED_STEPS:
                # 16 digits or more come from the float t / tau, past its precision
                shown = f"{count:.6g}" if count >= 10**15 else count
                raise ConfigError(f"T = {t} needs {shown} time steps of {tau}, more "
                                  f"than the {MAX_STEPPED_STEPS} taken on a perturbed mesh")


def run(values):
    """Execute a resolved config; returns the process exit status."""
    command = values["command"]
    warn_rows = 0
    failed_rows = 0
    failed_checks = 0
    notes = []

    n_quad = None if values["quad_points"] == "auto" else values["quad_points"]
    if command == "prop-tests":
        rows = []
        failed_checks = run_property_checks(out=rows.append)
    elif command in ("accuracy", "regularity"):
        rows = [ACCURACY_HEADER]
        pairs = _schemes_for(values)
        default_t = 1.0 if command == "accuracy" else None
        t_end = default_t if values["T"] == "auto" else values["T"]
        _check_step_counts(values, pairs, t_end)
        if command == "accuracy":
            problem = ProblemSpec(dim=values["dim"], final_time=t_end)
            table = accuracy_table(
                pairs, problem, values["N"],
                timestep=values["timestep"], perturb=values["perturb"],
                seed=values["seed"], n_quad=n_quad,
            )
        else:
            table = regularity_study(
                pairs, values["flat_mode"], values["N"], final_time=t_end, dim=values["dim"],
                perturb=values["perturb"], seed=values["seed"], n_quad=n_quad,
            )
        for row in table:
            if row.flagged:
                warn_rows += 1
                notes.append(f"warning: {row.scheme} {row.variant} N={row.n} "
                             f"blew up at step {row.blowup_step}")
            eoc = "" if row.eoc is None else f"{row.eoc:.2f}"
            eoc_raw = "" if row.eoc is None else _fmt(row.eoc, ".17g")
            rows.append(
                f"{row.scheme},{row.variant},{row.dim},{row.n},{row.dofs},"
                f"{_fmt(row.l2_error, '.2e')},{eoc},{_fmt(row.l2_error, '.17g')},{eoc_raw}"
            )
    elif command == "stability":
        rows = [STABILITY_HEADER]
        for scheme, k in _schemes_for(values):
            for pt in cfl_sweep(scheme, k, values["dim"], values["N"],
                                values["m"], values["cfl"]):
                if pt.flagged:
                    failed_rows += 1
                    notes.append(f"error: {pt.scheme} {pt.variant} N={pt.n} m={pt.m} "
                                 f"cfl={pt.cfl:.6g}: {pt.error}")
                rows.append(
                    f"{pt.scheme},{pt.variant},{pt.dim},{pt.n},{pt.m},"
                    f"{pt.cfl:.6g},{_fmt(pt.delta, '.5e')},{_fmt(pt.delta, '.17g')}"
                )
    elif command == "cfl":
        rows = [CFL_HEADER]
        for scheme, k in _schemes_for(values):
            res = fourier_cfl(scheme, k)
            if not res.found:
                warn_rows += 1
                notes.append(f"warning: {scheme.label(k)} {scheme.variant} has no stable "
                             f"CFL number of {CFL_BISECT_TOL:g} or more")
            rows.append(
                f"{scheme.label(k)},{scheme.variant},{scheme.order},{k},"
                f"{res.value:.6g},{_fmt(res.value, '.17g')}"
            )
    else:  # pragma: no cover - parse_config already validates
        raise ConfigError(f"unknown command {command!r}")

    body = "".join(line + "\n" for line in rows)
    try:
        _write_output(values, body, plain=command == "prop-tests")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    for note in notes:
        print(note, file=sys.stderr)
    if warn_rows:
        print(f"warning: {warn_rows} flagged row(s)", file=sys.stderr)
    if failed_rows:
        print(f"error: {failed_rows} failed row(s)", file=sys.stderr)
    return 1 if failed_rows or failed_checks else 0


def _write_output(values, body, plain=False):
    preamble = ""
    if not plain:
        preamble = (
            f"# config: {_echo(values)}\n"
            f"# seed: {values['seed']}\n"
            f"# version: {__version__}\n"
        )
    text = preamble + body
    if values["output"] == "-":
        sys.stdout.write(text)
        return
    # the config echo repeats the output path: a non-ASCII one is escaped
    with open(values["output"], "w", encoding="ascii", errors="backslashreplace") as fh:
        fh.write(text)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose syntax errors are ConfigErrors: one error line, exit 2."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None):
    parser = _Parser(
        prog="rkdglab",
        allow_abbrev=False,
        description="Upwind DG / explicit RK laboratory: accuracy tables, "
                    "stability sweeps, CFL numbers and operator identity checks.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="what to run (may also come from the config file)")
    parser.add_argument("--config", help="path of a 'key = value' config file")
    for key in KEY_SPECS:
        if key != "command":
            parser.add_argument(f"--{key.replace('_', '-')}", dest=key)

    try:
        args = parser.parse_args(argv)
        text = None
        if args.config:
            try:
                with open(args.config, "r", encoding="utf-8-sig") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"cannot read config: {exc}") from exc
        overrides = [(key, val) for key, val in vars(args).items()
                     if key in KEY_SPECS and val is not None]
        return run(parse_config(text, overrides))
    except (ConfigError, SteppingLimitError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
