"""Command line front end.

Subcommands
-----------
state          assemble a compound state and print its tensor
operator       build the observable blocks for both subsystems
probabilities  joint outcome probabilities for two measurement directions
expect         expectation value via the matrix and probability routes
verify         run the self-verification suite (exit 2 on any failure)
scan           sweep one angle parameter, one record per point

Angles are radians unless suffixed with ``deg`` (``--c2 60deg,0``).  A JSON
config file supplies defaults for any flag; flags given on the command line
win.  Output goes to stdout as JSON Lines or CSV; complex numbers appear as
(re, im) pairs in JSON and as paired _re/_im columns in CSV.  Every record
carries a timestamp field, which is the only part of the output that varies
between identically configured runs.

Exit status: 0 success, 1 usage error, 2 verification failure, 3 internal
consistency error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import partial
from typing import Any, Callable

import numpy as np

from . import __version__, verify as verify_mod
from .directions import Direction
from .expectation import (
    InternalConsistencyError,
    outcome_probabilities,
    verify_basis_invariance,
)
from .kernels import CompoundLabel
from .operators import SPIN_PROJECTION_VALUES, MeasurementSpec, OutcomeValues, operator_pair
from .states import assemble_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3

# Upper bounds on the work one run may ask for: --grid N evaluates N**2
# (d, f) pairs, --steps one record per step.
MAX_GRID = 100
MAX_STEPS = 100_000

# The directions scan can sweep, each by either angle.
_SWEEP_PARAMS = tuple(
    f"{obj}.{f}" for obj in ("a", "c1", "c2", "d", "f") for f in ("theta", "phi")
)

# The default of a flag that must be given.
REQUIRED = object()


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token that starts "-" then a digit, or "-." then a digit, is a
        # value, as from Python 3.13 on; earlier versions take only -N and
        # -N.N, so "--c1 -0.5,0" and "--start -1e-3" lacked their argument.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    command: str
    output_format: str
    seed: int | None
    # The parsed value of each other flag the command takes, by its name
    # without the dashes, in --help order.
    inputs: dict[str, Any]
    # Built from the inputs, for the commands that take --s or --c1.
    label: CompoundLabel | None
    spec: MeasurementSpec | None


# ---------------------------------------------------------------------------
# field parsing
#
# A parser takes a value, a flag's string or any JSON value from a config
# file, and the flag that its error messages name.


def _quoted(value) -> str:
    """A value as error messages show it: a string, which is all a flag ever
    gives, as its repr; any other config-file value as its JSON text."""
    return repr(value) if isinstance(value, str) else json.dumps(value)


def _parse_float(token, field: str) -> float:
    if isinstance(token, bool):  # a JSON true is not the number 1
        raise UsageError(f"{field}: malformed number {_quoted(token)}")
    try:
        return float(token)
    except (TypeError, ValueError, OverflowError):  # OverflowError: huge JSON ints
        raise UsageError(f"{field}: malformed number {_quoted(token)}") from None


def _parse_int(token, field: str) -> int:
    try:
        return int(str(token), 10)
    except (TypeError, ValueError):
        raise UsageError(f"{field}: malformed integer {_quoted(token)}") from None


def _parse_angle(token, field: str) -> float:
    if isinstance(token, bool) or not isinstance(token, (str, int, float)):
        raise UsageError(f"{field}: malformed angle {_quoted(token)}")
    text = str(token).strip()
    if text.lower().endswith("deg"):
        return math.radians(_parse_float(text[:-3], field))
    return _parse_float(text, field)


def _parse_end(token, field: str) -> float:
    end = _parse_angle(token, field)
    if not math.isfinite(end):
        raise UsageError(f"{field}: must be finite, got {end!r}")
    return end


def _parse_count(token, field: str, low: int, high: int) -> int:
    value = _parse_int(token, field)
    if value < low:
        raise UsageError(f"{field}: must be at least {low}")
    if value > high:
        raise UsageError(f"{field}: must be at most {high}")
    return value


def _parse_seed(token, field: str) -> int:
    seed = _parse_int(token, field)
    if seed < 0:
        raise UsageError(f"{field}: must be non-negative")
    return seed


def _parse_choice(token, field: str, choices: tuple[str, ...]) -> str:
    if token not in choices:
        raise UsageError(f"{field}: expected one of {', '.join(choices)}, got {_quoted(token)}")
    return token


def _construct(cls, prefix: str, *args):
    """``cls(*args)``, with the constructor's ValueError as a UsageError."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise UsageError(f"{prefix}{exc}") from None


# Per pair type: config-object keys with their defaults, the token parser,
# and the expected form and noun that error messages name.
_PAIR_FORMS = {
    Direction: (("theta", "phi"), (0.0, 0.0), _parse_angle, "'theta,phi'", "angles"),
    OutcomeValues: (
        ("plus", "minus"), (1.0, -1.0), _parse_float, "'r_plus,r_minus'", "values"
    ),
}


def _parse_pair(value, field: str, cls):
    """A Direction or OutcomeValues from 'x,y', [x, y] or {key: x, ...}."""
    keys, defaults, parse_token, form, noun = _PAIR_FORMS[cls]
    if isinstance(value, dict):
        extra = set(value) - set(keys)
        if extra:
            raise UsageError(f"{field}: unknown keys {sorted(extra)}")
        # a null is a key not given, as at the top level
        tokens = [
            default if value.get(key) is None else value[key]
            for key, default in zip(keys, defaults)
        ]
    elif isinstance(value, (str, list, tuple)):
        tokens = value.split(",") if isinstance(value, str) else list(value)
    else:
        raise UsageError(f"{field}: expected {form}, got {_quoted(value)}")
    if len(tokens) != 2:
        raise UsageError(f"{field}: expected two comma-separated {noun}, got {_quoted(value)}")
    args = [parse_token(token, f"{field}.{key}") for token, key in zip(tokens, keys)]
    return _construct(cls, f"{field}: ", *args)


def _parse_tol(entries, field: str) -> dict[str, float]:
    if isinstance(entries, dict):
        items = list(entries.items())
    elif isinstance(entries, list):
        items = []
        for entry in entries:
            name, eq, value = entry.partition("=") if isinstance(entry, str) else ("", "", "")
            if not eq:
                raise UsageError(f"{field}: expected NAME=VALUE, got {_quoted(entry)}")
            items.append((name.strip(), value))
    else:
        raise UsageError(f"{field}: expected NAME=VALUE entries, got {_quoted(entries)}")
    out: dict[str, float] = {}
    for name, value in items:
        if name not in verify_mod.DEFAULT_TOLERANCES:
            raise UsageError(f"{field}: unknown check {name!r}")
        if value is None:  # a config object's null: the check keeps its tolerance
            continue
        tol = _parse_float(value, f"{field}.{name}")
        if not (math.isfinite(tol) and tol > 0.0):
            raise UsageError(f"{field}.{name}: must be finite and positive, got {tol!r}")
        out[name] = tol
    return out


_parse_direction = partial(_parse_pair, cls=Direction)
_parse_values = partial(_parse_pair, cls=OutcomeValues)

_GRID_HELP = "sample an NxN grid of intermediate pairs for the invariance residual"
_TOL_HELP = "override one check tolerance (repeatable); NAME is one of " + ", ".join(
    verify_mod.DEFAULT_TOLERANCES
)

# Every flag, once, as (flag, help, parser, default or REQUIRED[, other
# add_argument keywords, none of which checks the value]).  A value comes from
# the flag, else from the config file, where null is a key not given, else
# from the default; only the row's parser reads it, and a flag left at a None
# default is not in the inputs.  --config names the file: it has no parser and
# is no config key.  _SUBCOMMANDS says which groups each subcommand takes.
_FLAG_GROUPS: dict[str, tuple[tuple, ...]] = {
    "common": (
        ("--config", "JSON file with defaults for any flag", None, None),
        (
            "--format", None, partial(_parse_choice, choices=("json", "csv")), "json",
            {"metavar": "{json,csv}"},
        ),
        ("--seed", None, _parse_seed, None),
    ),
    "label": (
        ("--s", "total spin, 0 or 1", _parse_int, REQUIRED),
        ("--M", "magnetic quantum number", _parse_int, REQUIRED),
        ("--a", "quantization axis 'theta,phi'", _parse_direction, "0,0"),
    ),
    "df": (
        ("--d", "first intermediate direction", _parse_direction, "0,0"),
        ("--f", "second intermediate direction", _parse_direction, "0,0"),
    ),
    "meas": (
        ("--c1", "first measured direction", _parse_direction, REQUIRED),
        ("--c2", "second measured direction", _parse_direction, REQUIRED),
    ),
    "values": (
        ("--r1", "outcome values 'plus,minus'", _parse_values, "1,-1"),
        ("--r2", "outcome values 'plus,minus'", _parse_values, "1,-1"),
    ),
    "grid": (("--grid", _GRID_HELP, partial(_parse_count, low=1, high=MAX_GRID), 1),),
    "tol": (
        ("--tol", _TOL_HELP, _parse_tol, None, {"action": "append", "metavar": "NAME=VALUE"}),
    ),
    "sweep": (
        (
            "--param", "one of " + ", ".join(_SWEEP_PARAMS),
            partial(_parse_choice, choices=_SWEEP_PARAMS), REQUIRED,
        ),
        ("--start", None, _parse_end, REQUIRED),
        ("--stop", None, _parse_end, REQUIRED),
        ("--steps", None, partial(_parse_count, low=2, high=MAX_STEPS), REQUIRED),
    ),
}
_CONFIG_KEYS = {row[0][2:] for rows in _FLAG_GROUPS.values() for row in rows if row[2]}


def _rows(command: str) -> list[tuple]:
    """The rows of the flags ``command`` takes, in --help order."""
    return [row for group in ("common",) + _SUBCOMMANDS[command][1] for row in _FLAG_GROUPS[group]]


# ---------------------------------------------------------------------------
# argument and config handling


def _build_parser(argv) -> _Parser:
    """Only the subcommand ``argv[0]`` names, with its flags; if it names none,
    every subcommand without flags, all that top-level help and errors show."""
    parser = _Parser(
        prog="spinpair",
        description="States, observables and correlations of a coupled spin-1/2 pair.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    named = [argv[0]] if argv and argv[0] in _SUBCOMMANDS else []
    for command in named or _SUBCOMMANDS:
        sub_parser = sub.add_parser(command)
        for flag, help_text, _, _, *kwargs in _rows(command) if named else ():
            sub_parser.add_argument(flag, help=help_text, **(kwargs[0] if kwargs else {}))
    return parser


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path!r} ({exc})") from None
    # JSONDecodeError, UnicodeDecodeError, int digit limit; RecursionError: deep nesting
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"--config: invalid JSON in {path!r} ({exc})") from None
    if not isinstance(data, dict):
        raise UsageError("--config: top level must be a JSON object")
    return data


def parse_config(argv=None) -> RunConfig:
    """Turn argv (default ``sys.argv[1:]``, plus an optional config file) into
    a validated RunConfig, whose seed is the one the run draws with.

    Errors come in a fixed order: every missing flag in one message, then
    each value in --help order, then the checks across flags.
    """
    argv = sys.argv[1:] if argv is None else argv
    args = vars(_build_parser(argv).parse_args(argv))
    command = args["command"]
    file_cfg = _load_config_file(args["config"]) if args["config"] else {}
    unknown = [key for key in file_cfg if key not in _CONFIG_KEYS]
    if unknown:
        raise UsageError(f"--config: unknown key {unknown[0]!r}")
    # Keys of flags that only other subcommands take are left unread.
    given, missing = [], []
    for flag, _, parse, default, *_ in _rows(command):
        name = flag[2:]
        value = args[name] if args[name] is not None else file_cfg.get(name)
        value = default if value is None else value
        if value is REQUIRED:
            missing.append(flag)
        elif parse and value is not None:
            given.append((flag, parse, value))
    if missing:
        *rest, last = missing
        names = f"{', '.join(rest)} and {last} are" if rest else f"{last} is"
        raise UsageError(f"{names} required for {command}")
    inputs = {flag[2:]: parse(value, flag) for flag, parse, value in given}
    output_format, seed = inputs.pop("format"), inputs.pop("seed", None)

    label = spec = None
    if "s" in inputs:
        # CompoundLabel's own messages name s and M, so they carry no prefix.
        label = _construct(CompoundLabel, "", inputs["s"], inputs["M"], inputs["a"])
    if "c1" in inputs:
        unit = SPIN_PROJECTION_VALUES  # probabilities takes no r1, r2
        values = inputs.get("r1", unit), inputs.get("r2", unit)
        spec = MeasurementSpec(inputs["c1"], inputs["c2"], *values)
    if "s" in inputs and "r1" in inputs:
        # expect and scan average the products r1(u) * r2(v); one that
        # overflows would print NaN or Infinity, which is not JSON.
        big1, big2 = inputs["r1"].largest, inputs["r2"].largest
        if not math.isfinite(big1 * big2):
            raise UsageError(
                f"--r1, --r2: products of outcome values must be finite, "
                f"got {big1!r} * {big2!r}"
            )
    if "param" in inputs:
        # scan steps by (stop - start) / (steps - 1); an infinite span gives NaN.
        start, stop = inputs["start"], inputs["stop"]
        if not math.isfinite(stop - start):
            raise UsageError(
                f"--start, --stop: stop - start must be finite, got {stop!r} - {start!r}"
            )

    if seed is None and (command == "verify" or inputs.get("grid", 1) > 1):
        seed = 0  # what they draw with; --grid 1 draws nothing
    return RunConfig(command, output_format, seed, inputs, label, spec)


# ---------------------------------------------------------------------------
# output encoding


def _json_default(value):
    """JSON form of a complex number, the one non-JSON value records hold."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"cannot encode {type(value).__name__} as JSON")


# The CSV text of a scalar cell by its exact type; any other scalar prints as
# str(value).
_CELL_TEXT = {
    float: float.__repr__,
    int: int.__repr__,
    str: str,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "",
}


def _flatten(record: dict[str, Any]) -> tuple[list[str], list[str]]:
    """CSV columns and cells: a list over indexed columns, a list of lists as
    <key>_<i><j>, complex numbers over _re/_im."""
    keys: list[str] = []
    cells: list[str] = []
    for key, value in record.items():
        text = _CELL_TEXT.get(type(value))
        if text is not None:  # most fields: one plain scalar
            keys.append(key)
            cells.append(text(value))
            continue
        if not isinstance(value, list):
            items = [(key, value)]
        elif value and isinstance(value[0], list):
            items = [
                (f"{key}_{i}{j}", v) for i, row in enumerate(value) for j, v in enumerate(row)
            ]
        else:
            items = [(f"{key}_{i}", v) for i, v in enumerate(value)]
        for key_k, v in items:
            if isinstance(v, complex):
                keys += (f"{key_k}_re", f"{key_k}_im")
                cells += (repr(v.real), repr(v.imag))
            else:
                keys.append(key_k)
                cells.append(_CELL_TEXT.get(type(v), str)(v))
    return keys, cells


def emit_records(records, output_format: str, out) -> None:
    if output_format == "json":
        encode = json.JSONEncoder(separators=(",", ":"), default=_json_default).encode
        for record in records:
            out.write(encode(record) + "\n")
        return
    writer = csv.writer(out, lineterminator="\n")
    header = None
    for record in records:
        keys, cells = _flatten(record)
        if header is None:
            header = keys
            writer.writerow(header)
        elif keys != header:
            raise ValueError("records in one CSV stream must share a schema")
        writer.writerow(cells)


# ---------------------------------------------------------------------------
# commands


# Inputs no record echoes: the tolerances, and the sweep, which each scan
# record gives as its param and value.
_UNECHOED = ("tol", "param", "start", "stop", "steps")


def _echo(config: RunConfig) -> dict[str, Any]:
    """Record fields echoing the command's inputs; a pair gives two fields,
    <name>_theta, <name>_phi or <name>_plus, <name>_minus."""
    out: dict[str, Any] = {}
    for name, value in config.inputs.items():
        if type(value) in _PAIR_FORMS:
            keys = _PAIR_FORMS[type(value)][0]
            out.update(zip((f"{name}_{key}" for key in keys), vars(value).values()))
        elif name not in _UNECHOED:
            out[name] = value
    return out


def _record(config: RunConfig, **results) -> dict[str, Any]:
    """One output record: command, input echo, results."""
    return {"command": config.command, **_echo(config), **results}


def _cmd_state(config: RunConfig):
    asm = assemble_state(config.label, config.inputs["d"], config.inputs["f"])
    tensor = asm.tensor.tolist()
    record = _record(
        config,
        coefficients=[t.coefficient for t in asm.terms],
        tensor=tensor,
        # an exactly rounded sum of Python floats: no BLAS kernel picks its bits
        norm_sq=math.fsum(x * x for z in tensor for x in (z.real, z.imag)),
    )
    return [record], EXIT_OK


def _cmd_operator(config: RunConfig):
    r1, r2 = operator_pair(config.spec, config.inputs["d"], config.inputs["f"])
    return [_record(config, r1=r1.tolist(), r2=r2.tolist())], EXIT_OK


def _cmd_probabilities(config: RunConfig):
    p = outcome_probabilities(config.label, config.spec.c1, config.spec.c2)
    return [_record(config, probabilities=p.tolist(), prob_sum=float(np.sum(p)))], EXIT_OK


def _correlation(label: CompoundLabel, spec: MeasurementSpec, pairs) -> dict[str, Any]:
    """The expect and scan results: both routes over the (d, f) pairs."""
    report = verify_basis_invariance(label, spec, pairs)
    return {
        "value_matrix_path": report.value_matrix_path,
        "value_oracle_path": report.value_oracle_path,
        "residual": report.residual,
        "basis_invariance_residual": report.basis_invariance_residual,
        "probabilities": list(report.probabilities),
    }


def _cmd_expect(config: RunConfig):
    rng = np.random.default_rng(config.seed)  # None only for --grid 1: no draws
    draw, n = verify_mod._draw, config.inputs["grid"] - 1
    (more_d,) = draw(rng, n, [verify_mod._DIRECTION])
    (more_f,) = draw(rng, n, [verify_mod._DIRECTION])
    ds = [config.inputs["d"], *more_d.points()]
    fs = [config.inputs["f"], *more_f.points()]
    results = _correlation(config.label, config.spec, [(d, f) for d in ds for f in fs])
    return [_record(config, **results)], EXIT_OK


def _cmd_verify(config: RunConfig):
    results = verify_mod.run_verification(config.seed, config.inputs.get("tol"))
    records = [
        _record(
            config,
            check=res.name,
            samples=res.samples,
            max_residual=res.max_residual,
            tolerance=res.tolerance,
            passed=res.passed,
        )
        for res in results
    ]
    failed = [r.name for r in results if not r.passed]
    summary = f"{len(results) - len(failed)}/{len(results)} checks passed (seed={config.seed})"
    if failed:
        summary += "; FAILED: " + ", ".join(failed)
    print(summary, file=sys.stderr)
    return records, (EXIT_VERIFY if failed else EXIT_OK)


def _cmd_scan(config: RunConfig):
    inputs, param = config.inputs, config.inputs["param"]
    name, _, angle = param.partition(".")
    echo, fixed = _echo(config), inputs[name]
    label, spec, d, f = config.label, config.spec, inputs["d"], inputs["f"]
    records = []
    # Per point only the swept direction and the one object holding it change.
    for value in np.linspace(inputs["start"], inputs["stop"], inputs["steps"]).tolist():
        swept = Direction(value, fixed.phi) if angle == "theta" else Direction(fixed.theta, value)
        if name == "a":
            label = CompoundLabel(label.s, label.M, swept)
        elif name == "c1":
            spec = MeasurementSpec(swept, spec.c2, spec.values1, spec.values2)
        elif name == "c2":
            spec = MeasurementSpec(spec.c1, swept, spec.values1, spec.values2)
        elif name == "d":
            d = swept
        else:
            f = swept
        records.append(
            {
                "command": config.command,
                "param": param,
                "value": value,
                **echo,
                f"{name}_theta": swept.theta,
                f"{name}_phi": swept.phi,
                **_correlation(label, spec, [(d, f)]),
            }
        )
    return records, EXIT_OK


# Each subcommand's handler and the flag groups it takes after "common", in
# --help order: the flags it parses, and the inputs its records echo.
_SUBCOMMANDS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "state": (_cmd_state, ("label", "df")),
    "operator": (_cmd_operator, ("df", "meas", "values")),
    "probabilities": (_cmd_probabilities, ("label", "meas")),
    "expect": (_cmd_expect, ("label", "df", "meas", "values", "grid")),
    "verify": (_cmd_verify, ("tol",)),
    "scan": (_cmd_scan, ("label", "df", "meas", "values", "sweep")),
}


def run(config: RunConfig) -> int:
    """Execute a parsed RunConfig, writing records to stdout."""
    records, code = _SUBCOMMANDS[config.command][0](config)
    _write(records, config)
    return code


def _write(records, config: RunConfig) -> None:
    """Stamp every record with the package version, the run's seed and one
    timestamp, and emit them to stdout; once the reader has gone, write
    nothing more."""
    now = datetime.now(timezone.utc).isoformat()
    for record in records:
        record.update(version=__version__, seed=config.seed, timestamp=now)
    try:
        emit_records(records, config.output_format, sys.stdout)
        sys.stdout.flush()  # so a closed pipe fails here, not at exit
    except BrokenPipeError:
        # Python flushes stdout again at exit: point its descriptor at
        # os.devnull so that flush is quiet (as the signal module docs do).
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return run(config)
    except InternalConsistencyError as exc:
        record = {"command": config.command, "error": "internal-consistency", "detail": str(exc)}
        _write([record], config)
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    raise SystemExit(main())
