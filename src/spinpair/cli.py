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
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Any, Callable

import numpy as np

from . import __version__, verify as verify_mod
from .directions import Direction, Z_AXIS
from .expectation import (
    InternalConsistencyError,
    outcome_probabilities,
    verify_basis_invariance,
)
from .kernels import CompoundLabel
from .operators import MeasurementSpec, OutcomeValues, operator_pair
from .states import assemble_state

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_INTERNAL = 3

# Upper bounds on the work one run may ask for: --grid N evaluates N**2
# (d, f) pairs, --steps one record per step.
MAX_GRID = 100
MAX_STEPS = 100_000

# Where each direction that scan can sweep lives in a RunConfig.
_SWEEP_PATHS = {"a": "label.axis", "c1": "spec.c1", "c2": "spec.c2", "d": "d", "f": "f"}
_SWEEP_PARAMS = tuple(f"{obj}.{f}" for obj in _SWEEP_PATHS for f in ("theta", "phi"))

_TOL_HELP = "override one check tolerance (repeatable); NAME is one of " + ", ".join(
    verify_mod.check_names()
)

# Flag groups as (flag, help[, other add_argument keywords]); _SUBCOMMANDS
# says which groups each subcommand takes.
_FLAG_GROUPS: dict[str, tuple[tuple, ...]] = {
    "common": (
        ("--config", "JSON file with defaults for any flag"),
        ("--format", None, {"choices": ("json", "csv")}),
        ("--seed", None, {"type": int}),
    ),
    "label": (
        ("--s", "total spin, 0 or 1"),
        ("--M", "magnetic quantum number"),
        ("--a", "quantization axis 'theta,phi'"),
    ),
    "df": (
        ("--d", "first intermediate direction"),
        ("--f", "second intermediate direction"),
    ),
    "meas": (("--c1", "first measured direction"), ("--c2", "second measured direction")),
    "values": (
        ("--r1", "outcome values 'plus,minus'"),
        ("--r2", "outcome values 'plus,minus'"),
    ),
    "grid": (
        ("--grid", "sample an NxN grid of intermediate pairs for the invariance residual"),
    ),
    "tol": (("--tol", _TOL_HELP, {"action": "append", "metavar": "NAME=VALUE"}),),
    "sweep": (
        ("--param", "one of " + ", ".join(_SWEEP_PARAMS)),
        ("--start", None),
        ("--stop", None),
        ("--steps", None),
    ),
}


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
class SweepSpec:
    param: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class RunConfig:
    command: str
    output_format: str = "json"
    seed: int | None = None
    tolerances: dict[str, float] | None = None
    label: CompoundLabel | None = None
    spec: MeasurementSpec | None = None
    d: Direction = Z_AXIS
    f: Direction = Z_AXIS
    grid: int = 1
    sweep: SweepSpec | None = None


# ---------------------------------------------------------------------------
# field parsing


def _parse_float(token, field: str) -> float:
    try:
        return float(token)
    except (TypeError, ValueError, OverflowError):  # OverflowError: huge JSON ints
        raise UsageError(f"{field}: malformed number {token!r}") from None


def _parse_int(token, field: str) -> int:
    try:
        return int(str(token), 10)
    except (TypeError, ValueError):
        raise UsageError(f"{field}: malformed integer {token!r}") from None


def _parse_angle(token, field: str) -> float:
    if isinstance(token, bool):
        raise UsageError(f"{field}: malformed angle {token!r}")
    text = str(token).strip()
    if text.lower().endswith("deg"):
        return math.radians(_parse_float(text[:-3], field))
    return _parse_float(text, field)


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
        tokens = [value.get(key, default) for key, default in zip(keys, defaults)]
    elif isinstance(value, (str, list, tuple)):
        tokens = value.split(",") if isinstance(value, str) else list(value)
    else:
        raise UsageError(f"{field}: expected {form}, got {value!r}")
    if len(tokens) != 2:
        raise UsageError(f"{field}: expected two comma-separated {noun}, got {value!r}")
    args = [parse_token(token, f"{field}.{key}") for token, key in zip(tokens, keys)]
    return _construct(cls, f"{field}: ", *args)


def _parse_tolerances(entries, field: str) -> dict[str, float]:
    if entries is None:
        return {}
    if isinstance(entries, dict):
        items = list(entries.items())
    elif isinstance(entries, list):
        items = []
        for entry in entries:
            name, eq, value = str(entry).partition("=")
            if not eq:
                raise UsageError(f"{field}: expected NAME=VALUE, got {entry!r}")
            items.append((name.strip(), value))
    else:
        raise UsageError(f"{field}: expected NAME=VALUE entries, got {entries!r}")
    out: dict[str, float] = {}
    for name, value in items:
        if name not in verify_mod.DEFAULT_TOLERANCES:
            raise UsageError(f"{field}: unknown check {name!r}")
        tol = _parse_float(value, f"{field}.{name}")
        if not (math.isfinite(tol) and tol > 0.0):
            raise UsageError(f"{field}.{name}: must be finite and positive, got {tol!r}")
        out[name] = tol
    return out


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
        for group in (("common",) + _SUBCOMMANDS[command][1]) if named else ():
            for flag, help_text, *kwargs in _FLAG_GROUPS[group]:
                sub_parser.add_argument(flag, help=help_text, **(kwargs[0] if kwargs else {}))
    return parser


def _load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path!r} ({exc})") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, int digit limit
        raise UsageError(f"--config: invalid JSON in {path!r} ({exc})") from None
    if not isinstance(data, dict):
        raise UsageError("--config: top level must be a JSON object")
    return data


def _config_keys(*groups: str) -> set[str]:
    """Config-file keys of the flags in ``groups``: the flag without its dashes."""
    return {flag[2:] for group in groups for flag, *_ in _FLAG_GROUPS[group]}


def parse_config(argv=None) -> RunConfig:
    """Turn argv (default ``sys.argv[1:]``, plus an optional config file) into
    a validated RunConfig, whose seed is the one the run draws with."""
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv).parse_args(argv)
    command = args.command
    groups = _SUBCOMMANDS[command][1]
    file_cfg = _load_config_file(args.config) if args.config else {}
    known = _config_keys(*_FLAG_GROUPS)
    unknown = [key for key in file_cfg if key not in known]
    if unknown:
        raise UsageError(f"--config: unknown key {unknown[0]!r}")
    # Keys of flags that only other subcommands take are left unread.
    own = _config_keys("common", *groups)
    file_cfg = {key: value for key, value in file_cfg.items() if key in own}

    def opt(key: str, fallback=None):
        value = getattr(args, key, None)
        return file_cfg.get(key, fallback) if value is None else value

    def required(*keys: str) -> list:
        values = [opt(key) for key in keys]
        if any(value is None for value in values):
            *rest, last = [f"--{key}" for key in keys]
            names = f"{', '.join(rest)} and {last} are" if rest else f"{last} is"
            raise UsageError(f"{names} required for {command}")
        return values

    output_format = opt("format", "json")
    if output_format not in ("json", "csv"):
        raise UsageError(f"--format: expected json or csv, got {output_format!r}")
    seed = opt("seed")
    if seed is not None:
        seed = _parse_int(seed, "--seed")
        if seed < 0:
            raise UsageError("--seed: must be non-negative")
    fields: dict[str, Any] = {"output_format": output_format, "seed": seed}

    if "label" in groups:
        (s,), (M,) = required("s"), required("M")
        # CompoundLabel's own messages name s and M, so they carry no prefix.
        fields["label"] = _construct(
            CompoundLabel,
            "",
            _parse_int(s, "--s"),
            _parse_int(M, "--M"),
            _parse_pair(opt("a", "0,0"), "--a", Direction),
        )

    if "meas" in groups:
        c1, c2 = required("c1", "c2")
        fields["spec"] = spec = MeasurementSpec(
            _parse_pair(c1, "--c1", Direction),
            _parse_pair(c2, "--c2", Direction),
            _parse_pair(opt("r1", "1,-1"), "--r1", OutcomeValues),
            _parse_pair(opt("r2", "1,-1"), "--r2", OutcomeValues),
        )
        if "label" in groups and "values" in groups:
            # expect and scan average the products r1(u) * r2(v); one that
            # overflows would print NaN or Infinity, which is not JSON.
            big1, big2 = spec.values1.largest, spec.values2.largest
            if not math.isfinite(big1 * big2):
                raise UsageError(
                    f"--r1, --r2: products of outcome values must be finite, "
                    f"got {big1!r} * {big2!r}"
                )

    if "df" in groups:
        fields["d"] = _parse_pair(opt("d", "0,0"), "--d", Direction)
        fields["f"] = _parse_pair(opt("f", "0,0"), "--f", Direction)

    if "grid" in groups:
        fields["grid"] = _parse_int(opt("grid", 1), "--grid")
        if fields["grid"] < 1:
            raise UsageError("--grid: must be at least 1")
        if fields["grid"] > MAX_GRID:
            raise UsageError(f"--grid: must be at most {MAX_GRID}")

    if "tol" in groups:
        fields["tolerances"] = _parse_tolerances(opt("tol"), "--tol")

    if seed is None and (command == "verify" or fields.get("grid", 1) > 1):
        fields["seed"] = 0  # what they draw with; --grid 1 draws nothing

    if "sweep" in groups:
        (param,) = required("param")
        if param not in _SWEEP_PARAMS:
            raise UsageError(
                f"--param: unknown parameter {param!r}, expected one of "
                + ", ".join(_SWEEP_PARAMS)
            )
        start, stop, steps = required("start", "stop", "steps")
        steps = _parse_int(steps, "--steps")
        if steps < 2:
            raise UsageError("--steps: must be at least 2")
        if steps > MAX_STEPS:
            raise UsageError(f"--steps: must be at most {MAX_STEPS}")
        ends = [_parse_angle(start, "--start"), _parse_angle(stop, "--stop")]
        for flag, end in zip(("--start", "--stop"), ends):
            if not math.isfinite(end):
                raise UsageError(f"{flag}: must be finite, got {end!r}")
        fields["sweep"] = SweepSpec(param, *ends, steps)

    return RunConfig(command=command, **fields)


# ---------------------------------------------------------------------------
# output encoding


def _json_default(value):
    """JSON form of the non-JSON values records hold (json.dumps recurses)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot encode {type(value).__name__} as JSON")


def _flatten(record: dict[str, Any]) -> dict[str, str]:
    """CSV cells: arrays and lists over indexed columns, complex over _re/_im."""
    cells: dict[str, str] = {}

    def add(key: str, value):
        if isinstance(value, np.ndarray) and value.ndim == 2:
            for (i, j), v in np.ndenumerate(value):
                add(f"{key}_{i}{j}", v)
        elif isinstance(value, (list, tuple, np.ndarray)):
            for i, v in enumerate(value):
                add(f"{key}_{i}", v)
        elif isinstance(value, complex):
            add(f"{key}_re", float(value.real))
            add(f"{key}_im", float(value.imag))
        elif isinstance(value, np.generic):
            add(key, value.item())
        elif isinstance(value, bool):
            cells[key] = "true" if value else "false"
        elif isinstance(value, float):
            cells[key] = repr(value)
        else:
            cells[key] = "" if value is None else str(value)

    for k, v in record.items():
        add(k, v)
    return cells


def emit_records(records, output_format: str, out) -> None:
    if output_format == "json":
        for record in records:
            line = json.dumps(record, separators=(",", ":"), default=_json_default)
            out.write(line + "\n")
        return
    rows = [_flatten(r) for r in records]
    header = list(rows[0])
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        if list(row) != header:
            raise ValueError("records in one CSV stream must share a schema")
        writer.writerow(row.values())


# ---------------------------------------------------------------------------
# commands


def _pair_fields(**pairs) -> dict[str, float]:
    """<name>_theta, <name>_phi or <name>_plus, <name>_minus for each named pair."""
    return {
        f"{name}_{key}": v
        for name, pair in pairs.items()
        for key, v in zip(_PAIR_FORMS[type(pair)][0], vars(pair).values())
    }


def _echo(config: RunConfig) -> dict[str, Any]:
    """Record fields echoing the inputs of each flag group the command takes."""
    label, spec = config.label, config.spec
    out: dict[str, Any] = {}
    for group in _SUBCOMMANDS[config.command][1]:
        if group == "label":
            out.update(s=label.s, M=label.M, **_pair_fields(a=label.axis))
        elif group == "df":
            out.update(_pair_fields(d=config.d, f=config.f))
        elif group == "meas":
            out.update(_pair_fields(c1=spec.c1, c2=spec.c2))
        elif group == "values":
            out.update(_pair_fields(r1=spec.values1, r2=spec.values2))
        elif group == "grid":
            out["grid"] = config.grid
    return out


def _metadata(config: RunConfig, timestamp: str) -> dict[str, Any]:
    return {"version": __version__, "seed": config.seed, "timestamp": timestamp}


def _record(config: RunConfig, timestamp: str, head=None, **results) -> dict[str, Any]:
    """One output record: command, ``head``, input echo, results, metadata."""
    return {
        "command": config.command,
        **(head or {}),
        **_echo(config),
        **results,
        **_metadata(config, timestamp),
    }


def _cmd_state(config: RunConfig, timestamp: str):
    asm = assemble_state(config.label, config.d, config.f)
    record = _record(
        config,
        timestamp,
        coefficients=np.array([t.coefficient for t in asm.terms]),
        tensor=asm.tensor,
        norm_sq=float(np.vdot(asm.tensor, asm.tensor).real),
    )
    return [record], EXIT_OK


def _cmd_operator(config: RunConfig, timestamp: str):
    r1, r2 = operator_pair(config.spec, config.d, config.f)
    return [_record(config, timestamp, r1=r1, r2=r2)], EXIT_OK


def _cmd_probabilities(config: RunConfig, timestamp: str):
    p = outcome_probabilities(config.label, config.spec.c1, config.spec.c2)
    return [_record(config, timestamp, probabilities=p, prob_sum=float(np.sum(p)))], EXIT_OK


def _correlation(config: RunConfig, pairs) -> dict[str, Any]:
    """The expect and scan results: both routes over the (d, f) pairs."""
    report = verify_basis_invariance(config.label, config.spec, pairs)
    return {
        "value_matrix_path": report.value_matrix_path,
        "value_oracle_path": report.value_oracle_path,
        "residual": report.residual,
        "basis_invariance_residual": report.basis_invariance_residual,
        "probabilities": list(report.probabilities),
    }


def _cmd_expect(config: RunConfig, timestamp: str):
    rng = np.random.default_rng(config.seed)  # None only for --grid 1: no draws
    draw, n = verify_mod._draw, config.grid - 1
    ds = [config.d] + [d for (d,) in draw(rng, n, [verify_mod._DIRECTION])]
    fs = [config.f] + [f for (f,) in draw(rng, n, [verify_mod._DIRECTION])]
    results = _correlation(config, [(d, f) for d in ds for f in fs])
    return [_record(config, timestamp, **results)], EXIT_OK


def _cmd_verify(config: RunConfig, timestamp: str):
    results = verify_mod.run_verification(config.seed, config.tolerances)
    records = [
        _record(
            config,
            timestamp,
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


def _replaced(obj, path: list[str], value):
    """``obj`` with the attribute at ``path`` set to ``value``, by dataclasses.replace."""
    name, *rest = path
    if rest:
        value = _replaced(getattr(obj, name), rest, value)
    return replace(obj, **{name: value})


def _cmd_scan(config: RunConfig, timestamp: str):
    param = config.sweep.param
    obj, _, field = param.partition(".")
    path = _SWEEP_PATHS[obj].split(".") + [field]
    records = []
    for value in np.linspace(config.sweep.start, config.sweep.stop, config.sweep.steps):
        point = _replaced(config, path, float(value))
        head = {"param": param, "value": float(value)}
        results = _correlation(point, [(point.d, point.f)])
        records.append(_record(point, timestamp, head, **results))
    return records, EXIT_OK


# Each subcommand's handler and the flag groups it takes after "common", in
# --help order.  The groups also decide which flags parse_config reads and
# which inputs _echo copies into the records.
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
    timestamp = datetime.now(timezone.utc).isoformat()
    records, code = _SUBCOMMANDS[config.command][0](config, timestamp)
    _write(records, config.output_format)
    return code


def _write(records, output_format: str) -> None:
    """Emit records to stdout; once the reader has gone, write nothing more."""
    try:
        emit_records(records, output_format, sys.stdout)
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
        record = {
            "command": config.command,
            "error": "internal-consistency",
            "detail": str(exc),
            **_metadata(config, datetime.now(timezone.utc).isoformat()),
        }
        _write([record], config.output_format)
        print(f"internal consistency violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    raise SystemExit(main())
