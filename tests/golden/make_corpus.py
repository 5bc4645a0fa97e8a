"""The golden CLI corpus: what ``spinpair`` prints for a fixed list of argv.

Regenerate it from the root of a source checkout, on Python 3.11 (the CI
version, whose argparse wrote the messages the corpus holds):

    PYTHONPATH=src python tests/golden/make_corpus.py

Each argv of ``CASES`` runs through ``spinpair.cli.main`` in this process,
and ``corpus.jsonl`` beside this file gets one JSON object per run:

- ``argv``: the arguments; ``{config}`` stands for the path of a config file;
- ``config``: the text of that file, or null for a path that names no file
  (only in runs whose argv holds ``{config}``);
- ``exit``: the exit code;
- ``stdout``: the records, with the value of every timestamp made empty;
- ``stderr``: as printed, with the config path given as ``{config}``;
- ``argparse``: true when argparse itself wrote the error message.

``test_golden.py`` runs every argv again and compares the result with its
line.  Regenerating the corpus records a change of output, so a change that
regenerates it says so.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re
import sys
import tempfile

import spinpair.cli as cli

CORPUS = pathlib.Path(__file__).with_name("corpus.jsonl")
CONFIG = "{config}"

# The timestamp of a JSON record, and a CSV row's last cell, which is its
# timestamp: the one part of the output that varies between identical runs.
_TIMESTAMP = re.compile(r'(?<="timestamp":")[^"]*|(?<=,)\d{4}-\d{2}-\d{2}T[^,\n]*')

_A, _C1, _C2, _D, _F = "0.4,1", "0.3,0.2", "1.2,2", "0.7,2.5", "1.1,0.3"
_LABELS = ((0, 0), (1, 1), (1, 0), (1, -1))
_PARAMS = tuple(f"{o}.{a}" for o in ("a", "c1", "c2", "d", "f") for a in ("theta", "phi"))


def _label(s: int, m: int) -> str:
    return f"--s {s} --M {m} --a {_A}"


_STATE = f"state {_label(1, 0)} --d {_D} --f {_F}"
_OPERATOR = f"operator --d {_D} --f {_F} --c1 {_C1} --c2 {_C2}"
_PROBABILITIES = f"probabilities {_label(1, 1)} --c1 {_C1} --c2 {_C2}"
_EXPECT = f"expect {_label(1, -1)} --d {_D} --f {_F} --c1 {_C1} --c2 {_C2}"
_SCAN = f"scan {_label(0, 0)} --c1 {_C1} --c2 {_C2} --param c2.theta --start 0 --stop 3 --steps 9"
_EXPECT_REQUIRED = "expect --s 1 --M 0 --c1 0.3,0.2 --c2 1.2,2"


def _hostile_runs() -> list[str]:
    """Usage errors and the argv forms whose parsing turns on their tokens."""
    return [
        # no subcommand, an unknown one, the top-level version
        "",
        "--version",
        "bogus --s 0",
        "--bogus",
        # every missing flag in one message
        "state",
        "operator",
        "probabilities --s 0",
        "expect --s 0 --M 0 --c1 0,0",
        "scan --s 0 --c2 0,0 --stop 1",
        "expect --seed abc --format xml --c1 0,0 --c2 0,0",
        # tails after a subcommand: unknown flags, flags without a value,
        # --version, abbreviations, --, --=x
        *(
            f"{_EXPECT_REQUIRED} {tail}"
            for tail in (
                "--bogus",
                "--bogus 1",
                "extra",
                "--",
                "-- extra",
                "--=x",
                "--version",
                "--version=3",
                "-s 1",
                "--se",
                "--grid",
                "--c2",
                "--c 1,1",
                "--se -3",
                "--se 3",
                "--gr 2 --se 4",
                "--format",
                "--format xml",
                "--fo csv",
            )
        ),
        *(f"{cmd} --version" for cmd in ("state", "operator", "verify")),
        "verify --grid 2",
        "state --s 0 --M 0 --c1 0,0",
        # negative-number tokens: "-" or "-." then a digit is a value
        "expect --s 1 --M 0 --c1 -1,2 --c2 1.2,2",
        "expect --s 1 --M 0 --c1=-1,2 --c2=1.2,2 --se=3",
        "expect --s=1 --M=0 --c1 -.5,0 --c2 -0.5,-1",
        f"{_SCAN.replace('--start 0', '--start -1e-3')}",
        "expect --s 1 --M 0 --c1 -x,2 --c2 1.2,2",
        # label values
        "state --s 2 --M 0",
        "state --s 0 --M 1",
        "state --s 1 --M 2",
        "state --s 1.5 --M 0",
        "state --s x --M 0",
        "state --s 0x1 --M 0",
        # malformed and non-finite pairs
        *(
            f"expect --s 1 --M 0 --c1 0,0 --c2 {value}"
            for value in (
                "nan,0", "0,nan", "inf,0", "-inf,0", "1e400,0", "1e309,0", "abc,0", "1,2,3",
                "1", ",", "0,", "deg,0", "0x10,0", "1e17,-1e17", "60deg,-90deg", "1e2deg,0",
                "1,2deg", "infdeg,0",
            )
        ),
        "state --s 1 --M 0 --d nan,0",
        "state --s 0 --M 0 --a nan,0",
        "state --s 1 --M 0 --f 0,inf",
        "operator --c1 0,0 --c2 1,0 --r1 1,nope",
        "operator --c1 0,0 --c2 1,0 --r1 nan,1",
        "operator --c1 0,0 --c2 1,0 --r2 1,inf",
        "operator --c1 0,0 --c2 1,0 --r1 1e200,1 --r2 1,1e200",
        # products of outcome values that overflow
        "expect --s 1 --M 0 --c1 0,0 --c2 1,0 --r1 1e308,-1e308 --r2 1e308,1",
        "expect --s 0 --M 0 --c1 0,0 --c2 1,0 --grid 3 --r1 1e200,1 --r2 1,1e200",
        # bounds of the work one run asks for
        "expect --s 0 --M 0 --c1 0,0 --c2 1,0 --grid 0",
        "expect --s 0 --M 0 --c1 0,0 --c2 1,0 --grid 101",
        "expect --s 0 --M 0 --c1 0,0 --c2 1,0 --grid 2.5",
        "expect --s 0 --M 0 --c1 0,0 --c2 1,0 --grid 2 --seed -5",
        "expect --s 0 --M 0 --c1 0,0 --c2 1,0 --seed 1e3",
        "state --s 0 --M 0 --seed -3",
        # sweeps
        *(
            f"scan --s 0 --M 0 --c1 0,0 --c2 0,0 {sweep}"
            for sweep in (
                "--param c2.theta --start 0 --stop 1",
                "--param bogus --start 0 --stop 1 --steps 3",
                "--param c2.theta --start 0 --stop 1 --steps 1",
                "--param c2.theta --start 0 --stop 1 --steps 100001",
                "--param c2.theta --start 0 --stop inf --steps 3",
                "--param d.phi --start nan --stop 1 --steps 3",
                "--param c2.theta --start -1e308 --stop 1e308 --steps 3",
                "--param c2.theta --start 0deg --stop 90deg --steps 3",
            )
        ),
        # tolerances and seeds of verify
        *(
            f"verify {tail}"
            for tail in (
                "--tol nonsense=1e-9",
                "--tol kernel_unitarity",
                "--tol kernel_unitarity=inf",
                "--tol kernel_unitarity=nan",
                "--tol kernel_unitarity=0",
                "--tol kernel_unitarity=-1",
                "--tol kernel_unitarity=abc",
                "--tol =1e-9",
                "--tol",
                "--seed -1",
                "--seed x",
                "--config missing-dir/run.json",
            )
        ),
    ]


# Runs with a config file, as (argv, file text); a text of None names no file.
_CONFIG_RUNS: list[tuple[str, str | None]] = [
    (
        "expect --config {config}",
        '{"s": 1, "M": 0, "a": "0.4,1", "c1": "0.3,0.2", "c2": [1.2, 2], "grid": 2, "seed": 4}',
    ),
    (
        "expect --s 0 --c2 1,1 --config {config}",
        '{"s": 1, "M": 0, "c1": {"theta": 0.3}, "c2": "60deg,0", "r1": {"plus": 2, "minus": null}}',
    ),
    ("state --config {config} --format csv", '{"s": 1, "M": -1, "d": null, "f": ["90deg", 1]}'),
    ("verify --seed 3 --config {config}", '{"tol": {"kernel_unitarity": null}, "seed": 9}'),
    ("probabilities --config {config}", '{"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", "r1": "x,1"}'),
    ("expect --config {config}", '{"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", "r1": "x,1"}'),
    ("expect --config {config}", '{"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", "r_1": "2,0"}'),
    ("expect --config {config}", '{"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", "config": "x"}'),
    ("expect --config {config}", '{"s": 0, "M": 0, "c1": {"theta": 0, "psi": 1}, "c2": "1,0"}'),
    ("expect --config {config}", '{"s": 0, "M": 0, "c1": 5, "c2": "1,0"}'),
    ("expect --config {config}", '{"s": 0, "M": 0, "c1": "0,0", "c2": [1e999, 0]}'),
    ("expect --config {config}", '{"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", "r1": [true, false]}'),
    ("expect --config {config}", '{"s": true, "M": 0, "c1": "0,0", "c2": "1,0"}'),
    (
        "expect --config {config}",
        '{"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", "grid": 2, "seed": -5}',
    ),
    ("scan --config {config}", '{"s": 0, "M": 0, "c1": "0,0", "c2": "0,0", "param": "bogus"}'),
    (
        "scan --s 0 --M 0 --c1 0,0 --c2 0,0 --param c2.theta --steps 3 --config {config}",
        '{"start": -1e308, "stop": 1e308}',
    ),
    ("verify --config {config}", '{"tol": 5}'),
    ("verify --config {config}", '{"tol": {"kernel_unitarity": 0}}'),
    ("verify --config {config}", '{"tol": ["chsh_extremum=inf"]}'),
    ("verify --config {config}", '{"tol": {"kernel_unitarity": true}}'),
    ("verify --config {config}", '{"seed": -1}'),
    ("verify --config {config}", "[1, 2]"),
    ("verify --config {config}", '{"seed": 1,}'),
    ("verify --config {config}", ""),
    ("verify --config {config}", None),
]


def _runs() -> list[tuple[list[str], str | None]]:
    runs = [f"state {_label(*sm)} --d {_D} --f {_F}" for sm in _LABELS]
    runs += [_OPERATOR, f"{_OPERATOR} --r1 2,-1 --r2 0.4,-3", "operator --c1 0,0 --c2 0,0"]
    runs += [f"probabilities {_label(*sm)} --c1 {_C1} --c2 {_C2}" for sm in _LABELS]
    runs += [f"expect {_label(*sm)} --d {_D} --f {_F} --c1 {_C1} --c2 {_C2}" for sm in _LABELS]
    runs += [f"expect {_label(*sm)} --c1 60deg,0 --c2 0,0 --r1 2,-1 --r2 3,0.5" for sm in _LABELS]
    runs += [f"expect {_label(*sm)} --c1 {_C1} --c2 {_C2} --grid 3" for sm in _LABELS]
    runs += [f"{_EXPECT} --grid 1 --seed 7", f"{_EXPECT} --grid 3 --seed 5"]
    runs += [
        f"scan {_label(*sm)} --d {_D} --f {_F} --c1 {_C1} --c2 {_C2} --r1 2,-1"
        f" --param {param} --start -1 --stop 7 --steps 9"
        for sm, param in zip(_LABELS * 3, _PARAMS)
    ]
    runs += [f"state --s {s} --M {m}" for s, m in _LABELS]
    runs += [f"probabilities {_label(*sm)} --c1 0,0 --c2 180deg,0" for sm in _LABELS]
    runs += [
        f"scan {_label(*sm)} --c1 0,0 --c2 0,0 --param a.theta --start 3 --stop -3 --steps 2"
        for sm in _LABELS
    ]
    runs += [
        "expect --s 0 --M 0 --c1 0,0 --c2 60deg,0",
        "expect --s 0 --M 0 --c1 0,0 --c2 60deg,0 --seed 3",
        "expect --s 1 --M 1 --c1 0,0 --c2 1,0 --grid 2",
        "expect --s 1 --M 0 --c1 1e17,-1e17 --c2 -7,1e-300 --d 3.2,6.3 --f -0.0,-0.0",
        "operator --c1 90deg,90deg --c2 0,0 --r1 1e150,-1e150 --r2 0.5,0.5",
        f"{_SCAN} --format csv --param d.phi",
    ]
    runs += ["verify --seed 0", "verify --seed 42", "verify --seed 1 --tol kernel_unitarity=1e-30"]
    # one CSV run per subcommand
    runs += [f"{argv} --format csv" for argv in (_STATE, _OPERATOR, _PROBABILITIES, _EXPECT, _SCAN)]
    runs += ["verify --format csv --seed 5 --tol chsh_extremum=1e-9"]
    runs += _hostile_runs()
    cases = [(argv.split(), None) for argv in runs]
    cases += [(argv.split(), body) for argv, body in _CONFIG_RUNS]
    # tokens that splitting on spaces cannot give: empty, and full-width digits
    cases += [
        (["expect", "--s", "", "--M", "0", "--c1", "0,0", "--c2", "1,0"], None),
        (["expect", "--s", "1", "--M", "0", "--c1", "", "--c2", "1,0"], None),
        (["expect", "--s", "1", "--M", "0", "--c1", " 0 , 1 ", "--c2", "1,0"], None),
        (["expect", "--s", "\uff11", "--M", "0", "--c1", "\uff10,\uff11", "--c2", "1,0"], None),
        (["verify", "--seed", "\uff14\uff12"], None),
        (["verify", "--tol", ""], None),
        (["", "--s", "0"], None),
    ]
    return cases


CASES = _runs()


def run(argv: list[str], config: pathlib.Path | None = None) -> dict:
    """One corpus line's fields for ``argv``, run through ``cli.main``."""
    path = str(config) if config is not None else CONFIG
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([token.replace(CONFIG, path) for token in argv])
        except SystemExit as exc:  # --version
            code = exc.code
    return {
        "exit": code,
        "stdout": _TIMESTAMP.sub("", out.getvalue()),
        "stderr": err.getvalue().replace(path, CONFIG),
    }


def _argparse_wrote(argv: list[str], config: pathlib.Path | None) -> bool:
    """Whether argparse wrote the usage error ``argv`` gives."""
    wrote, error = [], cli._Parser.error

    def recorded(parser, message):
        wrote.append(message)
        error(parser, message)

    cli._Parser.error = recorded
    try:
        run(argv, config)
    finally:
        cli._Parser.error = error
    return bool(wrote)


def main() -> int:
    if sys.version_info[:2] != (3, 11):
        print("regenerate the corpus on Python 3.11", file=sys.stderr)
        return 1
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv, body in CASES:
            config = None
            if CONFIG in argv:
                config = pathlib.Path(tmp, "run.json")
                config.unlink(missing_ok=True)
                if body is not None:
                    config.write_text(body, encoding="utf-8")
            line = {"argv": argv, **({"config": body} if config else {}), **run(argv, config)}
            line["argparse"] = line["exit"] == cli.EXIT_USAGE and _argparse_wrote(argv, config)
            lines.append(json.dumps(line, ensure_ascii=False))
    CORPUS.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"{CORPUS}: {len(lines)} runs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
