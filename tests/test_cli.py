import copy
import csv
import dataclasses
import io
import json
import math
import os
import pathlib
import platform
import re
import struct
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spinpair.cli as cli_mod
import spinpair.kernels as kernels_mod
import spinpair.expectation as expectation_mod
import spinpair.operators as operators_mod
import spinpair.states as states_mod
from spinpair import Direction, Z_AXIS, expectation_matrix
from spinpair.verify import DEFAULT_TOLERANCES
from spinpair.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    UsageError,
    emit_records,
    main,
    parse_config,
)
from support import inject_blocks

_TS = re.compile(r'("timestamp":")[^"]*(")|(?<=,)\d{4}-\d{2}-\d{2}T[^,\n]*')


_SCAN_C2 = "scan --s 1 --M 1 --c1 0,0 --c2 0,0 --param c2.theta"

_COMMANDS = ("state", "operator", "probabilities", "expect", "verify", "scan")

# A value for each flag, none of them its default, and the flags each
# subcommand takes after --config, required ones starred.
_FLAG_VALUES = {
    "format": "csv", "seed": "3", "s": "1", "M": "-1", "a": "-0.3,2", "d": "-1,0.5",
    "f": "0.2,-4", "c1": "-0.5,0", "c2": "60deg,-1", "r1": "-1,1", "r2": "2,-0.5",
    "grid": "3", "tol": "kernel_unitarity=1e-9", "param": "d.phi", "start": "-1e-3",
    "stop": "-90deg", "steps": "4",
}
_COMMAND_FLAGS = {
    "state": "format seed *s *M a d f",
    "operator": "format seed d f *c1 *c2 r1 r2",
    "probabilities": "format seed *s *M a *c1 *c2",
    "expect": "format seed *s *M a d f *c1 *c2 r1 r2 grid",
    "verify": "format seed tol",
    "scan": "format seed *s *M a d f *c1 *c2 r1 r2 *param *start *stop *steps",
}
_EACH_FLAG = [(c, f) for c, flags in _COMMAND_FLAGS.items() for f in flags.split()]
_each_flag = pytest.mark.parametrize(
    "command, flag", _EACH_FLAG, ids=[f"{c}-{f.lstrip('*')}" for c, f in _EACH_FLAG]
)
_HELP_PAGES = pathlib.Path(__file__).parent / "help_pages"


def _argv_without(command, name):
    """``command`` with every required flag but ``name``."""
    required = [f[1:] for f in _COMMAND_FLAGS[command].split() if f[0] == "*"]
    return [command] + [t for f in required if f != name for t in (f"--{f}", _FLAG_VALUES[f])]


def _outcome(argv):
    """parse_config's RunConfig for ``argv``, or its usage error message."""
    try:
        return parse_config(argv)
    except UsageError as exc:
        return str(exc)


def _strip_timestamps(text):
    return _TS.sub("", text)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def _json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _refuse(constant):
    """A json.loads parse_constant that refuses NaN and Infinity, which are not JSON."""
    raise ValueError(f"{constant} is not JSON")


class TestParsing:
    def test_expect_flags(self):
        cfg = parse_config(
            "expect --s 0 --M 0 --c1 0,0 --c2 1.0472,0 --r1 1,-1 --r2 1,-1".split()
        )
        assert cfg.command == "expect"
        assert (cfg.label.s, cfg.label.M) == (0, 0)
        assert cfg.spec.c2.theta == pytest.approx(1.0472)
        assert cfg.spec.values1.r_minus == -1.0
        assert cfg.output_format == "json"

    def test_degree_suffix(self):
        cfg = parse_config("probabilities --s 0 --M 0 --c1 0,0 --c2 60deg,45deg".split())
        assert cfg.spec.c2.theta == pytest.approx(math.pi / 3, abs=1e-15)
        assert cfg.spec.c2.phi == pytest.approx(math.pi / 4, abs=1e-15)

    def test_config_file_supplies_defaults(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(
            json.dumps(
                {
                    "s": 0,
                    "M": 0,
                    "c1": "0,0",
                    "c2": {"theta": "60deg", "phi": 0},
                    "format": "csv",
                }
            )
        )
        cfg = parse_config(["expect", "--config", str(path)])
        assert cfg.spec.c2.theta == pytest.approx(math.pi / 3, abs=1e-15)
        assert cfg.output_format == "csv"

    def test_flags_override_the_config_file(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"s": 0, "M": 0, "c1": "0,0", "c2": "1,0"}))
        cfg = parse_config(["expect", "--config", str(path), "--c2", "2,0"])
        assert cfg.spec.c2.theta == 2.0

    def test_label_validation_is_a_usage_error(self):
        with pytest.raises(UsageError):
            parse_config("state --s 2 --M 0".split())

    @pytest.mark.parametrize(
        "argv",
        [
            "expect --s 0 --c1 0,0 --c2 0,0",
            "expect --s 0 --M 0 --c2 0,0",
            "probabilities --s 0 --M 0 --c1 abc,0 --c2 0,0",
            "operator --c1 0,0 --c2 0,0 --r1 1,nope",
            "scan --s 0 --M 0 --c1 0,0 --c2 0,0 --param c2.theta --start 0 --stop 1",
            "scan --s 0 --M 0 --c1 0,0 --c2 0,0 --param bogus --start 0 --stop 1 --steps 3",
            "scan --s 0 --M 0 --c1 0,0 --c2 0,0 --param c2.theta --start 0 --stop 1 --steps 1",
            "verify --tol nonsense=1e-9",
            "expect --s 0 --M 0 --c1 0,0 --c2 0,0 --grid 0",
            "expect --s 1 --M 0 --c1 0,0 --c2 nan,0",
            "expect --s 1 --M 0 --c1 0,0 --c2 1e400,0",
            "state --s 1 --M 0 --d nan,0",
            "scan --s 0 --M 0 --c1 0,0 --c2 0,0 --param c2.theta --start 0 --stop inf --steps 3",
            "verify --tol kernel_unitarity=inf",
            "verify --tol kernel_unitarity=nan",
            "verify --tol kernel_unitarity=0",
            "verify --tol kernel_unitarity=-1",
            "verify --seed -1",
            "expect --s 0 --M 0 --c1 0,0 --c2 1,0 --grid 2 --seed -5",
            "state --s 0 --M 0 --seed -3",
            "expect --s 0 --M 0 --c1 1,2,3 --c2 0,0",
            "verify --tol kernel_unitarity",
            "verify --config missing-dir/run.json",
        ],
    )
    def test_malformed_invocations(self, argv):
        with pytest.raises(UsageError):
            parse_config(argv.split())

    @pytest.mark.parametrize(
        "argv, flag",
        [
            ("expect --s 1 --M 0 --c1 0,0 --c2 nan,0", "--c2"),
            ("expect --s 1 --M 0 --c1 inf,0 --c2 0,0", "--c1"),
            ("state --s 1 --M 0 --f 0,nan", "--f"),
            ("state --s 0 --M 0 --a nan,0", "--a"),
            (
                "scan --s 0 --M 0 --c1 0,0 --c2 0,0 --param d.phi --start nan --stop 1 --steps 3",
                "--start",
            ),
        ],
    )
    def test_non_finite_angle_is_a_one_line_usage_error(self, capsys, argv, flag):
        assert main(argv.split()) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, body",
        [
            ("verify", b'{"tol": 5}'),
            ("verify", b'{"tol": {"kernel_unitarity": 0}}'),
            ("verify", b'{"tol": ["chsh_extremum=inf"]}'),
            ("expect", b'{"s": 1, "M": 0, "c1": "0,0", "c2": [1e999, 0]}'),
            ("expect", b'{"s": 1, "M": 0, "c1": "0,0", "c2": "0,0", "r1": [1' + b"0" * 400 + b", 1]}"),
            ("expect", b"\xff\xfe"),
            ("expect", b'{"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", "r_1": "2,0"}'),
            ("verify", b'{"seed": -1}'),
            ("expect", b'{"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", "grid": 2, "seed": -5}'),
            ("expect", b'{"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", "r1": [true, false]}'),
            ("expect", b'{"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", "r2": {"plus": false}}'),
            ("verify", b'{"tol": {"kernel_unitarity": true}}'),
            ("verify", b"[1, 2]"),
            ("expect", b'{"s": 0, "M": 0, "c1": {"theta": 0, "psi": 1}, "c2": "1,0"}'),
            ("expect", b'{"s": 0, "M": 0, "c1": 5, "c2": "1,0"}'),
            ("verify", b"[" * 200_000 + b"]" * 200_000),  # the decoder's RecursionError
        ],
        ids=[
            "tol-number", "tol-zero", "tol-inf", "c2-inf", "r1-overflow", "not-utf8",
            "unknown-key", "seed-negative-verify", "seed-negative-expect", "r1-booleans",
            "r2-boolean", "tol-boolean", "top-level-list", "c1-unknown-key", "c1-number",
            "deep-nesting",
        ],
    )
    def test_malformed_config_files(self, tmp_path, command, body):
        path = tmp_path / "run.json"
        path.write_bytes(body)
        with pytest.raises(UsageError):
            parse_config([command, "--config", str(path)])

    @pytest.mark.parametrize("key", ["r_1", "config"])  # a file names no other file
    def test_unknown_config_key_names_the_key(self, capsys, tmp_path, key):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", key: "2,0"}))
        assert main(["expect", "--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --config: unknown key {key!r}\n"

    def test_config_keys_of_other_subcommands_are_not_read(self, capsys, tmp_path):
        # probabilities takes no --r1, so a shared file's r1 is never parsed
        path = tmp_path / "shared.json"
        path.write_text(json.dumps({"s": 0, "M": 0, "c1": "0,0", "c2": "1,0", "r1": "x,1"}))
        assert main(["probabilities", "--config", str(path)]) == EXIT_OK
        assert main(["expect", "--config", str(path)]) == EXIT_USAGE
        assert "--r1.plus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("expect --s 0 --M 0 --c1 0,0 --c2 1,0 --grid 101", "--grid: must be at most 100"),
            (
                "scan --s 0 --M 0 --c1 0,0 --c2 0,0 --param c2.theta --start 0 --stop 1"
                " --steps 100001",
                "--steps: must be at most 100000",
            ),
        ],
    )
    def test_work_bounds_are_one_line_usage_errors(self, capsys, argv, message):
        # rejected while parsing, before any pair is drawn or point evaluated
        assert main(argv.split()) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, missing",
        [
            ("expect --s 0 --M 0 --c1 0,0", "--c2 is"),
            (_SCAN_C2 + " --start 0 --stop 1", "--steps is"),
            ("expect --c1 0,0 --c2 0,0", "--s and --M are"),
            ("scan --s 0 --c2 0,0 --stop 1", "--M, --c1, --param, --start and --steps are"),
            ("expect --seed abc --format xml --c1 0,0 --c2 0,0", "--s and --M are"),
        ],
    )
    def test_one_message_names_exactly_the_missing_flags(self, capsys, argv, missing):
        assert main(argv.split()) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {missing} required for {argv.split()[0]}\n"

    def test_an_overflowing_sweep_span_is_a_one_line_usage_error(self, capsys, tmp_path):
        # start and stop are finite, stop - start is not
        argv = (_SCAN_C2 + " --steps 3").split()
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"start": -1e308, "stop": 1e308}))
        runs = [argv + ["--start", "-1e308", "--stop", "1e308"], argv + ["--config", str(path)]]
        for run in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(run) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: --start, --stop: ")
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            "state --s 0 --M 0",
            "operator --c1 0,0 --c2 1,0",
            "probabilities --s 0 --M 0 --c1 0,0 --c2 1,0",
            "expect --s 0 --M 0 --c1 0,0 --c2 1,0 --grid 2",
            "verify",
            "scan --s 0 --M 0 --c1 0,0 --c2 0,0 --param c2.theta --start 0 --stop 1 --steps 3",
        ],
    )
    def test_negative_seed_is_a_one_line_usage_error(self, capsys, tmp_path, argv):
        # rejected while parsing, from a flag and from a config file alike
        assert main(argv.split() + ["--seed", "-2"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --seed: must be non-negative\n"
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": -2}))
        assert main(argv.split() + ["--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --seed: must be non-negative\n"

    @pytest.mark.parametrize(
        "command, name, value, message",
        [
            ("verify", "seed", "abc", "--seed: malformed integer 'abc'"),
            ("expect", "format", "xml", "--format: expected one of json, csv, got 'xml'"),
            (
                "scan", "param", "bogus",
                "--param: expected one of a.theta, a.phi, c1.theta, c1.phi, c2.theta, c2.phi, "
                "d.theta, d.phi, f.theta, f.phi, got 'bogus'",
            ),
        ],
    )
    def test_a_malformed_value_reads_alike_from_a_flag_and_a_config_file(
        self, capsys, tmp_path, command, name, value, message
    ):
        argv = _argv_without(command, name)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({name: value}))
        for run in (argv + [f"--{name}", value], argv + ["--config", str(path)]):
            assert main(run) == EXIT_USAGE
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("c1", [None, 1], "--c1.theta: malformed angle null"),
            ("r1", [1, None], "--r1.minus: malformed number null"),
            ("grid", {"a": 1}, '--grid: malformed integer {"a": 1}'),
            ("seed", [1], "--seed: malformed integer [1]"),
            ("seed", ["1"], '--seed: malformed integer ["1"]'),
        ],
        ids=["c1-null", "r1-null", "grid-object", "seed-list", "seed-list-of-string"],
    )
    def test_a_non_string_config_value_is_quoted_as_json(
        self, capsys, tmp_path, name, value, message
    ):
        # a string keeps its repr, as from a flag; anything else reads as the
        # file wrote it
        path = tmp_path / "run.json"
        path.write_text(json.dumps({name: value}))
        assert main(_argv_without("expect", name) + ["--config", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"

    @_each_flag
    def test_a_config_null_is_a_key_not_given(self, tmp_path, command, flag):
        # an optional flag takes its default, a required one is missing
        name = flag.lstrip("*")
        argv = _argv_without(command, name)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({name: None}))
        assert _outcome(argv + ["--config", str(path)]) == _outcome(argv)

    @pytest.mark.parametrize(
        "command, name, with_null, without",
        [
            ("expect", "c1", {"theta": None, "phi": 1}, {"phi": 1}),
            ("state", "a", {"theta": 0.4, "phi": None}, {"theta": 0.4}),
            ("expect", "r1", {"plus": None}, {}),
            ("scan", "r2", {"plus": 2, "minus": None}, {"plus": 2}),
            ("verify", "tol", {"kernel_unitarity": None}, {}),
            ("verify", "tol", {"kernel_unitarity": None, "chsh_extremum": 1e-9},
             {"chsh_extremum": 1e-9}),
        ],
        ids=["c1.theta", "a.phi", "r1.plus", "r2.minus", "tol", "tol-one-of-two"],
    )
    def test_a_null_inside_a_config_object_is_a_key_not_given(
        self, tmp_path, command, name, with_null, without
    ):
        # a pair key takes its default, a tol entry keeps the pinned tolerance
        argv = _argv_without(command, name)
        outcomes = []
        for i, value in enumerate((with_null, without)):
            path = tmp_path / f"run{i}.json"
            path.write_text(json.dumps({name: value}))
            outcomes.append(_outcome(argv + ["--config", str(path)]))
        assert not isinstance(outcomes[1], str) and outcomes[0] == outcomes[1]

    @_each_flag
    def test_every_flag_parses_from_a_config_file_as_from_the_command_line(
        self, tmp_path, command, flag
    ):
        name = flag.lstrip("*")
        argv = _argv_without(command, name)
        value = _FLAG_VALUES[name]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({name: [value] if name == "tol" else value}))
        from_flag = parse_config(argv + [f"--{name}", value])
        assert from_flag == parse_config(argv + ["--config", str(path)])
        if flag == name:  # optional: the value was read, not the default
            assert from_flag != parse_config(argv)

    @pytest.mark.parametrize(
        "argv, r1, r2",
        [
            ("expect --s 1 --M 0 --c1 0,0 --c2 1,0", "1e308,-1e308", "1e308,1"),
            ("expect --s 0 --M 0 --c1 0,0 --c2 1,0 --grid 3", "1e200,1", "1,1e200"),
            (_SCAN_C2 + " --start 0 --stop 1 --steps 3", "-1e200,1", "1e200,1"),
        ],
    )
    def test_overflowing_value_products_are_a_one_line_usage_error(
        self, capsys, tmp_path, argv, r1, r2
    ):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"r1": r1, "r2": r2}))
        runs = [argv.split() + ["--r1", r1, "--r2", r2], argv.split() + ["--config", str(path)]]
        for run in runs:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(run) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: --r1, --r2: ")
            assert captured.err.count("\n") == 1
        # the blocks alone hold no product of values
        assert main(["operator", "--c1", "0,0", "--c2", "1,0", "--r1", r1, "--r2", r2]) == EXIT_OK

    # Tails whose handling turns on how argv reaches the subcommand's parser,
    # with the messages argparse gives them, or the value's own message when
    # argparse takes the token as a value.  "--=x" is ambiguous among the
    # flags of the one parser that reads it, which is expect's own.
    @pytest.mark.parametrize(
        "command, tail, message",
        [
            ("expect", "--version", "unrecognized arguments: --version"),
            ("expect", "extra", "unrecognized arguments: extra"),
            ("expect", "-- extra", "unrecognized arguments: -- extra"),
            ("expect", "--", "unrecognized arguments: --"),
            ("expect", "--se -3", "--seed: must be non-negative"),
            ("expect", "--se", "argument --seed: expected one argument"),
            ("expect", "--grid", "argument --grid: expected one argument"),
            ("expect", "--c 1,1", "ambiguous option: --c could match --config, --c1, --c2"),
            ("expect", "--version=3", "unrecognized arguments: --version=3"),
            ("expect", "-s 1", "unrecognized arguments: -s 1"),
            (
                "expect",
                "--=x",
                "ambiguous option: --=x could match --help, --config, --format, --seed,"
                " --s, --M, --a, --d, --f, --c1, --c2, --r1, --r2, --grid",
            ),
            # "-inf" and "-nan" are values, in any case, as "inf" and "nan" are
            ("expect", "--c2 -inf,0", "--c2: direction angles must be finite"),
            ("expect", "--c2 -NaN,0", "--c2: direction angles must be finite"),
            ("expect", "--r1 -inf,1", "--r1: r_plus must be finite, got -inf"),
            ("scan", "--start -inf", "--start: must be finite, got -inf"),
            ("scan", "--stop -Infinity", "--stop: must be finite, got -inf"),
        ],
    )
    def test_usage_errors_of_a_subcommand_tail(self, capsys, command, tail, message):
        head = {
            "expect": "expect --s 1 --M 0 --c1 0.3,0.2 --c2 1.2,2",
            "scan": _SCAN_C2 + " --start 0 --stop 1 --steps 3",
        }[command]
        assert main(head.split() + tail.split()) == EXIT_USAGE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_version_after_any_subcommand_is_an_unrecognized_argument(self, capsys):
        for command in _COMMANDS:
            assert main(_argv_without(command, None) + ["--version"]) == EXIT_USAGE
            assert capsys.readouterr() == ("", "error: unrecognized arguments: --version\n")

    @pytest.mark.parametrize(
        "argv",
        [
            "--s 1 --M 0 --c1 -1,2 --c2 1.2,2 --se 3",
            "--s 1 --M 0 --c1=-1,2 --c2 1.2,2 --seed 3",
            "--s=1 --M=0 --c1 -1,2 --c2=1.2,2 --se=3",
        ],
    )
    def test_abbreviations_and_negative_number_tokens_parse(self, argv):
        cfg = parse_config(["expect"] + argv.split())
        assert (cfg.seed, cfg.inputs["c1"], cfg.inputs["c2"]) == (
            3, Direction(-1.0, 2.0), Direction(1.2, 2.0)
        )

    def test_verify_help_lists_every_check(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        out = capsys.readouterr().out
        missing = [name for name in DEFAULT_TOLERANCES if name not in out]
        assert not missing

    def test_unknown_command_exits_one(self, capsys):
        # parse_config builds flags only for a named subcommand; the error for
        # any other word must still list every name
        assert main(["bogus", "--s", "0"]) == EXIT_USAGE
        choices = ", ".join(f"'{name}'" for name in _COMMANDS)
        assert capsys.readouterr().err == (
            f"error: argument command: invalid choice: 'bogus' (choose from {choices})\n"
        )

    # The help pages as argparse on Python 3.11 (the CI version) lays them out
    # at 80 columns; other versions wrap and label them differently.
    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pages pinned on 3.11")
    @pytest.mark.parametrize(
        "argv, page",
        [(["--help"], "spinpair"), (["-h", "expect"], "spinpair")]
        + [([name, "--help"], name) for name in _COMMANDS],
    )
    def test_help_pages_are_pinned(self, capsys, monkeypatch, argv, page):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert captured.out == (_HELP_PAGES / f"{page}.txt").read_text(encoding="utf-8")

    def test_argv_defaults_to_sys_argv(self, capsys, monkeypatch):
        # the subcommand whose flags get parsed comes from sys.argv too
        argv = "expect --s 1 --M 0 --c1 0.3,0.2 --c2 1.2,2.0 --grid 2 --r1 2,-1".split()
        code, given = _run(capsys, argv)
        monkeypatch.setattr(sys, "argv", ["spinpair"] + argv)
        assert main() == code == EXIT_OK
        assert _strip_timestamps(capsys.readouterr().out) == _strip_timestamps(given)
        monkeypatch.setattr(sys, "argv", ["spinpair", "verify", "--grid", "2"])
        assert main() == EXIT_USAGE
        assert capsys.readouterr().err == "error: unrecognized arguments: --grid 2\n"

    def test_the_config_holds_the_seed_the_run_draws_with(self):
        expect = "expect --s 0 --M 0 --c1 0,0 --c2 1,0 --grid".split()
        assert parse_config(expect + ["2"]).seed == 0
        assert parse_config(expect + ["1"]).seed is None  # --grid 1 draws nothing
        assert parse_config(expect + ["2", "--seed", "7"]).seed == 7
        assert parse_config(["verify"]).seed == 0
        assert parse_config(["state", "--s", "0", "--M", "0"]).seed is None

    @pytest.mark.parametrize(
        "argv, labels, specs",
        [
            ("state --s 1 --M 0", 1, 0),
            ("operator --c1 0,0 --c2 1,0", 0, 1),
            ("probabilities --s 0 --M 0 --c1 0,0 --c2 1,0", 1, 1),
            ("expect --s 0 --M 0 --c1 0,0 --c2 1,0 --grid 3", 1, 1),
        ],
    )
    def test_a_run_builds_its_label_and_spec_once(self, capsys, monkeypatch, argv, labels, specs):
        # parse_config validates them and the command reads the same objects
        built = Counter()

        def counted(cls):
            def build(*args):
                built[cls.__name__] += 1
                return cls(*args)

            return build

        for cls in (cli_mod.CompoundLabel, cli_mod.MeasurementSpec):
            monkeypatch.setattr(cli_mod, cls.__name__, counted(cls))
        assert main(argv.split()) == EXIT_OK
        assert (built["CompoundLabel"], built["MeasurementSpec"]) == (labels, specs)

    def test_each_subcommand_parser_is_built_once_per_process(self, capsys):
        cli_mod._build_parser.cache_clear()
        for argv in ("verify", "verify --seed 3", "bogus", "--version", "state --s 0 --M 0"):
            try:
                main(argv.split())
            except SystemExit:  # --version
                pass
        capsys.readouterr()
        # verify, state, and one for every argv that names no subcommand
        assert cli_mod._build_parser.cache_info().currsize == 3

    def test_a_reused_parser_keeps_no_tol_from_the_run_before(self, capsys):
        cli_mod._build_parser.cache_clear()
        argv = ["verify", "--tol", "chsh_extremum=10", "--tol", "kernel_unitarity=1e-9"]
        code, out = _run(capsys, argv)
        assert code == EXIT_OK
        relaxed = {r["check"]: r["tolerance"] for r in _json_lines(out)}
        assert (relaxed["chsh_extremum"], relaxed["kernel_unitarity"]) == (10.0, 1e-9)
        code, out = _run(capsys, ["verify"])
        assert code == EXIT_OK
        assert {r["check"]: r["tolerance"] for r in _json_lines(out)} == DEFAULT_TOLERANCES
        assert parse_config(["verify"]).inputs == {}

    def test_a_usage_error_leaves_the_parser_ready_for_a_valid_run(self, capsys):
        cli_mod._build_parser.cache_clear()
        argv = "expect --s 1 --M 0 --c1 0.3,0.2 --c2 1.2,2 --r1 2,-1".split()
        code, want = _run(capsys, argv)
        assert code == EXIT_OK
        for error in (["--grid", "x"], ["--bogus"], ["--s"]):
            assert main(argv + error) == EXIT_USAGE
            assert capsys.readouterr().err.count("\n") == 1
            code, out = _run(capsys, argv)
            assert code == EXIT_OK
            assert _strip_timestamps(out) == _strip_timestamps(want)

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pages pinned on 3.11")
    def test_help_pages_after_other_runs_are_unchanged(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        cli_mod._build_parser.cache_clear()
        for command in _COMMANDS:
            main(_argv_without(command, None))
        main(["verify", "--tol", "chsh_extremum=10"])
        main(["bogus"])
        capsys.readouterr()
        pages = [(["--help"], "spinpair")] + [([name, "--help"], name) for name in _COMMANDS]
        for argv, page in pages:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            captured = capsys.readouterr()
            assert exc.value.code == 0 and captured.err == ""
            assert captured.out == (_HELP_PAGES / f"{page}.txt").read_text(encoding="utf-8")

    def test_subcommands_in_alternating_order_print_what_they_print_alone(self, capsys):
        runs = [
            "state --s 1 --M -1 --a 0.4,1 --d 0.7,2.5 --format csv",
            "expect --s 1 --M 0 --c1 0.3,0.2 --c2 1.2,2 --grid 3 --seed 5",
            f"{_SCAN_C2} --start 0 --stop 3 --steps 4 --r1 2,-1",
            "probabilities --s 0 --M 0 --c1 0.3,0.2 --c2 1.2,2",
            "operator --c1 0.3,0.2 --c2 1.2,2 --d 0.7,2.5 --format csv",
            "verify --seed 2 --tol basis_invariance=1e-9",
        ]
        alone = {}
        for argv in runs:
            cli_mod._build_parser.cache_clear()
            alone[argv] = _run(capsys, argv.split())
        cli_mod._build_parser.cache_clear()
        for argv in runs + runs[::-1] + runs[::2] + runs[1::2]:
            code, out = _run(capsys, argv.split())
            want_code, want_out = alone[argv]
            assert code == want_code == EXIT_OK
            assert _strip_timestamps(out) == _strip_timestamps(want_out), argv


_GRID_BASE = "expect --s 1 --M 0 --a 0.4,1 --c1 0.3,0.2 --c2 1.2,2".split()


def _grid_4_seed_3() -> list[tuple[Direction, Direction]]:
    """The (d, f) pairs of ``_GRID_BASE`` with --grid 4 --seed 3, d major:
    d, then the rows of one default_rng(3).random((3, 2)) block as (theta,
    phi), each low + (high - low) * u over (0, pi) and (0, 2 pi); then f and
    the next such block."""
    rng, inputs = np.random.default_rng(3), parse_config(_GRID_BASE).inputs

    def directions(first):
        block = rng.random((3, 2)).tolist()
        return [first] + [
            Direction(0.0 + (math.pi - 0.0) * u, 0.0 + (2.0 * math.pi - 0.0) * v) for u, v in block
        ]

    ds, fs = directions(inputs["d"]), directions(inputs["f"])
    return [(d, f) for d in ds for f in fs]


class TestCommands:
    def test_state_standard_limit(self, capsys):
        code, out = _run(capsys, ["state", "--s", "1", "--M", "1"])
        assert code == EXIT_OK
        (record,) = _json_lines(out)
        assert record["tensor"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        assert record["norm_sq"] == pytest.approx(1.0, abs=1e-12)

    def test_expect_singlet_sixty_degrees(self, capsys):
        code, out = _run(
            capsys,
            "expect --s 0 --M 0 --c1 0,0 --c2 60deg,0 --r1 1,-1 --r2 1,-1".split(),
        )
        assert code == EXIT_OK
        (record,) = _json_lines(out)
        assert record["value_matrix_path"] == pytest.approx(-0.5, abs=1e-12)
        assert record["value_oracle_path"] == pytest.approx(-0.5, abs=1e-12)
        assert record["residual"] < 1e-12

    def test_expect_grid_reports_tiny_spread(self, capsys):
        code, out = _run(
            capsys,
            "expect --s 1 --M 0 --a 0.4,1.0 --c1 0.3,0.2 --c2 1.2,2.0 --grid 3 --seed 5".split(),
        )
        assert code == EXIT_OK
        (record,) = _json_lines(out)
        assert record["basis_invariance_residual"] < 1e-10

    def test_expect_grid_reports_the_seed_it_draws_with(self, capsys):
        argv = "expect --s 1 --M 0 --a 0.4,1.0 --c1 0.3,0.2 --c2 1.2,2.0 --grid 2".split()
        code, out = _run(capsys, argv)
        assert code == EXIT_OK
        (record,) = _json_lines(out)
        assert record["seed"] == 0
        _, seeded = _run(capsys, argv + ["--seed", "0"])
        assert _strip_timestamps(out) == _strip_timestamps(seeded)
        # --grid 1 draws nothing, so there is no seed to report
        _, single = _run(capsys, argv[:-1] + ["1"])
        assert _json_lines(single)[0]["seed"] is None

    def test_grid_draws_its_pairs_from_one_block_per_intermediate(self, capsys, monkeypatch):
        # the (d, f) pairs expect --grid 4 --seed 3 hands the matrix route,
        # each angle by float.hex
        seen, true_route = [], expectation_mod.expectation_matrix

        def angles(d, f):
            return tuple(x.hex() for x in (d.theta, d.phi, f.theta, f.phi))

        def recorded(label, spec, d, f):
            seen.append(angles(d, f))
            return true_route(label, spec, d, f)

        monkeypatch.setattr(expectation_mod, "expectation_matrix", recorded)
        code, _ = _run(capsys, _GRID_BASE + "--grid 4 --seed 3".split())
        assert code == EXIT_OK
        assert seen == [angles(d, f) for d, f in _grid_4_seed_3()]

    def test_grid_pairs_carry_the_bits_of_single_pairs(self, capsys):
        # expect --grid 4 evaluates 16 (d, f) pairs in one run; run one at a
        # time with --d and --f, the pairs give the grid record's spread and
        # first value, bit for bit
        code, out = _run(capsys, _GRID_BASE + "--grid 4 --seed 3".split())
        assert code == EXIT_OK
        (record,) = _json_lines(out)
        values = []
        for d, f in _grid_4_seed_3():
            at = ["--d", f"{d.theta!r},{d.phi!r}", "--f", f"{f.theta!r},{f.phi!r}"]
            code, out = _run(capsys, _GRID_BASE + at)
            assert code == EXIT_OK
            values.append(_json_lines(out)[0]["value_matrix_path"])
        assert len(values) == 16
        assert record["basis_invariance_residual"] == max(values) - min(values)
        assert record["value_matrix_path"] == values[0]

    def test_probabilities_roundtrip_csv(self, capsys):
        code, out = _run(
            capsys,
            "probabilities --s 0 --M 0 --c1 0,0 --c2 60deg,0 --format csv".split(),
        )
        assert code == EXIT_OK
        (row,) = _csv_rows(out)
        assert float(row["probabilities_0"]) == pytest.approx(0.125, abs=1e-12)
        assert float(row["probabilities_1"]) == pytest.approx(0.375, abs=1e-12)
        assert float(row["prob_sum"]) == pytest.approx(1.0, abs=1e-12)

    def test_operator_csv_splits_complex_columns(self, capsys):
        code, out = _run(
            capsys, "operator --c1 90deg,0 --c2 45deg,90deg --format csv".split()
        )
        assert code == EXIT_OK
        (row,) = _csv_rows(out)
        assert float(row["r1_01_re"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["r2_01_im"]) == pytest.approx(
            -math.sin(math.pi / 4), abs=1e-12
        )

    def test_json_floats_roundtrip_exactly(self, capsys):
        code, out = _run(
            capsys, "expect --s 1 --M -1 --a 0.7,0.3 --c1 0.9,1.1 --c2 2.2,0.5".split()
        )
        assert code == EXIT_OK
        (record,) = _json_lines(out)
        from spinpair import CompoundLabel, MeasurementSpec, OutcomeValues

        label = CompoundLabel(1, -1, Direction(0.7, 0.3))
        spec = MeasurementSpec(
            Direction(0.9, 1.1),
            Direction(2.2, 0.5),
            OutcomeValues(1, -1),
            OutcomeValues(1, -1),
        )
        assert record["value_matrix_path"] == expectation_matrix(label, spec)

    def test_scan_tracks_the_cosine_curve(self, capsys):
        code, out = _run(
            capsys,
            (
                "scan --s 0 --M 0 --c1 0,0 --c2 0,0 --param c2.theta "
                "--start 0 --stop 180deg --steps 181 --format csv"
            ).split(),
        )
        assert code == EXIT_OK
        rows = _csv_rows(out)
        assert len(rows) == 181
        for row in rows:
            theta = float(row["value"])
            assert float(row["value_matrix_path"]) == pytest.approx(
                -math.cos(theta), abs=1e-10
            )

    def test_scan_json_stream_has_one_record_per_point(self, capsys):
        code, out = _run(
            capsys,
            "scan --s 1 --M 1 --c1 0,0 --c2 0,0 --param a.theta --start 0 --stop 3 --steps 7".split(),
        )
        assert code == EXIT_OK
        records = _json_lines(out)
        assert len(records) == 7
        assert [r["param"] for r in records] == ["a.theta"] * 7

    def test_signed_zeros_print_as_zeros(self, capsys):
        # angles, and outcome values
        cases = (
            ("state --s 1 --M -1 --a {0} --d {0} --f 0.3,0.2", ("-0,0", "0,-0", "-360deg,0", "0,0")),
            ("operator --c1 0,0 --c2 1,0 --r1 {0}", ("-0,0.5", "0,0.5")),
        )
        for command, zeros in cases:
            outs = set()
            for zero in zeros:
                code, out = _run(capsys, command.format(zero).split())
                assert code == EXIT_OK
                outs.add(_strip_timestamps(out))
            assert len(outs) == 1 and "-0.0" not in outs.pop()

    @pytest.mark.parametrize("param", ["a.theta", "c1.phi", "d.theta"])
    def test_scan_records_echo_the_swept_direction(self, capsys, param):
        inputs = (
            "--s 1 --M 0 --a 0.4,1.0 --d 0.7,2.5 --f 1.1,0.3 --c1 0.3,0.2 --c2 1.2,2.0 "
            "--r1 2,-1 --r2 1,0.5"
        )
        _, fixed = _run(capsys, f"expect {inputs}".split())
        (base,) = _json_lines(fixed)
        # -1 to 7 takes theta below 0 and above pi, and phi past 0 and 2 pi
        argv = f"scan {inputs} --param {param} --start -1 --stop 7 --steps 9".split()
        code, out = _run(capsys, argv)
        assert code == EXIT_OK
        name, _, angle = param.partition(".")
        swept = (f"{name}_theta", f"{name}_phi")
        given = Direction(*(base[key] for key in swept))
        records = _json_lines(out)
        assert len(records) == 9
        for record in records:
            want = dataclasses.replace(given, **{angle: record["value"]})
            assert tuple(record[key] for key in swept) == (want.theta, want.phi)
            for key in f"{_ECHO_LABEL} {_ECHO_DF} {_ECHO_SPEC}".split():
                assert key in swept or record[key] == base[key]
        assert len({tuple(r[key] for key in swept) for r in records}) == 9

    def test_a_direction_echoes_its_two_angles_once_its_rows_are_kept(self):
        argv = "expect --s 1 --M 0 --a 0.4,1 --c1 0.3,0.2 --c2 1.2,2 --d 0.7,2.5 --f 2,3"
        config = parse_config(argv.split())
        before = json.dumps(cli_mod._echo(config))
        for name in ("a", "c1", "c2", "d", "f"):
            direction = config.inputs[name]
            kernels_mod.xi_half(Z_AXIS, direction)
            kernels_mod.zeta_spin1(0, direction)
        echo = cli_mod._echo(config)
        assert json.dumps(echo) == before
        keys = f"{_ECHO_LABEL} {_ECHO_DF} {_ECHO_SPEC}".split()
        assert [key for key in echo if key != "grid"] == keys


_ECHO_LABEL = "s M a_theta a_phi"
_ECHO_DF = "d_theta d_phi f_theta f_phi"
_ECHO_SPEC = "c1_theta c1_phi c2_theta c2_phi r1_plus r1_minus r2_plus r2_minus"
_ROUTES = "value_matrix_path value_oracle_path residual basis_invariance_residual"
_META = "version seed timestamp"
_P4 = "probabilities_0 probabilities_1 probabilities_2 probabilities_3"


def _cplx(prefix, suffixes):
    return " ".join(f"{prefix}_{s}_{part}" for s in suffixes.split() for part in ("re", "im"))


# The record schema of each subcommand: JSON keys in order and the CSV header.
# Keys only, so last-bit changes in the numbers do not break it.
_SCHEMAS = [
    (
        "state --s 1 --M 0",
        f"command {_ECHO_LABEL} {_ECHO_DF} coefficients tensor norm_sq {_META}",
        f"command {_ECHO_LABEL} {_ECHO_DF} {_cplx('coefficients', '0 1 2 3')} "
        f"{_cplx('tensor', '0 1 2 3')} norm_sq {_META}",
    ),
    (
        "operator --c1 0,0 --c2 1,0",
        f"command {_ECHO_DF} {_ECHO_SPEC} r1 r2 {_META}",
        f"command {_ECHO_DF} {_ECHO_SPEC} {_cplx('r1', '00 01 10 11')} "
        f"{_cplx('r2', '00 01 10 11')} {_META}",
    ),
    (
        "probabilities --s 0 --M 0 --c1 0,0 --c2 1,0",
        f"command {_ECHO_LABEL} c1_theta c1_phi c2_theta c2_phi probabilities prob_sum {_META}",
        f"command {_ECHO_LABEL} c1_theta c1_phi c2_theta c2_phi {_P4} prob_sum {_META}",
    ),
    (
        "expect --s 0 --M 0 --c1 0,0 --c2 1,0",
        f"command {_ECHO_LABEL} {_ECHO_DF} {_ECHO_SPEC} grid {_ROUTES} probabilities {_META}",
        f"command {_ECHO_LABEL} {_ECHO_DF} {_ECHO_SPEC} grid {_ROUTES} {_P4} {_META}",
    ),
    (
        "verify --seed 7",
        f"command check samples max_residual tolerance passed {_META}",
        f"command check samples max_residual tolerance passed {_META}",
    ),
    (
        "scan --s 0 --M 0 --c1 0,0 --c2 0,0 --param c2.theta --start 0 --stop 1 --steps 2",
        f"command param value {_ECHO_LABEL} {_ECHO_DF} {_ECHO_SPEC} {_ROUTES} probabilities {_META}",
        f"command param value {_ECHO_LABEL} {_ECHO_DF} {_ECHO_SPEC} {_ROUTES} {_P4} {_META}",
    ),
]


@pytest.mark.parametrize(
    "argv, json_keys, csv_header", _SCHEMAS, ids=[row[0].split()[0] for row in _SCHEMAS]
)
def test_record_schema(capsys, argv, json_keys, csv_header):
    code, out = _run(capsys, argv.split())
    assert code == EXIT_OK
    assert {" ".join(record) for record in _json_lines(out)} == {json_keys}
    code, out = _run(capsys, argv.split() + ["--format", "csv"])
    assert code == EXIT_OK
    assert out.splitlines()[0] == csv_header.replace(" ", ",")


_SWEEP_PARAMS = [f"{obj}.{f}" for obj in ("a", "c1", "c2", "d", "f") for f in ("theta", "phi")]
_LABELS = [(1, 1), (1, 0), (1, -1), (0, 0)]
_ECHOED_PAIRS = [(name, "theta", "phi") for name in ("a", "d", "f", "c1", "c2")] + [
    (name, "plus", "minus") for name in ("r1", "r2")
]
_SCAN_INPUTS = (
    "--a 0.4,1.0 --d 0.7,2.5 --f 1.1,0.3 --c1 0.3,0.2 --c2 1.2,2.0 --r1 2,-1 --r2 1,0.5"
)


@pytest.mark.parametrize("s, M", _LABELS, ids=[f"{s}{M}" for s, M in _LABELS])
@pytest.mark.parametrize("param", _SWEEP_PARAMS)
def test_each_scan_point_reports_what_expect_reports_there(capsys, param, s, M):
    # scan builds each point from its swept direction and the one object
    # that holds it, and reports both routes there through the call expect
    # makes; expect --grid 1 builds everything anew from the inputs the scan
    # record echoes, so both print the same text (repr, so every bit and the
    # sign of a zero) in JSON and in CSV
    argv = f"scan --s {s} --M {M} {_SCAN_INPUTS} --param {param} --start -1 --stop 7 --steps 5"
    for output_format, parse, results in (
        ("json", _json_lines, ["probabilities"]),
        ("csv", _csv_rows, _P4.split()),
    ):
        code, out = _run(capsys, argv.split() + [f"--format={output_format}"])
        assert code == EXIT_OK
        records = parse(out)
        assert len(records) == 5
        for record in records:
            flags = [f"--s={s}", f"--M={M}", f"--format={output_format}"] + [
                f"--{name}={record[f'{name}_{first}']},{record[f'{name}_{second}']}"
                for name, first, second in _ECHOED_PAIRS
            ]
            code, out = _run(capsys, ["expect"] + flags)
            assert code == EXIT_OK
            (want,) = parse(out)
            for key in _ROUTES.split() + results:
                assert repr(record[key]) == repr(want[key]), key


def test_scan_reads_the_public_matrix_route_at_each_point(capsys, monkeypatch):
    # a matrix route 1e-6 off wherever c1.theta passes 1 shows in the
    # residual of exactly the points past it
    true_route = expectation_mod.expectation_matrix

    def shifted(label, spec, d, f):
        return true_route(label, spec, d, f) + (1e-6 if spec.c1.theta > 1 else 0.0)

    monkeypatch.setattr(expectation_mod, "expectation_matrix", shifted)
    argv = "scan --s 1 --M 0 --c1 0,0.2 --c2 0.5,2 --param c1.theta --start 0 --stop 2 --steps 9"
    code, out = _run(capsys, argv.split())
    assert code == EXIT_OK
    records = _json_lines(out)
    assert [r["value"] > 1 for r in records] == [False] * 5 + [True] * 4
    residuals = [r["residual"] for r in records]
    assert residuals[:5] == pytest.approx([0.0] * 5, abs=1e-12)
    assert residuals[5:] == pytest.approx([1e-6] * 4, abs=1e-12)


@pytest.mark.parametrize("s, M", _LABELS, ids=[f"{s}{M}" for s, M in _LABELS])
def test_a_grid_op_evaluates_the_coupling_row_once(capsys, monkeypatch, s, M):
    # the label of expect --grid 10 keeps its chi row, so 100 (d, f)
    # pairs of the matrix route read one evaluation of it
    calls = []
    true_row = kernels_mod._chi_row

    def counted(label):
        calls.append(label)
        return true_row(label)

    monkeypatch.setattr(kernels_mod, "_chi_row", counted)
    argv = f"expect --s {s} --M {M} --a 0.4,1 --c1 0.3,0.2 --c2 1.2,2 --grid 10 --seed 3"
    code, out = _run(capsys, argv.split())
    assert code == EXIT_OK
    assert len(_json_lines(out)) == 1
    assert len(calls) == 1


def _json_cells(record, complex_keys):
    """The CSV cells a JSON record stands for: a complex number is an
    [re, im] pair, and only ``complex_keys`` hold complex values."""
    cells = {}
    for key, value in record.items():
        if key in complex_keys:
            parts = np.array(value)
            for index in np.ndindex(parts.shape[:-1]):
                column = f"{key}_{''.join(map(str, index))}"
                re_part, im_part = parts[index].tolist()
                cells.update({f"{column}_re": repr(re_part), f"{column}_im": repr(im_part)})
        elif isinstance(value, list):
            cells.update({f"{key}_{i}": repr(v) for i, v in enumerate(value)})
        elif isinstance(value, bool):
            cells[key] = "true" if value else "false"
        elif isinstance(value, float):
            cells[key] = repr(value)
        else:
            cells[key] = "" if value is None else str(value)
    return cells


# A 9-step scan of each param: where the swept pair sits in the echo differs.
_SCANS_OF_EACH_PARAM = [
    (f"scan --s 1 --M 1 {_SCAN_INPUTS} --param {param} --start -2 --stop 5 --steps 9", ())
    for param in cli_mod._SWEEP_PARAMS
]


@pytest.mark.parametrize(
    "argv, complex_keys",
    [
        (f"scan --s 1 --M 0 {_SCAN_INPUTS} --param a.theta --start -1 --stop 7 --steps 4", ()),
        ("state --s 1 --M -1 --a 0.4,1.0 --d 0.7,2.5 --f 1.1,0.3", ("coefficients", "tensor")),
        ("operator --d 0.7,2.5 --f 1.1,0.3 --c1 0.3,0.2 --c2 1.2,2.0 --r1 2,-1", ("r1", "r2")),
        ("probabilities --s 1 --M 0 --a 0.4,1.0 --c1 0.3,0.2 --c2 1.2,2.0", ()),
        (f"expect --s 0 --M 0 {_SCAN_INPUTS} --grid 3", ()),
        ("verify --seed 0", ()),
        *_SCANS_OF_EACH_PARAM,
    ],
    ids=[
        "scan", "state", "operator", "probabilities", "expect-grid", "verify",
        *(f"scan-{param}" for param in cli_mod._SWEEP_PARAMS),
    ],
)
def test_csv_and_json_agree_cell_for_cell(capsys, argv, complex_keys):
    _, json_out = _run(capsys, argv.split())
    _, csv_out = _run(capsys, argv.split() + ["--format", "csv"])
    want = [_json_cells(record, complex_keys) for record in _json_lines(json_out)]
    got = _csv_rows(csv_out)
    assert len(got) == len(want) > 0
    for row, cells in zip(got, want):
        del row["timestamp"], cells["timestamp"]
        assert list(row.items()) == list(cells.items())


@pytest.mark.parametrize(
    "second",
    [{"a": 2.0, "c": 3.0}, {"b": 1, "a": 2.0}, {"a": 1.0, "b": [1, 2]}, {"a": 1.0, "b": 1j}],
    ids=["renamed", "reordered", "list", "complex"],
)
def test_a_csv_stream_with_a_changed_schema_is_refused(second):
    with pytest.raises(ValueError, match="share a schema"):
        emit_records([{"a": 1.0, "b": 2}, second], "csv", io.StringIO())


# The encoders emit_records replaced, one record at a time: the reference for
# its bytes.


def _reference_json(records, out):
    def default(value):
        if isinstance(value, complex):
            return [value.real, value.imag]
        raise TypeError(f"cannot encode {type(value).__name__} as JSON")

    encode = json.JSONEncoder(separators=(",", ":"), default=default).encode
    for record in records:
        out.write(encode(record) + "\n")


_REFERENCE_CELL_TEXT = {
    float: float.__repr__,
    int: int.__repr__,
    str: str,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "",
}


def _reference_flatten(record):
    keys, cells = [], []
    for key, value in record.items():
        text = _REFERENCE_CELL_TEXT.get(type(value))
        if text is not None:
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
                cells.append(_REFERENCE_CELL_TEXT.get(type(v), str)(v))
    return keys, cells


def _reference_csv(records, out):
    writer = csv.writer(out, lineterminator="\n")
    header = None
    for record in records:
        keys, cells = _reference_flatten(record)
        if header is None:
            header = keys
            writer.writerow(header)
        elif keys != header:
            raise ValueError("records in one CSV stream must share a schema")
        writer.writerow(cells)


# Strings a CSV cell must quote, or must not: commas, quotes, line breaks,
# leading spaces, nothing at all; and a character JSON escapes.
_CELL_STRINGS = st.text(alphabet=',"\r\n a_é', max_size=4)
_SCALARS = st.one_of(
    st.floats(),  # with -0.0, NaN and both infinities
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    _CELL_STRINGS,
    st.complex_numbers(),
)
_FIELD_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.lists(st.lists(_SCALARS, max_size=3), min_size=1, max_size=2),
)


def _twin(value):
    """``value`` again as another object, where Python makes one."""
    if type(value) is float:
        return struct.unpack("d", struct.pack("d", value))[0]
    if type(value) is int:
        return int(str(value))
    if type(value) is str:
        return (value + ".")[:-1]
    if type(value) is complex:
        return complex(value.real, value.imag)
    return copy.deepcopy(value)  # True, False and None are the only objects of their value


def _cast(value):
    """An equal value of another type where there is one: 1 for 1.0 or
    True, 1.0 for 1."""
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) in (int, bool) and abs(value) < 2**53:
        return float(value)
    return value


@st.composite
def _streams(draw):
    """Records that share a key order, now and then reordered, and the lists
    to write into a field's list in place just before a record is read.
    Each field after the first record holds the very object of the record
    before, an equal other object, an equal value of another type, or a new
    value."""
    keys = draw(st.lists(_CELL_STRINGS, min_size=1, max_size=5, unique=True))
    previous = {key: draw(_FIELD_VALUES) for key in keys}
    records, edits = [previous], {}
    for index in range(1, draw(st.integers(1, 6))):
        order = draw(st.one_of(st.just(keys), st.permutations(keys)))
        record = {}
        for key in order:
            how = draw(st.sampled_from(["same", "twin", "cast", "new"]))
            if how == "new":
                record[key] = draw(_FIELD_VALUES)
                continue
            record[key] = {"same": lambda v: v, "twin": _twin, "cast": _cast}[how](previous[key])
            if how == "same" and type(record[key]) is list and draw(st.booleans()):
                edits.setdefault(index, []).append((key, draw(st.lists(_SCALARS, max_size=3))))
        records.append(record)
        previous = record
    return records, edits


def _replay(records, edits):
    """The stream, with its in-place edits, on copies of its lists."""
    for index, record in enumerate(copy.deepcopy(records)):
        for key, items in edits.get(index, ()):
            record[key][:] = items
        yield record


# A list changed in place, a zero that changes sign, and a cell with a comma,
# in the third record: a JSON stream plans its line on the second.
_EDITED = [0.5, 0.25]
_EDITED_STREAM = (
    [{"p": _EDITED, "z": 0.0, "s": "a,b"}] * 2 + [{"p": _EDITED, "z": -0.0, "s": "a,b"}],
    {2: [("p", [0.75, 1.5])]},
)


@settings(max_examples=300, deadline=None)
@given(stream=_streams(), output_format=st.sampled_from(["json", "csv"]))
@example(stream=_EDITED_STREAM, output_format="json")
@example(stream=_EDITED_STREAM, output_format="csv")
def test_emit_records_writes_the_bytes_of_encoding_each_record_alone(stream, output_format):
    reference = {"json": _reference_json, "csv": _reference_csv}[output_format]
    want, got = io.StringIO(), io.StringIO()
    want_error = got_error = None
    try:
        reference(_replay(*stream), want)
    except ValueError as exc:
        want_error = str(exc)
    try:
        emit_records(_replay(*stream), output_format, got)
    except ValueError as exc:
        got_error = str(exc)
    assert got.getvalue() == want.getvalue()
    assert got_error == want_error


class TestExitContract:
    def test_verify_passes_cleanly(self, capsys):
        code, out = _run(capsys, ["verify", "--seed", "42"])
        assert code == EXIT_OK
        records = _json_lines(out)
        assert all(r["passed"] for r in records)

    def test_verify_spots_a_corrupted_kernel(self, capsys, monkeypatch):
        true_kernel = kernels_mod.xi_half

        def corrupted(initial, final):
            x = true_kernel(initial, final).copy()
            x[..., 0, 1] = -x[..., 0, 1]
            return x

        monkeypatch.setattr(kernels_mod, "xi_half", corrupted)
        code, out = _run(capsys, ["verify", "--seed", "42"])
        assert code == EXIT_VERIFY
        assert any(not r["passed"] for r in _json_lines(out))

    def test_relaxed_tolerance_can_mask_a_failure(self, capsys, monkeypatch):
        # the override plumbing is honored check by check
        code, out = _run(capsys, ["verify", "--seed", "42", "--tol", "chsh_extremum=10"])
        assert code == EXIT_OK
        (record,) = [r for r in _json_lines(out) if r["check"] == "chsh_extremum"]
        assert record["tolerance"] == 10.0

    def test_internal_consistency_exits_three(self, capsys, monkeypatch):
        def broken_pair(spec, d, f):
            return np.array([[1.0j, 0.0], [0.0, 0.0]]), np.eye(2)

        inject_blocks(monkeypatch, broken_pair)
        code = main("expect --s 0 --M 0 --c1 0.4,0 --c2 1.3,0.8".split())
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        (record,) = _json_lines(captured.out)
        assert record["error"] == "internal-consistency"

    def test_internal_consistency_in_a_verify_worker_exits_three(self, capsys, monkeypatch):
        def broken_pair(spec, d, f):
            return np.array([[1.0j, 0.0], [0.0, 0.0]]), np.eye(2)

        inject_blocks(monkeypatch, broken_pair)
        code = main(["verify", "--seed", "4"])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        (record,) = _json_lines(captured.out)
        assert (record["command"], record["error"]) == ("verify", "internal-consistency")

    def test_internal_consistency_record_reports_the_grid_seed(self, capsys, monkeypatch):
        def broken_pair(spec, d, f):
            return np.array([[1.0j, 0.0], [0.0, 0.0]]), np.eye(2)

        inject_blocks(monkeypatch, broken_pair)
        code = main("expect --s 0 --M 0 --c1 0.4,0 --c2 1.3,0.8 --grid 2".split())
        assert code == EXIT_INTERNAL
        (record,) = _json_lines(capsys.readouterr().out)
        assert (record["error"], record["seed"]) == ("internal-consistency", 0)

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    @pytest.mark.parametrize("fault", ["doubled", "nan"])
    def test_a_report_the_routes_break_exits_three(
        self, capsys, monkeypatch, fault, output_format
    ):
        # Doubled amplitudes put the probabilities out of range and a NaN one
        # makes them NaN. The report refuses both, so the run writes its
        # internal-consistency record, not a traceback or NaN, which is not JSON.
        true_kernel = expectation_mod.xi_half

        def broken(initial, final):
            x = 2.0 * true_kernel(initial, final)
            if fault == "nan":
                x[..., 0, 0] = math.nan
            return x

        monkeypatch.setattr(expectation_mod, "xi_half", broken)
        argv = "expect --s 1 --M 0 --c1 0.3,0.2 --c2 1.2,2 --format".split() + [output_format]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        (line,) = captured.err.splitlines()
        assert line.startswith("internal consistency violation: expectation report: ")
        if output_format == "json":
            (text,) = captured.out.splitlines()
            record = json.loads(text, parse_constant=_refuse)
        else:
            (record,) = _csv_rows(captured.out)
        assert (record["command"], record["error"]) == ("expect", "internal-consistency")

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    @pytest.mark.parametrize("fault", ["imaginary", "nan"])
    def test_a_route_failing_mid_sweep_ends_the_scan_with_exit_three(
        self, capsys, monkeypatch, fault, output_format
    ):
        # The sweep takes c1.theta from 0 to 2; past 1 the matrix route's
        # blocks gain an imaginary residue, or the oracle route's amplitudes
        # a NaN, which the report refuses. Either way the run prints its
        # internal-consistency record alone, with no NaN and no scan record.
        true_pair, true_kernel = operators_mod.operator_pair, expectation_mod.xi_half

        def broken_pair(spec, d, f):
            r1, r2 = true_pair(spec, d, f)
            past = np.asarray(spec.c1.theta) > 1.0
            return r1 * np.where(past, 1 + 1e-3j, 1)[..., None, None], r2

        def broken_kernel(initial, final):
            x = true_kernel(initial, final)
            x[..., 0, 0] = np.where(np.asarray(final.theta) > 1.0, math.nan, x[..., 0, 0])
            return x

        if fault == "imaginary":
            inject_blocks(monkeypatch, broken_pair)
            message = "expectation value has imaginary part "
        else:
            monkeypatch.setattr(expectation_mod, "xi_half", broken_kernel)
            message = "expectation report: "
        def failed(command, c1, more=""):
            # outcome values all positive: the value, and so its residue, is never 0
            argv = f"{command} --s 1 --M 0 --c1 {c1} --c2 0.5,2 --r1 2,1 --r2 2,1 {more}"
            code = main(argv.split() + ["--format", output_format])
            captured = capsys.readouterr()
            assert code == EXIT_INTERNAL
            (line,) = captured.err.splitlines()
            assert line.startswith(f"internal consistency violation: {message}")
            if output_format == "json":
                (text,) = captured.out.splitlines()
                record = json.loads(text, parse_constant=_refuse)
            else:
                (record,) = _csv_rows(captured.out)
            assert (record["command"], record["error"]) == (command, "internal-consistency")
            assert record["detail"] == line.removeprefix("internal consistency violation: ")
            return record["detail"]

        sweep = "--param c1.theta --start 0 --stop 2 --steps 9"
        # the scan ends at its first failing point, c1.theta = 1.25, with
        # what expect reports there alone
        assert failed("scan", "0,0.2", sweep) == failed("expect", "1.25,0.2")

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv, module, name, field",
        [
            ("state --s 1 --M 0 --a 0.4,1 --d 0.7,2.5", states_mod, "_eta_rows", "tensor"),
            ("operator --c1 0.3,0.2 --c2 1.2,2 --d 0.7,2.5", operators_mod, "_xi_entries", "r1"),
            ("probabilities --s 1 --M 0 --c1 0.3,0.2 --c2 1.2,2", expectation_mod, "xi_half",
             "probabilities"),
        ],
        ids=["state", "operator", "probabilities"],
    )
    def test_a_non_finite_result_exits_three(
        self, capsys, monkeypatch, argv, module, name, field, output_format
    ):
        # These records pass through no report; a NaN in them is refused
        # before anything is printed, as NaN is not JSON.
        true_kernel = getattr(module, name)

        def nan_first_entry(*directions):
            x = true_kernel(*directions)
            if isinstance(x, (list, tuple)):
                return [math.nan, *x[1:]]
            x[..., 0, 0] = math.nan
            return x

        monkeypatch.setattr(module, name, nan_first_entry)
        code = main(argv.split() + ["--format", output_format])
        captured = capsys.readouterr()
        assert code == EXIT_INTERNAL
        (line,) = captured.err.splitlines()
        assert line.startswith(f"internal consistency violation: {field} is not finite: ")
        if output_format == "json":
            (text,) = captured.out.splitlines()
            record = json.loads(text, parse_constant=_refuse)
        else:
            (record,) = _csv_rows(captured.out)
        command = argv.split()[0]
        assert (record["command"], record["error"]) == (command, "internal-consistency")

    def test_a_fault_in_one_run_does_not_outlive_it(self, capsys, monkeypatch):
        # one process may make many runs (perfbench makes all its ops in
        # one), so nothing a run keeps may reach the next one
        argv = "expect --s 1 --M -1 --a 0.4,1 --c1 0.3,0.2 --c2 1.2,2 --d 0.7,2.5 --f 2,3"
        argv = argv.split() + ["--grid", "3"]
        code, intact = _run(capsys, argv)
        assert code == EXIT_OK
        true_entries = kernels_mod._xi_entries

        def nan_first_entry(initial, final):
            return [math.nan, *true_entries(initial, final)[1:]]

        with monkeypatch.context() as patch:
            patch.setattr(kernels_mod, "_xi_entries", nan_first_entry)
            assert _run(capsys, argv)[0] == EXIT_INTERNAL
        code, out = _run(capsys, argv)
        assert code == EXIT_OK
        assert _strip_timestamps(out) == _strip_timestamps(intact)

    def test_a_fault_in_one_verify_run_does_not_outlive_it(self, capsys, monkeypatch):
        # verify's batches keep their rows (see kernels) and die with their
        # check, so the rows made under a fault reach no later run
        argv = ["verify", "--seed", "0"]
        code, intact = _run(capsys, argv)
        assert code == EXIT_OK
        true_entries = kernels_mod._zeta_entries

        def nan_first_entry(M, a):
            entries = true_entries(M, a)
            return [math.nan * entries[0], *entries[1:]]  # a point's or a batch's NaN

        with monkeypatch.context() as patch:
            patch.setattr(kernels_mod, "_zeta_entries", nan_first_entry)
            assert _run(capsys, argv)[0] == EXIT_VERIFY
        code, out = _run(capsys, argv)
        assert code == EXIT_OK
        assert _strip_timestamps(out) == _strip_timestamps(intact)

    @pytest.mark.parametrize("output_format", ["json", "csv"])
    def test_a_nan_residual_fails_its_check_and_prints_as_null(
        self, capsys, monkeypatch, output_format
    ):
        true_kernel = kernels_mod.xi_half

        def nan_first_entry(initial, final):
            x = true_kernel(initial, final)
            x[..., 0, 0] = math.nan
            return x

        monkeypatch.setattr(kernels_mod, "xi_half", nan_first_entry)
        code, out = _run(capsys, ["verify", "--seed", "42", "--format", output_format])
        assert code == EXIT_VERIFY
        if output_format == "json":
            records = [json.loads(line, parse_constant=_refuse) for line in out.splitlines()]
            null = None
        else:
            records = _csv_rows(out)
            null = ""
        assert len(records) == len(DEFAULT_TOLERANCES)
        failed = {r["check"] for r in records if r["passed"] in (False, "false")}
        non_finite = {r["check"] for r in records if r["max_residual"] == null}
        assert non_finite and non_finite <= failed

    def test_large_outcome_values_pass_the_imaginary_guard(self, capsys):
        # rounding leaves an imaginary part near 1.5e-11 here, which the
        # absolute 1e-12 bound took for an internal-consistency failure
        code, out = _run(
            capsys,
            "expect --s 1 --M 0 --a 0.3,0.4 --c1 0.7,1.1 --c2 1,2 --d 0.4,0.5 --f 2,3 "
            "--r1 1e3,-1e3 --r2 1e3,0.5 --grid 5".split(),
        )
        assert code == EXIT_OK
        (record,) = _json_lines(out)
        assert record["residual"] < 1e-10 * 1e6  # |matrix - oracle|
        assert record["basis_invariance_residual"] < 1e-10 * 1e6

    def test_closed_stdout_ends_quietly_with_the_computed_code(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main("expect --s 0 --M 0 --c1 0,0 --c2 1,0".split()) == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_closed_stdout_keeps_the_verify_failure_code(self, capsys, monkeypatch):
        # every record is built before the first write fails
        true_kernel = kernels_mod.xi_half
        monkeypatch.setattr(kernels_mod, "xi_half", lambda i, f: 2.0 * true_kernel(i, f))
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["verify", "--seed", "3"]) == EXIT_VERIFY
        assert "FAILED: kernel_unitarity" in capsys.readouterr().err

    def test_identical_seeds_give_identical_payloads(self, capsys):
        _, first = _run(capsys, ["verify", "--seed", "7"])
        _, second = _run(capsys, ["verify", "--seed", "7"])
        assert _strip_timestamps(first) == _strip_timestamps(second)
        _, third = _run(capsys, ["verify", "--seed", "8"])
        assert _strip_timestamps(first) != _strip_timestamps(third)

    def test_determinism_holds_in_csv_too(self, capsys):
        argv = "expect --s 1 --M 0 --c1 0.5,0.5 --c2 1.5,2.5 --grid 2 --seed 3 --format csv".split()
        _, first = _run(capsys, argv)
        _, second = _run(capsys, argv)
        assert _strip_timestamps(first) == _strip_timestamps(second)


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def _numpy_dispatch_targets() -> str:
    """Every SIMD target this NumPy may dispatch to at run time, space
    separated, as NPY_DISABLE_CPU_FEATURES takes them."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # NumPy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return " ".join(__cpu_dispatch__)


# The variables that put NumPy, and on x86-64 OpenBLAS, on baseline arithmetic.
# OpenBLAS warns on stderr of a core type its build for this machine lacks.
_BASELINE_ARITHMETIC = ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def _baseline_arithmetic_env() -> dict[str, str]:
    env = {"NPY_DISABLE_CPU_FEATURES": _numpy_dispatch_targets()}
    if platform.machine().lower() in ("x86_64", "amd64"):
        env["OPENBLAS_CORETYPE"] = "Prescott"
    return env


class TestSubprocess:
    @pytest.mark.parametrize(
        "argv",
        [
            # an input whose norm_sq a BLAS dot product rounds by the CPU
            "state --s 1 --M 1 --a 2.95,1.51 --d 0.17,2.6 --f 2.3,3.01",
            "operator --d 0.7,2.5 --f 1.1,0.3 --c1 0.3,0.2 --c2 1.2,2 --r1 2,-1 --r2 0.4,-3",
            "probabilities --s 1 --M -1 --a 0.4,1 --c1 0.3,0.2 --c2 1.2,2",
            "expect --s 1 --M 0 --a 0.4,1 --c1 0.3,0.2 --c2 1.2,2 --grid 4 --seed 3",
            "scan --s 1 --M -1 --a 0.4,1 --c1 0.3,0.2 --c2 1.2,2 --d 0.7,2.5 --f 1.1,0.3"
            " --param c2.theta --start 0 --stop 180deg --steps 181",
            "verify --seed 42",
        ],
        ids=["state", "operator", "probabilities", "expect-grid", "scan", "verify"],
    )
    def test_stdout_does_not_depend_on_numpy_simd_targets(self, argv):
        # With NumPy's dispatched SIMD loops and OpenBLAS's tuned kernels
        # switched off, NumPy may round a complex product or a dot product
        # differently; the records must not change.
        env = {k: v for k, v in os.environ.items() if k not in _BASELINE_ARITHMETIC}
        # stderr holds nothing but verify's summary line
        summary = "21/21 checks passed (seed=42)\n" if argv.startswith("verify") else ""
        outputs = []
        for extra in ({}, _baseline_arithmetic_env()):
            proc = subprocess.run(
                [sys.executable, "-m", "spinpair", *argv.split()],
                env={**env, **extra},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert (proc.returncode, proc.stderr) == (EXIT_OK, summary)
            outputs.append(_strip_timestamps(proc.stdout))
        assert outputs[0] == outputs[1]

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spinpair", "verify", "--seed", "7"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "checks passed" in proc.stderr

    @pytest.mark.parametrize(
        "argv, code",
        [
            ("expect --s 0 --M 0 --c1 0,0 --c2 60deg,0", EXIT_OK),
            ("expect --s 0", EXIT_USAGE),
            ("verify --seed 1 --tol kernel_unitarity=1e-30", EXIT_VERIFY),
        ],
        ids=["ok", "usage", "verify"],
    )
    def test_the_console_script_exits_with_what_main_returns(self, capsys, argv, code):
        # the wrapper an installer writes for [project.scripts]: sys.exit(entry())
        pyproject = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
        module, attr = re.search(r'^spinpair = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
        wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, *argv.split()],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert main(argv.split()) == code
        captured = capsys.readouterr()
        assert (proc.returncode, proc.stderr) == (code, captured.err)
        assert _strip_timestamps(proc.stdout) == _strip_timestamps(captured.out)

    def test_usage_error_status(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spinpair", "expect", "--s", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1

    def test_closed_pipe_prints_no_traceback(self):
        argv = "scan --s 1 --M 0 --c1 0,0 --c2 1,0 --param c2.theta --start 0 --stop 3"
        proc = subprocess.Popen(
            [sys.executable, "-m", "spinpair", *argv.split(), "--steps", "500"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()  # the reader leaves before the first record
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_OK
        assert err == b""
