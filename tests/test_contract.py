"""The CLI's exit and output contract over drawn argv and config files.

Whatever the argv, and whatever the shape of the JSON config file it names,
``spinpair`` exits 0, 1, 2 or 3 without a traceback; a usage error (1) or an
internal-consistency violation (3) is one stderr line; a successful JSON run
prints strict JSON, with no NaN or Infinity.  An argv whose every value lies
in its range runs to exit 0: a valid label, finite angles (here within
±1e17 radians), outcome values whose products are finite (here within
±1e150), a finite sweep span.

``--grid`` stays at most 3 and ``--steps`` at most 5, and few draws run
``verify``, so that each example takes milliseconds.
"""

from __future__ import annotations

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import spinpair.cli as cli
from spinpair.verify import DEFAULT_TOLERANCES

COMMON = ("format", "seed")
OWN = {
    "state": "s M a d f",
    "operator": "d f c1 c2 r1 r2",
    "probabilities": "s M a c1 c2",
    "expect": "s M a d f c1 c2 r1 r2 grid",
    "verify": "tol",
    "scan": "s M a d f c1 c2 r1 r2 param start stop steps",
}
FLAGS = sorted({name for names in OWN.values() for name in names.split()} | set(COMMON))
PARAMS = [f"{o}.{a}" for o in ("a", "c1", "c2", "d", "f") for a in ("theta", "phi")]
LABELS = [("0", "0"), ("1", "1"), ("1", "0"), ("1", "-1")]

# Tokens that have broken command lines: non-finite and overflowing numbers,
# forms float() and int() refuse or read unexpectedly, full-width digits,
# empty strings, flags where a value belongs.  No token asks for more than a
# little work: a number a count parser takes is at most 3.
HOSTILE = (
    "nan", "-nan", "inf", "-inf", "1e309", "-1e309", "deg", "1deg", "infdeg", "0x10", "",
    " ", "１", "３", "１,２", "0,0", "1,2,3", ",", "60deg,0", "nan,0",
    "0,1e309", "-1", "0", "-0.0", "1e-300", "1e17", "-1e17", "1e3", "--", "--=x",
    "--version", "-x", "x", "json", "csv", "c2.theta", "kernel_unitarity=1e-9",
    "kernel_unitarity=0", "nonsense=1", "=", "true", "null", "[1, 2]",
)
# Text without digits, so that no drawn string is a large count.
_TEXT = st.text(alphabet="-+.,=:eEinfadgx ()[]{}\"'_éπ", max_size=4)

_angle = st.floats(-1e17, 1e17, allow_nan=False)
_angle_token = st.one_of(_angle.map(repr), st.floats(-1e15, 1e15).map(lambda x: f"{x!r}deg"))
_value = st.floats(-1e150, 1e150, allow_nan=False)


def _pair(token):
    return st.tuples(token, token).map(",".join)


# The values each flag takes, in its documented range.
VALID = {
    "format": st.sampled_from(["json", "csv"]),
    "seed": st.integers(0, 2**64).map(str),
    "s": st.sampled_from(["0", "1"]),
    "M": st.sampled_from(["-1", "0", "1"]),
    **{name: _pair(_angle_token) for name in ("a", "d", "f", "c1", "c2")},
    **{name: _pair(_value.map(repr)) for name in ("r1", "r2")},
    "grid": st.sampled_from(["1", "2", "3"]),
    "tol": st.builds(
        lambda name, tol: f"{name}={tol!r}",
        st.sampled_from(sorted(DEFAULT_TOLERANCES)),
        st.floats(1e-300, 1e300),
    ),
    "param": st.sampled_from(PARAMS),
    "start": _angle.map(repr),
    "stop": _angle.map(repr),
    "steps": st.sampled_from(["2", "3", "4", "5"]),
}


# JSON values of any shape; their numbers, like the tokens, ask for little work.
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**30, -(10**30)]),
    st.floats(),
    st.sampled_from(HOSTILE),
    _TEXT,
)
_json_keys = st.sampled_from(FLAGS + ["config", "bogus", "theta", "phi", "plus", "minus"])
_json = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_json_keys | _TEXT, inner, max_size=3),
    max_leaves=8,
)


# Hypothesis draws the first element of a list and the ends of a range more
# often than the rest, so each choice below whose odds matter, such as how
# often a flag is left out, is made with a drawn random.Random instead.


@st.composite
def _config_files(draw, rnd):
    """A config file's text: mostly an object of flag keys whose values are
    mostly valid, else any JSON at all, or text that is not JSON."""
    kind = rnd.choice(["object", "object", "object", "any", "text"])
    if kind == "text":
        return rnd.choice(["", "{", "[1,", '{"s": 1,}', "\ufeff{}", "NaN"])
    if kind == "any":
        return json.dumps(draw(_json))
    keys = rnd.sample(FLAGS, rnd.randrange(5)) + (["bogus"] if rnd.random() < 0.1 else [])
    return json.dumps(
        {key: draw(_json if rnd.random() < 0.2 else VALID.get(key, _json)) for key in keys}
    )


@st.composite
def _argvs(draw):
    """A subcommand and its flags, a few of them missing or holding a hostile
    value, at times a stray flag or token and a config file; rarely verify,
    at times no subcommand at all."""
    rnd = draw(st.randoms(use_true_random=True))
    commands = ["state", "operator", "probabilities", "expect", "scan"] * 3
    command = rnd.choice(commands + ["verify", "bogus", "", "--version", "--bogus"])
    names = list(COMMON) + OWN.get(command, "").split()
    names += [rnd.choice(FLAGS)] if rnd.random() < 0.2 else []
    s, M = rnd.choice(LABELS)
    argv = [command]
    for name in names:
        if rnd.random() < 0.05:  # left out
            continue
        if rnd.random() < 0.08:
            value = draw(st.sampled_from(HOSTILE) | _TEXT)
        else:
            value = {"s": s, "M": M}.get(name) or draw(VALID[name])
        argv += [f"--{name}={value}"] if rnd.random() < 0.15 else [f"--{name}", value]
    argv += [draw(st.sampled_from(HOSTILE) | _TEXT)] if rnd.random() < 0.1 else []
    config = draw(_config_files(rnd)) if rnd.random() < 0.3 else None
    return argv, config


@st.composite
def _in_range_argvs(draw):
    """An argv of a computing subcommand with every value in its range."""
    command = draw(st.sampled_from(["state", "operator", "probabilities", "expect", "scan"]))
    names = list(COMMON) + OWN[command].split()
    argv = [command]
    s, M = draw(st.sampled_from(LABELS))
    for name in names:
        if name in ("s", "M"):
            argv += [f"--{name}", s if name == "s" else M]
        elif name in ("c1", "c2", "param", "start", "stop", "steps") or draw(st.booleans()):
            argv += [f"--{name}", draw(VALID[name])]
    return argv


def _run(argv):
    """``cli.main(argv)``: exit code, stdout, stderr, and whether argparse
    ended the run (help or version)."""
    out, err = io.StringIO(), io.StringIO()
    exited = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code, exited = exc.code, True
    return code, out.getvalue(), err.getvalue(), exited


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "run.json"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_argvs())
def test_every_argv_keeps_the_exit_contract(config_path, drawn):
    argv, config = drawn
    if config is not None:
        config_path.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(config_path)]
    code, out, err, exited = _run(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_VERIFY, cli.EXIT_INTERNAL)
    assert "Traceback" not in err
    if code in (cli.EXIT_USAGE, cli.EXIT_INTERNAL):
        assert err.endswith("\n") and err.count("\n") == 1, err
    if code == cli.EXIT_OK and not exited and cli.parse_config(argv).output_format == "json":
        records = [json.loads(line, parse_constant=_refuse) for line in out.splitlines()]
        assert records and all(isinstance(record, dict) for record in records)


@settings(max_examples=100, deadline=None)
@given(_in_range_argvs())
def test_in_range_inputs_run_to_exit_zero(argv):
    code, out, err, _ = _run(argv)
    assert (code, err) == (cli.EXIT_OK, "") and out, argv
