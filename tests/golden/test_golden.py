"""The CLI against its committed output contract, ``corpus.jsonl``.

Each run must give its line's exit code and stderr exactly, and its stdout
field by field: floats within a few ulp, because ``math.cos`` and
``math.sin`` come from the platform's libm; the residual fields, whose last
bits are rounding noise, within a small absolute bound; everything else
exactly.  argparse's own messages are compared on Python 3.11 only, as the
help pages are.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import pytest

from make_corpus import CONFIG, CORPUS, run

LINES = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]

ULPS = 4 * sys.float_info.epsilon
RESIDUALS = ("residual", "basis_invariance_residual", "max_residual")
RESIDUAL_BOUND = 1e-13


def _close(name: str, want: float, got: float) -> bool:
    if name in RESIDUALS:
        return abs(got - want) <= RESIDUAL_BOUND
    return abs(got - want) <= ULPS * max(1.0, abs(want))


def _same(name: str, want, got) -> bool:
    """JSON values equal but for float noise; ``name`` is the record field."""
    if type(want) is not type(got):
        return False
    if isinstance(want, float):
        return _close(name, want, got)
    if isinstance(want, list):
        return len(want) == len(got) and all(_same(name, w, g) for w, g in zip(want, got))
    if isinstance(want, dict):
        return list(want) == list(got) and all(_same(k, want[k], got[k]) for k in want)
    return want == got


def _float_cell(text: str) -> bool:
    """Whether a CSV cell is a float's repr (an int's has no point or exponent)."""
    try:
        float(text)
    except ValueError:
        return False
    return any(c in text for c in ".en")


def _same_csv(want: str, got: str) -> bool:
    want_rows, got_rows = (list(csv.reader(io.StringIO(t))) for t in (want, got))
    if len(want_rows) != len(got_rows) or want_rows[0] != got_rows[0]:
        return False
    header = want_rows[0]
    for want_row, got_row in zip(want_rows[1:], got_rows[1:]):
        if len(want_row) != len(got_row):
            return False
        for name, w, g in zip(header, want_row, got_row):
            if w != g and not (
                _float_cell(w) and _float_cell(g) and _close(name, float(w), float(g))
            ):
                return False
    return True


def _same_stdout(want: str, got: str) -> bool:
    if want == got:
        return True
    if want.startswith("{"):  # JSON Lines
        want_lines, got_lines = want.splitlines(), got.splitlines()
        return len(want_lines) == len(got_lines) and all(
            got_line.startswith("{") and _same("", json.loads(w), json.loads(got_line))
            for w, got_line in zip(want_lines, got_lines)
        )
    return bool(want) and _same_csv(want, got)


@pytest.mark.parametrize("line", LINES, ids=[" ".join(line["argv"]) for line in LINES])
def test_a_run_gives_what_the_corpus_holds(line, tmp_path_factory):
    config = None
    if CONFIG in line["argv"]:
        config = tmp_path_factory.mktemp("golden") / "run.json"
        if line["config"] is not None:
            config.write_text(line["config"], encoding="utf-8")
    got = run(line["argv"], config)
    assert got["exit"] == line["exit"]
    if line["argparse"] and sys.version_info[:2] != (3, 11):
        # other versions word their messages differently
        assert got["stderr"].startswith("error: ") and got["stderr"].count("\n") == 1
    else:
        assert got["stderr"] == line["stderr"]
    assert _same_stdout(line["stdout"], got["stdout"]), got["stdout"]
