"""Recorded CLI outputs, checked byte for byte.

``data/cli_golden.json`` holds the exit code and stdout of every call in
:data:`CALLS`, recorded before the right-hand reads (``rho``, ``r_scan``,
``r_coordinate``, ``rho_folded``) were derived from their left twins by
word reversal.  One entry, the folded transition to ``1,2,1,1``, was
re-recorded when folded target words began to be checked in the folded
datum before unfolding.  The ``transition`` calls (with and without
``--trace``) and the README examples of ``monoid``, ``words``, ``datum``
and ``fold`` were added later, recorded before the three number models
became instances of one descriptor class.  The malformed-number calls
and the two inputs past a size limit were added when they became typed
``parse`` and ``limit`` errors.  Symbolic representatives are compared as
printed, so a change of braid path that rewrites a ``sym`` value shows up
here even when the value is equal.

To re-record after an intended output change: ``PYTHONPATH=src python
tests/test_cli_golden.py``.
"""

import json
from pathlib import Path

import pytest

from foldline.cli import main

GOLDEN = Path(__file__).with_name("data") / "cli_golden.json"

_MODEL_COORDS = {
    # (A2 on 1,2,1; A3 on 1,2,3,1,2,1; D4+triality on the reversed base word)
    "tropz": ("3,-1,4", "2,-1,3,0,5,1", "2,-1,3,0,5,1,-2,4,1,0,3,2"),
    "tropn": ("3,1,4", "2,1,3,0,5,1", "2,1,3,0,5,1,2,4,1,0,3,2"),
    "rat": ("3/2,5,7", "1/2,3,2,5/3,1,4", "1/2,3,2,5/3,1,4,2,1,3,1/3,2,1"),
    "sym": ("x,y,z", "a,b,c,d,e,f", "a,b,c,d,e,f,g,h,i,j,k,l"),
}
_WORDS = (
    ("A2", "1,2,1", ("1", "2")),
    ("A3", "1,2,3,1,2,1", ("1", "2", "3")),
    ("D4+triality", "4,2,3,1,2,4,1,2,3,1,2,1", ("1", "2", "3", "4")),
)


def _coordinate_reads():
    for model, coords in _MODEL_COORDS.items():
        for (datum, word, labels), values in zip(_WORDS, coords):
            for read in ("rho", "lambda"):
                for i in labels:
                    yield (read, "--datum", datum, "--word", word, "--coords", values,
                           "--i", i, "--semifield", model)


def _lstrings():
    elements = (
        ("A2", "3,1,4", ("1", "2")),
        ("A3", "2,0,3,1,4,1", ("1", "2", "3")),
        ("A4+flip", "1,0,2,3,0,1,4,2,0,1", ("1", "2", "3", "4")),
        ("D4+triality", "0,2,1,3,0,4,1,0,2,5,1,3", ("1", "2", "3", "4")),
    )
    for datum, coords, labels in elements:
        for i in labels:
            yield ("monoid", "lstring", "--datum", datum, "--i", i, "--coords", coords)


def _transitions():
    targets = ("2,1,2", "3,2,1,3,2,3")
    for model, coords in _MODEL_COORDS.items():
        for (datum, word, _), values, goal in zip(_WORDS, coords, targets):
            for trace in ((), ("--trace",)):
                yield ("transition", "--datum", datum, "--from", word, "--to", goal,
                       "--coords", values, "--semifield", model, *trace)


def _folded_transitions():
    rank_two = ("2,1,2,1", "1,2,1,2")
    g2 = ("1,2,1,2,1,2", "2,1,2,1,2,1")
    coords = {
        4: {"tropz": "3,-1,2,0", "tropn": "3,1,2,0", "rat": "3/2,1/3,2,5", "sym": "d,c,b,a"},
        6: {"tropz": "3,-1,2,0,1,4", "tropn": "3,1,2,0,1,4", "rat": "3/2,1/3,2,5,1,2",
            "sym": "a,b,c,d,e,f"},
    }
    for model, (first, second) in (("a3", rank_two), ("a4", rank_two), ("d4", g2)):
        for start, goal in ((first, second), (second, first)):
            for semifield, values in coords[len(start.split(","))].items():
                yield ("folded", "transition", "--model", model, "--from", start,
                       "--to", goal, "--coords", values, "--semifield", semifield)


# malformed numeric coordinates: each is a typed parse error
MALFORMED_NUMBERS = (
    ("transition", "--datum", "A2", "--from", "121", "--to", "212", "--coords", "a,b,c",
     "--semifield", "rat"),
    ("transition", "--datum", "A2", "--from", "121", "--to", "212", "--coords", "1.5,2,3",
     "--semifield", "tropz"),
    ("lambda", "--datum", "A2", "--word", "121", "--coords", "1/0,1,2", "--i", "1",
     "--semifield", "rat"),
    ("monoid", "mul", "--datum", "A2", "--left", "1,x,2", "--right", "1,1,1"),
)

CALLS = (
    *_coordinate_reads(),
    *_transitions(),
    *_lstrings(),
    *_folded_transitions(),
    ("folded", "compare-models", "--coords", "d,c,b,a", "--semifield", "sym"),
    ("folded", "compare-models", "--coords", "3,-1,2,0", "--semifield", "tropz"),
    ("verify", "all"),
    ("verify", "all", "--level", "desk", "--seed", "3", "--trials", "25"),
    *(("verify", name) for name in (
        "path-independence", "tropical-b2", "monoid", "frobenius", "crystal",
        "filling-independence", "closed-form", "word-counts",
    )),
    ("verify", "chain", "--id", "b2-from-a3"),
    ("verify", "chain", "--id", "b2-from-a4"),
    # the README examples of the commands that print values
    ("monoid", "mul", "--datum", "A2", "--left", "0,1,2", "--right", "1,1,1"),
    ("monoid", "frobenius", "--datum", "A2", "--e", "2", "--coords", "1,2,3"),
    ("monoid", "crystal-graph", "--datum", "A2", "--bound", "3", "--dot"),
    ("words", "neighbors", "--builtin", "B:n=2", "--word", "1212"),
    ("words", "enumerate", "--builtin", "A3"),
    ("datum", "validate", "--builtin", "B:n=2"),
    ("fold", "--builtin", "A4+flip"),
    # typed errors
    ("rho", "--datum", "A2", "--word", "1,2,1", "--coords", "1,2,3", "--i", "9"),
    ("monoid", "lstring", "--datum", "A2", "--i", "9", "--coords", "1,2,3"),
    ("folded", "transition", "--model", "a3", "--from", "2,1,2,1", "--to", "1,2,1,1",
     "--coords", "1,1,1,1"),
    *MALFORMED_NUMBERS,
    ("monoid", "crystal-graph", "--datum", "A3", "--bound", "5"),
    ("transition", "--datum", "A2", "--from", "121", "--to", "212", "--coords", "x^3000,y,z",
     "--semifield", "sym"),
)


def _run(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _key(argv) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_call_is_recorded(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in CALLS)


@pytest.mark.parametrize("argv", CALLS, ids=_key)
def test_output_is_unchanged(capsys, golden, argv):
    code, out = _run(capsys, argv)
    assert {"code": code, "out": out} == golden[_key(argv)]


if __name__ == "__main__":
    import contextlib
    import io

    recorded = {}
    for argv in CALLS:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
        recorded[_key(argv)] = {"code": code, "out": buffer.getvalue()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
