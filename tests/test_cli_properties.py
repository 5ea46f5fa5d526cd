"""Every CLI invocation answers with one JSON document, or a typed error.

Hypothesis draws argument lists for the data commands (well formed for
the argument parser, arbitrary for the library: random letters, counts,
numbers, fractions, identifiers, powers and nested parentheses) and
checks that ``cli.main`` returns 0, or 1/2 with an error document that
carries a ``kind``, never raises, and answers each call within a time
bound.  Half the calls pass each option and its value as two arguments,
and some counts do not parse, so the argument parser's own errors are
drawn too.  The search is derandomized and bounded, so it runs the same
examples on every run.
"""

import contextlib
import io
import json
import time

from hypothesis import HealthCheck, given, settings, strategies as st

from foldline.cartan import builtin
from foldline.cli import main
from foldline.folding import standard_folding
from foldline.weyl import ENUMERATION_LIMIT, base_word, enumerate_reduced_words

DATA = ("A2", "A3", "B:n=2", "A4+flip", "D4+triality")
MODELS = ("a3", "a4", "d4")
SEMIFIELDS = ("rat", "tropz", "tropn", "sym")
CHECKS = (
    "tropical-b2", "monoid", "frobenius", "crystal", "path-independence",
    "word-counts", "closed-form", "filling-independence",
)
CALL_SECONDS = 3.0


def _words(name):
    datum, _ = builtin(name)
    return datum.labels, enumerate_reduced_words(datum).vertices, len(base_word(datum))


WORDS = {name: _words(name) for name in DATA}


def _mostly(good, other):
    """Draw from ``good`` four times in five, else from ``other``."""
    return st.integers(0, 4).flatmap(lambda k: other if k == 0 else good)


identifiers = st.sampled_from(("x", "y", "z", "a1", "_b", "xx"))
fractions = st.tuples(st.integers(0, 9), st.integers(0, 9)).map(lambda p: f"{p[0]}/{p[1]}")
wild_numbers = st.one_of(
    st.integers(-20, 20).map(str),
    st.sampled_from(("0", "10000000000000000000000", "-0", "007", "1.5", "x")),
    fractions,
)


def _expressions():
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from(("+", "*", "/")), inner).map("".join),
            st.tuples(inner, st.sampled_from(("^", "**")), st.integers(-1, 120)).map(
                lambda t: f"({t[0]}){t[1]}{t[2]}"
            ),
            st.tuples(st.integers(1, 60), inner).map(lambda t: "(" * t[0] + t[1] + ")" * t[0]),
        )

    atoms = _mostly(st.one_of(identifiers, st.integers(1, 5).map(str)), wild_numbers)
    return st.recursive(atoms, extend, max_leaves=6)


VALUES = {
    "tropz": st.integers(-20, 20).map(str),
    "tropn": st.integers(0, 20).map(str),
    "rat": st.one_of(st.integers(1, 9).map(str), fractions),
    "sym": _expressions(),
}


def _letters(labels, length):
    return st.lists(
        st.one_of(st.sampled_from(labels), st.sampled_from(("9", "x", "1'"))),
        min_size=max(0, length - 1),
        max_size=length + 1,
    )


@st.composite
def words(draw, name):
    labels, reduced, length = WORDS[name]
    return ",".join(draw(_mostly(st.sampled_from(reduced), _letters(labels, length))))


@st.composite
def coords(draw, length, semifield):
    count = draw(_mostly(st.just(length), st.integers(max(0, length - 1), length + 1)))
    mixed = st.one_of(VALUES[semifield], wild_numbers, VALUES["sym"])
    values = draw(_mostly(st.just(VALUES[semifield]), st.just(mixed)))
    return ",".join(draw(st.lists(values, min_size=count, max_size=count)))


@st.composite
def datum_command(draw):
    name = draw(st.sampled_from(DATA))
    labels, _, length = WORDS[name]
    label = draw(_mostly(st.sampled_from(labels), st.just("9")))
    semifield = draw(st.sampled_from(SEMIFIELDS))
    flag = f"--datum={name}"
    kind = draw(st.sampled_from(("transition", "read", "neighbors", "enumerate", "mul",
                                 "lstring", "frobenius", "crystal-graph")))
    if kind == "transition":
        return ["transition", flag, f"--from={draw(words(name))}", f"--to={draw(words(name))}",
                f"--coords={draw(coords(length, semifield))}", f"--semifield={semifield}"]
    if kind == "read":
        return [draw(st.sampled_from(("lambda", "rho"))), flag, f"--word={draw(words(name))}",
                f"--coords={draw(coords(length, semifield))}", f"--i={label}",
                f"--semifield={semifield}"]
    if kind == "neighbors":
        return ["words", "neighbors", flag, f"--word={draw(words(name))}"]
    if kind == "enumerate":
        cap = st.sampled_from(
            tuple(map(str, (-5, 0, 1, 16, 2316, ENUMERATION_LIMIT, ENUMERATION_LIMIT + 1, 10**12)))
        )
        return ["words", "enumerate", flag, f"--cap={draw(_mostly(cap, wild_numbers))}"]
    element = coords(length, "tropn")
    if kind == "mul":
        return ["monoid", "mul", flag, f"--left={draw(element)}", f"--right={draw(element)}"]
    if kind == "lstring":
        return ["monoid", "lstring", flag, f"--i={label}", f"--coords={draw(element)}"]
    if kind == "frobenius":
        return ["monoid", "frobenius", flag, f"--e={draw(st.integers(-2, 4))}",
                f"--coords={draw(element)}"]
    return ["monoid", "crystal-graph", flag, f"--bound={draw(st.integers(-2, 3))}"]


@st.composite
def folded_command(draw):
    model = draw(st.sampled_from(MODELS))
    folded = standard_folding(model).folded
    labels, length = folded.labels, len(base_word(folded))
    semifield = draw(st.sampled_from(SEMIFIELDS))
    pairs = (labels, labels[::-1])
    alternating = st.sampled_from([",".join((pair * length)[:length]) for pair in pairs])
    folded_word = _mostly(alternating, _letters(labels, length).map(",".join))
    return ["folded", "transition", f"--model={model}", f"--from={draw(folded_word)}",
            f"--to={draw(folded_word)}", f"--coords={draw(coords(length, semifield))}",
            f"--semifield={semifield}"]


@st.composite
def verify_command(draw):
    trials = draw(_mostly(st.integers(-2, 4).map(str), st.sampled_from(("x", "1.5", ""))))
    return ["verify", draw(st.sampled_from(CHECKS)), f"--trials={trials}",
            f"--seed={draw(st.integers(0, 3))}"]


def _spaced(argv):
    """Pass each option and its value as two arguments, as a shell user
    would, so values such as -1,2,3 follow their option."""
    return [part for arg in argv for part in arg.split("=", 1)]


# The data commands have the most argument shapes, so they are drawn most.
commands = st.one_of(datum_command(), datum_command(), datum_command(), folded_command(),
                     verify_command())
commands = st.tuples(commands, st.booleans()).map(lambda t: _spaced(t[0]) if t[1] else t[0])


def _call(argv):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), time.perf_counter() - start


@settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(commands)
def _answers_with_one_document(argv):
    code, output, seconds = _call(argv)
    assert seconds < CALL_SECONDS, (argv, seconds)
    assert code in (0, 1, 2), argv
    document = json.loads(output)
    if code == 0:
        assert document["status"] == "ok", argv
    else:
        assert document["status"] == "error" and document["kind"], (argv, document)


def test_every_invocation_answers_with_one_document():
    start = time.perf_counter()
    _answers_with_one_document()
    assert time.perf_counter() - start < 20.0
