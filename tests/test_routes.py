"""The monoid's routes: constructive braid paths and the compiled functions
that run them.

Compiled functions are checked against the kernel ``chamber._run`` on the
same programs, and constructive routes against the BFS programs of
``chamber.transport``: the coordinates must agree, since transition maps do
not depend on the path.  No monoid function may search a braid path.
"""

import inspect
import io
import random
import re
import tokenize
from fractions import Fraction

import pytest

from foldline import chamber, monoid
from foldline.cartan import builtin, validate_automorphism, validate_datum
from foldline.errors import DatumError, WordError
from foldline.folding import _unfolding, standard_folding
from foldline.weyl import base_word, enumerate_reduced_words

DATA = ("A3", "A4", "D4+triality", "A4+flip", "Dstyle:n=2")


def program(datum, word):
    """The constructive program from the base word to word: () for None,
    the walk word for i for (i,), else the whole word."""
    return () if word is None else chamber._constructive(datum, base_word(datum).letters, word)


def walk_word(datum, i):
    """The base word with the moves of the walk program for i applied."""
    letters = base_word(datum).letters
    for op in program(datum, (i,)):
        k, r = (op + 1, 2) if op >= 0 else (~op + 1, 3)
        letters = chamber._check_move(datum, letters, k, r)
    return letters


def route_steps(datum, start, letters, goal):
    """A route's legs as (program, exponent index) steps: start, the walk
    word of each letter from the last, then goal, each leg through the base
    word."""
    stops = [start, *((i,) for i in reversed(letters)), goal]
    indices = [*reversed(range(len(letters))), None]
    return [
        (program(datum, there)[::-1] + program(datum, to), k)
        for there, to, k in zip(stops, stops[1:], indices)
    ]


def interpreted(steps, coords, exponents=()):
    """The steps run by the kernel, with each min done here."""
    values = list(coords)
    for moves, k in steps:
        chamber._run(moves, values)
        if k is not None:
            values[0] = min(values[0], exponents[k])
    return tuple(values)


def monoid_routes(name):
    """(start, letters, goal) of every route the monoid runs on the datum
    past its walk words: each generator and the product's string, reversal,
    sigma, the normal form from a seeded sample of words, and for each word
    of a standard folding, its folded product and its moves to and from
    the base word."""
    datum, sigma = builtin(name)
    base = base_word(datum).letters
    routes = [(None, (i,), None) for i in datum.labels]
    routes += [(None, base, None), (base[::-1], (), None)]
    if sigma is not None:
        routes.append((sigma.apply_word(base), (), None))
    words = enumerate_reduced_words(datum).vertices
    routes += [(word, (), None) for word in random.Random(f"words:{name}").sample(words, 8)]
    for fd in map(standard_folding, ("a3", "a4", "d4")):
        if fd.source != datum:
            continue
        for letters in enumerate_reduced_words(fd.folded).vertices:
            unfolded = _unfolding(fd, letters)[1].letters
            routes += [(unfolded, unfolded, unfolded), (unfolded, (), None), (None, (), unfolded)]
    return datum, routes


@pytest.fixture(params=["compiled", "interpreted"])
def compile_size(request, monkeypatch):
    """Run each route test on straight-line code and on the _run loop that
    replaces it past _COMPILE_SIZE coordinates, with an empty route cache."""
    if request.param == "interpreted":
        monkeypatch.setattr(chamber, "_COMPILE_SIZE", 0)
    monoid._route.cache_clear()
    yield
    monoid._route.cache_clear()


def check_route(datum, start, letters, goal, rng, runs=20):
    size = len(base_word(datum).letters)
    steps = route_steps(datum, start, letters, goal)
    run = monoid._route(datum, start, letters, goal)
    for _ in range(runs):
        coords = tuple(rng.randint(0, 9) for _ in range(size))
        exponents = tuple(rng.randint(0, 9) for _ in letters)
        assert run(*coords, *exponents) == interpreted(steps, coords, exponents)


class TestCompiledAgainstTheKernel:
    """The monoid's cached routes against the same programs run by the
    kernel step by step."""

    @pytest.mark.parametrize("name", DATA)
    def test_walk_routes(self, name, compile_size):
        """To each walk word from the base word, and back."""
        datum, _ = builtin(name)
        rng = random.Random(f"walk:{name}")
        for i in datum.labels:
            for start, goal in ((None, (i,)), ((i,), None)):
                check_route(datum, start, (), goal, rng)

    @pytest.mark.parametrize("name", DATA)
    def test_generator_strings_and_fixed_moves(self, name, compile_size):
        datum, routes = monoid_routes(name)
        rng = random.Random(f"string:{name}")
        for start, letters, goal in routes:
            check_route(datum, start, letters, goal, rng)

    def test_routes_past_the_compile_size_are_kernel_loops(self):
        """A23 has 276 coordinates, past _COMPILE_SIZE: its routes run as a
        loop of the kernel and still agree with it."""
        a23, _ = builtin("A23")
        assert len(base_word(a23).letters) > chamber._COMPILE_SIZE
        check_route(a23, None, ("23", "1", "12"), None, random.Random(5), runs=1)


class TestConstructiveAgainstSearch:
    """The constructive routes move coordinates as the BFS programs do."""

    @pytest.mark.parametrize("name", DATA)
    def test_walk_pairs_normal_forms_and_reversal(self, name, compile_size):
        datum, _ = builtin(name)
        base = base_word(datum).letters
        rng = random.Random(f"search:{name}")
        walks = {i: walk_word(datum, i) for i in datum.labels}
        pairs = [((i,), walks[i], (j,), walks[j]) for i in datum.labels for j in datum.labels]
        pairs += [(None, base, (i,), walks[i]) for i in datum.labels]
        routes = monoid_routes(name)[1]
        pairs += [(start, start, None, base) for start, letters, goal in routes if start and not letters]
        for start, start_letters, goal, goal_letters in pairs:
            run = monoid._route(datum, start, (), goal)
            for _ in range(5):
                coords = [rng.randint(0, 9) for _ in base]
                expected = chamber.transport(datum, start_letters, goal_letters, coords)
                assert list(run(*coords)) == expected

    def test_every_a3_pair_in_tropz_and_rat(self):
        a3, _ = builtin("A3")
        words = enumerate_reduced_words(a3).vertices
        rng = random.Random(7)
        for start in words:
            for goal in words:
                moves = chamber._constructive(a3, start, goal)
                ints = [rng.randint(-9, 9) for _ in start]
                fractions = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in start]
                for values in (ints, fractions):
                    expected = chamber.transport(a3, start, goal, values)
                    assert chamber._run(moves, list(values)) == expected

    def test_walk_word_starts_with_its_label(self):
        for name in DATA:
            datum, _ = builtin(name)
            for i in datum.labels:
                assert walk_word(datum, i)[0] == i


def public_functions():
    return {
        name
        for name, value in vars(monoid).items()
        if inspect.isfunction(value) and value.__module__ == monoid.__name__ and name[0] != "_"
    }


@pytest.mark.parametrize("name, model", (("A3", "a3"), ("D4+triality", "d4"), ("A4+flip", "a4")))
def test_the_monoid_never_searches(name, model, monkeypatch):
    """Every public monoid function answers with the braid path search
    replaced by one that raises, on an empty route cache.  A3's sigma is
    its flip, and its folded product runs on the a3 folding's source, A3
    labelled 1, 2, 2'."""

    def no_search(*args):
        raise AssertionError("the monoid searched a braid path")

    datum, sigma = builtin(name)
    sigma = sigma or validate_automorphism(datum, {"1": "3", "2": "2", "3": "1"})
    fd = standard_folding(model)
    folded = enumerate_reduced_words(fd.folded).vertices[0]
    base = base_word(datum).letters
    rng = random.Random(f"no-search:{name}")
    m, n = (monoid.MonoidElement(datum, tuple(rng.randint(0, 5) for _ in base)) for _ in range(2))
    i = datum.labels[-1]
    gen = monoid.MonoidGenerator(i, 2)
    calls = {
        "normal_form": lambda: monoid.normal_form(datum, base[::-1], m.coords),
        "left_mul_gen": lambda: monoid.left_mul_gen(gen, m),
        "reverse": lambda: monoid.reverse(m),
        "right_mul_gen": lambda: monoid.right_mul_gen(m, gen),
        "generator_string": lambda: monoid.generator_string(m),
        "mul": lambda: monoid.mul(m, n),
        "sigma_monoid": lambda: monoid.sigma_monoid(m, sigma),
        "is_sigma_fixed_monoid": lambda: monoid.is_sigma_fixed_monoid(m, sigma),
        "frobenius": lambda: monoid.frobenius(2, m),
        "folded_mul": lambda: monoid.folded_mul(fd, (1,) * len(folded), (2,) * len(folded), folded),
        "l_coordinate": lambda: monoid.l_coordinate(m, i),
        "l_scan": lambda: monoid.l_scan(m, i),
        "r_coordinate": lambda: monoid.r_coordinate(m, i),
        "r_scan": lambda: monoid.r_scan(m, i),
        "lower_to_zero": lambda: monoid.lower_to_zero(m, i),
        "raise_to": lambda: monoid.raise_to(3, monoid.lower_to_zero(m, i), i),
        "crystal_raise": lambda: monoid.crystal_raise(m, i),
        "crystal_graph_dot": lambda: monoid.crystal_graph_dot(datum, 1 if name == "A3" else 0),
    }
    assert set(calls) == public_functions()
    expected = {key: call() for key, call in calls.items()}
    monoid._route.cache_clear()
    monkeypatch.setattr(chamber, "_program", no_search)
    try:
        assert {key: call() for key, call in calls.items()} == expected
    finally:
        monoid._route.cache_clear()  # no route compiled here stays cached


class TestBounds:
    def test_a_long_path_ends_in_limit(self, monkeypatch):
        a4, _ = builtin("A4")
        base = base_word(a4).letters
        needed = len(chamber._constructive(a4, base[::-1], base))
        monkeypatch.setattr(chamber, "ROUTE_MOVE_LIMIT", needed - 1)
        with pytest.raises(WordError) as error:
            chamber._constructive(a4, base[::-1], base)
        assert error.value.kind == "limit"

    def test_a_long_route_ends_in_limit(self, monkeypatch):
        monkeypatch.setattr(chamber, "ROUTE_MOVE_LIMIT", 4)
        assert chamber._compile(3, (((~0, 1), None), ((~0, 1), None)))(1, 2, 3)
        with pytest.raises(WordError) as error:
            chamber._compile(3, (((~0, 1), None), ((~0, 1, 0), None)))
        assert error.value.kind == "limit"

    def test_unknown_label_is_typed(self):
        a3, _ = builtin("A3")
        with pytest.raises(DatumError) as error:
            chamber._constructive(a3, base_word(a3).letters, ("9",))
        assert error.value.kind == "unknown-label"


TEMPLATE_NAMES = {"def", "run", "return", "if", "else"}
TEMPLATE_OPS = {"(", ")", ",", ":", "=", "+", "-", "<"}
LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def source_tokens(source):
    """The tokens of a generated source that are not the template's own."""
    odd = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT or token.string in TEMPLATE_NAMES | TEMPLATE_OPS:
            continue
        if token.type == tokenize.NAME and re.fullmatch(r"[vn]\d+|s", token.string):
            continue
        if token.type == tokenize.NUMBER and token.string.isdigit():
            continue
        odd.append(token.string)
    return odd


def test_generated_source_holds_only_template_tokens(monkeypatch):
    """Every source the monoid compiles, on data whose labels are code, has
    only v<k>, n<k>, s, ints and the template's operators."""
    sources = []

    def capture(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr(chamber, "compile", capture, raising=False)
    odd_labels = validate_datum(
        ["__import__('os')", "x\nimport sys", "1;"], [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    )
    data = [builtin(name)[0] for name in DATA] + [odd_labels]
    for datum in data:
        monoid._route.cache_clear()
        size = len(base_word(datum).letters)
        m = monoid.MonoidElement(datum, tuple(range(size)))
        for i in datum.labels:
            monoid.l_scan(m, i), monoid.r_scan(m, i)
            monoid.raise_to(1, monoid.lower_to_zero(m, i), i)
        monoid.mul(m, m)
    monoid._route.cache_clear()  # the captured compiles leave no routes behind
    assert len(sources) > 50
    assert [source_tokens(source) for source in sources if source_tokens(source)] == []
    planted = "def run(v0):\n s = __import__('os')\n return (v0,)"
    assert source_tokens(planted) == ["__import__", "'os'"]
