"""The monoid's routes: constructive braid paths and the compiled functions
that run them.

Compiled functions are checked against the kernel ``chamber._run`` on the
same programs, and constructive programs against the BFS programs of
``chamber.transport``: the coordinates must agree, since transition maps do
not depend on the path.
"""

import io
import random
import re
import tokenize
from fractions import Fraction

import pytest

from foldline import chamber, monoid
from foldline.cartan import builtin, validate_datum
from foldline.errors import DatumError, WordError
from foldline.folding import _unfolding, standard_folding
from foldline.weyl import base_word, enumerate_reduced_words

DATA = ("A3", "A4", "D4+triality", "A4+flip", "Dstyle:n=2")


def walk_word(datum, i):
    """The base word with the moves of P_i applied: the walk word for i."""
    letters = base_word(datum).letters
    for op in monoid._walk(datum, i):
        k, r = (op + 1, 2) if op >= 0 else (~op + 1, 3)
        letters = chamber._check_move(datum, letters, k, r)
    return letters


def string_steps(datum, letters):
    """The generator string's walk as (program, exponent index) steps."""
    back, steps = (), []
    for k in range(len(letters) - 1, -1, -1):
        there = monoid._walk(datum, letters[k])
        steps.append((back + there, k))
        back = there[::-1]
    return steps + [(back, None)]


def interpreted(steps, coords, exponents=()):
    """The steps run by the kernel, with each min done here."""
    values = list(coords)
    for program, k in steps:
        chamber._run(program, values)
        if k is not None:
            values[0] = min(values[0], exponents[k])
    return tuple(values)


def fixed_programs(name):
    """Every fixed move the monoid runs on the datum: reversal, sigma, and
    each unfolded word of a standard folding to the base word and back."""
    datum, sigma = builtin(name)
    base = base_word(datum).letters
    pairs = [(base[::-1], base)]
    if sigma is not None:
        pairs.append((sigma.apply_word(base), base))
    for fd in map(standard_folding, ("a3", "a4", "d4")):
        if fd.source != datum:
            continue
        for letters in enumerate_reduced_words(fd.folded).vertices:
            unfolded = _unfolding(fd, letters)[1].letters
            pairs += [(unfolded, base), (base, unfolded)]
    return datum, pairs


ROUTE_CACHES = (monoid._string_route, monoid._walk_route, monoid._fixed_route)


@pytest.fixture(params=["compiled", "interpreted"])
def compile_size(request, monkeypatch):
    """Run each route test on straight-line code and on the _run loop that
    replaces it past _COMPILE_SIZE coordinates, with empty route caches."""
    if request.param == "interpreted":
        monkeypatch.setattr(chamber, "_COMPILE_SIZE", 0)
    for cache in ROUTE_CACHES:
        cache.cache_clear()
    yield
    for cache in ROUTE_CACHES:
        cache.cache_clear()


class TestCompiledAgainstTheKernel:
    """The monoid's cached routes against the same programs run by the
    kernel step by step."""

    @pytest.mark.parametrize("name", DATA)
    def test_walk_programs(self, name, compile_size):
        datum, _ = builtin(name)
        size = len(base_word(datum).letters)
        rng = random.Random(f"walk:{name}")
        for i in datum.labels:
            program = monoid._walk(datum, i)
            for back, route in ((False, program), (True, program[::-1])):
                run = monoid._walk_route(datum, i, back)
                for _ in range(20):
                    coords = tuple(rng.randint(0, 9) for _ in range(size))
                    assert run(*coords) == interpreted(((route, None),), coords)

    @pytest.mark.parametrize("name", DATA)
    def test_generator_strings(self, name, compile_size):
        """Each generator, the base word (a product's string) and, where the
        datum folds, every unfolded word (a folded product's string)."""
        datum, pairs = fixed_programs(name)
        size = len(base_word(datum).letters)
        strings = [(i,) for i in datum.labels] + [base_word(datum).letters]
        strings += [goal for start, goal in pairs[1:] if start == base_word(datum).letters]
        rng = random.Random(f"string:{name}")
        for letters in strings:
            steps = string_steps(datum, letters)
            run = monoid._string_route(datum, letters)
            for _ in range(20):
                coords = tuple(rng.randint(0, 9) for _ in range(size))
                exponents = tuple(rng.randint(0, 9) for _ in letters)
                assert run(*coords, *exponents) == interpreted(steps, coords, exponents)

    @pytest.mark.parametrize("name", DATA)
    def test_fixed_programs(self, name, compile_size):
        datum, pairs = fixed_programs(name)
        size = len(base_word(datum).letters)
        rng = random.Random(f"fixed:{name}")
        for start, goal in pairs:
            steps = ((chamber._constructive(datum, start, goal), None),)
            run = monoid._fixed_route(datum, start, goal)
            for _ in range(20):
                coords = tuple(rng.randint(0, 9) for _ in range(size))
                assert run(*coords) == interpreted(steps, coords)

    def test_routes_past_the_compile_size_are_kernel_loops(self):
        """A23 has 276 coordinates, past _COMPILE_SIZE: its routes run as a
        loop of the kernel and still agree with it."""
        a23, _ = builtin("A23")
        size = len(base_word(a23).letters)
        assert size > chamber._COMPILE_SIZE
        steps = string_steps(a23, ("23", "1", "12"))
        run = chamber._compile(size, steps, 3)
        coords = tuple(random.Random(5).randint(0, 9) for _ in range(size))
        assert run(*coords, 3, 0, 7) == interpreted(steps, coords, (3, 0, 7))


class TestConstructiveAgainstSearch:
    """The constructive programs move coordinates as the BFS programs do."""

    @pytest.mark.parametrize("name", DATA)
    def test_walk_pairs_and_reversal(self, name):
        datum, _ = builtin(name)
        base = base_word(datum).letters
        size = len(base)
        rng = random.Random(f"search:{name}")
        walks = {i: walk_word(datum, i) for i in datum.labels}
        routes = [(base, walks[i], monoid._walk(datum, i)) for i in datum.labels]
        routes += [
            (walks[i], walks[j], monoid._walk(datum, i)[::-1] + monoid._walk(datum, j))
            for i in datum.labels
            for j in datum.labels
            if i != j
        ]
        routes.append((base[::-1], base, chamber._constructive(datum, base[::-1], base)))
        for start, goal, program in routes:
            for _ in range(5):
                coords = [rng.randint(0, 9) for _ in range(size)]
                expected = chamber.transport(datum, start, goal, coords)
                assert chamber._run(program, list(coords)) == expected

    def test_every_a3_pair_in_tropz_and_rat(self):
        a3, _ = builtin("A3")
        words = enumerate_reduced_words(a3).vertices
        rng = random.Random(7)
        for start in words:
            for goal in words:
                program = chamber._constructive(a3, start, goal)
                ints = [rng.randint(-9, 9) for _ in start]
                fractions = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in start]
                for values in (ints, fractions):
                    expected = chamber.transport(a3, start, goal, values)
                    assert chamber._run(program, list(values)) == expected

    def test_walk_word_starts_with_its_label(self):
        for name in DATA:
            datum, _ = builtin(name)
            for i in datum.labels:
                assert walk_word(datum, i)[0] == i


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
        for cache in ROUTE_CACHES:
            cache.cache_clear()
        size = len(base_word(datum).letters)
        m = monoid.MonoidElement(datum, tuple(range(size)))
        for i in datum.labels:
            monoid.l_scan(m, i), monoid.r_scan(m, i)
            monoid.raise_to(1, monoid.lower_to_zero(m, i), i)
        monoid.mul(m, m)
    for cache in ROUTE_CACHES:
        cache.cache_clear()  # the captured compiles leave no routes behind
    assert len(sources) > 50
    assert [source_tokens(source) for source in sources if source_tokens(source)] == []
    planted = "def run(v0):\n s = __import__('os')\n return (v0,)"
    assert source_tokens(planted) == ["__import__", "'os'"]
