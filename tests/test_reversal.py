"""Right-hand operations derived by word reversal, against the direct routes.

The library defines every right-hand read and action as its left twin
conjugated by reversal.  The references below are the direct routes it
replaced, kept here so a wrong reversal cannot hide behind the scan and
coordinate agreeing with each other:

* ``right_mul_gen``: min into the last coordinate at an i-last word;
* ``rho_coord``: the last coordinate of ``transition`` to an i-last word;
* ``rho_folded``: the last coordinate of ``folded_transition`` to an
  eta-last folded word.

The i-last word is the reversed i-first word, as it always was.
"""

import itertools
import random
from fractions import Fraction

import pytest

from foldline import chamber
from foldline.cartan import builtin
from foldline.chamber import DecoratedWord, canonical, decorated, rho_coord, transition
from foldline.folding import (
    folded_decorated,
    folded_transition,
    rho_folded,
    s_map,
    standard_folding,
)
from foldline.monoid import (
    MonoidElement,
    MonoidGenerator,
    mul,
    r_coordinate,
    r_scan,
    reverse,
    right_mul_gen,
)
from foldline.semifield import RATIONALS, TROP_INT, TROP_NAT, SymbolicSemifield
from foldline.weyl import base_word, reduced_word_for_w0_starting_with

A3, _ = builtin("A3")
A4, _ = builtin("A4")
D4, _ = builtin("D4+triality")


def last_word(datum, i):
    return reduced_word_for_w0_starting_with(datum, i).reversed()


def direct_right_mul_gen(m, gen):
    word = last_word(m.datum, gen.i).letters
    coords = chamber.transport(m.datum, m.word.letters, word, m.coords)
    coords[-1] = min(gen.n, coords[-1])
    return MonoidElement(m.datum, tuple(chamber.transport(m.datum, word, m.word.letters, coords)))


def direct_rho_coord(dw, i):
    return transition(dw, last_word(dw.datum, i)).coords[-1]


def direct_rho_folded(fdw, eta):
    return folded_transition(fdw, last_word(fdw.fold.folded, eta).letters).coords[-1]


def direct_r_scan(m, i):
    return next(
        n for n in itertools.count()
        if direct_right_mul_gen(m, MonoidGenerator(i, n)) == m
    )


def same(new, old):
    """Equal values, and for sym the same printed representative."""
    return new == old and str(new) == str(old)


def a3_elements():
    size = len(base_word(A3).letters)
    return [MonoidElement(A3, coords) for coords in itertools.product(range(3), repeat=size)]


def seeded_elements(datum, count, seed, bound=6):
    rng = random.Random(seed)
    size = len(base_word(datum).letters)
    return [
        MonoidElement(datum, tuple(rng.randint(0, bound) for _ in range(size)))
        for _ in range(count)
    ]


def monoid_cases():
    yield from ((m, i) for m in a3_elements() for i in A3.labels)
    for datum, seed in ((A4, 31), (D4, 32)):
        yield from ((m, i) for m in seeded_elements(datum, 12, seed) for i in datum.labels)


class TestMonoid:
    def test_reverse_is_an_anti_automorphism(self):
        for datum, seed in ((A3, 1), (A4, 2), (D4, 3)):
            elements = seeded_elements(datum, 16, seed)
            for a, b in zip(elements[::2], elements[1::2]):
                assert reverse(reverse(a)) == a
                assert reverse(mul(a, b)) == mul(reverse(b), reverse(a))

    def test_reverse_is_not_trivial(self):
        assert any(reverse(m) != m for m in a3_elements())

    def test_right_mul_gen_matches_direct_rule(self):
        for m, i in monoid_cases():
            for n in range(4):
                gen = MonoidGenerator(i, n)
                assert right_mul_gen(m, gen) == direct_right_mul_gen(m, gen)

    def test_right_string_matches_direct_routes(self):
        for m, i in monoid_cases():
            expected = direct_rho_coord(m.decorated(), i).n
            assert r_coordinate(m, i) == expected
            assert r_scan(m, i) == direct_r_scan(m, i) == expected


def model_values(model, values):
    if model == "tropz":
        return tuple(TROP_INT.from_int(v - 1) for v in values)
    if model == "tropn":
        return tuple(TROP_NAT.from_int(v) for v in values)
    return tuple(RATIONALS.value(Fraction(2) ** (v - 1)) for v in values)


def symbols(n):
    sym = SymbolicSemifield(tuple(f"x{k}" for k in range(1, n + 1)))
    return tuple(sym.var(f"x{k}") for k in range(1, n + 1))


class TestChamber:
    @pytest.mark.parametrize("model", ("tropz", "tropn", "rat"))
    def test_every_small_a3_point(self, model):
        size = len(base_word(A3).letters)
        for values in itertools.product(range(3), repeat=size):
            cp = DecoratedWord(base_word(A3), model_values(model, values))
            for i in A3.labels:
                assert same(rho_coord(cp, i), direct_rho_coord(cp, i))

    @pytest.mark.parametrize("model", ("tropz", "tropn", "rat"))
    def test_seeded_a4_d4_points(self, model):
        rng = random.Random(41)
        for datum in (A4, D4):
            size = len(base_word(datum).letters)
            for _ in range(15):
                values = [rng.randint(0, 7) for _ in range(size)]
                cp = DecoratedWord(base_word(datum), model_values(model, values))
                for i in datum.labels:
                    assert same(rho_coord(cp, i), direct_rho_coord(cp, i))

    @pytest.mark.parametrize("datum", (A3, A4, D4), ids=("A3", "A4", "D4+triality"))
    def test_symbolic(self, datum):
        # a point given at the reversed base word, so the base coordinates are not bare symbols
        word = base_word(datum).reversed().letters
        cp = canonical(decorated(datum, word, symbols(len(word))))
        for i in datum.labels:
            assert same(rho_coord(cp, i), direct_rho_coord(cp, i))


FOLDS = ("a3", "a4", "d4")


def folded_words(fd):
    first = base_word(fd.folded).letters
    return first, first[::-1]


class TestFolded:
    @pytest.mark.parametrize("name", FOLDS)
    @pytest.mark.parametrize("model", ("tropz", "tropn", "rat"))
    def test_seeded(self, name, model):
        fd = standard_folding(name)
        rng = random.Random(53)
        for letters in folded_words(fd):
            for _ in range(8):
                coords = model_values(model, [rng.randint(0, 6) for _ in letters])
                fdw = folded_decorated(fd, letters, coords)
                point = s_map(fdw)
                for eta in fd.folded.labels:
                    expected = direct_rho_folded(fdw, eta)
                    assert same(rho_folded(fdw, eta), expected)
                    i = fd.orbit_of(eta)[0]
                    assert same(rho_coord(point, i), direct_rho_coord(point, i))
                    assert rho_coord(point, i) == expected

    @pytest.mark.parametrize("name", FOLDS)
    def test_symbolic(self, name):
        fd = standard_folding(name)
        for letters in folded_words(fd):
            fdw = folded_decorated(fd, letters, symbols(len(letters)))
            for eta in fd.folded.labels:
                assert same(rho_folded(fdw, eta), direct_rho_folded(fdw, eta))
