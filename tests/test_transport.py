"""Compiled move programs against the move-by-move route they replace.

The reference route replays ``move_path`` through ``apply_move`` on
semifield values, one decorated word per move; the fast route is
``transport`` (raw ints for the tropical models) behind ``transition``
and the monoid.  Both routes share one path and one kernel,
``chamber._run``, so a replay is an independent check only where the
two take different branches of it:

* ``tropz`` and ``tropn``: ``transition`` moves raw ints by the kernel's
  (min, +, -) branch, while the replay moves ``TropInt`` values by their
  own min-plus operators through its value branch;
* ``rat`` and ``sym``: both routes run the value branch, so here the
  replay checks only the programs and their orientation.  The 3-move
  itself is checked by the literal values of ``TestMoves`` in
  ``tests/test_chamber.py``, the chain certificates and the
  total-positivity oracle in ``tests/test_total_positivity.py``.
"""

import itertools
import random
from fractions import Fraction

import pytest

from foldline import chamber
from foldline.cartan import builtin
from foldline.chamber import (
    DecoratedWord,
    apply_move,
    decorated,
    move_path,
    transition,
    transport,
)
from foldline.errors import SemifieldError, WordError
from foldline.monoid import (
    MonoidElement,
    MonoidGenerator,
    l_scan,
    left_mul_gen,
    lower_to_zero,
    mul,
    normal_form,
    raise_to,
    right_mul_gen,
)
from foldline.semifield import RATIONALS, TROP_INT, TROP_NAT, SymbolicSemifield, TropNat
from foldline.weyl import (
    base_word,
    enumerate_reduced_words,
    reduced_word_for_w0_starting_with,
    word_for_w0,
)

A2, _ = builtin("A2")
A3, _ = builtin("A3")
A4, _ = builtin("A4")
D4, _ = builtin("D4+triality")
MODELS = ("tropz", "tropn", "rat", "sym")


def replay(dw, word):
    """The reference route: one apply_move per step of the BFS path."""
    for k, r in move_path(dw.datum, dw.word.letters, word.letters):
        dw = apply_move(dw, k, r)
    assert dw.word.letters == word.letters
    return dw


def seeded_coords(rng, model, n):
    if model == "tropz":
        return tuple(TROP_INT.from_int(rng.randint(-9, 9)) for _ in range(n))
    if model == "tropn":
        return tuple(TROP_NAT.from_int(rng.randint(0, 9)) for _ in range(n))
    if model == "rat":
        return tuple(RATIONALS.value(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(n))
    sym = SymbolicSemifield(tuple(f"x{i}" for i in range(1, n + 1)))
    return tuple(sym.var(f"x{i}") for i in range(1, n + 1))


def representative(value):
    """What must match exactly: ints, fractions, or sym factor lists."""
    if hasattr(value, "fnum"):
        return (value.cnum, value.fnum, value.cden, value.fden)
    return value


def assert_same_route(dw, word):
    fast = transition(dw, word)
    slow = replay(dw, word)
    assert fast.word == slow.word == word
    assert [type(c) for c in fast.coords] == [type(c) for c in slow.coords]
    assert list(map(representative, fast.coords)) == list(map(representative, slow.coords))


@pytest.mark.parametrize("model", MODELS)
def test_every_a3_word_pair(model):
    rng = random.Random(3)
    words = [word_for_w0(A3, letters) for letters in enumerate_reduced_words(A3).vertices]
    for start, goal in itertools.product(words, repeat=2):
        dw = DecoratedWord(start, seeded_coords(rng, model, len(start)))
        assert_same_route(dw, goal)


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("datum", [A4, D4], ids=["A4", "D4+triality"])
def test_seeded_pairs(model, datum):
    rng = random.Random(5)
    words = enumerate_reduced_words(datum).vertices
    for _ in range(3 if model == "sym" else 12):
        start, goal = (word_for_w0(datum, letters) for letters in rng.sample(words, 2))
        dw = DecoratedWord(start, seeded_coords(rng, model, len(start)))
        assert_same_route(dw, goal)


def test_int_kernel_is_the_tropical_move():
    rng = random.Random(7)
    words = enumerate_reduced_words(A4).vertices
    for _ in range(20):
        start, goal = rng.sample(words, 2)
        values = [rng.randint(-20, 20) for _ in start]
        dw = decorated(A4, start, tuple(map(TROP_INT.from_int, values)))
        moved = replay(dw, word_for_w0(A4, goal))
        assert transport(A4, start, goal, values) == [c.n for c in moved.coords]


def test_program_cache_is_bounded():
    info = chamber._program.cache_info()
    assert info.maxsize == chamber._PROGRAM_CACHE_SIZE
    assert info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# The monoid against the TropNat-wrapped route


def old_from_word_coords(datum, word, coords):
    dw = DecoratedWord(word, tuple(TropNat(c) for c in coords))
    return MonoidElement(datum, tuple(c.n for c in replay(dw, base_word(datum)).coords))


def old_coords_at(m, word):
    return [c.n for c in replay(m.decorated(), word).coords]


def old_left_mul_gen(i, n, m):
    word = reduced_word_for_w0_starting_with(m.datum, i)
    coords = old_coords_at(m, word)
    coords[0] = min(n, coords[0])
    return old_from_word_coords(m.datum, word, coords)


def old_mul(m1, m2):
    out = m2
    for i, n in reversed(list(zip(m1.word.letters, m1.coords))):
        out = old_left_mul_gen(i, n, out)
    return out


def old_l_scan(m, i):
    bound = max(old_coords_at(m, reduced_word_for_w0_starting_with(m.datum, i))) + 1
    return next(n for n in range(bound + 1) if old_left_mul_gen(i, n, m) == m)


def old_raise_to(n, m, i):
    word = reduced_word_for_w0_starting_with(m.datum, i)
    coords = old_coords_at(m, word)
    assert coords[0] == 0
    coords[0] = n
    return old_from_word_coords(m.datum, word, coords)


def seeded_elements(rng, count):
    size = len(base_word(A4).letters)
    return [MonoidElement(A4, tuple(rng.randint(0, 6) for _ in range(size))) for _ in range(count)]


def test_monoid_matches_the_wrapped_route():
    rng = random.Random(11)
    elements = seeded_elements(rng, 6)
    for m1, m2 in zip(elements, elements[1:]):
        assert mul(m1, m2) == old_mul(m1, m2)
    for m in elements[:3]:
        for i in A4.labels:
            assert l_scan(m, i) == old_l_scan(m, i)
            bottom = lower_to_zero(m, i)
            assert bottom == old_left_mul_gen(i, 0, m)
            n = rng.randint(0, 7)
            assert raise_to(n, bottom, i) == old_raise_to(n, bottom, i)


def test_normal_form_matches_the_wrapped_route():
    rng = random.Random(13)
    words = enumerate_reduced_words(A4).vertices
    for letters in rng.sample(words, 10):
        coords = [rng.randint(0, 9) for _ in letters]
        word = word_for_w0(A4, letters)
        assert normal_form(A4, letters, coords) == old_from_word_coords(A4, word, coords)


# ---------------------------------------------------------------------------
# Error kinds


def kind_of(error_type, fn, *args):
    with pytest.raises(error_type) as error:
        fn(*args)
    return error.value.kind


def test_error_kinds_unchanged():
    b2, _ = builtin("B:n=2")
    b2_source = decorated(b2, ("1", "2", "1", "2"), tuple(map(TROP_INT.from_int, (0, 0, 0, 0))))
    b2_goal = word_for_w0(b2, ("2", "1", "2", "1"))
    assert kind_of(WordError, transition, b2_source, b2_goal) == "not-simply-laced"
    assert kind_of(WordError, transition, b2_source, word_for_w0(A2, ("1", "2", "1"))) == (
        "not-simply-laced"
    )
    assert kind_of(WordError, transport, b2, ("1", "2", "1", "2"), ("1", "2", "1", "2"), [0] * 4) == (
        "not-simply-laced"
    )
    assert kind_of(WordError, mul, MonoidElement(b2, (0,) * 4), MonoidElement(b2, (0,) * 4)) == (
        "not-simply-laced"
    )

    a2 = decorated(A2, ("1", "2", "1"), tuple(map(TROP_INT.from_int, (0, 1, 2))))
    assert kind_of(WordError, transition, a2, base_word(A3)) == "datum-mismatch"

    mixed = (TROP_INT.from_int(0), TROP_NAT.from_int(1), TROP_INT.from_int(2))
    assert kind_of(WordError, decorated, A2, ("1", "2", "1"), mixed) == "coords-model"

    assert kind_of(WordError, transport, A2, ("1", "2", "1"), ("1", "1", "2"), [0] * 3) == (
        "disconnected"
    )
    assert kind_of(WordError, move_path, A2, ("1", "2", "1"), ("1", "1", "2")) == "disconnected"
    assert kind_of(WordError, transport, A2, ("1", "2", "1"), ("2", "1", "2"), [0, 0]) == (
        "coords-length"
    )

    assert kind_of(SemifieldError, normal_form, A2, ("1", "2", "1"), (0, -1, 0)) == "tropnat-range"

    # a non-integer exponent still fails as the TropNat wrap did
    m = MonoidElement(A2, (3, 3, 3))
    assert kind_of(SemifieldError, left_mul_gen, MonoidGenerator("1", 1.5), m) == "not-integer"
    assert kind_of(SemifieldError, right_mul_gen, m, MonoidGenerator("2", 1.5)) == "not-integer"
    assert kind_of(SemifieldError, raise_to, 1.5, lower_to_zero(m, "1"), "1") == "not-integer"
    assert kind_of(SemifieldError, normal_form, A2, ("2", "1", "2"), (0, 1, -3)) == "tropnat-range"
