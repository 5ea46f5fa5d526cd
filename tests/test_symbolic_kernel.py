"""The symbolic kernel's fast paths against the slow paths they replace.

``SymRat._division_cancel`` tries ``Poly.exact_div`` only on factor pairs
that ``Poly._may_divide`` lets through, and ``SymRat`` powers repeat the
factor multisets in place of k - 1 products.  Both must leave every
representative ``(cnum, fnum, cden, fden)`` exactly as it was.  The
filter's invariants, carried through products, sums, primitive parts and
quotients, must be those a scan of the polynomial's terms finds.
"""

import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, seed, settings, strategies as st

from foldline import folding
from foldline.cartan import builtin
from foldline.chamber import DecoratedWord, transition
from foldline.semifield import Poly, SymbolicSemifield, SymRat
from foldline.weyl import enumerate_reduced_words, word_for_w0

SYM = SymbolicSemifield(("x", "y", "z"))


def representative(value):
    return (value.cnum, value.fnum, value.cden, value.fden)


def seeded_values(rng, count):
    """Random subtraction-free values in x, y, z from a few +, *, / steps."""
    leaves = list(SYM.vars().values())
    values = []
    for _ in range(count):
        value = rng.choice(leaves)
        for _ in range(rng.randint(1, 4)):
            other = rng.choice(leaves + [SYM.from_int(rng.randint(2, 5))])
            op = rng.choice((operator.add, operator.mul, operator.truediv))
            value = op(value, other) if rng.random() < 0.5 else op(other, value)
        values.append(value)
    return values


def test_power_is_the_repeated_product():
    for value in seeded_values(random.Random(11), 12):
        for k in range(1, 21):
            product = functools.reduce(operator.mul, [value] * k)
            assert representative(value**k) == representative(product)


# ---------------------------------------------------------------------------
# The division pre-filter on random natural-coefficient polynomials

NVARS = 3
natural_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * NVARS), st.integers(1, 6), min_size=1, max_size=5
).map(lambda terms: Poly(NVARS, terms))


@seed(20081)
@settings(max_examples=300, deadline=None)
@given(natural_polys, natural_polys)
def test_filter_accepts_every_product(a, b):
    assert (a * b)._may_divide(b)
    assert (a * b)._may_divide(a)


@seed(20082)
@settings(max_examples=300, deadline=None)
@given(natural_polys, natural_polys, natural_polys)
def test_filter_rejects_only_failing_divisions(a, b, c):
    for big, small in ((a, b), (a * b + c, b), (a * c, b * c), (a + b, b)):
        if not big._may_divide(small):
            # no quotient in Z[x] at all, so in particular no natural one
            assert big.exact_div(small) is None


# ---------------------------------------------------------------------------
# Differential test against the unfiltered cancel loop


def reference_division_cancel(num, den):
    """The cancel loop as it was before the pre-filter: every pair is tried."""
    changed = True
    while changed:
        changed = False
        for i, f in enumerate(num):
            for j, g in enumerate(den):
                big, small = (f, g) if f.degree() >= g.degree() else (g, f)
                q = big.exact_div(small)
                if q is None or not q.has_nonnegative_coefficients():
                    continue
                del num[i], den[j]
                if not q.is_one():
                    (num if big is f else den).append(q)
                changed = True
                break
            if changed:
                break
    return num, den


def built_values(monkeypatch, run):
    """The representative of every symbolic value run() builds, in order,
    and the number of exact divisions it attempted."""
    log, divisions = [], []
    new, exact_div = SymRat._new, Poly.exact_div

    def logged_new(model, cnum, fnum, cden, fden):
        log.append((cnum, fnum, cden, fden))
        return new(model, cnum, fnum, cden, fden)

    def counted_div(self, other):
        divisions.append(1)
        return exact_div(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(SymRat, "_new", staticmethod(logged_new))
        patch.setattr(Poly, "exact_div", counted_div)
        run()
    return log, len(divisions)


def assert_same_as_reference(monkeypatch, run):
    fast, fast_divisions = built_values(monkeypatch, run)
    with monkeypatch.context() as patch:
        patch.setattr(SymRat, "_division_cancel", staticmethod(reference_division_cancel))
        slow, slow_divisions = built_values(monkeypatch, run)
    assert len(fast) == len(slow)
    assert fast == slow
    assert fast_divisions < slow_divisions


def sym_coords(n):
    model = SymbolicSemifield(tuple(f"x{k}" for k in range(1, n + 1)))
    return tuple(model.var(v) for v in model.variables)


def a3_word_pairs():
    datum, _ = builtin("A3")
    words = [word_for_w0(datum, letters) for letters in enumerate_reduced_words(datum).vertices]
    coords = sym_coords(len(words[0]))

    def run():
        for start, goal in itertools.product(words, repeat=2):
            transition(DecoratedWord(start, coords), goal)

    return run


def a4_and_d4_round_trips():
    rng = random.Random(13)
    pairs = []
    for name in ("A4", "D4+triality"):
        datum, _ = builtin(name)
        words = enumerate_reduced_words(datum).vertices
        for _ in range(3):
            pairs.append(tuple(word_for_w0(datum, letters) for letters in rng.sample(words, 2)))

    def run():
        for start, goal in pairs:
            out = transition(DecoratedWord(start, sym_coords(len(start))), goal)
            transition(out, start)

    return run


def g2_fold_chains_and_compare_models():
    g2 = folding.standard_folding("d4")
    words = (("1", "2") * 3, ("2", "1") * 3)
    b2 = SymbolicSemifield(tuple("abcd"))

    def run():
        for start, goal in (words, words[::-1]):
            source = folding.folded_decorated(g2, start, sym_coords(len(start)))
            folding.folded_transition(source, goal)
        for chain_id in folding.CHAIN_IDS:
            assert folding.verify_chain(chain_id).ok
        assert folding.compare_models(tuple(b2.var(v) for v in "dcba"))["ok"]

    return run


def test_every_a3_word_pair(monkeypatch):
    assert_same_as_reference(monkeypatch, a3_word_pairs())


def test_seeded_a4_and_d4_round_trips(monkeypatch):
    assert_same_as_reference(monkeypatch, a4_and_d4_round_trips())


def test_g2_fold_chains_and_compare_models(monkeypatch):
    assert_same_as_reference(monkeypatch, g2_fold_chains_and_compare_models())


# ---------------------------------------------------------------------------
# Carried invariants against a scan of the terms


def assert_carried(polys):
    """Each polynomial already holds its invariants, and they are those of
    a new polynomial with the same terms, which scans them."""
    for p in polys:
        assert p._bounds is not None
        assert p._bounds == Poly(p.nvars, p.terms)._invariants()


@pytest.mark.parametrize(
    "runs", (a3_word_pairs, a4_and_d4_round_trips, g2_fold_chains_and_compare_models)
)
def test_every_built_factor_carries_its_invariants(monkeypatch, runs):
    log, _ = built_values(monkeypatch, runs())
    factors = {id(f): f for _, fnum, _, fden in log for f in fnum + fden}
    assert len(factors) > 50
    assert_carried(factors.values())


@seed(20083)
@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from((operator.add, operator.mul, operator.truediv)),
            st.integers(0, 5),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_drawn_values_carry_their_invariants(steps):
    x, y, z = SYM.vars().values()
    leaves = (x, y, z, SYM.from_int(3), x + y, x * y + 2 * z)
    value = x
    for op, k, left in steps:
        value = op(value, leaves[k]) if left else op(leaves[k], value)
        assert_carried(value.fnum + value.fden)


@seed(20084)
@settings(max_examples=300, deadline=None)
@given(natural_polys, natural_polys)
def test_kernel_operations_carry_invariants(a, b):
    product = a * b
    total = a._natural_sum(b)
    assert_carried((product, total, total.primitive()[1], a.primitive()[1]))
    assert_carried((product.exact_div(b), product.exact_div(a)))
