"""The packed-exponent polynomial kernel against a tuple-keyed reference.

``Poly`` stores each monomial as one int of fixed-width exponent fields.
Products, sums, exact quotients, leading terms and sort order must be
those of the same polynomials kept as {exponent tuple: coefficient}.
"""

import time

import pytest
from hypothesis import example, given, settings, strategies as st

from foldline.errors import SemifieldError
from foldline.semifield import DEGREE_LIMIT, Poly

NVARS = 3


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def ref_div(a, b):
    """Long division by the lex-leading term, rescanning the remainder."""
    rem, quo = dict(a), {}
    le = max(b)
    while rem:
        re = max(rem)
        qe = tuple(x - y for x, y in zip(re, le))
        if any(x < 0 for x in qe) or rem[re] % b[le]:
            return None
        qc = quo[qe] = rem[re] // b[le]
        for e, c in b.items():
            key = tuple(x + y for x, y in zip(qe, e))
            v = rem.get(key, 0) - qc * c
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return quo


def ref_key(a):
    return (max(map(sum, a), default=0), len(a), sorted(a.items()))


def sign(x, y):
    return (x > y) - (x < y)


terms = st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * NVARS),
    st.integers(-6, 6).filter(bool),
    min_size=1,
    max_size=6,
)
# a monomial with one large exponent, so a quotient exponent can go negative
# in any field, not only the first
monomials = st.tuples(
    st.sampled_from([(k, 0, 0) for k in (1, 5)] + [(0, 5, 0), (0, 0, 5), (1, 5, 1)]),
    st.integers(1, 3),
).map(lambda t: {t[0]: t[1]})


@settings(max_examples=200, derandomize=True, deadline=None)
@given(terms, st.one_of(terms, monomials), terms)
@example({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})  # x / y: borrow in the middle
@example({(0, 0, 2): 1}, {(0, 0, 3): 1}, {(1, 0, 0): 1})  # z^2 / z^3: borrow below
@example({(2, 0, 0): 3, (0, 1, 0): 1}, {(1, 0, 0): 2}, {(0, 0, 0): 1})  # not divisible
def test_packed_kernel_matches_the_tuple_reference(a, b, c):
    pa, pb, pc = Poly(NVARS, a), Poly(NVARS, b), Poly(NVARS, c)
    assert (pa * pb).terms == ref_mul(a, b)
    assert (pa + pc).terms == ref_add(a, c)
    assert pa.leading() == (max(a), a[max(a)])
    assert pb.leading() == (max(b), b[max(b)])
    assert sign(pa.sort_key(), pb.sort_key()) == sign(ref_key(a), ref_key(b))
    product = ref_mul(a, b)
    for dividend, divisor in ((product, b), (ref_add(product, c), b), (a, b), (b, a)):
        if not dividend:
            continue
        q = Poly(NVARS, dividend).exact_div(Poly(NVARS, divisor))
        expected = ref_div(dividend, divisor)
        assert (q if q is None else q.terms) == expected
    assert (pa * pb).exact_div(pb) == pa


def test_exponents_stop_at_the_degree_limit():
    top = Poly(2, {(DEGREE_LIMIT, 1): 1})
    assert top.terms == {(DEGREE_LIMIT, 1): 1}
    assert (top * Poly(2, {(0, 1): 1})).terms == {(DEGREE_LIMIT, 2): 1}
    for make in (
        lambda: Poly(2, {(DEGREE_LIMIT + 1, 0): 1}),
        lambda: Poly(2, {(0, -1): 1}),
        lambda: top * Poly(2, {(1, 0): 1, (0, 0): 1}),
    ):
        with pytest.raises(SemifieldError) as error:
            make()
        assert error.value.kind == "limit"


def test_exponent_tuples_have_one_entry_per_variable():
    for exponent in ((1,), (1, 2, 3)):
        with pytest.raises(SemifieldError) as error:
            Poly(2, {exponent: 1})
        assert error.value.kind == "bad-variables"


def test_division_of_a_large_product_is_not_quadratic():
    """A 6,486-term product divided by its 100-term factor.  The division
    that rescanned the whole remainder for its leading term took 0.47 to
    0.51 s on a 2-vCPU Xeon; the heap takes about 0.045 s there."""
    n = 15
    p = Poly(3, {
        (i, j, k): 1 + (i * j + k) % 5
        for i in range(n) for j in range(n) for k in range(n) if (i + j + k) % 3 == 0
    })
    q = Poly(3, {(i, j, k): 1 + i + j for i in range(5) for j in range(5) for k in range(4)})
    product = p * q
    assert len(product.packed) == 6486
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        quotient = product.exact_div(q)
        best = min(best, time.perf_counter() - start)
    assert quotient == p
    assert best < 0.2


def test_a_signed_product_past_the_term_limit_is_whole():
    """A product stops at the term limit only for natural factors: signed
    terms can pass the limit part-way and cancel back under it."""
    signed = {(0,): 1, (1,): -1, (2,): 1}
    long = {(k,): 1 for k in range(20_000)}
    product = Poly(1, signed) * Poly(1, long)
    assert len(product.packed) == 20_000
    assert product.terms == ref_mul(signed, long)
    with pytest.raises(SemifieldError) as error:
        Poly(1, {(0,): 1, (1,): 1, (2,): 1}) * Poly(1, long)
    assert error.value.kind == "limit"
