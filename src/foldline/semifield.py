"""Exact semifield arithmetic in four models.

A semifield here is a set with operations ``a+b``, ``a*b``, ``a/b`` obeying
the usual commutative/associative/distributive laws, but without subtraction
and without a zero.  The four models are:

* ``rat``   -- positive rationals with ordinary field operations;
* ``tropz`` -- the integers with ``add = min``, ``mul = +``, ``div = -``;
* ``tropn`` -- the nonnegative integers inside ``tropz``; division is
  partial and underflow is a hard error (the min-plus structure on N is
  stable under ``a+b``, ``ab`` and ``a/(a+b)`` but not under general
  division);
* ``sym``   -- formal subtraction-free rational functions: quotients of
  multivariate polynomials with nonnegative integer coefficients over a
  declared variable set.  No GCD cancellation is performed; equality is
  decided by cross multiplication, which is exact because the coefficient
  arithmetic never leaves N.

The three number models are the :class:`Semifield` instances ``RATIONALS``,
``TROP_INT`` and ``TROP_NAT``; each names its value class and the number
whose value is the unit.  :class:`SymbolicSemifield` is the one descriptor
with state of its own, its variables.  Every value class names its model in
``model`` and supplies ``_add``, ``_mul``, ``_div`` and ``_nfold``;
:class:`SemifieldValue` holds the rest once: the operators, the model
check, the ``k >= 1`` guard of n-fold sums, powers by repeated products
(which ``SymRat`` replaces by repeating its factors) and immutability.

Evaluating a subtraction-free expression in ``tropz`` computes its
tropicalization: every formula proved symbolically in ``sym`` therefore
yields a piecewise-linear identity for free.  The symbolic model is the
verification oracle for all identity checks in :mod:`foldline.folding`.

Values support the operators ``+``, ``*``, ``/``, ``**`` (positive integer
power) and ``k * value`` for a positive integer ``k``, meaning the k-fold
sum ``value + ... + value``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from operator import or_
from typing import Callable, Iterable, Mapping, Union

from .errors import SemifieldError

IntLike = Union[int, Fraction]


def _require_same_model(a: "SemifieldValue", b: object) -> "SemifieldValue":
    if not isinstance(b, SemifieldValue):
        raise SemifieldError(
            "model-mismatch", f"expected a semifield value, got {type(b).__name__}"
        )
    if a.model != b.model:
        raise SemifieldError(
            "model-mismatch", f"cannot combine {a.model.name} with {b.model.name}"
        )
    return b


class SemifieldValue:
    """One immutable value; the operator plumbing of all four value kinds."""

    __slots__ = ()
    model: "Semifield | SymbolicSemifield"

    def __setattr__(self, *a):
        raise AttributeError("semifield values are immutable")

    def __repr__(self):
        return f"{self.model.name}({self})"

    def nfold(self, k: int) -> "SemifieldValue":
        """k-fold sum self + self + ... + self (k >= 1)."""
        if k < 1:
            raise SemifieldError("bad-nfold", "n-fold sum needs k >= 1")
        return self._nfold(k)

    def __add__(self, other):
        return self._add(_require_same_model(self, other))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.nfold(other)
        return self._mul(_require_same_model(self, other))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.nfold(other)
        return NotImplemented

    def __truediv__(self, other):
        return self._div(_require_same_model(self, other))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 1:
            raise SemifieldError("bad-power", "powers must be integers >= 1")
        return self._pow(k)

    def _pow(self, k):
        out = self
        for _ in range(k - 1):
            out = out._mul(self)
        return out


@dataclass(frozen=True, eq=False)
class Semifield:
    """Descriptor of one number model; its values point back at it.

    ``value`` builds a value from a number of the model, and ``unit`` is the
    number whose value is the multiplicative unit.  The three instances
    below are the only ones, so equality is identity.
    """

    name: str
    value: Callable[[IntLike], SemifieldValue]
    unit: int = 0

    def from_int(self, n: int) -> SemifieldValue:
        """The coercion iota from integers (tagged values in the tropical models)."""
        return self.value(n)

    def one(self) -> SemifieldValue:
        """The multiplicative unit (iota(0) in the tropical models)."""
        return self.value(self.unit)


class PosRational(SemifieldValue):
    """A strictly positive rational number."""

    __slots__ = ("q",)

    def __init__(self, q: IntLike):
        q = Fraction(q)
        if q <= 0:
            raise SemifieldError("not-positive", f"rational value must be > 0, got {q}")
        object.__setattr__(self, "q", q)

    def _add(self, other):
        return PosRational(self.q + other.q)

    def _mul(self, other):
        return PosRational(self.q * other.q)

    def _div(self, other):
        return PosRational(self.q / other.q)

    def _nfold(self, k):
        return PosRational(self.q * k)

    def __eq__(self, other):
        if not isinstance(other, PosRational):
            return NotImplemented
        return self.q == other.q

    def __hash__(self):
        return hash(("rat", self.q))

    def __str__(self):
        return str(self.q)


class TropInt(SemifieldValue):
    """An integer under the tropical (min, +, -) operations."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        # exactly int: chamber.transport moves only plain ints by (min, +, -),
        # and a bool would take its rational branch
        if type(n) is not int:
            raise SemifieldError("not-integer", f"tropical value must be an int, got {n!r}")
        object.__setattr__(self, "n", n)

    def _add(self, other):
        return type(self)(min(self.n, other.n))

    def _mul(self, other):
        return type(self)(self.n + other.n)

    def _div(self, other):
        return type(self)(self.n - other.n)

    def _nfold(self, k):
        return self  # min(n, n, ...) = n

    def __eq__(self, other):
        if not isinstance(other, TropInt):
            return NotImplemented
        return self.model == other.model and self.n == other.n

    def __hash__(self):
        return hash((self.model.name, self.n))

    def __str__(self):
        return str(self.n)


class TropNat(TropInt):
    """A nonnegative integer under (min, +, -); division is partial."""

    __slots__ = ()

    def __init__(self, n: int):
        super().__init__(n)
        if n < 0:
            raise SemifieldError("tropnat-range", f"tropical natural must be >= 0, got {n}")

    def _div(self, other):
        if self.n < other.n:
            raise SemifieldError(
                "tropnat-underflow",
                f"tropical division {self.n} - {other.n} leaves the naturals",
            )
        return TropNat(self.n - other.n)


RATIONALS = PosRational.model = Semifield("rat", PosRational, unit=1)
TROP_INT = TropInt.model = Semifield("tropz", TropInt)
TROP_NAT = TropNat.model = Semifield("tropn", TropNat)


# ---------------------------------------------------------------------------
# Sparse integer polynomials (support for the symbolic model)

# Most terms in one polynomial.  The G2 fold via D4 peaks at 160 terms and
# `verify all` at 12; a D4 lambda read of twelve two-term coordinates grew
# to 190,850 terms in 20 s, and passed this bound 0.7 s in.
TERM_LIMIT = 20_000

# Bits per exponent field of a packed monomial; the top one is a guard bit.
_FIELD_BITS = 16
_FIELD_MASK = (1 << _FIELD_BITS) - 1

# Largest exponent of one variable in a polynomial: what a field holds
# below its guard bit.  The G2 fold via D4 and the symbolic-fold bench reach
# 7, `verify all` 4; ten parsed factors (1+x)^100 plus 1 reach 1000.
DEGREE_LIMIT = (1 << (_FIELD_BITS - 1)) - 1


@lru_cache(maxsize=64)
def _layout(nvars: int) -> tuple[tuple[int, ...], int]:
    """Field shifts, first variable most significant, and the guard bits."""
    shifts = tuple(range(_FIELD_BITS * (nvars - 1), -1, -_FIELD_BITS))
    return shifts, sum(1 << (s + _FIELD_BITS - 1) for s in shifts)


def _covers(x: int, y: int, guard: int) -> bool:
    """Every exponent field of the packed monomial x is at least y's: no
    field of x with its guard bit set borrows it back when y is taken off."""
    return ((x | guard) - y) & guard == guard


def _min_max(x: int, y: int, guard: int) -> tuple[int, int]:
    """Field-wise min and max of two packed monomials."""
    ge = ((x | guard) - y) & guard  # the guard bits of the fields where x >= y
    ge -= ge >> (_FIELD_BITS - 1)  # ... spread over those fields' value bits
    return y & ge | x & ~ge, x & ge | y & ~ge


def _may_divide(big: tuple, small: tuple, guard: int) -> bool:
    """The test of :meth:`Poly._may_divide` on the two polynomials'
    invariants."""
    _, lo, hi, at_one, at_two = big
    _, lo_d, hi_d, one_d, two_d = small
    return (
        _covers(lo, lo_d, guard)
        and _covers(hi - lo, hi_d - lo_d, guard)
        and at_one % one_d == 0
        and at_two % two_d == 0
    )


class Poly:
    """Sparse integer polynomial in a fixed number of variables.

    ``packed`` maps monomials to nonzero integer coefficients.  A monomial
    is one int: its exponents in fixed-width fields, the first variable
    most significant.  So a product of monomials is an int sum, and int
    order is the lex order of exponent tuples that :meth:`leading` and
    :meth:`sort_key` use.  Exponents stay at most ``DEGREE_LIMIT``, below
    each field's top (guard) bit: a product that passes it sets a guard bit
    and is refused with kind ``limit``, and in :meth:`exact_div` a negative
    quotient exponent borrows into a guard bit.  ``Poly(nvars, {exponent
    tuple: c})`` builds one, and :attr:`terms` is that tuple-keyed view.

    The class allows arbitrary integer coefficients (exact division needs
    signed intermediates); the symbolic semifield only ever stores
    polynomials whose coefficients are positive.

    The hash and the sort key are computed once per instance, on first
    use, into slot fields.  So are the invariants that :meth:`_may_divide`
    reads (the degree, the lowest and highest exponent of each variable and
    the values at two points), but only for leaves: a product, a natural
    sum, a primitive part or an exact quotient derives its own from its
    operands' (see :meth:`_invariants`).
    """

    __slots__ = ("nvars", "packed", "_hash", "_key", "_bounds")

    def __init__(self, nvars: int, terms: Mapping[tuple, int]):
        packed = {}
        for e, c in terms.items():
            if len(e) != nvars:
                raise SemifieldError("bad-variables", f"exponent {e} is not one per variable")
            key = 0
            for k in e:
                if not 0 <= k <= DEGREE_LIMIT:
                    raise SemifieldError("limit", f"exponent {k} is outside 0..{DEGREE_LIMIT}")
                key = key << _FIELD_BITS | k
            packed[key] = c
        self._fill(nvars, packed, None)

    @classmethod
    def _of(cls, nvars: int, packed: dict[int, int], bounds: tuple | None = None) -> "Poly":
        """A polynomial from packed monomials with clear guard bits, and its
        invariants if the caller knows them (None: scan on first use)."""
        obj = object.__new__(cls)
        obj._fill(nvars, packed, bounds)
        return obj

    def _fill(self, nvars: int, packed: dict[int, int], bounds: tuple | None) -> None:
        if 0 in packed.values():
            packed = {e: c for e, c in packed.items() if c}
        if len(packed) > TERM_LIMIT:
            raise SemifieldError("limit", f"a polynomial has more than {TERM_LIMIT} terms")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "packed", packed)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_key", None)
        object.__setattr__(self, "_bounds", bounds)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @property
    def terms(self) -> dict[tuple, int]:
        """The terms as exponent tuple -> coefficient, unpacked on each read."""
        shifts = _layout(self.nvars)[0]
        return {
            tuple(e >> s & _FIELD_MASK for s in shifts): c for e, c in self.packed.items()
        }

    @classmethod
    def constant(cls, nvars: int, c: int) -> "Poly":
        return cls._of(nvars, {0: c}, (0, 0, 0, c, c))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        key = 1 << _layout(nvars)[0][index]
        return cls._of(nvars, {key: 1}, (1, key, key, 1, index + 2))

    def is_zero(self) -> bool:
        return not self.packed

    def is_one(self) -> bool:
        return self.packed == {0: 1}

    def degree(self) -> int:
        return self._invariants()[0]

    def _invariants(self) -> tuple:
        """(degree, the lowest and the highest exponent of each variable as
        packed monomials, values at the points (1, 1, 1, ...) and
        (2, 3, 4, ...)).

        A product adds its factors' degrees and exponent bounds and
        multiplies their values: Z[x] has no zero divisors, so no extreme
        term cancels.  A sum of natural polynomials takes the larger degree
        and highest exponents, the smaller lowest exponents and the sum of
        the values; a primitive part divides the values by the content, and
        an exact quotient takes the dividend's less the divisor's, values
        divided.  Those results are built with their invariants; any other
        polynomial scans its packed terms once, here.
        """
        bounds = self._bounds
        if bounds is None:
            shifts, guard = _layout(self.nvars)
            lo = hi = next(iter(self.packed), 0)
            degree = at_two = 0
            for e, c in self.packed.items():
                exponents = [e >> s & _FIELD_MASK for s in shifts]
                degree = max(degree, sum(exponents))
                at_two += c * math.prod(x**k for x, k in enumerate(exponents, 2))
                lo, hi = _min_max(lo, e, guard)[0], _min_max(hi, e, guard)[1]
            bounds = (degree, lo, hi, sum(self.packed.values()), at_two)
            object.__setattr__(self, "_bounds", bounds)
        return bounds

    def _may_divide(self, other: "Poly") -> bool:
        """False only if self = other * q has no solution q in Z[x].

        For natural coefficients, as in every factor of a symbolic value.
        Per-variable min and max exponents add under products, so q's would
        be self's minus other's, which must be ordered and nonnegative; and
        other's (positive) value at each fixed point must divide self's.
        """
        return _may_divide(self._invariants(), other._invariants(), _layout(self.nvars)[1])

    def has_nonnegative_coefficients(self) -> bool:
        return all(c > 0 for c in self.packed.values())

    def content(self) -> int:
        return math.gcd(*self.packed.values()) if self.packed else 0

    def primitive(self) -> tuple[int, "Poly"]:
        """Split into (integer content, primitive part)."""
        if self.is_zero():
            return 0, self
        g = self.content()
        if g == 1:
            return 1, self
        bounds = self._bounds
        if bounds is not None:
            degree, lo, hi, at_one, at_two = bounds
            bounds = (degree, lo, hi, at_one // g, at_two // g)
        return g, Poly._of(self.nvars, {e: c // g for e, c in self.packed.items()}, bounds)

    def _sum_terms(self, other: "Poly") -> dict[int, int]:
        out = dict(self.packed)
        for e, c in other.packed.items():
            out[e] = out.get(e, 0) + c
        return out

    def __add__(self, other: "Poly") -> "Poly":
        return Poly._of(self.nvars, self._sum_terms(other))

    def _natural_sum(self, other: "Poly") -> "Poly":
        """self + other for nonzero natural polynomials: no term cancels."""
        d1, lo1, hi1, one1, two1 = self._invariants()
        d2, lo2, hi2, one2, two2 = other._invariants()
        guard = _layout(self.nvars)[1]
        bounds = (
            max(d1, d2),
            _min_max(lo1, lo2, guard)[0],
            _min_max(hi1, hi2, guard)[1],
            one1 + one2,
            two1 + two2,
        )
        return Poly._of(self.nvars, self._sum_terms(other), bounds)

    def __mul__(self, other: "Poly") -> "Poly":
        d1, lo1, hi1, one1, two1 = self._invariants()
        d2, lo2, hi2, one2, two2 = other._invariants()
        out: dict[int, int] = {}
        get = out.get
        right = other.packed.items()
        natural = None  # tested only once the product is past the term limit
        for e1, c1 in self.packed.items():
            for e2, c2 in right:
                e = e1 + e2
                out[e] = get(e, 0) + c1 * c2
            if len(out) > TERM_LIMIT:
                if natural is None:
                    natural = all(
                        p.has_nonnegative_coefficients() for p in (self, other)
                    )
                if natural:  # no natural term cancels, so it stays past the limit
                    break
        hi, guard = hi1 + hi2, _layout(self.nvars)[1]
        # a monomial passes DEGREE_LIMIT only if the highest exponents do; one
        # that the loop stopped before reaching leaves the term limit's error
        if hi & guard and reduce(or_, out, 0) & guard:
            raise SemifieldError("limit", f"a product has an exponent above {DEGREE_LIMIT}")
        bounds = (d1 + d2, lo1 + lo2, hi, one1 * one2, two1 * two2) if out else None
        return Poly._of(self.nvars, out, bounds)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.packed == other.packed

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, frozenset(self.packed.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def sort_key(self):
        key = self._key
        if key is None:
            key = (self.degree(), len(self.packed), sorted(self.packed.items()))
            object.__setattr__(self, "_key", key)
        return key

    def leading(self) -> tuple[tuple, int]:
        """Lexicographically largest exponent and its coefficient."""
        return max(self.terms.items())

    def exact_div(self, other: "Poly") -> "Poly | None":
        """Exact quotient self/other, or None if not divisible.

        Long division by the lex-leading term; signed intermediate
        coefficients are fine.  The remainder's leading monomials come from
        a max-heap of its monomials, not from a scan of the whole remainder
        per step (heaps in division: S. C. Johnson, 1974).  A monomial
        enters the heap when it enters the remainder; one that has since
        cancelled is skipped when it comes up.
        """
        if other.is_zero():
            return None
        if other.is_one():
            return self
        guard = _layout(self.nvars)[1]
        rem = dict(self.packed)
        heap = [-e for e in rem]
        heapify(heap)
        quo: dict[int, int] = {}
        divisor = other.packed.items()
        le = max(other.packed)
        lc = other.packed[le]
        while rem:
            re = -heappop(heap)
            rc = rem.get(re)
            if rc is None:
                continue
            qe = re - le
            if qe < 0 or qe & guard or rc % lc:
                return None
            qc = quo[qe] = rc // lc
            for e, c in divisor:
                key = qe + e
                v = rem.get(key)
                if v is None:
                    rem[key] = -qc * c
                    heappush(heap, -key)
                elif v == qc * c:
                    del rem[key]
                else:
                    rem[key] = v - qc * c
        bounds = None
        if quo and self._bounds is not None and other._bounds is not None:
            d1, lo1, hi1, one1, two1 = self._bounds
            d2, lo2, hi2, one2, two2 = other._bounds
            if one2 and two2:  # else the quotient's values are not determined
                bounds = (d1 - d2, lo1 - lo2, hi1 - hi2, one1 // one2, two1 // two2)
        return Poly._of(self.nvars, quo, bounds)

    def evaluate(
        self, model: Semifield | SymbolicSemifield, values: list[SemifieldValue]
    ) -> SemifieldValue:
        """Evaluate with the given per-variable semifield values.

        Integer coefficients become n-fold sums, so evaluation in a
        tropical model is the tropicalization of the polynomial.
        """
        if self.is_zero():
            raise SemifieldError("zero-value", "cannot evaluate the zero polynomial")
        total = None
        for e, c in sorted(self.terms.items()):
            term = model.one()
            for x, k in zip(values, e):
                for _ in range(k):
                    term = term * x
            term = term.nfold(c)
            total = term if total is None else total + term
        return total

    def render(self, variables: tuple[str, ...]) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in sorted(self.terms.items(), reverse=True):
            factors = []
            if c != 1 or not any(e):
                factors.append(str(c))
            for name, k in zip(variables, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self.terms!r})"


def _split_common(
    left: Iterable[Poly], right: Iterable[Poly]
) -> tuple[list[Poly], list[Poly], list[Poly]]:
    """Split two factor multisets into (common, left rest, right rest)."""
    right_rest = list(right)
    common: list[Poly] = []
    left_rest: list[Poly] = []
    for f in left:
        try:
            right_rest.remove(f)
            common.append(f)
        except ValueError:
            left_rest.append(f)
    return common, left_rest, right_rest


def _expand(nvars: int, scalar: int, factors: Iterable[Poly]) -> Poly:
    out = Poly.constant(nvars, scalar)
    for f in factors:
        out = out * f
    return out


@dataclass(frozen=True)
class SymbolicSemifield:
    """Subtraction-free rational functions over a declared variable set.

    The one descriptor with state of its own; like :class:`Semifield` it
    has ``name``, ``from_int`` and ``one``.
    """

    variables: tuple[str, ...] = ()
    name = "sym"

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise SemifieldError("bad-variables", "duplicate variable names")

    def from_int(self, n: int) -> "SymRat":
        if n < 1:
            raise SemifieldError("not-positive", f"symbolic constant must be >= 1, got {n}")
        return SymRat._build(self, n, (), 1, ())

    def one(self) -> "SymRat":
        return self.from_int(1)

    def var(self, name: str) -> "SymRat":
        index = self.variables.index(name)
        return SymRat._build(
            self, 1, (Poly.variable(len(self.variables), index),), 1, ()
        )

    def vars(self) -> dict[str, "SymRat"]:
        return {name: self.var(name) for name in self.variables}


class SymRat(SemifieldValue):
    """A subtraction-free rational function num/den.

    Internally the numerator and denominator are kept as an integer scalar
    times a multiset of polynomial factors, each primitive, natural and not
    1.  Products and quotients then cancel shared factors syntactically, and
    sums cancel any factor of the expanded numerator that exactly divides a
    denominator factor (keeping nonnegative coefficients throughout).
    Without this, representation degree doubles with every elementary move
    along a long transition path.  Most factor pairs do not divide, so a
    division is tried only when two necessary conditions hold: the divisor's
    per-variable min and max exponents fit inside the dividend's, and its
    values at fixed positive integer points divide the dividend's.  Both
    hold for every product in Z[x], so the filter skips only divisions that
    would fail and the representative is the same as without it.  The
    observable value is still a plain pair of canonical sparse polynomials,
    exposed by :attr:`num` and :attr:`den`; equality is by cross
    multiplication.
    """

    __slots__ = ("model", "cnum", "fnum", "cden", "fden")

    def __init__(self, *a, **kw):
        raise TypeError("build SymRat values via a SymbolicSemifield model")

    @classmethod
    def _build(
        cls,
        model: SymbolicSemifield,
        cnum: int,
        fnum: Iterable[Poly],
        cden: int,
        fden: Iterable[Poly],
    ) -> "SymRat":
        """Normalise and store a value.  The factors must be primitive,
        natural and not 1, as those of existing values are; the one new
        polynomial, the sum in :meth:`_add`, is checked there."""
        if cnum <= 0 or cden <= 0:
            raise SemifieldError("zero-value", "symbolic value must be nonzero and positive")
        g = math.gcd(cnum, cden)
        _, num_factors, den_factors = _split_common(fnum, fden)
        num_factors, den_factors = cls._division_cancel(num_factors, den_factors)
        return cls._new(
            model,
            cnum // g,
            tuple(sorted(num_factors, key=Poly.sort_key)),
            cden // g,
            tuple(sorted(den_factors, key=Poly.sort_key)),
        )

    @classmethod
    def _new(cls, model, cnum, fnum, cden, fden) -> "SymRat":
        obj = object.__new__(cls)
        object.__setattr__(obj, "model", model)
        object.__setattr__(obj, "cnum", cnum)
        object.__setattr__(obj, "fnum", fnum)
        object.__setattr__(obj, "cden", cden)
        object.__setattr__(obj, "fden", fden)
        return obj

    @staticmethod
    def _division_cancel(
        num: list[Poly], den: list[Poly]
    ) -> tuple[list[Poly], list[Poly]]:
        """Cancel num/den factor pairs where one exactly divides the other.

        Only quotients with nonnegative coefficients are accepted, so the
        subtraction-free invariant is preserved; anything else is left
        uncancelled (harmless, just a larger representative).  A pair is
        tried only if :meth:`Poly._may_divide` allows it: when it does not,
        there is no quotient in Z[x] at all, so the filter skips exactly
        attempts that would fail and the representative is unchanged.
        """
        if not (num and den):
            return num, den
        guard = _layout(num[0].nvars)[1]
        changed = True
        while changed:
            changed = False
            num_bounds = [f._invariants() for f in num]
            den_bounds = [g._invariants() for g in den]
            for i, (f, fb) in enumerate(zip(num, num_bounds)):
                for j, (g, gb) in enumerate(zip(den, den_bounds)):
                    if fb[0] >= gb[0]:
                        big, small, allowed = f, g, _may_divide(fb, gb, guard)
                    else:
                        big, small, allowed = g, f, _may_divide(gb, fb, guard)
                    if not allowed:
                        continue
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

    @property
    def nvars(self) -> int:
        return len(self.model.variables)

    @property
    def num(self) -> Poly:
        """Expanded numerator (canonical sparse form)."""
        return _expand(self.nvars, self.cnum, self.fnum)

    @property
    def den(self) -> Poly:
        """Expanded denominator (canonical sparse form)."""
        return _expand(self.nvars, self.cden, self.fden)

    def _add(self, other: "SymRat") -> "SymRat":
        # a/b + c/d over the least common denominator of the factored forms,
        # pulling shared factors out of the two summands before expanding.
        common_den, rest_a, rest_b = _split_common(self.fden, other.fden)
        gden = math.gcd(self.cden, other.cden)
        ka = self.cnum * (other.cden // gden)
        kb = other.cnum * (self.cden // gden)
        common_num, s1, s2 = _split_common(
            list(self.fnum) + rest_b, list(other.fnum) + rest_a
        )
        kc = math.gcd(ka, kb)
        content, summed = (
            _expand(self.nvars, ka // kc, s1)._natural_sum(_expand(self.nvars, kb // kc, s2))
        ).primitive()
        if not summed.has_nonnegative_coefficients():
            raise SemifieldError("negative-coefficients", "symbolic values must stay subtraction-free")
        if not summed.is_one():
            common_num.append(summed)
        return SymRat._build(
            self.model,
            kc * content,
            common_num,
            gden * (self.cden // gden) * (other.cden // gden),
            common_den + rest_a + rest_b,
        )

    def _mul(self, other: "SymRat") -> "SymRat":
        return SymRat._build(
            self.model,
            self.cnum * other.cnum,
            self.fnum + other.fnum,
            self.cden * other.cden,
            self.fden + other.fden,
        )

    def _div(self, other: "SymRat") -> "SymRat":
        return SymRat._build(
            self.model,
            self.cnum * other.cden,
            self.fnum + other.fden,
            self.cden * other.cnum,
            self.fden + other.fnum,
        )

    def _nfold(self, k):
        return SymRat._build(self.model, self.cnum * k, self.fnum, self.cden, self.fden)

    def _pow(self, k):
        # No factor of a value cancels against one of its other side, so the
        # k-fold multisets need no normalising; repeating each sorted factor
        # in place keeps them sorted.
        return SymRat._new(
            self.model,
            self.cnum**k,
            tuple(f for f in self.fnum for _ in range(k)),
            self.cden**k,
            tuple(f for f in self.fden for _ in range(k)),
        )

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, SymRat):
            return NotImplemented
        if self.model != other.model:
            return False
        _, left, right = _split_common(
            list(self.fnum) + list(other.fden), list(other.fnum) + list(self.fden)
        )
        kl = self.cnum * other.cden
        kr = other.cnum * self.cden
        k = math.gcd(kl, kr)
        return _expand(self.nvars, kl // k, left) == _expand(self.nvars, kr // k, right)

    __hash__ = None  # equal values can have distinct representatives

    def evaluate(self, assignment: Mapping[str, SemifieldValue]) -> SemifieldValue:
        """Evaluate in another model by substituting values for variables."""
        values = [assignment[name] for name in self.model.variables]
        if not values:
            raise SemifieldError("bad-variables", "evaluation needs at least one variable")
        model = values[0].model
        out = model.one()
        for f in self.fnum:
            out = out * f.evaluate(model, values)
        out = out.nfold(self.cnum)
        den = model.one()
        for f in self.fden:
            den = den * f.evaluate(model, values)
        den = den.nfold(self.cden)
        return out / den

    def __str__(self):
        def wrap(p: Poly) -> str:
            text = p.render(self.model.variables)
            return f"({text})" if len(p.packed) > 1 else text

        num = wrap(self.num)
        if self.cden == 1 and not self.fden:
            return num
        return f"{num} / {wrap(self.den)}"


# ---------------------------------------------------------------------------
# Symbolic equality with a typed failure


def sym_equal(a: SymRat, b: SymRat) -> bool:
    """Cross-multiplied equality of symbolic values over one variable set.

    Unlike ``==``, which answers False, a value from another model or
    another variable set raises ``model-mismatch``.
    """
    if not isinstance(a, SymRat) or not isinstance(b, SymRat):
        raise SemifieldError("model-mismatch", "sym_equal needs two symbolic values")
    if a.model != b.model:
        raise SemifieldError("model-mismatch", "symbolic values over different variables")
    return a == b


MODELS: dict[str, Semifield] = {
    "rat": RATIONALS,
    "tropz": TROP_INT,
    "tropn": TROP_NAT,
}


def model_by_name(name: str, variables: tuple[str, ...] = ()) -> Semifield | SymbolicSemifield:
    """Resolve a CLI model name; ``sym`` needs its variable set."""
    if name == "sym":
        return SymbolicSemifield(tuple(variables))
    try:
        return MODELS[name]
    except KeyError:
        raise SemifieldError("unknown-model", f"unknown semifield model {name!r}") from None
