"""The tropical monoid on natural-number word coordinates.

Generators xi_i^n (one per node i and integer exponent n) obey

    (i)   xi_i^a xi_i^b = xi_i^{min(a,b)}
    (ii)  xi_i^a xi_j^b = xi_j^b xi_i^a            when i.j = 0
    (iii) xi_i^a xi_j^b xi_i^c = xi_j^{b+c-m} xi_i^{m} xi_j^{a+b-m},
          m = min(a,c), when i.j = -1

with xi_i^0 not a unit.  Products of exactly N generators along a reduced
word for w_0 with natural exponents form a submonoid whose elements have a
unique normal form: coordinates in N^N at the datum's base word, related
across words by the tropical transition maps of :mod:`foldline.chamber`.
Left multiplication by xi_i^n replaces the first coordinate c_1 by
min(n, c_1) in any word starting with i.  A product m1 m2 is m1's generator
string acting on m2, last letter first.  Transition maps compose and do
not depend on the path, so the raw int coordinates move straight from one
i-first word to the next, with one min per letter, along any braid paths at
all.  The walk word for i is the base word with i brought to the front by
Tits' constructive path (``chamber._constructive``).  Every move the monoid
makes is one call of a function from one bounded cache, :func:`_route`,
compiled once (``chamber._compile``): its coordinates enter at the base
word, a walk word or a whole reduced word, its generator string acts with
its mins, and they leave at another of these.  Each leg runs constructive
programs forward or reversed through the base word, so no monoid function
searches a braid path.  Between route calls the coordinates stay plain int
tuples: scans and reads compare and return them, and the one element an
operation answers with is built by the private :func:`_element`, which
trusts route output (routes keep naturals natural, one per letter).  The
public ``MonoidElement(...)`` checks its coordinates.

Relations (i)-(iii) read the same backwards (swap a and c in (iii)), so
reading the generator string of m backwards is an anti-automorphism
:func:`reverse`, costing one call of a compiled route.  Every right-hand
operation is its left twin conjugated by it: m xi_i^n = reverse(xi_i^n
reverse(m)), and r_i(m) = l_i(reverse(m)).

The crystal-operator structure is recovered from the monoid action: the
string length l_i is the least n with xi_i^n m = m (equivalently the first
coordinate at an i-first word, which the scans probe first, as generator
actions, before doubling and bisection), lower_to_zero is xi_i^0, and
raise_to(n) resets the first coordinate, giving mutually inverse bijections
between the l_i = 0 and l_i = n fibers.  At an i-first word f_i only adds 1
to the first coordinate (Berenstein and Zelevinsky 2001), so
:func:`crystal_raise` is two route calls, to the walk word for i and back.
The exponent-scaling endomorphisms m -> (coordinates times e) are
multiplicative and commute with diagram automorphisms.  :func:`folded_mul`
multiplies sigma-fixed elements on raw ints at the cached unfolded word of
:mod:`foldline.folding`, spreading and reading its blocks by index gathers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import chamber, folding
from .cartan import CartanDatum, DiagramAutomorphism, FoldedDatum
from .chamber import DecoratedWord
from .errors import FoldingError, MonoidError, WordError
from .semifield import TropInt, TropNat
from .weyl import Word, base_word, word_for_w0

@dataclass(frozen=True)
class MonoidGenerator:
    """xi_i^n; exponents may be any integer, but only n >= 0 acts here."""

    i: str
    n: int


@dataclass(frozen=True)
class MonoidElement:
    """Normal form: natural coordinates at the datum's base word."""

    datum: CartanDatum
    coords: tuple[int, ...]

    def __post_init__(self):
        # exactly int: a bool (or any int subclass) would take the rational
        # branch of chamber._run
        if any(type(c) is not int or c < 0 for c in self.coords):
            raise MonoidError("bad-coords", "normal-form coordinates must be naturals")
        if len(self.coords) != len(base_word(self.datum).letters):
            raise MonoidError("bad-coords", "coordinate count must match the word length")

    @property
    def word(self) -> Word:
        return base_word(self.datum)

    def decorated(self) -> DecoratedWord:
        return DecoratedWord(self.word, tuple(TropNat(c) for c in self.coords))

    def __str__(self) -> str:
        return str(self.decorated())


def _element(datum: CartanDatum, coords: tuple[int, ...]) -> MonoidElement:
    """An element of route output, built without the public check: a route
    on naturals returns naturals, one per letter of the base word."""
    m = object.__new__(MonoidElement)
    object.__setattr__(m, "datum", datum)
    object.__setattr__(m, "coords", coords)
    return m


# Compiled routes kept at once: every generator string and fixed move the
# workloads and checks use on their few data fits many times over.
_ROUTE_CACHE_SIZE = 768


@lru_cache(maxsize=_ROUTE_CACHE_SIZE)
def _route(datum: CartanDatum, start, letters: tuple[str, ...], goal):
    """One compiled function of (coordinates at start..., one exponent per
    letter...): the generator string along letters acts, last letter first,
    and the coordinates come back at goal.

    start and goal are each None (the base word), (i,) (the walk word for
    i, the base word with i brought to the front) or a whole reduced word.
    Each leg between two of these runs the first one's constructive program
    from the base word reversed, then the second one's; each letter mins
    its exponent into the first coordinate at its walk word.
    """
    for i in (*letters, *(start or ()), *(goal or ())):
        datum.index(i)  # a typed unknown-label error before not-simply-laced
    base, programs = base_word(datum).letters, {None: ()}

    def leg(there, to):
        for word in (there, to):
            if word not in programs:
                programs[word] = chamber._constructive(datum, base, word)
        return programs[there][::-1] + programs[to]

    def steps():
        at = start
        for k in range(len(letters) - 1, -1, -1):
            yield leg(at, (letters[k],)), k
            at = (letters[k],)
        yield leg(at, goal), None

    return chamber._compile(len(base), steps(), len(letters))


def _at(datum: CartanDatum, coords: tuple[int, ...], i: str) -> tuple[int, ...]:
    """Base-word coordinates moved to the walk word for i."""
    return _route(datum, None, (), (i,))(*coords)


def _reversal(m: MonoidElement) -> tuple[int, ...]:
    """The base-word coordinates of reverse(m)."""
    return _route(m.datum, m.word.letters[::-1], (), None)(*m.coords[::-1])


def _raised(datum: CartanDatum, coords: tuple[int, ...], i: str) -> tuple[int, ...]:
    """f_i on base-word coordinates: 1 more on the first at the walk word for i."""
    at = _at(datum, coords, i)
    return _route(datum, (i,), (), None)(at[0] + 1, *at[1:])


def normal_form(datum: CartanDatum, letters: Sequence[str], coords: Sequence[int]) -> MonoidElement:
    """The element with the given coordinates along the given reduced word."""
    naturals = _naturals(coords)  # typed errors for non-naturals
    word = word_for_w0(datum, letters).letters
    route = _route(datum, word, (), None)
    if len(naturals) != len(word):
        raise WordError("coords-length", f"{len(word)} letters but {len(naturals)} coordinates")
    return _element(datum, route(*naturals))


def left_mul_gen(gen: MonoidGenerator, m: MonoidElement) -> MonoidElement:
    """xi_i^n . m: min into the first coordinate of an i-first word."""
    TropInt(gen.n)  # typed not-integer error before the sign test, bools included
    if gen.n < 0:
        raise MonoidError(
            "negative-exponent",
            "only exponents n >= 0 stabilize the normal-form submonoid",
        )
    return _element(m.datum, _route(m.datum, None, (gen.i,), None)(*m.coords, gen.n))


def reverse(m: MonoidElement) -> MonoidElement:
    """The anti-automorphism reading m's generator string backwards."""
    return _element(m.datum, _reversal(m))


def right_mul_gen(m: MonoidElement, gen: MonoidGenerator) -> MonoidElement:
    """m . xi_i^n = reverse(xi_i^n . reverse(m))."""
    return reverse(left_mul_gen(gen, reverse(m)))


def generator_string(m: MonoidElement) -> tuple[MonoidGenerator, ...]:
    """m as the product of generators along its base word."""
    return tuple(
        MonoidGenerator(i, c) for i, c in zip(m.word.letters, m.coords)
    )


def mul(m1: MonoidElement, m2: MonoidElement) -> MonoidElement:
    """Product in the monoid: act with m1's generator string on m2."""
    if m1.datum != m2.datum:
        raise MonoidError("datum-mismatch", "elements live over different data")
    return _element(m2.datum, _route(m2.datum, None, m1.word.letters, None)(*m2.coords, *m1.coords))


def _sigma_moved(
    datum: CartanDatum, sigma: DiagramAutomorphism, coords: Sequence[int]
) -> tuple[int, ...]:
    """Base-word coordinates relabeled by sigma and moved back to the base word."""
    return _route(datum, sigma.apply_word(base_word(datum).letters), (), None)(*coords)


def sigma_monoid(m: MonoidElement, sigma: DiagramAutomorphism) -> MonoidElement:
    """The automorphism xi_i^n -> xi_sigma(i)^n on normal forms."""
    return _element(m.datum, _sigma_moved(m.datum, sigma, m.coords))


def is_sigma_fixed_monoid(m: MonoidElement, sigma: DiagramAutomorphism) -> bool:
    return _sigma_moved(m.datum, sigma, m.coords) == m.coords


def frobenius(e: int, m: MonoidElement) -> MonoidElement:
    """The endomorphism scaling every generator exponent by e >= 1."""
    if type(e) is not int:
        raise MonoidError("bad-exponent", f"the scaling exponent must be an int, got {e!r}")
    if e < 1:
        raise MonoidError("bad-exponent", "the scaling endomorphism needs e >= 1")
    return _element(m.datum, tuple([e * c for c in m.coords]))


def _naturals(coords: Sequence) -> list[int]:
    """coords as a list of naturals, or the typed error of the first that is not."""
    naturals = list(coords)
    if all(type(c) is int and c >= 0 for c in naturals):
        return naturals
    return [TropNat(c).n for c in naturals]


def _spread_out(naturals: list[int], layout, spread: tuple[int, ...]) -> list[int]:
    """Folded coordinates on the unfolded word: on ints a spread only copies."""
    if len(naturals) != len(layout):
        raise FoldingError(
            "coords-length", f"{len(layout)} letters but {len(naturals)} coordinates"
        )
    return [naturals[b] for b in spread]


def folded_mul(
    fd: FoldedDatum, f1: Sequence[int], f2: Sequence[int], letters: Sequence[str]
) -> tuple[int, ...]:
    """Product of two sigma-fixed elements in folded coordinates.

    Both inputs are natural coordinate vectors on the given folded word;
    they are unfolded, multiplied and folded back, all on raw ints at the
    cached unfolded word, in one route call.  The left factor acts with its
    generator string along the unfolded word, which presents the same
    element as its string along the base word.  Spreading and reading back
    are gathers by the cached block indices; the product is sigma-fixed
    exactly when spreading what was read gives it back, and otherwise this
    ends in kind not-sigma-fixed.
    """
    first = _naturals(f1)  # f1's typed errors come before the word's
    _, word, layout, (spread, read) = folding._unfolding(fd, tuple(letters))
    left = _spread_out(first, layout, spread)
    right = _spread_out(_naturals(f2), layout, spread)
    unfolded = word.letters
    product = _route(fd.source, unfolded, unfolded, unfolded)(*right, *left)
    values = tuple([product[p] for p in read])
    if tuple([values[b] for b in spread]) != product:
        raise FoldingError("not-sigma-fixed", "can only fold sigma-fixed components")
    return values


# ---------------------------------------------------------------------------
# String lengths and crystal operators


def l_coordinate(m: MonoidElement, i: str) -> int:
    """l_i read off coordinates: the first coordinate at an i-first word."""
    return _at(m.datum, m.coords, i)[0]


def _scan(datum: CartanDatum, coords: tuple[int, ...], i: str) -> int:
    """The least n >= 0 with xi_i^n m = m, which holds exactly when n >= l_i,
    for the element m with these base-word coordinates.

    The first coordinate c_1 at an i-first word is l_i, so probing c_1 and
    c_1 - 1 settles it in at most two generator actions.  Should that guess
    be wrong, doubling from n = 0 and bisection find the least fixing
    exponent in O(log l_i) actions; every probe is an action either way, a
    call of the generator's route compared on coordinates.  One past the
    largest coordinate at the i-first word dominates l_i and bounds the
    search.
    """
    act = _route(datum, None, (i,), None)

    def fixes(n: int) -> bool:
        return act(*coords, n) == coords

    at = _at(datum, coords, i)
    guess, bound = at[0], max(at) + 1
    if fixes(guess) and (guess == 0 or not fixes(guess - 1)):
        return guess
    low, high = -1, 0  # fixes(low) is false; fixes(high) is the next test
    while not fixes(high):
        if high >= bound:
            raise MonoidError("scan-overflow", "generator scan failed to terminate")
        low, high = high, min(max(1, 2 * high), bound)
    while high - low > 1:
        mid = (low + high) // 2
        if fixes(mid):
            high = mid
        else:
            low = mid
    return high


def l_scan(m: MonoidElement, i: str) -> int:
    """l_i by generator scan: the least n with xi_i^n m = m."""
    return _scan(m.datum, m.coords, i)


def r_coordinate(m: MonoidElement, i: str) -> int:
    """r_i read off coordinates: l_i of the reversal."""
    return _at(m.datum, _reversal(m), i)[0]


def r_scan(m: MonoidElement, i: str) -> int:
    """r_i by generator scan: the least n with m xi_i^n = m, which is the
    least n with xi_i^n reverse(m) = reverse(m)."""
    return _scan(m.datum, _reversal(m), i)


def lower_to_zero(m: MonoidElement, i: str) -> MonoidElement:
    """xi_i^0 . m: lands in the l_i = 0 fiber."""
    return left_mul_gen(MonoidGenerator(i, 0), m)


def raise_to(n: int, m: MonoidElement, i: str) -> MonoidElement:
    """Inverse of lower_to_zero onto the l_i = n fiber (needs l_i(m) = 0)."""
    TropInt(n)  # typed not-integer error before the sign test, bools included
    if n < 0:
        raise MonoidError("bad-exponent", "the target fiber needs n >= 0")
    at = _at(m.datum, m.coords, i)
    if at[0] != 0:
        raise MonoidError("raise-precondition", f"raise_to needs l_{i}(m) = 0")
    return _element(m.datum, _route(m.datum, (i,), (), None)(n, *at[1:]))


def crystal_raise(m: MonoidElement, i: str) -> MonoidElement:
    """One step up the i-string: l_i goes up by one."""
    return _element(m.datum, _raised(m.datum, m.coords, i))


# Most nodes crystal_graph_dot draws. A3 with bound 3 has exactly this many,
# and every graph within it answers in under a second.
CRYSTAL_NODE_LIMIT = 4096

# Most coordinates the nodes of one crystal graph hold: 4096 nodes of D5's
# 20, so every datum of at most 20 coordinates keeps the whole node limit.
# Drawing a node costs about 4.5 us per coordinate, so on a larger datum
# fewer nodes are drawn, within about 0.4 s; A64 (N = 2080) stops past 39.
CRYSTAL_COORDINATE_LIMIT = 4096 * 20


def crystal_graph_dot(datum: CartanDatum, bound: int) -> str:
    """DOT graph of raising steps from the bottom element, coordinates <= bound."""
    if bound < 0:
        raise MonoidError("bad-bound", f"the bound must be >= 0, got {bound}")
    bottom = (0,) * len(base_word(datum).letters)
    node_limit = min(CRYSTAL_NODE_LIMIT, CRYSTAL_COORDINATE_LIMIT // len(bottom))
    seen = {bottom}
    queue = [bottom]
    edges = []
    while queue:
        current = queue.pop()
        for i in datum.labels:
            raised = _raised(datum, current, i)
            if max(raised, default=0) > bound:
                continue
            edges.append((current, raised, i))
            if raised not in seen:
                seen.add(raised)
                queue.append(raised)
                if len(seen) > node_limit:
                    raise MonoidError(
                        "limit",
                        f"the crystal graph has more than {node_limit} nodes "
                        f"with coordinates <= {bound}",
                    )
    names = {coords: f"n{index}" for index, coords in enumerate(sorted(seen))}
    lines = ["digraph crystal {"]
    for coords, name in names.items():
        label = ",".join(str(c) for c in coords)
        lines.append(f'  {name} [label="{label}"];')
    for source, target, i in sorted(edges):
        lines.append(f'  {names[source]} -> {names[target]} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)
