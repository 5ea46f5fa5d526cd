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
i-first word to the next, with one min per letter, and back to the base
word once at the end, along any braid paths at all.  The walk word for i
is the base word with i brought to the front by Tits' constructive path
(``chamber._constructive``), P_i, so each datum keeps one table of rank
programs (``_walk_table``); a step from the walk word for i to the one for
j runs P_i reversed, then P_j.  Every route the monoid runs is compiled
once (``chamber._compile``) into a bounded cache: the generator string of
a product, of a generator action and of a folded product, with its mins;
the move to a walk word and back; and the fixed moves of reversal, of
sigma and between an unfolded word and the base word.  So a product is one
call and builds one element, and only :func:`normal_form`, which takes any
word, searches a braid path (through ``chamber.transport``).

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
between the l_i = 0 and l_i = n fibers.  The exponent-scaling endomorphisms
m -> (coordinates times e) are multiplicative and commute with diagram
automorphisms.  :func:`folded_mul` multiplies sigma-fixed elements on raw
ints at the cached unfolded word of :mod:`foldline.folding`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import chamber, folding
from .cartan import CartanDatum, DiagramAutomorphism, FoldedDatum
from .chamber import DecoratedWord
from .errors import FoldingError, MonoidError
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


# Data whose walk tables stay cached at once, as for weyl's per-datum tables.
_WALK_TABLE_DATA = 64

# Compiled routes kept at once in each of the route caches below: every
# generator string, walk and fixed move the workloads and checks use on
# their few data fits many times over.
_ROUTE_CACHE_SIZE = 256


@lru_cache(maxsize=_WALK_TABLE_DATA)
def _walk_table(datum: CartanDatum) -> dict:
    """P_i for each label i: the constructive program from the base word to
    its walk word for i, the base word with i brought to the front.

    Filled one label at a time by :func:`_walk`, so it holds at most rank
    programs; a label the datum lacks never gets an entry.
    """
    return {}


def _walk(datum: CartanDatum, i: str) -> tuple[int, ...]:
    table = _walk_table(datum)
    program = table.get(i)
    if program is None:
        datum.index(i)  # the typed unknown-label error comes first
        program = chamber._constructive(datum, base_word(datum).letters, (i,))
        table[i] = program
    return program


def _size(datum: CartanDatum) -> int:
    return len(base_word(datum).letters)


@lru_cache(maxsize=_ROUTE_CACHE_SIZE)
def _string_route(datum: CartanDatum, letters: tuple[str, ...]):
    """The generator string along letters acting on base-word coordinates,
    last letter first, as one compiled function of (coordinates..., one
    exponent per letter...).

    From one walk word to the next it runs P_i reversed, then P_j, and
    mins the exponent into the first coordinate; the last walk word moves
    back to the base word once.
    """

    def steps():
        back = ()
        for k in range(len(letters) - 1, -1, -1):
            there = _walk(datum, letters[k])
            yield back + there, k
            back = there[::-1]
        yield back, None

    return chamber._compile(_size(datum), steps(), len(letters))


@lru_cache(maxsize=_ROUTE_CACHE_SIZE)
def _walk_route(datum: CartanDatum, i: str, back: bool):
    """P_i compiled, or its reversal from the walk word back to the base word."""
    program = _walk(datum, i)
    return chamber._compile(_size(datum), ((program[::-1] if back else program, None),))


@lru_cache(maxsize=_ROUTE_CACHE_SIZE)
def _fixed_route(datum: CartanDatum, start: tuple[str, ...], goal: tuple[str, ...]):
    """The constructive program between two reduced words for w_0, compiled."""
    return chamber._compile(len(start), ((chamber._constructive(datum, start, goal), None),))


def _at(m: MonoidElement, i: str) -> list[int]:
    """m's coordinates at the walk word for i, as a new list."""
    return list(_walk_route(m.datum, i, False)(*m.coords))


def normal_form(datum: CartanDatum, letters: Sequence[str], coords: Sequence[int]) -> MonoidElement:
    """The element with the given coordinates along the given reduced word."""
    naturals = [TropNat(c).n for c in coords]  # typed errors for non-naturals
    word = word_for_w0(datum, letters)
    return MonoidElement(
        datum, tuple(chamber.transport(datum, word.letters, base_word(datum).letters, naturals))
    )


def left_mul_gen(gen: MonoidGenerator, m: MonoidElement) -> MonoidElement:
    """xi_i^n . m: min into the first coordinate of an i-first word."""
    TropInt(gen.n)  # typed not-integer error before the sign test, bools included
    if gen.n < 0:
        raise MonoidError(
            "negative-exponent",
            "only exponents n >= 0 stabilize the normal-form submonoid",
        )
    return MonoidElement(m.datum, _string_route(m.datum, (gen.i,))(*m.coords, gen.n))


def _moved(datum: CartanDatum, start: tuple[str, ...], coords: Sequence[int]) -> tuple[int, ...]:
    """Coordinates at the word start moved to the base word."""
    return _fixed_route(datum, start, base_word(datum).letters)(*coords)


def reverse(m: MonoidElement) -> MonoidElement:
    """The anti-automorphism reading m's generator string backwards."""
    return MonoidElement(m.datum, _moved(m.datum, m.word.letters[::-1], m.coords[::-1]))


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
    return MonoidElement(m2.datum, _string_route(m2.datum, m1.word.letters)(*m2.coords, *m1.coords))


def _sigma_moved(
    datum: CartanDatum, sigma: DiagramAutomorphism, coords: Sequence[int]
) -> tuple[int, ...]:
    """Base-word coordinates relabeled by sigma and moved back to the base word."""
    return _moved(datum, sigma.apply_word(base_word(datum).letters), coords)


def sigma_monoid(m: MonoidElement, sigma: DiagramAutomorphism) -> MonoidElement:
    """The automorphism xi_i^n -> xi_sigma(i)^n on normal forms."""
    return MonoidElement(m.datum, _sigma_moved(m.datum, sigma, m.coords))


def is_sigma_fixed_monoid(m: MonoidElement, sigma: DiagramAutomorphism) -> bool:
    return _sigma_moved(m.datum, sigma, m.coords) == m.coords


def frobenius(e: int, m: MonoidElement) -> MonoidElement:
    """The endomorphism scaling every generator exponent by e >= 1."""
    if type(e) is not int:
        raise MonoidError("bad-exponent", f"the scaling exponent must be an int, got {e!r}")
    if e < 1:
        raise MonoidError("bad-exponent", "the scaling endomorphism needs e >= 1")
    return MonoidElement(m.datum, tuple(e * c for c in m.coords))


def _naturals(coords: Sequence) -> list[int]:
    """coords as a list of naturals, or the typed error of the first that is not."""
    naturals = list(coords)
    if all(type(c) is int and c >= 0 for c in naturals):
        return naturals
    return [TropNat(c).n for c in naturals]


def folded_mul(
    fd: FoldedDatum, f1: Sequence[int], f2: Sequence[int], letters: Sequence[str]
) -> tuple[int, ...]:
    """Product of two sigma-fixed elements in folded coordinates.

    Both inputs are natural coordinate vectors on the given folded word;
    they are unfolded, multiplied, checked sigma-fixed, and folded back,
    all on raw ints at the cached unfolded word.  The left factor acts with
    its generator string along the unfolded word, which presents the same
    element as its string along the base word.
    """
    first = _naturals(f1)  # f1's typed errors come before the word's
    _, word, layout = folding._unfolding(fd, tuple(letters))
    spreads = []
    for coords in (first, f2):
        naturals = _naturals(coords)
        if len(naturals) != len(layout):
            raise FoldingError(
                "coords-length", f"{len(layout)} letters but {len(naturals)} coordinates"
            )
        spreads.append([c for n, block in zip(naturals, layout) for c in folding._spread(n, block)])
    source, unfolded = fd.source, word.letters
    product = _string_route(source, unfolded)(*_moved(source, unfolded, spreads[1]), *spreads[0])
    if _sigma_moved(source, fd.sigma, product) != product:
        raise MonoidError("not-sigma-fixed", "product of sigma-fixed elements must be sigma-fixed")
    at_word = _fixed_route(source, base_word(source).letters, unfolded)(*product)
    return tuple(folding._read_blocks(at_word, layout))


# ---------------------------------------------------------------------------
# String lengths and crystal operators


def l_coordinate(m: MonoidElement, i: str) -> int:
    """l_i read off coordinates: the first coordinate at an i-first word."""
    return _at(m, i)[0]


def _scan(m: MonoidElement, i: str) -> int:
    """The least n >= 0 with xi_i^n m = m, which holds exactly when n >= l_i.

    The first coordinate c_1 at an i-first word is l_i, so probing c_1 and
    c_1 - 1 settles it in at most two generator actions.  Should that guess
    be wrong, doubling from n = 0 and bisection find the least fixing
    exponent in O(log l_i) actions; every probe is an action either way.
    One past the largest coordinate at the i-first word dominates l_i and
    bounds the search.
    """

    def fixes(n: int) -> bool:
        return left_mul_gen(MonoidGenerator(i, n), m) == m

    coords = _at(m, i)
    guess, bound = coords[0], max(coords) + 1
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
    return _scan(m, i)


def r_coordinate(m: MonoidElement, i: str) -> int:
    """r_i read off coordinates: l_i of the reversal."""
    return l_coordinate(reverse(m), i)


def r_scan(m: MonoidElement, i: str) -> int:
    """r_i by generator scan: the least n with m xi_i^n = m, which is the
    least n with xi_i^n reverse(m) = reverse(m)."""
    return _scan(reverse(m), i)


def lower_to_zero(m: MonoidElement, i: str) -> MonoidElement:
    """xi_i^0 . m: lands in the l_i = 0 fiber."""
    return left_mul_gen(MonoidGenerator(i, 0), m)


def raise_to(n: int, m: MonoidElement, i: str) -> MonoidElement:
    """Inverse of lower_to_zero onto the l_i = n fiber (needs l_i(m) = 0)."""
    TropInt(n)  # typed not-integer error before the sign test, bools included
    if n < 0:
        raise MonoidError("bad-exponent", "the target fiber needs n >= 0")
    coords = _at(m, i)
    if coords[0] != 0:
        raise MonoidError("raise-precondition", f"raise_to needs l_{i}(m) = 0")
    coords[0] = n
    return MonoidElement(m.datum, _walk_route(m.datum, i, True)(*coords))


def crystal_raise(m: MonoidElement, i: str) -> MonoidElement:
    """One step up the i-string: l_i goes up by one."""
    return raise_to(l_coordinate(m, i) + 1, lower_to_zero(m, i), i)


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
    bottom = MonoidElement(datum, (0,) * len(base_word(datum).letters))
    node_limit = min(CRYSTAL_NODE_LIMIT, CRYSTAL_COORDINATE_LIMIT // len(bottom.coords))
    seen = {bottom.coords}
    queue = [bottom]
    edges = []
    while queue:
        current = queue.pop()
        for i in datum.labels:
            raised = crystal_raise(current, i)
            if max(raised.coords, default=0) > bound:
                continue
            edges.append((current.coords, raised.coords, i))
            if raised.coords not in seen:
                seen.add(raised.coords)
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
