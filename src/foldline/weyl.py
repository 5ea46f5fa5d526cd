"""Weyl group elements, reduced words for the longest element, braid moves.

An element w is stored as the vector w^{-1}(rho) in fundamental-weight
coordinates, starting from rho = (1, ..., 1).  Each letter s_i acts by a
rank-one update, so a word of length l costs O(l rank).  rho is regular,
so the vector determines w: the identity is (1, ..., 1), w_0 is
(-1, ..., -1), and the right descents of w are the labels whose entry is
negative.  Lengths and least reduced words come from walking down the
descents to rho.  A word of length N = l(w_0) is a reduced word for w_0
exactly when it sends rho to -rho.

Reduced words for w_0 form a graph whose edges are braid moves: replace an
alternating segment (p, p', p, ...) of length h(p, p') by the segment
starting with p'.  By the Iwahori-Tits theorem this graph is connected;
construction asserts it.  Positions in moves are 1-based, matching the
usual notation for places k, k+1, ..., k+r-1 in a word.  The move rule is
defined once, in ``_braid_move``: :func:`braid_neighbors`, the move checks
in :mod:`foldline.chamber` and its path search's bounded neighbour table
``_neighbor_letters``, pre-sorted in visiting order, all use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .cartan import CartanDatum, h_value, label_key
from .errors import WordError

DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class Word:
    """A word in the generators, tagged with its datum.

    Words produced by :func:`word_for_w0` are validated reduced words for
    the longest element.
    """

    datum: CartanDatum
    letters: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return ",".join(self.letters)

    def reversed(self) -> "Word":
        return Word(self.datum, tuple(reversed(self.letters)))


@lru_cache(maxsize=64)
def _rho_updates(datum: CartanDatum) -> dict[str, tuple[int, tuple[tuple[int, int], ...]]]:
    """For each label i: its index a and the pairs (b, <alpha_i, alpha_j^vee>)
    over the labels j = labels[b] where that integer is nonzero."""
    updates = {}
    for a, i in enumerate(datum.labels):
        column = tuple(
            (b, datum.cartan_integer(j, i))
            for b, j in enumerate(datum.labels)
            if datum.pairing[a][b]
        )
        updates[i] = (a, column)
    return updates


def _apply(datum: CartanDatum, rho: Sequence[int], letters: Sequence[str]) -> tuple[int, ...]:
    """Act on a vector in fundamental-weight coordinates with each letter in turn.

    s_i is the rank-one update lambda_j -= lambda_i <alpha_i, alpha_j^vee>.
    Read left to right from rho, the letters of a word for w give w^{-1}(rho).
    """
    updates = _rho_updates(datum)
    weight = list(rho)
    for i in letters:
        entry = updates.get(i)
        if entry is None:
            datum.index(i)  # raises the typed unknown-label error
        a, column = entry
        c = weight[a]
        for b, cartan in column:
            weight[b] -= c * cartan
    return tuple(weight)


def _descents(datum: CartanDatum, rho: tuple[int, ...]) -> list[str]:
    """The right descents of the element w with w^{-1}(rho) = rho."""
    return [i for i, x in zip(datum.labels, rho) if x < 0]


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element w as the vector w^{-1}(rho) in fundamental-weight
    coordinates.  rho is regular, so the vector determines w; the right
    descents of w are the labels whose entry is negative."""

    datum: CartanDatum
    rho: tuple[int, ...]

    @classmethod
    def identity(cls, datum: CartanDatum) -> "WeylElement":
        return cls(datum, (1,) * datum.rank)

    @classmethod
    def from_word(cls, datum: CartanDatum, letters: Sequence[str]) -> "WeylElement":
        return cls(datum, _apply(datum, (1,) * datum.rank, letters))

    def times_simple(self, i: str) -> "WeylElement":
        return WeylElement(self.datum, _apply(self.datum, self.rho, (i,)))

    def is_identity(self) -> bool:
        return all(x == 1 for x in self.rho)

    def right_descents(self) -> list[str]:
        return _descents(self.datum, self.rho)

    def length(self) -> int:
        # the walk from w^{-1}(rho) spells a reduced word for w^{-1}
        return len(_greedy_min_word(self.datum, self.rho))


def _greedy_min_word(datum: CartanDatum, image: tuple[int, ...]) -> tuple[str, ...]:
    """Lexicographically least reduced word of the element w with w(rho) = image.

    The first letter of a word for w is a left descent i of w, a negative
    entry of w(rho); s_i w(rho) is then the image of the rest.  Each step
    raises the pairing with rho^vee, so the walk ends, at rho exactly when
    the vector lies on the orbit of rho.
    """
    ordered = [(datum.index(i), i) for i in sorted(datum.labels, key=label_key)]
    letters = []
    while True:
        i = next((i for a, i in ordered if image[a] < 0), None)
        if i is None:
            break
        letters.append(i)
        image = _apply(datum, image, (i,))
    if any(x != 1 for x in image):
        raise WordError("not-a-weyl-element", "descent walk failed to reach identity")
    return tuple(letters)


@lru_cache(maxsize=64)
def longest_element(datum: CartanDatum) -> tuple[WeylElement, int]:
    """w_0 and N = l(w_0): w_0(rho) = -rho."""
    w0 = WeylElement(datum, (-1,) * datum.rank)
    return w0, w0.length()


def word_for_w0(datum: CartanDatum, letters: Sequence[str]) -> Word:
    """Validate that the letters form a reduced word for w_0.

    rho is regular, so a word of length N = l(w_0) multiplies to w_0 exactly
    when it sends rho to w_0(rho) = -rho; the letters compute w^{-1}(rho),
    and w^{-1} = w_0 iff w = w_0.
    """
    letters = tuple(letters)
    _, n = longest_element(datum)
    if len(letters) != n:
        raise WordError(
            "not-reduced", f"expected a word of length {n}, got {len(letters)}"
        )
    if any(x != -1 for x in _apply(datum, (1,) * datum.rank, letters)):
        raise WordError("not-reduced", f"{','.join(letters)} does not multiply to w_0")
    return Word(datum, letters)


@lru_cache(maxsize=64)
def base_word(datum: CartanDatum) -> Word:
    """The canonical base point: the lexicographically least word for w_0."""
    w0, _ = longest_element(datum)
    return Word(datum, _greedy_min_word(datum, w0.rho))  # w_0 is an involution


@lru_cache(maxsize=64)
def reduced_word_for_w0_starting_with(datum: CartanDatum, i: str) -> Word:
    """A reduced word for w_0 with first letter i (greedy completion)."""
    w0, _ = longest_element(datum)
    rest = w0.times_simple(i).rho  # (s_i w_0)(rho) = s_i(-rho)
    return Word(datum, (i,) + _greedy_min_word(datum, rest))


# ---------------------------------------------------------------------------
# Braid moves and the word graph


@lru_cache(maxsize=64)
def _h_table(datum: CartanDatum) -> dict[tuple[str, str], int]:
    """h(i, j) for every ordered pair of distinct labels."""
    return {
        (i, j): h_value(datum, i, j)
        for i in datum.labels
        for j in datum.labels
        if i != j
    }


def _braid_move(datum: CartanDatum, letters: tuple[str, ...], k0: int):
    """The braid move on the segment starting at 0-based position k0, as
    (r, letters after the move), or None when no move starts there."""
    p, q = letters[k0], letters[k0 + 1]
    if p == q:
        return None
    r = _h_table(datum).get((p, q))
    if r is None:
        r = h_value(datum, p, q)  # raises the typed unknown-label error
    half, odd = divmod(r, 2)
    if letters[k0 : k0 + r] != (p, q) * half + (p,) * odd:
        return None  # not alternating, or runs past the end of the word
    return r, letters[:k0] + (q, p) * half + (q,) * odd + letters[k0 + r :]


def braid_neighbors(word: Word) -> list[tuple[Word, int, int]]:
    """All words one braid move away, as (word, position k, move length r).

    Positions are 1-based; the changed segment is k..k+r-1.
    """
    out = []
    for k0 in range(len(word.letters) - 1):
        move = _braid_move(word.datum, word.letters, k0)
        if move is not None:
            r, letters = move
            out.append((Word(word.datum, letters), k0 + 1, r))
    return out


# Holds every word of A4 (768) and D4 (2,316) at once, so repeated path
# searches there stay warm; a search in a larger type cannot grow it further.
_NEIGHBOR_CACHE_SIZE = 4096


@lru_cache(maxsize=_NEIGHBOR_CACHE_SIZE)
def _neighbor_letters(datum: CartanDatum, letters: tuple[str, ...]):
    """The braid neighbours of a word as sorted (letters, k, r) triples:
    the order in which the path search visits them."""
    moves = ((k0 + 1, _braid_move(datum, letters, k0)) for k0 in range(len(letters) - 1))
    return tuple(sorted((move[1], k, move[0]) for k, move in moves if move is not None))


def _count_words(datum: CartanDatum, rho: tuple[int, ...], memo: dict, cap: int) -> int:
    """Number of reduced words of the element w with w^{-1}(rho) = rho.

    A pass of its own before :func:`_collect_words`, so the cap is enforced
    before any word list is built; a merged walk would reach a node past
    the cap only after building its children's lists of up to cap words.
    """
    if rho not in memo:
        descents = _descents(datum, rho)
        total = 0 if descents else 1
        for i in descents:
            total += _count_words(datum, _apply(datum, rho, (i,)), memo, cap)
            if total > cap:
                raise WordError(
                    "cap-exceeded", f"more than {cap} reduced words; raise the cap"
                )
        memo[rho] = total
    return memo[rho]


def _collect_words(datum: CartanDatum, rho: tuple[int, ...], memo: dict) -> tuple:
    if rho not in memo:
        words = tuple(
            prefix + (i,)
            for i in _descents(datum, rho)
            for prefix in _collect_words(datum, _apply(datum, rho, (i,)), memo)
        )
        memo[rho] = words or ((),)  # no descents: the identity and its empty word
    return memo[rho]


@dataclass(frozen=True)
class WordGraph:
    """All reduced words of an element with their braid-move edges."""

    datum: CartanDatum
    vertices: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, int, int, int], ...]  # (index a, index b, k, r)

    def to_dot(self) -> str:
        lines = ["graph words {"]
        for index, letters in enumerate(self.vertices):
            lines.append(f'  v{index} [label="{",".join(letters)}"];')
        for a, b, k, r in self.edges:
            lines.append(f'  v{a} -- v{b} [label="({k},{r})"];')
        lines.append("}")
        return "\n".join(lines)


def enumerate_reduced_words(
    datum: CartanDatum,
    element: Optional[WeylElement] = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> WordGraph:
    """All reduced words of an element (default w_0), with braid edges.

    Depth-first search over length-decreasing suffixes, memoized on the
    vectors of group elements; raises kind ``cap-exceeded`` beyond ``cap``
    words.  The graph is asserted connected.
    """
    if element is None:
        element, _ = longest_element(datum)
    _count_words(datum, element.rho, {}, cap)
    vertices = tuple(sorted(_collect_words(datum, element.rho, {})))
    index = {letters: i for i, letters in enumerate(vertices)}
    edges = set()
    for letters, a in index.items():
        for other, k, r in _neighbor_letters(datum, letters):
            b = index[other]
            edges.add((min(a, b), max(a, b), k, r))
    graph = WordGraph(datum, vertices, tuple(sorted(edges)))
    _assert_connected(graph)
    return graph


def _assert_connected(graph: WordGraph) -> None:
    if not graph.vertices:
        return
    adjacency: dict[int, list[int]] = {i: [] for i in range(len(graph.vertices))}
    for a, b, _, _ in graph.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = {0}
    frontier = [0]
    while frontier:
        a = frontier.pop()
        for b in adjacency[a]:
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    if len(seen) != len(graph.vertices):
        raise WordError("disconnected", "braid-move graph is not connected")


# ---------------------------------------------------------------------------
# Orbit subgroups for folding


@lru_cache(maxsize=64)
def orbit_longest(
    datum: CartanDatum, orbit: tuple[str, ...]
) -> tuple[WeylElement, int, tuple[str, ...]]:
    """Longest element of the parabolic subgroup on an orbit, its length,
    and the canonical reduced word used as the default orbit filling.

    Supported orbit shapes (the ones a valid folding produces): a single
    node (i); pairwise orthogonal nodes, sorted ascending; a joined pair
    {i, i'} with i.i' = -1, as (i, i', i).
    """
    orbit = tuple(sorted(orbit, key=label_key))
    if len(orbit) == 1:
        word = orbit
    elif all(datum.dot(i, j) == 0 for i in orbit for j in orbit if i != j):
        word = orbit
    elif len(orbit) == 2 and datum.dot(orbit[0], orbit[1]) == -1:
        word = (orbit[0], orbit[1], orbit[0])
    else:
        raise WordError(
            "unsupported-orbit",
            f"orbit {orbit} is not a singleton, orthogonal set, or joined pair",
        )
    element = WeylElement.from_word(datum, word)
    return element, len(word), word


def orbit_reduced_words(datum: CartanDatum, orbit: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """All reduced words for the orbit longest element (fillings to range over)."""
    element, _, _ = orbit_longest(datum, orbit)
    graph = enumerate_reduced_words(datum, element)
    return graph.vertices
