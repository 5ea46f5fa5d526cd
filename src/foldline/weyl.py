"""Weyl group elements, reduced words for the longest element, braid moves.

An element w is the vector w^{-1}(rho) in fundamental-weight coordinates,
starting from rho = (1, ..., 1).  Each letter s_i acts by a rank-one
update (``_apply``), so a word of length l costs O(l rank).  rho is
regular, so the vector determines w: the identity is (1, ..., 1), w_0 is
(-1, ..., -1), and the right descents of w are the labels whose entry is
negative.  Least reduced words come from walking down the descents to rho
(``_greedy_min_word``); from -rho the walk spells the base word, whose
length is N = l(w_0).  A word of length N is a reduced word for w_0
exactly when it sends rho to -rho.

Reduced words for w_0 form a graph whose edges are braid moves: replace an
alternating segment (p, p', p, ...) of length h(p, p') by the segment
starting with p'.  By the Iwahori-Tits theorem this graph is connected;
construction asserts it.  Positions in moves are 1-based, matching the
usual notation for places k, k+1, ..., k+r-1 in a word.  The move rule is
defined once, in ``_braid_move``; ``_braid_moves`` lists a word's moves by
it for :func:`braid_neighbors`, the graph's edges and :mod:`foldline.chamber`,
which holds the move checks and all of the braid path search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .cartan import CartanDatum, h_value, label_key
from .errors import WordError

# Largest cap on the reduced words one enumeration lists, and its default:
# B4's 24,024 words take 1.7-2.3 s and 126 MB from the command line.  A5's
# 292,864 took 27 s, and A6's 1.1e9 ran out of memory.
ENUMERATION_LIMIT = 25_000


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


def word_for_w0(datum: CartanDatum, letters: Sequence[str]) -> Word:
    """Validate that the letters form a reduced word for w_0.

    rho is regular, so a word of length N = l(w_0) multiplies to w_0 exactly
    when it sends rho to w_0(rho) = -rho; the letters compute w^{-1}(rho),
    and w^{-1} = w_0 iff w = w_0.
    """
    letters = tuple(letters)
    n = len(base_word(datum).letters)
    if len(letters) != n:
        raise WordError(
            "not-reduced", f"expected a word of length {n}, got {len(letters)}"
        )
    if any(x != -1 for x in _apply(datum, (1,) * datum.rank, letters)):
        raise WordError("not-reduced", f"{','.join(letters)} does not multiply to w_0")
    return Word(datum, letters)


@lru_cache(maxsize=64)
def base_word(datum: CartanDatum) -> Word:
    """The canonical base point: the lexicographically least word for w_0,
    of length N = l(w_0).  w_0(rho) = -rho and w_0 is an involution."""
    return Word(datum, _greedy_min_word(datum, (-1,) * datum.rank))


@lru_cache(maxsize=64)
def reduced_word_for_w0_starting_with(datum: CartanDatum, i: str) -> Word:
    """A reduced word for w_0 with first letter i (greedy completion)."""
    rest = _apply(datum, (-1,) * datum.rank, (i,))  # (s_i w_0)(rho) = s_i(-rho)
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


def _braid_moves(datum: CartanDatum, letters: tuple[str, ...]):
    """Every braid move on letters, as (letters after it, position k, length r)."""
    for k0 in range(len(letters) - 1):
        move = _braid_move(datum, letters, k0)
        if move is not None:
            yield move[1], k0 + 1, move[0]


def braid_neighbors(word: Word) -> list[tuple[Word, int, int]]:
    """All words one braid move away, as (word, position k, move length r).

    Positions are 1-based; the changed segment is k..k+r-1.
    """
    moves = _braid_moves(word.datum, word.letters)
    return [(Word(word.datum, letters), k, r) for letters, k, r in moves]


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
                    "cap-exceeded",
                    f"more than {cap} reduced words; raise the cap (at most {ENUMERATION_LIMIT})",
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


def enumerate_reduced_words(datum: CartanDatum, cap: int = ENUMERATION_LIMIT) -> WordGraph:
    """All reduced words of w_0, with braid edges.

    Depth-first search over length-decreasing suffixes, memoized on the
    vectors of group elements; raises kind ``cap-exceeded`` beyond ``cap``
    words, and kind ``limit`` for a cap above ``ENUMERATION_LIMIT``.  The
    graph is asserted connected.
    """
    if cap > ENUMERATION_LIMIT:
        raise WordError("limit", f"a cap of {cap} words is above {ENUMERATION_LIMIT}")
    w0 = (-1,) * datum.rank
    _count_words(datum, w0, {}, cap)
    vertices = tuple(sorted(_collect_words(datum, w0, {})))
    index = {letters: i for i, letters in enumerate(vertices)}
    edges = set()
    for letters, a in index.items():
        for other, k, r in _braid_moves(datum, letters):
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
def orbit_longest(datum: CartanDatum, orbit: tuple[str, ...]) -> tuple[str, ...]:
    """The canonical reduced word of the longest element of the parabolic
    subgroup on an orbit, used as the default orbit filling.

    Supported orbit shapes (the ones a valid folding produces): a single
    node (i); pairwise orthogonal nodes, sorted ascending; a joined pair
    {i, i'} with i.i' = -1, as (i, i', i).
    """
    orbit = tuple(sorted(orbit, key=label_key))
    if all(datum.dot(i, j) == 0 for i in orbit for j in orbit if i != j):
        return orbit  # a single node, or pairwise orthogonal nodes
    if len(orbit) == 2 and datum.dot(orbit[0], orbit[1]) == -1:
        return (orbit[0], orbit[1], orbit[0])
    raise WordError(
        "unsupported-orbit",
        f"orbit {orbit} is not a singleton, orthogonal set, or joined pair",
    )


def orbit_reduced_words(datum: CartanDatum, orbit: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    """All reduced words for the orbit longest element (fillings to range over)."""
    element = _apply(datum, (1,) * datum.rank, orbit_longest(datum, orbit))
    return tuple(sorted(_collect_words(datum, element, {})))
