"""Weyl group elements, reduced words for the longest element, braid moves.

Elements are integer matrices acting on the root lattice in the basis of
simple roots: s_i sends alpha_j to alpha_j - (2 i.j / i.i) alpha_i.  In
finite type every root image has coordinates of one sign, so descent tests
reduce to a sign check and lengths are computed by walking down to the
identity.  The longest element w_0 is found by greedy ascent.

A word of length N = l(w_0) is checked to be a reduced word for w_0 without
any matrix: rho is regular, so the word multiplies to w_0 exactly when it
sends rho to -rho, and each letter acts on fundamental-weight coordinates by
a rank-one update, O(N rank) in all.  The matrices remain for the longest
element, the enumeration of reduced words and the brute-force word-count
oracle in :mod:`foldline.checks`.

Reduced words for w_0 form a graph whose edges are braid moves: replace an
alternating segment (p, p', p, ...) of length h(p, p') by the segment
starting with p'.  By the Iwahori-Tits theorem this graph is connected;
construction asserts it.  Positions in moves are 1-based, matching the
usual notation for places k, k+1, ..., k+r-1 in a word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .cartan import CartanDatum, h_value, label_key
from .errors import WordError

Matrix = tuple[tuple[int, ...], ...]

DEFAULT_ENUMERATION_CAP = 10**6


@lru_cache(maxsize=None)
def _identity(rank: int) -> Matrix:
    return tuple(tuple(int(a == b) for b in range(rank)) for a in range(rank))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


@lru_cache(maxsize=None)
def simple_reflection_matrix(datum: CartanDatum, i: str) -> Matrix:
    """Matrix of s_i: columns are images of the simple roots."""
    n = datum.rank
    idx = datum.index(i)
    rows = [[int(a == b) for b in range(n)] for a in range(n)]
    for j, label in enumerate(datum.labels):
        rows[idx][j] -= datum.cartan_integer(i, label)
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class WeylElement:
    """A Weyl group element as its root-lattice matrix."""

    datum: CartanDatum
    matrix: Matrix

    @classmethod
    def identity(cls, datum: CartanDatum) -> "WeylElement":
        return cls(datum, _identity(datum.rank))

    @classmethod
    def simple(cls, datum: CartanDatum, i: str) -> "WeylElement":
        return cls(datum, simple_reflection_matrix(datum, i))

    @classmethod
    def from_word(cls, datum: CartanDatum, letters: Sequence[str]) -> "WeylElement":
        out = _identity(datum.rank)
        for i in letters:
            out = _mat_mul(out, simple_reflection_matrix(datum, i))
        return cls(datum, out)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(self.datum, _mat_mul(self.matrix, other.matrix))

    def times_simple(self, i: str) -> "WeylElement":
        return WeylElement(
            self.datum, _mat_mul(self.matrix, simple_reflection_matrix(self.datum, i))
        )

    def is_identity(self) -> bool:
        return self.matrix == _identity(self.datum.rank)

    def sends_root_negative(self, i: str) -> bool:
        """True iff this element maps alpha_i to a negative root."""
        idx = self.datum.index(i)
        return any(row[idx] < 0 for row in self.matrix)

    def right_descents(self) -> list[str]:
        return [i for i in self.datum.labels if self.sends_root_negative(i)]

    def length(self) -> int:
        return _length(self.datum, self.matrix)


@lru_cache(maxsize=None)
def _length(datum: CartanDatum, matrix: Matrix) -> int:
    element = WeylElement(datum, matrix)
    steps = 0
    while not element.is_identity():
        descents = element.right_descents()
        if not descents:
            raise WordError("not-a-weyl-element", "descent walk failed to reach identity")
        element = element.times_simple(descents[0])
        steps += 1
    return steps


@lru_cache(maxsize=None)
def longest_element(datum: CartanDatum) -> tuple[WeylElement, int]:
    """w_0 and N = l(w_0), by greedy ascent from the identity."""
    element = WeylElement.identity(datum)
    length = 0
    while True:
        ascent = next(
            (i for i in datum.labels if not element.sends_root_negative(i)), None
        )
        if ascent is None:
            return element, length
        element = element.times_simple(ascent)
        length += 1


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


def word_for_w0(datum: CartanDatum, letters: Sequence[str]) -> Word:
    """Validate that the letters form a reduced word for w_0.

    rho is regular, so a word of length N = l(w_0) multiplies to w_0 exactly
    when it sends rho to w_0(rho) = -rho.  The letters act on rho = (1, ..., 1)
    in fundamental-weight coordinates, where s_i is the rank-one update
    lambda_j -= lambda_i <alpha_i, alpha_j^vee>; the letters are read left to
    right, which computes w^{-1}(rho), and w^{-1} = w_0 iff w = w_0.
    """
    letters = tuple(letters)
    _, n = longest_element(datum)
    if len(letters) != n:
        raise WordError(
            "not-reduced", f"expected a word of length {n}, got {len(letters)}"
        )
    updates = _rho_updates(datum)
    weight = [1] * datum.rank
    for i in letters:
        entry = updates.get(i)
        if entry is None:
            datum.index(i)  # raises the typed unknown-label error
        a, column = entry
        c = weight[a]
        for b, cartan in column:
            weight[b] -= c * cartan
    if any(x != -1 for x in weight):
        raise WordError("not-reduced", f"{','.join(letters)} does not multiply to w_0")
    return Word(datum, letters)


def _greedy_min_word(datum: CartanDatum, inverse: WeylElement) -> tuple[str, ...]:
    """Lexicographically least reduced word of the element inverse^{-1}.

    The first letter of a word for w is a left descent of w, i.e. a right
    descent of w^{-1}; choosing the minimum and stepping keeps everything
    on the inverse side where descents are cheap.
    """
    ordered = sorted(datum.labels, key=label_key)
    letters = []
    while not inverse.is_identity():
        i = next(x for x in ordered if inverse.sends_root_negative(x))
        letters.append(i)
        inverse = inverse.times_simple(i)
    return tuple(letters)


@lru_cache(maxsize=None)
def base_word(datum: CartanDatum) -> Word:
    """The canonical base point: the lexicographically least word for w_0."""
    w0, _ = longest_element(datum)
    return Word(datum, _greedy_min_word(datum, w0))  # w_0 is an involution


@lru_cache(maxsize=None)
def reduced_word_for_w0_starting_with(datum: CartanDatum, i: str) -> Word:
    """A reduced word for w_0 with first letter i (greedy completion)."""
    datum.index(i)
    w0, _ = longest_element(datum)
    rest_inverse = w0.times_simple(i)  # (s_i w_0)^{-1} = w_0 s_i
    return Word(datum, (i,) + _greedy_min_word(datum, rest_inverse))


# ---------------------------------------------------------------------------
# Braid moves and the word graph


def braid_neighbors(word: Word) -> list[tuple[Word, int, int]]:
    """All words one braid move away, as (word, position k, move length r).

    Positions are 1-based; the changed segment is k..k+r-1.
    """
    datum = word.datum
    letters = word.letters
    out = []
    n = len(letters)
    for k0 in range(n - 1):
        p, q = letters[k0], letters[k0 + 1]
        if p == q:
            continue
        r = h_value(datum, p, q)
        if k0 + r > n:
            continue
        segment = letters[k0 : k0 + r]
        expected = tuple(p if t % 2 == 0 else q for t in range(r))
        if segment != expected:
            continue
        swapped = tuple(q if t % 2 == 0 else p for t in range(r))
        new_letters = letters[:k0] + swapped + letters[k0 + r :]
        out.append((Word(datum, new_letters), k0 + 1, r))
    return out


@lru_cache(maxsize=None)
def _neighbor_letters(datum: CartanDatum, letters: tuple[str, ...]):
    return tuple(
        (w.letters, k, r) for w, k, r in braid_neighbors(Word(datum, letters))
    )


def _count_words(datum: CartanDatum, matrix: Matrix, memo: dict, cap: int) -> int:
    if matrix in memo:
        return memo[matrix]
    element = WeylElement(datum, matrix)
    if element.is_identity():
        memo[matrix] = 1
        return 1
    total = 0
    for i in element.right_descents():
        total += _count_words(datum, element.times_simple(i).matrix, memo, cap)
        if total > cap:
            raise WordError(
                "cap-exceeded", f"more than {cap} reduced words; raise the cap"
            )
    memo[matrix] = total
    return total


def _collect_words(datum: CartanDatum, matrix: Matrix, memo: dict) -> tuple:
    if matrix in memo:
        return memo[matrix]
    element = WeylElement(datum, matrix)
    if element.is_identity():
        memo[matrix] = ((),)
        return memo[matrix]
    words = []
    for i in element.right_descents():
        for prefix in _collect_words(datum, element.times_simple(i).matrix, memo):
            words.append(prefix + (i,))
    memo[matrix] = tuple(words)
    return memo[matrix]


@dataclass(frozen=True)
class WordGraph:
    """All reduced words of an element with their braid-move edges."""

    datum: CartanDatum
    vertices: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, int, int, int], ...]  # (index a, index b, k, r)

    def word(self, index: int) -> Word:
        return Word(self.datum, self.vertices[index])

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

    Depth-first search over length-decreasing suffixes, memoized on group
    elements; raises kind ``cap-exceeded`` beyond ``cap`` words.  The graph
    is asserted connected.
    """
    if element is None:
        element, _ = longest_element(datum)
    _count_words(datum, element.matrix, {}, cap)
    vertices = tuple(sorted(_collect_words(datum, element.matrix, {})))
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


@lru_cache(maxsize=None)
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
