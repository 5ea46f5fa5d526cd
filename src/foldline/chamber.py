"""Decorated reduced words and transition maps between them.

A decorated word attaches a vector of semifield coordinates to a reduced
word for w_0 of a simply laced datum.  Two elementary moves rewrite a
decorated word in place:

* a 2-move swaps adjacent letters with orthogonal nodes and swaps their
  coordinates;
* a 3-move rewrites a segment (p, p', p) with p.p' = -1 as (p', p, p') and
  maps the coordinates (x, y, z) to (yz/(x+z), x+z, xy/(x+z)).

Both moves are involutions.  Transporting coordinates along any braid-move
path between two words defines the transition map; the result does not
depend on the path (path independence is certified by the symbolic checks
in :mod:`foldline.checks`), so a connected component of the decorated-word
graph is parametrized by its coordinates at any one word.  A decorated word
is therefore also its component: :func:`canonical` moves it to the datum's
base word, where two components are equal exactly when their coordinates
are, and the reads :func:`lambda_coord`, :func:`rho_coord` and
:func:`is_sigma_fixed` take a decorated word at any word and move it once.

Reversing a decorated word (its letters and its coordinates) commutes with
both moves, and the reverse of a reduced word for w_0 is again one, since
w_0 is an involution.  So the last coordinate at an i-last word is the
first coordinate of the reversed decorated word at an i-first word, and
:func:`rho_coord` is read that way.

Coordinates move in one place, the kernel ``_run``: one loop over a
program, a flat tuple of ints (``k0`` for a 2-move at 0-based position k0,
``~k0`` for a 3-move), moving plain ints by (min, +, -) for the tropical
models and other values by their own ``+ * /``.  :func:`apply_move` checks
its move and runs a one-move program; :func:`transport` and
:func:`transition` run a word pair's program, and replaying
:func:`move_path` through :func:`apply_move` gives the move-by-move trace.
The path search is one block: BFS (``_bfs_path``) over a bounded table of
each word's braid neighbours (``_neighbor_letters``, by the move rule of
:mod:`foldline.weyl`), smallest first.  A word pair has one path, found
from the smaller word (plain tuple order) and checked move by move in both
directions once; both moves are involutions at their position, so the
other direction runs it reversed.  ``_program`` caches both directions.

Paths need not be shortest, since the result does not depend on them.
``_constructive`` builds Tits' constructive path (J. Tits, *Le problème
des mots dans les groupes de Coxeter*, 1969), with no search: it brings
the goal's letters to the front one at a time, checks every move, and
stops at ``ROUTE_MOVE_LIMIT`` moves.  ``_compile`` turns int programs into
one straight-line function, in which a 2-move only renames two locals.
Only :mod:`foldline.monoid` uses these two; :func:`transport`,
:func:`transition` and :func:`move_path` keep the BFS paths.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .cartan import CartanDatum, DiagramAutomorphism, h_value
from .errors import WordError
from .semifield import SemifieldValue, TropInt
from .weyl import Word, _braid_move, _braid_moves, _h_table, base_word, word_for_w0
from .weyl import reduced_word_for_w0_starting_with


@dataclass(frozen=True)
class DecoratedWord:
    """A reduced word for w_0 with one semifield coordinate per letter."""

    word: Word
    coords: tuple[SemifieldValue, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.word.letters):
            raise WordError(
                "coords-length",
                f"{len(self.word.letters)} letters but {len(self.coords)} coordinates",
            )
        models = {value.model for value in self.coords}
        if len(models) > 1:
            raise WordError("coords-model", "coordinates must share one semifield model")

    @property
    def datum(self) -> CartanDatum:
        return self.word.datum

    def __str__(self) -> str:
        return " ".join(
            f"{i}^{c}" for i, c in zip(self.word.letters, self.coords)
        )


def decorated(datum: CartanDatum, letters: Sequence[str], coords) -> DecoratedWord:
    """Validate and build a decorated word."""
    return DecoratedWord(word_for_w0(datum, letters), tuple(coords))


def _check_move(datum: CartanDatum, letters: tuple[str, ...], k: int, r: int):
    """Validate the braid move (k, r) on letters; returns the letters after it."""
    if type(k) is not int or type(r) is not int:
        raise WordError("invalid-move", f"a move is two ints (k, r), got ({k!r}, {r!r})")
    if r not in (2, 3):
        raise WordError("invalid-move", f"elementary moves have r in {{2, 3}}, got {r}")
    if k < 1 or k + r - 1 > len(letters):
        raise WordError("invalid-move", f"move ({k}, {r}) does not fit the word")
    move = _braid_move(datum, letters, k - 1)
    if move is None or move[0] != r:
        raise WordError("invalid-move", f"no braid move of length {r} at position {k}")
    return move[1]


def _run(program: tuple[int, ...], values: list) -> list:
    """Run a program on a list in place, and return it: the only code that
    moves coordinates.  Plain ints move by (min, +, -), others by +, *, /."""
    tropical = bool(values) and type(values[0]) is int
    for op in program:
        if op >= 0:
            values[op], values[op + 1] = values[op + 1], values[op]
            continue
        k0 = ~op
        k1, k2 = k0 + 1, k0 + 2  # indexed, not sliced: slicing costs more than the arithmetic
        x, y, z = values[k0], values[k1], values[k2]
        if tropical:
            s = x if x < z else z
            values[k0], values[k1], values[k2] = y + z - s, s, x + y - s
        else:
            s = x + z
            values[k0], values[k1], values[k2] = y * z / s, s, x * y / s
    return values


# Most moves one route may hold: one constructive path, or the walk of one
# generator string.  6000 3-moves compile in 0.23 s with an 85 MB peak RSS;
# real routes are mostly swaps, and every monoid command on every A and
# D-style builtin up to rank 64 answers or ends in kind limit within 0.5 s
# and 30 MB.
ROUTE_MOVE_LIMIT = 6000

# Most coordinates a compiled route takes.  Compiling costs about 4 us per
# coordinate (its parameters and its return), and a larger datum's routes
# run only a few times under the limits, so ``_run`` runs them instead.
_COMPILE_SIZE = 256


def _constructive(
    datum: CartanDatum, start: tuple[str, ...], goal: tuple[str, ...]
) -> tuple[int, ...]:
    """Tits' constructive braid path from start to a word beginning with
    goal (the goal word itself when goal is a whole word), as a program.

    goal's letters come to the front one at a time.  To bring letter i to
    position t of a suffix that starts with j != i, first bring the
    alternating word (j, i, j, ...) of length h(i, j) there, then apply one
    braid move; a stack of (t, i, next s) frames stands for that recursion.
    Every move is checked on its segment, so a move costs O(h), not O(N).
    """
    _require_simply_laced(datum)
    h = _h_table(datum)
    letters, program = list(start), []
    for place in enumerate(goal):
        stack = [(*place, 1)]
        while stack:
            t, i, s = stack.pop()
            j = letters[t]
            if j == i:
                continue
            r = h.get((i, j)) or h_value(datum, i, j)  # h_value: typed unknown-label
            if s < r:
                stack += ((t, i, s + 1), (t + s, i if s % 2 else j, 1))
                continue
            letters[t : t + r] = _check_move(datum, tuple(letters[t : t + r]), 1, r)
            program.append(t if r == 2 else ~t)
            if len(program) > ROUTE_MOVE_LIMIT:
                raise WordError("limit", f"a route needs more than {ROUTE_MOVE_LIMIT} moves")
    if tuple(letters[: len(goal)]) != tuple(goal):
        raise WordError("invalid-move", "the move path does not end at the goal word")
    return tuple(program)


def _compile(size: int, steps, exponents: int = 0):
    """Int programs on size coordinates as one function.

    steps holds (program, k) pairs: run the program, then, unless k is
    None, min the exponent n_k into the first coordinate.  The function
    takes (v0, ..., v<size-1>, n0, ..., n<exponents-1>) and returns the
    coordinates as a tuple.  It is straight-line code: locals v0... hold
    the coordinates, a 2-move only renames two of them here, and a 3-move
    is one min line and one tuple assignment; the source holds those names
    and ints, nothing else.  Past ``_COMPILE_SIZE`` coordinates it is a
    loop of ``_run`` instead.
    """
    bounded, moves = [], 0
    for program, k in steps:
        moves += len(program)
        if moves > ROUTE_MOVE_LIMIT:
            raise WordError("limit", f"a route needs more than {ROUTE_MOVE_LIMIT} moves")
        bounded.append((program, k))
    if size > _COMPILE_SIZE:

        def interpreted(*args):
            values, n = list(args[:size]), args[size:]
            for program, k in bounded:
                _run(program, values)
                if k is not None and n[k] < values[0]:
                    values[0] = n[k]
            return tuple(values)

        return interpreted
    local = list(range(size))  # local[p]: the local holding position p
    lines = []
    for program, k in bounded:
        for op in program:
            if op >= 0:
                local[op], local[op + 1] = local[op + 1], local[op]
                continue
            x, y, z = (f"v{a}" for a in local[~op : ~op + 3])
            lines.append(f" s = {x} if {x} < {z} else {z}")
            lines.append(f" {x}, {y}, {z} = {y} + {z} - s, s, {x} + {y} - s")
        if k is not None:
            first = f"v{local[0]}"
            lines.append(f" if n{k} < {first}: {first} = n{k}")
    names = [f"v{a}" for a in range(size)] + [f"n{k}" for k in range(exponents)]
    result = "".join(f"v{a}," for a in local)
    source = "\n".join([f"def run({','.join(names)}):", *lines, f" return ({result})"])
    namespace: dict = {}
    exec(compile(source, "<route>", "exec"), {"__builtins__": {}}, namespace)
    return namespace["run"]


def apply_move(dw: DecoratedWord, k: int, r: int) -> DecoratedWord:
    """Apply the braid move at 1-based position k with length r in {2, 3}."""
    new_letters = _check_move(dw.datum, dw.word.letters, k, r)
    new_coords = _run((k - 1 if r == 2 else ~(k - 1),), list(dw.coords))
    return DecoratedWord(Word(dw.datum, new_letters), tuple(new_coords))


def _require_simply_laced(datum: CartanDatum) -> None:
    if not datum.simply_laced:
        raise WordError(
            "not-simply-laced",
            "coordinate moves are defined on simply laced data; fold instead",
        )


# Most words one braid path search may visit. Every word of A4 (768) and
# D4 (2,316) fits, so every pair there answers; a far pair in A5 or D5
# ends in kind limit in about a second instead of minutes and gigabytes.
BFS_WORD_LIMIT = 20_000

# Holds every word of A4 (768) and D4 (2,316) at once, so repeated path
# searches there stay warm; a search in a larger type cannot grow it further.
_NEIGHBOR_CACHE_SIZE = 4096


@lru_cache(maxsize=_NEIGHBOR_CACHE_SIZE)
def _neighbor_letters(datum: CartanDatum, letters: tuple[str, ...]):
    """The braid neighbours of a word as sorted (letters, k, r) triples:
    the order in which the path search visits them."""
    return tuple(sorted(_braid_moves(datum, letters)))


def _bfs_path(
    datum: CartanDatum, start: tuple[str, ...], goal: tuple[str, ...]
) -> tuple[tuple[int, int], ...]:
    """A braid-move path start -> goal as (k, r) pairs, via BFS."""
    if start == goal:
        return ()
    parents: dict[tuple[str, ...], tuple[tuple[str, ...], int, int] | None] = {start: None}
    queue = deque([start])
    while queue:
        if len(parents) > BFS_WORD_LIMIT:
            raise WordError(
                "limit", f"the braid path search visited more than {BFS_WORD_LIMIT} words"
            )
        current = queue.popleft()
        for letters, k, r in _neighbor_letters(datum, current):
            if letters in parents:
                continue
            parents[letters] = (current, k, r)
            if letters == goal:
                path = []
                while letters != start:
                    letters, k, r = parents[letters]
                    path.append((k, r))
                return tuple(reversed(path))
            queue.append(letters)
    raise WordError("disconnected", "words are not connected by braid moves")


# A fixed bound, so a stream of new word pairs cannot grow the cache forever.
_PROGRAM_CACHE_SIZE = 1024


@lru_cache(maxsize=_PROGRAM_CACHE_SIZE)
def _program(
    datum: CartanDatum, start: tuple[str, ...], goal: tuple[str, ...]
) -> tuple[int, ...]:
    """The BFS path start -> goal as a flat program, found from the smaller
    word of the pair.

    Each op is k0 (a 2-move at 0-based position k0) or ~k0 (a 3-move).
    Every move is its own inverse at the same position, so the reversed
    program leads goal -> start; both directions are checked move by move
    here, once per word pair, and the other direction is the reversal.
    """
    if goal < start:
        return _program(datum, goal, start)[::-1]
    _require_simply_laced(datum)
    path = _bfs_path(datum, start, goal)
    for letters, end, moves in ((start, goal, path), (goal, start, path[::-1])):
        for k, r in moves:
            letters = _check_move(datum, letters, k, r)
        if letters != end:
            raise WordError("invalid-move", "the move path does not end at the goal word")
    return tuple(k - 1 if r == 2 else ~(k - 1) for k, r in path)


def move_path(
    datum: CartanDatum, start: tuple[str, ...], goal: tuple[str, ...]
) -> tuple[tuple[int, int], ...]:
    """The braid-move path between two reduced words, as 1-based (k, r) pairs."""
    program = _program(datum, tuple(start), tuple(goal))
    return tuple((~op + 1, 3) if op < 0 else (op + 1, 2) for op in program)


def transport(
    datum: CartanDatum, start: Sequence[str], goal: Sequence[str], values: Sequence
) -> list:
    """Move one value per letter of start to goal along the compiled path.

    Plain ints are tropical coordinates and move with (min, +, -); any
    other values move with their own +, *, /.  Both words must be reduced
    words for w_0 of the datum.
    """
    start = tuple(start)
    program = _program(datum, start, tuple(goal))
    out = list(values)
    if len(out) != len(start):
        raise WordError(
            "coords-length", f"{len(start)} letters but {len(out)} coordinates"
        )
    return _run(program, out)


def transition(dw: DecoratedWord, to_word: Word) -> DecoratedWord:
    """Transport coordinates from dw.word to to_word along braid moves."""
    datum = dw.datum
    _require_simply_laced(datum)
    if to_word.datum != datum:
        raise WordError("datum-mismatch", "target word belongs to a different datum")
    program = _program(datum, dw.word.letters, to_word.letters)
    coords = dw.coords
    if coords and isinstance(coords[0], TropInt):
        # moves keep naturals natural; the TropNat wrap still checks the range
        moved = _run(program, [c.n for c in coords])
        return DecoratedWord(to_word, tuple(map(type(coords[0]), moved)))
    return DecoratedWord(to_word, tuple(_run(program, list(coords))))


def canonical(dw: DecoratedWord) -> DecoratedWord:
    """The component of a decorated word: its decorated word at the base word."""
    return transition(dw, base_word(dw.datum))


def lambda_coord(dw: DecoratedWord, i: str) -> SemifieldValue:
    """First coordinate of the component at any word starting with i."""
    return transition(dw, reduced_word_for_w0_starting_with(dw.datum, i)).coords[0]


def rho_coord(dw: DecoratedWord, i: str) -> SemifieldValue:
    """Last coordinate at any word ending with i: lambda_i of the reversal."""
    return lambda_coord(DecoratedWord(dw.word.reversed(), dw.coords[::-1]), i)


def sigma_action(dw: DecoratedWord, sigma: DiagramAutomorphism) -> DecoratedWord:
    """Relabel the letters by sigma, keeping coordinates."""
    return DecoratedWord(
        Word(dw.datum, sigma.apply_word(dw.word.letters)), dw.coords
    )


def is_sigma_fixed(dw: DecoratedWord, sigma: DiagramAutomorphism) -> bool:
    """True iff sigma maps the component of dw to itself."""
    return transition(sigma_action(dw, sigma), dw.word).coords == dw.coords
