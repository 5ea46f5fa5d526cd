"""Unfolding decorated words across a diagram folding.

A folded decorated word attaches coordinates to a reduced word for the
longest element of a folded datum, spelled in orbit labels.  Unfolding
expands every orbit letter eta into a reduced word of the orbit's
parabolic longest element (its *filling*) and spreads the coordinate over
the block: a letter repeated in the filling keeps the coordinate, a letter
appearing once under a repeated neighbor receives its double (the 2-fold
sum).  Concretely, a singleton or pairwise-orthogonal orbit with
coordinate c expands to c on every letter, and a joined pair {i, i'}
expands (i, i', i) to (c, 2c, c).

The component of the unfolding does not depend on the filling and is
sigma-fixed.  Reading the blocks back off any target folded word inverts
unfolding, and the block pattern holds there exactly at the sigma-fixed
components.  So a transition map between folded words is one transition
in the source datum: unfold, move to the unfolded target word, read the
blocks.  A folded component is its folded decorated word at the folded
base word (:func:`folded_canonical`).  Reversal commutes with unfolding
(a reversed filling is again a filling), so the last coordinate at a
folded word is the first coordinate of the reversed folded word.

A bounded cache validates each folded word, its default unfolding and its
block layout once.  One block rule, spread and read back, serves semifield
values and the raw tropical ints of :func:`foldline.monoid.folded_mul`.

For the rank-two folded datum with pairing matrix
((2,-2),(-2,4)) the full transition has a closed form: with coordinates
(d, c, b, a) on the word (2,1,2,1),

    alpha = ab + ad + cd,  eps = ab^2 + ad^2 + cd^2 + 2abd,
    (d', c', b', a') = (ab^2 c / eps, eps / alpha, alpha^2 / eps, bcd / alpha)

on the word (1,2,1,2), with the tropicalized min-plus form alongside.
Two embedded move-by-move certificates verify this closed form over the
symbolic semifield, once through each simply laced source model; the two
models induce the same folded transition maps, which
:func:`compare_models` checks directly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from typing import Optional, Sequence

from . import chamber
from .cartan import FoldedDatum, builtin, fold
from .chamber import DecoratedWord, canonical, transition
from .errors import FoldingError, FoldlineError
from .exprs import parse_value
from .semifield import SemifieldValue, SymbolicSemifield, TropInt
from .weyl import Word, base_word, orbit_longest, orbit_reduced_words, word_for_w0
from .weyl import reduced_word_for_w0_starting_with

Filling = tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class FoldedDecoratedWord:
    """A reduced word for the folded longest element with coordinates."""

    fold: FoldedDatum
    letters: tuple[str, ...]
    coords: tuple[SemifieldValue, ...]

    def __post_init__(self):
        _unfolding(self.fold, self.letters)
        if len(self.coords) != len(self.letters):
            raise FoldingError(
                "coords-length",
                f"{len(self.letters)} letters but {len(self.coords)} coordinates",
            )
        models = {value.model for value in self.coords}
        if len(models) > 1:
            raise FoldingError("coords-model", "coordinates must share one semifield model")

    def __str__(self) -> str:
        return " ".join(f"{e}^{c}" for e, c in zip(self.letters, self.coords))


def folded_decorated(
    fd: FoldedDatum, letters: Sequence[str], coords
) -> FoldedDecoratedWord:
    return FoldedDecoratedWord(fd, tuple(letters), tuple(coords))


def default_filling(fd: FoldedDatum, letters: Sequence[str]) -> Filling:
    """The canonical orbit word at every position."""
    return tuple(orbit_longest(fd.source, fd.orbit_of(eta)) for eta in letters)


def validate_filling(fd: FoldedDatum, letters: Sequence[str], filling: Filling) -> None:
    if len(filling) != len(letters):
        raise FoldingError("bad-filling", "one orbit word is needed per position")
    for eta, orbit_word in zip(letters, filling):
        orbit = fd.orbit_of(eta)
        if tuple(orbit_word) not in orbit_reduced_words(fd.source, orbit):
            raise FoldingError(
                "bad-filling",
                f"{orbit_word} is not a reduced word for the orbit {orbit}",
            )


def block_epsilons(orbit_word: Sequence[str]) -> tuple[tuple[int, ...], int]:
    """Per-letter repetition counts inside one orbit word, and their max."""
    counts = tuple(orbit_word.count(h) for h in orbit_word)
    return counts, max(counts)


def _blocks(fd: FoldedDatum, filling: Filling) -> tuple[Word, tuple]:
    """The unfolded source word of a filling and its block layout: per
    block, which letters carry the 2-fold sum of the folded coordinate, and
    the position the coordinate is read back from (maximal epsilon)."""
    word = word_for_w0(fd.source, [i for orbit_word in filling for i in orbit_word])
    layout = []
    for orbit_word in filling:
        eps_each, eps_max = block_epsilons(orbit_word)
        # the only ratio that occurs is eps_max/eps in {1, 2}
        layout.append((tuple(eps != eps_max for eps in eps_each), eps_each.index(eps_max)))
    return word, tuple(layout)


# A fixed bound, as for chamber._program: one entry per (folded datum, word).
_UNFOLDING_CACHE_SIZE = 1024


@lru_cache(maxsize=_UNFOLDING_CACHE_SIZE)
def _unfolding(fd: FoldedDatum, letters: tuple[str, ...]) -> tuple[Word, Word, tuple, tuple]:
    """The validated folded word, its default unfolding, its block layout
    and the layout's gather indices (spread, read): the block of each
    unfolded position, and the unfolded position each block is read at."""
    folded = word_for_w0(fd.folded, letters)
    word, layout = _blocks(fd, default_filling(fd, folded.letters))
    spread = tuple(b for b, (doubled, _) in enumerate(layout) for _ in doubled)
    read = tuple(spread.index(b) + read_at for b, (_, read_at) in enumerate(layout))
    return folded, word, layout, (spread, read)


def _spread(value, block) -> list:
    """A folded coordinate over its block, doubled where the block says.
    A plain int is tropical, as in chamber.transport: its 2-fold sum is itself."""
    doubled, _ = block
    twice = 2 * value if type(value) is not int and True in doubled else value
    return [twice if double else value for double in doubled]


def _read_blocks(coords: Sequence, layout) -> list:
    """One value per block; not-sigma-fixed unless each block is its value spread."""
    values, offset = [], 0
    for block in layout:
        doubled, read_at = block
        entries = coords[offset : offset + len(doubled)]
        offset += len(doubled)
        if any(x != y for x, y in zip(entries, _spread(entries[read_at], block))):
            raise FoldingError("not-sigma-fixed", "can only fold sigma-fixed components")
        values.append(entries[read_at])
    return values


def unfold(
    fdw: FoldedDecoratedWord, filling: Optional[Filling] = None
) -> DecoratedWord:
    """Expand a folded decorated word into the simply laced source datum."""
    fd = fdw.fold
    if filling is None:
        _, word, layout, _ = _unfolding(fd, fdw.letters)
    else:
        validate_filling(fd, fdw.letters, filling)
        word, layout = _blocks(fd, filling)
    coords = [c for value, block in zip(fdw.coords, layout) for c in _spread(value, block)]
    return DecoratedWord(word, tuple(coords))


def s_map(fdw: FoldedDecoratedWord, filling: Optional[Filling] = None) -> DecoratedWord:
    """The component of the unfolding, at the source base word.

    It does not depend on the filling.
    """
    return canonical(unfold(fdw, filling))


def all_fillings(fd: FoldedDatum, letters: Sequence[str]):
    """Iterate over every valid filling of a folded word."""
    from itertools import product

    choices = [orbit_reduced_words(fd.source, fd.orbit_of(eta)) for eta in letters]
    yield from product(*choices)


def fold_coordinates(
    fd: FoldedDatum, dw: DecoratedWord, letters: Sequence[str]
) -> FoldedDecoratedWord:
    """Read the folded coordinates of a sigma-fixed component at a folded word.

    dw is a decorated word of the source datum at any word.  Transition it
    to the unfolded target word, then read one coordinate per block and
    check the block pattern (constant on orthogonal orbits, (c, 2c, c) on
    a joined pair).  The pattern alone decides sigma-fixedness: where it
    holds the component is the s_map image of the coordinates read, and
    every sigma-fixed component has it, so one transition does the work of
    both.
    """
    folded, word, layout, _ = _unfolding(fd, tuple(letters))
    if dw.datum != fd.source:
        raise FoldingError("datum-mismatch", "decorated word belongs to a different datum")
    coords = _read_blocks(transition(dw, word).coords, layout)
    return FoldedDecoratedWord(fd, folded.letters, tuple(coords))


def folded_transition(
    fdw: FoldedDecoratedWord, to_letters: Sequence[str]
) -> FoldedDecoratedWord:
    """Transport folded coordinates to another folded word (unfold, move, read)."""
    return fold_coordinates(fdw.fold, unfold(fdw), to_letters)


def folded_canonical(fdw: FoldedDecoratedWord) -> FoldedDecoratedWord:
    """The component of a folded decorated word: its coordinates at the folded base word."""
    return folded_transition(fdw, base_word(fdw.fold.folded).letters)


def lambda_folded(fdw: FoldedDecoratedWord, eta: str) -> SemifieldValue:
    """First coordinate at a folded word starting with eta (well defined)."""
    target = reduced_word_for_w0_starting_with(fdw.fold.folded, eta)
    return folded_transition(fdw, target.letters).coords[0]


def rho_folded(fdw: FoldedDecoratedWord, eta: str) -> SemifieldValue:
    """Last coordinate at a folded word ending with eta: lambda_eta of the reversal."""
    reversal = FoldedDecoratedWord(fdw.fold, fdw.letters[::-1], fdw.coords[::-1])
    return lambda_folded(reversal, eta)


# ---------------------------------------------------------------------------
# The rank-two closed form


def b2_closed_form(coords: Sequence[SemifieldValue]) -> tuple[SemifieldValue, ...]:
    """Closed-form transition (2,1,2,1) -> (1,2,1,2) for the folded B2 datum.

    Input coordinates are read positionally as (d, c, b, a); works in any
    semifield (the 2abd term is a 2-fold sum), though the tropical models
    also have the direct min-plus form :func:`b2_tropical`.
    """
    if len(coords) != 4:
        raise FoldingError("bad-coords", "the closed form takes four coordinates")
    d, c, b, a = coords
    alpha = a * b + a * d + c * d
    eps = a * b**2 + a * d**2 + c * d**2 + 2 * (a * b * d)
    return (a * b**2 * c / eps, eps / alpha, alpha**2 / eps, b * c * d / alpha)


def b2_tropical(coords: Sequence[TropInt]) -> tuple[TropInt, ...]:
    """Min-plus closed form on (d, c, b, a), written directly on integers.

    Independent of the semifield machinery on purpose: it is the oracle
    the generic route is checked against.  The guard
    a + b + d >= min(a + 2b, a + 2d) (always true) keeps the minima equal
    to the tropicalized polynomials.
    """
    if len(coords) != 4:
        raise FoldingError("bad-coords", "the closed form takes four coordinates")
    if not all(isinstance(value, TropInt) for value in coords):
        raise FoldingError("bad-coords", "tropical closed form needs tropical values")
    model = coords[0].model
    d, c, b, a = (value.n for value in coords)
    if a + b + d < min(a + 2 * b, a + 2 * d):
        raise FoldingError("closed-form-guard", "a + b + d < min(a + 2b, a + 2d)")
    m1 = min(a + b, a + d, c + d)
    m2 = min(a + 2 * b, a + 2 * d, c + 2 * d)
    out = (a + 2 * b + c - m2, m2 - m1, 2 * m1 - m2, b + c + d - m1)
    return tuple(model.from_int(n) for n in out)


# ---------------------------------------------------------------------------
# Embedded move-by-move certificates


@dataclass(frozen=True)
class ChainStep:
    line: int  # 1-based index of the earlier line of the pair
    position: int
    r: int
    ok: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "line": self.line,
            "positions": list(range(self.position, self.position + self.r)),
            "move_r": self.r,
            "ok": self.ok,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class ChainCertificate:
    chain_id: str
    steps: tuple[ChainStep, ...]
    closed_form_ok: bool
    closed_form_detail: str
    notes: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return self.closed_form_ok and all(step.ok for step in self.steps)

    def to_json(self) -> dict:
        return {
            "id": self.chain_id,
            "ok": self.ok,
            "steps": [step.to_json() for step in self.steps],
            "closed_form": {"ok": self.closed_form_ok, "detail": self.closed_form_detail},
            "notes": list(self.notes),
        }


CHAIN_IDS = ("b2-from-a3", "b2-from-a4")


def load_chain_data(chain_id: str) -> dict:
    if chain_id not in CHAIN_IDS:
        raise FoldingError("unknown-chain", f"unknown chain id {chain_id!r}")
    name = f"chain_{chain_id.replace('-', '_')}.json"
    text = resources.files("foldline.data").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


def _chain_lines_to_decorated(data: dict):
    datum, sigma = builtin(data["builtin"])
    fd = fold(datum, sigma)
    model = SymbolicSemifield(tuple(data["variables"]))
    env = model.vars()
    for name, expression in data.get("abbreviations", {}).items():
        env[name] = parse_value(expression, model, env)
    # a line repeats most of the one before it: parse each expression once
    parsed: dict[str, SemifieldValue] = {}
    lines = []
    for row in data["lines"]:
        for _, expression in row:
            if expression not in parsed:
                parsed[expression] = parse_value(expression, model, env)
        letters = tuple(letter for letter, _ in row)
        coords = tuple(parsed[expression] for _, expression in row)
        lines.append(DecoratedWord(word_for_w0(datum, letters), coords))
    return fd, lines


def _identify_move(before: DecoratedWord, after: DecoratedWord) -> tuple[int, int]:
    """Position and length of the single braid move between two lines."""
    diffs = [
        index
        for index, (p, q) in enumerate(zip(before.word.letters, after.word.letters))
        if p != q
    ]
    if not diffs:
        raise FoldingError("bad-chain", "consecutive lines have identical words")
    k0, k1 = diffs[0], diffs[-1]
    if diffs != list(range(k0, k1 + 1)):
        raise FoldingError("bad-chain", "lines differ on a non-contiguous segment")
    return k0 + 1, k1 - k0 + 1


def verify_chain_data(data: dict) -> ChainCertificate:
    """Check every consecutive pair of lines and the closed-form endpoints."""
    fd, lines = _chain_lines_to_decorated(data)
    steps = []
    for index in range(len(lines) - 1):
        before, after = lines[index], lines[index + 1]
        try:
            k, r = _identify_move(before, after)
            moved = chamber.apply_move(before, k, r)
            if moved.word.letters != after.word.letters:
                step = ChainStep(index + 1, k, r, False, "letters do not match the move")
            else:
                bad = [
                    pos + 1
                    for pos, (x, y) in enumerate(zip(moved.coords, after.coords))
                    if x != y
                ]
                if bad:
                    step = ChainStep(
                        index + 1, k, r, False, f"coordinates differ at {bad}"
                    )
                else:
                    step = ChainStep(index + 1, k, r, True)
        except FoldlineError as error:
            step = ChainStep(index + 1, 0, 0, False, f"{error.kind}: {error}")
        steps.append(step)
    try:
        first = fold_coordinates(fd, lines[0], tuple(data["folded_words"]["first"]))
        last = fold_coordinates(fd, lines[-1], tuple(data["folded_words"]["last"]))
        if data["closed_form_input"] == "first":
            source, target, direction = first, last, "first -> last"
        else:
            source, target, direction = last, first, "last -> first"
        expected = b2_closed_form(source.coords)
        closed_ok = all(x == y for x, y in zip(expected, target.coords))
        detail = f"closed form applied to the {data['closed_form_input']} line ({direction})"
        if not closed_ok:
            detail += ": mismatch"
    except FoldlineError as error:
        closed_ok = False
        detail = f"endpoint is not a valid unfolding ({error.kind}: {error})"
    return ChainCertificate(
        data["id"], tuple(steps), closed_ok, detail, tuple(data.get("notes", ()))
    )


def verify_chain(chain_id: str) -> ChainCertificate:
    """Verify one of the embedded certificates by id."""
    return verify_chain_data(load_chain_data(chain_id))


# ---------------------------------------------------------------------------
# Cross-model comparison


@lru_cache(maxsize=64)
def standard_folding(model_name: str) -> FoldedDatum:
    """The two foldings producing the rank-two datum ((2,-2),(-2,4)),
    plus the triality folding producing ((6,-3),(-3,2))."""
    sources = {"a3": "Dstyle:n=2", "a4": "A4+flip", "d4": "D4+triality"}
    try:
        datum, sigma = builtin(sources[model_name])
    except KeyError:
        raise FoldingError("unknown-model", f"unknown folding model {model_name!r}") from None
    return fold(datum, sigma)


def compare_models(coords: Sequence[SemifieldValue]) -> dict:
    """Transport (d, c, b, a) across the word flip (2,1,2,1) -> (1,2,1,2)
    through both simply laced models and the closed form; report agreement.

    Realizes the canonical bijection between the two sigma-fixed component
    sets at the level of transition maps.
    """
    coords = tuple(coords)
    start, goal = ("2", "1", "2", "1"), ("1", "2", "1", "2")
    results = {}
    for name in ("a3", "a4"):
        fd = standard_folding(name)
        out = folded_transition(folded_decorated(fd, start, coords), goal)
        results[name] = out.coords
    closed = b2_closed_form(coords)
    agree_models = all(x == y for x, y in zip(results["a3"], results["a4"]))
    agree_closed = all(x == y for x, y in zip(results["a3"], closed))
    return {
        "via_a3": results["a3"],
        "via_a4": results["a4"],
        "closed_form": closed,
        "models_agree": agree_models,
        "closed_form_agrees": agree_closed,
        "ok": agree_models and agree_closed,
    }
