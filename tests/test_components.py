"""A decorated word is its own component: reads in place against the
base-word round trips they replace.

The library reads lambda, rho and folded coordinates where a decorated
word is, with one transition.  The references here first move the word
to the base word with ``canonical`` (or to the source base word with
``s_map``) and read from there.  Both routes must give the same values,
with the same printed ``sym`` representatives.
"""

import random
from fractions import Fraction

import pytest

from foldline import chamber, folding
from foldline.cartan import builtin
from foldline.chamber import (
    DecoratedWord,
    canonical,
    lambda_coord,
    rho_coord,
    transition,
)
from foldline.errors import FoldingError
from foldline.folding import (
    compare_models,
    fold_coordinates,
    folded_decorated,
    folded_transition,
    s_map,
    standard_folding,
    unfold,
    verify_chain,
)
from foldline.semifield import (
    RATIONALS,
    TROP_INT,
    TROP_NAT,
    SymbolicSemifield,
    SymRat,
    sym_equal,
)
from foldline.weyl import base_word, enumerate_reduced_words, word_for_w0

DATA = ("A3", "A4", "D4+triality")
MODELS = ("tropz", "tropn", "rat", "sym")
FOLDS = ("a3", "a4", "d4")


def seeded_coords(rng, model, n):
    if model == "tropz":
        return tuple(TROP_INT.from_int(rng.randint(-9, 9)) for _ in range(n))
    if model == "tropn":
        return tuple(TROP_NAT.from_int(rng.randint(0, 9)) for _ in range(n))
    if model == "rat":
        return tuple(RATIONALS.value(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(n))
    sym = SymbolicSemifield(tuple(f"x{k}" for k in range(1, n + 1)))
    return tuple(sym.var(f"x{k}") for k in range(1, n + 1))


def same(new, old):
    """Equal values; sym by sym_equal and by printed representative."""
    if isinstance(new, SymRat):
        return sym_equal(new, old) and str(new) == str(old)
    return new == old


def same_coords(new, old):
    return len(new) == len(old) and all(same(x, y) for x, y in zip(new, old))


def off_base_words(datum, rng, count):
    """Seeded reduced words for w_0 other than the base word."""
    base = base_word(datum).letters
    words = [w for w in enumerate_reduced_words(datum).vertices if w != base]
    return [word_for_w0(datum, letters) for letters in rng.sample(words, count)]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", DATA)
def test_reads_in_place_match_reads_at_the_base_word(name, model):
    datum, _ = builtin(name)
    rng = random.Random(71)
    for word in off_base_words(datum, rng, 2 if model == "sym" else 6):
        dw = DecoratedWord(word, seeded_coords(rng, model, len(word.letters)))
        at_base = canonical(dw)
        assert at_base.word == base_word(datum)
        for i in datum.labels:
            assert same(lambda_coord(dw, i), lambda_coord(at_base, i))
            assert same(rho_coord(dw, i), rho_coord(at_base, i))


def folded_words(fd):
    first = base_word(fd.folded).letters
    return first, first[::-1]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", FOLDS)
def test_fold_coordinates_in_place_matches_base_word(name, model):
    fd = standard_folding(name)
    rng = random.Random(73)
    size = len(base_word(fd.source).letters)
    for letters in folded_words(fd):
        fdw = folded_decorated(fd, letters, seeded_coords(rng, model, len(letters)))
        for word in off_base_words(fd.source, rng, 1 if model == "sym" else 3):
            fixed = transition(unfold(fdw), word)
            for target in folded_words(fd):
                assert same_coords(
                    fold_coordinates(fd, fixed, target).coords,
                    fold_coordinates(fd, canonical(fixed), target).coords,
                )
    if model == "sym":
        return
    # a generic decorated word is not sigma-fixed, read in place or not
    for word in off_base_words(fd.source, rng, 3):
        dw = DecoratedWord(word, seeded_coords(rng, model, size))
        for point in (dw, canonical(dw)):
            with pytest.raises(FoldingError) as error:
                fold_coordinates(fd, point, base_word(fd.folded).letters)
            assert error.value.kind == "not-sigma-fixed"


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("name", FOLDS)
def test_folded_transition_matches_the_base_word_route(name, model):
    fd = standard_folding(name)
    rng = random.Random(79)
    for letters in folded_words(fd):
        for _ in range(1 if model == "sym" else 5):
            fdw = folded_decorated(fd, letters, seeded_coords(rng, model, len(letters)))
            for target in folded_words(fd):
                assert same_coords(
                    folded_transition(fdw, target).coords,
                    fold_coordinates(fd, s_map(fdw), target).coords,
                )


@pytest.fixture
def transition_calls(monkeypatch):
    """Count chamber.transition calls, wherever chamber and folding look it up."""
    calls = []

    def counting(dw, to_word):
        calls.append(to_word)
        return transition(dw, to_word)

    monkeypatch.setattr(chamber, "transition", counting)
    monkeypatch.setattr(folding, "transition", counting)
    return calls


def test_one_transition_per_folded_transition(transition_calls):
    for name in FOLDS:
        fd = standard_folding(name)
        first, last = folded_words(fd)
        coords = seeded_coords(random.Random(83), "rat", len(first))
        before = len(transition_calls)
        folding.folded_transition(folded_decorated(fd, first, coords), last)
        assert len(transition_calls) - before == 1, name


@pytest.mark.parametrize("chain_id", folding.CHAIN_IDS)
def test_two_transitions_per_chain(transition_calls, chain_id):
    assert verify_chain(chain_id).ok
    assert len(transition_calls) == 2


def test_two_transitions_per_model_comparison(transition_calls):
    sym = SymbolicSemifield(("a", "b", "c", "d"))
    coords = tuple(sym.var(name) for name in ("d", "c", "b", "a"))
    assert compare_models(coords)["ok"]
    assert len(transition_calls) == 2
