"""Transition maps against an independent oracle: products of one-parameter
subgroups in a minuscule representation.

A decorated word (i_1^{t_1} ... i_N^{t_N}) names the unipotent element
x_{i_1}(t_1) ... x_{i_N}(t_N), and a transition map changes the word
without changing the element.  In a minuscule representation every weight
space is a line and e_i sends the weight mu to mu + alpha_i exactly when
<mu, alpha_i^vee> = -1, so e_i is a 0/1 matrix with e_i^2 = 0 and
x_i(t) = 1 + t e_i.  These matrices satisfy the Serre relations, so they
represent the unipotent group, faithfully for the weights chosen here.
The oracle is built from the pairing matrix alone: it uses no braid path
and no move code.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from foldline.cartan import builtin
from foldline.chamber import DecoratedWord, transition
from foldline.folding import folded_decorated, folded_transition, standard_folding, unfold
from foldline.semifield import RATIONALS
from foldline.weyl import base_word, enumerate_reduced_words, word_for_w0

# the node of the minuscule fundamental weight of each datum
MINUSCULE_NODE = {
    "A3": "1",
    "A4": "2",
    "D4+triality": "1",
    "Dstyle:n=2": "2",  # the a3 folding's source, A3 with 1 in the middle
    "A4+flip": "2",
}


def raising_operators(datum, node):
    """e_i for every node i, as {column: row} maps on the W-orbit of omega_node."""
    labels = datum.labels
    alpha = {i: tuple(datum.dot(i, j) for j in labels) for i in labels}
    omega = tuple(int(j == node) for j in labels)
    orbit, frontier = {omega}, [omega]
    while frontier:
        mu = frontier.pop()
        for k, i in enumerate(labels):
            reflected = tuple(m - mu[k] * a for m, a in zip(mu, alpha[i]))
            if reflected not in orbit:
                orbit.add(reflected)
                frontier.append(reflected)
    assert all(abs(m) <= 1 for mu in orbit for m in mu), "the weight is not minuscule"
    index = {mu: n for n, mu in enumerate(sorted(orbit))}
    raising = {}
    for k, i in enumerate(labels):
        raising[i] = {
            index[mu]: index[tuple(m + a for m, a in zip(mu, alpha[i]))]
            for mu in orbit
            if mu[k] == -1
        }
    return raising, len(orbit)


def product(raising, dim, letters, values):
    """The matrix of x_{i_1}(t_1) ... x_{i_N}(t_N)."""
    matrix = [[Fraction(int(r == c)) for c in range(dim)] for r in range(dim)]
    for i, t in zip(letters, values):
        # right multiplication by 1 + t e_i adds t * (column c of M) to column e_i(c)
        for c, target in raising[i].items():
            for row in matrix:
                row[target] += t * row[c]
    return matrix


def element(oracle, dw):
    raising, dim = oracle
    return product(raising, dim, dw.word.letters, [c.q for c in dw.coords])


def perturbed(dw, k):
    """dw, plain or folded, with 1/7 added to its k-th coordinate."""
    coords = list(dw.coords)
    coords[k] = coords[k] + RATIONALS.value(Fraction(1, 7))
    return replace(dw, coords=tuple(coords))


def seeded_rationals(rng, n):
    return tuple(RATIONALS.value(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in range(n))


@pytest.mark.parametrize("name, dimension", [("A3", 4), ("A4", 10), ("D4+triality", 8)])
def test_minuscule_dimensions(name, dimension):
    datum, _ = builtin(name)
    raising, dim = raising_operators(datum, MINUSCULE_NODE[name])
    assert dim == dimension
    for i in datum.labels:
        # e_i^2 = 0: no weight is raised twice by the same alpha_i
        assert not set(raising[i]) & set(raising[i].values())


@pytest.mark.parametrize("name", ("A3", "A4", "D4+triality"))
def test_transitions_keep_the_product(name):
    datum, _ = builtin(name)
    oracle = raising_operators(datum, MINUSCULE_NODE[name])
    rng = random.Random(97)
    base = base_word(datum)
    words = enumerate_reduced_words(datum).vertices
    for _ in range(30):
        dw = DecoratedWord(base, seeded_rationals(rng, len(base.letters)))
        moved = transition(dw, word_for_w0(datum, rng.choice(words)))
        assert element(oracle, moved) == element(oracle, dw)
        k = rng.randrange(len(moved.coords))
        assert element(oracle, perturbed(moved, k)) != element(oracle, dw)


@pytest.mark.parametrize("model", ("a3", "a4", "d4"))
def test_folded_transition_keeps_the_unfolded_product(model):
    fd = standard_folding(model)
    source = next(name for name in MINUSCULE_NODE if builtin(name)[0] == fd.source)
    oracle = raising_operators(fd.source, MINUSCULE_NODE[source])
    letters = base_word(fd.folded).letters
    fdw = folded_decorated(fd, letters, seeded_rationals(random.Random(101), len(letters)))
    out = folded_transition(fdw, letters[::-1])
    assert element(oracle, unfold(out)) == element(oracle, unfold(fdw))
    assert element(oracle, unfold(perturbed(out, 1))) != element(oracle, unfold(fdw))
