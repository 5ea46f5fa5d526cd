"""Weyl group elements, reduced-word enumeration, braid moves."""

import itertools
import random

import pytest

from foldline import chamber, checks, monoid
from foldline.cartan import builtin, fold
from foldline.errors import DatumError, WordError
from foldline.folding import standard_folding
from foldline.semifield import TropNat
from foldline.weyl import (
    WeylElement,
    base_word,
    braid_neighbors,
    enumerate_reduced_words,
    longest_element,
    orbit_longest,
    orbit_reduced_words,
    reduced_word_for_w0_starting_with,
    word_for_w0,
)


class TestLongestElement:
    @pytest.mark.parametrize(
        "name, n",
        [("A2", 3), ("A3", 6), ("A4", 10), ("B:n=2", 4), ("Dstyle:n=2", 6)],
    )
    def test_lengths(self, name, n):
        datum, _ = builtin(name)
        w0, length = longest_element(datum)
        assert length == n
        assert w0.length() == n
        assert (w0 * w0).is_identity()

    def test_g2_length(self):
        fd = fold(*builtin("D4+triality"))
        assert longest_element(fd.folded)[1] == 6

    def test_generator_involution(self):
        datum, _ = builtin("A3")
        for i in datum.labels:
            s = WeylElement.simple(datum, i)
            assert (s * s).is_identity()

    def test_length_is_minimal_word_length(self):
        """Brute force over all short words: length = least realizing length."""
        datum, _ = builtin("A2")
        shortest = {}
        for length in range(0, 4):
            for letters in itertools.product(datum.labels, repeat=length):
                matrix = WeylElement.from_word(datum, letters).matrix
                shortest.setdefault(matrix, length)
        assert len(shortest) == 6
        for matrix, length in shortest.items():
            assert WeylElement(datum, matrix).length() == length


class TestWordsStartingWith:
    def test_a2(self):
        datum, _ = builtin("A2")
        assert reduced_word_for_w0_starting_with(datum, "1").letters == ("1", "2", "1")
        assert reduced_word_for_w0_starting_with(datum, "2").letters == ("2", "1", "2")

    def test_b2(self):
        datum, _ = builtin("B:n=2")
        assert reduced_word_for_w0_starting_with(datum, "1").letters == ("1", "2", "1", "2")

    def test_always_reduced(self):
        datum, _ = builtin("A4")
        for i in datum.labels:
            word = reduced_word_for_w0_starting_with(datum, i)
            assert word.letters[0] == i
            word_for_w0(datum, word.letters)  # validates


class TestEnumeration:
    def test_a2(self):
        datum, _ = builtin("A2")
        graph = enumerate_reduced_words(datum)
        assert graph.vertices == (("1", "2", "1"), ("2", "1", "2"))
        assert len(graph.edges) == 1

    def test_a3_against_brute_force(self):
        datum, _ = builtin("A3")
        graph = enumerate_reduced_words(datum)
        w0, n = longest_element(datum)
        oracle = sum(
            1
            for letters in itertools.product(datum.labels, repeat=n)
            if WeylElement.from_word(datum, letters).matrix == w0.matrix
        )
        assert len(graph.vertices) == oracle == 16

    def test_b2_words(self):
        datum, _ = builtin("B:n=2")
        graph = enumerate_reduced_words(datum)
        assert graph.vertices == (("1", "2", "1", "2"), ("2", "1", "2", "1"))
        (edge,) = graph.edges
        assert edge[2:] == (1, 4)

    def test_every_word_multiplies_to_w0(self):
        datum, _ = builtin("A3")
        w0, n = longest_element(datum)
        for letters in enumerate_reduced_words(datum).vertices:
            assert len(letters) == n
            assert WeylElement.from_word(datum, letters).matrix == w0.matrix

    def test_cap(self):
        datum, _ = builtin("A4")
        with pytest.raises(WordError) as error:
            enumerate_reduced_words(datum, cap=100)
        assert error.value.kind == "cap-exceeded"

    def test_base_word(self):
        datum, _ = builtin("A3")
        assert base_word(datum).letters == ("1", "2", "1", "3", "2", "1")
        assert base_word(datum).letters == min(enumerate_reduced_words(datum).vertices)

    def test_dot_export(self):
        datum, _ = builtin("A2")
        dot = enumerate_reduced_words(datum).to_dot()
        assert '"(1,3)"' in dot and "1,2,1" in dot


class TestBraidMoves:
    def test_a2_neighbors(self):
        datum, _ = builtin("A2")
        word = word_for_w0(datum, ("1", "2", "1"))
        assert [(w.letters, k, r) for w, k, r in braid_neighbors(word)] == [
            (("2", "1", "2"), 1, 3)
        ]

    def test_a3_neighbor_example(self):
        datum, _ = builtin("A3")
        word = word_for_w0(datum, ("1", "2", "1", "3", "2", "1"))
        results = {w.letters: (k, r) for w, k, r in braid_neighbors(word)}
        assert results[("2", "1", "2", "3", "2", "1")] == (1, 3)

    def test_b2_neighbors(self):
        datum, _ = builtin("B:n=2")
        word = word_for_w0(datum, ("1", "2", "1", "2"))
        assert [(w.letters, k, r) for w, k, r in braid_neighbors(word)] == [
            (("2", "1", "2", "1"), 1, 4)
        ]

    def test_moves_preserve_element(self):
        datum, _ = builtin("A3")
        w0, _ = longest_element(datum)
        for letters in enumerate_reduced_words(datum).vertices:
            for word, _, _ in braid_neighbors(word_for_w0(datum, letters)):
                assert WeylElement.from_word(datum, word.letters).matrix == w0.matrix

    def test_not_reduced_rejected(self):
        datum, _ = builtin("A2")
        with pytest.raises(WordError) as error:
            word_for_w0(datum, ("1", "1", "2"))
        assert error.value.kind == "not-reduced"
        assert str(error.value) == "1,1,2 does not multiply to w_0"


class TestOrbits:
    def test_singleton(self):
        datum, _ = builtin("Dstyle:n=2")
        element, n, word = orbit_longest(datum, ("1",))
        assert (n, word) == (1, ("1",))

    def test_commuting_pair(self):
        datum, _ = builtin("Dstyle:n=2")
        element, n, word = orbit_longest(datum, ("2", "2'"))
        assert (n, word) == (2, ("2", "2'"))
        assert orbit_reduced_words(datum, ("2", "2'")) == (("2", "2'"), ("2'", "2"))

    def test_joined_pair(self):
        datum, _ = builtin("A4+flip")
        element, n, word = orbit_longest(datum, ("2", "3"))
        assert (n, word) == (3, ("2", "3", "2"))
        assert set(orbit_reduced_words(datum, ("2", "3"))) == {
            ("2", "3", "2"),
            ("3", "2", "3"),
        }

    def test_triality_orbit(self):
        datum, _ = builtin("D4+triality")
        element, n, word = orbit_longest(datum, ("1", "3", "4"))
        assert n == 3 and word == ("1", "3", "4")

    def test_unsupported_orbit(self):
        datum, _ = builtin("A3")
        with pytest.raises(WordError) as error:
            orbit_longest(datum, ("1", "2", "3"))
        assert error.value.kind == "unsupported-orbit"

    def test_folded_subgroup_identification(self):
        """w_1bar w_2bar w_1bar w_2bar equals w_0 in the D-style source."""
        datum, _ = builtin("Dstyle:n=2")
        w1 = orbit_longest(datum, ("1",))[0]
        w2 = orbit_longest(datum, ("2", "2'"))[0]
        assert (w1 * w2 * w1 * w2).matrix == longest_element(datum)[0].matrix

    def test_unfolded_length_is_additive(self):
        fd = fold(*builtin("A4+flip"))
        n_folded = longest_element(fd.folded)[1]
        blocks = {eta: orbit_longest(fd.source, fd.orbit_of(eta))[1] for eta in fd.folded.labels}
        assert n_folded == 4 and blocks == {"1": 2, "2": 3}
        assert longest_element(fd.source)[1] == 2 * blocks["1"] + 2 * blocks["2"]


def _matrix_check(datum, letters):
    """The matrix-product reference for word_for_w0."""
    w0, n = longest_element(datum)
    return len(letters) == n and WeylElement.from_word(datum, letters).matrix == w0.matrix


def _rho_check(datum, letters):
    try:
        word_for_w0(datum, letters)
    except WordError as error:
        assert error.kind == "not-reduced"
        return False
    return True


class TestRhoCheck:
    """word_for_w0 acts on rho; the Weyl matrix product is the reference."""

    @pytest.mark.parametrize(
        "datum",
        [
            builtin("A2")[0],
            builtin("A3")[0],
            builtin("B:n=2")[0],
            standard_folding("a3").folded,
            standard_folding("a4").folded,
            standard_folding("d4").folded,
        ],
        ids=["A2", "A3", "B:n=2", "folded-a3", "folded-a4", "folded-d4"],
    )
    def test_exhaustive_at_length_n(self, datum):
        _, n = longest_element(datum)
        accepted = 0
        for letters in itertools.product(datum.labels, repeat=n):
            expected = _matrix_check(datum, letters)
            assert _rho_check(datum, letters) == expected, letters
            accepted += expected
        assert accepted == len(enumerate_reduced_words(datum).vertices)

    @pytest.mark.parametrize("name", ["A4", "D4+triality"])
    def test_seeded_random_and_transposed(self, name):
        datum, _ = builtin(name)
        _, n = longest_element(datum)
        rng = random.Random(4)
        reduced = enumerate_reduced_words(datum).vertices
        samples = [tuple(rng.choice(datum.labels) for _ in range(n)) for _ in range(300)]
        for letters in rng.sample(reduced, 150):
            k = rng.randrange(n - 1)
            samples.append(letters[:k] + (letters[k + 1], letters[k]) + letters[k + 2 :])
        samples += rng.sample(reduced, 50)
        outcomes = set()
        for letters in samples:
            expected = _matrix_check(datum, letters)
            assert _rho_check(datum, letters) == expected, letters
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_unknown_label(self):
        datum, _ = builtin("A2")
        with pytest.raises(DatumError) as error:
            word_for_w0(datum, ("1", "9", "1"))
        assert error.value.kind == "unknown-label"
        assert str(error.value) == "unknown node label '9'"

    def test_wrong_length_message(self):
        datum, _ = builtin("A2")
        with pytest.raises(WordError) as error:
            word_for_w0(datum, ("1", "2"))
        assert error.value.kind == "not-reduced"
        assert str(error.value) == "expected a word of length 3, got 2"

    def test_hot_paths_build_no_matrices(self, monkeypatch):
        """Word validation in chamber, folding and monoid multiplies no matrices;
        the brute-force oracle still does."""
        fd = standard_folding("a4")
        coords = (1, 0, 2, 1)
        letters = ("1", "2", "1", "2")
        monoid.folded_mul(fd, coords, coords, letters)  # fills the per-orbit caches
        calls = []
        original = WeylElement.from_word.__func__

        def counting(cls, datum, word):
            calls.append(tuple(word))
            return original(cls, datum, word)

        monkeypatch.setattr(WeylElement, "from_word", classmethod(counting))
        a3, _ = builtin("A3")
        chamber.decorated(a3, base_word(a3).letters, [TropNat(1)] * 6)
        monoid.normal_form(a3, base_word(a3).letters, [1] * 6)
        monoid.folded_mul(fd, coords, coords, letters)  # unfold and fold_coordinates
        assert calls == []
        assert checks.brute_force_word_count("A2") == 2
        assert calls
