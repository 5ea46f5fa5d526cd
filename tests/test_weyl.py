"""Weyl group elements, reduced-word enumeration, braid moves."""

import itertools
import random

import pytest

from foldline import chamber, checks, weyl
from foldline.cartan import builtin, fold, h_value
from foldline.errors import DatumError, WordError
from foldline.folding import standard_folding
from foldline.weyl import (
    _apply,
    _descents,
    _greedy_min_word,
    base_word,
    braid_neighbors,
    enumerate_reduced_words,
    orbit_longest,
    orbit_reduced_words,
    reduced_word_for_w0_starting_with,
    word_for_w0,
)


def _one(datum):
    """The identity element: the vector rho = (1, ..., 1)."""
    return (1,) * datum.rank


def _w0(datum):
    """w_0: the vector -rho."""
    return (-1,) * datum.rank


class TestLongestElement:
    @pytest.mark.parametrize(
        "name, n",
        [("A2", 3), ("A3", 6), ("A4", 10), ("B:n=2", 4), ("Dstyle:n=2", 6)],
    )
    def test_lengths(self, name, n):
        datum, _ = builtin(name)
        base = base_word(datum).letters
        assert len(base) == n
        assert len(_greedy_min_word(datum, _w0(datum))) == n
        assert _apply(datum, _one(datum), base) == _w0(datum)
        assert _apply(datum, _one(datum), base + base) == _one(datum)  # w_0 w_0 = 1

    def test_g2_length(self):
        fd = fold(*builtin("D4+triality"))
        assert len(base_word(fd.folded)) == 6

    def test_generator_involution(self):
        datum, _ = builtin("A3")
        one = _one(datum)
        for i in datum.labels:
            s = _apply(datum, one, (i,))
            assert s != one and _descents(datum, s) == [i]
            assert _apply(datum, s, (i,)) == one
            assert _apply(datum, one, (i, i)) == one

    def test_length_is_minimal_word_length(self):
        """Brute force over all short words: length = least realizing length."""
        datum, _ = builtin("A2")
        shortest = {}
        for length in range(0, 4):
            for letters in itertools.product(datum.labels, repeat=length):
                rho = _apply(datum, _one(datum), letters)
                shortest.setdefault(rho, length)
        assert len(shortest) == 6
        for rho, length in shortest.items():
            assert len(_greedy_min_word(datum, rho)) == length


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
        n = len(base_word(datum))
        oracle = sum(
            1
            for letters in itertools.product(datum.labels, repeat=n)
            if _negates_every_root(checks._word_matrix(datum, letters))
        )
        assert len(graph.vertices) == oracle == checks.brute_force_word_count("A3") == 16

    def test_b2_words(self):
        datum, _ = builtin("B:n=2")
        graph = enumerate_reduced_words(datum)
        assert graph.vertices == (("1", "2", "1", "2"), ("2", "1", "2", "1"))
        (edge,) = graph.edges
        assert edge[2:] == (1, 4)

    def test_every_word_multiplies_to_w0(self):
        datum, _ = builtin("A3")
        n = len(base_word(datum))
        for letters in enumerate_reduced_words(datum).vertices:
            assert len(letters) == n
            assert _apply(datum, _one(datum), letters) == _w0(datum)
            assert _negates_every_root(checks._word_matrix(datum, letters))

    def test_cap(self):
        datum, _ = builtin("A4")
        with pytest.raises(WordError) as error:
            enumerate_reduced_words(datum, cap=100)
        assert error.value.kind == "cap-exceeded"

    def test_enumeration_limit(self):
        """B4's 24,024 words fit under the default cap, the limit itself;
        a larger cap is refused before any counting."""
        datum, _ = builtin("B:n=4")
        assert len(enumerate_reduced_words(datum).vertices) == 24_024 <= weyl.ENUMERATION_LIMIT
        with pytest.raises(WordError) as error:
            enumerate_reduced_words(builtin("A6")[0], cap=weyl.ENUMERATION_LIMIT + 1)
        assert error.value.kind == "limit"

    def test_base_word(self):
        datum, _ = builtin("A3")
        assert base_word(datum).letters == ("1", "2", "1", "3", "2", "1")
        assert base_word(datum).letters == min(enumerate_reduced_words(datum).vertices)

    def test_dot_export(self):
        datum, _ = builtin("A2")
        dot = enumerate_reduced_words(datum).to_dot()
        assert '"(1,3)"' in dot and "1,2,1" in dot


def reference_braid_neighbors(datum, letters):
    """The braid move rule spelled out position by position: (letters, k, r)."""
    out = []
    for k0 in range(len(letters) - 1):
        p, q = letters[k0], letters[k0 + 1]
        if p == q:
            continue
        r = h_value(datum, p, q)
        if k0 + r > len(letters):
            continue
        if letters[k0 : k0 + r] != tuple(p if t % 2 == 0 else q for t in range(r)):
            continue
        swapped = tuple(q if t % 2 == 0 else p for t in range(r))
        out.append((letters[:k0] + swapped + letters[k0 + r :], k0 + 1, r))
    return out


class TestBraidMoves:
    @pytest.mark.parametrize("name", ["A3", "A4", "D4+triality", "B:n=2", "B:n=3"])
    def test_neighbors_match_the_reference_rule(self, name):
        """braid_neighbors keeps the reference order; the path search's
        table holds the same moves, sorted.  Listing the words leaves that
        table alone: a B4 listing would push its 24,024 words through it."""
        datum, _ = builtin(name)
        before = chamber._neighbor_letters.cache_info()
        words = enumerate_reduced_words(datum).vertices
        assert chamber._neighbor_letters.cache_info() == before
        for letters in words:
            expected = reference_braid_neighbors(datum, letters)
            word = word_for_w0(datum, letters)
            assert [(w.letters, k, r) for w, k, r in braid_neighbors(word)] == expected
            assert chamber._neighbor_letters(datum, letters) == tuple(sorted(expected))

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
        for letters in enumerate_reduced_words(datum).vertices:
            for word, _, _ in braid_neighbors(word_for_w0(datum, letters)):
                assert _apply(datum, _one(datum), word.letters) == _w0(datum)

    def test_not_reduced_rejected(self):
        datum, _ = builtin("A2")
        with pytest.raises(WordError) as error:
            word_for_w0(datum, ("1", "1", "2"))
        assert error.value.kind == "not-reduced"
        assert str(error.value) == "1,1,2 does not multiply to w_0"


class TestOrbits:
    def test_singleton(self):
        datum, _ = builtin("Dstyle:n=2")
        word = orbit_longest(datum, ("1",))
        assert (len(word), word) == (1, ("1",))

    def test_commuting_pair(self):
        datum, _ = builtin("Dstyle:n=2")
        word = orbit_longest(datum, ("2", "2'"))
        assert (len(word), word) == (2, ("2", "2'"))
        assert orbit_reduced_words(datum, ("2", "2'")) == (("2", "2'"), ("2'", "2"))

    def test_joined_pair(self):
        datum, _ = builtin("A4+flip")
        word = orbit_longest(datum, ("2", "3"))
        assert (len(word), word) == (3, ("2", "3", "2"))
        assert set(orbit_reduced_words(datum, ("2", "3"))) == {
            ("2", "3", "2"),
            ("3", "2", "3"),
        }

    def test_triality_orbit(self):
        datum, _ = builtin("D4+triality")
        word = orbit_longest(datum, ("1", "3", "4"))
        assert len(word) == 3 and word == ("1", "3", "4")

    def test_unsupported_orbit(self):
        datum, _ = builtin("A3")
        with pytest.raises(WordError) as error:
            orbit_longest(datum, ("1", "2", "3"))
        assert error.value.kind == "unsupported-orbit"

    def test_folded_subgroup_identification(self):
        """w_1bar w_2bar w_1bar w_2bar equals w_0 in the D-style source."""
        datum, _ = builtin("Dstyle:n=2")
        w1 = orbit_longest(datum, ("1",))
        w2 = orbit_longest(datum, ("2", "2'"))
        assert _apply(datum, _one(datum), w1 + w2 + w1 + w2) == _w0(datum)

    def test_unfolded_length_is_additive(self):
        fd = fold(*builtin("A4+flip"))
        n_folded = len(base_word(fd.folded))
        blocks = {eta: len(orbit_longest(fd.source, fd.orbit_of(eta))) for eta in fd.folded.labels}
        assert n_folded == 4 and blocks == {"1": 2, "2": 3}
        assert len(base_word(fd.source)) == 2 * blocks["1"] + 2 * blocks["2"]

    @pytest.mark.parametrize("name", ["Dstyle:n=2", "A4+flip", "D4+triality"])
    def test_orbit_words_against_brute_force(self, name):
        """Every word of the orbit word's length, over all labels, whose rho
        image is the orbit element's is one of its reduced words."""
        fd = fold(*builtin(name))
        datum = fd.source
        for orbit in fd.orbits:
            word = orbit_longest(datum, orbit)
            image = _apply(datum, _one(datum), word)
            brute = {
                letters
                for letters in itertools.product(datum.labels, repeat=len(word))
                if _apply(datum, _one(datum), letters) == image
            }
            assert set(orbit_reduced_words(datum, orbit)) == brute
            assert len(orbit_reduced_words(datum, orbit)) == len(brute)


def _negates_every_root(matrix):
    """True iff the root-lattice matrix sends every simple root negative,
    which only w_0 does."""
    return all(any(x < 0 for x in column) for column in zip(*matrix))


def _matrix_check(datum, letters):
    """The matrix-product reference for word_for_w0."""
    n = len(base_word(datum))
    return len(letters) == n and _negates_every_root(checks._word_matrix(datum, letters))


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
        n = len(base_word(datum))
        accepted = 0
        for letters in itertools.product(datum.labels, repeat=n):
            expected = _matrix_check(datum, letters)
            assert _rho_check(datum, letters) == expected, letters
            accepted += expected
        assert accepted == len(enumerate_reduced_words(datum).vertices)

    @pytest.mark.parametrize("name", ["A4", "D4+triality"])
    def test_seeded_random_and_transposed(self, name):
        datum, _ = builtin(name)
        n = len(base_word(datum))
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


class TestRhoVector:
    """An element is its vector w^{-1}(rho); root-lattice matrices are the reference."""

    @pytest.mark.parametrize(
        "datum, order",
        [(builtin("A3")[0], 24), (builtin("B:n=2")[0], 8), (standard_folding("d4").folded, 12)],
        ids=["A3", "B:n=2", "folded-d4"],
    )
    def test_walk_reaches_the_group(self, datum, order):
        distance = {_one(datum): 0}
        frontier = list(distance)
        while frontier:
            following = []
            for element in frontier:
                for i in datum.labels:
                    step = _apply(datum, element, (i,))
                    if step not in distance:
                        distance[step] = distance[element] + 1
                        following.append(step)
            frontier = following
        assert len(distance) == order
        for element, least in distance.items():
            assert len(_greedy_min_word(datum, element)) == least
        assert max(distance.values()) == len(base_word(datum))

    @pytest.mark.parametrize("name", ["A3", "B:n=2"])
    def test_equality_and_descents_agree_with_matrices(self, name):
        datum, _ = builtin(name)
        pairs = set()
        for length in range(5):
            for letters in itertools.product(datum.labels, repeat=length):
                element = _apply(datum, _one(datum), letters)
                matrix = checks._word_matrix(datum, letters)
                pairs.add((element, matrix))
                negative = [i for i, column in zip(datum.labels, zip(*matrix))
                            if any(x < 0 for x in column)]
                assert _descents(datum, element) == negative
        assert len({rho for rho, _ in pairs}) == len(pairs)
        assert len({matrix for _, matrix in pairs}) == len(pairs)

    def test_off_orbit_vector_rejected(self):
        datum, _ = builtin("A2")
        for rho in ((0, 1), (2, 1), (3, -1)):
            with pytest.raises(WordError) as error:
                _greedy_min_word(datum, rho)
            assert error.value.kind == "not-a-weyl-element"

    def test_oracle_uses_no_weyl_machinery(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle must not use foldline.weyl")

        monkeypatch.setattr(weyl, "_apply", refuse)
        monkeypatch.setattr(weyl, "base_word", refuse)
        monkeypatch.setattr(checks, "base_word", refuse)
        assert [checks.brute_force_word_count(name) for name in ("A2", "B:n=2", "A3")] == [
            2, 2, 16,
        ]
