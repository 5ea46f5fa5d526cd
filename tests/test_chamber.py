"""Decorated words, elementary moves, transitions, component coordinates."""

import itertools
import json
import random
import time
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from foldline import chamber
from foldline.cartan import builtin, load_datum_file
from foldline.chamber import (
    BFS_WORD_LIMIT,
    apply_move,
    canonical,
    decorated,
    is_sigma_fixed,
    lambda_coord,
    move_path,
    rho_coord,
    sigma_action,
    transition,
)
from foldline.errors import FoldlineError, WordError
from foldline.semifield import RATIONALS, TROP_INT, TROP_NAT, SymbolicSemifield
from foldline.weyl import base_word, braid_neighbors, enumerate_reduced_words, word_for_w0

A2, _ = builtin("A2")
A3, _ = builtin("A3")
R = RATIONALS.value
T = TROP_INT.from_int


class TestMoves:
    def test_rational_symmetric_case(self):
        moved = apply_move(decorated(A2, ("1", "2", "1"), (R(2), R(3), R(2))), 1, 3)
        assert moved.word.letters == ("2", "1", "2")
        assert [str(c) for c in moved.coords] == ["3/2", "4", "3/2"]

    def test_tropical_triple(self):
        moved = apply_move(decorated(A2, ("1", "2", "1"), (T(1), T(5), T(2))), 1, 3)
        assert [c.n for c in moved.coords] == [6, 1, 5]

    def test_commuting_swap(self):
        dw = decorated(A3, ("1", "3", "2", "1", "3", "2"), tuple(map(T, (10, 20, 3, 4, 5, 6))))
        moved = apply_move(dw, 1, 2)
        assert moved.word.letters[:2] == ("3", "1")
        assert [c.n for c in moved.coords[:2]] == [20, 10]

    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)))
    def test_involution(self, triple):
        dw = decorated(A2, ("1", "2", "1"), tuple(T(n) for n in triple))
        assert apply_move(apply_move(dw, 1, 3), 1, 3).coords == dw.coords

    @given(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)))
    def test_tropical_matches_rational_formula(self, triple):
        """The min-plus move is the tropicalization of the rational one."""
        x, y, z = triple
        moved = apply_move(decorated(A2, ("1", "2", "1"), (T(x), T(y), T(z))), 1, 3)
        expected = (y + z - min(x, z), min(x, z), x + y - min(x, z))
        assert tuple(c.n for c in moved.coords) == expected

    def test_tropical_rational_compatibility_bulk(self):
        """1000 seeded triples: semifield-evaluated move == direct min-plus."""
        rng = random.Random(42)
        for _ in range(1000):
            x, y, z = (rng.randint(-50, 50) for _ in range(3))
            moved = apply_move(decorated(A2, ("1", "2", "1"), (T(x), T(y), T(z))), 1, 3)
            expected = (y + z - min(x, z), min(x, z), x + y - min(x, z))
            assert tuple(c.n for c in moved.coords) == expected

    @pytest.mark.parametrize(
        "k, r, message",
        [
            (1, 4, "elementary moves have r in {2, 3}, got 4"),
            (5, 3, "move (5, 3) does not fit the word"),
            (2, 3, "no braid move of length 3 at position 2"),  # 2,1,3 does not alternate
            (1, 2, "no braid move of length 2 at position 1"),  # 1, 2 are joined: h = 3
            (1, 3.0, "a move is two ints (k, r), got (1, 3.0)"),
            (1.0, 3, "a move is two ints (k, r), got (1.0, 3)"),
            (True, 3, "a move is two ints (k, r), got (True, 3)"),  # not position 1
        ],
    )
    def test_invalid_move(self, k, r, message):
        dw = decorated(A3, ("1", "2", "1", "3", "2", "1"), tuple(map(T, range(6))))
        with pytest.raises(WordError) as error:
            apply_move(dw, k, r)
        assert (error.value.kind, str(error.value)) == ("invalid-move", message)

    def test_scaled_a2_pairing_takes_the_a2_move(self, tmp_path):
        """The pairing ((4, -2), (-2, 4)) has h = 3, so the braid-move rule
        gives it the A2 3-move; only transitions require a simply laced datum."""
        path = tmp_path / "a2-scaled.json"
        path.write_text(json.dumps({"labels": ["1", "2"], "pairing": [[4, -2], [-2, 4]]}))
        datum, _ = load_datum_file(str(path))
        assert not datum.simply_laced
        coords = (R(2), R(3), R(5))
        moved = apply_move(decorated(datum, ("1", "2", "1"), coords), 1, 3)
        expected = apply_move(decorated(A2, ("1", "2", "1"), coords), 1, 3)
        assert (moved.word.letters, moved.coords) == (expected.word.letters, expected.coords)


def reference_path(datum, start, goal, neighbors):
    """BFS from start to goal over braid_neighbors, sorted on every visit;
    ``neighbors`` memoizes the unsorted lists."""
    parents, queue = {start: None}, deque([start])
    while goal not in parents:
        current = queue.popleft()
        if current not in neighbors:
            neighbors[current] = [
                (w.letters, k, r) for w, k, r in braid_neighbors(word_for_w0(datum, current))
            ]
        for letters, k, r in sorted(neighbors[current]):
            if letters not in parents:
                parents[letters] = (current, k, r)
                queue.append(letters)
    path = []
    while parents[goal] is not None:
        goal, k, r = parents[goal]
        path.append((k, r))
    return tuple(reversed(path))


class TestTransition:
    def test_tropical_example(self):
        out = transition(
            decorated(A2, ("1", "2", "1"), (T(0), T(1), T(2))),
            word_for_w0(A2, ("2", "1", "2")),
        )
        assert [c.n for c in out.coords] == [3, 0, 1]

    def test_identity(self):
        dw = decorated(A2, ("1", "2", "1"), (T(0), T(1), T(2)))
        assert transition(dw, dw.word).coords == dw.coords

    def test_symbolic_roundtrip_a3(self):
        model = SymbolicSemifield(tuple(f"x{i}" for i in range(1, 7)))
        xs = tuple(model.var(f"x{i}") for i in range(1, 7))
        dw = decorated(A3, ("1", "2", "1", "3", "2", "1"), xs)
        for letters in enumerate_reduced_words(A3).vertices[:5]:
            there = transition(dw, word_for_w0(A3, letters))
            back = transition(there, dw.word)
            assert all(p == q for p, q in zip(back.coords, xs))

    def test_trace(self):
        """The move-by-move trace: apply_move along move_path."""
        dw = decorated(A2, ("1", "2", "1"), (T(0), T(1), T(2)))
        word = word_for_w0(A2, ("2", "1", "2"))
        trace = [dw]
        for k, r in move_path(A2, dw.word.letters, word.letters):
            trace.append(apply_move(trace[-1], k, r))
        assert len(trace) == 2 and trace[-1] == transition(dw, word)

    def test_path_search_past_the_word_limit(self):
        """A far A5 pair ends in kind limit instead of a search through most
        of A5's words."""
        a5, _ = builtin("A5")
        largest = ("5", "4", "5", "3", "4", "5", "2", "3", "4", "5", "1", "2", "3", "4", "5")
        start = time.perf_counter()
        with pytest.raises(WordError) as error:
            move_path(a5, base_word(a5).letters, largest)
        assert error.value.kind == "limit"
        assert time.perf_counter() - start < 10.0
        info = chamber._neighbor_letters.cache_info()
        assert info.maxsize == chamber._NEIGHBOR_CACHE_SIZE
        assert info.currsize <= chamber._NEIGHBOR_CACHE_SIZE

    @pytest.mark.parametrize("name", ["A3", "A4", "D4+triality"])
    def test_paths_match_the_reference_search(self, name):
        """move_path finds the path of a BFS that sorts each word's braid
        neighbours when it visits the word, searched from the smaller word
        of the pair and reversed when the goal is the smaller one: every A3
        pair, 100 seeded pairs in A4 and in D4."""
        datum, _ = builtin(name)
        words = enumerate_reduced_words(datum).vertices
        if name == "A3":
            pairs = itertools.product(words, repeat=2)
        else:
            rng = random.Random(f"paths:{name}")
            pairs = [tuple(rng.sample(words, 2)) for _ in range(100)]
        neighbors = {}
        for start, goal in pairs:
            if start <= goal:
                expected = reference_path(datum, start, goal, neighbors)
            else:
                expected = reference_path(datum, goal, start, neighbors)[::-1]
            assert move_path(datum, start, goal) == expected

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.sampled_from(["A3", "A4"]), st.data())
    def test_reverse_path_and_round_trip(self, name, data):
        """b -> a is a -> b reversed, and a sym round trip a -> b -> a gives
        back the variables."""
        datum, _ = builtin(name)
        words = enumerate_reduced_words(datum).vertices
        a = data.draw(st.sampled_from(words))
        b = data.draw(st.sampled_from(words))
        assert move_path(datum, b, a) == move_path(datum, a, b)[::-1]
        model = SymbolicSemifield(tuple(f"x{k}" for k in range(1, len(a) + 1)))
        xs = tuple(model.vars().values())
        there = transition(decorated(datum, a, xs), word_for_w0(datum, b))
        back = transition(there, word_for_w0(datum, a))
        assert back.word.letters == a
        assert all(p == q for p, q in zip(back.coords, xs))

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from(["A2", "A3"]), st.data())
    def test_any_letter_tuples_answer_or_end_typed(self, name, data):
        """move_path and transport on arbitrary letter tuples, reduced words
        or not, with an unknown label among the letters: an answer or a
        typed error, never another exception."""
        datum, _ = builtin(name)
        letters = st.lists(st.sampled_from([*datum.labels, "9"]), max_size=5).map(tuple)
        start, goal = data.draw(letters), data.draw(letters)
        values = data.draw(st.lists(st.integers(0, 9), max_size=6))
        for call in (
            lambda: move_path(datum, start, goal),
            lambda: chamber.transport(datum, start, goal, values),
        ):
            try:
                call()
            except FoldlineError:
                pass

    def test_every_d4_pair_fits_under_the_word_limit(self):
        d4, _ = builtin("D4+triality")
        assert len(enumerate_reduced_words(d4).vertices) < BFS_WORD_LIMIT

    def test_non_simply_laced_rejected(self):
        b2, _ = builtin("B:n=2")
        dw = decorated(b2, ("1", "2", "1", "2"), tuple(map(T, (0, 0, 0, 0))))
        with pytest.raises(WordError) as error:
            transition(dw, word_for_w0(b2, ("2", "1", "2", "1")))
        assert error.value.kind == "not-simply-laced"

    def test_tropnat_closure_random_walks(self):
        """No move ever underflows on natural coordinates."""
        rng = random.Random(1)
        N = TROP_NAT.from_int
        for _ in range(50):
            dw = decorated(A3, ("1", "2", "1", "3", "2", "1"),
                           tuple(N(rng.randint(0, 9)) for _ in range(6)))
            for _ in range(30):
                options = braid_neighbors(dw.word)
                _, k, r = rng.choice(options)
                dw = apply_move(dw, k, r)  # raises SemifieldError on underflow


class TestComponents:
    def test_canonical_example(self):
        cp = canonical(decorated(A2, ("2", "1", "2"), (T(3), T(0), T(1))))
        assert cp.word.letters == ("1", "2", "1")
        assert [c.n for c in cp.coords] == [0, 1, 2]

    def test_canonical_transition_inverse(self):
        cp = canonical(decorated(A2, ("1", "2", "1"), (T(5), T(1), T(4))))
        word = word_for_w0(A2, ("2", "1", "2"))
        assert canonical(transition(cp, word)) == cp

    def test_one_move_apart_same_point(self):
        dw = decorated(A2, ("1", "2", "1"), (T(0), T(1), T(2)))
        assert canonical(dw) == canonical(apply_move(dw, 1, 3))

    def test_lambda_rho(self):
        cp = canonical(decorated(A2, ("1", "2", "1"), (T(0), T(1), T(2))))
        assert lambda_coord(cp, "1").n == 0
        assert lambda_coord(cp, "2").n == 3
        assert rho_coord(cp, "1").n == 2

    def test_lambda_well_defined(self):
        """The first coordinate agrees across different words starting with i."""
        model = SymbolicSemifield(tuple(f"x{i}" for i in range(1, 7)))
        xs = tuple(model.var(f"x{i}") for i in range(1, 7))
        cp = canonical(decorated(A3, ("1", "2", "1", "3", "2", "1"), xs))
        for i in A3.labels:
            starts = [
                letters
                for letters in enumerate_reduced_words(A3).vertices
                if letters[0] == i
            ]
            values = {
                str(transition(cp, word_for_w0(A3, letters)).coords[0])
                for letters in starts
            }
            assert len(values) == 1
            ends = [
                letters
                for letters in enumerate_reduced_words(A3).vertices
                if letters[-1] == i
            ]
            values = {
                str(transition(cp, word_for_w0(A3, letters)).coords[-1])
                for letters in ends
            }
            assert len(values) == 1


class TestSigma:
    def test_relabeling(self):
        datum, sigma = builtin("Dstyle:n=2")
        dw = decorated(
            datum, ("2", "2'", "1", "2'", "2", "1"), tuple(map(T, (1, 2, 3, 4, 5, 6)))
        )
        relabeled = sigma_action(dw, sigma)
        assert relabeled.word.letters == ("2'", "2", "1", "2", "2'", "1")
        assert relabeled.coords == dw.coords

    def test_involution_squares_to_identity(self):
        datum, sigma = builtin("A4+flip")
        base = enumerate_reduced_words(datum).vertices[0]
        dw = decorated(datum, base, tuple(map(T, range(10))))
        assert sigma_action(sigma_action(dw, sigma), sigma).word.letters == base

    def test_fixed_and_unfixed_points(self):
        datum, sigma = builtin("Dstyle:n=2")
        unfixed = canonical(
            decorated(datum, ("2", "2'", "1", "2'", "2", "1"), tuple(map(T, (1, 2, 1, 1, 1, 1))))
        )
        assert not is_sigma_fixed(unfixed, sigma)
        fixed = canonical(
            decorated(datum, ("2", "2'", "1", "2'", "2", "1"), tuple(map(T, (1, 1, 1, 1, 1, 1))))
        )
        assert is_sigma_fixed(fixed, sigma)

    def test_identity_sigma_fixes_everything(self):
        from foldline.cartan import identity_automorphism

        cp = canonical(decorated(A2, ("1", "2", "1"), (T(0), T(1), T(2))))
        assert is_sigma_fixed(cp, identity_automorphism(A2))

    def test_sigma_commutes_with_transition(self):
        datum, sigma = builtin("Dstyle:n=2")
        rng = random.Random(3)
        words = enumerate_reduced_words(datum).vertices
        for _ in range(20):
            start = rng.choice(words)
            goal = rng.choice(words)
            coords = tuple(T(rng.randint(-5, 5)) for _ in range(6))
            dw = decorated(datum, start, coords)
            left = sigma_action(transition(dw, word_for_w0(datum, goal)), sigma)
            right = transition(
                sigma_action(dw, sigma),
                word_for_w0(datum, sigma.apply_word(goal)),
            )
            assert left.word.letters == right.word.letters
            assert left.coords == right.coords
