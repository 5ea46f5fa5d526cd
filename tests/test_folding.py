"""Unfolding, folded transitions, closed forms, embedded certificates."""

import copy
import random
from fractions import Fraction

import pytest

from foldline.cartan import builtin, fold, identity_automorphism
from foldline.chamber import (
    DecoratedWord,
    canonical,
    decorated,
    is_sigma_fixed,
    lambda_coord,
    rho_coord,
)
from foldline.errors import FoldingError, WordError
from foldline.checks import ALL_CHECKS
from foldline.folding import (
    CHAIN_IDS,
    all_fillings,
    b2_closed_form,
    b2_tropical,
    compare_models,
    default_filling,
    fold_coordinates,
    folded_decorated,
    folded_transition,
    folded_canonical,
    lambda_folded,
    load_chain_data,
    rho_folded,
    s_map,
    standard_folding,
    unfold,
    verify_chain,
    verify_chain_data,
)
from foldline.semifield import RATIONALS, TROP_INT, TROP_NAT, SymbolicSemifield, sym_equal
from foldline.weyl import base_word, enumerate_reduced_words

R = RATIONALS.value
T = TROP_INT.from_int
N = TROP_NAT.from_int

FD_A3 = standard_folding("a3")
FD_A4 = standard_folding("a4")
START, GOAL = ("2", "1", "2", "1"), ("1", "2", "1", "2")


def sym_coords(names=("d", "c", "b", "a")):
    model = SymbolicSemifield(("a", "b", "c", "d"))
    env = model.vars()
    return tuple(env[name] for name in names), env


class TestUnfold:
    def test_a3_source_block_pattern(self):
        coords, env = sym_coords()
        fdw = folded_decorated(FD_A3, START, coords)
        unfolded = unfold(fdw)
        assert unfolded.word.letters == ("2", "2'", "1", "2", "2'", "1")
        d, c, b, a = coords
        assert list(unfolded.coords) == [d, d, c, b, b, a]

    @staticmethod
    def check_a4_doubling(coords):
        a, b, c, d = coords
        fdw = folded_decorated(FD_A4, GOAL, coords)
        unfolded = unfold(fdw)
        assert unfolded.word.letters == ("1", "4", "2", "3", "2", "1", "4", "2", "3", "2")
        expected = [a, a, b, b + b, b, c, c, d, d + d, d]
        assert all(x == y for x, y in zip(unfolded.coords, expected))

    def test_a4_source_doubles_the_joined_orbit(self):
        coords, env = sym_coords(("a", "b", "c", "d"))
        self.check_a4_doubling(coords)

    def test_a4_source_doubles_the_joined_orbit_in_rat(self):
        self.check_a4_doubling(tuple(R(Fraction(n, 7)) for n in (1, 2, 3, 4)))

    @pytest.mark.parametrize("name", ("a3", "a4", "d4"))
    @pytest.mark.parametrize("model", ("tropz", "rat", "sym"))
    def test_default_unfolding_matches_an_explicit_default_filling(self, name, model):
        fd = standard_folding(name)
        rng = random.Random(37)
        sym = SymbolicSemifield(("a", "b", "c", "d", "e", "f"))
        for letters in enumerate_reduced_words(fd.folded).vertices:
            if model == "tropz":
                coords = [T(rng.randint(-5, 5)) for _ in letters]
            elif model == "rat":
                coords = [R(Fraction(rng.randint(1, 9), rng.randint(1, 9))) for _ in letters]
            else:
                names = sym.vars()
                coords = [names[x] + names[y] for x, y in zip("abcdef", "fedcba")][: len(letters)]
            fdw = folded_decorated(fd, letters, coords)
            cached, explicit = unfold(fdw), unfold(fdw, default_filling(fd, letters))
            assert cached.word == explicit.word
            same = sym_equal if model == "sym" else (lambda x, y: x == y)
            assert all(same(x, y) for x, y in zip(cached.coords, explicit.coords))

    def test_identity_sigma_unfold_is_identity(self):
        datum, _ = builtin("A2")
        fd = fold(datum, identity_automorphism(datum))
        fdw = folded_decorated(fd, ("1", "2", "1"), (T(0), T(1), T(2)))
        unfolded = unfold(fdw)
        assert unfolded.word.letters == ("1", "2", "1")
        assert [c.n for c in unfolded.coords] == [0, 1, 2]

    def test_bad_filling(self):
        fdw = folded_decorated(FD_A3, START, tuple(map(N, (1, 1, 1, 1))))
        with pytest.raises(FoldingError) as error:
            unfold(fdw, (("2", "2'"), ("1",), ("2", "2"), ("1",)))
        assert error.value.kind == "bad-filling"


class TestSMap:
    def test_filling_independence_joined_orbit(self):
        """(i, i', i) and (i', i, i') fillings land in the same component."""
        coords, _ = sym_coords(("a", "b", "c", "d"))
        fdw = folded_decorated(FD_A4, GOAL, coords)
        filling_a = (("1", "4"), ("2", "3", "2"), ("1", "4"), ("2", "3", "2"))
        filling_b = (("1", "4"), ("3", "2", "3"), ("1", "4"), ("3", "2", "3"))
        pa, pb = s_map(fdw, filling_a), s_map(fdw, filling_b)
        assert all(x == y for x, y in zip(pa.coords, pb.coords))

    def test_filling_independence_commuting_orbit(self):
        fd = standard_folding("d4")
        coords = tuple(map(N, (1, 2, 3, 1, 2, 3)))
        word = ("1", "2", "1", "2", "1", "2")
        fdw = folded_decorated(fd, word, coords)
        fillings = list(all_fillings(fd, word))
        assert len(fillings) == 6**3
        rng = random.Random(0)
        reference = s_map(fdw)
        for filling in rng.sample(fillings, 12):
            assert s_map(fdw, filling).coords == reference.coords

    def test_image_is_sigma_fixed(self):
        rng = random.Random(5)
        for fd in (FD_A3, FD_A4):
            for _ in range(10):
                coords = tuple(N(rng.randint(0, 9)) for _ in range(4))
                point = s_map(folded_decorated(fd, START, coords))
                assert is_sigma_fixed(point, fd.sigma)


class TestFoldCoordinates:
    def test_roundtrip(self):
        rng = random.Random(7)
        for fd in (FD_A3, FD_A4):
            for _ in range(10):
                coords = tuple(N(rng.randint(0, 9)) for _ in range(4))
                fdw = folded_decorated(fd, START, coords)
                back = fold_coordinates(fd, s_map(fdw), START)
                assert back.coords == coords

    def test_block_read_example(self):
        fdw = folded_decorated(FD_A3, START, tuple(map(R, (1, 1, 1, 1))))
        read = fold_coordinates(FD_A3, s_map(fdw), START)
        assert [str(c) for c in read.coords] == ["1", "1", "1", "1"]

    def test_rejects_unfixed_points(self):
        datum, sigma = builtin("Dstyle:n=2")
        point = canonical(
            decorated(datum, ("2", "2'", "1", "2'", "2", "1"),
                      tuple(map(T, (1, 2, 1, 1, 1, 1))))
        )
        with pytest.raises(FoldingError) as error:
            fold_coordinates(FD_A3, point, START)
        assert error.value.kind == "not-sigma-fixed"

    @pytest.mark.parametrize("name", ("a3", "a4", "d4"))
    def test_each_perturbed_block_entry_is_rejected(self, name):
        fd = standard_folding(name)
        letters = base_word(fd.folded).letters
        fdw = folded_decorated(fd, letters, [R(n) for n in range(1, len(letters) + 1)])
        fixed = unfold(fdw)
        sizes = [len(orbit_word) for orbit_word in default_filling(fd, letters)]
        block_size = [size for size in sizes for _ in range(size)]
        for k, size in enumerate(block_size):
            coords = list(fixed.coords)
            coords[k] = coords[k] * R(3)
            perturbed = DecoratedWord(fixed.word, tuple(coords))
            if size == 1:
                assert fold_coordinates(fd, perturbed, letters).coords != fdw.coords
                continue
            with pytest.raises(FoldingError) as error:
                fold_coordinates(fd, perturbed, letters)
            assert error.value.kind == "not-sigma-fixed"

    @pytest.mark.parametrize(
        "goal, message",
        [
            (("1", "2", "1", "1"), "1,2,1,1 does not multiply to w_0"),
            (("1", "2", "1"), "expected a word of length 4, got 3"),
        ],
    )
    def test_target_word_checked_before_unfolding(self, goal, message):
        fdw = folded_decorated(FD_A3, START, tuple(map(R, (1, 1, 1, 1))))
        with pytest.raises(WordError) as error:
            folded_transition(fdw, goal)
        assert (error.value.kind, str(error.value)) == ("not-reduced", message)

    @pytest.mark.parametrize("name", ("a3", "a4", "d4"))
    @pytest.mark.parametrize("model", ("tropz", "rat"))
    def test_pattern_decides_sigma_fixedness(self, name, model):
        """fold_coordinates folds exactly the points is_sigma_fixed accepts."""
        fd = standard_folding(name)
        rng = random.Random(61)
        letters = base_word(fd.folded).letters
        size = len(base_word(fd.source).letters)

        def values(count):
            if model == "tropz":
                return [T(rng.randint(-4, 4)) for _ in range(count)]
            return [R(Fraction(rng.randint(1, 5), rng.randint(1, 5))) for _ in range(count)]

        seen = set()
        for _ in range(25):
            fixed = s_map(folded_decorated(fd, letters, values(len(letters))))
            perturbed = list(fixed.coords)
            k = rng.randrange(size)
            perturbed[k] = perturbed[k] * (T(1) if model == "tropz" else R(2))
            points = (fixed, DecoratedWord(fixed.word, tuple(perturbed)),
                      DecoratedWord(fixed.word, tuple(values(size))))
            for point in points:
                expected = is_sigma_fixed(point, fd.sigma)
                try:
                    back = fold_coordinates(fd, point, letters)
                except FoldingError as error:
                    assert error.kind == "not-sigma-fixed"
                    assert not expected
                else:
                    assert expected
                    assert s_map(back).coords == point.coords
                seen.add(expected)
        assert seen == {True, False}


class TestFoldedTransition:
    def test_rational_example(self):
        fdw = folded_decorated(FD_A3, START, tuple(map(R, (1, 1, 1, 1))))
        out = folded_transition(fdw, GOAL)
        assert [c.q for c in out.coords] == [
            Fraction(1, 5),
            Fraction(5, 3),
            Fraction(9, 5),
            Fraction(1, 3),
        ]

    def test_identity_target(self):
        fdw = folded_decorated(FD_A3, START, tuple(map(R, (2, 3, 5, 7))))
        assert folded_transition(fdw, START).coords == fdw.coords

    def test_involution(self):
        fdw = folded_decorated(FD_A4, START, tuple(map(R, (2, 3, 5, 7))))
        out = folded_transition(folded_transition(fdw, GOAL), START)
        assert out.coords == fdw.coords

    def test_g2_roundtrip(self):
        fd = standard_folding("d4")
        word = ("1", "2", "1", "2", "1", "2")
        flipped = ("2", "1", "2", "1", "2", "1")
        fdw = folded_decorated(fd, word, tuple(map(T, (0, 1, 2, 3, 4, 5))))
        back = folded_transition(folded_transition(fdw, flipped), word)
        assert back.coords == fdw.coords

    def test_folded_component_representatives(self):
        fdw = folded_decorated(FD_A3, START, tuple(map(R, (2, 3, 5, 7))))
        point = folded_canonical(fdw)
        assert point.letters == base_word(FD_A3.folded).letters
        assert folded_transition(point, START).coords == fdw.coords
        # one word apart, same component
        moved = folded_transition(fdw, GOAL)
        assert folded_canonical(moved) == point


class TestClosedForms:
    def test_rational_point(self):
        out = b2_closed_form(tuple(map(R, (1, 1, 1, 1))))
        assert [str(v) for v in out] == ["1/5", "5/3", "9/5", "1/3"]

    def test_symbolic_matches_both_algorithms(self):
        coords, _ = sym_coords()
        closed = b2_closed_form(coords)
        for fd in (FD_A3, FD_A4):
            algorithmic = folded_transition(folded_decorated(fd, START, coords), GOAL)
            assert all(x == y for x, y in zip(algorithmic.coords, closed))

    def test_tropical_zero(self):
        assert [v.n for v in b2_tropical(tuple(map(T, (0, 0, 0, 0))))] == [0, 0, 0, 0]

    def test_tropical_example(self):
        assert [v.n for v in b2_tropical((T(1), T(2), T(3), T(4)))] == [8, 1, 2, 3]

    def test_tropical_equals_generic_closed_form(self):
        rng = random.Random(11)
        for _ in range(200):
            coords = tuple(T(rng.randint(-20, 20)) for _ in range(4))
            assert b2_tropical(coords) == tuple(b2_closed_form(coords))

    def test_tropnat_stays_natural(self):
        rng = random.Random(13)
        for _ in range(200):
            coords = tuple(N(rng.randint(0, 20)) for _ in range(4))
            out = b2_tropical(coords)
            assert all(v.n >= 0 for v in out)

    def test_tropical_guard_is_typed(self):
        """The closed form still matches on seeded inputs; tests/test_source.py
        checks that no assert is left in the source."""
        rng = random.Random(17)
        for make, low in ((T, -30), (N, 0)):
            for _ in range(200):
                coords = tuple(make(rng.randint(low, 30)) for _ in range(4))
                assert b2_tropical(coords) == tuple(b2_closed_form(coords))


class TestChainCertificates:
    def test_a3_chain(self):
        certificate = verify_chain("b2-from-a3")
        assert certificate.ok
        assert len(certificate.steps) == 5
        assert certificate.closed_form_ok

    def test_a4_chain(self):
        certificate = verify_chain("b2-from-a4")
        assert certificate.ok
        assert len(certificate.steps) == 23

    def test_corrupted_chain_detected(self):
        data = copy.deepcopy(load_chain_data("b2-from-a3"))
        letter, expression = data["lines"][2][3]
        data["lines"][2][3] = [letter, expression + "+1"]
        certificate = verify_chain_data(data)
        failed = [step.line for step in certificate.steps if not step.ok]
        assert not certificate.ok
        assert failed == [2, 3]  # the corrupted line breaks both adjacent steps

    def test_swapped_exponent_detected(self):
        data = copy.deepcopy(load_chain_data("b2-from-a3"))
        row = data["lines"][0]
        row[0], row[1] = [row[0][0], "c"], [row[1][0], "d"]
        certificate = verify_chain_data(data)
        assert not certificate.ok

    def test_swapped_lines_reported(self):
        data = copy.deepcopy(load_chain_data("b2-from-a3"))
        lines = data["lines"]
        lines[1], lines[2] = lines[2], lines[1]
        certificate = verify_chain_data(data)
        failed = [step for step in certificate.steps if not step.ok]
        assert not certificate.ok
        assert failed[0].line == 1 and failed[0].detail.startswith("invalid-move")

    def test_dropped_line_reported(self):
        data = copy.deepcopy(load_chain_data("b2-from-a3"))
        del data["lines"][1]
        certificate = verify_chain_data(data)
        assert not certificate.ok
        assert len(certificate.steps) == 4
        assert [step.line for step in certificate.steps if not step.ok] == [1]

    def test_non_reduced_line_raises(self):
        data = copy.deepcopy(load_chain_data("b2-from-a3"))
        data["lines"][0][1][0] = "2"  # 2,2,1,2',2,1 is not reduced
        with pytest.raises(WordError) as error:
            verify_chain_data(data)
        assert error.value.kind == "not-reduced"

    @pytest.mark.parametrize("chain_id, parses", [("b2-from-a3", 16), ("b2-from-a4", 26)])
    def test_each_expression_is_parsed_once(self, monkeypatch, chain_id, parses):
        """Two abbreviations and each distinct line expression (14 and 24),
        not every expression of every line (38 and 242 parses)."""
        from foldline import folding

        parse_value, texts = folding.parse_value, []

        def counted(text, *args):
            texts.append(text)
            return parse_value(text, *args)

        monkeypatch.setattr(folding, "parse_value", counted)
        assert verify_chain(chain_id).ok
        assert len(texts) == len(set(texts)) == parses

    def test_unknown_chain(self):
        with pytest.raises(FoldingError) as error:
            verify_chain("b2-from-e8")
        assert error.value.kind == "unknown-chain"

    def test_chain_ids_are_spelled_once(self):
        """The file map, the check registry and the CLI help read CHAIN_IDS."""
        assert [load_chain_data(chain_id)["id"] for chain_id in CHAIN_IDS] == list(CHAIN_IDS)
        chain_checks = [name for name, _ in ALL_CHECKS if name.startswith("chain-")]
        assert chain_checks == [f"chain-{chain_id}" for chain_id in CHAIN_IDS]
        assert [run(0, None).name for name, run in ALL_CHECKS if name in chain_checks] == chain_checks

    def test_report_json_shape(self):
        report = verify_chain("b2-from-a3").to_json()
        assert report["ok"] is True
        assert {"line", "positions", "move_r", "ok", "detail"} <= set(report["steps"][0])


class TestCompareModels:
    def test_symbolic(self):
        coords, _ = sym_coords()
        assert compare_models(coords)["ok"]

    def test_rational_samples(self):
        rng = random.Random(17)
        for _ in range(5):
            coords = tuple(R(Fraction(rng.randint(1, 30), rng.randint(1, 30))) for _ in range(4))
            assert compare_models(coords)["ok"]

    def test_tropical_samples(self):
        rng = random.Random(19)
        for _ in range(20):
            coords = tuple(T(rng.randint(-15, 15)) for _ in range(4))
            assert compare_models(coords)["ok"]


class TestFoldedCoordinateReads:
    def test_lambda_rho_compatibility(self):
        rng = random.Random(23)
        for fd in (FD_A3, FD_A4):
            for _ in range(10):
                letters = (START, GOAL)[rng.randrange(2)]
                coords = tuple(N(rng.randint(0, 8)) for _ in range(4))
                fdw = folded_decorated(fd, letters, coords)
                point = s_map(fdw)
                for eta in fd.folded.labels:
                    i = fd.orbit_of(eta)[0]
                    assert lambda_coord(point, i) == lambda_folded(fdw, eta)
                    assert rho_coord(point, i) == rho_folded(fdw, eta)

    def test_lambda_folded_direct(self):
        fdw = folded_decorated(FD_A3, START, tuple(map(N, (4, 5, 6, 7))))
        assert lambda_folded(fdw, "2").n == 4
        assert rho_folded(fdw, "1").n == 7
