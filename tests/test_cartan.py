"""Cartan data validation, builtins, and folding."""

import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from foldline.cartan import (
    builtin,
    datum_from_json,
    fold,
    h_value,
    identity_automorphism,
    validate_automorphism,
    validate_datum,
)
from foldline.errors import DatumError


def reference_det(matrix):
    """Determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((r for r in range(col, len(m)) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            factor = m[r][col] / m[col][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return det


class TestValidation:
    def test_a2(self):
        datum = validate_datum(["1", "2"], [[2, -1], [-1, 2]])
        assert datum.simply_laced and datum.irreducible

    def test_b2_not_simply_laced(self):
        datum = validate_datum(["1", "2"], [[2, -2], [-2, 4]])
        assert not datum.simply_laced
        assert datum.irreducible

    @pytest.mark.parametrize(
        "pairing, kind",
        [
            ([[2, -1], [-2, 2]], "asymmetric"),
            ([[3, -1], [-1, 2]], "bad-diagonal"),
            ([[-2, -1], [-1, 2]], "bad-diagonal"),
            ([[2, 1], [1, 2]], "bad-off-diagonal"),
            ([[2, -3], [-3, 4]], "non-integral"),
            ([[2, -2], [-2, 2]], "not-positive-definite"),
        ],
    )
    def test_rejections(self, pairing, kind):
        with pytest.raises(DatumError) as error:
            validate_datum(["1", "2"], pairing)
        assert error.value.kind == kind

    @pytest.mark.parametrize(
        "pairing, message",
        [
            ([[2, -3], [-3, 2]], "leading principal minor of order 2 is -5"),
            ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], "leading principal minor of order 3 is 0"),
            ([[2, -1, 0], [-1, 2, -2], [0, -2, 2]], "leading principal minor of order 3 is -2"),
        ],
    )
    def test_first_non_positive_minor_is_reported(self, pairing, message):
        with pytest.raises(DatumError) as error:
            validate_datum([str(a) for a in range(len(pairing))], pairing)
        assert (error.value.kind, str(error.value)) == ("not-positive-definite", message)

    def test_minors_match_determinants(self):
        """Seeded symmetric pairings with diagonal 2: the elimination accepts
        or names the same first non-positive leading minor as determinants
        of the leading blocks do."""
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 5)
            pairing = [[2] * n for _ in range(n)]
            for a in range(n):
                for b in range(a + 1, n):
                    pairing[a][b] = pairing[b][a] = rng.choice((0, 0, -1, -1, -2))
            minors = [reference_det([row[:k] for row in pairing[:k]]) for k in range(1, n + 1)]
            bad = next((k for k, m in enumerate(minors, 1) if m <= 0), None)
            labels = [str(a) for a in range(n)]
            if bad is None:
                validate_datum(labels, pairing)
                continue
            with pytest.raises(DatumError) as error:
                validate_datum(labels, pairing)
            assert str(error.value) == f"leading principal minor of order {bad} is {minors[bad - 1]}"

    def test_reducible_flag(self):
        datum = validate_datum(["1", "2"], [[2, 0], [0, 2]])
        assert not datum.irreducible


class TestHValue:
    def test_a2(self):
        datum, _ = builtin("A2")
        assert h_value(datum, "1", "2") == 3
        assert h_value(datum, "2", "1") == 3

    def test_b2(self):
        datum, _ = builtin("B:n=2")
        assert h_value(datum, "1", "2") == 4

    def test_orthogonal(self):
        datum, _ = builtin("A3")
        assert h_value(datum, "1", "3") == 2

    def test_g2(self):
        fd = fold(*builtin("D4+triality"))
        assert h_value(fd.folded, "1", "2") == 6

    def test_equal_nodes(self):
        datum, _ = builtin("A2")
        with pytest.raises(DatumError):
            h_value(datum, "1", "1")


class TestBuiltins:
    def test_a4_flip(self):
        datum, sigma = builtin("A4+flip")
        assert datum.labels == ("1", "2", "3", "4")
        assert sigma.apply("1") == "4" and sigma.apply("2") == "3"
        assert sigma.order == 2

    def test_dstyle(self):
        datum, sigma = builtin("Dstyle:n=2")
        assert datum.labels == ("1", "2", "2'")
        assert datum.dot("2", "2'") == 0
        assert datum.dot("1", "2") == datum.dot("1", "2'") == -1
        assert sigma.apply("2") == "2'" and sigma.apply("2'") == "2"

    def test_b(self):
        datum, sigma = builtin("B:n=2")
        assert sigma is None
        assert datum.pairing == ((2, -2), (-2, 4))

    def test_unknown(self):
        with pytest.raises(DatumError) as error:
            builtin("E8")
        assert error.value.kind == "unknown-builtin"

    def test_bad_size(self):
        with pytest.raises(DatumError) as error:
            builtin("A3+flip")
        assert error.value.kind == "bad-size"


class TestFolding:
    def test_dstyle_fold_is_b2(self):
        fd = fold(*builtin("Dstyle:n=2"))
        assert fd.orbits == (("1",), ("2", "2'"))
        assert fd.delta == 1
        assert fd.folded.pairing == ((2, -2), (-2, 4))

    def test_a4_fold_is_b2(self):
        fd = fold(*builtin("A4+flip"))
        assert fd.orbits == (("1", "4"), ("2", "3"))
        assert fd.delta == 2
        assert fd.delta_eta == (1, 2)
        assert fd.folded.pairing == ((2, -2), (-2, 4))

    def test_two_models_agree(self):
        b2, _ = builtin("B:n=2")
        assert fold(*builtin("A4+flip")).folded == b2
        assert fold(*builtin("Dstyle:n=2")).folded == b2

    def test_identity_fold(self):
        datum, _ = builtin("A3")
        fd = fold(datum, identity_automorphism(datum))
        assert fd.delta == 1
        assert fd.folded.pairing == datum.pairing
        assert all(len(orbit) == 1 for orbit in fd.orbits)

    def test_triality_gives_g2(self):
        fd = fold(*builtin("D4+triality"))
        assert fd.folded.pairing == ((6, -3), (-3, 2))
        assert fd.sigma.order == 3

    def test_folded_datum_validates(self):
        for name in ("A4+flip", "Dstyle:n=2", "D4+triality"):
            fd = fold(*builtin(name))
            revalidated = validate_datum(fd.folded.labels, [list(r) for r in fd.folded.pairing])
            assert revalidated == fd.folded

    def test_delta2_needs_irreducible(self):
        datum = validate_datum(
            ["1", "2", "3", "4"],
            [[2, -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]],
        )
        sigma = validate_automorphism(datum, {"1": "2", "2": "1", "3": "4", "4": "3"})
        with pytest.raises(DatumError) as error:
            fold(datum, sigma)
        assert error.value.kind == "delta2-reducible"

    def test_non_preserving_sigma(self):
        datum, _ = builtin("A3")
        with pytest.raises(DatumError) as error:
            validate_automorphism(datum, {"1": "2", "2": "1", "3": "3"})
        assert error.value.kind == "bad-sigma"


class TestJson:
    def test_roundtrip(self):
        datum, sigma = builtin("A4+flip")
        doc = datum.to_json(sigma)
        parsed, parsed_sigma = datum_from_json(doc)
        assert parsed == datum
        assert parsed_sigma.images == sigma.images

    def test_bad_document(self):
        with pytest.raises(DatumError):
            datum_from_json({"labels": ["1"]})


class TestHash:
    def test_builtin_equals_revalidated(self):
        for name in ("A4", "B:n=2", "Dstyle:n=3", "D4+triality"):
            datum, _ = builtin(name)
            again = validate_datum(list(datum.labels), [list(row) for row in datum.pairing])
            assert again is not datum
            assert again == datum and hash(again) == hash(datum)
            assert {datum: name}[again] == name

    def test_stored_hash_matches_fields(self):
        datum, _ = builtin("A3")
        fields = (datum.labels, datum.pairing, datum.simply_laced, datum.irreducible)
        assert hash(datum) == hash(fields)
        assert datum != validate_datum(["1", "2", "3"], [[2, 0, 0], [0, 2, 0], [0, 0, 2]])

    def test_pickle_rehashes_in_another_process(self):
        """String hashes are salted per process, so a pickled datum must not
        carry its stored hash across."""
        datum, _ = builtin("A4")
        script = (
            "import pickle, sys\n"
            "from foldline.cartan import builtin\n"
            "d = pickle.loads(sys.stdin.buffer.read())\n"
            "print(hash(d) == hash(builtin('A4')[0]) and d == builtin('A4')[0])\n"
        )
        env = {**os.environ, "PYTHONHASHSEED": "12345"}
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(datum),
            capture_output=True,
            env=env,
            timeout=60,
            check=True,
        )
        assert out.stdout.strip() == b"True"
