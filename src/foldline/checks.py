"""Runnable verification procedures behind ``foldline verify``.

Each check returns a :class:`CheckResult` with a machine-readable detail
payload; the acceptance test suite runs the same procedures with the
documented budgets.  Randomized checks draw from ``random.Random(seed)``
so results are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field

from . import chamber, folding, monoid
from .cartan import builtin
from .chamber import DecoratedWord, apply_move
from .errors import SemifieldError
from .monoid import MonoidElement, MonoidGenerator, left_mul_gen, mul
from .semifield import TROP_INT, TROP_NAT, SymbolicSemifield, TropNat
from .weyl import (
    Word,
    base_word,
    braid_neighbors,
    enumerate_reduced_words,
    word_for_w0,
)


# Most trials of one counted check: at 5000 the slowest, monoid-laws,
# answers in 0.85 s from the command line, crystal in 0.32 s.
TRIALS_LIMIT = 5000


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    seconds: float
    detail: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        # timings are diagnostics; JSON output stays byte-stable without them
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


def _timed(name: str, run) -> CheckResult:
    start = time.perf_counter()
    ok, detail = run()
    return CheckResult(name, ok, time.perf_counter() - start, detail)


def check_chain(chain_id: str) -> CheckResult:
    def run():
        certificate = folding.verify_chain(chain_id)
        return certificate.ok, {
            "steps": len(certificate.steps),
            "failed": [s.line for s in certificate.steps if not s.ok],
            "closed_form_ok": certificate.closed_form_ok,
        }

    return _timed(f"chain-{chain_id}", run)


def check_closed_form_models() -> CheckResult:
    """Symbolic agreement of both folded transitions with the closed form."""

    def run():
        model = SymbolicSemifield(("a", "b", "c", "d"))
        names = model.vars()
        coords = (names["d"], names["c"], names["b"], names["a"])
        report = folding.compare_models(coords)
        return report["ok"], {
            "models_agree": report["models_agree"],
            "closed_form_agrees": report["closed_form_agrees"],
        }

    return _timed("closed-form-models", run)


def check_tropical_b2(seed: int = 0, trials: int = 1000) -> CheckResult:
    """Min-plus closed form against the tropical transition algorithm."""

    def run():
        rng = random.Random(seed)
        fd = folding.standard_folding("a3")
        start, goal = ("2", "1", "2", "1"), ("1", "2", "1", "2")
        mismatches = 0
        guard_failures = 0
        for _ in range(trials):
            d, c, b, a = (rng.randint(-20, 20) for _ in range(4))
            if a + b + d < min(a + 2 * b, a + 2 * d):
                guard_failures += 1
            coords = tuple(TROP_INT.from_int(n) for n in (d, c, b, a))
            algorithmic = folding.folded_transition(
                folding.folded_decorated(fd, start, coords), goal
            ).coords
            direct = folding.b2_tropical(coords)
            if algorithmic != direct:
                mismatches += 1
        underflows = 0
        nat_mismatches = 0
        for _ in range(trials):
            coords = tuple(TROP_NAT.from_int(rng.randint(0, 20)) for _ in range(4))
            try:
                algorithmic = folding.folded_transition(
                    folding.folded_decorated(fd, start, coords), goal
                ).coords
            except SemifieldError:
                underflows += 1
                continue
            if tuple(v.n for v in algorithmic) != tuple(
                v.n for v in folding.b2_tropical(coords)
            ):
                nat_mismatches += 1
        ok = not (mismatches or guard_failures or underflows or nat_mismatches)
        return ok, {
            "trials": trials,
            "mismatches": mismatches,
            "guard_failures": guard_failures,
            "nat_underflows": underflows,
            "nat_mismatches": nat_mismatches,
        }

    return _timed("tropical-b2", run)


def check_path_independence() -> CheckResult:
    """Symbolic coordinates transported around every braid cycle agree.

    Breadth-first search over all reduced words assigns coordinates once
    per word; every extra edge must reproduce the stored assignment.
    """

    def run():
        detail = {}
        ok = True
        for name in ("A2", "A3"):
            datum, _ = builtin(name)
            graph = enumerate_reduced_words(datum)
            size = len(base_word(datum).letters)
            model = SymbolicSemifield(tuple(f"x{i}" for i in range(1, size + 1)))
            start = base_word(datum).letters
            assigned = {
                start: tuple(model.var(f"x{i}") for i in range(1, size + 1))
            }
            queue = [start]
            conflicts = 0
            while queue:
                letters = queue.pop()
                dw = DecoratedWord(Word(datum, letters), assigned[letters])
                for neighbor, k, r in braid_neighbors(Word(datum, letters)):
                    moved = apply_move(dw, k, r)
                    if neighbor.letters in assigned:
                        if any(
                            x != y
                            for x, y in zip(assigned[neighbor.letters], moved.coords)
                        ):
                            conflicts += 1
                    else:
                        assigned[neighbor.letters] = moved.coords
                        queue.append(neighbor.letters)
            covered = len(assigned) == len(graph.vertices)
            detail[name] = {
                "words": len(assigned),
                "conflicts": conflicts,
                "covered": covered,
            }
            ok = ok and covered and conflicts == 0
        return ok, detail

    return _timed("path-independence", run)


def _word_matrix(datum, letters, product=None) -> tuple[tuple[int, ...], ...]:
    """The root-lattice matrix ``product`` (default the identity) times the
    simple reflections of the letters, as plain matrix products; column j
    is the image of alpha_j."""
    n = datum.rank
    if product is None:
        product = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    for i in letters:
        a = datum.index(i)
        s = [[int(r == c) for c in range(n)] for r in range(n)]
        for c, j in enumerate(datum.labels):
            s[a][c] -= datum.cartan_integer(i, j)
        product = tuple(
            tuple(sum(row[k] * s[k][c] for k in range(n)) for c in range(n)) for row in product
        )
    return product


def brute_force_word_count(name: str) -> int:
    """Independent oracle: the number of shortest words whose root-lattice
    product sends every simple root negative, which only w_0 does.

    Every word of length 0, 1, 2, ... is tried, sharing the products of
    common prefixes, until one does; nothing of :mod:`foldline.weyl` is used.
    """
    datum, _ = builtin(name)

    def count(product, depth):
        if depth == 0:
            return int(all(any(x < 0 for x in column) for column in zip(*product)))
        return sum(
            count(_word_matrix(datum, (i,), product), depth - 1) for i in datum.labels
        )

    identity = _word_matrix(datum, ())
    for depth in itertools.count():
        found = count(identity, depth)
        if found:
            return found


def check_word_counts() -> CheckResult:
    def run():
        expected = {"A2": 2, "B:n=2": 2, "A3": 16}
        detail = {}
        ok = True
        for name, count in expected.items():
            datum, _ = builtin(name)
            enumerated = len(enumerate_reduced_words(datum).vertices)
            oracle = brute_force_word_count(name)
            detail[name] = {"enumerated": enumerated, "oracle": oracle, "expected": count}
            ok = ok and enumerated == oracle == count
        return ok, detail

    return _timed("word-counts", run)


def _random_element(rng: random.Random, datum) -> MonoidElement:
    size = len(base_word(datum).letters)
    return MonoidElement(datum, tuple(rng.randint(0, 6) for _ in range(size)))


def check_monoid_laws(seed: int = 0, trials: int = 200) -> CheckResult:
    """Defining relations, associativity, and word-choice independence."""

    def run():
        rng = random.Random(seed)
        a2, _ = builtin("A2")
        a3, _ = builtin("A3")
        failures = {"rel-i": 0, "rel-ii": 0, "rel-iii": 0, "assoc": 0, "word-choice": 0}

        half = max(1, trials // 2)  # every law is checked at least once
        for datum, joined in ((a2, ("1", "2")), (a3, ("1", "2"))):
            for _ in range(half):
                m = _random_element(rng, datum)
                i = rng.choice(datum.labels)
                x, y = rng.randint(0, 6), rng.randint(0, 6)
                lhs = left_mul_gen(
                    MonoidGenerator(i, x), left_mul_gen(MonoidGenerator(i, y), m)
                )
                if lhs != left_mul_gen(MonoidGenerator(i, min(x, y)), m):
                    failures["rel-i"] += 1
            i, j = joined
            for _ in range(half):
                m = _random_element(rng, datum)
                x, y, z = (rng.randint(0, 6) for _ in range(3))
                lhs = left_mul_gen(
                    MonoidGenerator(i, x),
                    left_mul_gen(
                        MonoidGenerator(j, y), left_mul_gen(MonoidGenerator(i, z), m)
                    ),
                )
                mn = min(x, z)
                rhs = left_mul_gen(
                    MonoidGenerator(j, y + z - mn),
                    left_mul_gen(
                        MonoidGenerator(i, mn),
                        left_mul_gen(MonoidGenerator(j, x + y - mn), m),
                    ),
                )
                if lhs != rhs:
                    failures["rel-iii"] += 1
        for _ in range(trials):  # the commuting relation needs rank 3
            m = _random_element(rng, a3)
            x, y = rng.randint(0, 6), rng.randint(0, 6)
            lhs = left_mul_gen(
                MonoidGenerator("1", x), left_mul_gen(MonoidGenerator("3", y), m)
            )
            rhs = left_mul_gen(
                MonoidGenerator("3", y), left_mul_gen(MonoidGenerator("1", x), m)
            )
            if lhs != rhs:
                failures["rel-ii"] += 1
        for datum in (a2, a3):
            for _ in range(half):
                x, y, z = (_random_element(rng, datum) for _ in range(3))
                if mul(mul(x, y), z) != mul(x, mul(y, z)):
                    failures["assoc"] += 1
        words_with_first_1 = [
            letters
            for letters in enumerate_reduced_words(a3).vertices
            if letters[0] == "1"
        ]
        for _ in range(100):
            m = _random_element(rng, a3)
            n = rng.randint(0, 6)
            choice_a, choice_b = rng.sample(words_with_first_1, 2)
            results = []
            for letters in (choice_a, choice_b):
                moved = chamber.transition(m.decorated(), word_for_w0(a3, letters))
                coords = [c.n for c in moved.coords]
                coords[0] = min(n, coords[0])
                results.append(monoid.normal_form(a3, letters, coords))
            if results[0] != results[1] or results[0] != left_mul_gen(
                MonoidGenerator("1", n), m
            ):
                failures["word-choice"] += 1
        return all(v == 0 for v in failures.values()), failures

    return _timed("monoid-laws", run)


def check_frobenius(seed: int = 0, pairs: int = 500, samples: int = 100) -> CheckResult:
    def run():
        rng = random.Random(seed)
        a2, _ = builtin("A2")
        failures = {"multiplicative": 0, "composition": 0, "commutes-sigma": 0}
        for e in (1, 2, 3):
            for _ in range(pairs):
                x, y = _random_element(rng, a2), _random_element(rng, a2)
                if monoid.frobenius(e, mul(x, y)) != mul(
                    monoid.frobenius(e, x), monoid.frobenius(e, y)
                ):
                    failures["multiplicative"] += 1
        for _ in range(samples):
            m = _random_element(rng, a2)
            e1, e2 = rng.randint(1, 3), rng.randint(1, 3)
            if monoid.frobenius(e1, monoid.frobenius(e2, m)) != monoid.frobenius(
                e1 * e2, m
            ):
                failures["composition"] += 1
        fd = folding.standard_folding("a3")
        sigma = fd.sigma
        for _ in range(samples):
            coords = tuple(TropNat(rng.randint(0, 6)) for _ in range(4))
            unfolded = folding.unfold(
                folding.folded_decorated(fd, ("2", "1", "2", "1"), coords)
            )
            m = monoid.normal_form(
                fd.source, unfolded.word.letters, [c.n for c in unfolded.coords]
            )
            if not monoid.is_sigma_fixed_monoid(m, sigma):
                failures["commutes-sigma"] += 1
                continue
            e = rng.randint(1, 3)
            if monoid.sigma_monoid(monoid.frobenius(e, m), sigma) != monoid.frobenius(
                e, monoid.sigma_monoid(m, sigma)
            ):
                failures["commutes-sigma"] += 1
        return all(v == 0 for v in failures.values()), failures

    return _timed("frobenius", run)


def check_crystal(seed: int = 0, samples: int = 200) -> CheckResult:
    def run():
        rng = random.Random(seed)
        a2, _ = builtin("A2")
        a3, _ = builtin("A3")
        failures = {"scan-vs-coordinate": 0, "raise-lower": 0, "folded-lambda-rho": 0}
        for _ in range(samples):
            datum = a2 if rng.random() < 0.5 else a3
            m = _random_element(rng, datum)
            i = rng.choice(datum.labels)
            if monoid.l_scan(m, i) != monoid.l_coordinate(m, i):
                failures["scan-vs-coordinate"] += 1
            if monoid.r_scan(m, i) != monoid.r_coordinate(m, i):
                failures["scan-vs-coordinate"] += 1
        for _ in range(100):
            datum = a2 if rng.random() < 0.5 else a3
            m = _random_element(rng, datum)
            i = rng.choice(datum.labels)
            zero = monoid.lower_to_zero(m, i)
            n = rng.randint(0, 5)
            raised = monoid.raise_to(n, zero, i)
            if monoid.l_coordinate(raised, i) != n or monoid.lower_to_zero(
                raised, i
            ) != zero:
                failures["raise-lower"] += 1
        fd = folding.standard_folding("a3")
        folded_words = (("2", "1", "2", "1"), ("1", "2", "1", "2"))
        for _ in range(100):
            letters = folded_words[rng.randrange(2)]
            coords = tuple(TropNat(rng.randint(0, 8)) for _ in range(4))
            fdw = folding.folded_decorated(fd, letters, coords)
            point = folding.s_map(fdw)
            for eta in fd.folded.labels:
                i = fd.orbit_of(eta)[0]
                if chamber.lambda_coord(point, i) != folding.lambda_folded(fdw, eta):
                    failures["folded-lambda-rho"] += 1
                if chamber.rho_coord(point, i) != folding.rho_folded(fdw, eta):
                    failures["folded-lambda-rho"] += 1
        return all(v == 0 for v in failures.values()), failures

    return _timed("crystal", run)


def check_filling_independence() -> CheckResult:
    """s_map is filling-independent and lands on sigma-fixed points."""

    def run():
        model = SymbolicSemifield(("c1", "c2", "c3", "c4"))
        coords = tuple(model.var(f"c{i}") for i in range(1, 5))
        detail = {}
        ok = True
        for name, letters in (
            ("a3", ("2", "1", "2", "1")),
            ("a4", ("1", "2", "1", "2")),
        ):
            fd = folding.standard_folding(name)
            fdw = folding.folded_decorated(fd, letters, coords)
            fillings = list(folding.all_fillings(fd, letters))
            points = [folding.s_map(fdw, filling) for filling in fillings]
            same = all(
                all(x == y for x, y in zip(points[0].coords, point.coords))
                for point in points[1:]
            )
            fixed = all(chamber.is_sigma_fixed(point, fd.sigma) for point in points)
            detail[name] = {"fillings": len(fillings), "all_equal": same, "sigma_fixed": fixed}
            ok = ok and same and fixed
        return ok, detail

    return _timed("filling-independence", run)


def _counted(check, default: int):
    """A registry entry whose count is ``trials``, or ``default`` when None."""
    return lambda seed, trials: check(seed, default if trials is None else trials)


ALL_CHECKS = (
    *(
        (f"chain-{chain_id}", lambda seed, trials, chain_id=chain_id: check_chain(chain_id))
        for chain_id in folding.CHAIN_IDS
    ),
    ("closed-form-models", lambda seed, trials: check_closed_form_models()),
    ("tropical-b2", _counted(check_tropical_b2, 1000)),
    ("path-independence", lambda seed, trials: check_path_independence()),
    ("word-counts", lambda seed, trials: check_word_counts()),
    ("monoid-laws", _counted(check_monoid_laws, 200)),
    ("frobenius", _counted(check_frobenius, 500)),
    ("crystal", _counted(check_crystal, 200)),
    ("filling-independence", lambda seed, trials: check_filling_independence()),
)


def check_all(seed: int = 0, trials: int | None = None) -> list[CheckResult]:
    return [run(seed, trials) for _, run in ALL_CHECKS]
