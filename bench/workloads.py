"""The four benchmark workloads.

A workload turns a seed into an endless, deterministic sequence of ops
(one op is one top-level request), runs an op against foldline, reduces
the answer to plain path-independent data, and checks that data against
the benchmark's own reference in :mod:`ref`.  Op inputs never depend on
foldline's answers, so one seed gives one op sequence on every version of
the program.  Ops are drawn in shuffled blocks of fixed composition, so
every run of a few seconds sees the same mix.

Every workload is closed loop with a single client: the next op starts
when the previous one has returned, and nothing queues.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import ref


class Wrong(Exception):
    """The program's answer disagrees with the reference."""


def expect(condition, what):
    if not condition:
        raise Wrong(what)


def shuffled_blocks(rng, block):
    """Endless stream of (pass number, item) over ``block``, reshuffled every pass."""
    for number in range(10**9):
        items = list(block)
        rng.shuffle(items)
        for item in items:
            yield number, item


def fraction_point(rng, n):
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n))


class Workload:
    name = ""
    # ops in a traced run: fixed so that traced counts repeat exactly
    trace_ops = 0
    # data whose builtin foldline datum must match the reference
    data = ()
    # the checkout root, set by the worker
    root = None

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.cox = {name: ref.coxeter(name) for name in self.data}

    def setup(self, fl):
        """Build foldline data and run the warm-up; counted in setup_s."""
        self.fl = fl
        self.datum = {}
        for name, cox in self.cox.items():
            datum, _ = fl.cartan.builtin(name)
            if not ref.same_datum(cox, datum.labels, datum.pairing):
                raise RuntimeError(f"builtin {name} differs from the reference datum")
            if fl.weyl.base_word(datum).letters != cox.base:
                raise RuntimeError(f"base word of {name} differs from the reference")
            self.datum[name] = datum

    def ops(self):
        """Endless (block number, op) pairs; every block has the same mix."""
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def observe(self, op, out):
        """Plain, path-independent data from the answer (JSON-able)."""
        raise NotImplementedError

    def check(self, op, seen):
        """Raise Wrong if the observed data is not the right answer."""
        raise NotImplementedError

    def kind(self, op):
        return op[0]


def braid_step(cox, letters, rng):
    """A uniformly chosen braid move applied to the letters."""
    options = []
    for k0 in range(len(letters) - 1):
        p, q = letters[k0], letters[k0 + 1]
        r = cox.m(p, q)
        if p != q and letters[k0 : k0 + r] == tuple(p if s % 2 == 0 else q for s in range(r)):
            options.append((k0, r, p, q))
    k0, r, p, q = rng.choice(options)
    swapped = tuple(q if s % 2 == 0 else p for s in range(r))
    return letters[:k0] + swapped + letters[k0 + r :]


class BraidPaths(Workload):
    """Cold tropz transitions between distinct seeded pairs of words.

    Alternates A4 and D4+triality pairs (768 and 2316 reduced words); every
    pair is new, so each op pays a path search.  Two A5 pairs per run sit at
    a braid distance of at most A5_STEPS: a random A5 pair costs 0.3-22 s
    and 24-580 MB on its own, which no run-to-run bound survives.
    """

    name = "braid-paths"
    data = ("A4", "D4+triality", "A5")
    trace_ops = 1500
    A5_AT = (150, 450)
    A5_STEPS = 6
    BLOCK = 20

    def ops(self):
        rng = self.rng
        seen = set()
        for index in range(10**9):
            if index in self.A5_AT:
                cox = self.cox["A5"]
                start = goal = cox.walk(rng)
                visited = {start}
                for _ in range(self.A5_STEPS):
                    step = braid_step(cox, goal, rng)
                    if step not in visited:
                        goal = step
                        visited.add(step)
                name = "A5"
            else:
                name = ("A4", "D4+triality")[index % 2]
                cox = self.cox[name]
                while True:
                    start, goal = cox.walk(rng), cox.walk(rng)
                    if start != goal and (name, start, goal) not in seen:
                        break
                seen.add((name, start, goal))
            coords = tuple(rng.randint(-50, 50) for _ in start)
            yield index // self.BLOCK, ("transition", name, start, goal, coords)

    def kind(self, op):
        return op[1]

    def run(self, op):
        _, name, start, goal, coords = op
        fl, datum = self.fl, self.datum[name]
        TropInt = fl.semifield.TropInt
        source = fl.chamber.decorated(datum, start, [TropInt(c) for c in coords])
        return fl.chamber.transition(source, fl.weyl.word_for_w0(datum, goal))

    def observe(self, op, out):
        return {"word": list(out.word.letters), "coords": [c.n for c in out.coords]}

    def check(self, op, seen):
        _, name, start, goal, coords = op
        expect(tuple(seen["word"]) == goal, "transition ended on another word")
        expected = ref.transport(self.cox[name], start, goal, coords)
        expect(seen["coords"] == expected, "coordinates differ from the min-plus replay")


FOLDED_WORDS = {
    "a3": (("2", "1", "2", "1"), ("1", "2", "1", "2")),
    "a4": (("2", "1", "2", "1"), ("1", "2", "1", "2")),
    "d4": (("1", "2", "1", "2", "1", "2"), ("2", "1", "2", "1", "2", "1")),
}
FOLDED_SOURCE = {"a3": "Dstyle:n=2", "a4": "A4+flip", "d4": "D4+triality"}


class MonoidCrystal(Workload):
    """Warm tropn monoid and crystal ops over A3, A4 and D4+triality."""

    name = "monoid-crystal"
    data = ("A3", "A4", "D4+triality", "Dstyle:n=2", "A4+flip")
    trace_ops = 600
    SIMPLE = ("A3", "A4", "D4+triality")
    KINDS = ("mul", "lstring", "lower-raise", "frobenius")
    BOUND = 5

    def __init__(self, seed):
        super().__init__(seed)
        self.monoid = {name: ref.Monoid(self.cox[name]) for name in self.SIMPLE}

    def setup(self, fl):
        super().setup(fl)
        self.folded = {}
        for model, source in FOLDED_SOURCE.items():
            fd = fl.folding.standard_folding(model)
            sigma = {i: fd.sigma.apply(i) for i in fd.source.labels}
            self.folded[model] = (fd, ref.FoldedMonoid(self.cox[source], fd.orbits, sigma))
        # Warm-up: one op of every kind on every datum, letter and folded
        # word fills the path caches that the timed ops reuse.
        for name in self.SIMPLE:
            zero = (0,) * len(self.cox[name].base)
            for i in self.cox[name].labels:
                self.run(("lstring", name, zero, i))
                self.run(("lower-raise", name, zero, i, 0))
            self.run(("mul", name, zero, zero))
        for model, words in FOLDED_WORDS.items():
            for letters in words:
                zero = (0,) * len(letters)
                self.run(("folded-mul", model, letters, zero, zero))

    def ops(self):
        rng = self.rng
        block = [(kind, name) for kind in self.KINDS for name in self.SIMPLE]
        block += [("folded-mul", model) for model in FOLDED_WORDS]

        def element(name):
            return tuple(rng.randint(0, self.BOUND) for _ in self.cox[name].base)

        for number, (kind, name) in shuffled_blocks(rng, block):
            if kind == "folded-mul":
                letters = FOLDED_WORDS[name][rng.randrange(2)]
                f1, f2 = (
                    tuple(rng.randint(0, self.BOUND) for _ in letters) for _ in range(2)
                )
                yield number, (kind, name, letters, f1, f2)
                continue
            m = element(name)
            i = rng.choice(self.cox[name].labels)
            if kind == "mul":
                yield number, (kind, name, m, element(name))
            elif kind == "lstring":
                yield number, (kind, name, m, i)
            elif kind == "lower-raise":
                yield number, (kind, name, m, i, self.monoid[name].l(m, i))
            else:
                yield number, (kind, name, rng.randint(2, 3), m, element(name))

    def kind(self, op):
        return f"{op[0]}:{op[1]}"

    def run(self, op):
        mo = self.fl.monoid
        kind, name = op[0], op[1]
        if kind == "folded-mul":
            _, model, letters, f1, f2 = op
            return mo.folded_mul(self.folded[model][0], f1, f2, letters)
        element = lambda coords: mo.MonoidElement(self.datum[name], coords)  # noqa: E731
        if kind == "mul":
            return mo.mul(element(op[2]), element(op[3]))
        if kind == "lstring":
            m, i = element(op[2]), op[3]
            return (
                mo.l_scan(m, i), mo.l_coordinate(m, i), mo.r_scan(m, i), mo.r_coordinate(m, i)
            )
        if kind == "lower-raise":
            _, _, coords, i, n = op
            zero = mo.lower_to_zero(element(coords), i)
            return zero, mo.raise_to(n, zero, i)
        _, _, e, x, y = op
        x, y = element(x), element(y)
        return (
            mo.frobenius(e, mo.mul(x, y)),
            mo.mul(mo.frobenius(e, x), mo.frobenius(e, y)),
        )

    def observe(self, op, out):
        kind = op[0]
        if kind in ("folded-mul", "lstring"):
            return list(out)
        if kind == "mul":
            return list(out.coords)
        return [list(out[0].coords), list(out[1].coords)]

    def check(self, op, seen):
        kind, name = op[0], op[1]
        if kind == "folded-mul":
            _, model, letters, f1, f2 = op
            reference = self.folded[model][1]
            try:
                expected = reference.mul(letters, f1, f2)
                fixed = reference.is_sigma_fixed(reference.unfold(letters, seen))
            except ValueError as error:
                raise Wrong(str(error)) from None
            expect(fixed, "folded product is not sigma-fixed")
            expect(tuple(seen) == expected, "folded product differs from the reference")
            return
        monoid = self.monoid[name]
        if kind == "mul":
            expect(tuple(seen) == monoid.mul(op[2], op[3]), "product differs from the reference")
        elif kind == "lstring":
            m, i = op[2], op[3]
            l_scan, l_coord, r_scan, r_coord = seen
            expect(l_scan == l_coord == monoid.l(m, i), "l_scan, l_coordinate and l_i disagree")
            expect(r_scan == r_coord == monoid.r(m, i), "r_scan, r_coordinate and r_i disagree")
        elif kind == "lower-raise":
            _, _, m, i, n = op
            zero, raised = (tuple(v) for v in seen)
            expect(zero == monoid.left_gen(i, 0, m), "lower_to_zero differs from xi_i^0 m")
            expect(raised == tuple(m), "raise_to(l_i(m)) does not invert lower_to_zero")
        else:
            _, _, e, x, y = op
            left, right = seen
            expected = [e * c for c in monoid.mul(x, y)]
            expect(left == right, "frobenius is not multiplicative")
            expect(left == expected, "frobenius of the product differs from the reference")


G2_WORDS = FOLDED_WORDS["d4"]


class SymbolicFold(Workload):
    """sym round trips, the G2 folded transition, chains and compare_models."""

    name = "symbolic-fold"
    data = ("A3", "A4", "D4+triality")
    trace_ops = 300
    BLOCK = (
        ("roundtrip", "A3"),
    ) * 8 + (("roundtrip", "A4"),) * 6 + (("roundtrip", "D4+triality"),) * 3 + (
        ("g2", None),
        ("chain", None),
        ("compare", None),
    )

    def setup(self, fl):
        super().setup(fl)
        self.vars = {}
        for name, cox in self.cox.items():
            model = fl.semifield.SymbolicSemifield(
                tuple(f"x{k}" for k in range(1, len(cox.base) + 1))
            )
            self.vars[name] = tuple(model.var(v) for v in model.variables)
        g2 = fl.semifield.SymbolicSemifield(tuple("abcdef"))
        self.g2_vars = tuple(g2.var(v) for v in g2.variables)
        b2 = fl.semifield.SymbolicSemifield(tuple("abcd"))
        a, b, c, d = (b2.var(v) for v in "abcd")
        self.b2_vars = (d, c, b, a)
        self.g2_fold = fl.folding.standard_folding("d4")

    def ops(self):
        rng = self.rng
        chains = 0
        for number, (kind, name) in shuffled_blocks(rng, self.BLOCK):
            if kind == "roundtrip":
                cox = self.cox[name]
                start, goal = cox.walk(rng), cox.walk(rng)
                yield number, (kind, name, start, goal, fraction_point(rng, len(start)))
            elif kind == "g2":
                start, goal = G2_WORDS if rng.random() < 0.5 else G2_WORDS[::-1]
                point = tuple(rng.randint(-20, 20) for _ in start)
                yield number, (kind, start, goal, point)
            elif kind == "chain":
                chains += 1
                yield number, (kind, ("b2-from-a3", "b2-from-a4")[chains % 2])
            else:
                yield number, (kind, fraction_point(rng, 4))

    def kind(self, op):
        return op[1] if op[0] == "roundtrip" else op[0]

    def run(self, op):
        fl = self.fl
        kind = op[0]
        if kind == "roundtrip":
            _, name, start, goal, _ = op
            datum = self.datum[name]
            source = fl.chamber.decorated(datum, start, self.vars[name])
            out = fl.chamber.transition(source, fl.weyl.word_for_w0(datum, goal))
            return out, fl.chamber.transition(out, fl.weyl.word_for_w0(datum, start))
        if kind == "g2":
            _, start, goal, _ = op
            source = fl.folding.folded_decorated(self.g2_fold, start, self.g2_vars)
            return fl.folding.folded_transition(source, goal)
        if kind == "chain":
            return fl.folding.verify_chain(op[1])
        return fl.folding.compare_models(self.b2_vars)

    def observe(self, op, out):
        kind = op[0]
        if kind == "roundtrip":
            forward, back = out
            point = op[4]
            return {
                "at_point": [str(ref.sym_at(c, point)) for c in forward.coords],
                "round_trip": [ref.sym_is_variable(c, k) for k, c in enumerate(back.coords)],
            }
        if kind == "g2":
            _, start, goal, point = op
            folding, TropInt = self.fl.folding, self.fl.semifield.TropInt
            direct = folding.folded_transition(
                folding.folded_decorated(self.g2_fold, start, [TropInt(c) for c in point]),
                goal,
            )
            return {
                "word": list(out.letters),
                "tropical": [ref.sym_tropical(c, point) for c in out.coords],
                "direct": [c.n for c in direct.coords],
            }
        if kind == "chain":
            return {"ok": out.ok, "steps": len(out.steps)}
        point = op[1]
        return {
            "ok": out["ok"],
            "via_a3": [str(ref.sym_at(c, point)) for c in out["via_a3"]],
            "via_a4": [str(ref.sym_at(c, point)) for c in out["via_a4"]],
        }

    def check(self, op, seen):
        kind = op[0]
        if kind == "roundtrip":
            _, name, start, goal, point = op
            expect(all(seen["round_trip"]), "round trip does not return its input")
            expected = ref.transport(self.cox[name], start, goal, point, ref.rational3)
            expect(
                seen["at_point"] == [str(v) for v in expected],
                "forward transition differs from the rational replay",
            )
        elif kind == "g2":
            expect(tuple(seen["word"]) == op[2], "G2 transition ended on another word")
            expect(
                seen["tropical"] == seen["direct"],
                "tropicalized G2 output differs from the tropz folded transition",
            )
        elif kind == "chain":
            expect(seen["ok"] and seen["steps"] > 0, "chain certificate does not verify")
        else:
            expect(seen["ok"], "compare_models reports a disagreement")
            expect(seen["via_a3"] == seen["via_a4"], "the two source models disagree")


def b2_rational(d, c, b, a):
    alpha = a * b + a * d + c * d
    eps = a * b * b + a * d * d + c * d * d + 2 * a * b * d
    return [a * b * b * c / eps, eps / alpha, alpha * alpha / eps, b * c * d / alpha]


def b2_minplus(d, c, b, a):
    m1 = min(a + b, a + d, c + d)
    m2 = min(a + 2 * b, a + 2 * d, c + 2 * d)
    return [a + 2 * b + c - m2, m2 - m1, 2 * m1 - m2, b + c + d - m1]


def csv(values):
    return ",".join(str(v) for v in values)


class CliSession(Workload):
    """A seeded sequence of foldline invocations, each in a fresh process."""

    name = "cli-session"
    data = ("A2", "A3")
    trace_ops = 60
    VERIFY_ALL_EVERY = 200
    VERIFY_ALL_FIRST = 8
    VERIFY_TARGETS = (
        "crystal", "word-counts", "monoid", "closed-form", "frobenius",
        "path-independence", "tropical-b2", "filling-independence",
    )
    BLOCK = (
        "transition:tropz", "transition:tropn", "transition:rat", "transition:sym",
        "lambda", "rho", "folded:tropz", "folded:rat", "folded:g2",
        "monoid:mul", "monoid:lstring", "monoid:crystal", "words", "datum",
        "chain", "error", "verify", "verify", "verify",
    )
    ERRORS = (
        (["transition", "--datum", "A3", "--from", "1,2,1", "--to", "2,1,2",
          "--coords", "1,2,3"], 1, "not-reduced"),
        (["monoid", "lstring", "--datum", "A2", "--i", "1", "--coords", "1,-2,3"],
         1, "bad-coords"),
        (["verify", "chain"], 2, "usage"),
        (["datum", "validate", "--builtin", "Q7"], 1, "unknown-builtin"),
    )

    def __init__(self, seed):
        super().__init__(seed)
        self.monoid = ref.Monoid(self.cox["A3"])

    def setup(self, fl):
        super().setup(fl)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))

    def ops(self):
        rng = self.rng
        errors = verifies = 0
        stream = shuffled_blocks(rng, self.BLOCK)
        for index in range(10**9):
            number, kind = next(stream)
            if index % self.VERIFY_ALL_EVERY == self.VERIFY_ALL_FIRST:
                yield number, ("verify-all", ["verify", "all"], 0, None)
            if kind == "error":
                argv, code, error_kind = self.ERRORS[errors % len(self.ERRORS)]
                errors += 1
                yield number, (kind, argv, code, error_kind)
            elif kind == "verify":
                # a fixed rotation, so every run of the same length checks the same set
                target = self.VERIFY_TARGETS[verifies % len(self.VERIFY_TARGETS)]
                verifies += 1
                yield number, (kind, ["verify", target], 0, None)
            else:
                yield number, (kind, self._argv(kind, rng), 0, None)

    def _argv(self, kind, rng):
        cox = self.cox["A3"]
        if kind.startswith("transition"):
            model = kind.split(":")[1]
            name = "A2" if model == "sym" else "A3"
            start, goal = self.cox[name].walk(rng), self.cox[name].walk(rng)
            if model == "sym":
                coords = "x,y,z"
            elif model == "rat":
                coords = csv(fraction_point(rng, len(start)))
            else:
                low = 0 if model == "tropn" else -20
                coords = csv(rng.randint(low, 20) for _ in start)
            return ["transition", "--datum", name, "--from", csv(start), "--to",
                    csv(goal), "--coords=" + coords, "--semifield", model]
        if kind in ("lambda", "rho"):
            coords = csv(rng.randint(-20, 20) for _ in cox.base)
            return [kind, "--datum", "A3", "--word", csv(cox.walk(rng)),
                    "--coords=" + coords, "--i", rng.choice(cox.labels)]
        if kind.startswith("folded"):
            model = kind.split(":")[1]
            if model == "g2":
                start, goal = G2_WORDS if rng.random() < 0.5 else G2_WORDS[::-1]
                return ["folded", "transition", "--model", "d4", "--from", csv(start),
                        "--to", csv(goal), "--coords", "a,b,c,d,e,f", "--semifield", "sym"]
            coords = (
                fraction_point(rng, 4) if model == "rat"
                else tuple(rng.randint(-20, 20) for _ in range(4))
            )
            return ["folded", "transition", "--model", rng.choice(("a3", "a4")), "--from",
                    "2,1,2,1", "--to", "1,2,1,2", "--coords=" + csv(coords),
                    "--semifield", model]
        if kind == "monoid:mul":
            return ["monoid", "mul", "--datum", "A3", "--left",
                    csv(rng.randint(0, 6) for _ in cox.base), "--right",
                    csv(rng.randint(0, 6) for _ in cox.base)]
        if kind == "monoid:lstring":
            return ["monoid", "lstring", "--datum", "A3", "--i", rng.choice(cox.labels),
                    "--coords", csv(rng.randint(0, 6) for _ in cox.base)]
        if kind == "monoid:crystal":
            return ["monoid", "crystal-graph", "--datum", "A2", "--bound",
                    str(rng.randint(1, 3))]
        if kind == "words":
            return ["words", "enumerate", "--datum", rng.choice(("A2", "A3"))]
        if kind == "datum":
            return ["datum", rng.choice(("validate", "fold")), "--builtin",
                    rng.choice(("A4+flip", "D4+triality", "Dstyle:n=2"))]
        return ["verify", "chain", "--id", rng.choice(("b2-from-a3", "b2-from-a4"))]

    def run(self, op):
        return subprocess.run(
            [sys.executable, "-m", "foldline", *op[1]],
            env=self.env, cwd=self.root, capture_output=True, text=True, timeout=120,
        )

    def observe(self, op, out):
        text = out.stdout
        if op[0] == "verify-all":  # PASS/FAIL lines precede the JSON document
            text = text[text.index("{"):]
        document = json.loads(text)
        seen = {"code": out.returncode, "status": document["status"]}
        if document["status"] == "error":
            seen["kind"] = document["kind"]
            return seen
        payload = document["payload"]
        kind = op[0]
        if kind == "verify-all":
            seen["verdicts"] = {r["name"]: r["ok"] for r in payload}
        elif kind == "chain":
            seen["verdicts"] = {payload["id"]: payload["ok"]}
        elif kind == "verify":
            seen["verdicts"] = {payload["name"]: payload["ok"]}
        elif kind in ("lambda", "rho"):
            seen["value"] = payload["value"]
        elif kind.startswith("transition") and not kind.endswith("sym"):
            seen["coords"] = [str(c["c"]) for c in payload]
        elif kind in ("folded:tropz", "folded:rat"):
            seen["coords"] = [str(c) for c in payload["coords"]]
        elif kind == "monoid:mul":
            seen["coords"] = payload["coords"]
        elif kind == "monoid:lstring":
            keys = ("l_scan", "l_coordinate", "r_scan", "r_coordinate")
            seen["lstring"] = [payload[k] for k in keys]
        elif kind == "words":
            seen["count"] = payload["count"]
        elif kind == "monoid:crystal":
            seen["dot"] = payload["dot"]
        return seen

    def check(self, op, seen):
        kind, argv, code, error_kind = op
        expect(seen["code"] == code, f"exit code {seen['code']}, expected {code}")
        if error_kind is not None:
            expect(seen["status"] == "error", "expected a typed error")
            expect(seen.get("kind") == error_kind, f"error kind {seen.get('kind')}")
            return
        expect(seen["status"] == "ok", "expected status ok")
        flags = dict(zip(argv, argv[1:]))
        flags.update(a.split("=", 1) for a in argv if a.startswith("--") and "=" in a)
        parse = lambda key: flags[key].split(",")  # noqa: E731
        if "verdicts" in seen:
            expect(seen["verdicts"] and all(seen["verdicts"].values()), "a check failed")
        if kind.startswith("transition") and not kind.endswith("sym"):
            cox = self.cox[flags["--datum"]]
            rational = kind.endswith("rat")
            values = [Fraction(v) if rational else int(v) for v in parse("--coords")]
            expected = ref.transport(
                cox, tuple(parse("--from")), tuple(parse("--to")), values,
                ref.rational3 if rational else ref.minplus3,
            )
            expect(seen["coords"] == [str(v) for v in expected], "transition differs")
        elif kind in ("lambda", "rho"):
            cox, i = self.cox["A3"], flags["--i"]
            word = cox.first_word(i) if kind == "lambda" else cox.last_word(i)
            moved = ref.transport(
                cox, tuple(parse("--word")), word, [int(v) for v in parse("--coords")]
            )
            expect(seen["value"] == moved[0 if kind == "lambda" else -1], f"{kind} differs")
        elif kind in ("folded:tropz", "folded:rat"):
            rational = kind.endswith("rat")
            values = [Fraction(v) if rational else int(v) for v in parse("--coords")]
            expected = (b2_rational if rational else b2_minplus)(*values)
            expect(seen["coords"] == [str(v) for v in expected], "closed form differs")
        elif kind == "monoid:mul":
            left, right = (tuple(int(v) for v in parse(k)) for k in ("--left", "--right"))
            expect(tuple(seen["coords"]) == self.monoid.mul(left, right), "product differs")
        elif kind == "monoid:lstring":
            m, i = tuple(int(v) for v in parse("--coords")), flags["--i"]
            l_scan, l_coord, r_scan, r_coord = seen["lstring"]
            expect(l_scan == l_coord == self.monoid.l(m, i), "l string differs")
            expect(r_scan == r_coord == self.monoid.r(m, i), "r string differs")
        elif kind == "words":
            expect(seen["count"] == {"A2": 2, "A3": 16}[flags["--datum"]], "count differs")


WORKLOADS = {w.name: w for w in (BraidPaths, MonoidCrystal, SymbolicFold, CliSession)}
