"""Semifield models: worked examples, algebra laws, tropicalization."""

import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from foldline.errors import SemifieldError
from foldline.exprs import TOKEN_LIMIT, parse_value
from foldline.semifield import (
    RATIONALS,
    TROP_INT,
    TROP_NAT,
    Poly,
    PosRational,
    SemifieldValue,
    SymbolicSemifield,
    SymRat,
    TropInt,
    TropNat,
    sym_equal,
)

SYM = SymbolicSemifield(("x", "y", "z"))


def sym_vars():
    names = SYM.vars()
    return names["x"], names["y"], names["z"]


class TestExamples:
    def test_tropical_min_plus_minus(self):
        three, five = TROP_INT.from_int(3), TROP_INT.from_int(5)
        assert (three + five).n == 3
        assert (three * five).n == 8
        assert (three / five).n == -2

    def test_rational_division(self):
        one, two = RATIONALS.value(1), RATIONALS.value(2)
        assert (one / two).q == Fraction(1, 2)

    def test_symbolic_identities(self):
        x, y, _ = sym_vars()
        assert x + y == y + x
        two = SYM.from_int(2)
        assert x * y / (x + x) == (y / two) * (x / x)

    def test_nfold_sum(self):
        assert (2 * RATIONALS.value(3)).q == 6
        assert (2 * TROP_INT.from_int(3)).n == 3
        x, _, _ = sym_vars()
        doubled = 2 * x
        assert doubled == x + x == x * 2 == x.nfold(2)
        assert str(doubled) == "2*x"

    def test_sym_equal(self):
        x, y, _ = sym_vars()
        assert sym_equal(x + y, y + x)
        assert sym_equal(x * y / (x + x), x * y / (2 * x))
        model = SymbolicSemifield(("a", "b", "c", "d"))
        env = model.vars()
        left = parse_value("a*b + a*d + c*d", model, env)
        right = parse_value("a*b + a*d + c*d + a*b*d", model, env)
        assert not sym_equal(left, right)

    def test_iota(self):
        assert TROP_INT.from_int(0).n == 0
        assert TROP_INT.from_int(7).n == 7
        assert TROP_INT.from_int(0) == TROP_INT.one()
        with pytest.raises(SemifieldError) as error:
            TROP_NAT.from_int(-1)
        assert error.value.kind == "tropnat-range"

    def test_tropnat_underflow(self):
        with pytest.raises(SemifieldError) as error:
            TROP_NAT.from_int(3) / TROP_NAT.from_int(5)
        assert error.value.kind == "tropnat-underflow"

    def test_model_mismatch(self):
        with pytest.raises(SemifieldError) as error:
            TROP_INT.from_int(1) + TROP_NAT.from_int(1)
        assert error.value.kind == "model-mismatch"
        with pytest.raises(SemifieldError):
            sym_equal(sym_vars()[0], SymbolicSemifield(("u",)).var("u"))

    def test_positive_only(self):
        with pytest.raises(SemifieldError):
            RATIONALS.value(0)
        with pytest.raises(SemifieldError):
            SYM.from_int(0)

    def test_exponent_limit(self):
        x = parse_value("x^100", SYM, SYM.vars())
        assert str(x) == "x^100"
        assert str(parse_value("(x^10)^10 + (y^2*z)^50", SYM, SYM.vars())) == "(x^100 + y^100*z^50)"
        for text in ("x^101", "(x^100)^100", "((x^10)^10)^2", "(y + (x^20)^2)^3"):
            with pytest.raises(SemifieldError) as error:
                parse_value(text, SYM, SYM.vars())
            assert error.value.kind == "limit", text

    def test_token_limit(self):
        # n factors joined by '*' are 2n - 1 tokens
        assert str(parse_value("*".join(["x"] * 500), SYM, SYM.vars())) == "x^500"
        with pytest.raises(SemifieldError) as error:
            parse_value("*".join(["x"] * 501), SYM, SYM.vars())
        assert error.value.kind == "limit"
        assert str(error.value) == f"expression has 1001 tokens, above {TOKEN_LIMIT}"

    def test_rendering(self):
        x, y, _ = sym_vars()
        assert str(2 * (x * y * y)) == "2*x*y^2"
        assert str((x + y) / x) == "(x + y) / x"


def _one_value_per_model():
    return (
        RATIONALS.value(Fraction(3, 2)),
        TROP_INT.from_int(-3),
        TROP_NAT.from_int(3),
        SYM.var("x") + SYM.var("y"),
    )


class TestValueProtocol:
    """What SemifieldValue supplies once for every value class."""

    VALUE_CLASSES = (PosRational, TropInt, TropNat, SymRat)

    @pytest.mark.parametrize("k", (0, -1))
    def test_nfold_needs_a_positive_count(self, k):
        for value in _one_value_per_model():
            for fold in (lambda: value.nfold(k), lambda: k * value, lambda: value * k):
                with pytest.raises(SemifieldError) as error:
                    fold()
                assert error.value.kind == "bad-nfold"

    def test_nfold_counts(self):
        rat, tropz, tropn, sym = _one_value_per_model()
        assert 3 * rat == rat + rat + rat
        assert tropz.nfold(5) is tropz and tropn.nfold(5) is tropn
        assert 3 * sym == sym + sym + sym

    def test_values_are_immutable(self):
        for value in _one_value_per_model():
            with pytest.raises(AttributeError):
                value.q = 1
            with pytest.raises(AttributeError):
                value.model = RATIONALS

    def test_protocol_is_written_once(self):
        """The tracer wraps SemifieldValue's operators, so no subclass may
        replace them; immutability and the nfold guard live there too."""
        shared = ("__setattr__", "nfold", "__add__", "__mul__", "__rmul__", "__truediv__", "__pow__")
        for cls in self.VALUE_CLASSES:
            assert not set(shared) & set(vars(cls)), cls.__name__
            assert issubclass(cls, SemifieldValue)

    def test_each_value_class_names_its_model(self):
        rat, tropz, tropn, sym = _one_value_per_model()
        assert (rat.model, tropz.model, tropn.model, sym.model) == (RATIONALS, TROP_INT, TROP_NAT, SYM)
        assert [m.name for m in (RATIONALS, TROP_INT, TROP_NAT, SYM)] == ["rat", "tropz", "tropn", "sym"]
        assert TROP_INT != TROP_NAT
        assert TropInt(2) != TropNat(2)

    def test_units_and_coercion(self):
        assert RATIONALS.one() == RATIONALS.from_int(1) == PosRational(1)
        assert TROP_INT.one() == TropInt(0) and TROP_NAT.one() == TropNat(0)
        assert SYM.one() == SYM.from_int(1)
        assert RATIONALS.from_int(4).q == 4 and TROP_NAT.from_int(4).n == 4

    @pytest.mark.parametrize(
        "build, kind",
        (
            (lambda: TropNat(-1), "tropnat-range"),
            (lambda: TROP_NAT.from_int(-1), "tropnat-range"),
            (lambda: TropNat(1.5), "not-integer"),
            (lambda: TropNat("2"), "not-integer"),
            (lambda: TropInt(1.5), "not-integer"),
            # bools are ints to isinstance; as tropz coordinates they used to
            # take the rational branch of transport
            (lambda: TropInt(True), "not-integer"),
            (lambda: TropNat(False), "not-integer"),
            (lambda: PosRational(-2), "not-positive"),
        ),
    )
    def test_typed_construction_errors(self, build, kind):
        with pytest.raises(SemifieldError) as error:
            build()
        assert error.value.kind == kind


ints = st.integers(min_value=-50, max_value=50)
nats = st.integers(min_value=0, max_value=50)
positive_rationals = st.fractions(min_value=Fraction(1, 20), max_value=20)


class TestAxioms:
    @given(ints, ints, ints)
    def test_tropint_laws(self, a, b, c):
        x, y, z = (TROP_INT.from_int(v) for v in (a, b, c))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert (x * y) / y == x

    @given(positive_rationals, positive_rationals, positive_rationals)
    def test_rational_laws(self, a, b, c):
        x, y, z = (RATIONALS.value(v) for v in (a, b, c))
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) / y == x

    @given(nats, nats)
    def test_tropnat_stability(self, a, b):
        """Closure under a+b, ab, a/(a+b): no underflow can occur."""
        x, y = TROP_NAT.from_int(a), TROP_NAT.from_int(b)
        assert (x + y).n == min(a, b)
        assert (x * y).n == a + b
        assert (x / (x + y)).n == a - min(a, b)

    @given(nats)
    def test_nfold_double(self, a):
        assert 2 * TROP_INT.from_int(a) == TROP_INT.from_int(a)
        assert (2 * RATIONALS.value(a + 1)).q == 2 * (a + 1)

    def test_symbolic_laws(self):
        x, y, z = sym_vars()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) / y == x
        assert ((x + y) / z) * z == x + y


# random subtraction-free expression trees for the homomorphism checks

_LEAVES = ("x", "y", "z")


def _tree(draw, depth):
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(("var", "const")))
        if kind == "const":
            return ("const", draw(st.integers(min_value=1, max_value=5)))
        return ("var", draw(st.sampled_from(_LEAVES)))
    op = draw(st.sampled_from(("+", "*", "/")))
    return (op, _tree(draw, depth - 1), _tree(draw, depth - 1))


@st.composite
def trees(draw):
    return _tree(draw, 3)


def _eval_tree(tree, env, model):
    if tree[0] == "const":
        # a bare constant k is a k-fold sum of ones (tropically: 0)
        return model.one().nfold(tree[1])
    if tree[0] == "var":
        return env[tree[1]]
    op, left, right = tree
    a = _eval_tree(left, env, model)
    b = _eval_tree(right, env, model)
    return a + b if op == "+" else a * b if op == "*" else a / b


@given(trees(), st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
def test_tropicalization_homomorphism(tree, a, b, c):
    """Evaluating the symbolic value tropically equals building the
    expression directly with min/plus/minus."""
    sym_env = {name: SYM.var(name) for name in _LEAVES}
    symbolic = _eval_tree(tree, sym_env, SYM)
    trop_env = {n: TROP_INT.from_int(v) for n, v in zip(_LEAVES, (a, b, c))}
    assert symbolic.evaluate(trop_env) == _eval_tree(tree, trop_env, TROP_INT)


@given(
    trees(),
    positive_rationals,
    positive_rationals,
    positive_rationals,
)
def test_rational_evaluation_homomorphism(tree, a, b, c):
    sym_env = {name: SYM.var(name) for name in _LEAVES}
    symbolic = _eval_tree(tree, sym_env, SYM)
    rat_env = {n: RATIONALS.value(v) for n, v in zip(_LEAVES, (a, b, c))}
    assert symbolic.evaluate(rat_env) == _eval_tree(tree, rat_env, RATIONALS)


@given(trees(), trees())
def test_cross_multiplied_equality_is_consistent(left, right):
    """Equal symbolic values evaluate equally; distinct ones may differ."""
    sym_env = {name: SYM.var(name) for name in _LEAVES}
    a = _eval_tree(left, sym_env, SYM)
    b = _eval_tree(right, sym_env, SYM)
    rat_env = {n: RATIONALS.value(Fraction(p, 7)) for n, p in zip(_LEAVES, (3, 11, 13))}
    if a == b:
        assert a.evaluate(rat_env) == b.evaluate(rat_env)


class TestPoly:
    def test_exact_division_roundtrip(self):
        model = SymbolicSemifield(("u", "v"))
        u, v = model.var("u"), model.var("v")
        product = (u + v) * (u + u * v + v)
        quotient = product.num.exact_div((u + v).num)
        assert quotient == (u + u * v + v).num

    def test_exact_division_failure(self):
        model = SymbolicSemifield(("u", "v"))
        u, v = model.var("u"), model.var("v")
        assert (u + v).num.exact_div((u * v).num) is None

    @given(st.integers(1, 9), st.integers(1, 9))
    def test_content(self, a, b):
        poly = Poly(1, {(0,): 2 * a, (1,): 2 * b})
        content, primitive = poly.primitive()
        assert content * primitive.terms[(0,)] == 2 * a

    def test_subtraction_free_invariant(self):
        """Stored numerators and denominators keep natural coefficients."""
        model = SymbolicSemifield(("a", "b", "c", "d"))
        env = model.vars()
        eps = parse_value("a*b^2 + a*d^2 + c*d^2 + 2*a*b*d", model, env)
        alpha = parse_value("a*b + a*d + c*d", model, env)
        value = (eps / alpha + env["b"] * env["c"]) / (env["b"] + env["d"])
        assert value.num.has_nonnegative_coefficients()
        assert value.den.has_nonnegative_coefficients()
