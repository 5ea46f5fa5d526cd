"""Normal forms, generator actions, products, crystal structure."""

import itertools
import random

import pytest

from foldline import chamber
from foldline.cartan import builtin, validate_automorphism
from foldline.errors import DatumError, FoldingError, MonoidError, SemifieldError, WordError
from foldline.folding import _unfolding, fold_coordinates, folded_decorated, standard_folding, unfold
from foldline.monoid import (
    MonoidElement,
    MonoidGenerator,
    crystal_graph_dot,
    crystal_raise,
    folded_mul,
    frobenius,
    generator_string,
    is_sigma_fixed_monoid,
    l_coordinate,
    l_scan,
    left_mul_gen,
    lower_to_zero,
    mul,
    normal_form,
    r_coordinate,
    r_scan,
    raise_to,
    reverse,
    right_mul_gen,
    sigma_monoid,
)
from foldline.semifield import TropNat
from foldline.weyl import base_word, enumerate_reduced_words, reduced_word_for_w0_starting_with

A1, _ = builtin("A1")
A2, _ = builtin("A2")
A3, _ = builtin("A3")
START = ("2", "1", "2", "1")


D4, _ = builtin("D4+triality")


def linear_string_lengths(m, i):
    """(l_i, r_i) as the least exponents that fix m under the left and right
    actions, searched linearly below the scan's bound: one past the largest
    coordinate at an i-first word (of the reversal, for r_i)."""

    def least(act, element):
        word = reduced_word_for_w0_starting_with(element.datum, i)
        at_word = chamber.transport(element.datum, element.word.letters, word.letters, element.coords)
        found = next((n for n in range(max(at_word) + 1) if act(n) == m), None)
        assert found is not None, "no exponent below the bound fixes m"
        return found

    return (
        least(lambda n: left_mul_gen(MonoidGenerator(i, n), m), m),
        least(lambda n: right_mul_gen(m, MonoidGenerator(i, n)), reverse(m)),
    )


def rand_element(rng, datum, bound=6):
    size = len(datum.labels) * 0  # placeholder, replaced below
    from foldline.weyl import base_word

    size = len(base_word(datum).letters)
    return MonoidElement(datum, tuple(rng.randint(0, bound) for _ in range(size)))


class TestNormalForm:
    def test_already_base(self):
        assert normal_form(A2, ("1", "2", "1"), (0, 1, 2)).coords == (0, 1, 2)

    def test_other_word(self):
        assert normal_form(A2, ("2", "1", "2"), (3, 0, 1)).coords == (0, 1, 2)

    def test_rank_one(self):
        assert normal_form(A1, ("1",), (5,)).coords == (5,)

    def test_independent_of_word(self):
        rng = random.Random(0)
        from foldline.weyl import enumerate_reduced_words

        words = enumerate_reduced_words(A3).vertices
        for _ in range(10):
            coords = tuple(rng.randint(0, 6) for _ in range(6))
            element = normal_form(A3, words[0], coords)
            # the image is independent of the word used to present it:
            # re-present the normal form along any other word
            from foldline import chamber
            from foldline.weyl import word_for_w0

            for letters in rng.sample(words, 3):
                moved = chamber.transition(
                    element.decorated(), word_for_w0(A3, letters)
                )
                again = normal_form(A3, letters, [c.n for c in moved.coords])
                assert again == element

    def test_negative_coordinates_rejected(self):
        with pytest.raises(MonoidError):
            MonoidElement(A2, (0, -1, 2))


class TestGeneratorAction:
    def test_min_into_first_coordinate(self):
        m = normal_form(A2, ("1", "2", "1"), (3, 1, 2))
        assert left_mul_gen(MonoidGenerator("1", 0), m).coords == (0, 1, 2)

    def test_no_change_when_already_smaller(self):
        m = normal_form(A2, ("1", "2", "1"), (0, 1, 2))
        assert left_mul_gen(MonoidGenerator("1", 2), m) == m

    def test_rank_one_min_law(self):
        m = normal_form(A1, ("1",), (5,))
        assert left_mul_gen(MonoidGenerator("1", 3), m).coords == (3,)

    def test_negative_exponent_rejected(self):
        m = normal_form(A2, ("1", "2", "1"), (0, 1, 2))
        with pytest.raises(MonoidError) as error:
            left_mul_gen(MonoidGenerator("1", -1), m)
        assert error.value.kind == "negative-exponent"
        with pytest.raises(MonoidError):
            right_mul_gen(m, MonoidGenerator("1", -1))

    def test_right_action_mirrors_left(self):
        m = normal_form(A2, ("1", "2", "1"), (0, 1, 2))
        assert right_mul_gen(m, MonoidGenerator("1", 0)).coords == (0, 1, 0)
        assert right_mul_gen(m, MonoidGenerator("1", 5)) == m

    def test_relations_on_normal_forms(self):
        rng = random.Random(1)
        for _ in range(60):
            m = rand_element(rng, A2)
            a, b = rng.randint(0, 6), rng.randint(0, 6)
            i = rng.choice(A2.labels)
            lhs = left_mul_gen(MonoidGenerator(i, a), left_mul_gen(MonoidGenerator(i, b), m))
            assert lhs == left_mul_gen(MonoidGenerator(i, min(a, b)), m)

    def test_commuting_relation(self):
        rng = random.Random(2)
        for _ in range(60):
            m = rand_element(rng, A3)
            a, b = rng.randint(0, 6), rng.randint(0, 6)
            lhs = left_mul_gen(MonoidGenerator("1", a), left_mul_gen(MonoidGenerator("3", b), m))
            rhs = left_mul_gen(MonoidGenerator("3", b), left_mul_gen(MonoidGenerator("1", a), m))
            assert lhs == rhs

    def test_braid_relation(self):
        rng = random.Random(3)
        for _ in range(60):
            m = rand_element(rng, A2)
            a, b, c = (rng.randint(0, 6) for _ in range(3))
            mn = min(a, c)
            lhs = left_mul_gen(
                MonoidGenerator("1", a),
                left_mul_gen(MonoidGenerator("2", b), left_mul_gen(MonoidGenerator("1", c), m)),
            )
            rhs = left_mul_gen(
                MonoidGenerator("2", b + c - mn),
                left_mul_gen(
                    MonoidGenerator("1", mn),
                    left_mul_gen(MonoidGenerator("2", a + b - mn), m),
                ),
            )
            assert lhs == rhs


class TestMul:
    def test_rank_one_is_min(self):
        x = normal_form(A1, ("1",), (4,))
        y = normal_form(A1, ("1",), (7,))
        assert mul(x, y).coords == (4,)
        assert mul(y, x).coords == (4,)

    def test_bottom_is_absorbing(self):
        bottom = MonoidElement(A2, (0, 0, 0))
        for coords in itertools.product(range(4), repeat=3):
            assert mul(bottom, MonoidElement(A2, coords)) == bottom

    def test_associativity(self):
        rng = random.Random(4)
        for datum in (A2, A3):
            for _ in range(25):
                x, y, z = (rand_element(rng, datum) for _ in range(3))
                assert mul(mul(x, y), z) == mul(x, mul(y, z))

    def test_generator_string_reconstructs(self):
        m = normal_form(A2, ("1", "2", "1"), (2, 3, 1))
        gens = generator_string(m)
        assert [g.i for g in gens] == ["1", "2", "1"]
        assert [g.n for g in gens] == [2, 3, 1]


def one_generator_at_a_time(m1, m2):
    """m1 m2 as m1's generator string acting on m2 through left_mul_gen."""
    out = m2
    for gen in reversed(generator_string(m1)):
        out = left_mul_gen(gen, out)
    return out


def at_by_definition(m, word):
    """m's coordinates at a word, moved as typed decorated words."""
    return [c.n for c in chamber.transition(m.decorated(), word).coords]


def element_by_definition(datum, word, coords):
    """The element with the given coordinates at a word: the component's
    typed coordinates at the base word."""
    moved = chamber.canonical(
        chamber.DecoratedWord(word, tuple(TropNat(c) for c in coords))
    )
    return MonoidElement(datum, tuple(c.n for c in moved.coords))


def gen_by_definition(gen, m):
    """xi_i^n m from typed decorated words: min into the first coordinate at
    an i-first word, then the component's coordinates at the base word."""
    word = reduced_word_for_w0_starting_with(m.datum, gen.i)
    coords = at_by_definition(m, word)
    coords[0] = min(gen.n, coords[0])
    return element_by_definition(m.datum, word, coords)


def l_by_definition(m, i):
    return at_by_definition(m, reduced_word_for_w0_starting_with(m.datum, i))[0]


def raise_by_definition(n, m, i):
    """The first coordinate at an i-first word set from 0 to n."""
    word = reduced_word_for_w0_starting_with(m.datum, i)
    coords = at_by_definition(m, word)
    assert coords[0] == 0, "raise_to needs l_i(m) = 0"
    coords[0] = n
    return element_by_definition(m.datum, word, coords)


def reverse_by_definition(m):
    return element_by_definition(m.datum, m.word.reversed(), m.coords[::-1])


def folded_mul_by_definition(fd, f1, f2, letters):
    """Unfold both factors as typed decorated words, multiply one generator
    at a time by gen_by_definition, and fold the product back."""
    factors = []
    for coords in (f1, f2):
        unfolded = unfold(folded_decorated(fd, letters, tuple(TropNat(c) for c in coords)))
        factors.append(element_by_definition(fd.source, unfolded.word, [c.n for c in unfolded.coords]))
    product = factors[1]
    for gen in reversed(generator_string(factors[0])):
        product = gen_by_definition(gen, product)
    assert chamber.is_sigma_fixed(product.decorated(), fd.sigma)
    return tuple(c.n for c in fold_coordinates(fd, product.decorated(), letters).coords)


WALK_DATA = ("A3", "A4", "D4+triality", "A4+flip")


class TestProductWalk:
    """mul walks raw ints across i-first words; it must agree with the
    product taken one generator (and one element) at a time."""

    @pytest.mark.parametrize("name", WALK_DATA)
    def test_mul_matches_one_generator_at_a_time(self, name):
        datum, _ = builtin(name)
        rng = random.Random(sum(map(ord, name)))
        for bound in (6, 10**6):
            for _ in range(6):
                m1, m2 = rand_element(rng, datum, bound), rand_element(rng, datum, bound)
                assert mul(m1, m2) == one_generator_at_a_time(m1, m2)

    @pytest.mark.parametrize("name", WALK_DATA)
    def test_left_mul_gen_matches_definition(self, name):
        datum, _ = builtin(name)
        rng = random.Random(sum(map(ord, name)) + 1)
        for bound in (6, 10**6):
            for _ in range(6):
                m = rand_element(rng, datum, bound)
                gen = MonoidGenerator(rng.choice(datum.labels), rng.randint(0, bound))
                assert left_mul_gen(gen, m) == gen_by_definition(gen, m)

    @pytest.mark.parametrize("name", WALK_DATA)
    def test_mul_makes_one_compiled_run_and_one_element(self, name, monkeypatch):
        """A product is one call of its compiled route, with no kernel run,
        and one element, built by the trusted constructor."""
        from foldline import monoid

        datum, _ = builtin(name)
        rng = random.Random(sum(map(ord, name)) + 2)
        m1, m2 = rand_element(rng, datum), rand_element(rng, datum)
        runs, kernel_runs, elements, checked = [], [], [], []
        compile_route, element, post_init = chamber._compile, monoid._element, MonoidElement.__post_init__

        def counting_compile(*args, **kwargs):
            route = compile_route(*args, **kwargs)

            def counted(*values):
                runs.append(values)
                return route(*values)

            return counted

        def counting_element(datum, coords):
            elements.append(coords)
            return element(datum, coords)

        def counting_post_init(self):
            checked.append(self.coords)
            post_init(self)

        monoid._route.cache_clear()
        monkeypatch.setattr(chamber, "_compile", counting_compile)
        monkeypatch.setattr(chamber, "_run", lambda *args: kernel_runs.append(args))
        monkeypatch.setattr(monoid, "_element", counting_element)
        monkeypatch.setattr(MonoidElement, "__post_init__", counting_post_init)
        product = mul(m1, m2)
        monoid._route.cache_clear()  # no counting route stays cached
        assert len(runs) == 1 and kernel_runs == []
        assert elements == [product.coords] and checked == []

    def test_left_mul_gen_exponent_errors(self):
        m = MonoidElement(A2, (1, 2, 3))
        with pytest.raises(MonoidError) as error:
            left_mul_gen(MonoidGenerator("2", -1), m)
        assert error.value.kind == "negative-exponent"
        with pytest.raises(SemifieldError) as error:
            left_mul_gen(MonoidGenerator("2", 1.5), m)
        assert error.value.kind == "not-integer"


A3_FLIP = validate_automorphism(A3, {"1": "3", "2": "2", "3": "1"})


def walked_elements():
    """(element, sigma or None): every A3 element with coordinates <= 2, then
    seeded A4, D4+triality and A4+flip elements, sigma-fixed ones included."""
    for coords in itertools.product(range(3), repeat=6):
        yield MonoidElement(A3, coords), A3_FLIP
    for name, model in (("A4", None), ("D4+triality", "d4"), ("A4+flip", "a4")):
        datum, sigma = builtin(name)
        rng = random.Random(sum(map(ord, name)) + 3)
        for bound in (6, 10**6):
            for _ in range(8):
                yield rand_element(rng, datum, bound), sigma
        if model is not None:
            fd = standard_folding(model)
            assert fd.source == datum and fd.sigma == sigma
            for letters in enumerate_reduced_words(fd.folded).vertices:
                coords = tuple(TropNat(rng.randint(0, 6)) for _ in letters)
                unfolded = unfold(folded_decorated(fd, letters, coords))
                yield normal_form(datum, unfolded.word.letters, [c.n for c in unfolded.coords]), sigma


class TestTableWalk:
    """Every operation the compiled routes serve agrees with its definition
    on typed decorated words."""

    def test_reads_actions_and_reversal_match_definitions(self):
        fixed = set()
        for m, sigma in walked_elements():
            assert reverse(m) == reverse_by_definition(m)
            if sigma is not None:
                expected = chamber.is_sigma_fixed(m.decorated(), sigma)
                assert is_sigma_fixed_monoid(m, sigma) is expected
                fixed.add(expected)
            for i in m.datum.labels:
                level = l_coordinate(m, i)
                assert level == l_by_definition(m, i)
                zero = lower_to_zero(m, i)
                assert zero == gen_by_definition(MonoidGenerator(i, 0), m)
                assert raise_to(level, zero, i) == m
                assert raise_to(level + 1, zero, i) == raise_by_definition(level + 1, zero, i)
        assert fixed == {True, False}

    def test_route_cache_holds_a_few_routes_per_datum(self):
        """Per datum: a string, a move to and one back from each walk word,
        the product's string, reversal, sigma, and one per folded word;
        running every operation again compiles nothing new."""
        from foldline import monoid

        info = monoid._route.cache_info()
        assert isinstance(info.maxsize, int) and info.maxsize <= 3 * 256
        monoid._route.cache_clear()

        def operations():
            crystal_graph_dot(A3, 3)
            for name in WALK_DATA:
                datum, sigma = builtin(name)
                rng = random.Random(sum(map(ord, name)) + 4)
                for _ in range(10):
                    m1, m2 = rand_element(rng, datum), rand_element(rng, datum)
                    i = rng.choice(datum.labels)
                    mul(m1, m2)
                    right_mul_gen(m1, MonoidGenerator(i, 2))
                    l_scan(m1, i), r_scan(m1, i), r_coordinate(m1, i)
                    raise_to(3, lower_to_zero(m2, i), i)
                    if sigma is not None:
                        is_sigma_fixed_monoid(m1, sigma)
            for model in ("a3", "a4", "d4"):
                fd = standard_folding(model)
                for letters in enumerate_reduced_words(fd.folded).vertices:
                    folded_mul(fd, (1,) * len(letters), (2,) * len(letters), letters)

        operations()
        routes = monoid._route.cache_info().currsize
        data = {A3, *(builtin(name)[0] for name in WALK_DATA)}
        folded_words = sum(
            len(enumerate_reduced_words(standard_folding(model).folded).vertices)
            for model in ("a3", "a4", "d4")
        )
        assert 0 < routes <= sum(3 * datum.rank + 3 for datum in data) + folded_words
        operations()
        assert monoid._route.cache_info().currsize == routes

    def test_unknown_label_raises_on_every_call(self):
        from foldline import monoid

        m = MonoidElement(A3, (1, 2, 0, 1, 2, 0))
        routes = monoid._route.cache_info().currsize
        for _ in range(2):
            for act in (
                lambda: left_mul_gen(MonoidGenerator("9", 1), m),
                lambda: l_coordinate(m, "9"),
                lambda: raise_to(1, m, "9"),
            ):
                with pytest.raises(DatumError) as error:
                    act()
                assert error.value.kind == "unknown-label"
        assert monoid._route.cache_info().currsize == routes  # no route for "9"

    def test_unknown_label_comes_before_not_simply_laced(self):
        b2, _ = builtin("B:n=2")
        m = MonoidElement(b2, (0, 1, 0, 2))
        for act in (
            lambda: left_mul_gen(MonoidGenerator("9", 1), m),
            lambda: l_coordinate(m, "9"),
            lambda: raise_to(1, m, "9"),
        ):
            with pytest.raises(DatumError) as error:
                act()
            assert error.value.kind == "unknown-label"
        with pytest.raises(WordError) as error:
            l_coordinate(m, "1")
        assert error.value.kind == "not-simply-laced"


class TestBoolsAreNotIntegers:
    """isinstance(True, int) holds; bools must still fail every int check."""

    m = MonoidElement(A2, (1, 2, 3))

    @pytest.mark.parametrize("coords", ((True, False, True), (1, True, 3)))
    def test_bool_coordinates_rejected(self, coords):
        # such an element used to print 1^True ..., and mul and l_coordinate
        # then took the rational branch of transport
        with pytest.raises(MonoidError) as error:
            MonoidElement(A2, coords)
        assert error.value.kind == "bad-coords"

    def test_bool_coordinates_rejected_along_any_word(self):
        with pytest.raises(SemifieldError) as error:
            normal_form(A2, ("2", "1", "2"), (True, False, True))
        assert error.value.kind == "not-integer"

    @pytest.mark.parametrize("n", (True, False, "2", 1.5))
    def test_generator_exponent_type_checked_before_sign(self, n):
        actions = (
            lambda: left_mul_gen(MonoidGenerator("1", n), self.m),
            lambda: right_mul_gen(self.m, MonoidGenerator("1", n)),
            lambda: raise_to(n, self.m, "2"),
        )
        for act in actions:
            with pytest.raises(SemifieldError) as error:
                act()
            assert error.value.kind == "not-integer"

    @pytest.mark.parametrize("e", (True, "2", 1.5))
    def test_frobenius_exponent_type_checked_before_sign(self, e):
        with pytest.raises(MonoidError) as error:
            frobenius(e, self.m)
        assert error.value.kind == "bad-exponent"


class TestSigma:
    def test_identity_fixes(self):
        from foldline.cartan import identity_automorphism

        m = normal_form(A2, ("1", "2", "1"), (0, 1, 2))
        assert sigma_monoid(m, identity_automorphism(A2)) == m

    def test_involution(self):
        datum, sigma = builtin("Dstyle:n=2")
        rng = random.Random(5)
        for _ in range(10):
            m = rand_element(rng, datum)
            assert sigma_monoid(sigma_monoid(m, sigma), sigma) == m

    def test_unfolded_elements_are_fixed(self):
        fd = standard_folding("a3")
        rng = random.Random(6)
        for _ in range(10):
            coords = tuple(TropNat(rng.randint(0, 6)) for _ in range(4))
            unfolded = unfold(folded_decorated(fd, ("2", "1", "2", "1"), coords))
            m = normal_form(fd.source, unfolded.word.letters, [c.n for c in unfolded.coords])
            assert is_sigma_fixed_monoid(m, fd.sigma)

    def test_sigma_fixed_closed_under_product(self):
        fd = standard_folding("a3")
        rng = random.Random(7)
        for _ in range(10):
            elements = []
            for _ in range(2):
                coords = tuple(TropNat(rng.randint(0, 6)) for _ in range(4))
                unfolded = unfold(folded_decorated(fd, ("2", "1", "2", "1"), coords))
                elements.append(
                    normal_form(fd.source, unfolded.word.letters, [c.n for c in unfolded.coords])
                )
            assert is_sigma_fixed_monoid(mul(*elements), fd.sigma)


class TestFoldedMul:
    def test_bottom_absorbing(self):
        fd = standard_folding("a3")
        out = folded_mul(fd, (0, 0, 0, 0), (2, 1, 3, 1), ("2", "1", "2", "1"))
        assert out == (0, 0, 0, 0)

    def test_matches_unfolded_product(self):
        fd = standard_folding("a3")
        rng = random.Random(8)
        word = ("2", "1", "2", "1")
        for _ in range(10):
            f1 = tuple(rng.randint(0, 5) for _ in range(4))
            f2 = tuple(rng.randint(0, 5) for _ in range(4))
            folded_result = folded_mul(fd, f1, f2, word)
            elements = []
            for coords in (f1, f2):
                unfolded = unfold(
                    folded_decorated(fd, word, tuple(TropNat(c) for c in coords))
                )
                elements.append(
                    normal_form(fd.source, unfolded.word.letters, [c.n for c in unfolded.coords])
                )
            product = mul(*elements)
            expected = unfold(
                folded_decorated(fd, word, tuple(TropNat(c) for c in folded_result))
            )
            assert normal_form(
                fd.source, expected.word.letters, [c.n for c in expected.coords]
            ) == product

    def test_closure(self):
        fd = standard_folding("a4")
        rng = random.Random(9)
        word = ("1", "2", "1", "2")
        for _ in range(10):
            f1 = tuple(rng.randint(0, 5) for _ in range(4))
            f2 = tuple(rng.randint(0, 5) for _ in range(4))
            out = folded_mul(fd, f1, f2, word)
            assert all(isinstance(c, int) and c >= 0 for c in out)


class TestFoldedMulFastPath:
    @pytest.mark.parametrize("model", ("a3", "a4", "d4"))
    @pytest.mark.parametrize("top", (6, 10**6))
    def test_matches_the_wrapped_route(self, model, top):
        fd = standard_folding(model)
        rng = random.Random(31)
        for letters in enumerate_reduced_words(fd.folded).vertices:
            for _ in range(4):
                f1, f2 = (tuple(rng.randint(0, top) for _ in letters) for _ in range(2))
                assert folded_mul(fd, f1, f2, letters) == folded_mul_by_definition(fd, f1, f2, letters)

    @pytest.mark.parametrize(
        "f1, letters, error, kind",
        [
            ((1, 2, 3), START, FoldingError, "coords-length"),
            ((1, -2, 3, 4), START, SemifieldError, "tropnat-range"),
            ((1, True, 3, 4), START, SemifieldError, "not-integer"),
            ((1, 2, 3, 4), ("1", "1", "2", "2"), WordError, "not-reduced"),
            ((1, 2, 3, 4), ("2", "1", "2", "9"), DatumError, "unknown-label"),
            ((1, 2, 3), ("2", "1", "2"), WordError, "not-reduced"),
            ((1, -2, 3, 4), ("1", "1", "2", "2"), SemifieldError, "tropnat-range"),
        ],
    )
    def test_malformed_inputs_keep_their_kinds(self, f1, letters, error, kind):
        with pytest.raises(error) as raised:
            folded_mul(standard_folding("a3"), f1, (0, 0, 0, 0), letters)
        assert raised.value.kind == kind

    @pytest.mark.parametrize("model", ("a3", "a4", "d4"))
    def test_a_product_off_the_block_pattern_is_not_sigma_fixed(self, model, monkeypatch):
        """folded_mul reads its product back through the block pattern, which
        fails exactly when the product is not sigma-fixed."""
        from foldline import monoid

        fd = standard_folding(model)
        letters = enumerate_reduced_words(fd.folded).vertices[0]
        unfolded = _unfolding(fd, letters)[1]
        moved = tuple(range(len(unfolded.letters)))  # distinct entries break every block
        at_word = chamber.DecoratedWord(unfolded, tuple(map(TropNat, moved)))
        assert not chamber.is_sigma_fixed(at_word, fd.sigma)
        monkeypatch.setattr(monoid, "_route", lambda *key: lambda *values: moved)
        with pytest.raises(FoldingError) as raised:
            folded_mul(fd, (1,) * len(letters), (2,) * len(letters), letters)
        assert raised.value.kind == "not-sigma-fixed"


class TestFrobenius:
    def test_scaling_example(self):
        m = normal_form(A2, ("1", "2", "1"), (1, 2, 3))
        assert frobenius(2, m).coords == (2, 4, 6)

    def test_identity(self):
        m = normal_form(A2, ("1", "2", "1"), (1, 2, 3))
        assert frobenius(1, m) == m

    def test_composition(self):
        rng = random.Random(10)
        for _ in range(20):
            m = rand_element(rng, A2)
            assert frobenius(2, frobenius(3, m)) == frobenius(6, m)

    def test_multiplicative(self):
        rng = random.Random(11)
        for e in (1, 2, 3):
            for _ in range(20):
                x, y = rand_element(rng, A3), rand_element(rng, A3)
                assert frobenius(e, mul(x, y)) == mul(frobenius(e, x), frobenius(e, y))

    def test_commutes_with_sigma(self):
        datum, sigma = builtin("Dstyle:n=2")
        rng = random.Random(12)
        for _ in range(20):
            m = rand_element(rng, datum)
            e = rng.randint(1, 3)
            assert sigma_monoid(frobenius(e, m), sigma) == frobenius(e, sigma_monoid(m, sigma))

    def test_bad_exponent(self):
        m = normal_form(A2, ("1", "2", "1"), (1, 2, 3))
        with pytest.raises(MonoidError):
            frobenius(0, m)


class TestStringLengths:
    def test_examples(self):
        m = normal_form(A2, ("1", "2", "1"), (0, 1, 2))
        assert l_coordinate(m, "1") == 0
        assert l_coordinate(m, "2") == 3
        assert r_coordinate(m, "1") == 2

    def test_scan_agrees_with_coordinates(self):
        rng = random.Random(13)
        for datum in (A2, A3):
            for _ in range(20):
                m = rand_element(rng, datum)
                i = rng.choice(datum.labels)
                assert l_scan(m, i) == l_coordinate(m, i)
                assert r_scan(m, i) == r_coordinate(m, i)

    def test_scan_definition(self):
        """xi_i^a m = m exactly when a >= l_i(m)."""
        m = normal_form(A2, ("1", "2", "1"), (0, 1, 2))
        level = l_coordinate(m, "2")
        for a in range(level):
            assert left_mul_gen(MonoidGenerator("2", a), m) != m
        for a in range(level, level + 3):
            assert left_mul_gen(MonoidGenerator("2", a), m) == m

    def test_scan_matches_linear_definition(self):
        """The search returns the least fixing exponent, as a linear scan does."""
        rng = random.Random(17)
        for datum in (A2, A3):
            for _ in range(15):
                m = rand_element(rng, datum, bound=9)
                i = rng.choice(datum.labels)
                assert (l_scan(m, i), r_scan(m, i)) == linear_string_lengths(m, i)

    @pytest.mark.parametrize("shift", (-3, -1, 1, 3))
    def test_scan_survives_a_wrong_guess(self, shift, monkeypatch):
        """Every probe is a real action, so a wrong first guess still ends
        at the least fixing exponent."""
        from foldline import monoid

        original = monoid._at

        def misread(*args):
            coords = list(original(*args))
            top = max(coords)
            coords[0] = max(0, coords[0] + shift)
            return coords + [top]  # the bound still dominates l_i

        monkeypatch.setattr(monoid, "_at", misread)
        rng = random.Random(19)
        for datum in (A2, A3, D4):
            for _ in range(6):
                m = rand_element(rng, datum, bound=9)
                i = rng.choice(datum.labels)
                assert (l_scan(m, i), r_scan(m, i)) == linear_string_lengths(m, i)

    @staticmethod
    def count_probes(monkeypatch, attempts, limit=None):
        """Record the exponent of every call of a one-generator route from
        the base word back to it: each is one probe of a scan."""
        from foldline import monoid

        original = monoid._route

        def counting_route(datum, start, letters, goal):
            route = original(datum, start, letters, goal)
            if (start, len(letters), goal) != (None, 1, None):
                return route

            def probe(*values):
                attempts.append(values[-1])
                assert limit is None or len(attempts) <= limit, "scan is not logarithmic"
                return route(*values)

            return probe

        monkeypatch.setattr(monoid, "_route", counting_route)

    def test_scan_with_a_right_guess_makes_two_actions(self, monkeypatch):
        attempts = []
        self.count_probes(monkeypatch, attempts)
        rng = random.Random(23)
        for datum in (A2, A3, D4):
            for _ in range(4):
                m = rand_element(rng, datum, bound=9)
                for i in datum.labels:
                    for scan, read in ((l_scan, l_coordinate), (r_scan, r_coordinate)):
                        attempts.clear()
                        assert scan(m, i) == read(m, i)
                        assert 1 <= len(attempts) <= 2

    def test_scan_attempts_are_logarithmic(self, monkeypatch):
        """r_scan acts on the reversal from the left; count those actions."""
        attempts = []
        self.count_probes(monkeypatch, attempts, limit=2 * (10**8).bit_length() + 2)
        m = normal_form(A2, ("1", "2", "1"), (0, 0, 10**8))
        assert r_scan(m, "1") == 10**8
        assert attempts, "the scan made no generator actions"


class TestCrystal:
    def test_raise_lower_inverse(self):
        rng = random.Random(14)
        for _ in range(30):
            m = rand_element(rng, A2)
            i = rng.choice(A2.labels)
            zero = lower_to_zero(m, i)
            n = rng.randint(0, 5)
            raised = raise_to(n, zero, i)
            assert l_coordinate(raised, i) == n
            assert lower_to_zero(raised, i) == zero

    def test_raise_to_zero_is_identity_on_fiber(self):
        m = lower_to_zero(normal_form(A2, ("1", "2", "1"), (3, 1, 2)), "1")
        assert raise_to(0, m, "1") == m

    def test_raise_precondition(self):
        m = normal_form(A2, ("1", "2", "1"), (3, 1, 2))
        assert l_coordinate(m, "1") == 3
        with pytest.raises(MonoidError) as error:
            raise_to(2, m, "1")
        assert error.value.kind == "raise-precondition"

    def test_crystal_raise_steps_string_length(self):
        m = MonoidElement(A2, (0, 0, 0))
        up = crystal_raise(m, "1")
        assert l_coordinate(up, "1") == 1

    def test_dot_export(self):
        dot = crystal_graph_dot(A2, 2)
        assert dot.startswith("digraph crystal")
        assert '[label="1"]' in dot and '[label="2"]' in dot
        assert '[label="0,0,0"]' in dot


class TestPastTheSearch:
    """D5 and A5, where a braid path search ended in kind limit: the monoid
    walks constructive paths there, its laws hold on seeded elements, and a
    normal form from the reversed base word answers."""

    @pytest.mark.parametrize("name", ("Dstyle:n=4", "A5"))
    def test_laws(self, name):
        datum, _ = builtin(name)
        rng = random.Random(f"past:{name}")
        gen = lambda i, n: MonoidGenerator(i, n)  # noqa: E731
        act, relations = left_mul_gen, set()
        for _ in range(20):
            m = rand_element(rng, datum, bound=9)
            i, j = rng.sample(datum.labels, 2)
            relations.add(datum.dot(i, j))
            a, b, c = (rng.randint(0, 9) for _ in range(3))
            assert act(gen(i, a), act(gen(i, b), m)) == act(gen(i, min(a, b)), m)
            if datum.dot(i, j) == 0:
                assert act(gen(i, a), act(gen(j, b), m)) == act(gen(j, b), act(gen(i, a), m))
            else:
                low = min(a, c)
                lhs = act(gen(i, a), act(gen(j, b), act(gen(i, c), m)))
                rhs = act(gen(j, b + c - low), act(gen(i, low), act(gen(j, a + b - low), m)))
                assert lhs == rhs
            assert l_scan(m, i) == l_coordinate(m, i)
            assert r_scan(m, i) == r_coordinate(m, i)
            zero = lower_to_zero(m, i)
            assert raise_to(l_coordinate(m, i), zero, i) == m
            assert lower_to_zero(raise_to(a, zero, i), i) == zero
            x, y = rand_element(rng, datum, bound=9), rand_element(rng, datum, bound=9)
            assert mul(mul(x, y), m) == mul(x, mul(y, m))
            assert mul(x, y) == one_generator_at_a_time(x, y)
            assert normal_form(datum, m.word.letters[::-1], m.coords[::-1]) == reverse(m)
        assert relations == {0, -1}


TRUSTED_DATA = ("A3", "A4", "D4+triality", "Dstyle:n=4")


class TestTrustedElements:
    """Answers built from route output skip the public coordinate check;
    each must still pass it, and the two-call raise must agree with its
    definition through lower_to_zero and raise_to."""

    @pytest.mark.parametrize("name", TRUSTED_DATA)
    def test_every_answer_revalidates(self, name):
        datum, sigma = builtin(name)
        sigma = sigma or {"A3": A3_FLIP, "A4": builtin("A4+flip")[1]}[name]
        words = [reduced_word_for_w0_starting_with(datum, i).letters for i in datum.labels]
        rng = random.Random(f"trusted:{name}")
        for bound in (6, 10**6):
            for _ in range(6):
                m1, m2 = rand_element(rng, datum, bound), rand_element(rng, datum, bound)
                i = rng.choice(datum.labels)
                zero = lower_to_zero(m1, i)
                answers = (
                    mul(m1, m2),
                    left_mul_gen(MonoidGenerator(i, rng.randint(0, bound)), m2),
                    reverse(m1),
                    sigma_monoid(m1, sigma),
                    frobenius(rng.randint(1, 3), m1),
                    zero,
                    raise_to(rng.randint(0, bound), zero, i),
                    crystal_raise(m1, i),
                    normal_form(datum, rng.choice(words), m2.coords),
                )
                for m in answers:
                    assert type(m) is MonoidElement and m.datum == datum
                    assert MonoidElement(m.datum, m.coords) == m

    @pytest.mark.parametrize("name", TRUSTED_DATA)
    def test_raise_is_lower_then_raise_one_past_the_string(self, name):
        datum, _ = builtin(name)
        rng = random.Random(f"raise:{name}")
        for bound in (6, 10**6):
            for _ in range(6):
                m = rand_element(rng, datum, bound)
                for i in datum.labels:
                    expected = raise_to(l_coordinate(m, i) + 1, lower_to_zero(m, i), i)
                    assert crystal_raise(m, i) == expected


def folded_mul_by_blocks(fd, f1, f2, letters):
    """folded_mul composed of folding's block spread, the product route and
    folding's block read."""
    from foldline import monoid
    from foldline.folding import _read_blocks, _spread

    _, word, layout, _ = _unfolding(fd, tuple(letters))
    spreads = [[c for n, block in zip(coords, layout) for c in _spread(n, block)] for coords in (f1, f2)]
    unfolded = word.letters
    product = monoid._route(fd.source, unfolded, unfolded, unfolded)(*spreads[1], *spreads[0])
    return tuple(_read_blocks(product, layout))


def outcome(fn, *args):
    """fn's answer, or the kind of the FoldingError it raised."""
    try:
        return fn(*args)
    except FoldingError as error:
        return error.kind


class TestFoldedMulGathers:
    @pytest.mark.parametrize("model", ("a3", "a4", "d4"))
    def test_matches_the_block_composition(self, model):
        fd = standard_folding(model)
        words = enumerate_reduced_words(fd.folded).vertices
        rng = random.Random(f"gathers:{model}")
        for k in range(50):
            letters = words[k % len(words)]
            f1, f2 = (tuple(rng.randint(0, 5) for _ in letters) for _ in range(2))
            assert folded_mul(fd, f1, f2, letters) == folded_mul_by_blocks(fd, f1, f2, letters)

    @pytest.mark.parametrize("model", ("a3", "a4", "d4"))
    def test_one_entry_off_reads_as_the_block_composition(self, model, monkeypatch):
        """A product with one entry moved off: both read it the same, as a
        value where that entry is a block of its own, as not-sigma-fixed
        elsewhere."""
        from foldline import monoid

        fd = standard_folding(model)
        letters = enumerate_reduced_words(fd.folded).vertices[0]
        f1, f2 = (1,) * len(letters), (2,) * len(letters)
        unfolded = _unfolding(fd, letters)[1].letters
        route = monoid._route(fd.source, unfolded, unfolded, unfolded)
        product = route(*(2,) * len(unfolded), *(1,) * len(unfolded))
        kinds = set()
        for p in range(len(product)):
            moved = product[:p] + (product[p] + 1,) + product[p + 1 :]
            monkeypatch.setattr(monoid, "_route", lambda *key: lambda *values: moved)
            seen = outcome(folded_mul, fd, f1, f2, letters)
            assert seen == outcome(folded_mul_by_blocks, fd, f1, f2, letters)
            kinds.add(seen == "not-sigma-fixed")
        assert True in kinds
