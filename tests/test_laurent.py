import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from korb.laurent import (
    LaurentPoly,
    MonicPoly,
    ParseError,
    divmod_monic,
    euler_class,
    normalize,
    parse_laurent,
)


def L(text):
    return parse_laurent(text)


class TestParse:
    def test_direct_term_reading(self):
        assert L("1 - u^-2").terms == {0: 1, -2: -1}

    def test_like_terms_combine(self):
        assert L("u^3 + 2u^3").terms == {3: 3}

    def test_zero(self):
        p = L("0")
        assert p.terms == {}
        assert p.is_zero

    def test_whitespace_and_star(self):
        assert L(" 2 * u^ -3 ") == L("2u^-3")
        assert L("+u") == L("u")

    def test_bare_integer_and_u(self):
        assert L("7").terms == {0: 7}
        assert L("u").terms == {1: 1}
        assert L("-u^+2").terms == {2: -1}

    def test_cancellation_to_zero(self):
        assert L("u^5 - u^5").is_zero

    @pytest.mark.parametrize(
        "bad",
        [
            "", "   ", "u^", "2*", "*u", "u 2", "2 3", "1 +", "^3", "u^--2", "x",
            "u^²", "²", "١٢u", "u^١",
        ],
    )
    def test_malformed(self, bad):
        with pytest.raises(ParseError) as err:
            L(bad)
        assert err.value.position >= 0

    def test_error_position_points_at_problem(self):
        with pytest.raises(ParseError) as err:
            L("1 + u^")
        assert err.value.position == 6


class TestPrint:
    @pytest.mark.parametrize(
        "text",
        ["0", "1", "-1", "u", "-u^-1", "1 - u^-2", "2u^3", "u^2 - 3",
         "3u^5 + u - 7u^-4"],
    )
    def test_print_parse_identity(self, text):
        assert str(L(text)) == text

    def test_parse_print_identity_random(self):
        rng = random.Random(11)
        for _ in range(300):
            terms = {
                rng.randint(-10, 10): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))
            }
            p = LaurentPoly(terms)
            assert parse_laurent(str(p)) == p

    @given(
        st.dictionaries(
            st.integers(min_value=-10, max_value=10),
            st.integers(min_value=-9, max_value=9),
            max_size=8,
        )
    )
    def test_roundtrip_property(self, terms):
        p = LaurentPoly(terms)
        assert parse_laurent(str(p)) == p
        assert str(parse_laurent(str(p))) == str(p)


class TestArithmetic:
    def test_add_cancellation(self):
        assert L("1 - u^-1") + L("u^-1") == 1

    def test_add_identity(self):
        x = L("3u^2 - u^-5")
        assert x + LaurentPoly.zero() == x

    def test_add_disjoint_merge(self):
        assert L("1 - u^-1") + L("1 - u^-2") == L("2 - u^-1 - u^-2")

    def test_mul_euler_pair(self):
        assert euler_class(1) * euler_class(2) == L("1 - u^-1 - u^-2 + u^-3")

    def test_mul_identity(self):
        x = L("5u^4 - 2 + u^-3")
        assert x * LaurentPoly.one() == x

    def test_mul_triple_euler_expansion(self):
        # eight terms, exponents 0..-7, all coefficients +-1
        p = euler_class(1) * euler_class(2) * euler_class(4)
        assert p.terms == {0: 1, -1: -1, -2: -1, -3: 1, -4: -1, -5: 1, -6: 1, -7: -1}

    def test_int_coercion(self):
        x = L("u - 1")
        assert 2 * x == L("2u - 2")
        assert x + 1 == L("u")
        assert 1 - x == L("2 - u")

    def test_pow(self):
        assert euler_class(1) ** 3 == L("1 - 3u^-1 + 3u^-2 - u^-3")
        assert L("u") ** 0 == 1

    def test_constants_hash_like_equal_ints(self):
        for c in (0, 1, -1, 7, 10**30):
            p = LaurentPoly.const(c)
            assert p == c
            assert hash(p) == hash(c)
            assert len({c, p}) == 1
            assert {c: "x"}[p] == "x"
        assert LaurentPoly.one() in {1: "x"}
        assert hash(L("u")) == hash(L("u"))
        assert L("u") != 1

    def test_ring_axioms_randomized(self):
        rng = random.Random(20260819)

        def rand():
            return LaurentPoly(
                {rng.randint(-10, 10): rng.randint(-9, 9) for _ in range(rng.randint(0, 5))}
            )

        zero = LaurentPoly.zero()
        one = LaurentPoly.one()
        for _ in range(1000):
            a, b, c = rand(), rand(), rand()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a
            assert a * one == a
            assert a - a == zero


class TestEulerClass:
    def test_values(self):
        assert euler_class(4) == L("1 - u^-4")
        assert euler_class(1) == L("1 - u^-1")
        assert euler_class(2) == L("1 - u^-2")

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            euler_class(0)


class TestNormalize:
    def test_single_euler(self):
        m = normalize(euler_class(4))
        assert m == MonicPoly((-1, 0, 0, 0, 1), 4, True)
        assert m.degree == 4 and m.constant == -1

    def test_triple_euler(self):
        m = normalize(euler_class(1) * euler_class(2) * euler_class(4))
        assert m.coeffs == (-1, 1, 1, -1, 1, -1, -1, 1)
        assert m.shift == 7
        assert m.monic
        assert m.constant == -1

    def test_one(self):
        assert normalize(LaurentPoly.one()) == MonicPoly((1,), 0, True)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize(LaurentPoly.zero())

    def test_sign_flips_to_positive_lead(self):
        m = normalize(L("-u^2 + 1"))
        assert m.coeffs == (-1, 0, 1)

    def test_non_unit_lead_keeps_coefficient(self):
        m = normalize(L("2u^3 - 1"))
        assert m.coeffs == (-1, 0, 0, 2)
        assert not m.monic

    def test_kernel_shape_always_unit_constant(self):
        # products of 1 - u^-w normalize to monic with constant +-1
        rng = random.Random(5)
        for _ in range(200):
            ws = [rng.randint(1, 12) for _ in range(rng.randint(1, 6))]
            g = LaurentPoly.one()
            for w in ws:
                g = g * euler_class(w)
            m = normalize(g)
            assert m.monic
            assert m.constant in (1, -1)
            assert m.degree == sum(ws)
            assert m.shift == sum(ws)


class TestDivmodMonic:
    def test_u4_mod_u4_minus_1(self):
        q, r = divmod_monic(L("u^4"), normalize(euler_class(4)))
        assert q == 1 and r == 1

    def test_square_of_u_minus_1(self):
        g = normalize(euler_class(1) * euler_class(1))
        assert g.coeffs == (1, -2, 1)
        q, r = divmod_monic(L("u^2"), g)
        assert q == 1 and r == L("2u - 1")

    def test_degree_zero_divisor(self):
        q, r = divmod_monic(L("5"), MonicPoly((1,), 0, True))
        assert q == 5 and r.is_zero

    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            divmod_monic(L("u^-1"), normalize(euler_class(4)))

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            divmod_monic(L("u"), MonicPoly((1, 2), 0, False))

    def test_remultiplication_randomized(self):
        rng = random.Random(77)
        for _ in range(300):
            x = LaurentPoly(
                {rng.randint(0, 12): rng.randint(-9, 9) for _ in range(rng.randint(0, 6))}
            )
            d = rng.randint(1, 5)
            coeffs = [rng.randint(-4, 4) for _ in range(d)] + [1]
            if coeffs[0] == 0:
                coeffs[0] = 1
            g = MonicPoly(tuple(coeffs), 0, True)
            q, r = divmod_monic(x, g)
            assert q * g.as_laurent() + r == x
            assert r.is_zero or r.max_exp < g.degree


class TestMonicPolyValidation:
    def test_flag_must_match_lead(self):
        with pytest.raises(ValueError):
            MonicPoly((1, 2), 0, True)

    def test_lead_must_be_positive(self):
        with pytest.raises(ValueError):
            MonicPoly((1, -1), 0, False)

    def test_constant_must_be_nonzero(self):
        with pytest.raises(ValueError):
            MonicPoly((0, 1), 0, True)


def test_doctests():
    import doctest

    import korb.laurent

    assert doctest.testmod(korb.laurent).failed == 0
