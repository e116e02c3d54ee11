import random
import tracemalloc
from itertools import repeat
from math import lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from korb.laurent import LaurentPoly, euler_class, parse_laurent
from korb.ring import (
    _cocycle_rows,
    build_sector_rings,
    check_exponents,
    generator_table,
    random_element,
    star_multiply,
)
from korb.sectors import (
    WpsData,
    build_wps,
    by_class,
    carry_keys,
    euler_product,
    fixed_set,
    fixed_weights,
    kernel_generator,
    obstruction_exponent,
    obstruction_set,
    residue_row,
    sector_pairs,
    sector_rows,
    structure_coefficient,
)

PAIR_VECTORS = [(1,), (2, 2, 3), (4, 6), (2, 4, 6), (3, 4, 5), (5, 7, 8)]
# the benchmark ladder, then repeated and non-coprime weights
RESIDUE_VECTORS = [(1, 2, 4), (3, 4, 5), (5, 7, 8), (1, 2, 3, 4, 5, 6, 7), (8, 9, 11),
                   (2, 2, 3), (4, 6), (6, 10, 15)]


def with_table(b):
    """(build_wps(b), the same weights given their logweight table b_k*s mod ell)."""
    d = build_wps(b)
    table = tuple(tuple(w * s % d.ell for s in range(d.ell)) for w in d.b)
    return d, WpsData(d.b, d.ell, table)


class TestBuildWps:
    def test_124_logweight_table(self):
        d = build_wps((1, 2, 4))
        assert d.ell == 4
        # numerators over ell: rows are (0, 1/4, 1/2, 3/4), (0, 1/2, 0, 1/2),
        # (0, 0, 0, 0)
        assert d.logw == ((0, 1, 2, 3), (0, 2, 0, 2), (0, 0, 0, 0))

    def test_all_ones(self):
        d = build_wps((1, 1, 1))
        assert d.ell == 1
        assert d.logw == ((0,), (0,), (0,))

    def test_23(self):
        d = build_wps((2, 3))
        assert d.ell == 6
        assert d.logw == ((0, 2, 4, 0, 2, 4), (0, 3, 0, 3, 0, 3))

    def test_rejects_bad_weight_by_index(self):
        with pytest.raises(ValueError, match="b_1"):
            build_wps((1, 0, 4))
        with pytest.raises(ValueError, match="b_2"):
            build_wps((1, 2, -3))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_wps(())

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="b_0"):
            build_wps((2.5, 1))
        with pytest.raises(ValueError, match="b_0 must be a positive integer, got True"):
            build_wps((True, 2))

    def test_non_effective_weights_allowed(self):
        d = build_wps((2, 4))
        assert d.ell == 4

    def test_ell_1022117_builds_no_table(self):
        # a table would hold 2 * 1,022,117 ints; the weights alone are O(n)
        tracemalloc.start()
        try:
            d = build_wps((1009, 1013))
            size = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d.ell == 1009 * 1013
        assert d.table is None
        assert size < 2**20

    def test_table_built_once_on_first_read(self):
        d = build_wps((2, 3))
        assert "logw" not in vars(d)
        assert d.logw is d.logw == ((0, 2, 4, 0, 2, 4), (0, 3, 0, 3, 0, 3))

    def test_given_table_is_returned_as_given(self):
        # logw does not correct a table; its readers check it
        table = ((0, 1, 2, 1), (0, 2, 0, 2), (0, 0, 0, 0))
        assert WpsData((1, 2, 4), 4, table).logw is table


class TestResiduesFromWeights:
    """build_wps gives no logweight table: its readers compute b_k*s mod
    ell from the weights.  They must agree with the same weights given the
    correct table, which each reader checks."""

    @pytest.mark.parametrize("b", RESIDUE_VECTORS, ids=lambda b: ",".join(map(str, b)))
    def test_carry_keys(self, b):
        d, given = with_table(b)
        assert carry_keys(d, range(d.ell)) == carry_keys(given, range(d.ell))
        assert carry_keys(d) == carry_keys(given) == carry_keys(d, range(d.ell))

    @pytest.mark.parametrize("b", RESIDUE_VECTORS, ids=lambda b: ",".join(map(str, b)))
    def test_sector_rows(self, b):
        rows = lambda d: [(s, list(classes), targets) for s, classes, targets in sector_rows(d, 0)]
        d, given = with_table(b)
        assert rows(d) == rows(given)

    @pytest.mark.parametrize("b", RESIDUE_VECTORS, ids=lambda b: ",".join(map(str, b)))
    def test_obstruction_exponent_over_all_pairs(self, b):
        d, given = with_table(b)
        for k in range(len(b)):
            for s in range(d.ell):
                ts = range(s, d.ell)
                ours = list(map(obstruction_exponent, repeat(d), repeat(k), repeat(s), ts))
                assert ours == list(
                    map(obstruction_exponent, repeat(given), repeat(k), repeat(s), ts)
                ), (k, s)

    @pytest.mark.parametrize("b", RESIDUE_VECTORS, ids=lambda b: ",".join(map(str, b)))
    def test_check_exponents(self, b):
        d, given = with_table(b)
        checks, failures = check_exponents(d)
        assert (checks, failures) == check_exponents(given)
        assert failures == ()

    @pytest.mark.parametrize("b", RESIDUE_VECTORS, ids=lambda b: ",".join(map(str, b)))
    def test_star_multiply(self, b):
        d, given = with_table(b)
        rings = build_sector_rings(d)
        rng = random.Random(sum(b))
        for _ in range(3):
            x, y = random_element(rings, d, rng), random_element(rings, d, rng)
            assert star_multiply(rings, d, x, y) == star_multiply(rings, given, x, y)


class TestFixedSet:
    def test_124(self):
        d = build_wps((1, 2, 4))
        assert fixed_set(d, 0) == (0, 1, 2)
        assert fixed_set(d, 1) == (2,)
        assert fixed_set(d, 2) == (1, 2)
        assert fixed_set(d, 3) == (2,)

    def test_empty_for_23(self):
        d = build_wps((2, 3))
        assert fixed_set(d, 1) == ()
        assert fixed_set(d, 5) == ()

    def test_out_of_range(self):
        d = build_wps((1, 2, 4))
        with pytest.raises(ValueError):
            fixed_set(d, 4)
        with pytest.raises(ValueError):
            fixed_set(d, -1)


class TestObstructionExponent:
    def test_124_examples(self):
        d = build_wps((1, 2, 4))
        assert obstruction_exponent(d, 1, 1, 1) == 1
        assert obstruction_exponent(d, 0, 1, 1) == 0

    def test_identity_sector(self):
        d = build_wps((2, 3))
        for k in range(2):
            for s in range(6):
                assert obstruction_exponent(d, k, 0, s) == 0

    def test_bad_coordinate_index(self):
        d = build_wps((1, 2, 4))
        with pytest.raises(ValueError):
            obstruction_exponent(d, 3, 0, 0)

    @pytest.mark.parametrize("b", [(1, 2, 4), (2, 3), (5,), (4, 6), (3, 3, 9)])
    def test_exhaustive_laws(self, b):
        # direct triple loop, independent of the deduped checker in ring
        d = build_wps(b)
        ell = d.ell
        for k in range(len(b)):
            for s in range(ell):
                for t in range(ell):
                    e = obstruction_exponent(d, k, s, t)
                    assert e in (0, 1)
                    assert e == obstruction_exponent(d, k, t, s)
                    for w in range(ell):
                        lhs = e + obstruction_exponent(d, k, (s + t) % ell, w)
                        rhs = obstruction_exponent(
                            d, k, s, (t + w) % ell
                        ) + obstruction_exponent(d, k, t, w)
                        assert lhs == rhs


class TestCarryRows:
    """The carry rows the cocycle check builds in closed form, and the
    residue rows whose carries are not exponents, which the pair iterator
    rejects."""

    @staticmethod
    def brute_force(r, ell):
        return [sum(1 << t for t, rt in enumerate(r) if rs + rt >= ell) for rs in r]

    def test_matches_brute_force(self):
        for m in range(1, 13):
            for g in (1, 2, 3):
                # the residues g*s, s < m, of one divisor class of ell = g*m
                r = range(0, g * m, g)
                assert _cocycle_rows(m) == self.brute_force(r, g * m), (m, g)

    @pytest.mark.parametrize(
        "r, ell",
        [((0, 3), 2), ((0, 1, 2, 7), 4), ((0, -1, 2, 3), 4), ((1,), 1),
         ((0, 1, 3, 2), 4), ((0, 2, 0, 0), 4)],
    )
    def test_rejects_rows_that_are_not_residues(self, r, ell):
        # each row as the logweights of one coordinate of weight 1
        with pytest.raises(ValueError):
            generator_table(WpsData((1,), ell, (r,)))


class TestSectorPairs:
    @pytest.mark.parametrize("first", [0, 1])
    @pytest.mark.parametrize("b", PAIR_VECTORS)
    def test_matches_per_pair_obstruction_sets(self, b, first):
        d = build_wps(b)
        expected = [
            (s, t, (s + t) % d.ell, tuple(d.b[k] for k in obstruction_set(d, s, t)))
            for s in range(first, d.ell)
            for t in range(s, d.ell)
        ]
        assert list(sector_pairs(d, first)) == expected

    def test_first_pair_at_ell_30030_needs_no_quadratic_memory(self):
        # per-pair bit rows would take n*ell^2/8 bytes here; the keys take O(ell)
        d = build_wps((2, 3, 5, 7, 11, 13))
        tracemalloc.start()
        try:
            first = next(sector_pairs(d, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == (1, 1, 2, ())
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("b", PAIR_VECTORS)
    def test_one_class_shares_one_weight_tuple(self, b):
        d = build_wps(b)
        shared = {}
        for s, t, tgt, ws in sector_pairs(d, 0):
            assert shared.setdefault(ws, ws) is ws, (s, t)
        assert len(shared) <= 2 ** len(b)


class TestStructureCoefficient:
    def test_table_cells_124(self):
        d = build_wps((1, 2, 4))
        assert structure_coefficient(d, 1, 1) == euler_class(2)
        assert structure_coefficient(d, 2, 2) == euler_class(1)
        assert structure_coefficient(d, 1, 2) == 1
        assert structure_coefficient(d, 3, 3) == parse_laurent("1 - u^-1 - u^-2 + u^-3")

    def test_unit_sector_column(self):
        d = build_wps((2, 3))
        for t in range(6):
            assert structure_coefficient(d, 0, t) == 1

    def test_symmetry_and_reconstruction(self):
        rng = random.Random(3)
        for b in [(1, 2, 4), (2, 3), (2, 2, 5), (6, 10, 15)]:
            d = build_wps(b)
            for _ in range(25):
                s = rng.randrange(d.ell)
                t = rng.randrange(d.ell)
                c = structure_coefficient(d, s, t)
                assert c == structure_coefficient(d, t, s)
                rebuilt = LaurentPoly.one()
                for k in range(len(b)):
                    rebuilt = rebuilt * euler_class(b[k]) ** obstruction_exponent(
                        d, k, s, t
                    )
                assert c == rebuilt

    def test_divides_full_product(self):
        # the coefficient is a subproduct of prod_k (1 - u^-b_k)
        d = build_wps((2, 3, 4))
        full = LaurentPoly.one()
        for w in d.b:
            full = full * euler_class(w)
        for s in range(d.ell):
            for t in range(d.ell):
                on = obstruction_set(d, s, t)
                complement = LaurentPoly.one()
                for k in range(len(d.b)):
                    if k not in on:
                        complement = complement * euler_class(d.b[k])
                assert structure_coefficient(d, s, t) * complement == full


class TestEulerProduct:
    def test_expansion(self):
        assert euler_product(()) == 1
        assert euler_product((1, 2)) == parse_laurent("1 - u^-1 - u^-2 + u^-3")

    def test_coefficients_and_kernels_share_one_value(self):
        d = build_wps((1, 2, 4))
        assert fixed_weights(d, 2) == (2, 4)
        assert structure_coefficient(d, 3, 3) is euler_product((1, 2))
        assert structure_coefficient(d, 1, 3) is structure_coefficient(d, 3, 3)
        assert kernel_generator(d, 2) is euler_product((2, 4))


class TestKernelGenerator:
    def test_124_sector0(self):
        d = build_wps((1, 2, 4))
        assert kernel_generator(d, 0).terms == {
            0: 1, -1: -1, -2: -1, -3: 1, -4: -1, -5: 1, -6: 1, -7: -1,
        }

    def test_124_sector1(self):
        d = build_wps((1, 2, 4))
        assert kernel_generator(d, 1) == euler_class(4)

    def test_collapsed_sector_is_one(self):
        d = build_wps((2, 3))
        assert kernel_generator(d, 1) == 1
        assert kernel_generator(d, 5) == 1

    def test_ordinary_projective_space(self):
        for n in range(1, 5):
            d = build_wps((1,) * (n + 1))
            assert d.ell == 1
            assert kernel_generator(d, 0) == euler_class(1) ** (n + 1)


def least_sectors(d):
    """For each sector s, the least sector with fixed_set(d, s), found by
    calling fixed_set on every sector."""
    least = {}
    return [least.setdefault(fixed_set(d, s), s) for s in range(d.ell)]


# 1 to 4 weights in 1..12 with ell = lcm(b) <= ELL_MAX
ELL_MAX = 2000
WEIGHT_VECTORS = st.lists(st.integers(1, 12), min_size=1, max_size=4).map(tuple).filter(
    lambda b: lcm(*b) <= ELL_MAX
)



class TestResidueRow:
    """residue_row(w, ell) repeats the multiples of w below ell w times
    instead of reducing w*s mod ell per sector; logw, check_exponents and
    carry_keys build their rows with it, so it must equal the definition."""

    @given(
        st.lists(st.integers(1, 12), min_size=1, max_size=5).map(tuple).filter(
            lambda b: lcm(*b) <= 5000
        )
    )
    @example((1,))
    @example((2, 2))
    @example((8, 9, 11))
    def test_rows_are_b_s_mod_ell(self, b):
        d = build_wps(b)
        ell = d.ell
        f = ell.bit_length() + 1
        for k, w in enumerate(b):
            row = [w * s % ell for s in range(ell)]
            assert residue_row(w, ell) == row
            assert residue_row(w, ell, f * k) == [r << f * k for r in row]
        assert d.logw == tuple(tuple(w * s % ell for s in range(ell)) for w in b)
        assert carry_keys(d) == carry_keys(d, range(ell))

    def test_a_given_table_comes_back_unchanged(self):
        # not the residues of 2,3: logw returns it as given, not rebuilt
        table = ((0, 2, 4, 0, 2, 5), (0, 3, 0, 3, 0, 3))
        d = WpsData((2, 3), 6, table)
        assert d.logw is table
        with pytest.raises(ValueError):
            carry_keys(d)


class TestByClass:
    @pytest.mark.parametrize(
        "b, classes", [((1, 2, 4), 3), ((8, 9, 11), 5), ((1009, 1013), 4)]
    )
    def test_one_make_per_class(self, b, classes):
        d = build_wps(b)
        made = {}

        def make(g):
            assert g not in made
            made[g] = [g]  # a new object per call
            return made[g]

        out = by_class(d, make)
        least = least_sectors(d)
        assert len(made) == classes
        assert sorted(made) == sorted(set(least))
        assert len(out) == d.ell
        assert all(x is made[g] for x, g in zip(out, least))

    # repeated weights; in (1,), (1, 1) and (2, 2) no sector is collapsed
    @given(WEIGHT_VECTORS)
    @example((1,))
    @example((1, 1))
    @example((2, 2))
    @example((2, 2, 3))
    @example((4, 6))
    @example((8, 9, 11))
    def test_classes_are_fixed_sets(self, b):
        d = build_wps(b)
        least = least_sectors(d)
        made = []
        assert list(by_class(d, lambda g: made.append(g) or g)) == least
        assert sorted(made) == sorted(set(least))
        ranks = [sum(b[k] for k in fixed_set(d, s)) for s in range(d.ell)]
        assert [r.rank for r in build_sector_rings(d)] == ranks


def age_factors(b, s, t):
    """The weights of c(s, t)'s Euler factors 1 - u^-b_k, by the definition
    of the full orbifold product (Jarvis-Kaufmann-Kimura), from integer
    ages A_k(g) = b_k*g mod ell and fixed loci alone.  A coordinate not
    fixed by both s and t gives (A_k(s) + A_k(t) + A_k(-(s+t)))/ell - 1
    factors of the obstruction bundle, and one more, of the pushforward
    into the fixed locus of s + t, when s + t fixes it."""
    ell = lcm(*b)
    ws = []
    for w in b:
        a_s, a_t, a_st = w * s % ell, w * t % ell, w * (s + t) % ell
        if a_s == a_t == 0:
            continue
        n, rem = divmod(a_s + a_t + -w * (s + t) % ell, ell)
        assert rem == 0, (b, s, t)
        ws += [w] * (n - 1 + (a_st == 0))
    return tuple(ws)


class TestAgesOracle:
    """sector_pairs' obstructed weights, read off packed carry keys,
    against the definition they come from."""

    VECTORS = [(1, 2, 4), (3, 4, 5), (5, 7, 8), (2, 2, 3), (4, 6), (6, 10, 15)]

    @pytest.mark.parametrize("b", VECTORS)
    def test_sector_pairs_match_the_definition(self, b):
        for s, t, _, ws in sector_pairs(build_wps(b), 0):
            assert ws == age_factors(b, s, t), (s, t)

    @pytest.mark.parametrize("b", VECTORS)
    def test_chen_ruan_degree(self, b):
        # each factor vanishes once at u = 1, so the order of vanishing of
        # c(s, t) is its number of factors: age(s) + age(t) - age(s + t),
        # with age(g) = sum_k A_k(g) / ell
        ell = lcm(*b)

        def age(g):
            return sum(w * g % ell for w in b)

        for s, t, tgt, ws in sector_pairs(build_wps(b), 0):
            assert len(ws) * ell == age(s) + age(t) - age(tgt), (s, t)


def test_doctests():
    import doctest

    import korb.sectors

    assert doctest.testmod(korb.sectors).failed == 0
