import random
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import korb.ring
import korb.sectors
from korb.laurent import (
    LaurentPoly,
    MonicPoly,
    divmod_monic,
    euler_class,
    parse_laurent,
)
from korb.ring import (
    KOrbElement,
    SectorRing,
    alpha,
    build_sector_rings,
    check_exponents,
    element_from_residues,
    generator_table,
    presentation,
    random_element,
    reduce,
    star_multiply,
    torsion_report,
    total_rank,
    unit_element,
    verify,
    zero_element,
)
from korb.sectors import WpsData, build_wps, structure_coefficient

E1 = euler_class(1)
E2 = euler_class(2)
E4 = euler_class(4)


@pytest.fixture(scope="module")
def d124():
    return build_wps((1, 2, 4))


@pytest.fixture(scope="module")
def rings124(d124):
    return build_sector_rings(d124)


class TestBuildSectorRings:
    def test_ranks_124(self, rings124):
        assert tuple(r.rank for r in rings124) == (7, 4, 6, 4)

    def test_ranks_p1(self):
        rings = build_sector_rings(build_wps((1, 1)))
        assert tuple(r.rank for r in rings) == (2,)

    def test_ranks_23_with_collapsed(self):
        rings = build_sector_rings(build_wps((2, 3)))
        assert tuple(r.rank for r in rings) == (5, 0, 3, 2, 3, 0)

    def test_normalized_generator_sector0(self, rings124):
        gm = rings124[0].gmonic
        assert gm.coeffs == (-1, 1, 1, -1, 1, -1, -1, 1)
        assert gm.shift == 7
        assert gm.monic

    def test_collapsed_sector_data(self):
        rings = build_sector_rings(build_wps((2, 3)))
        assert rings[1].gen == 1
        assert rings[1].gmonic.coeffs == (1,)

    def test_rank_formula(self):
        rng = random.Random(14)
        for _ in range(30):
            b = tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 4)))
            d = build_wps(b)
            for s, r in enumerate(build_sector_rings(d)):
                expected = sum(
                    b[k] for k in range(len(b)) if b[k] * s % d.ell == 0
                )
                assert r.rank == expected

    @pytest.mark.parametrize(
        "b", [(1, 2, 4), (2, 3), (4, 6), (6, 10, 15), (3, 4, 5), tuple(range(1, 8))]
    )
    def test_one_shared_ring_per_gcd_class(self, b):
        d = build_wps(b)
        rings = build_sector_rings(d)
        assert len(rings) == d.ell
        for s, r in enumerate(rings):
            assert r.rank == sum(w for w in b if w * s % d.ell == 0)
            assert r is rings[gcd(s, d.ell) % d.ell]
        classes = {gcd(s, d.ell) for s in range(d.ell)}
        assert len({id(r) for r in rings}) == len(classes)

    def test_one_fixed_set_per_divisor_of_ell(self, monkeypatch):
        calls = []
        real = korb.sectors.fixed_set
        monkeypatch.setattr(
            korb.sectors, "fixed_set", lambda d, s: calls.append(s) or real(d, s)
        )
        build_sector_rings(build_wps((8, 9, 11)))
        # 792 = 2^3 * 3^2 * 11 has 4 * 3 * 2 divisors
        assert len(calls) == 24

    def test_inverse_of_u(self, rings124):
        u_inv = LaurentPoly.monomial(-1)
        assert reduce(rings124[1], u_inv) == parse_laurent("u^3")
        for b in [(1, 2, 4), (2, 3), (6, 10, 15)]:
            d = build_wps(b)
            for r in build_sector_rings(d):
                if r.rank > 0:
                    inv = reduce(r, u_inv)
                    assert reduce(r, LaurentPoly.monomial(1) * inv) == 1


class TestReduce:
    def test_u_inverse_in_sector1(self, rings124):
        assert reduce(rings124[1], parse_laurent("u^-1")) == parse_laurent("u^3")

    def test_square_sector(self):
        rings = build_sector_rings(build_wps((1, 1)))
        assert rings[0].gmonic.coeffs == (1, -2, 1)
        assert reduce(rings[0], parse_laurent("u^2")) == parse_laurent("2u - 1")

    def test_collapsed_sector_kills_everything(self):
        rings = build_sector_rings(build_wps((2, 3)))
        assert reduce(rings[1], parse_laurent("17 - u^-3")).is_zero

    def test_frozen_residue_sector0(self, rings124):
        # residue of 1 - u^-1 modulo u^7-u^6-u^5+u^4-u^3+u^2+u-1
        assert reduce(rings124[0], E1) == parse_laurent(
            "-u^6 + u^5 + u^4 - u^3 + u^2 - u"
        )

    def test_frozen_residue_sector2(self, rings124):
        assert reduce(rings124[2], E1 * E2) == parse_laurent("u^4 - u^3 - u^2 + u")

    def test_degree_bound_and_idempotence(self, rings124):
        rng = random.Random(21)
        for ring in rings124:
            for _ in range(100):
                x = LaurentPoly(
                    {rng.randint(-10, 10): rng.randint(-9, 9) for _ in range(6)}
                )
                r = reduce(ring, x)
                assert r.is_zero or (r.min_exp >= 0 and r.max_exp < ring.rank)
                assert reduce(ring, r) == r

    def test_linear_and_multiplicative(self, rings124):
        rng = random.Random(22)
        for ring in rings124:
            for _ in range(60):
                x = LaurentPoly(
                    {rng.randint(-8, 8): rng.randint(-9, 9) for _ in range(5)}
                )
                y = LaurentPoly(
                    {rng.randint(-8, 8): rng.randint(-9, 9) for _ in range(5)}
                )
                assert reduce(ring, x + y) == reduce(ring, x) + reduce(ring, y)
                assert reduce(ring, x * y) == reduce(
                    ring, reduce(ring, x) * reduce(ring, y)
                )

    def test_membership_witness(self, rings124):
        # x - reduce(x) lies in the ideal: after clearing denominators the
        # division by gmonic is exact
        rng = random.Random(23)
        deep = [LaurentPoly.monomial(-3000), LaurentPoly.monomial(3000)]
        for ring in rings124:
            randoms = [
                LaurentPoly(
                    {rng.randint(-10, 10): rng.randint(-9, 9) for _ in range(6)}
                )
                for _ in range(60)
            ]
            for x in randoms + deep:
                diff = x - reduce(ring, x)
                if diff.is_zero:
                    continue
                shift = max(0, -diff.min_exp)
                q, rem = divmod_monic(diff.shifted(shift), ring.gmonic)
                assert rem.is_zero
                assert q * ring.gmonic.as_laurent() == diff.shifted(shift)

    def test_non_unit_constant_term_rejected(self):
        gm = MonicPoly((2, 0, 1), 0, True)
        ring = SectorRing(gm.as_laurent(), gm, 2)
        # rejected exactly when a negative exponent needs the constant term
        far = LaurentPoly({1000: 1, 0: 1})
        assert reduce(ring, far) == reference_reduce(ring, far)
        for x in (LaurentPoly.monomial(-1), far.shifted(-1), far.shifted(-1005)):
            with pytest.raises(ValueError, match="constant term"):
                reduce(ring, x)


def reference_reduce(ring, x):
    """reduce as one bottom-up pass over every negative exponent plus one
    division: linear in the spread of the exponents, with no jumps."""
    if ring.rank == 0 or x.is_zero:
        return LaurentPoly.zero()
    lo = x.min_exp
    if lo < 0:
        gc = ring.gmonic.coeffs
        buf = [0] * (max(x.max_exp, len(gc) - 2) - lo + 1)
        for e, c in x.terms.items():
            buf[e - lo] = c
        for i in range(-lo):
            if buf[i]:
                c = buf[i] * gc[0]
                for j, gj in enumerate(gc):
                    buf[i + j] -= c * gj
        x = LaurentPoly(dict(enumerate(buf[-lo:])))
    return divmod_monic(x, ring.gmonic)[1]


def distinct_rings(b):
    """One ring per distinct generator: sectors with the same fixed set
    share their quotient ring."""
    return tuple({r.gmonic: r for r in build_sector_rings(build_wps(b))}.values())


class TestReduceMatchesReference:
    VECTORS = [(1, 1), (1, 2, 4), (2, 3), (3, 4, 5), (1, 2, 3, 4, 5, 6, 7)]

    @staticmethod
    def sparse(rng, width):
        """Up to six terms within +-5000, the gaps between neighbours drawn
        on both sides of the jump width and far beyond it."""
        e = rng.randint(-5000, 5000)
        terms = {e: rng.choice((-1, 1)) * rng.randint(1, 9)}
        for _ in range(rng.randint(0, 5)):
            e -= rng.choice(
                (1, width - 1, width, width + 1, 2 * width, rng.randint(1, 3000))
            )
            terms[e] = rng.choice((-1, 1)) * rng.randint(1, 9)
        return LaurentPoly(terms)

    @pytest.mark.parametrize("b", VECTORS, ids=lambda b: ",".join(map(str, b)))
    def test_sparse_inputs(self, b):
        rng = random.Random(sum(b))
        for ring in distinct_rings(b):
            width = korb.ring._jump_width(max(ring.rank, 1))
            for _ in range(12):
                x = self.sparse(rng, width)
                assert reduce(ring, x) == reference_reduce(ring, x), (ring, x)

    @pytest.mark.parametrize("b", VECTORS, ids=lambda b: ",".join(map(str, b)))
    def test_runs_that_cancel_partway(self, b):
        for ring in distinct_rings(b):
            if ring.rank == 0:
                continue
            g = ring.gmonic.as_laurent()
            top = LaurentPoly.monomial(4000)
            cases = [
                # the top run is a multiple of the generator, so the
                # residue carried across the gaps below it is zero
                g.shifted(3000) + LaurentPoly.monomial(-3000, 5),
                g.shifted(3000) + g.shifted(-3000),
                g.shifted(3000) + g.shifted(7) + LaurentPoly.monomial(-4000),
                # the lowest run cancels everything above it
                top - reference_reduce(ring, top),
                top.shifted(-8000) - reference_reduce(ring, top.shifted(-8000)),
            ]
            for x in cases:
                assert reduce(ring, x) == reference_reduce(ring, x), (ring, x)
            assert reduce(ring, cases[1]).is_zero
            assert reduce(ring, cases[3]).is_zero

    def test_repeated_root_closed_form(self):
        # modulo (u - 1)^2, u^n = n*u - (n - 1) for every integer n
        ring = build_sector_rings(build_wps((1, 1)))[0]
        for k in range(13):
            for n in (10**k, -(10**k)):
                assert reduce(ring, LaurentPoly.monomial(n)) == LaurentPoly(
                    {1: n, 0: 1 - n}
                )


def dense_reduce(g, x):
    """x modulo the monic g, stepping over every coefficient of g: clear
    the exponents below 0 with the constant term +-1, then those from
    deg g up with the leading 1."""
    if x.is_zero:
        return x
    gc, d = g.coeffs, g.degree
    lo = min(x.min_exp, 0)
    buf = [0] * (max(x.max_exp, d) - lo + 1)
    for e, c in x.terms.items():
        buf[e - lo] = c
    for i in range(-lo):
        c = buf[i] * gc[0]
        for j in range(d + 1):
            buf[i + j] -= c * gc[j]
    for i in range(len(buf) - 1, d - lo - 1, -1):
        c = buf[i]
        for j in range(d + 1):
            buf[i - d + j] -= c * gc[j]
    return LaurentPoly({e + lo: c for e, c in enumerate(buf) if c})


class TestReduceMatchesDenseReference:
    """reduce against a division that steps over every coefficient of the
    generator, on the distinct rings of a few vectors: u^b - 1, products
    of such classes, and the collapsed ring."""

    RINGS = [r for b in ((1, 2, 4), (3, 4, 5), (2, 3), (1, 1, 1, 3, 5)) for r in distinct_rings(b)]

    @given(
        ring=st.sampled_from(RINGS),
        terms=st.dictionaries(st.integers(-300, 80), st.integers(-(10**20), 10**20), max_size=10),
    )
    def test_negative_exponents(self, ring, terms):
        x = LaurentPoly(terms)
        want = dense_reduce(ring.gmonic, x) if ring.rank else LaurentPoly.zero()
        assert reduce(ring, x) == want


class TestElements:
    def test_unit_and_zero_shapes(self, d124):
        one = unit_element(d124)
        assert one.comps[0] == 1
        assert all(c.is_zero for c in one.comps[1:])
        assert zero_element(d124).is_zero

    def test_alpha_of_collapsed_sector_is_zero(self):
        d = build_wps((2, 3))
        rings = build_sector_rings(d)
        assert alpha(rings, d, 1).is_zero
        assert not alpha(rings, d, 2).is_zero

    def test_element_from_residues_reduces(self, d124, rings124):
        x = element_from_residues(rings124, d124, {1: parse_laurent("u^9")})
        assert x.comps[1] == parse_laurent("u")

    def test_addition_requires_same_weights(self, d124):
        with pytest.raises(ValueError):
            unit_element(d124) + unit_element(build_wps((2, 3)))

    def test_addition_requires_same_component_count(self, d124):
        short = KOrbElement(d124.b, (LaurentPoly.one(), LaurentPoly.one()))
        with pytest.raises(ValueError):
            unit_element(d124) + short
        with pytest.raises(ValueError):
            short - unit_element(d124)


class TestStarMultiply:
    def test_alpha1_alpha2_is_alpha3(self, d124, rings124):
        got = star_multiply(rings124, d124, alpha(rings124, d124, 1), alpha(rings124, d124, 2))
        assert got == alpha(rings124, d124, 3)

    def test_all_generator_products_match_structure_rule(self):
        for b in ((2, 3), (1, 2, 4), (3, 4, 5)):
            d = build_wps(b)
            rings = build_sector_rings(d)
            gens = [alpha(rings, d, s) for s in range(d.ell)]
            for s in range(d.ell):
                for t in range(d.ell):
                    got = star_multiply(rings, d, gens[s], gens[t])
                    want = element_from_residues(
                        rings, d, {(s + t) % d.ell: structure_coefficient(d, s, t)}
                    )
                    assert got == want

    def test_frozen_reduced_products(self, d124, rings124):
        a2 = alpha(rings124, d124, 2)
        a3 = alpha(rings124, d124, 3)
        sq2 = star_multiply(rings124, d124, a2, a2)
        assert sq2.comps[0] == parse_laurent("-u^6 + u^5 + u^4 - u^3 + u^2 - u")
        sq3 = star_multiply(rings124, d124, a3, a3)
        assert sq3.comps[2] == parse_laurent("u^4 - u^3 - u^2 + u")

    def test_unit_law_random(self, d124, rings124):
        rng = random.Random(30)
        one = unit_element(d124)
        for _ in range(25):
            x = random_element(rings124, d124, rng)
            assert star_multiply(rings124, d124, one, x) == x

    def test_collapsed_sectors_absorb(self):
        d = build_wps((2, 3))
        rings = build_sector_rings(d)
        a2 = alpha(rings, d, 2)
        a5 = alpha(rings, d, 5)
        assert a5.is_zero
        assert star_multiply(rings, d, a2, a5).is_zero

    def test_weight_mismatch_rejected(self, d124, rings124):
        other = build_wps((2, 3))
        with pytest.raises(ValueError):
            star_multiply(rings124, d124, unit_element(d124), unit_element(other))

    def test_component_count_mismatch_rejected(self, d124, rings124):
        one = unit_element(d124)
        for n in (2, 5):
            short_or_long = KOrbElement(d124.b, (LaurentPoly.one(),) * n)
            with pytest.raises(ValueError):
                star_multiply(rings124, d124, short_or_long, one)
            with pytest.raises(ValueError):
                star_multiply(rings124, d124, one, short_or_long)


def _per_pair_product(rings, d, x, y):
    """Reference product: reduce every term in its target, then add.  A
    collapsed target is the zero ring, where every term reduces to 0."""
    comps = [LaurentPoly.zero()] * d.ell
    for s, xs in enumerate(x.comps):
        for t, yt in enumerate(y.comps):
            tgt = (s + t) % d.ell
            if not (xs and yt) or rings[tgt].rank == 0:
                continue
            term = xs * yt * structure_coefficient(d, s, t)
            comps[tgt] = comps[tgt] + reduce(rings[tgt], term)
    return KOrbElement(d.b, tuple(comps))


def _wild_element(d, rng, nonzero):
    """Unreduced components in `nonzero` sectors: exponents from -9 up to
    well above every rank, coefficients up to +-10^40."""
    comps = [LaurentPoly.zero()] * d.ell
    for s in rng.sample(range(d.ell), nonzero):
        lo = rng.randint(-9, 9)
        top = 10 ** rng.choice((1, 9, 40))
        comps[s] = LaurentPoly(
            {e: rng.randint(-top, top) for e in range(lo, lo + rng.randint(1, 15))}
        )
    return KOrbElement(d.b, tuple(comps))


def element_from_parts(d, parts):
    """The element with the given unreduced components, zero elsewhere."""
    return KOrbElement(d.b, tuple(parts.get(s, LaurentPoly.zero()) for s in range(d.ell)))


class TestPackedProduct:
    """star_multiply packs operands into Kronecker ints; the per-pair
    reference multiplies LaurentPolys term by term.  (2,3) has collapsed
    targets, and dense operands put many pairs into one (target, class)
    group, so the group sums meet several terms."""

    @pytest.mark.parametrize("b", [(1,), (1, 1), (2, 3), (1, 2, 4), (3, 4, 5)])
    def test_matches_per_pair_reference(self, b):
        d = build_wps(b)
        rings = build_sector_rings(d)
        rng = random.Random(sum(b))
        zero = zero_element(d)
        # every sector nonzero puts up to ell pairs into one (target, class)
        full = _wild_element(d, rng, d.ell), _wild_element(d, rng, d.ell)
        assert star_multiply(rings, d, *full) == _per_pair_product(rings, d, *full)
        for _ in range(12):
            x = _wild_element(d, rng, rng.randint(1, min(d.ell, 12)))
            y = _wild_element(d, rng, rng.randint(1, min(d.ell, 12)))
            one_comp = _wild_element(d, rng, 1)
            for lhs, rhs in ((x, y), (y, x), (x, one_comp), (one_comp, y)):
                assert star_multiply(rings, d, lhs, rhs) == _per_pair_product(rings, d, lhs, rhs)
            assert star_multiply(rings, d, x, zero) == zero
            assert star_multiply(rings, d, zero, y) == zero

    def test_digit_equal_to_the_width_bound(self):
        # ell 1, one pair, span 2: the middle digit 2*c^2 is B itself
        d = build_wps((1, 1))
        rings = build_sector_rings(d)
        c = -(2**61 - 1)
        x = KOrbElement(d.b, (LaurentPoly({0: c, 1: c}),))
        got = star_multiply(rings, d, x, x)
        assert got == _per_pair_product(rings, d, x, x)
        # c^2 (1 + u)^2 with u^2 = 2u - 1 modulo (u - 1)^2
        assert got.comps == (LaurentPoly({1: 4 * c * c}),)

    def test_digit_equal_to_the_coefficient_width_bound(self):
        # On 1,1,1,3,5 (ell 15) the pair (7, 8) obstructs all five
        # coordinates: c = (1-u^-1)^3 (1-u^-3) (1-u^-5), |c|_1 = 2^5, and
        # the sign of its u^e coefficient is (-1)^e, as with every product
        # of odd-weight classes.  Dense operands +-(2^61 - 1) of the same
        # alternating sign put every term of some digit of xs*yt*c on one
        # side: that digit is 2^5 * B exactly, B = 1 * span_x * top^2.
        d = build_wps((1, 1, 1, 3, 5))
        rings = build_sector_rings(d)
        c = structure_coefficient(d, 7, 8)
        assert sum(abs(v) for v in c.terms.values()) == 2**5
        assert all((v > 0) == (e % 2 == 0) for e, v in c.terms.items())
        top = 2**61 - 1
        span_c = c.max_exp - c.min_exp + 1
        for span_x in (1, 4):
            # y is long enough that every digit of c meets span_x pairs
            xs, yt = (
                LaurentPoly({i: (-1) ** i * top for i in range(n)})
                for n in (span_x, span_x + span_c - 1)
            )
            product = xs * yt * c
            assert max(abs(v) for v in product.terms.values()) == 2**5 * span_x * top**2
            x = element_from_parts(d, {7: xs})
            y = element_from_parts(d, {8: yt})
            got = star_multiply(rings, d, x, y)
            assert got == _per_pair_product(rings, d, x, y)
            assert got.comps[0] == reduce(rings[0], product)

    def test_dense_operands_in_every_sector(self):
        # every pair of 1,1,1,3,5 at once, coefficients +-(2^61 - 1)
        d = build_wps((1, 1, 1, 3, 5))
        rings = build_sector_rings(d)
        rng = random.Random(5)
        top = 2**61 - 1
        x, y = (
            element_from_parts(
                d,
                {
                    s: LaurentPoly({i: rng.choice((-top, top)) for i in range(rng.randint(1, 12))})
                    for s in range(d.ell)
                },
            )
            for _ in "xy"
        )
        assert star_multiply(rings, d, x, y) == _per_pair_product(rings, d, x, y)


def _small_element(d, rng):
    """Every component nonzero: one to three terms, exponents from -3."""
    return element_from_parts(
        d,
        {
            s: LaurentPoly({rng.randint(-3, 6): rng.randint(-9, 9) or 1 for _ in range(3)})
            for s in range(d.ell)
        },
    )


class TestClassKeys:
    """star_multiply reads each pair's obstruction class off packed
    residue fields, f = bits of ell + 1 wide: ell 63 = 2^6 - 1 fills its
    fields' low bits, ell 8 = 2^3 is a power of two, and 1..7 packs seven
    fields into one key."""

    @pytest.mark.parametrize(
        "b", [(7, 9), (1, 2, 4, 8), (1, 2, 3, 4, 5, 6, 7)], ids=lambda b: ",".join(map(str, b))
    )
    def test_full_operands_match_per_pair_reference(self, b):
        d = build_wps(b)
        rings = build_sector_rings(d)
        rng = random.Random(d.ell)
        x, y = _small_element(d, rng), _small_element(d, rng)
        assert star_multiply(rings, d, x, y) == _per_pair_product(rings, d, x, y)


@pytest.fixture
def coefficient_calls(monkeypatch):
    """Pairs (s, t) that korb.ring asks a structure coefficient for."""
    calls = []
    real = korb.ring.structure_coefficient

    def counting(d, s, t):
        calls.append((s, t))
        return real(d, s, t)

    monkeypatch.setattr(korb.ring, "structure_coefficient", counting)
    return calls


class TestStarMultiplyLooksUpOnlyTouchedPairs:
    def test_generator_product_on_8_9_11_makes_one_lookup(self, coefficient_calls):
        d = build_wps((8, 9, 11))
        rings = build_sector_rings(d)
        a99, a198, a88 = (alpha(rings, d, s) for s in (99, 198, 88))
        # 99 + 198 = 297 fixes b_0 = 8, a live sector
        assert not star_multiply(rings, d, a99, a198).is_zero
        assert coefficient_calls == [(99, 198)]
        # 99 + 88 = 187 fixes no coordinate: the target is collapsed
        coefficient_calls.clear()
        assert star_multiply(rings, d, a99, a88).is_zero
        assert coefficient_calls == []

    def test_at_most_k_times_m_lookups(self, coefficient_calls):
        d = build_wps((3, 4, 5))
        rings = build_sector_rings(d)
        rng = random.Random(7)
        for _ in range(20):
            x, y = (
                element_from_residues(
                    rings,
                    d,
                    {
                        s: LaurentPoly({0: rng.randint(1, 9), 1: rng.randint(-9, 9)})
                        for s in rng.sample(range(d.ell), rng.randint(1, 6))
                    },
                )
                for _ in range(2)
            )
            k = sum(not c.is_zero for c in x.comps)
            m = sum(not c.is_zero for c in y.comps)
            coefficient_calls.clear()
            star_multiply(rings, d, x, y)
            assert len(coefficient_calls) <= k * m


class TestStarMultiplyLooksUpOncePerClass:
    @pytest.mark.parametrize("b", [(3, 4, 5), (1, 2, 3, 4, 5, 6, 7)], ids=lambda b: ",".join(map(str, b)))
    def test_full_operands(self, coefficient_calls, b):
        d = build_wps(b)
        rings = build_sector_rings(d)
        x, y = _small_element(d, random.Random(1)), _small_element(d, random.Random(2))
        star_multiply(rings, d, x, y)
        classes = {
            korb.sectors.obstruction_set(d, s, t)
            for s in range(d.ell)
            for t in range(d.ell)
            if rings[(s + t) % d.ell].rank
        }
        assert 0 < len(coefficient_calls) <= len(classes)
        # one lookup per class
        looked_up = [korb.sectors.obstruction_set(d, s, t) for s, t in coefficient_calls]
        assert len(set(looked_up)) == len(looked_up)


class TestGeneratorTable:
    def test_rows_124(self, d124, rings124):
        rows = generator_table(d124)
        expected = (
            (0, 0, 0, LaurentPoly.one()),
            (0, 1, 1, LaurentPoly.one()),
            (0, 2, 2, LaurentPoly.one()),
            (0, 3, 3, LaurentPoly.one()),
            (1, 1, 2, E2),
            (1, 2, 3, LaurentPoly.one()),
            (1, 3, 0, E1 * E2),
            (2, 2, 0, E1),
            (2, 3, 1, E1),
            (3, 3, 2, E1 * E2),
        )
        assert rows == expected

    def test_single_sector(self):
        d = build_wps((1, 1))
        rows = generator_table(d)
        assert rows == ((0, 0, 0, LaurentPoly.one()),)

    @pytest.mark.parametrize(
        "b", [(1,), (2, 3), (2, 2, 3), (4, 6), (3, 4, 5), (6, 10, 15)]
    )
    def test_rows_match_per_pair_coefficients(self, b):
        # table/present read carry rows, star_multiply per-pair exponents
        d = build_wps(b)
        assert generator_table(d) == tuple(
            (s, t, (s + t) % d.ell, structure_coefficient(d, s, t))
            for s in range(d.ell)
            for t in range(s, d.ell)
        )

    def test_corrupt_logweights_raise(self):
        with pytest.raises(ValueError):
            generator_table(WpsData((1, 2), 2, ((0, 1), (0, 3))))


class TestPresentation:
    def test_124_matches_published_relations(self, d124, rings124):
        pres = presentation(d124)
        assert pres.weights == (1, 2, 4)
        assert pres.ell == 4
        assert pres.relations_i == generator_table(d124)
        assert pres.relations_j == (
            (0, E1 * E2 * E4),
            (1, E4),
            (2, E2 * E4),
            (3, E4),
        )
        assert pres.unit_relation == "alpha_0 - 1"

    def test_collapsed_sectors_get_unit_generator(self):
        pres = presentation(build_wps((2, 3)))
        gens = dict(pres.relations_j)
        assert gens[1] == 1
        assert gens[5] == 1

    def test_ordinary_projective_spaces(self):
        for n in range(1, 4):
            pres = presentation(build_wps((1,) * (n + 1)))
            assert pres.relations_i == ((0, 0, 0, LaurentPoly.one()),)
            assert pres.relations_j == ((0, E1 ** (n + 1)),)


class TestRankAndTorsion:
    def test_total_ranks(self, rings124):
        assert total_rank(rings124) == 21
        assert total_rank(build_sector_rings(build_wps((1, 1)))) == 2
        assert total_rank(build_sector_rings(build_wps((1,)))) == 1

    def test_torsion_124(self, rings124):
        rep = torsion_report(rings124)
        assert rep.passed
        assert tuple(e.rank for e in rep.entries) == (7, 4, 6, 4)
        assert tuple(e.gmonic.constant for e in rep.entries) == (-1, -1, 1, -1)
        assert all(e.gmonic.monic and e.free for e in rep.entries)

    def test_torsion_6_10_15(self):
        d = build_wps((6, 10, 15))
        assert d.ell == 30
        rep = torsion_report(build_sector_rings(d))
        assert rep.passed
        assert len(rep.entries) == 30

    def test_torsion_point(self):
        rep = torsion_report(build_sector_rings(build_wps((1,))))
        assert rep.passed
        assert rep.entries[0].rank == 1

    @pytest.mark.parametrize("b", [(1, 2, 4), (2, 3), (6, 10, 15)])
    def test_entries_are_the_shared_rings(self, b):
        rings = build_sector_rings(build_wps(b))
        rep = torsion_report(rings)
        assert len(rep.entries) == len(rings)
        assert all(e is r for e, r in zip(rep.entries, rings))
        assert rep.passed == all(r.free for r in rings)


class TestVerify:
    def test_counts_and_pass_124(self, d124):
        rep = verify(d124, trials=50, seed=3)
        assert rep.passed
        assert rep.failures == ()
        # 3 weights * 10 pairs + 3 * 4 unit checks + cocycle classes
        # gcd in {1,2,4}: 4^3 + 2^3 + 1^3 = 73
        assert rep.exponent_checks == 30 + 12 + 73

    def test_counts_and_pass_23(self):
        rep = verify(build_wps((2, 3)), trials=50, seed=3)
        assert rep.passed
        assert rep.exponent_checks == 42 + 12 + 27 + 8

    def test_point_trivial(self):
        assert verify(build_wps((1,)), trials=1, seed=0).passed

    def test_corrupt_logweights_reported_not_raised(self):
        # logw[1] should read (0, 0); 3 + 3 - 0 = 6 gives exponent 3
        rep = verify(WpsData((1, 2), 2, ((0, 1), (0, 3))), trials=1)
        assert not rep.passed
        assert rep.failures == (
            "obstruction exponent not in {0,1} at (b, k, s, t) = ((1, 2), 1, 1, 1)",
        )

    def test_non_homomorphic_logweight_row_ends_its_coordinate(self):
        # logw[0] is in range but not s*1 mod 4: e_0(1,1) = (1 + 1 - 3)/4,
        # so the walk over k = 0 stops at its 6th check; 6 + 2*14 + 73
        rep = verify(
            WpsData((1, 2, 4), 4, ((0, 1, 3, 2), (0, 2, 0, 2), (0, 0, 0, 0))),
            trials=1,
        )
        assert not rep.passed
        assert rep.exponent_checks == 107
        assert rep.failures == (
            "obstruction exponent not in {0,1} at (b, k, s, t) = ((1, 2, 4), 0, 1, 1)",
        )

    def test_corrupt_logweight_row_fails_carry_oracle(self):
        # logw[0] holds the weight-3 row (3s mod 4), not b_0 = 1's
        rep = verify(
            WpsData((1, 2, 4), 4, ((0, 3, 2, 1), (0, 2, 0, 2), (0, 0, 0, 0))),
            trials=1,
        )
        assert not rep.passed
        assert rep.exponent_checks == 30 + 12 + 73
        assert rep.failures == (
            "carry oracle fails: e_0(1,1) = 1",
            "carry oracle fails: e_0(1,2) = 1",
            "carry oracle fails: e_0(2,3) = 0",
            "carry oracle fails: e_0(3,3) = 0",
        )

    def test_total_rank_oracle(self, monkeypatch, d124):
        # dropping coordinate 0 takes 1 - u^-1 out of sector 0's generator,
        # the one sector that fixes it, so that sector gets rank 6, not 7
        real = korb.sectors.fixed_set
        monkeypatch.setattr(
            korb.sectors, "fixed_set", lambda d, s: tuple(k for k in real(d, s) if k)
        )
        rep = verify(d124, trials=1)
        assert not rep.passed
        assert (
            "total rank oracle fails: sum of ranks 20 != sum of squared weights 21"
            in rep.failures
        )
        assert rep.exponent_checks == 30 + 12 + 73

    def test_deterministic_given_seed(self, d124):
        assert verify(d124, trials=20, seed=9) == verify(d124, trials=20, seed=9)

    def test_trials_must_be_positive(self, d124):
        with pytest.raises(ValueError):
            verify(d124, trials=0)

    def test_check_exponents_clean_on_random_vectors(self):
        rng = random.Random(40)
        for _ in range(20):
            b = tuple(rng.randint(1, 10) for _ in range(rng.randint(1, 3)))
            d = build_wps(b)
            if d.ell > 60:
                continue
            count, fails = check_exponents(d)
            assert count > 0
            assert fails == ()

    @pytest.mark.parametrize(
        "b, checks",
        [
            ((3, 4, 5), 18773),
            ((5, 7, 8), 401351),
            ((1, 2, 3, 4, 5, 6, 7), 89024139),
            ((8, 9, 11), 2969479),
        ],
    )
    def test_check_exponents_large_counts(self, b, checks):
        assert check_exponents(build_wps(b)) == (checks, ())


class TestCocycleKernel:
    """The bit-row kernel against a plain triple loop over the 0/1 table,
    on the carry table and on corrupted ones, which the real exponents
    never produce."""

    @staticmethod
    def triple_loop(tab):
        m = len(tab)
        count = 0
        for s in range(m):
            for t in range(m):
                for w in range(m):
                    count += 1
                    lhs = tab[s][t] + tab[(s + t) % m][w]
                    if lhs != tab[s][(t + w) % m] + tab[t][w]:
                        return count, (s, t, w)
        return count, None

    def test_matches_triple_loop(self):
        rng = random.Random(5)
        failing = 0
        for m in (1, 2, 3, 4, 7, 12):
            carry = [[int(s + t >= m) for t in range(m)] for s in range(m)]
            tables = [carry]
            for _ in range(20):
                tab = [row[:] for row in carry]
                for _ in range(rng.randint(1, 3)):
                    tab[rng.randrange(m)][rng.randrange(m)] ^= 1
                tables.append(tab)
            for _ in range(5):
                tables.append([[rng.randint(0, 1) for _ in range(m)] for _ in range(m)])
            # zero against sector 0, as the unit law makes real tables: every
            # triple with a 0 then holds, and first failures where the sums
            # differ by 2 (1 + 1 against 0 + 0) show up
            for _ in range(10):
                tables.append(
                    [[rng.randint(0, 1) * (s * t > 0) for t in range(m)] for s in range(m)]
                )
            for tab in tables:
                rows = [sum(bit << t for t, bit in enumerate(row)) for row in tab]
                got = korb.ring._cocycle_check(rows)
                assert got == self.triple_loop(tab), (m, tab)
                failing += got[1] is not None
            assert self.triple_loop(carry) == (m**3, None)
        assert failing > 100


def test_doctests():
    import doctest

    import korb.ring

    assert doctest.testmod(korb.ring).failed == 0
