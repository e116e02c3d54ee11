"""Per-sector quotient rings and the full orbifold K-theory ring.

Each sector s carries the quotient Z[u,u^-1] / <kernel generator>.  The
normalized generator is monic with constant term +-1 (it is a product of
u^b_k - 1 factors up to sign), so u is invertible in the quotient and the
quotient is a free Z-module with basis 1, u, ..., u^(rank-1).  Elements of
the full ring are tuples of such residues, one per sector, multiplied by
twisting ordinary products with Euler-class structure coefficients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .laurent import LaurentPoly, MonicPoly, _pack, _unpack, divmod_monic, normalize
from .sectors import (
    WpsData,
    carry_rows,
    check_sector,
    euler_product,
    kernel_generator,
    obstruction_exponent,
    sector_pairs,
    structure_coefficient,
)


@dataclass(frozen=True)
class SectorRing:
    """Quotient ring data shared by the sectors s with one gcd(s, ell); rank
    0 marks a collapsed sector (generator 1, zero ring)."""

    gen: LaurentPoly
    gmonic: MonicPoly
    rank: int

    @property
    def free(self) -> bool:
        """The quotient is a free Z-module: the generator is monic with
        constant term +-1."""
        return self.gmonic.monic and self.gmonic.constant in (1, -1)


@dataclass(frozen=True)
class KOrbElement:
    """An element of the full ring: one reduced residue per sector."""

    weights: tuple[int, ...]
    comps: tuple[LaurentPoly, ...]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.comps)

    def __add__(self, other: "KOrbElement") -> "KOrbElement":
        if self.weights != other.weights:
            raise ValueError("cannot add elements over different weights")
        if len(self.comps) != len(other.comps):
            raise ValueError("cannot add elements with different component counts")
        return KOrbElement(
            self.weights, tuple(a + b for a, b in zip(self.comps, other.comps))
        )

    def __sub__(self, other: "KOrbElement") -> "KOrbElement":
        return self + (-other)

    def __neg__(self) -> "KOrbElement":
        return KOrbElement(self.weights, tuple(-c for c in self.comps))


@dataclass(frozen=True)
class Presentation:
    """Generators and relations over Z[u,u^-1].

    relations_i holds one entry (s, t, target, coefficient) per unordered
    pair s <= t: the relation alpha_s alpha_t - coeff * alpha_target.
    relations_j holds (s, generator): the relation generator * alpha_s.
    The unit relation kills alpha_0 - 1.
    """

    weights: tuple[int, ...]
    ell: int
    relations_i: tuple[tuple[int, int, int, LaurentPoly], ...]
    relations_j: tuple[tuple[int, LaurentPoly], ...]
    unit_relation: str = "alpha_0 - 1"


@dataclass(frozen=True)
class TorsionReport:
    """entries[s] is sector s's ring, shared by its class."""

    entries: tuple[SectorRing, ...]
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    weights: tuple[int, ...]
    ell: int
    trials: int
    seed: int
    exponent_checks: int
    failures: tuple[str, ...]
    passed: bool


def build_sector_rings(d: WpsData) -> tuple[SectorRing, ...]:
    """The ring of each sector s, shared by its class g = gcd(s, ell) % ell
    and built once from sector g: s fixes coordinate k exactly when ell/b_k
    divides gcd(s, ell), so a class has one fixed set, generator and rank.

    >>> from korb.sectors import build_wps
    >>> rings = build_sector_rings(build_wps((1, 2, 4)))
    >>> rings[1] is rings[3], rings[1] is rings[2]
    (True, False)
    """
    classes = [gcd(s, d.ell) % d.ell for s in range(d.ell)]
    rings = {}
    for g in set(classes):
        gen = kernel_generator(d, g)
        gm = normalize(gen)
        rings[g] = SectorRing(gen, gm, gm.degree)
    return tuple(rings[g] for g in classes)


def reduce(ring: SectorRing, x: LaurentPoly) -> LaurentPoly:
    """Canonical residue of x modulo the sector ideal, degree < rank.

    The exponents of x, sorted from the top, split into runs wherever two
    neighbours lie more than the jump width apart.  Each run is reduced as
    one dense polynomial (_reduce_run).  Horner's rule joins the runs from
    the top: the residue so far crosses each gap as a product with the
    residue of u^gap, found by square-and-multiply.  The lowest run is
    reduced where it stands when it lies within the jump width of u^0;
    otherwise it is reduced from its own lowest exponent e, and the result
    is multiplied by the residue of u^e at the end.  Crossing n exponents
    one at a time costs about n times the generator's nonzero terms, a
    power about 2*rank^2 per bit of n; the jump width is set by the dense
    cost rank*n (see _jump_width).  So one dense run near u^0, as every
    target sum of star_multiply on the benchmark ladder is, takes exactly
    one _reduce_run call, and u^(+-10^9) about 30 squarings.

    >>> from korb.sectors import build_wps
    >>> rings = build_sector_rings(build_wps((1, 2, 4)))
    >>> reduce(rings[1], LaurentPoly({-1: 1}))
    u^3
    >>> reduce(rings[1], LaurentPoly({-10**9 - 1: 1}))
    u^3
    """
    if ring.rank == 0 or x.is_zero:
        return LaurentPoly.zero()
    g = ring.gmonic
    terms = x.terms
    lo, hi = min(terms), max(terms)
    if lo < 0 and g.coeffs[0] not in (1, -1):
        raise ValueError("generator constant term must be +-1")
    width = _jump_width(ring.rank)
    if hi - lo <= width and -width <= lo <= width:
        # one run that stays put: no gap to cross, no shift back
        return _reduce_run(g, x)
    exps = sorted(terms, reverse=True)
    acc = LaurentPoly.zero()
    base = start = 0
    for i, e in enumerate(exps):
        if i + 1 < len(exps) and e - exps[i + 1] <= width:
            continue
        # exps[start:i + 1] is one run; the last one stays put near u^0
        bottom = 0 if i + 1 == len(exps) and -width <= e <= width else e
        run = LaurentPoly({f - bottom: terms[f] for f in exps[start : i + 1]})
        if acc:
            gap = base - bottom
            acc = acc.shifted(gap) if gap <= width else acc * _power_of_u(g, gap)
        acc = _reduce_run(g, acc + run)
        base, start = bottom, i + 1
    if base == 0 or not acc:
        return acc
    return _reduce_run(g, acc * _power_of_u(g, base))


def _jump_width(rank: int) -> int:
    """The gap n above which square-and-multiply is taken over n unit steps.

    Each of the log2(n) squarings costs a product and its reduction, about
    2*rank^2 coefficient operations.  Against n dense unit steps, rank*n,
    the two meet at n = 2*rank*log2(n), which 2*rank*(bits of rank + 3)
    approximates from above.  A unit step costs only the generator's
    nonzero terms, about (nonzero terms)*n in all, which for a sparse
    u^b - 1 is far below rank*n; the width is not refitted to that cost.
    """
    return 2 * rank * (rank.bit_length() + 3)


def _power_of_u(g: MonicPoly, n: int) -> LaurentPoly:
    """Residue of u^n modulo g for n != 0, by square-and-multiply on the
    residue of u (n > 0) or u^-1 (n < 0)."""
    step = 1 if n > 0 else -1
    p = _reduce_run(g, LaurentPoly.monomial(step))
    for bit in bin(abs(n))[3:]:
        p = _reduce_run(g, p * p)
        if bit == "1":
            p = _reduce_run(g, p.shifted(step))
    return p


def _reduce_run(g: MonicPoly, x: LaurentPoly) -> LaurentPoly:
    """Residue of x modulo g, stepping over every exponent of x.

    Negative exponents are cleared from the bottom: the constant term g0
    is +-1, so subtracting c*g0*u^e*g removes the term c*u^e and touches
    only higher exponents, over g's nonzero terms.  One division by the
    monic g then clears the top.  The caller has checked g0 when x has
    negative exponents.
    """
    if x.is_zero:
        return x
    lo = x.min_exp
    if lo < 0:
        d = g.degree
        buf = [0] * (max(x.max_exp, d - 1) - lo + 1)
        for e, c in x.terms.items():
            buf[e - lo] = c
        g0, lead = g.constant, g.coeffs[-1]
        for i in range(-lo):
            if buf[i]:
                # over g's nonzero terms; the j = 0 one clears buf[i],
                # which is not read again
                c = buf[i] * g0
                for j, gj in g.lower_terms:
                    buf[i + j] -= c * gj
                buf[i + d] -= c * lead
        x = LaurentPoly(dict(enumerate(buf[-lo:])))
    return divmod_monic(x, g)[1]


def zero_element(d: WpsData) -> KOrbElement:
    return KOrbElement(d.b, (LaurentPoly.zero(),) * d.ell)


def unit_element(d: WpsData) -> KOrbElement:
    # sector 0 fixes every coordinate, so its rank is sum(b) >= 1 and the
    # residue 1 is already reduced
    comps = [LaurentPoly.zero()] * d.ell
    comps[0] = LaurentPoly.one()
    return KOrbElement(d.b, tuple(comps))


def alpha(rings: tuple[SectorRing, ...], d: WpsData, s: int) -> KOrbElement:
    """The sector generator: residue 1 in sector s, zero elsewhere.
    Collapsed sectors give the zero element."""
    return element_from_residues(rings, d, {s: LaurentPoly.one()})


def element_from_residues(
    rings: tuple[SectorRing, ...], d: WpsData, residues: dict[int, LaurentPoly]
) -> KOrbElement:
    comps = [LaurentPoly.zero()] * d.ell
    for s, p in residues.items():
        check_sector(d, s)
        comps[s] = reduce(rings[s], p)
    return KOrbElement(d.b, tuple(comps))


def star_multiply(
    rings: tuple[SectorRing, ...], d: WpsData, x: KOrbElement, y: KOrbElement
) -> KOrbElement:
    """Product in the full ring: convolve sectors, twist by the structure
    coefficient, reduce in the target sector.

    Each operand is packed once: every nonzero component becomes one
    signed Kronecker int (Harvey, arXiv:0712.4046), digit k holding the
    coefficient of u^(lo + k), where lo is the operand's lowest exponent
    over all its components.  A pair's product xs*yt is then one bigint
    multiply.  Only pairs landing in a live sector are visited.

    c(s, t) is the Euler product over the coordinates k whose carry
    [r_k(s) + r_k(t) >= ell] is 1, so a vector of n+1 weights has at most
    2^(n+1) of them, one per obstruction class.  The class is read off a
    key: each sector's residues r_k(s) = logw[k][s] are packed into one
    int, one field of f = bits of ell + 1 bits per coordinate, and the
    left sector's fields are biased by 2^(f-1) - ell.  A field of the sum
    then reaches 2^(f-1) exactly when the carry is 1, and never overflows,
    so masking the top bit of every field gives the obstructed set in one
    add and one AND per pair.  The key trusts logw to hold b_k*s mod ell,
    as build_wps makes it (check_exponents proves its carries).  The first
    pair of each class asks structure_coefficient for c, which is packed
    once at its own lowest exponent.  The pair products are summed per
    (target, class) as ints; each group sum is multiplied by its packed c
    and unpacked once, and the groups of a target are added and reduced
    once (reduce is Z-linear and its residue unique, so this equals
    reducing every term).

    The digit width w is exact for any operands.  A digit of one pair
    product sums at most min(span_x, span_y) coefficient products, where a
    span counts an operand's exponents from lo to its highest; a group
    holds at most one pair per s and one per t.  So every digit of a group
    sum is at most B = min(#x, #y) * min(span_x, span_y) * max|x| * max|y|
    in absolute value, #x counting x's nonzero components.  A digit of the
    group times c adds at most |c|_1 <= 2^(n+1) of those, since each
    Euler class 1 - u^-b has two unit terms, and w = bits of B*2^(n+1) + 1
    keeps it below 2^(w-1).

    >>> from korb.sectors import build_wps
    >>> d = build_wps((1, 2, 4))
    >>> rings = build_sector_rings(d)
    >>> star_multiply(rings, d, alpha(rings, d, 1), alpha(rings, d, 2)).comps
    (0, 0, 0, 1)
    """
    if x.weights != d.b or y.weights != d.b:
        raise ValueError("elements do not belong to this weight data")
    if len(x.comps) != d.ell or len(y.comps) != d.ell:
        raise ValueError(f"elements must have one component per sector ({d.ell})")
    xs = [(s, p) for s, p in enumerate(x.comps) if p]
    ys = [(t, p) for t, p in enumerate(y.comps) if p]
    if not xs or not ys:
        return zero_element(d)
    ell, nb = d.ell, len(d.b)
    lo_x, span_x, top_x = _extent(xs)
    lo_y, span_y, top_y = _extent(ys)
    bound = min(len(xs), len(ys)) * min(span_x, span_y) * top_x * top_y << nb
    w = bound.bit_length() + 1
    f = ell.bit_length() + 1
    # a field value below 2^f times `ones` lands in every field
    ones = sum(1 << f * k for k in range(nb))
    bias, high = ((1 << f - 1) - ell) * ones, (1 << f - 1) * ones
    packed_y = [(t, _residues(d, t, f), _pack(p, lo_y, w)) for t, p in ys]
    # class key -> (lowest exponent, packed c, span of c)
    coeffs: dict[int, tuple[int, int, int]] = {}
    groups: dict[tuple[int, int], int] = {}
    for s, p in xs:
        xi = _pack(p, lo_x, w)
        rs = bias + _residues(d, s, f)
        for t, rt, yi in packed_y:
            tgt = (s + t) % ell
            if rings[tgt].rank == 0:
                continue
            key = (rs + rt) & high
            if key not in coeffs:
                c = structure_coefficient(d, s, t)
                lo_c = c.min_exp
                coeffs[key] = lo_c, _pack(c, lo_c, w), c.max_exp - lo_c + 1
            group = tgt, key
            groups[group] = groups.get(group, 0) + xi * yi
    sums: dict[int, LaurentPoly] = {}
    for (tgt, key), v in groups.items():
        lo_c, pc, span_c = coeffs[key]
        term = _unpack(v * pc, lo_x + lo_y + lo_c, w, span_x + span_y + span_c - 2)
        sums[tgt] = sums[tgt] + term if tgt in sums else term
    out = [LaurentPoly.zero()] * ell
    for tgt, p in sums.items():
        out[tgt] = reduce(rings[tgt], p)
    return KOrbElement(d.b, tuple(out))


def _residues(d: WpsData, s: int, f: int) -> int:
    """The residues r_k(s) = logw[k][s], packed f bits per coordinate k."""
    return sum(row[s] << f * k for k, row in enumerate(d.logw))


def _extent(comps: list[tuple[int, LaurentPoly]]) -> tuple[int, int, int]:
    """Lowest exponent, span of exponents and largest absolute coefficient
    over the nonzero components of one operand."""
    lo = min(p.min_exp for _, p in comps)
    hi = max(p.max_exp for _, p in comps)
    top = max(abs(c) for _, p in comps for c in p.terms.values())
    return lo, hi - lo + 1, top


def element_spec(x: KOrbElement) -> str:
    """x in the 'sector:poly; ...' syntax that korb mul --lhs/--rhs parses,
    one entry per nonzero component; the zero element is '0:0'.

    >>> element_spec(KOrbElement((1, 2), (LaurentPoly.zero(), LaurentPoly({1: 2, 0: -1}))))
    '1:2u - 1'
    """
    return "; ".join(f"{s}:{p}" for s, p in enumerate(x.comps) if p) or "0:0"


def generator_table(d: WpsData) -> tuple[tuple[int, int, int, LaurentPoly], ...]:
    """Rows (s, t, target, coefficient) for all pairs 0 <= s <= t < ell,
    as the table and presentation outputs print them.  Coefficients are
    kept unreduced, exactly as the sector product rule writes them, and
    are shared: read-only."""
    return tuple((s, t, tgt, euler_product(ws)) for s, t, tgt, ws in sector_pairs(d, 0))


def presentation(d: WpsData) -> Presentation:
    rel_j = tuple((s, kernel_generator(d, s)) for s in range(d.ell))
    return Presentation(d.b, d.ell, generator_table(d), rel_j)


def total_rank(rings: tuple[SectorRing, ...]) -> int:
    return sum(r.rank for r in rings)


def torsion_report(rings: tuple[SectorRing, ...]) -> TorsionReport:
    """Freeness certificate: every sector quotient must be a free Z-module."""
    return TorsionReport(rings, all(r.free for r in rings))


def _cocycle_check(rows: list[int]) -> tuple[int, tuple[int, int, int] | None]:
    """Exhaustive check of e(s,t) + e([s+t],w) = e(s,[t+w]) + e(t,w) over
    (Z_m)^3, m = len(rows), where bit t of rows[s] is e(s,t) in {0,1}.

    For 0/1 values a + b = c + d exactly when a^b = c^d and a&b = c&d, so
    one test per (s, t) covers every w at once: bit w of rows[s] rotated
    right by t is e(s,[t+w]).  Returns the number of triples checked in
    (s, t, w) order, up to and including the first failing one, and that
    triple.
    """
    m = len(rows)
    full = (1 << m) - 1
    for s, row_s in enumerate(rows):
        for t, row_t in enumerate(rows):
            a = full if row_s >> t & 1 else 0
            b = rows[(s + t) % m]
            c = (row_s >> t | row_s << (m - t)) & full
            bad = (a ^ b ^ c ^ row_t) | ((a & b) ^ (c & row_t))
            if bad:
                w = (bad & -bad).bit_length() - 1
                return (s * m + t) * m + w + 1, (s, t, w)
    return m**3, None


def random_element(
    rings: tuple[SectorRing, ...], d: WpsData, rng: random.Random
) -> KOrbElement:
    """Residue coefficients uniform in [-9, 9], independently per sector
    and degree; failures reproduce from the seed."""
    comps = []
    for ring in rings:
        comps.append(
            LaurentPoly({e: rng.randint(-9, 9) for e in range(ring.rank)})
        )
    return KOrbElement(d.b, tuple(comps))


def check_exponents(d: WpsData) -> tuple[int, tuple[str, ...]]:
    """Exhaustive obstruction-exponent battery.

    Every exponent must be 0 or 1, equal to the carry
    [r_k(s) + r_k(t) >= ell] with r_k(s) = b_k*s mod ell computed from the
    weights rather than from logw, and zero against the identity sector;
    the cocycle identity
    e(s,t) + e([s+t],w) = e(s,[t+w]) + e(t,w) is checked over all triples,
    once per divisor class of (b_k, ell).  A coordinate whose carry rows
    equal the oracle's passes its ell*(ell+3)/2 pair and unit checks at
    once; any other is walked pair by pair to name each failure, and an
    exponent outside {0,1} ends the walk.  Returns the number of checks
    and any failure descriptions.
    """
    failures: list[str] = []
    checks = 0
    nb = len(d.b)
    for k in range(nb):
        r = [d.b[k] * s % d.ell for s in range(d.ell)]
        try:
            if carry_rows(d.logw[k], d.ell) == carry_rows(r, d.ell):
                checks += d.ell * (d.ell + 3) // 2
                continue
        except ValueError:
            pass
        try:
            for s in range(d.ell):
                for t in range(s, d.ell):
                    checks += 1
                    e = obstruction_exponent(d, k, s, t)
                    if e != (r[s] + r[t] >= d.ell):
                        failures.append(f"carry oracle fails: e_{k}({s},{t}) = {e}")
                checks += 1
                if obstruction_exponent(d, k, 0, s) != 0:
                    failures.append(f"unit law fails: e_{k}(0,{s}) != 0")
        except ValueError as exc:
            failures.append(str(exc))
    seen: set[int] = set()
    for k in range(nb):
        g = gcd(d.b[k], d.ell)
        if g in seen:
            continue
        seen.add(g)
        # The exponent table of b_k depends only on s mod m = ell/g, up to the
        # unit reindexing s -> (b_k/g)*s, so one pass over the residues g*s,
        # s < m, covers every triple in (Z_ell)^3 for every weight in the class.
        count, bad = _cocycle_check(carry_rows(range(0, d.ell, g), d.ell))
        checks += count
        if bad is not None:
            failures.append(f"cocycle identity fails for weight class gcd={g} at {bad}")
    return checks, tuple(failures)


def verify(d: WpsData, trials: int = 500, seed: int = 0) -> VerifyReport:
    """Check the ring laws two ways.

    Exhaustively, via check_exponents.  Randomly, via seeded trials of
    commutativity, associativity, distributivity, and the unit law on
    elements with random residues.  The sector ranks must also add up to
    sum(b_k^2), an oracle read off the weights alone.  A failing trial's
    line names the seed and the trial, and gives x, y and z in the syntax
    of korb mul --lhs/--rhs, so the failure replays.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    checks, exp_failures = check_exponents(d)
    failures = list(exp_failures)
    if failures:
        # the structure coefficients are built from these exponents, so
        # the ring laws cannot be tried on them
        return VerifyReport(d.b, d.ell, trials, seed, checks, tuple(failures), False)

    rings = build_sector_rings(d)
    # sector s fixes coordinate k exactly when ell/b_k divides s, which
    # b_k sectors do, and each adds b_k to its rank
    ranks, squares = total_rank(rings), sum(w * w for w in d.b)
    if ranks != squares:
        failures.append(
            f"total rank oracle fails: sum of ranks {ranks} != sum of squared weights {squares}"
        )
    one = unit_element(d)
    rng = random.Random(seed)
    for i in range(trials):
        x = random_element(rings, d, rng)
        y = random_element(rings, d, rng)
        z = random_element(rings, d, rng)
        xy = star_multiply(rings, d, x, y)
        laws = (
            ("commutativity", xy == star_multiply(rings, d, y, x)),
            (
                "associativity",
                star_multiply(rings, d, xy, z)
                == star_multiply(rings, d, x, star_multiply(rings, d, y, z)),
            ),
            (
                "distributivity",
                star_multiply(rings, d, x, y + z) == xy + star_multiply(rings, d, x, z),
            ),
            ("unit law", star_multiply(rings, d, one, x) == x),
        )
        for law, held in laws:
            if not held:
                failures.append(
                    f"{law} fails at trial {i} of seed {seed}: x='{element_spec(x)}'"
                    f" y='{element_spec(y)}' z='{element_spec(z)}'"
                )
    return VerifyReport(
        d.b, d.ell, trials, seed, checks, tuple(failures), not failures
    )
