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
from functools import cached_property
from itertools import chain
from math import gcd, inf, lcm

from .laurent import LaurentPoly, MonicPoly, _pack, _unpack, divmod_monic, normalize
from .sectors import (
    WpsData,
    by_class,
    carry_keys,
    check_sector,
    euler_product,
    kernel_generator,
    obstruction_exponent,
    residue_row,
    sector_pairs,
    structure_coefficient,
)


@dataclass(frozen=True)
class SectorRing:
    """Quotient ring data shared by the sectors s with one fixed set F; rank
    0 marks a collapsed sector (F empty: generator 1, zero ring).  fixed
    holds F's weights b_F, whose Euler classes make gen; a ring made
    without them is reduced by the dense pass alone."""

    gen: LaurentPoly
    gmonic: MonicPoly
    rank: int
    fixed: tuple[int, ...] = ()

    @property
    def free(self) -> bool:
        """The quotient is a free Z-module: the generator is monic with
        constant term +-1."""
        return self.gmonic.monic and self.gmonic.constant in (1, -1)

    @cached_property
    def period(self) -> int:
        """L = lcm(b_F): each factor u^b_k - 1 of gmonic divides u^L - 1."""
        return lcm(*self.fixed)

    @cached_property
    def reach(self) -> float:
        """The spread of exponents, u^0 included, that reduce takes in one
        dense pass: m*(L + rank) + 64 with m = |b_F|.  The closed form costs
        m passes over L + rank exponents plus some 64 dense steps, and the
        measured crossovers lie at or below this bound."""
        return len(self.fixed) * (self.period + self.rank) + 64 if self.fixed else inf


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
    """The ring of each sector s, an ell-long tuple: the generator and rank
    depend on s only through its fixed set, so by_class builds one ring
    per fixed set, from the least sector g that has it, and every sector
    with that set shares the object.

    >>> from korb.sectors import build_wps
    >>> rings = build_sector_rings(build_wps((1, 2, 4)))
    >>> rings[1] is rings[3], rings[1] is rings[2]
    (True, False)
    """

    def ring(g: int) -> SectorRing:
        gen = kernel_generator(d, g)
        gm = normalize(gen)
        fixed = tuple(w for w in d.b if w * g % d.ell == 0)
        return SectorRing(gen, gm, gm.degree, fixed)

    return tuple(by_class(d, ring))


def reduce(ring: SectorRing, x: LaurentPoly) -> LaurentPoly:
    """Canonical residue of x modulo the sector ideal, degree < rank.

    The residue is the remainder of one Euclidean division by the
    generator (divmod_monic, a dense pass that clears both ends) when x's
    exponents, with 0, spread over at most ring.reach, as every target sum
    of star_multiply does.  The constant term is checked first, since the
    closed form below sees no negative exponent.  Otherwise, with L =
    lcm(b_F) and m = |b_F| for the fixed weights b_F, N = u^L - 1 is a
    multiple of every factor of the generator, so N^m = 0 and, for every
    integer q and C(q, j) = q(q-1)...(q-j+1)/j!,
    u^(qL + r) = u^r * sum_{j<m} C(q, j) * N^j.
    Writing x = sum_q u^(qL) P_q with 0 <= deg P_q < L, one pass over the
    terms builds S_j = sum_q C(q, j) P_q, and Horner's rule joins them,
    acc = remainder(acc * N + S_j) for j = m - 1 down to 0: m dense passes
    over fewer than L + rank exponents, however far apart the terms lie.

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
    if max(hi, 0) - min(lo, 0) <= ring.reach:
        return divmod_monic(x, g)[1]
    L = ring.period
    sums: list[dict[int, int]] = [{} for _ in ring.fixed]
    for e, c in terms.items():
        q, r = divmod(e, L)
        for j, s in enumerate(sums):
            s[r] = s.get(r, 0) + c
            c = c * (q - j) // (j + 1)  # x's coefficient times C(q, j + 1)
    acc, n = LaurentPoly.zero(), LaurentPoly({L: 1, 0: -1})
    for s in reversed(sums):
        acc = divmod_monic(acc * n + LaurentPoly(s), g)[1]
    return acc


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
    2^(n+1) of them, one per obstruction class, read off the pair's carry
    key (sectors.carry_keys, which checks a given logweight table against
    b_k*s mod ell in the operands' sectors): one add and one AND per pair.
    The carry keys and the class coefficients live in d.products, one
    table per WpsData filled as products touch them: carry_keys runs once
    per sector, the first pair of each class over all products asks
    structure_coefficient for c, and c is packed at its own lowest
    exponent once per digit width w.  The pair products are summed
    per (target, class) as ints; each group sum is multiplied by its packed
    c and unpacked once, and the groups of a target are added and reduced
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
    keys, classes, bias, high = d.products
    new = [s for s, _ in xs + ys if s not in keys]
    if new:
        keys.update(zip(new, carry_keys(d, new)[0]))
    packed_y = [(t, keys[t], _pack(p, lo_y, w)) for t, p in ys]
    groups: dict[tuple[int, int], int] = {}
    for s, p in xs:
        xi = _pack(p, lo_x, w)
        rs = bias + keys[s]
        for t, rt, yi in packed_y:
            tgt = (s + t) % ell
            if rings[tgt].rank == 0:
                continue
            key = (rs + rt) & high
            if key not in classes:
                c = structure_coefficient(d, s, t)
                classes[key] = c, c.min_exp, c.max_exp - c.min_exp + 1, {}
            group = tgt, key
            groups[group] = groups.get(group, 0) + xi * yi
    sums: dict[int, LaurentPoly] = {}
    for (tgt, key), v in groups.items():
        c, lo_c, span_c, packed = classes[key]
        pc = packed.get(w)
        if pc is None:
            pc = packed[w] = _pack(c, lo_c, w)
        term = _unpack(v * pc, lo_x + lo_y + lo_c, w, span_x + span_y + span_c - 2)
        sums[tgt] = sums[tgt] + term if tgt in sums else term
    out = [LaurentPoly.zero()] * ell
    for tgt, p in sums.items():
        out[tgt] = reduce(rings[tgt], p)
    return KOrbElement(d.b, tuple(out))


def _extent(comps: list[tuple[int, LaurentPoly]]) -> tuple[int, int, int]:
    """Lowest exponent, span of exponents and largest absolute coefficient
    over the nonzero components of one operand."""
    terms = [p.terms for _, p in comps]
    lo, hi = min(map(min, terms)), max(map(max, terms))
    top = max(map(abs, chain.from_iterable(map(dict.values, terms))))
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
    rel_j = tuple(zip(range(d.ell), by_class(d, lambda g: kernel_generator(d, g))))
    return Presentation(d.b, d.ell, generator_table(d), rel_j)


def total_rank(rings: tuple[SectorRing, ...]) -> int:
    return sum(r.rank for r in rings)


def torsion_report(rings: tuple[SectorRing, ...]) -> TorsionReport:
    """Freeness certificate: every sector quotient must be a free Z-module."""
    return TorsionReport(rings, all(r.free for r in rings))


def _cocycle_check(rows: list[int]) -> tuple[int, tuple[int, int, int] | None]:
    """Exhaustive check of e(s,t) + e([s+t],w) = e(s,[t+w]) + e(t,w) over
    (Z_m)^3, m = len(rows), where bit t of rows[s] is e(s,t) in {0,1}.

    For 0/1 values a + b = c + d exactly when a^b = c^d and a&b = c&d.  The
    check is bit-sliced: row s fills the m-bit field s of one m^2-bit int,
    and one test per t covers every (s, w), field s holding at bit w
    e(s,t) (broadcast), e([s+t],w) (the fields rotated down by t),
    e(s,[t+w]) (each field rotated right by t bits) and e(t,w) (rows[t]
    copied to every field by doubling shifts).  So the cost is m steps on
    m^2-bit ints, not m^2 steps on m-bit ints.  A failing t's lowest set
    bit is its least (s, w), and the least (s, t) over all t is the first
    failure.  Returns the number of triples checked in (s, t, w) order, up
    to and including the first failing one, and that triple.
    """
    m = len(rows)
    size = m * m
    full = (1 << size) - 1
    ones = full // ((1 << m) - 1)  # bit 0 of every field
    packed = 0
    for s, row_s in enumerate(rows):
        packed |= row_s << s * m
    doubled = packed | packed << size
    first = m, 0, -1  # one past the last triple: m^3 checked
    for t, row_t in enumerate(rows):
        a = packed >> t & ones
        a = (a << m) - a
        b = doubled >> t * m & full
        lo = (ones << m - t) - ones  # the low m - t bits of every field
        c = packed >> t & lo | packed << m - t & (full ^ lo)
        d, k = row_t, 1
        while k < m:
            d |= d << k * m
            k *= 2
        d &= full
        bad = (a ^ b ^ c ^ d) | ((a & b) ^ (c & d))
        if bad:
            s, w = divmod((bad & -bad).bit_length() - 1, m)
            if s < first[0]:
                first = s, t, w
    s, t, w = first
    return (s * m + t) * m + w + 1, first if s < m else None


def _cocycle_rows(m: int) -> list[int]:
    """Carry rows of the residues g*s, s < m, modulo g*m: bit t of row s
    is [s + t >= m]."""
    return [(1 << m) - (1 << m - s) for s in range(m)]


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
    once per divisor class of (b_k, ell).  A coordinate whose logw row (the
    given table's, else one built from the weights) equals the oracle's
    residues passes its ell*(ell+3)/2 pair and unit checks at once; any
    other is walked pair by pair to name each failure, and an exponent
    outside {0,1} ends the walk.  A missing or extra row,
    or one not ell long, is a failure line, not an error; its coordinate
    counts no checks.  Returns the number of checks and any failure
    descriptions.
    """
    failures: list[str] = []
    if len(d.logw) != len(d.b):
        failures.append(f"{len(d.logw)} logweight rows for {len(d.b)} weights")
    checks = 0
    for k, (w, row) in enumerate(zip(d.b, d.logw)):
        r = residue_row(w, d.ell)
        if list(row) == r:
            checks += d.ell * (d.ell + 3) // 2
            continue
        if len(row) != d.ell:
            failures.append(f"logweight row {k} has {len(row)} entries, not {d.ell}")
            continue
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
    for g in dict.fromkeys(gcd(w, d.ell) for w in d.b):
        # The exponent table of b_k depends only on s mod m = ell/g, up to the
        # unit reindexing s -> (b_k/g)*s, so one pass over the residues g*s,
        # s < m, covers every triple in (Z_ell)^3 for every weight in the class.
        count, bad = _cocycle_check(_cocycle_rows(d.ell // g))
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
