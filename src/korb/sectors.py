"""Sector combinatorics of a weighted circle action on C^(n+1).

The weights b = (b_0, ..., b_n) determine ell = lcm(b) and a cyclic
stabilizer group of order ell.  The {0,1} exponents twisting sector
products are the carries of r_k(s) = (b_k * s) mod ell, computed from the
weights and read by carry_keys.  Which coordinates the sector s fixes,
and so the kernel generator of its quotient ring, follow from the divisor
rule: s fixes k exactly when m_k = ell/b_k divides s.  So only the
multiples of some m_k, at most sum b_k sectors, fix anything, and the
sectors with one fixed set share one ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import count, filterfalse, repeat
from math import lcm
from operator import add, and_, lshift

from .laurent import LaurentPoly, euler_class


@dataclass(frozen=True)
class WpsData:
    """Weights, group order, and a logweight numerator table when one is
    given as the third argument.

    The logweight of sector s on the k-th coordinate is the exact fraction
    r_k(s) / ell, r_k(s) = (b[k] * s) % ell: a function of the weights, so
    build_wps gives no table, and carry_keys and obstruction_exponent
    compute the residues they use from b.  logw is the given table, else
    the rows logw[k][s] = r_k(s), built on first read.  A given table is
    checked against the weights where it is read.

    products is star_multiply's product table, made empty on first read
    (never by build_wps) and filled by the products over these weights;
    other callers treat it as read-only.
    """

    b: tuple[int, ...]
    ell: int
    table: tuple[tuple[int, ...], ...] | None = None

    @cached_property
    def logw(self) -> tuple[tuple[int, ...], ...]:
        if self.table is not None:
            return self.table
        return tuple(tuple(residue_row(w, self.ell)) for w in self.b)

    @cached_property
    def products(self) -> tuple[dict, dict, int, int]:
        """(keys, classes, bias, high): keys maps each sector a product has
        touched to its carry key (carry_keys), stored once carry_keys has
        checked that sector against a given table; classes maps each
        obstruction class key to (c, lowest exponent of c, span of c,
        {digit width w: c packed at w}); a pair's class key is
        (bias + key_s + key_t) & high."""
        _, bias, tops = carry_keys(self, ())
        return {}, {}, bias, sum(tops)


def build_wps(b) -> WpsData:
    """The weights b checked, with ell = lcm(b); O(len(b)) work, whatever ell."""
    bt = tuple(b)
    if not bt:
        raise ValueError("weight vector must not be empty")
    for k, w in enumerate(bt):
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ValueError(f"weight b_{k} must be a positive integer, got {w!r}")
    return WpsData(bt, lcm(*bt))


def residue_row(w: int, ell: int, shift: int = 0) -> list[int]:
    """[(w * s % ell) << shift for s in range(ell)], w a divisor of ell: the
    multiples of w below ell, repeated w times, made in C.

    >>> residue_row(2, 6)
    [0, 2, 4, 0, 2, 4]
    """
    return list(range(0, ell << shift, w << shift)) * w


def check_sector(d: WpsData, s: int) -> None:
    if not 0 <= s < d.ell:
        raise ValueError(f"sector index {s} out of range [0, {d.ell})")


def by_class(d: WpsData, make) -> tuple:
    """The ell-long sequence of make(g) over the sectors s in turn, g the
    least sector with s's fixed set: made once per fixed set, which decides
    the kernel generator and rank, and shared by the sectors that have it.
    s fixes k exactly when m_k = ell/b_k divides s, so one stride of m_k per
    weight, sum b_k steps in all, reaches every sector that fixes something;
    every other sector fixes nothing, and the least of them represents the
    empty set.

    >>> by_class(build_wps((1, 2, 4)), lambda g: g)
    (0, 1, 2, 1)
    """
    ell = d.ell
    masks = {}
    for k, w in enumerate(d.b):
        for s in range(0, ell, ell // w):
            masks[s] = masks.get(s, 0) | 1 << k
    # the least sector that fixes nothing gets the empty mask 0; when every
    # sector fixes something, the default is sector 0, which is already live
    masks.setdefault(next(filterfalse(masks.__contains__, range(ell)), 0), 0)
    # a sector first enters masks in the rising stride of the lowest
    # coordinate it fixes, so each mask's least sector comes first in order
    made = {}
    for s, mask in masks.items():
        if mask not in made:
            made[mask] = make(s)
    out = [made.get(0)] * ell
    for s, mask in masks.items():
        out[s] = made[mask]
    return tuple(out)


def fixed_set(d: WpsData, s: int) -> tuple[int, ...]:
    """Coordinates k fixed by sector s, i.e. those with b_k * s = 0 mod ell."""
    check_sector(d, s)
    return tuple(k for k, w in enumerate(d.b) if w * s % d.ell == 0)


def obstruction_exponent(d: WpsData, k: int, s: int, t: int) -> int:
    """The carry [r_k(s) + r_k(t) >= ell], that is (r_k(s) + r_k(t) -
    r_k([s+t])) / ell, always 0 or 1.  When d was given a logweight table,
    the r_k are read from its row k, and ValueError unless that quotient
    is exact and 0 or 1."""
    check_sector(d, s)
    check_sector(d, t)
    if not 0 <= k < len(d.b):
        raise ValueError(f"coordinate index {k} out of range [0, {len(d.b)})")
    if d.table is None:
        w, ell = d.b[k], d.ell
        return int(w * s % ell + w * t % ell >= ell)
    row = d.table[k]
    e, rem = divmod(row[s] + row[t] - row[(s + t) % d.ell], d.ell)
    if rem or e not in (0, 1):
        raise ValueError(
            f"obstruction exponent not in {{0,1}} at (b, k, s, t) = {(d.b, k, s, t)}"
        )
    return e


def carry_keys(d: WpsData, sectors=None) -> tuple[list[int], int, tuple[int, ...]]:
    """(keys, bias, tops) that read a pair's carries in one add and one AND.

    keys[i] packs r_k(s) = b_k*s mod ell, s the i-th given sector, in field k
    of f = bits of ell + 1 bits; with no sectors given, keys[s] for every
    sector s < ell, summed in C from one shifted residue_row per weight.
    With the bias 2^(f-1) - ell per field, field k of bias + key_s + key_t
    reaches its top bit tops[k] exactly when e_k(s, t) = [r_k(s) + r_k(t)
    >= ell] is 1, and never overflows.  When d was given a logweight table,
    ValueError unless it has one ell-long row per weight and each given
    sector's column holds these residues.
    star_multiply keeps the keys it asks for in d.products, so each sector
    is packed and checked here once per WpsData.

    >>> d = build_wps((1, 2, 4))
    >>> keys, bias, tops = carry_keys(d)
    >>> key = bias + keys[1] + keys[3] & sum(tops)
    >>> [k for k, top in enumerate(tops) if key & top]
    [0, 1]
    """
    ell, b, table = d.ell, d.b, d.table
    corrupt = f"logweights are not b_k*s mod {ell}, one row per weight"
    if table is not None and (len(table) != len(b) or set(map(len, table)) != {ell}):
        raise ValueError(corrupt)
    f = ell.bit_length() + 1
    shifts = range(0, f * len(b), f)
    tops = tuple(map((1 << f - 1).__lshift__, shifts))
    bias = sum(tops) - sum(map(ell.__lshift__, shifts))
    if sectors is None:
        if table is not None and list(map(list, table)) != list(map(residue_row, b, repeat(ell))):
            raise ValueError(corrupt)
        rows = map(residue_row, b, repeat(ell), shifts)
        return list(map(sum, zip(*rows))), bias, tops
    keys = []
    for s in sectors:
        column = [w * s % ell for w in b]
        if table is not None and column != [row[s] for row in table]:
            raise ValueError(corrupt)
        keys.append(sum(map(lshift, column, shifts)))
    return keys, bias, tops


def sector_rows(d: WpsData, first: int, render=None, names=None):
    """The pair table a row at a time: (s, classes, targets) for each
    first <= s < ell, over the pairs s <= t < ell in order of t.

    classes yields render(ws), ws the pair's obstructed weights (ws itself
    by default), and targets is names[(s + t) % ell] (the sector by
    default), a slice of one doubled list.  classes is C-level maps over
    the carry_keys list: one add and one AND per pair, by operator.add and
    operator.and_ (cheaper to call than bound int methods), give its class
    key, which a dict looks up; its __missing__ decodes and renders each of
    the at most 2^(n+1) classes once per call.  So a caller builds a row with
    map and str.join, with no Python frame per pair.  ValueError when d
    was given a logweight table that is not b_k*s mod ell throughout
    (carry_keys checks it).

    >>> d = build_wps((1, 2, 4))
    >>> [(s, list(classes), targets) for s, classes, targets in sector_rows(d, 2)]
    [(2, [(1,), (1,)], [0, 1]), (3, [(1, 2)], [2])]
    """
    ell = d.ell
    keys, bias, tops = carry_keys(d)
    high = sum(tops)

    class Classes(dict):
        def __missing__(self, key):
            ws = tuple(w for w, top in zip(d.b, tops) if key & top)
            value = self[key] = ws if render is None else render(ws)
            return value

    lookup = Classes().__getitem__
    doubled = list(range(ell) if names is None else names) * 2
    for s in range(first, ell):
        classes = map(lookup, map(and_, repeat(high), map(add, repeat(bias + keys[s]), keys[s:])))
        # (s + t) % ell for t = s..ell-1 is 2s..s+ell-1 in the doubled list
        yield s, classes, doubled[2 * s : s + ell]


def sector_pairs(d: WpsData, first: int):
    """(s, t, target, obstructed weights) for first <= s <= t < ell: the
    rows of sector_rows, flattened.  All pairs of a class share one weight
    tuple, so callers can key per-class work on it."""
    for s, classes, targets in sector_rows(d, first):
        yield from zip(repeat(s), count(s), targets, classes)


def obstruction_set(d: WpsData, s: int, t: int) -> tuple[int, ...]:
    """Coordinates k with obstruction exponent 1 for the pair (s, t)."""
    return tuple(
        k for k in range(len(d.b)) if obstruction_exponent(d, k, s, t) == 1
    )


@lru_cache(maxsize=None)
def euler_product(weights: tuple[int, ...]) -> LaurentPoly:
    """The product of 1 - u^-w over weights, expanded; 1 when empty.

    Memoised by the weight tuple, so a weight vector with n+1 coordinates
    yields at most 2^(n+1) distinct values.  Results are shared between
    all callers: treat them as read-only.
    """
    out = LaurentPoly.one()
    for w in weights:
        out = out * euler_class(w)
    return out


def fixed_weights(d: WpsData, s: int) -> tuple[int, ...]:
    """Weights of the coordinates fixed by sector s."""
    return tuple(d.b[k] for k in fixed_set(d, s))


def structure_coefficient(d: WpsData, s: int, t: int) -> LaurentPoly:
    """The coefficient of alpha_[s+t] in alpha_s * alpha_t, expanded.

    A product of Euler classes 1 - u^-b_k, one factor for each k whose
    obstruction exponent is 1.  Symmetric in s and t.  Shared: read-only.
    """
    return euler_product(tuple(d.b[k] for k in obstruction_set(d, s, t)))


def kernel_generator(d: WpsData, s: int) -> LaurentPoly:
    """Generator of the sector's kernel ideal, expanded.

    The product of 1 - u^-b_k over the coordinates fixed by s.  An empty
    product gives 1: the sector misses the level set and collapses to the
    zero ring.  Shared: read-only.
    """
    return euler_product(fixed_weights(d, s))
