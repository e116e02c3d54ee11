"""Sector combinatorics of a weighted circle action on C^(n+1).

The weights b = (b_0, ..., b_n) determine ell = lcm(b) and a cyclic
stabilizer group of order ell.  The {0,1} exponents twisting sector
products are read off the residue table r_k(s) = (b_k * s) mod ell.
Which coordinates the sector s fixes, and so the kernel generator of its
quotient ring, follow from the divisor rule instead: s fixes k exactly
when ell/b_k divides gcd(s, ell), so they depend only on that gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from .laurent import LaurentPoly, euler_class


@dataclass(frozen=True)
class WpsData:
    """Weights, group order, and the full logweight numerator table.

    logw[k][s] = (b[k] * s) % ell, so the logweight of sector s on the
    k-th coordinate is the exact fraction logw[k][s] / ell.
    """

    b: tuple[int, ...]
    ell: int
    logw: tuple[tuple[int, ...], ...]


def build_wps(b) -> WpsData:
    bt = tuple(b)
    if not bt:
        raise ValueError("weight vector must not be empty")
    for k, w in enumerate(bt):
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ValueError(f"weight b_{k} must be a positive integer, got {w!r}")
    ell = lcm(*bt)
    logw = tuple(tuple(w * s % ell for s in range(ell)) for w in bt)
    return WpsData(bt, ell, logw)


def check_sector(d: WpsData, s: int) -> None:
    if not 0 <= s < d.ell:
        raise ValueError(f"sector index {s} out of range [0, {d.ell})")


def fixed_set(d: WpsData, s: int) -> tuple[int, ...]:
    """Coordinates k fixed by sector s, i.e. those with b_k * s = 0 mod ell."""
    check_sector(d, s)
    return tuple(k for k, w in enumerate(d.b) if w * s % d.ell == 0)


def obstruction_exponent(d: WpsData, k: int, s: int, t: int) -> int:
    """(r_k(s) + r_k(t) - r_k([s+t])) / ell, always 0 or 1."""
    check_sector(d, s)
    check_sector(d, t)
    if not 0 <= k < len(d.b):
        raise ValueError(f"coordinate index {k} out of range [0, {len(d.b)})")
    row = d.logw[k]
    e, rem = divmod(row[s] + row[t] - row[(s + t) % d.ell], d.ell)
    if rem or e not in (0, 1):
        raise ValueError(
            f"obstruction exponent not in {{0,1}} at (b, k, s, t) = {(d.b, k, s, t)}"
        )
    return e


def carry_rows(r, ell: int) -> list[int]:
    """Bit t of row s is the carry [r[s] + r[t] >= ell], the exponent e(s, t).

    Raises ValueError unless r[s] == s*r[1] mod ell for every s (so each
    entry is in [0, ell)): only such rows have their carries as exponents.
    Row s is mask[ell - r[s]], mask[v] holding the bits t with r[t] >= v.
    """
    a = r[1] if len(r) > 1 else 0
    if any(v != s * a % ell for s, v in enumerate(r)):
        raise ValueError(f"residue row is not s*{a} mod {ell}")
    masks = [0] * (ell + 1)
    for t, v in enumerate(r):
        masks[v] |= 1 << t
    for v in range(ell - 1, -1, -1):
        masks[v] |= masks[v + 1]
    return [masks[ell - v] for v in r]


def sector_pairs(d: WpsData, first: int):
    """(s, t, target, obstructed weights) for first <= s <= t < ell, by rows.

    Pairs with the same obstructed coordinates share one weight tuple
    within a call, so callers can render each of the at most 2^(n+1)
    classes once, keyed by that tuple.
    """
    ell = d.ell
    rows = [carry_rows(r, ell) for r in d.logw]
    classes: dict[tuple[str, ...], tuple[int, ...]] = {}
    for s in range(first, ell):
        # char i of each string is the coordinate's bit t = s + i
        bits = [format(row[s] >> s, f"0{ell - s}b")[::-1] for row in rows]
        for t, key in enumerate(zip(*bits), s):
            ws = classes.get(key)
            if ws is None:
                ws = classes[key] = tuple(w for w, c in zip(d.b, key) if c == "1")
            yield s, t, (s + t) % ell, ws


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
