"""Reference arithmetic the benchmark checks korb against.

Nothing here imports korb: polynomials are plain {exponent: coefficient}
dicts, and every quantity is derived from the weight vector b directly.

* rank of sector s: the sum of the weights b_k with b_k * s = 0 mod ell;
* monic generator of sector s: the product of (u^b_k - 1) over those k,
  which is u^rank times the kernel generator, up to sign;
* structure coefficient of (s, t): the product of (1 - u^-b_k) over the k
  whose residues r_k(s) + r_k(t) reach ell.

A residue r of x in sector s is correct exactly when it is canonical
(every exponent in [0, rank)) and x - r is divisible by the monic
generator, since canonical residues are unique.
"""

from __future__ import annotations

from math import lcm

# Byte-exact CLI outputs for 1,2,4, kept in step with the chart, table and
# kernel goldens of the acceptance tests.
GOLDEN = {
    "chart 1,2,4 --format text": (
        "weights: 1,2,4\n"
        "ell: 4\n"
        "sector 0: zeta = 1, fixed = C^3, logweights = (0, 0, 0), generator = alpha_0\n"
        "sector 1: zeta = i, fixed = C_(4), logweights = (1/4, 1/2, 0), generator = alpha_1\n"
        "sector 2: zeta = -1, fixed = C_(2) + C_(4), logweights = (1/2, 0, 0), generator = alpha_2\n"
        "sector 3: zeta = -i, fixed = C_(4), logweights = (3/4, 1/2, 0), generator = alpha_3\n"
    ),
    "table 1,2,4 --format text": (
        "weights: 1,2,4\n"
        "ell: 4\n"
        "alpha_1 * alpha_1 = (1-u^-2) alpha_2\n"
        "alpha_1 * alpha_2 = alpha_3\n"
        "alpha_1 * alpha_3 = (1-u^-1)(1-u^-2) alpha_0\n"
        "alpha_2 * alpha_2 = (1-u^-1) alpha_0\n"
        "alpha_2 * alpha_3 = (1-u^-1) alpha_1\n"
        "alpha_3 * alpha_3 = (1-u^-1)(1-u^-2) alpha_2\n"
    ),
    "kernels 1,2,4 --format text": (
        "weights: 1,2,4\n"
        "ell: 4\n"
        "s=0: (1-u^-1)(1-u^-2)(1-u^-4)  [rank 7]\n"
        "s=1: (1-u^-4)  [rank 4]\n"
        "s=2: (1-u^-2)(1-u^-4)  [rank 6]\n"
        "s=3: (1-u^-4)  [rank 4]\n"
    ),
}


def sector_ranks(b) -> list[int]:
    ell = lcm(*b)
    return [sum(w for w in b if w * s % ell == 0) for s in range(ell)]


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def monic_generator(b, s: int) -> list[int]:
    """Coefficients, constant term first, of prod (u^b_k - 1) over fixed k."""
    ell = lcm(*b)
    g = [1]
    for w in b:
        if w * s % ell == 0:
            nxt = [0] * (len(g) + w)
            for i, c in enumerate(g):
                nxt[i] -= c
                nxt[i + w] += c
            g = nxt
    return g


def structure_coeff(b, s: int, t: int) -> dict:
    ell = lcm(*b)
    out = {0: 1}
    for w in b:
        if w * s % ell + w * t % ell >= ell:
            out = poly_mul(out, {0: 1, -w: -1})
    return out


def _mulmod(a: list[int], b: list[int], g: list[int]) -> list[int]:
    """a * b modulo the monic g; all three are coefficient lists, constant
    term first, and a, b have len(g) - 1 entries."""
    d = len(g) - 1
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for top in range(len(prod) - 1, d - 1, -1):
        c = prod[top]
        if c:
            for j in range(d + 1):
                prod[top - d + j] -= c * g[j]
    return prod[:d]


def divisible(x: dict, g: list[int]) -> bool:
    """True when x is a multiple of g in Z[u, u^-1]; g is monic with
    constant term +-1, so u is a unit modulo g.

    Sums the residues of the terms of x, each found by binary powering of
    u or u^-1 = -g(0) (g - g(0)) / u, so deep exponents cost O(log |e|).
    """
    d = len(g) - 1
    if d == 0:
        return True
    u = [0, 1] + [0] * (d - 2) if d > 1 else [-g[0]]
    inv_u = [-g[0] * c for c in g[1:]]
    total = [0] * d
    for e, c in x.items():
        base, n = (u, e) if e >= 0 else (inv_u, -e)
        power = [1] + [0] * (d - 1)
        while n:
            if n & 1:
                power = _mulmod(power, base, g)
            base = _mulmod(base, base, g)
            n >>= 1
        total = [t + c * p for t, p in zip(total, power)]
    return not any(total)


def residue_error(x: dict, r: dict, rank: int, g: list[int]) -> str | None:
    """Why r is not the canonical residue of x, or None when it is."""
    if any(not 0 <= e < rank for e in r):
        return f"residue {sorted(r.items())} not canonical for rank {rank}"
    if rank and not divisible(poly_add(x, r, -1), g):
        return "x - residue is not divisible by the sector generator"
    return None


def product_error(b, x: dict, y: dict, out: dict) -> str | None:
    """Check a star product given as {sector: poly} maps for x, y and out."""
    ell = lcm(*b)
    ranks = sector_ranks(b)
    expected: dict[int, dict] = {}
    for s, xs in x.items():
        for t, yt in y.items():
            tgt = (s + t) % ell
            term = poly_mul(poly_mul(xs, yt), structure_coeff(b, s, t))
            expected[tgt] = poly_add(expected.get(tgt, {}), term)
    for tgt in set(expected) | set(out):
        err = residue_error(
            expected.get(tgt, {}), out.get(tgt, {}), ranks[tgt],
            monic_generator(b, tgt),
        )
        if err:
            return f"sector {tgt}: {err}"
    return None
