"""Acceptance gate: eight criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Each criterion is exact arithmetic; the timed ones carry explicit budgets.
"""

import io
import math
import random
import re
import time
from contextlib import redirect_stdout

from korb.cli import main as cli_main
from korb.laurent import LaurentPoly, divmod_monic, parse_laurent
from korb.ring import (
    build_sector_rings,
    check_exponents,
    presentation,
    reduce,
    torsion_report,
    total_rank,
    verify,
)
from korb.sectors import build_wps

# one deterministic sweep shared by criteria 5, 6, 7
_rng = random.Random(20260819)
SWEEP = []
for _ in range(200):
    n = _rng.randint(1, 5)
    SWEEP.append(tuple(_rng.randint(1, 12) for _ in range(n + 1)))


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, detail or desc


def _run_cli(*args) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(list(args))
    assert code == 0, f"cli {args} exited {code}"
    return out.getvalue()


def _factored(text: str) -> LaurentPoly:
    """Expand a product of parenthesized factors; bare '1' allowed."""
    groups = re.findall(r"\(([^)]*)\)", text)
    if not groups:
        return parse_laurent(text)
    prod = parse_laurent("1")
    for g in groups:
        prod = prod * parse_laurent(g)
    return prod


CHART_GOLDEN = """\
weights: 1,2,4
ell: 4
sector 0: zeta = 1, fixed = C^3, logweights = (0, 0, 0), generator = alpha_0
sector 1: zeta = i, fixed = C_(4), logweights = (1/4, 1/2, 0), generator = alpha_1
sector 2: zeta = -1, fixed = C_(2) + C_(4), logweights = (1/2, 0, 0), generator = alpha_2
sector 3: zeta = -i, fixed = C_(4), logweights = (3/4, 1/2, 0), generator = alpha_3
"""

TABLE_CELLS = {
    (1, 1): "(1-u^-2) alpha_2",
    (1, 2): "alpha_3",
    (1, 3): "(1-u^-1)(1-u^-2) alpha_0",
    (2, 2): "(1-u^-1) alpha_0",
    (2, 3): "(1-u^-1) alpha_1",
    (3, 3): "(1-u^-1)(1-u^-2) alpha_2",
}

KERNEL_GOLDEN = [
    "(1-u^-1)(1-u^-2)(1-u^-4)",
    "(1-u^-4)",
    "(1-u^-2)(1-u^-4)",
    "(1-u^-4)",
]


def test_criterion_1_golden_chart():
    t0 = time.perf_counter()
    out = _run_cli("chart", "1,2,4")
    dt = time.perf_counter() - t0
    ok = out == CHART_GOLDEN and dt < 0.1
    _report(
        1,
        f"chart 1,2,4 reproduced exactly ({dt:.3f}s < 0.1s)",
        ok,
        f"got:\n{out}",
    )


def test_criterion_2_golden_table():
    out = _run_cli("table", "1,2,4")
    lines = out.splitlines()
    got = {}
    for line in lines[2:]:
        m = re.match(r"^alpha_(\d) \* alpha_(\d) = (.*)$", line)
        assert m, line
        got[(int(m.group(1)), int(m.group(2)))] = m.group(3)
    ok = got == TABLE_CELLS
    _report(2, "multiplication table 1,2,4 matches cell-for-cell", ok, f"got {got}")


def test_criterion_3_golden_kernels():
    out = _run_cli("kernels", "1,2,4")
    got = []
    for line in out.splitlines()[2:]:
        m = re.match(r"^s=(\d): (.*?)  \[rank (\d+)\]$", line)
        assert m, line
        got.append(m.group(2))
    ok = got == KERNEL_GOLDEN
    _report(3, "kernel generators for 1,2,4 match", ok, f"got {got}")


def test_criterion_4_presentation():
    d = build_wps((1, 2, 4))
    pres = presentation(d)
    # expected relations assembled independently from the golden cells
    expected_i = {(0, t, t, LaurentPoly.one()) for t in range(4)}
    for (s, t), cell in TABLE_CELLS.items():
        coeff_text = cell.rsplit("alpha_", 1)[0].strip() or "1"
        expected_i.add((s, t, (s + t) % 4, _factored(coeff_text)))
    expected_j = {(s, _factored(KERNEL_GOLDEN[s])) for s in range(4)}
    ok = (
        set(pres.relations_i) == expected_i
        and sorted(pres.relations_i) == list(pres.relations_i)
        and set(pres.relations_j) == expected_j
        and pres.unit_relation == "alpha_0 - 1"
    )
    # the printed form must carry the same content
    out = _run_cli("present", "1,2,4")
    ok = ok and "unit relation: alpha_0 - 1" in out
    for cell in TABLE_CELLS.values():
        ok = ok and f" - {cell}" in out
    _report(4, "presentation equals table + kernels + unit relation", ok)


def test_criterion_5_torsion_sweep():
    t0 = time.perf_counter()
    bad = []
    for b in SWEEP:
        rep = torsion_report(build_sector_rings(build_wps(b)))
        if not rep.passed:
            bad.append(b)
    dt = time.perf_counter() - t0
    ok = not bad and dt < 5.0
    _report(
        5,
        f"all sectors Z-free across {len(SWEEP)} random weight vectors "
        f"({dt:.2f}s < 5s)",
        ok,
        f"failures: {bad}, {dt:.2f}s",
    )


def test_criterion_6_ring_axioms():
    t0 = time.perf_counter()
    small = [b for b in SWEEP if math.lcm(*b) <= 60]
    assert small, "sweep produced no vector with lcm <= 60"
    checks = 0
    failures = []
    for b in small:
        c, f = check_exponents(build_wps(b))
        checks += c
        failures.extend(f)
    reports = [
        verify(build_wps((1, 2, 4)), trials=500, seed=7),
        verify(build_wps((2, 3)), trials=500, seed=7),
    ]
    failures.extend(f for rep in reports for f in rep.failures)
    # same seed, same report: the trials are reproducible
    if verify(build_wps((1, 2, 4)), trials=500, seed=7) != reports[0]:
        failures.append("verify not reproducible for fixed seed")
    dt = time.perf_counter() - t0
    ok = not failures and dt < 10.0
    _report(
        6,
        f"exponent identities exhausted on {len(small)} vectors "
        f"({checks} checks) plus 2x500 seeded trials ({dt:.2f}s < 10s)",
        ok,
        f"failures: {failures[:5]}, {dt:.2f}s",
    )


def test_criterion_7_rank_equivalence():
    bad = []
    for b in SWEEP:
        d = build_wps(b)
        ell = math.lcm(*b)
        for s, ring in enumerate(build_sector_rings(d)):
            oracle = sum(w for w in b if w * s % ell == 0)
            degree = len(ring.gmonic.coeffs) - 1
            if not (ring.rank == degree == oracle):
                bad.append((b, s))
    totals_ok = total_rank(build_sector_rings(build_wps((1, 2, 4)))) == 21
    for m in range(1, 7):
        rings = build_sector_rings(build_wps((1,) * m))
        totals_ok = totals_ok and total_rank(rings) == m
    ok = not bad and totals_ok
    _report(
        7,
        "rank_s = deg(monic generator) = fixed-weight sum on the sweep; "
        "totals 21 and n+1 confirmed",
        ok,
        f"mismatches: {bad[:5]}",
    )


def test_criterion_8_reduction_correctness():
    t0 = time.perf_counter()
    d = build_wps((1, 2, 4))
    rings = build_sector_rings(d)
    rng = random.Random(88)
    bad = 0
    for ring in rings:
        g = ring.gmonic
        for _ in range(1000):
            x = LaurentPoly(
                {rng.randint(-10, 10): rng.randint(-9, 9) for _ in range(6)}
            )
            r = reduce(ring, x)
            if reduce(ring, r) != r:
                bad += 1
                continue
            if not r.is_zero and not (r.min_exp >= 0 and r.max_exp < ring.rank):
                bad += 1
                continue
            diff = x - r
            if diff.is_zero:
                continue
            shift = max(0, -diff.min_exp)
            q, rem = divmod_monic(diff.shifted(shift), g)
            if not rem.is_zero or q * g.as_laurent() != diff.shifted(shift):
                bad += 1
    dt = time.perf_counter() - t0
    ok = bad == 0 and dt < 5.0
    _report(
        8,
        f"4000 random reductions verified by re-multiplication witness "
        f"({dt:.2f}s < 5s)",
        ok,
        f"{bad} failures, {dt:.2f}s",
    )
