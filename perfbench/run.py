"""korb benchmark runner.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 25 --trace 0

Makes one round of inputs from the seed (workloads.py), then runs rounds,
each in a fresh interpreter (worker.py), until --seconds is spent; a round
starts only when the rounds so far say it will fit, and at least one runs.
Every output is checked (oracle.py, expected.json); a failed call is logged
to stderr with its seed, round and call index and counted, never fatal.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones:
untraced and traced rounds alternate on the same inputs, and the traced
rounds carry spans around korb's public functions (tracer.py). The last
stdout line is the result JSON; the line before it holds the details
(sample counts, input properties, run metadata, spans).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYERS = json.loads((HERE / "layers.json").read_text())
SETUP_SAMPLES = 15  # set-up is timed in this many fresh interpreters at least
MAX_FAILURE_LOG = 20
# Every reported time is scaled by the speed probe (worker.SpeedProbe):
# t * REF_PROBE_S / (probe time near t). REF_PROBE_S is the probe's median
# time on the reference machine (2-vCPU Xeon at 2.1 GHz, CPython 3.11.7),
# so times read as seconds there. Raw times are in the detail line.
REF_PROBE_S = 0.0015
PROBE_WINDOW = 0.25


class WorkerError(RuntimeError):
    pass


def run_worker(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"worker exited {proc.returncode}"]
        raise WorkerError(lines[-1])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def speed(probe: list, start: float, end: float) -> float:
    """Median probe time near [start, end]: the machine's speed then."""
    near = [d for t, d in probe if start - PROBE_WINDOW <= t <= end + PROBE_WINDOW]
    if len(near) < 3:
        near = [d for _, t, d in sorted((abs(t - start), t, d) for t, d in probe)[:3]]
    return statistics.median(near)


def scale(probe: list, start: float, seconds: float) -> float:
    """`seconds` measured from `start`, scaled to the reference machine's speed."""
    return seconds * REF_PROBE_S / speed(probe, start, start + seconds)


def rank(n: int, q: float) -> int:
    """Index of the q-quantile of n sorted values by nearest rank, so that
    a percentile is a value that was measured, not interpolated."""
    return max(0, math.ceil(q * n) - 1)


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def metadata() -> dict:
    src = sorted((ROOT / "src" / "korb").glob("*.py"))
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "src_korb_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def layer_metrics(trace: dict, workload: str, traced_total: float,
                  out_bytes: int) -> tuple[dict, list]:
    """Per-layer metrics of one traced round, with missing targets as -1."""
    calls, counters = trace["calls"], trace["counters"]
    m = {}
    for name, (n, self_s) in calls.items():
        m[f"{name}.calls"], m[f"{name}.self_s"] = n, self_s
    for name in LAYERS["targets"]:
        m.setdefault(f"{name}.calls", 0)
        m.setdefault(f"{name}.self_s", 0.0)
    m["laurent.mul.coeff_products"] = counters.get("laurent.mul.coeff_products", 0)
    m["laurent.divmod_monic.steps"] = counters.get("laurent.divmod_monic.steps", 0)
    m["ring.reduce.shift_sum"] = counters.get("ring.reduce.shift_sum", 0)
    n_red = m["ring.reduce.calls"]
    m["ring.reduce.zero_ratio"] = counters.get("ring.reduce.zeros", 0) / n_red if n_red else 0.0
    n_sc = m["sectors.structure_coefficient.calls"]
    m["sectors.structure_coefficient.distinct_ratio"] = (
        counters["sectors.structure_coefficient.distinct"] / n_sc if n_sc else 0.0)
    m["cli.output_bytes"] = out_bytes
    m["trace.remainder_s"] = traced_total - sum(s for _, s in calls.values())
    missing = [name for name, t in LAYERS["targets"].items()
               if workload in t["expect"] and m[f"{name}.calls"] == 0]
    for name in missing:
        for key in m:
            if key.startswith(name + "."):
                m[key] = -1
    return m, missing


def run_rounds(job: dict, seconds: float, traced_too: bool) -> dict:
    """Rounds until `seconds` is spent: a round starts only if one of its
    kind has fit so far; at least one of each kind runs."""
    run_worker(dict(job, setup_only=True))  # warm-up: byte-compile, page in
    start = time.perf_counter()
    rounds = {False: [], True: []}  # traced? -> worker results
    took = {False: [], True: []}
    kinds = (False, True) if traced_too else (False,)
    while True:
        for traced in kinds:
            if rounds[traced] and time.perf_counter() - start + max(took[traced]) > seconds:
                return rounds
            t = time.perf_counter()
            rounds[traced].append(run_worker(dict(job, trace=traced)))
            took[traced].append(time.perf_counter() - t)


def end_to_end_metrics(rounds: list, setups: list, labels: list) -> tuple[dict, dict]:
    lat, raw, walls, raw_walls = [], [], [], []
    for r in rounds:
        scaled = [scale(r["probe"], t, dt) for t, dt in r["spans"]]
        walls.append(sum(scaled))
        raw_walls.append(sum(dt for _, dt in r["spans"]))
        lat += [(v * 1e3, label) for v, label in zip(scaled, labels)]
        raw += [dt * 1e3 for _, dt in r["spans"]]
    lat.sort()
    raw.sort()
    at = {q: lat[rank(len(lat), q)] for q in (0.5, 0.9)}
    setup = [scale(r["probe"], *r["setup"]) for r in setups]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "call_ms.p50": at[0.5][0],
        "call_ms.p90": at[0.9][0],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }
    detail = {
        "samples": {"setup_s": len(setup), "wall_s": len(walls), "call_ms": len(lat),
                    "beyond_p90": len(lat) - 1 - rank(len(lat), 0.9)},
        "percentile_call": {"p50": at[0.5][1], "p90": at[0.9][1]},
        "unscaled": {
            "setup_s": statistics.median(r["setup"][1] for r in setups),
            "wall_s": statistics.median(raw_walls),
            "call_ms.p50": raw[rank(len(raw), 0.5)],
            "call_ms.p90": raw[rank(len(raw), 0.9)],
            "probe_s": statistics.median(d for r in rounds for _, d in r["probe"]),
        },
        "wall_s_rounds": walls,
    }
    return metrics, detail


def per_layer_metrics(workload: str, plain: list, traced: list) -> tuple[dict, dict]:
    """Metrics of the traced round with the median traced time, so that its
    self times and remainder add up exactly."""
    def total(r):
        return r["build_s"] + sum(dt for _, dt in r["spans"])

    chosen = sorted(traced, key=total)[(len(traced) - 1) // 2]
    metrics, missing = layer_metrics(chosen["trace"], workload, total(chosen),
                                     chosen["out_bytes"])
    # unscaled on both sides: traced rounds run without the speed probe
    metrics["trace.overhead_ratio"] = (
        statistics.median(sum(dt for _, dt in r["spans"]) for r in traced)
        / statistics.median(sum(dt for _, dt in r["spans"]) for r in plain))
    detail = {
        "traced_rounds": len(traced),
        "missing": missing,
        "traced_total_s": total(chosen),
        "sites": chosen["trace"]["sites"],
        "edges": chosen["trace"]["edges"],
    }
    for name in missing:
        print(f"MISSING: {name} saw no call on {workload}, which is meant to "
              "exercise it; its metrics read -1", file=sys.stderr)
    return metrics, detail


ALIASES = {"explore": "cli_ms", "compute": "star_ms", "reduce": "reduce_ms"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    meta = metadata()
    meta["loadavg_start"] = read_loadavg()
    inputs = workloads.generate(args.workload, args.seed)
    job = {"workload": args.workload, "vectors": inputs["vectors"],
           "calls": inputs["calls"], "trace": False, "setup_only": False}
    labels = [c["label"] for c in inputs["calls"]]

    rounds = run_rounds(job, args.seconds, bool(args.trace))
    plain = rounds[False]
    setups = list(plain)
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(dict(job, setup_only=True)))
    meta["loadavg_end"] = read_loadavg()

    attempted = failed = 0
    for traced, rs in rounds.items():
        for n, r in enumerate(rs):
            attempted += len(r["spans"])
            failed += len(r["failures"])
            for i, why in r["failures"][:MAX_FAILURE_LOG]:
                print(f"FAIL workload={args.workload} seed={args.seed} traced={int(traced)} "
                      f"round={n} call={i} [{labels[i]}]: {why}", file=sys.stderr)

    metrics, detail = end_to_end_metrics(plain, setups, labels)
    if args.workload in ALIASES:
        detail["aliases"] = {f"{ALIASES[args.workload]}.{q}": metrics[f"call_ms.{q}"]
                             for q in ("p50", "p90")}
    if args.trace:
        metrics, traced_detail = per_layer_metrics(args.workload, plain, rounds[True])
        detail.update(traced_detail)
    detail.update(workload=args.workload, seed=args.seed, rounds=len(plain),
                  attempted=attempted, fail_rate=failed / attempted,
                  inputs=inputs["props"], meta=meta)

    absent = [d["name"] for d in declared if d["name"] not in metrics]
    if absent:
        print(f"BENCHMARK.json declares metrics this run does not make: {absent}",
              file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (WorkerError, OSError, json.JSONDecodeError) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        sys.exit(1)
