"""One round of a workload, in a fresh interpreter.

Reads the round's inputs as JSON on stdin, imports korb from the checkout's
src/, sets up every weight vector, makes each call under its own timer,
then checks every output outside the timed region and prints one JSON line:
set-up time, per-call latencies, peak memory, failures and, in a traced
round, the per-layer spans. run.py starts it; it is not a user command.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

import oracle
from workloads import wstr

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = json.loads((HERE / "expected.json").read_text())


def _pairs(pairs) -> dict:
    terms: dict[int, int] = {}
    for e, c in pairs:
        terms[e] = terms.get(e, 0) + c
    return {e: c for e, c in terms.items() if c}


# Each workload: calls(korb, job, ds, rings) gives one thunk per call, made
# before the timed region; keep(call, result) reduces a result to what the
# check needs, right after its timer stops; check(...) returns an error
# message or None and runs after the last call.

def explore_calls(korb, job, ds, rings):
    cli = sys.modules["korb.cli"]

    def make(argv):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue()
        return run

    return [make(c["argv"]) for c in job["calls"]]


def explore_keep(call, result):
    code, text = result
    data = text.encode()
    key = " ".join(call["argv"])
    small = key in oracle.GOLDEN or call["argv"][0] == "rank"
    return {"code": code, "bytes": len(data),
            "sha": hashlib.sha256(data).hexdigest(), "text": text if small else None}


def explore_check(korb, job, ds, rings, i, kept):
    call = job["calls"][i]
    argv = call["argv"]
    key = " ".join(argv)
    if kept["code"] != 0:
        return f"exit code {kept['code']}"
    if key in oracle.GOLDEN and kept["text"] != oracle.GOLDEN[key]:
        return "output differs from the golden text"
    if argv[0] == "rank" and argv[-1] == "text":
        squares = sum(int(w) ** 2 for w in argv[1].split(","))
        if kept["text"] != f"{squares}\n":
            return f"rank {kept['text']!r} is not the sum of squared weights"
    if kept["sha"] != EXPECTED["explore"].get(key):
        return "output digest differs from the one recorded at the seed commit"
    return None


def _operands(korb, call, d, rings):
    if call["kind"] == "alpha":
        return korb.alpha(rings, d, call["s"]), korb.alpha(rings, d, call["t"])

    def element(comps):
        polys = [korb.LaurentPoly()] * d.ell
        for s, pairs in comps:
            polys[s] = korb.LaurentPoly(_pairs(pairs))
        return korb.KOrbElement(d.b, tuple(polys))

    return element(call["x"]), element(call["y"])


def compute_calls(korb, job, ds, rings):
    def make(call):
        d, r = ds[call["w"]], rings[call["w"]]
        x, y = _operands(korb, call, d, r)
        return lambda: korb.star_multiply(r, d, x, y)

    return [make(c) for c in job["calls"]]


def compute_check(korb, job, ds, rings, i, prod):
    call = job["calls"][i]
    w = call["w"]
    b = ds[w].b
    ranks = oracle.sector_ranks(b)
    if korb.total_rank(rings[w]) != sum(x * x for x in b):
        return "total rank is not the sum of squared weights"
    if call["kind"] == "alpha":
        x = {s: {0: 1} for s in (call["s"],) if ranks[s]}
        y = {t: {0: 1} for t in (call["t"],) if ranks[t]}
    else:
        x = {s: _pairs(p) for s, p in call["x"]}
        y = {s: _pairs(p) for s, p in call["y"]}
    out = {s: dict(c.terms) for s, c in enumerate(prod.comps) if not c.is_zero}
    err = oracle.product_error(b, x, y, out)
    if err:
        return err
    # commutativity on a sample: the cheap rungs, every third product
    if ds[w].ell <= 60 and i % 3 == 0:
        xe, ye = _operands(korb, call, ds[w], rings[w])
        if korb.star_multiply(rings[w], ds[w], ye, xe) != prod:
            return "product is not commutative"
    return None


def reduce_calls(korb, job, ds, rings):
    def make(call):
        ring = rings[call["w"]][call["s"]]
        x = korb.LaurentPoly(_pairs(call["x"]))
        return lambda: korb.reduce(ring, x)

    return [make(c) for c in job["calls"]]


def reduce_check(korb, job, ds, rings, i, r):
    call = job["calls"][i]
    b, s = ds[call["w"]].b, call["s"]
    return oracle.residue_error(_pairs(call["x"]), dict(r.terms),
                                oracle.sector_ranks(b)[s],
                                oracle.monic_generator(b, s))


def certify_calls(korb, job, ds, rings):
    def make(call):
        d = ds[call["w"]]
        return lambda: korb.verify(d, trials=call["trials"], seed=call["seed"])

    return [make(c) for c in job["calls"]]


def certify_check(korb, job, ds, rings, i, rep):
    call = job["calls"][i]
    want = EXPECTED["certify"][wstr(ds[call["w"]].b)]
    if not rep.passed or rep.failures:
        return f"verify failed: {list(rep.failures)[:3]}"
    if rep.exponent_checks != want:
        return f"exponent_checks {rep.exponent_checks} != {want} recorded at the seed commit"
    if (rep.trials, rep.seed) != (call["trials"], call["seed"]):
        return "report does not echo the requested trials and seed"
    return None


# Do not change: every time the benchmark reports is scaled by this unit.
_CAL_POLY = {e: e % 7 - 3 for e in range(-20, 20)}


def calibration_unit() -> None:
    """A fixed piece of pure-Python work that uses no korb code."""
    for _ in range(5):
        oracle.poly_mul(_CAL_POLY, _CAL_POLY)


class SpeedProbe:
    """Times the calibration unit every PERIOD seconds, from SIGALRM.

    The machine's speed drifts by tens of percent over seconds, so run.py
    scales each timed interval by the probe samples taken near it. The
    probe's own time is taken out of every interval.
    """

    PERIOD = 0.05

    def __init__(self):
        self.samples = []  # [start, seconds] per calibration unit

    def sample(self, *_):
        t = time.perf_counter()
        calibration_unit()
        self.samples.append([t, time.perf_counter() - t])

    def stolen(self, start: float, end: float) -> float:
        """Probe time inside [start, end): the handler runs to completion
        between two bytecodes, so a sample that starts inside also ends inside."""
        starts = [t for t, _ in self.samples]
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
        return sum(d for _, d in self.samples[lo:hi])

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)


WORKLOADS = {
    "explore": (explore_calls, explore_keep, explore_check),
    "compute": (compute_calls, None, compute_check),
    "reduce": (reduce_calls, None, reduce_check),
    "certify": (certify_calls, None, certify_check),
}


def main() -> None:
    job = json.load(sys.stdin)
    make_calls, keep, check = WORKLOADS[job["workload"]]
    traced = job["trace"]
    probe = SpeedProbe()
    calibration_unit()  # warm-up; then bracket set-up with samples
    for _ in range(3):
        probe.sample()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import korb
    import korb.cli  # noqa: F401  (part of what a user loads)

    if not Path(korb.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"korb was imported from {korb.__file__}, not from {SRC}")
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.on = True
    t_build = time.perf_counter()
    ds = [korb.build_wps(tuple(b)) for b in job["vectors"]]
    rings = [korb.build_sector_rings(d) for d in ds]
    t_ready = time.perf_counter()
    if tracer:
        tracer.on = False
    for _ in range(3):
        probe.sample()
    result = {"setup": [t0, t_ready - t0], "build_s": t_ready - t_build}
    if job["setup_only"]:
        print(json.dumps(dict(result, probe=probe.samples)))
        return

    thunks = make_calls(korb, job, ds, rings)
    spans, kept, errors = [], [], {}
    with probe if not traced else contextlib.nullcontext():
        for i, run in enumerate(thunks):
            if tracer:
                tracer.on = True
            t = time.perf_counter()
            try:
                out = run()
            except Exception as exc:  # a failed call is counted, never fatal
                out, errors[i] = None, f"raised {type(exc).__name__}: {exc}"
            spans.append([t, time.perf_counter()])
            if tracer:
                tracer.on = False
            kept.append(keep(job["calls"][i], out) if keep and i not in errors else out)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for i in range(len(thunks)):
        if i in errors:
            continue
        try:
            err = check(korb, job, ds, rings, i, kept[i])
        except Exception as exc:
            err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            errors[i] = err
    result.update(
        spans=[[t, end - t - probe.stolen(t, end)] for t, end in spans],
        probe=probe.samples,
        rss_mb=rss_mb,
        failures=sorted(errors.items()),
        out_bytes=sum(k["bytes"] for k in kept if k) if keep else 0,
        trace=tracer.report() if tracer else None,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
