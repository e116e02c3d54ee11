"""Spans around korb's public functions, installed from outside the program.

korb.ring, korb.cli and korb/__init__ import functions by name, so patching
the defining module alone would miss most calls. install() replaces every
attribute of every loaded korb module (and of LaurentPoly, for the
operators) that is bound to a target function. Private helpers such as
_star are never patched; their time is part of the caller's self time.

Spans are aggregated in memory per (parent, name) edge, because the
traced calls number in the millions. A span's self time is its duration
minus the durations of the wrapped spans directly inside it; the cost of
the wrappers themselves falls in the unwrapped remainder.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

LAYERS = json.loads((Path(__file__).parent / "layers.json").read_text())


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


class Tracer:
    def __init__(self):
        self.on = False
        self.calls = {}  # name -> [calls, self seconds]
        self.edges = {}  # (parent, name) -> [calls, seconds]
        self.counters = {}
        self.sites = {}  # name -> binding sites patched
        self.distinct = set()
        self._stack = []  # [name, seconds covered by child spans]

    def _count(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    # per-target counters computed from arguments and results
    def _mul(self, args, kwargs, res):
        a, b = args
        self._count("laurent.mul.coeff_products",
                    len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1))

    def _divmod(self, args, kwargs, res):
        x, g = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "g")
        if not x.is_zero:
            self._count("laurent.divmod_monic.steps",
                        max(0, x.max_exp + 1 - g.degree))

    def _reduce(self, args, kwargs, res):
        ring, x = _arg(args, kwargs, 0, "ring"), _arg(args, kwargs, 1, "x")
        if ring.rank and not x.is_zero:
            self._count("ring.reduce.shift_sum", max(0, -x.min_exp))
        self._count("ring.reduce.zeros", res.is_zero)

    def _structure(self, args, kwargs, res):
        self.distinct.add(res)

    def _wrap(self, name, fn, after):
        stat = self.calls.setdefault(name, [0, 0.0])
        stack, edges, clock = self._stack, self.edges, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                edge = edges.setdefault((parent[0] if parent else "", name), [0, 0.0])
                edge[0] += 1
                edge[1] += dt
            if after is not None:
                after(args, kwargs, res)
            return res

        return wrapper

    def install(self) -> None:
        after = {
            "laurent.mul": self._mul,
            "laurent.divmod_monic": self._divmod,
            "ring.reduce": self._reduce,
            "sectors.structure_coefficient": self._structure,
        }
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "korb" or n.startswith("korb."))]
        for name, target in LAYERS["targets"].items():
            modname, _, qual = target["site"].partition(":")
            owner = importlib.import_module(modname)
            *cls_path, attr = qual.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            self.sites[name] = []
            if fn is None:
                continue
            wrapper = self._wrap(name, fn, after.get(name))
            holders = [owner] if cls_path else modules
            for holder in holders:
                label = getattr(holder, "__name__", "")
                for key, val in list(vars(holder).items()):
                    if val is fn:
                        setattr(holder, key, wrapper)
                        self.sites[name].append(f"{label}.{key}")

    def report(self) -> dict:
        return {
            "calls": self.calls,
            "counters": dict(self.counters,
                             **{"sectors.structure_coefficient.distinct": len(self.distinct)}),
            "edges": [[p, n, c, s] for (p, n), (c, s) in sorted(self.edges.items())],
            "sites": self.sites,
        }
