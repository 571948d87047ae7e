"""Spans around the calls into each ddcrit layer, recorded from outside the
library by wrapping its public functions, and the per-layer metrics derived
from them; plus the field-arithmetic kernel timings.

A span is (name id, start ns, end ns, parent span index, job id).  Spans
stay in memory during the run and are written out once at the end.
"""

from __future__ import annotations

import functools
import gc
import importlib
import random
import statistics
import sys
import time

# module -> public functions wrapped in the traced run
TARGETS = {
    "cli": ["main", "parse_poly", "parse_laurent"],
    "search": ["brute_search"],
    "cartier": ["ddc_check"],
    "criterion": ["certify", "residue_data", "power_sum_check",
                  "isolation_check", "reconstruct_f"],
    "construct": ["construct_small", "construct_trace", "d9_witnesses"],
    "poly": ["factor", "roots_in_splitting_field", "roots_in_field", "embed",
             "embed_poly", "mu_m_orbit_reps"],
    "gf": ["make_field", "root_of_unity"],
    "witt": ["witt_add", "wp", "standard_form", "upper_breaks",
             "witt_sum_polys", "reduce_jumps"],
    "planner": ["quadruples_for_group", "profiles_for_group", "lifting_radii"],
}

# (label, p, k) of the fields whose element multiply and inverse are timed
KERNEL_FIELDS = [("p3k1", 3, 1), ("p5k1", 5, 1), ("p7k1", 7, 1), ("p3k2", 3, 2),
                 ("p5k2", 5, 2), ("p3k8", 3, 8), ("p3k9", 3, 9), ("p5k5", 5, 5)]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.job = -1
        self.fields: set = set()
        self.embeddings: set = set()
        self._restore: list = []

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        note = {"gf.make_field": self._note_field,
                "poly.embed": self._note_embedding}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if note is not None:
                note(args)
            rec = [nid, clock(), 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _note_field(self, args):
        self.fields.add((args[0], args[1]))

    def _note_embedding(self, args):
        src, dst = args[0].spec, args[1]
        if src != dst:
            self.embeddings.add((src.p, src.k, dst.k))

    def install(self):
        """Replace every wrapped function in its module and under every
        ``from ... import`` alias held by a loaded ddcrit module."""
        modules = [m for n, m in sys.modules.items()
                   if n == "ddcrit" or n.startswith("ddcrit.")]
        for mod_name, funcs in TARGETS.items():
            mod = importlib.import_module(f"ddcrit.{mod_name}")
            for func in funcs:
                orig = getattr(mod, func)
                traced = self._wrap(f"{mod_name}.{func}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, traced)

    def uninstall(self):
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tjob\n")
            for nid, start, end, parent, job in self.spans:
                fh.write(f"{self.names[nid]}\t{start}\t{end}\t{parent}\t{job}\n")

    def metrics(self) -> dict:
        """calls and self seconds per wrapped function, plus the derived
        search, cartier, gf and poly figures."""
        spans, names = self.spans, self.names
        child = [0] * len(spans)
        for nid, start, end, parent, _job in spans:
            if parent >= 0:
                child[parent] += end - start
        calls = [0] * len(names)
        self_ns = [0] * len(names)
        total_ns = [0] * len(names)
        for i, (nid, start, end, _parent, _job) in enumerate(spans):
            calls[nid] += 1
            total_ns[nid] += end - start
            self_ns[nid] += end - start - child[i]
        out = {}
        for nid, name in enumerate(names):
            out[f"{name}.calls"] = (calls[nid], "count")
            out[f"{name}.self_s"] = (self_ns[nid] / 1e9, "s")
        ids = {name: nid for nid, name in enumerate(names)}
        brute, ddc, cert = ids["search.brute_search"], ids["cartier.ddc_check"], ids["criterion.certify"]
        candidates = hits = 0
        for nid, _s, _e, parent, _job in spans:
            if parent >= 0 and spans[parent][0] == brute:
                candidates += nid == ddc
                hits += nid == cert
        brute_s = total_ns[brute] / 1e9
        out["search.candidates"] = (candidates, "count")
        out["search.ddc_hits"] = (hits, "count")
        out["search.candidates_per_s"] = (candidates / brute_s if brute_s else 0.0, "1/s")
        out["cartier.ddc_check.us_per_call"] = (
            total_ns[ddc] / calls[ddc] / 1e3 if calls[ddc] else 0.0, "us")
        out["gf.fields_built"] = (len(self.fields), "count")
        out["gf.max_degree"] = (max((k for _p, k in self.fields), default=0), "count")
        out["poly.embeddings_built"] = (len(self.embeddings), "count")
        return out


def kernel_timings(seed: int) -> dict:
    """ns per FieldElement multiply and inverse on seeded nonzero pairs,
    median of five timed passes with the garbage collector off, taken
    outside any span."""
    gc.collect()
    gc.disable()
    try:
        return _kernel_timings(seed)
    finally:
        gc.enable()


def _kernel_timings(seed: int) -> dict:
    from ddcrit.gf import make_field

    rng = random.Random(f"ddcrit-perfbench:kernel:{seed}")
    out = {}
    for label, p, k in KERNEL_FIELDS:
        spec = make_field(p, k)
        pairs = []
        while len(pairs) < 64:
            a = spec.element([rng.randrange(p) for _ in range(k)])
            b = spec.element([rng.randrange(p) for _ in range(k)])
            if a and b:
                pairs.append((a, b))
        reps = 8 if k < 5 else 2
        ops = reps * len(pairs)
        mul, inverse = [], []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(reps):
                for a, b in pairs:
                    a * b
            t1 = time.perf_counter_ns()
            for _ in range(reps):
                for a, _b in pairs:
                    a.inverse()
            mul.append((t1 - t0) / ops)
            inverse.append((time.perf_counter_ns() - t1) / ops)
        out[f"gf.mul_ns.{label}"] = (statistics.median(mul), "ns")
        out[f"gf.inverse_ns.{label}"] = (statistics.median(inverse), "ns")
    return out
