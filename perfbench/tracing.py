"""Per-layer tracing from outside the program.

The tracer replaces public functions of the `sphmoduli` modules with timing
wrappers, in every module namespace that holds them (so `from x import f`
copies are caught too), and puts the originals back on `uninstall`.  Each
wrapper records a span; a layer's self time is its spans' time minus the
time of the wrapped calls nested inside them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import lie

# (module, function, layer).  Several functions may share one layer.
TARGETS = (
    ("rootsys", "build_root_system", "rootsys"),
    ("rootsys", "positive_roots", "rootsys"),
    ("sphroots", "spherical_root_catalog", "sphroots"),
    ("wmonoid", "build_context", "wmonoid"),
    ("adapted", "is_adapted_singleton", "adapted.singletons"),
    ("adapted", "is_n_adapted_singleton", "adapted.singletons"),
    ("adapted", "tangent_space", "adapted.tangent"),
    ("adapted", "enumerate_n_adapted_subsets", "adapted.subsets"),
    ("adapted", "is_n_adapted_subset", "adapted.subsets"),
    ("adapted", "is_adapted_subset", "adapted.subsets"),
    ("linalg", "rref", "linalg.rref"),
    ("chevalley", "build_chevalley", "chevalley"),
    ("irreps", "build_irrep", "irreps"),
    ("oracle", "build_model", "oracle.model"),
    ("oracle", "invariant_quotient_weights", "oracle.quotient"),
    ("oracle", "oracle_tangent_weights", "oracle.extension"),
    ("cli", "main", "cli"),
)


class Tracer:
    def __init__(self):
        self.self_time = defaultdict(float)      # layer -> seconds
        self.counts = defaultdict(int)            # counter name -> count
        self.errors = []                          # check failures seen inside calls
        self._stack = []                          # [child seconds] per open span
        self._saved = []                          # (module, name, original)
        self._groups = {}

    def reset(self):
        self.self_time.clear()
        self.counts.clear()

    def install(self):
        pkg = {name: mod for name, mod in sys.modules.items()
               if name == "sphmoduli" or name.startswith("sphmoduli.")}
        for modname, fname, layer in TARGETS:
            original = getattr(pkg[f"sphmoduli.{modname}"], fname)
            wrapper = self._wrap(original, fname, layer)
            for mod in pkg.values():
                if getattr(mod, fname, None) is original:
                    self._saved.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self):
        for mod, fname, original in reversed(self._saved):
            setattr(mod, fname, original)
        self._saved.clear()

    def _wrap(self, fn, fname, layer):
        stack = self._stack
        self_time = self.self_time
        clock = time.perf_counter
        after = getattr(self, f"_after_{fname}", None)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self_time[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            self.counts[f"{fname}.calls"] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counters taken from the arguments and results of single calls ------

    def _after_spherical_root_catalog(self, args, result):
        self.counts["catalog_roots"] += len(result)

    def _after_tangent_space(self, args, result):
        self.counts["tangent_weights"] += result.dimension

    def _after_is_n_adapted_subset(self, args, result):
        self.counts["subsets_accepted"] += bool(result.ok)

    def _after_rref(self, args, result):
        m = args[0]
        self.counts["rref_cells"] += len(m) * (len(m[0]) if m else 0)

    def _after_build_irrep(self, args, result):
        rs, lam = args[0], tuple(int(c) for c in args[1])
        self.counts["irrep_dim_total"] += result.dim
        name = "x".join(f"{t}{r}" for t, r in rs.components)
        group = self._groups.get(name)
        if group is None:
            group = self._groups[name] = lie.Group(name)
        expected = group.weyl_dimension(lam)
        if result.dim != expected:
            self.errors.append(
                f"module {name} {lam}: dimension {result.dim}, Weyl's formula gives {expected}")

    def _after_build_model(self, args, result):
        self.counts["ambient_dim"] += result.dim

    def _after_invariant_quotient_weights(self, args, result):
        self.counts["quotient_weights"] += len(result)

    # -- the per-layer metrics of one pass ----------------------------------

    def snapshot(self) -> dict:
        """Self times and counts accumulated since the last reset."""
        c = self.counts
        t = self.self_time
        examined = c["is_n_adapted_subset.calls"]
        return {
            "rootsys.build_s": t["rootsys"],
            "sphroots.catalog_s": t["sphroots"],
            "sphroots.catalog_roots": c["catalog_roots"],
            "wmonoid.context_s": t["wmonoid"],
            "adapted.singletons_s": t["adapted.singletons"],
            "adapted.singleton_verdicts": (c["is_adapted_singleton.calls"]
                                           + c["is_n_adapted_singleton.calls"]),
            "adapted.tangent_s": t["adapted.tangent"],
            "adapted.tangent_weights": c["tangent_weights"],
            "adapted.subsets_s": t["adapted.subsets"],
            "adapted.subsets_examined": examined,
            "adapted.subsets_accepted": c["subsets_accepted"],
            "adapted.subset_accept_ratio": c["subsets_accepted"] / examined if examined else 0.0,
            "adapted.adapted_subset_checks": c["is_adapted_subset.calls"],
            "linalg.rref_calls": c["rref.calls"],
            "linalg.rref_s": t["linalg.rref"],
            "linalg.rref_cells": c["rref_cells"],
            "chevalley.build_s": t["chevalley"],
            "chevalley.builds": c["build_chevalley.calls"],
            "irreps.build_s": t["irreps"],
            "irreps.modules": c["build_irrep.calls"],
            "irreps.dim_total": c["irrep_dim_total"],
            "oracle.model_s": t["oracle.model"],
            "oracle.ambient_dim": c["ambient_dim"],
            "oracle.quotient_s": t["oracle.quotient"],
            "oracle.quotient_weights": c["quotient_weights"],
            "oracle.extension_s": t["oracle.extension"],
            "cli.report_s": t["cli"],
        }
