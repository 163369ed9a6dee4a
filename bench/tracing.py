"""Spans around the program's public functions, from outside the program.

The tracer replaces each traced function in every hkannuli module
namespace that binds it, because callers look names up there:
``classify.cho_koda_criterion`` is bound by ``from .freegroup import ...``
and ``boundary.concat`` likewise, while ``cli`` reaches ``tangle.cf_eval``
through the module attribute.  Spans (name, start, end, parent, op id)
are kept in flat arrays in memory and written out when the run ends; a
span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from hkannuli import arcs, boundary, freegroup

MODULES = ("hkannuli", "hkannuli.freegroup", "hkannuli.arcs", "hkannuli.boundary",
           "hkannuli.classify", "hkannuli.tangle", "hkannuli.jsjgraph", "hkannuli.cli")

TRACED = {
    "freegroup": ("is_primitive", "is_power_of_primitive", "are_conjugate", "root",
                  "whitehead_minimize", "cho_koda_criterion", "cyclic_reduce", "reduce",
                  "apply_endomorphism"),
    "arcs": ("reference_crossings", "alternating", "interpolating"),
    "boundary": ("boundary_word", "normalize_negative_beta"),
    "classify": ("typeK_census", "classify_typeK_annulus", "non_type41_window"),
    "tangle": ("cf_eval",),
    "jsjgraph": ("parse_graph", "validate"),
    "cli": ("run",),
}
# Decision procedures whose Word arguments are summed into input_letters
# and input_blocks when called from outside freegroup.
KERNEL = {"is_primitive", "is_power_of_primitive", "are_conjugate", "root",
          "whitehead_minimize", "cho_koda_criterion"}
SCALED = ("is_primitive", "are_conjugate", "root")
CACHES = {"arcs.crossing_cache": arcs._crossing_events,
          "boundary.alternating_cache": boundary._alternating_pair}


def clear_caches() -> None:
    for cache in CACHES.values():
        cache.cache_clear()


def layer_metric_names() -> list:
    """Every per-layer metric a traced run reports, with unit and direction."""
    names = []
    for layer, functions in TRACED.items():
        for fn in functions:
            names.append((f"{layer}.{fn}.calls", "count", "lower"))
            if fn != "apply_endomorphism":
                names.append((f"{layer}.{fn}.self_ms", "ms", "lower"))
    names += [("freegroup.Word.calls", "count", "lower"),
              ("freegroup.input_letters", "count", "lower"),
              ("freegroup.input_blocks", "count", "lower")]
    names += [(f"freegroup.{fn}.scaling_10x", "ratio", "lower") for fn in SCALED]
    names += [(f"{cache}.hit_ratio", "ratio", "higher") for cache in CACHES]
    names += [("classify.fallback_ratio", "ratio", "lower"),
              ("classify.certified_ratio", "ratio", "higher"),
              ("trace.overhead_ratio", "ratio", "lower"),
              ("trace.spans", "count", "lower"),
              ("trace.ops", "count", "higher"),
              ("run.failed_ratio", "ratio", "lower")]
    return names


class Tracer:
    def __init__(self):
        self.names: list = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.stack: list = []
        self.op_id = -1
        self.counts = Counter()
        self._patches: list = []

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        for layer, functions in TRACED.items():
            module = sys.modules[f"hkannuli.{layer}"]
            for fn in functions:
                original = getattr(module, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original, fn in KERNEL)
                for mod_name in MODULES:
                    namespace = sys.modules[mod_name]
                    for attr, value in list(vars(namespace).items()):
                        if value is original:
                            self._patches.append((namespace, attr, original))
                            setattr(namespace, attr, wrapper)
        post_init = freegroup.Word.__post_init__
        counts = self.counts

        def counted(word):
            counts["freegroup.Word"] += 1
            post_init(word)

        self._patches.append((freegroup.Word, "__post_init__", post_init))
        freegroup.Word.__post_init__ = counted
        self._cache_before = {k: c.cache_info() for k, c in CACHES.items()}

    def remove(self) -> None:
        self._cache_after = {k: c.cache_info() for k, c in CACHES.items()}
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _wrap(self, qualname: str, fn, kernel: bool):
        nid = len(self.names)
        self.names.append(qualname)
        stack, start, end, parent, name, op = (self.stack, self.start, self.end,
                                               self.parent, self.name, self.op)
        clock = time.perf_counter_ns
        word_type = freegroup.Word
        names = self.names
        counts = self.counts
        certified = qualname == "classify.classify_typeK_annulus"

        def wrapper(*args, **kwargs):
            up = stack[-1] if stack else -1
            if kernel and (up < 0 or not names[name[up]].startswith("freegroup.")):
                for arg in args:
                    if isinstance(arg, word_type):
                        counts["letters"] += arg.length()
                        counts["blocks"] += len(arg.blocks)
            idx = len(start)
            start.append(0)
            end.append(0)
            parent.append(up)
            name.append(nid)
            op.append(self.op_id)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if certified and result.certified:
                counts["certified"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ----------------------------------------------------------------

    def metrics(self, op_scale: list) -> dict:
        """Per-layer metrics; ``op_scale[i]`` is the exponent scale of op i
        (0 when the workload has no scales)."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        calls = Counter()
        self_ns = Counter()
        names = self.names
        parent = self.parent
        nid_of = {q: i for i, q in enumerate(names)}
        fallback = 0
        scaled = {}
        top = {nid_of[f"freegroup.{fn}"]: fn for fn in SCALED}
        census_call = nid_of["classify.classify_typeK_annulus"]
        root_id = nid_of["freegroup.root"]
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += duration[i]
        for i in range(n):
            nid = self.name[i]
            calls[nid] += 1
            self_ns[nid] += duration[i] - covered[i]
            p = parent[i]
            if nid == root_id and p >= 0 and self.name[p] == census_call:
                fallback += 1
            if p < 0 and nid in top:
                scale = op_scale[self.op[i]]
                if scale:
                    total, count = scaled.get((nid, scale), (0, 0))
                    scaled[(nid, scale)] = (total + duration[i], count + 1)

        out = {}
        for nid, qualname in enumerate(names):
            out[f"{qualname}.calls"] = calls[nid]
            if not qualname.endswith("apply_endomorphism"):
                out[f"{qualname}.self_ms"] = self_ns[nid] / 1e6
        out["freegroup.Word.calls"] = self.counts["freegroup.Word"]
        out["freegroup.input_letters"] = self.counts["letters"]
        out["freegroup.input_blocks"] = self.counts["blocks"]
        for nid, fn in top.items():
            ratio = 0.0
            if (nid, 1) in scaled and (nid, 10) in scaled:
                t1, c1 = scaled[(nid, 1)]
                t10, c10 = scaled[(nid, 10)]
                ratio = (t10 / c10) / (t1 / c1)
            out[f"freegroup.{fn}.scaling_10x"] = ratio
        for key in CACHES:
            hits = self._cache_after[key].hits - self._cache_before[key].hits
            misses = self._cache_after[key].misses - self._cache_before[key].misses
            out[f"{key}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        census_calls = calls[census_call]
        out["classify.fallback_ratio"] = fallback / census_calls if census_calls else 0.0
        out["classify.certified_ratio"] = (self.counts["certified"] / census_calls
                                           if census_calls else 0.0)
        out["trace.spans"] = n
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated name, start_ns, end_ns, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.start)):
                handle.write(f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}"
                             f"\t{self.parent[i]}\t{self.op[i]}\n")
