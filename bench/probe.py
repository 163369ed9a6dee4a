"""Single-call probes: the baselines listed in ROADMAP.md, re-measured.

These calls are too slow or too few for the timed workloads, so they run
once per traced run, untraced, and are reported beside the per-layer
metrics.  ``u^N v`` is the orientation whose Whitehead descent is linear in
N; ``u v^N`` tries the maps that expand ``v^N`` first and is quadratic,
which is why the timed words-long workload puts its large exponents on u.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path

UNITS = {
    "probe.classify_typeK_annulus_us": "us",
    "probe.whitehead_fallback_ms": "ms",
    "probe.is_primitive_uNv_1e3_ms": "ms",
    "probe.is_primitive_uNv_1e4_ms": "ms",
    "probe.is_primitive_uNv_1e5_ms": "ms",
    "probe.is_primitive_uvN_1e2_ms": "ms",
    "probe.is_primitive_uvN_1e3_ms": "ms",
    "probe.are_conjugate_1e3_ms": "ms",
    "probe.are_conjugate_1e4_ms": "ms",
    "probe.are_conjugate_1e5_ms": "ms",
    "probe.arcs_crossings_rho1e5_s": "s",
    "probe.cli_startup_s": "s",
}


def _seconds(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def measure(workloads, src: Path) -> dict:
    from hkannuli import boundary, classify, freegroup
    from hkannuli.freegroup import Word

    out = {}
    five_two = boundary.validate_params(**workloads.FIVE_TWO)
    families = [boundary.validate_params(**workloads.sample_family(random.Random(b), b))
                for b in workloads.CENSUS_BETAS]
    span = workloads.CENSUS_SPAN
    per_call = []
    for params in families + [five_two]:
        classify.classify_typeK_annulus(params, 0)  # fill the caches
        t0 = time.perf_counter()
        for n in range(-span, span + 1):
            classify.classify_typeK_annulus(params, n)
        per_call.append((time.perf_counter() - t0) / (2 * span + 1))
    out["probe.classify_typeK_annulus_us"] = statistics.median(per_call) * 1e6
    fallback = [_seconds(classify.classify_typeK_annulus, five_two, n)
                for _ in range(25) for n in (-2, -1, 0, 1)]
    out["probe.whitehead_fallback_ms"] = statistics.median(fallback) * 1e3

    for exp in (3, 4, 5):
        n = 10 ** exp
        w = Word((("u", n), ("v", 1)))
        out[f"probe.is_primitive_uNv_1e{exp}_ms"] = _seconds(freegroup.is_primitive, w) * 1e3
        rotated = Word((("v", 1), ("u", n)))
        out[f"probe.are_conjugate_1e{exp}_ms"] = _seconds(freegroup.are_conjugate, w,
                                                          rotated) * 1e3
    for exp in (2, 3):
        w = Word((("u", 1), ("v", 10 ** exp)))
        out[f"probe.is_primitive_uvN_1e{exp}_ms"] = _seconds(freegroup.is_primitive, w) * 1e3

    env = workloads.child_env(src)
    argv = ("arcs", "crossings", "--rho", "100001", "--beta", "2", "--json")
    out["probe.arcs_crossings_rho1e5_s"] = statistics.median(
        _seconds(workloads.run_child, argv, env) for _ in range(3))
    out["probe.cli_startup_s"] = statistics.median(
        _seconds(workloads.run_child, ("classify", "type-m", "--p", "2"), env)
        for _ in range(5))
    return out
