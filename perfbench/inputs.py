"""Benchmark inputs, generated from the benchmark seed alone.

Standard library only: the parent process (``run.py``) builds the inputs
and hands them to fresh worker interpreters, so the program under test
receives only the generated inputs, never the seed.

The benchmark seed is reduced modulo ``REFERENCE_SEEDS``: the reference
values that ``result_drift`` is measured against were recorded for input
seeds ``0 .. REFERENCE_SEEDS - 1`` (see ``record_reference.py``).
"""

from __future__ import annotations

import random

WORKLOADS = ("acceptance", "kernel_scan", "glued_norms")
SCALES = ("full", "tiny")
REFERENCE_SEEDS = 32
EMIT_FORMATS = ("csv", "json", "plotdata")

# configs/acceptance_suite.json as of the commit the reference was recorded
# at; kept here so that the workload stays fixed when the user-facing suite
# changes (a change of the suite is a benchmark change of its own).
ACCEPTANCE_SUITE = (
    {"experiment": "norm_identities", "n_per_region": 400},
    {"experiment": "embedding_uniformity", "n_per_region": 2000, "family_size": 32},
    {"experiment": "invertibility_uniformity", "n_per_region": 2000, "e_max": 12.0},
    {"experiment": "compact_invertibility", "model": "spindle", "n_per_region": 800,
     "e_max": 12.0},
    {"experiment": "poincare_uniformity", "n_per_region": 800, "e_max": 12.0},
    {"experiment": "gns_uniformity", "n_per_region": 800, "family_size": 32},
    {"experiment": "neck_convergence", "t_list": [0.1, 0.01, 0.001, 0.0001]},
    {"experiment": "eta_bounds", "tau": 0.95, "a": 0.9, "b": 0.05,
     "t_list": [1e-08, 1e-10, 1e-12, 1e-14]},
    {"experiment": "weight_crossing", "model": "hyperboloid_capped", "n_per_region": 800},
    {"experiment": "region_atlas", "kind": "AC", "grid_step": 0.25},
)

# A seconds-long stand-in with the same experiment mix, for the benchmark's
# own tests.
ACCEPTANCE_TINY = (
    {"experiment": "norm_identities", "n_per_region": 250},
    {"experiment": "embedding_uniformity", "t_list": [0.1, 0.01], "n_per_region": 250,
     "family_size": 8},
    {"experiment": "invertibility_uniformity", "t_list": [0.1, 0.01], "n_per_region": 250,
     "e_max": 6.0},
    {"experiment": "neck_convergence", "t_list": [0.1, 0.01]},
    {"experiment": "eta_bounds", "tau": 0.95, "a": 0.9, "b": 0.05,
     "t_list": [1e-08, 1e-10, 1e-12, 1e-14]},
    {"experiment": "region_atlas", "kind": "AC", "grid_step": 0.5},
)

# The exceptional rates of the capped hyperboloid's AC end are -1, 0, 1, 2,
# 3, 4 (cone harmonics of the unit 2-sphere, m = 3); one weight is drawn
# strictly inside each gap between them.
KERNEL_GAPS = (-1, 0, 1, 2, 3)


def input_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def make_inputs(workload: str, seed: int, scale: str = "full") -> dict:
    """The JSON-serialisable inputs of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
    s = input_seed(seed)
    tiny = scale == "tiny"
    spec = {"workload": workload, "scale": scale, "input_seed": s}
    if workload == "acceptance":
        suite = ACCEPTANCE_TINY if tiny else ACCEPTANCE_SUITE
        spec["experiments"] = [dict(entry, seed=s) for entry in suite]
        spec["formats"] = list(EMIT_FORMATS)
    elif workload == "kernel_scan":
        rng = random.Random(s)
        spec["model"] = "hyperboloid_capped"
        spec["e_max"] = 12.0
        spec["meshes"] = [400] if tiny else [2000, 4000]
        spec["weights"] = [round(k + 0.5 + rng.uniform(-0.3, 0.3), 6) for k in KERNEL_GAPS]
    else:
        t_list = [10.0 ** -k for k in range(1, 3 if tiny else 9)]
        n = 250 if tiny else 2000
        family = 8 if tiny else 32
        spec["experiments"] = [
            {"experiment": name, "model": model, "t_list": t_list, "n_per_region": n,
             "family_size": family, "seed": s}
            for model in ("dumbbell", "spindle")
            for name in ("embedding_uniformity", "gns_uniformity")
        ] + [{"experiment": "norm_identities", "n_per_region": n, "seed": s}]
    return spec
