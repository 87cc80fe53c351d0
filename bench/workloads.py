"""The benchmark's workloads: experiment configs generated from a seed.

Each workload is a gate preset from tests/test_acceptance.py
(`_comparison_config`): the same chain, strategy, noise, init box, prior,
joint limits, probe count and optimizer, at a benchmark-sized seed count
and horizon. All three are closed loops with a single caller: iteration
k+1 selects only after iteration k's update.

The workload seed shifts every experiment seed and the probe seed by
`SEED_STRIDE * seed`, so distinct workload seeds draw disjoint seed
lists. `DEFAULT_SEED` reproduces the gate presets' seeds (0, 1, ...) and
probe seed 0; the reference values in reference.json are taken there.
Only the generated config document reaches kincal.
"""

from __future__ import annotations

DEFAULT_SEED = 0
SEED_STRIDE = 1000

# The cone sees 58 % of uniform planar3 configurations. Note the key:
# FovConfig.from_dict requires `camera_position`; the README's `camera`
# example is rejected (a known defect, left unfixed here).
PLANAR3_CONE = {"camera_position": [0.35, 0.0, 1.0], "axis": [0.0, 0.0, -1.0],
                "half_angle": 0.5}

WORKLOADS = {
    # Selection-bound: lookahead (predict, jacobian, hypothetical Joseph
    # updates) dominates, DIRECT bookkeeping is a few per cent.
    "active_arm6": {
        "chain": "arm6", "strategy": "active_rls", "width": 0.2,
        "matched_prior": True, "seeds": 3, "iterations": 50, "fov": None,
    },
    # Never selects: time goes to per-iteration scoring (metrics,
    # predict_batch) and one real update on the largest chain.
    "passive_arm12": {
        "chain": "arm12", "strategy": "random_rls", "width": 0.2,
        "matched_prior": True, "seeds": 4, "iterations": 250, "fov": None,
    },
    # Smallest chain, so per-call overhead and DIRECT bookkeeping weigh
    # most; about half the lookahead candidates take the out-of-view
    # penalty. Shows the re-selection defect: a rejected configuration
    # leaves the state unchanged, so deterministic DIRECT picks it again.
    "active_planar3_fov": {
        "chain": "planar3", "strategy": "active_rls", "width": 0.3,
        "matched_prior": False, "seeds": 24, "iterations": 40, "fov": PLANAR3_CONE,
    },
}


def config_doc(name: str, seed: int, truth) -> dict:
    """The kincal experiment config for workload `name` at workload seed
    `seed`; `truth` is the fixture's true parameter vector (the init box
    is centered on it, as in the gate presets)."""
    spec = WORKLOADS[name]
    shift = SEED_STRIDE * seed
    width = spec["width"]
    doc = {
        "chain": spec["chain"],
        "strategy": spec["strategy"],
        "iterations": spec["iterations"],
        "seeds": [shift + i for i in range(spec["seeds"])],
        "noise": {"obs_variance": 1e-4, "stabilizing_variance": 1e-3},
        "probe_set_size": 20,
        "probe_seed": shift,
        "init_hypercube": [[float(t) - width, float(t) + width] for t in truth],
        "joint_limits": 3.14,
    }
    if spec["matched_prior"]:
        doc["init_variance"] = round(width * width / 3.0, 4)
    if spec["strategy"] == "active_rls":
        doc["optimizer"] = {"max_evaluations": 30, "variant": "direct_l"}
    if spec["fov"] is not None:
        doc["fov"] = spec["fov"]
    return doc
