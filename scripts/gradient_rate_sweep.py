"""Stability sweep for the gradient baseline's learning rate.

Runs the random_gradient strategy on the 12-joint fixture across a grid
of rates and reports, per rate, how many seeds crashed (divergence to
non-finite parameters) and the final orientation error of the survivors.
The packaged default (0.05) is the largest rate in this grid whose error
still decreases monotonically; 0.08 oscillates upward and 0.1+ overflows.

Usage: PYTHONPATH=src python3 scripts/gradient_rate_sweep.py [--iterations N] [--seeds N]
(or without PYTHONPATH after the editable install the README gives)
"""

import argparse
import logging
import warnings

import numpy as np

from kincal.cli import config_from_dict, iterations_to_threshold, run_experiment
from kincal.sim import builtin_chain

RATES = (0.01, 0.02, 0.05, 0.08, 0.1, 0.2, 0.5)


def sweep_one(rate: float, iterations: int, n_seeds: int) -> str:
    truth = builtin_chain("arm12").params.to_vector()
    box = np.stack([truth - 0.2, truth + 0.2], axis=1).tolist()
    cfg = config_from_dict({
        "chain": "arm12",
        "strategy": "random_gradient",
        "iterations": iterations,
        "seeds": list(range(n_seeds)),
        "noise": {"obs_variance": 1e-4, "stabilizing_variance": 1e-3},
        "probe_set_size": 20,
        "init_hypercube": box,
        "init_variance": 0.0133,
        "joint_limits": 3.14,
        "gradient": {"learning_rate": rate, "decay": 0.0},
    })
    failures = []
    records = run_experiment(cfg, failures=failures)
    hits = sorted(iterations_to_threshold(records, "orientation_error", 0.05).values())
    final = {}
    for rec in records:
        final[rec.seed] = rec.orientation_error
    finals = [round(v, 3) for _, v in sorted(final.items())]
    return (f"rate={rate:<5} crashed={len(failures)}/{n_seeds} "
            f"iterations_to_0.05={hits} final_orientation={finals}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=300)
    parser.add_argument("--seeds", type=int, default=2)
    args = parser.parse_args()

    # divergent rates overflow loudly on the way out; keep the report readable
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    logging.disable(logging.ERROR)

    for rate in RATES:
        print(sweep_one(rate, args.iterations, args.seeds), flush=True)


if __name__ == "__main__":
    main()
