"""Experiment runner: calibration strategies over seeded simulations.

Strategies:
    random_rls       random configurations, recursive least squares
    random_gradient  the same random configurations, gradient descent
    active_rls       configurations chosen by A-optimal lookahead, RLS

Per seed, three independent substreams are spawned (initialization,
configuration draws, measurement noise), so random_rls and
random_gradient visit the identical configuration sequence and the
comparison isolates the estimator.

Outputs are line-delimited JSON records plus a CSV projection. Record
files are byte-identical across re-runs of the same config and seeds;
wall-clock selection timings go to a separate .timing sidecar so they
never perturb the deterministic outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from .active import SelectionProblem, select_next
from .direct import DirectConfig
from .estimator import (DegenerateUpdateError, EstimatorState, GradientConfig,
                        NoiseConfig, apply_stabilizing_noise, gradient_update,
                        prediction_error, rls_update)
from .fov import FovConfig
from .kinematics import ChainObservationModel, load_chain, observe
from .sim import (DEFAULT_JOINT_LIMIT, FIXTURE_NAMES, GroundTruth, builtin_chain,
                  fixture_description, make_rng, measure, metrics, random_config)

logger = logging.getLogger(__name__)

STRATEGIES = ("random_rls", "random_gradient", "active_rls")

ORIENTATION_THRESHOLD = 0.05   # rad
LOCATION_THRESHOLD = 0.02      # m

_PROBE_ATTEMPT_FACTOR = 1000


class ConfigError(Exception):
    """Bad experiment configuration or unresolvable inputs."""


@dataclass
class ExperimentConfig:
    chain: str
    strategy: str
    iterations: int
    seeds: list
    noise: NoiseConfig
    optimizer: DirectConfig = None
    gradient: GradientConfig = None
    init_hypercube: object = (-1.0, 1.0)
    init_variance: float = 1.0
    probe_set_size: int = 100
    probe_seed: int = 0
    joint_limits: object = None
    fov: FovConfig = None
    output: str = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}")
        if self.iterations < 1:
            raise ConfigError("iterations must be a positive integer")
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty list of integers")
        self.seeds = [int(s) for s in self.seeds]
        if self.init_variance <= 0:
            raise ConfigError("init_variance must be positive")
        if self.probe_set_size < 1:
            raise ConfigError("probe_set_size must be a positive integer")
        if self.strategy == "active_rls" and self.optimizer is None:
            self.optimizer = DirectConfig(max_evaluations=60, variant="direct_l")
        if self.strategy == "random_gradient" and self.gradient is None:
            # largest rate that stays stable on the bundled 12-joint chain;
            # 0.08 oscillates and 0.1+ blows up (see scripts/gradient_rate_sweep.py)
            self.gradient = GradientConfig(learning_rate=0.05)


@dataclass
class ExperimentRecord:
    seed: int
    iteration: int
    orientation_error: float
    location_error: float
    prediction_error: float
    cost: float = None
    selection_seconds: float = None
    fov_rejections: int = 0


def _resolve_limits(spec, n: int) -> np.ndarray:
    if spec is None:
        return np.tile([-DEFAULT_JOINT_LIMIT, DEFAULT_JOINT_LIMIT], (n, 1))
    arr = np.asarray(spec, dtype=float)
    if arr.ndim == 0:
        if arr <= 0:
            raise ConfigError("scalar joint_limits must be a positive half-width")
        return np.tile([-float(arr), float(arr)], (n, 1))
    if arr.shape == (n, 2):
        return arr
    raise ConfigError(f"joint_limits must be a scalar half-width or an ({n}, 2) array")


def _resolve_init_box(spec, dim: int) -> np.ndarray:
    arr = np.asarray(spec, dtype=float)
    if arr.shape == (2,):
        arr = np.tile(arr, (dim, 1))
    if arr.shape != (dim, 2) or not (arr[:, 0] <= arr[:, 1]).all():
        raise ConfigError("init_hypercube must be [lo, hi] or per-parameter pairs with lo <= hi")
    return arr


def resolve_ground_truth(cfg: ExperimentConfig) -> GroundTruth:
    """Builtin fixture by name, or a chain document by path."""
    if cfg.chain in FIXTURE_NAMES:
        base = builtin_chain(cfg.chain)
        params = base.params
    else:
        if not os.path.exists(cfg.chain):
            raise ConfigError(f"chain {cfg.chain!r} is neither a fixture nor a file")
        try:
            params = load_chain(cfg.chain)
        except (ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"bad chain file {cfg.chain!r}: {exc}") from exc
    limits = _resolve_limits(cfg.joint_limits, params.n_joints)
    return GroundTruth(params, limits, fov=cfg.fov, obs_variance=cfg.noise.obs_variance)


def _probe_set(gt: GroundTruth, size: int, probe_seed: int):
    """Seeded random in-view configurations paired with true positions."""
    rng = make_rng(probe_seed)
    probes = []
    for _ in range(size * _PROBE_ATTEMPT_FACTOR):
        q = random_config(gt, rng)
        pos = observe(gt.params, q)
        if gt.fov is None or gt.fov.contains(pos):
            probes.append((q, pos))
            if len(probes) == size:
                return probes
    raise ConfigError("field of view rejects almost every probe configuration")


def _run_seed(cfg: ExperimentConfig, gt: GroundTruth, model, probes, box, seed: int):
    dim = 6 * gt.n_joints
    init_ss, config_ss, noise_ss = np.random.SeedSequence(seed).spawn(3)
    init_rng = np.random.Generator(np.random.PCG64(init_ss))
    config_rng = np.random.Generator(np.random.PCG64(config_ss))
    noise_rng = np.random.Generator(np.random.PCG64(noise_ss))

    mean = init_rng.uniform(box[:, 0], box[:, 1])
    state = None
    if cfg.strategy != "random_gradient":
        state = EstimatorState(mean, cfg.init_variance * np.eye(dim))

    records = []
    observations = []
    rejections = 0
    updates = 0
    for iteration in range(1, cfg.iterations + 1):
        cost = None
        seconds = None
        if cfg.strategy == "active_rls":
            problem = SelectionProblem(state, model, cfg.noise, gt.joint_limits,
                                       fov=gt.fov, optimizer=cfg.optimizer)
            chosen = select_next(problem)
            q, cost, seconds = chosen.config, chosen.cost, chosen.duration
        else:
            q = random_config(gt, config_rng)

        y = measure(gt, q, noise_rng)
        accepted = y is not None
        if not accepted:
            rejections += 1
        else:
            if cfg.strategy == "random_gradient":
                mean = gradient_update(mean, q, y, cfg.gradient, model, step=updates)
                updates += 1
            else:
                try:
                    state = rls_update(state, q, y, cfg.noise, model)
                    updates += 1
                    if (cfg.noise.stabilizing_variance > 0.0
                            and updates % cfg.noise.stabilizing_period == 0):
                        state = apply_stabilizing_noise(state, cfg.noise)
                except DegenerateUpdateError:
                    logger.warning("seed %d iteration %d: degenerate update skipped",
                                   seed, iteration)
                mean = state.mean

        orientation, location = metrics(mean, gt)
        predict_rms = prediction_error(mean, probes, model)
        records.append(ExperimentRecord(seed, iteration, orientation, location,
                                        predict_rms, cost, seconds, rejections))
        observations.append({"seed": seed, "iteration": iteration,
                             "q": [float(a) for a in q],
                             "y": None if y is None else [float(a) for a in y],
                             "accepted": accepted})
    return records, observations


def run_experiment(cfg: ExperimentConfig, failures: list = None,
                   observations: list = None) -> list:
    """All seeds sequentially; numerical failures become failure entries.

    Seeds are independent of one another (records depend only on
    (config, seed)), so they could equally run in parallel and be merged
    by (seed, iteration).
    """
    gt = resolve_ground_truth(cfg)
    model = ChainObservationModel.from_chain(gt.params)
    probes = _probe_set(gt, cfg.probe_set_size, cfg.probe_seed)
    box = _resolve_init_box(cfg.init_hypercube, 6 * gt.n_joints)
    records = []
    for seed in cfg.seeds:
        try:
            seed_records, seed_obs = _run_seed(cfg, gt, model, probes, box, seed)
        except (DegenerateUpdateError, FloatingPointError, np.linalg.LinAlgError) as exc:
            logger.error("seed %d failed: %s", seed, exc)
            if failures is not None:
                failures.append({"seed": seed, "error": str(exc)})
            continue
        records.extend(seed_records)
        if observations is not None:
            observations.extend(seed_obs)
    return records


def config_to_meta(cfg: ExperimentConfig) -> dict:
    """Deterministic echo of the resolved configuration."""
    meta = {
        "chain": cfg.chain,
        "strategy": cfg.strategy,
        "iterations": cfg.iterations,
        "seeds": list(cfg.seeds),
        "noise": dataclasses.asdict(cfg.noise),
        "init_hypercube": np.asarray(cfg.init_hypercube, dtype=float).tolist(),
        "init_variance": cfg.init_variance,
        "probe_set_size": cfg.probe_set_size,
        "probe_seed": cfg.probe_seed,
    }
    if cfg.optimizer is not None:
        meta["optimizer"] = {"max_evaluations": cfg.optimizer.max_evaluations,
                             "epsilon": cfg.optimizer.epsilon,
                             "variant": cfg.optimizer.variant}
    if cfg.gradient is not None:
        meta["gradient"] = dataclasses.asdict(cfg.gradient)
    if cfg.joint_limits is not None:
        meta["joint_limits"] = np.asarray(cfg.joint_limits, dtype=float).tolist()
    if cfg.fov is not None:
        meta["fov"] = cfg.fov.to_dict()
    return meta


_RECORD_FIELDS = ("seed", "iteration", "orientation_error", "location_error",
                  "prediction_error", "cost", "fov_rejections")


def record_to_dict(rec: ExperimentRecord) -> dict:
    return {name: getattr(rec, name) for name in _RECORD_FIELDS}


def write_records(records, meta: dict, path: str, failures=None) -> None:
    """JSONL with a leading meta line, then a CSV projection next to it.

    selection_seconds is wall clock and goes to <path>.timing instead,
    keeping the record files byte-identical across re-runs.
    """
    with open(path, "w") as fh:
        fh.write(json.dumps({"type": "meta", "config": meta}, sort_keys=True))
        fh.write("\n")
        for rec in records:
            doc = {"type": "record"}
            doc.update(record_to_dict(rec))
            fh.write(json.dumps(doc, sort_keys=True))
            fh.write("\n")
        for failure in failures or []:
            doc = {"type": "failure"}
            doc.update(failure)
            fh.write(json.dumps(doc, sort_keys=True))
            fh.write("\n")

    csv_path = os.path.splitext(path)[0] + ".csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_FIELDS)
        for rec in records:
            row = [getattr(rec, name) for name in _RECORD_FIELDS]
            writer.writerow(["" if v is None else v for v in row])

    timings = [(r.seed, r.iteration, r.selection_seconds)
               for r in records if r.selection_seconds is not None]
    if timings:
        with open(path + ".timing", "w") as fh:
            for seed, iteration, seconds in timings:
                fh.write(json.dumps({"seed": seed, "iteration": iteration,
                                     "selection_seconds": seconds}, sort_keys=True))
                fh.write("\n")


def read_records(path: str):
    """(meta, records, failures) from a JSONL record file."""
    meta = None
    records = []
    failures = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            doc = json.loads(line)
            kind = doc.pop("type", "record")
            if kind == "meta":
                meta = doc.get("config", doc)
            elif kind == "failure":
                failures.append(doc)
            else:
                records.append(ExperimentRecord(**doc))
    return meta, records, failures


def _quantile(values, frac: float) -> float:
    """Linear-interpolation quantile that tolerates +inf censoring."""
    ordered = sorted(values)
    pos = frac * (len(ordered) - 1)
    low = int(np.floor(pos))
    high = int(np.ceil(pos))
    if low == high:
        return float(ordered[low])
    a, b = ordered[low], ordered[high]
    if np.isinf(a) or np.isinf(b):
        return float(b)
    return float(a + (b - a) * (pos - low))


def _stats(values) -> dict:
    return {"median": _quantile(values, 0.5),
            "iqr": [_quantile(values, 0.25), _quantile(values, 0.75)]}


def iterations_to_threshold(records, field: str, threshold: float) -> dict:
    """Per seed, the first iteration whose error drops below threshold
    (inf when it never does)."""
    by_seed = {}
    for rec in records:
        by_seed.setdefault(rec.seed, []).append(rec)
    out = {}
    for seed, recs in by_seed.items():
        recs.sort(key=lambda r: r.iteration)
        hit = float("inf")
        for rec in recs:
            if getattr(rec, field) < threshold:
                hit = rec.iteration
                break
        out[seed] = hit
    return out


def summarize(records, orientation_threshold: float = ORIENTATION_THRESHOLD,
              location_threshold: float = LOCATION_THRESHOLD) -> dict:
    """Median/IQR of convergence iterations and final errors over seeds."""
    if not records:
        raise ValueError("summarize needs at least one record")
    to_orientation = iterations_to_threshold(records, "orientation_error",
                                             orientation_threshold)
    to_location = iterations_to_threshold(records, "location_error", location_threshold)

    by_seed = {}
    for rec in records:
        prev = by_seed.get(rec.seed)
        if prev is None or rec.iteration > prev.iteration:
            by_seed[rec.seed] = rec
    finals = list(by_seed.values())

    orient_iters = list(to_orientation.values())
    summary = {
        "seeds": len(by_seed),
        "orientation_threshold": orientation_threshold,
        "location_threshold": location_threshold,
        "iterations_to_orientation_threshold": _stats(orient_iters),
        "iterations_to_location_threshold": _stats(list(to_location.values())),
        "converged_orientation": sum(1 for v in orient_iters if np.isfinite(v)),
        "final_orientation_error": _stats([r.orientation_error for r in finals]),
        "final_location_error": _stats([r.location_error for r in finals]),
        "final_prediction_error": _stats([r.prediction_error for r in finals]),
    }
    return summary


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value


def _apply_override(doc: dict, key: str, value) -> None:
    parts = key.split(".")
    node = doc
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-object key {part!r}")
    node[parts[-1]] = value


def config_from_dict(doc: dict) -> ExperimentConfig:
    doc = dict(doc)
    try:
        noise = NoiseConfig(**doc.pop("noise", {}))
        optimizer = doc.pop("optimizer", None)
        if optimizer is not None:
            optimizer = DirectConfig(**optimizer)
        gradient = doc.pop("gradient", None)
        if gradient is not None:
            gradient = GradientConfig(**gradient)
        fov = doc.pop("fov", None)
        if fov is not None:
            fov = FovConfig.from_dict(fov)
        return ExperimentConfig(noise=noise, optimizer=optimizer, gradient=gradient,
                                fov=fov, **doc)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"bad experiment config: {exc}") from exc


def load_config(path: str, overrides=()) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    for text in overrides:
        key, value = _parse_override(text)
        _apply_override(doc, key, value)
    return config_from_dict(doc)


def _cmd_run(args) -> int:
    overrides = list(args.override or [])
    cfg = load_config(args.config, overrides)
    if args.strategy:
        cfg = dataclasses.replace(cfg, strategy=args.strategy)
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"bad --seeds value {args.seeds!r}") from exc
        cfg = dataclasses.replace(cfg, seeds=seeds)
    if args.iterations:
        cfg = dataclasses.replace(cfg, iterations=args.iterations)
    out = args.out or cfg.output
    if not out:
        raise ConfigError("no output path: pass --out or set 'output' in the config")

    failures = []
    observations = [] if args.observations else None
    records = run_experiment(cfg, failures=failures, observations=observations)
    write_records(records, config_to_meta(cfg), out, failures=failures)
    if args.observations:
        with open(args.observations, "w") as fh:
            for doc in observations:
                fh.write(json.dumps(doc, sort_keys=True))
                fh.write("\n")
    print(f"wrote {len(records)} records to {out}"
          + (f" ({len(failures)} failed seeds)" if failures else ""))
    return 1 if failures else 0


def _format_stats(label: str, stats: dict) -> str:
    return (f"  {label}: median {stats['median']:.6g}  "
            f"iqr [{stats['iqr'][0]:.6g}, {stats['iqr'][1]:.6g}]")


def _cmd_summarize(args) -> int:
    outputs = {}
    for path in args.inputs:
        meta, records, failures = read_records(path)
        if not records:
            raise ConfigError(f"{path!r} holds no records")
        label = (meta or {}).get("strategy", path)
        summary = summarize(records,
                            orientation_threshold=args.orientation_threshold,
                            location_threshold=args.location_threshold)
        summary["failures"] = len(failures)
        outputs[label] = summary
        print(f"{label} ({path})")
        print(f"  seeds: {summary['seeds']}   "
              f"converged: {summary['converged_orientation']}   "
              f"failures: {summary['failures']}")
        print(_format_stats("iterations to orientation threshold",
                            summary["iterations_to_orientation_threshold"]))
        print(_format_stats("iterations to location threshold",
                            summary["iterations_to_location_threshold"]))
        print(_format_stats("final orientation error", summary["final_orientation_error"]))
        print(_format_stats("final location error", summary["final_location_error"]))
        print(_format_stats("final prediction error", summary["final_prediction_error"]))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(outputs, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _cmd_fixtures(_args) -> int:
    for name in FIXTURE_NAMES:
        gt = builtin_chain(name)
        print(f"{name}: {gt.n_joints} joints, {fixture_description(name)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kincal",
                                     description="calibration experiments on simulated chains")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment from a JSON config")
    run_p.add_argument("--config", required=True, help="path to the experiment config")
    run_p.add_argument("--strategy", choices=STRATEGIES, help="override the strategy")
    run_p.add_argument("--seeds", help="comma-separated seed list override")
    run_p.add_argument("--iterations", type=int, help="override the iteration count")
    run_p.add_argument("--out", help="record file path (JSONL; CSV written next to it)")
    run_p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override, value parsed as JSON")
    run_p.add_argument("--observations", help="also write (q, y, accepted) JSONL here")
    run_p.set_defaults(func=_cmd_run)

    sum_p = sub.add_parser("summarize", help="summarize record files")
    sum_p.add_argument("--in", dest="inputs", action="append", required=True,
                       help="record file (repeatable)")
    sum_p.add_argument("--orientation-threshold", type=float,
                       default=ORIENTATION_THRESHOLD)
    sum_p.add_argument("--location-threshold", type=float, default=LOCATION_THRESHOLD)
    sum_p.add_argument("--json", help="also dump the summaries as JSON here")
    sum_p.set_defaults(func=_cmd_summarize)

    fix_p = sub.add_parser("fixtures", help="list builtin ground-truth chains")
    fix_p.set_defaults(func=_cmd_fixtures)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("KINCAL_LOG", "WARNING").upper())
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
