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
import copy
import csv
import dataclasses
import itertools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .active import SelectionProblem, select_next
from .direct import VARIANTS, DirectConfig
from .estimator import (DegenerateUpdateError, EstimatorState, GradientConfig,
                        NoiseConfig, apply_stabilizing_noise, gradient_update,
                        prediction_error, rls_update)
from .fov import FovConfig
from .kinematics import ChainObservationModel, _numbers, is_number, load_chain
from .sim import (DEFAULT_JOINT_LIMIT, FIXTURE_NAMES, GroundTruth, builtin_chain,
                  fixture_description, make_rng, measure, metrics, random_config)

logger = logging.getLogger(__name__)

STRATEGIES = ("random_rls", "random_gradient", "active_rls")

ORIENTATION_THRESHOLD = 0.05   # rad
LOCATION_THRESHOLD = 0.02      # m

_PROBE_ATTEMPT_FACTOR = 1000
_STABILIZING_PERIOD = 10       # accepted RLS updates between stabilizing inflations
# Iterations scored per metrics and prediction_error call: their cost is
# per call, not per mean, and a block of 10 keeps the stacked arrays small.
_SCORE_BLOCK = 10
# The active_rls optimizer, filled in as _STRATEGY_SECTIONS says.
_ACTIVE_OPTIMIZER = {"max_evaluations": 60, "variant": "direct_l"}


class ConfigError(Exception):
    """Bad experiment configuration or unresolvable inputs."""


@dataclass
class ExperimentRecord:
    """One (seed, iteration) of a run. The _WALL_CLOCK_FIELDS go to the
    .timing sidecar; every other field is deterministic and goes to the
    record and CSV files."""

    seed: int
    iteration: int
    orientation_error: float
    location_error: float
    prediction_error: float
    cost: float = None
    selection_seconds: float = None
    fov_rejections: int = 0


_WALL_CLOCK_FIELDS = ("selection_seconds",)
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(ExperimentRecord)
                       if f.name not in _WALL_CLOCK_FIELDS)
_TIMING_FIELDS = ("seed", "iteration") + _WALL_CLOCK_FIELDS


def _resolve_box(spec, rows: int, key: str) -> np.ndarray:
    """The (rows, 2) box of a checked half-width, [lo, hi] pair or rows."""
    arr = np.asarray(spec, dtype=float)
    if arr.ndim == 0:
        arr = np.array([-arr, arr])
    if arr.ndim == 1:
        arr = np.tile(arr, (rows, 1))
    if arr.shape != (rows, 2):
        raise ConfigError(f"{key} must have {rows} [lo, hi] rows, got shape {arr.shape}")
    return arr


def resolve_ground_truth(cfg: ExperimentConfig) -> GroundTruth:
    """Builtin fixture by name, or a chain document by path."""
    try:
        params = (builtin_chain(cfg.chain).params if cfg.chain in FIXTURE_NAMES
                  else load_chain(cfg.chain))
        limits = _resolve_box(DEFAULT_JOINT_LIMIT if cfg.joint_limits is None
                              else cfg.joint_limits, params.n_joints, "joint_limits")
        if cfg.strategy == "active_rls" and not (limits[:, 0] < limits[:, 1]).all():
            raise ConfigError("active_rls needs joint_limits with low < high on every joint")
        return GroundTruth(params, limits, fov=cfg.fov, obs_variance=cfg.noise.obs_variance)
    except (OSError, ValueError) as exc:  # bad JSON, or an axis that is not unit norm
        raise ConfigError(f"chain {cfg.chain!r} is not a fixture or a valid chain: {exc}") from exc


def _probe_set(gt: GroundTruth, size: int, probe_seed: int):
    """(configs (size, n), true positions (size, 3)) of the first size in-view
    draws of the probe stream, size a round (leftover draws feed nothing)."""
    rng = make_rng(probe_seed)
    kept = np.empty((0, gt.n_joints))
    for _ in range(_PROBE_ATTEMPT_FACTOR):
        configs = np.array([random_config(gt, rng) for _ in range(size)])
        if gt.fov is not None:
            configs = configs[gt.fov.contains_points(gt.positions(configs))]
        kept = np.concatenate([kept, configs])
        if len(kept) >= size:
            return kept[:size], gt.positions(kept[:size])
    raise ConfigError(f"field of view rejects almost every probe configuration: {len(kept)} "
                      f"of {size * _PROBE_ATTEMPT_FACTOR} draws in view, {size} needed")


def _run_seed(cfg: ExperimentConfig, gt: GroundTruth, model, probes, box, seed: int):
    """One seed's (steps, errors): per iteration, (q, y or None, (cost,
    selection seconds), both None without a selection) and (orientation,
    location, prediction). An active update takes the innovation row of
    its selection; steps keep none of it.

    Scoring feeds nothing back, so the errors come in blocks of
    _SCORE_BLOCK iterations, one metrics and prediction_error call each;
    it stays in the loop, where a run's iterations are timed."""
    dim = 6 * gt.n_joints
    init_rng, config_rng, noise_rng = (make_rng(ss)
                                       for ss in np.random.SeedSequence(seed).spawn(3))

    mean = init_rng.uniform(box[:, 0], box[:, 1])
    state = None
    if cfg.strategy != "random_gradient":
        state = EstimatorState(mean, cfg.init_variance * np.eye(dim))

    steps = []
    errors = []
    block_means = []
    updates = 0
    for iteration in range(1, cfg.iterations + 1):
        innovation, selection = None, (None, None)
        if cfg.strategy == "active_rls":
            problem = SelectionProblem(state, model, cfg.noise, gt.joint_limits,
                                       fov=gt.fov, optimizer=cfg.optimizer)
            chosen = select_next(problem)
            q, innovation = chosen.config, chosen.innovation
            selection = chosen.cost, chosen.duration
        else:
            q = random_config(gt, config_rng)

        y = measure(gt, q, noise_rng)
        if y is not None:
            if cfg.strategy == "random_gradient":
                mean = gradient_update(mean, q, y, cfg.gradient, model, step=updates)
                updates += 1
            else:
                try:
                    state = rls_update(state, q, y, cfg.noise, model, innovation)
                    updates += 1
                    if (cfg.noise.stabilizing_variance > 0.0
                            and updates % _STABILIZING_PERIOD == 0):
                        state = apply_stabilizing_noise(state, cfg.noise)
                except DegenerateUpdateError:
                    logger.warning("seed %d iteration %d: degenerate update skipped",
                                   seed, iteration)
                mean = state.mean

        steps.append((q, y, selection))
        block_means.append(mean)
        if len(block_means) == _SCORE_BLOCK or iteration == cfg.iterations:
            means = np.stack(block_means)
            orientation, location = metrics(means, gt)
            errors += zip(orientation.tolist(), location.tolist(),
                          prediction_error(means, *probes, model).tolist())
            block_means = []
    return steps, errors


def run_experiment(cfg: ExperimentConfig, failures: list = None,
                   observations: list = None) -> list:
    """All seeds sequentially. A degenerate gradient update fails its
    seed as a failure entry; a degenerate recursive least-squares update
    is logged and skipped, and its seed runs on. observations, if a
    list, gets (q, y, accepted) dicts.

    Seeds are independent of one another (records depend only on
    (config, seed)), so they could equally run in parallel and be merged
    by (seed, iteration).
    """
    gt = resolve_ground_truth(cfg)
    model = ChainObservationModel.from_chain(gt.params)
    probes = _probe_set(gt, cfg.probe_set_size, cfg.probe_seed)
    box = _resolve_box(cfg.init_hypercube, 6 * gt.n_joints, "init_hypercube")
    records = []
    for seed in cfg.seeds:
        try:
            steps, errors = _run_seed(cfg, gt, model, probes, box, seed)
        except DegenerateUpdateError as exc:
            logger.error("seed %d failed: %s", seed, exc)
            if failures is not None:
                failures.append({"seed": seed, "error": str(exc)})
            continue
        rejections = itertools.accumulate(int(y is None) for _, y, _ in steps)
        for iteration, ((q, y, selection), error, rejected) in enumerate(
                zip(steps, errors, rejections), 1):
            records.append(ExperimentRecord(seed, iteration, *error, *selection, rejected))
            if observations is not None:
                observations.append({"seed": seed, "iteration": iteration,
                                     "q": [float(a) for a in q],
                                     "y": None if y is None else [float(a) for a in y],
                                     "accepted": y is not None})
    return records


def config_to_meta(cfg: ExperimentConfig) -> dict:
    """Deterministic echo of the configuration: the checked document with
    its defaults filled, every number as written."""
    return cfg.meta


def _write_jsonl(path: str, docs) -> None:
    """One sorted-key JSON document per line, streamed from an iterable."""
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True))
            fh.write("\n")


def _pick(rec: ExperimentRecord, names) -> dict:
    return {name: getattr(rec, name) for name in names}


def _record_paths(path: str) -> tuple:
    """The files write_records writes for record file path: the records,
    their CSV projection and the .timing sidecar."""
    return path, os.path.splitext(path)[0] + ".csv", path + ".timing"


def write_records(records, meta: dict, path: str, failures=None) -> None:
    """JSONL with a leading meta line, then a CSV projection next to it.

    The wall-clock fields go to <path>.timing instead, written even when
    empty, keeping the record files byte-identical across re-runs.
    """
    _, csv_path, timing_path = _record_paths(path)
    _write_jsonl(path, itertools.chain(
        [{"type": "meta", "config": meta}],
        ({"type": "record", **_pick(rec, _RECORD_FIELDS)} for rec in records),
        ({"type": "failure", **failure} for failure in failures or [])))

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_FIELDS)
        for rec in records:
            writer.writerow(["" if v is None else v for v in _pick(rec, _RECORD_FIELDS).values()])

    _write_jsonl(timing_path, (_pick(rec, _TIMING_FIELDS) for rec in records
                               if rec.selection_seconds is not None))


def read_records(path: str):
    """(meta, records, failures) from a JSONL record file as write_records
    writes it: one meta line holding a config document that a run could
    write, valid and with its defaults filled, then record and
    failure lines holding exactly the fields of their _LINES table, no
    (seed, iteration) twice, else a ConfigError naming path:line. Each meta
    seed, and no other, has one failure line or the records of iterations
    1..iterations, else a ConfigError naming path and seed."""
    meta = None
    records, failures = {}, []
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read record file {path!r}: {exc}") from exc
    with fh:
        for number, line in enumerate(fh, 1):
            try:
                doc = json.loads(line)
                kind = doc.pop("type", None)
                if number == 1 and kind == "meta":
                    meta = doc.get("config")
                    if config_from_dict(meta).meta != meta:
                        raise ValueError("the config is not one a run writes: a default "
                                         "is not filled in")
                elif number > 1 and kind in _LINES and doc.keys() == _LINES[kind].keys():
                    _check(doc, _LINES[kind])
                    key = doc["seed"], doc.get("iteration")
                    if kind == "failure":
                        failures.append(doc)
                    elif key in records:
                        raise ValueError(f"seed {key[0]} iteration {key[1]} is recorded twice")
                    else:
                        records[key] = ExperimentRecord(**doc)
                else:
                    raise ValueError(f"a {kind!r} line with keys {sorted(doc)} where the file "
                                     "needs one leading meta line with a config object, then "
                                     "records and failures with exactly their fields")
            except (ConfigError, ValueError, TypeError, AttributeError) as exc:
                raise ConfigError(f"{path}:{number}: not a record file line: {exc}") from exc
    if meta is None:
        raise ConfigError(f"{path}:1: not a record file line: the file is empty")
    lines = {seed: [] for seed in meta["seeds"]}  # seed -> its iterations, 0 for a failure
    for seed, iteration in itertools.chain(records, ((f["seed"], 0) for f in failures)):
        if seed not in lines:
            raise ConfigError(f"{path}: seed {seed} is not a seed of the meta line")
        lines[seed].append(iteration)
    for seed, iterations in lines.items():
        if iterations != [0] and sorted(iterations) != list(range(1, meta["iterations"] + 1)):
            raise ConfigError(f"{path}: seed {seed} has neither one failure line nor the "
                              f"records of iterations 1..{meta['iterations']}")
    return meta, list(records.values()), failures


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


def _by_seed(records) -> dict:
    """seed -> its records in iteration order; seeds in first-appearance order."""
    by_seed = {}
    for rec in records:
        by_seed.setdefault(rec.seed, []).append(rec)
    for recs in by_seed.values():
        recs.sort(key=lambda r: r.iteration)
    return by_seed


def iterations_to_threshold(records, field: str, threshold: float) -> dict:
    """Per seed, the first iteration whose error drops below threshold
    (inf when it never does)."""
    return {seed: next((rec.iteration for rec in recs if getattr(rec, field) < threshold),
                       float("inf"))
            for seed, recs in _by_seed(records).items()}


def summarize(records) -> dict:
    """Median/IQR of convergence iterations and final errors over seeds."""
    if not records:
        raise ValueError("summarize needs at least one record")
    to_orientation = iterations_to_threshold(records, "orientation_error",
                                             ORIENTATION_THRESHOLD)
    to_location = iterations_to_threshold(records, "location_error", LOCATION_THRESHOLD)
    finals = [recs[-1] for recs in _by_seed(records).values()]

    orient_iters = list(to_orientation.values())
    summary = {
        "seeds": len(finals),
        "orientation_threshold": ORIENTATION_THRESHOLD,
        "location_threshold": LOCATION_THRESHOLD,
        "iterations_to_orientation_threshold": _stats(orient_iters),
        "iterations_to_location_threshold": _stats(list(to_location.values())),
        "converged_orientation": sum(1 for v in orient_iters if np.isfinite(v)),
        "final_orientation_error": _stats([r.orientation_error for r in finals]),
        "final_location_error": _stats([r.location_error for r in finals]),
        "final_prediction_error": _stats([r.prediction_error for r in finals]),
    }
    return summary


def _apply_override(doc: dict, text: str) -> None:
    """Set doc's dotted KEY from KEY=VALUE, VALUE parsed as JSON if it parses."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} must look like key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    *parents, last = key.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot override through non-object key {part!r}")
    node[last] = value


def _pairs(value) -> bool:
    """value is a non-empty list of [lo, hi] rows of numbers with lo <= hi."""
    return isinstance(value, (list, tuple)) and len(value) > 0 and all(
        _numbers(row, 2) and row[0] <= row[1] for row in value)


_COUNT = ("an integer >= 1", lambda v: type(v) is int and v >= 1)
_NATURAL = ("an integer >= 0", lambda v: type(v) is int and v >= 0)
_POSITIVE = ("a number in (0, inf)", lambda v: is_number(v) and v > 0)
_NON_NEGATIVE = ("a number in [0, inf)", lambda v: is_number(v) and v >= 0)
_VECTOR = ("a list of 3 numbers", lambda v: _numbers(v, 3))
_PAIRS = "a list of [lo, hi] rows of numbers with lo <= hi"

# The fields of each line type after the meta line, as write_records writes them.
_LINES = {
    "record": {"seed": _NATURAL, "iteration": _COUNT, "orientation_error": _NON_NEGATIVE,
               "location_error": _NON_NEGATIVE, "prediction_error": _NON_NEGATIVE,
               "cost": ("null or a finite number", lambda v: v is None or is_number(v)),
               "fov_rejections": _NATURAL},
    "failure": {"seed": _NATURAL, "error": ("a string", lambda v: isinstance(v, str))},
}

# The config document: key -> (what a value must be, its test), or the
# table of a section. The dotted _REQUIRED keys must be present.
_CONFIG = {
    "chain": ("a string", lambda v: isinstance(v, str)),
    "strategy": (f"one of {STRATEGIES}", lambda v: v in STRATEGIES),
    "iterations": _COUNT,
    "seeds": ("a non-empty list of distinct integers >= 0",
              lambda v: isinstance(v, (list, tuple)) and len(v) > 0
              and all(map(_NATURAL[1], v)) and len(set(v)) == len(v)),
    "noise": {"obs_variance": _NON_NEGATIVE, "stabilizing_variance": _NON_NEGATIVE},
    "optimizer": {"max_evaluations": _COUNT,
                  "variant": (f"one of {VARIANTS}", lambda v: v in VARIANTS)},
    "gradient": {"learning_rate": _POSITIVE, "decay": _NON_NEGATIVE},
    "init_hypercube": (f"one [lo, hi] pair or {_PAIRS}", lambda v: _pairs([v]) or _pairs(v)),
    "init_variance": _POSITIVE,
    "probe_set_size": _COUNT,
    "probe_seed": _NATURAL,
    "joint_limits": (f"a half-width in (0, inf) or {_PAIRS}",
                     lambda v: _POSITIVE[1](v) or _pairs(v)),
    "fov": {"camera_position": _VECTOR, "axis": _VECTOR,
            "half_angle": ("a number in [0, pi]", lambda v: is_number(v) and 0 <= v <= math.pi)},
}
_REQUIRED = {"chain", "strategy", "iterations", "seeds", "gradient.learning_rate",
             "fov.camera_position", "fov.axis", "fov.half_angle"}
_SECTIONS = {"noise": NoiseConfig, "optimizer": DirectConfig, "gradient": GradientConfig,
             "fov": FovConfig}
# The typed view of a checked config document, one field per _CONFIG key,
# None where it leaves out a key that has no default; meta is the document
# with its defaults filled.
ExperimentConfig = dataclasses.make_dataclass("ExperimentConfig", [*_CONFIG, "meta"],
                                              namespace={"__module__": __name__})
# The value of each key a document may leave out; noise is filled key by key.
_DEFAULTS = {"noise": dataclasses.asdict(NoiseConfig()), "init_hypercube": [-1.0, 1.0],
             "init_variance": 1.0, "probe_set_size": 100, "probe_seed": 0}
# The section only that strategy reads and its values: filled in whole when
# the document leaves it out, else key by key; under another strategy the
# section is an error, since no run would read it.
_STRATEGY_SECTIONS = {
    "active_rls": ("optimizer", _ACTIVE_OPTIMIZER),
    # the largest rate that stays stable on the bundled 12-joint chain;
    # 0.08 oscillates and 0.1+ blows up (see scripts/gradient_rate_sweep.py)
    "random_gradient": ("gradient", dataclasses.asdict(GradientConfig(learning_rate=0.05))),
}


def _check(doc, table: dict = _CONFIG, prefix: str = "") -> None:
    """Walk a JSON object against its table; the ConfigError names the dotted key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{prefix[:-1] or 'config'} must be an object, got {doc!r}")
    problems = [f"unknown key {prefix}{key}" for key in doc if key not in table]
    problems += [f"missing key {prefix}{key}" for key in table
                 if prefix + key in _REQUIRED and key not in doc]
    if problems:
        raise ConfigError("; ".join(problems))
    for key, value in doc.items():
        if isinstance(table[key], dict):
            _check(value, table[key], f"{prefix}{key}.")
        elif not table[key][1](value):
            raise ConfigError(f"{prefix}{key} must be {table[key][0]}, got {value!r}")


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The experiment config of a JSON document, checked whole, then filled."""
    _check(doc)
    doc = copy.deepcopy({**_DEFAULTS, **doc})
    doc["noise"] = {**_DEFAULTS["noise"], **doc["noise"]}
    for strategy, (key, values) in _STRATEGY_SECTIONS.items():
        if doc["strategy"] == strategy:
            doc[key] = {**values, **doc.get(key, {})}
        elif key in doc:
            raise ConfigError(f"the {key} section is read only by {strategy}, "
                              f"not by {doc['strategy']}")
    try:
        typed = {key: _SECTIONS[key](**value) if key in _SECTIONS else value
                 for key, value in doc.items()}
        return ExperimentConfig(**{**dict.fromkeys(_CONFIG), **typed}, meta=doc)
    except ValueError as exc:  # from FovConfig: a zero axis
        raise ConfigError(f"bad experiment config: {exc}") from exc


def load_config(path: str, overrides=()) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config file must hold a JSON object")
    for text in overrides:
        _apply_override(doc, text)
    return config_from_dict(doc)


def _check_outputs(outputs: dict, inputs=()) -> None:
    """ConfigError unless every output (name -> path) is a file in an existing
    directory, and none is one file with another output or an input (name, path)."""
    seen = {os.path.realpath(path): f"{name} {path!r}" for name, path in inputs}
    for name, path in outputs.items():
        if os.path.isdir(path or ".") or not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"output path {path!r} is a directory or its directory is missing")
        real = os.path.realpath(path)
        if real in seen:
            raise ConfigError(f"the {seen[real]} and the {name} {path!r} are one file")
        seen[real] = f"{name} {path!r}"


def _cmd_run(args) -> int:
    cfg = load_config(args.config, args.override or ())
    outputs = dict(zip(("record file", "CSV projection", "timing sidecar"),
                       _record_paths(args.out)))
    if args.observations is not None:
        outputs["--observations"] = args.observations
    _check_outputs(outputs, [("--config file", args.config)]
                   + ([] if cfg.chain in FIXTURE_NAMES else [("chain file", cfg.chain)]))

    failures = []
    observations = [] if args.observations is not None else None
    records = run_experiment(cfg, failures=failures, observations=observations)
    write_records(records, config_to_meta(cfg), args.out, failures=failures)
    if observations is not None:
        _write_jsonl(args.observations, observations)
    print(f"wrote {len(records)} records to {args.out}"
          + (f" ({len(failures)} failed seeds)" if failures else ""))
    return 1 if failures else 0


_STATS_PRINTED = ("iterations_to_orientation_threshold", "iterations_to_location_threshold",
                  "final_orientation_error", "final_location_error", "final_prediction_error")


def _cmd_summarize(args) -> int:
    if args.json is not None:
        _check_outputs({"--json file": args.json}, [("--in file", path) for path in args.inputs])
    outputs = {}
    paths = {}
    for path in args.inputs:
        meta, records, failures = read_records(path)
        if not records:
            raise ConfigError(f"{path!r} holds no records")
        label = meta["strategy"]
        if args.json is not None and label in paths:
            raise ConfigError(f"{paths[label]!r} and {path!r} share the label {label!r}, "
                              "which keys the --json summaries")
        paths[label] = path
        summary = summarize(records)
        summary["failures"] = len(failures)
        outputs[label] = summary
        print(f"{label} ({path})")
        print(f"  seeds: {summary['seeds']}   "
              f"converged: {summary['converged_orientation']}   "
              f"failures: {summary['failures']}")
        for key in _STATS_PRINTED:
            stats = summary[key]
            print(f"  {key.replace('_', ' ')}: median {stats['median']:.6g}  "
                  f"iqr [{stats['iqr'][0]:.6g}, {stats['iqr'][1]:.6g}]")
    if args.json is not None:
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
    run_p.add_argument("--out", required=True,
                       help="record file path (JSONL; CSV written next to it)")
    run_p.add_argument("--override", action="append", metavar="KEY=VALUE",
                       help="dotted-path config override, value parsed as JSON")
    run_p.add_argument("--observations", help="also write (q, y, accepted) JSONL here")
    run_p.set_defaults(func=_cmd_run)

    sum_p = sub.add_parser("summarize", help="summarize record files")
    sum_p.add_argument("--in", dest="inputs", action="append", required=True,
                       help="record file (repeatable)")
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
