"""kincal benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload active_arm6 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; kincal is imported from ./src.
Every repeat of the workload's experiment runs in a fresh process
(child.py), one after another, with one BLAS thread. Untraced
(--trace 0): a few set-up probes, then whole repeats until --seconds have
passed (at least two), and the end-to-end metrics. Traced (--trace 1):
pairs of an untraced and a traced repeat, and the per-layer metrics.

Either way the record and CSV files of all repeats must be byte-identical,
every record finite and complete, and the calibration-quality figures
within the tolerance of reference.json. Human-readable lines come first;
the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every check passed. Work files go to .bench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from statistics import median

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 6
MIN_REPEATS = 2
CHILD_TIMEOUT_S = 150
TAIL_BEYOND = 10   # samples beyond the reported tail percentile
CHILD_ENV_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """A repeat's process failed or timed out."""


def _tail(values):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def machine_stamp() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads_env": CHILD_ENV_THREADS,
    }


class Runner:
    """Starts child processes for one (workload, seed) and keeps their results."""

    def __init__(self, work: str, config_path: str):
        self.work = work
        self.config_path = config_path
        self.count = 0
        self.env = dict(os.environ, **CHILD_ENV_THREADS)

    def spawn(self, mode: str) -> dict:
        tag = f"{self.count:03d}-{mode}"
        self.count += 1
        out = os.path.join(self.work, f"{tag}.jsonl")
        result_path = os.path.join(self.work, f"{tag}.result.json")
        spawned_at = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
             "--config", self.config_path, "--out", out, "--result", result_path,
             "--spawned-at", repr(spawned_at), "--run-id", tag],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"child {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
        with open(result_path) as fh:
            result = json.load(fh)
        result["out"] = out
        result["wall_s"] = time.perf_counter() - spawned_at
        if result["first_iteration_at"] is not None:
            result["setup_s"] = result["first_iteration_at"] - spawned_at
            if not 0.0 < result["setup_s"] < CHILD_TIMEOUT_S:
                raise BenchError(f"child {tag}: implausible set-up time {result['setup_s']}")
        return result


def quality(records: list, failures: list, seeds: int, skipped_updates: int) -> dict:
    """Deterministic calibration figures of one repeat's records."""
    import kincal.cli as kc

    summary = kc.summarize(records)
    finals = {}
    for rec in records:
        if rec.seed not in finals or rec.iteration > finals[rec.seed].iteration:
            finals[rec.seed] = rec
    accepted = len(records) - sum(rec.fov_rejections for rec in finals.values())
    return {
        "converge_iters_p50": summary["iterations_to_orientation_threshold"]["median"],
        "converged_ratio": summary["converged_orientation"] / seeds,
        "final_pred_rms_p50": summary["final_prediction_error"]["median"],
        "accept_ratio": accepted / len(records),
        "failed_seed_ratio": len(failures) / seeds,
        "skipped_update_ratio": skipped_updates / accepted if accepted else 0.0,
    }


QUALITY_UNITS = {"converge_iters_p50": "iters", "converged_ratio": "ratio",
                 "final_pred_rms_p50": "m", "accept_ratio": "ratio",
                 "failed_seed_ratio": "ratio", "skipped_update_ratio": "ratio"}


def _csv(path: str) -> str:
    return os.path.splitext(path)[0] + ".csv"


def check_outputs(repeats: list, cfg: dict, reference: dict) -> tuple:
    """(problems, quality figures) over all whole repeats of one run."""
    import kincal.cli as kc

    problems = []
    seeds = len(cfg["seeds"])
    expected = seeds * cfg["iterations"]
    figures = []
    for rep in repeats:
        _, records, failures = kc.read_records(rep["out"])
        if len(records) != expected:
            problems.append(f"{rep['out']}: {len(records)} records, expected {expected}")
        bad = [r for r in records
               if not all(math.isfinite(getattr(r, f)) for f in
                          ("orientation_error", "location_error", "prediction_error"))]
        if bad:
            problems.append(f"{rep['out']}: {len(bad)} records with a non-finite error")
        if records:
            figures.append(quality(records, failures, seeds, rep["skipped_updates"]))
    first = repeats[0]["out"]
    for rep in repeats[1:]:
        for a, b in ((first, rep["out"]), (_csv(first), _csv(rep["out"]))):
            if _sha256(a) != _sha256(b):
                problems.append(f"{os.path.basename(b)} differs from {os.path.basename(a)}")
    if not figures:
        return problems, {}
    for other in figures[1:]:
        if other != figures[0]:
            problems.append(f"quality figures differ across repeats: {other} vs {figures[0]}")
    for name, ref in reference.items():
        if ref["tolerance"] is None:
            continue
        value = figures[0][name]
        limit = _limit(ref)
        if value > limit if ref["better"] == "lower" else value < limit:
            problems.append(f"{name} = {value:.6g} is worse than the reference "
                            f"{ref['value']} by more than {ref['tolerance']}")
    return problems, figures[0]


def _limit(ref: dict) -> float:
    value = math.inf if ref["value"] is None else ref["value"]
    if ref["better"] == "lower":
        return value + ref["tolerance"]
    return value - ref["tolerance"]


def _scaled(seconds: float, probe_s: float) -> float:
    """`seconds` as if the calibration kernel had taken its reference time."""
    return seconds * calibrate.REFERENCE_KERNEL_S / probe_s


def _scaled_iterations(repeat: dict) -> list:
    """Each iteration's duration (between consecutive measure stamps),
    scaled by the calibration probe nearest to it in time."""
    at = [t for t, _ in repeat["probes"]]
    stamps = repeat["measure_stamps"]
    scaled = []
    for start, end in zip(stamps, stamps[1:]):
        mid = 0.5 * (start + end)
        i = bisect.bisect_left(at, mid)
        j = min((k for k in (i - 1, i) if 0 <= k < len(at)), key=lambda k: abs(at[k] - mid))
        scaled.append(_scaled(end - start, repeat["probes"][j][1]))
    return scaled


def measured_run(runner: Runner, seconds: float) -> tuple:
    """Set-up probes, then whole untraced repeats for `seconds`."""
    probes = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    repeats = []
    start = time.perf_counter()
    while True:
        repeats.append(runner.spawn("full"))
        elapsed = time.perf_counter() - start
        typical = median([r["wall_s"] for r in repeats])
        if len(repeats) >= MIN_REPEATS and elapsed + typical > seconds:
            break
    iteration_s = sorted(d for r in repeats for d in _scaled_iterations(r))
    metrics = {
        "iters_per_s": len(iteration_s) / sum(iteration_s),
        "iter_ms_p50": 1e3 * median(iteration_s),
        "setup_s": median([_scaled(r["setup_s"], r["probes"][0][1]) for r in probes + repeats]),
        "peak_rss_mb": median([r["peak_rss_kb"] / 1024.0 for r in repeats]),
    }
    tail, percentile = _tail(iteration_s)
    notes = {"repeats": len(repeats), "setup_samples": len(probes) + len(repeats),
             "measured_s": time.perf_counter() - start,
             "also": {"iter_ms_tail": (1e3 * tail, "ms",
                                       f"scaled, p{percentile:.2f} of {len(iteration_s)} "
                                       f"iterations"),
                      "iters_per_s_unscaled": (
                          sum(r["records"] for r in repeats)
                          / sum(r["run_end"] - r["first_iteration_at"] for r in repeats),
                          "1/s", "records over summed wall time, not scaled"),
                      "calibration_probe_ms": (
                          1e3 * median([p for r in repeats for _, p in r["probes"]]), "ms",
                          f"median; reference {1e3 * calibrate.REFERENCE_KERNEL_S:g} ms")}}
    selects = [s for r in repeats for s in r["select_seconds"]]
    if selects:
        tail, percentile = _tail(selects)
        notes["also"]["select_ms_p50"] = (1e3 * median(selects), "ms",
                                          f"not scaled, {len(selects)} selections")
        notes["also"]["select_ms_tail"] = (1e3 * tail, "ms",
                                           f"not scaled, p{percentile:.2f} of {len(selects)} "
                                           f"selections")
    return repeats, metrics, notes


def traced_run(runner: Runner, seconds: float) -> tuple:
    """Pairs of an untraced and a traced repeat for `seconds`."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(runner.spawn("full"))
        traced.append(runner.spawn("traced"))
        elapsed = time.perf_counter() - start
        typical = plain[-1]["wall_s"] + traced[-1]["wall_s"]
        if elapsed + typical > seconds:
            break
    per_repeat = [t["trace"]["metrics"] for t in traced]
    metrics = {name: median([m[name] for m in per_repeat]) for name in per_repeat[0]}
    metrics["trace.overhead_ratio"] = median(
        [sum(_scaled_iterations(t)) / sum(_scaled_iterations(p)) for p, t in zip(plain, traced)])
    notes = {"pairs": len(traced), "measured_s": time.perf_counter() - start,
             "calibration_probe_ms": 1e3 * median([p for _, p in traced[-1]["probes"]]),
             "self_s": traced[-1]["trace"]["self_s"],
             "traced_wall_s": traced[-1]["trace"]["wall_s"],
             "outside_spans_s": traced[-1]["trace"]["outside_spans_s"]}
    return plain + traced, metrics, notes


def _print_layers(notes: dict, metrics: dict, roadmap: dict, workload: str) -> None:
    wall = notes["traced_wall_s"]
    print(f"where the traced wall time went (last traced repeat, {wall:.3f} s, unscaled; "
          f"calibration probe {notes['calibration_probe_ms']:.3f} ms, reference "
          f"{1e3 * calibrate.REFERENCE_KERNEL_S:g} ms):")
    for name, self_s in sorted(notes["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"  {name:34s} self {self_s:9.4f} s  {100.0 * self_s / wall:5.1f} %")
    print(f"  {'(outside every span)':34s}      {notes['outside_spans_s']:9.4f} s  "
          f"{100.0 * notes['outside_spans_s'] / wall:5.1f} %")
    print(f"ROADMAP arm12 per-call baselines (traced us_p50 here, unscaled, with the spans' "
          f"own cost; "
          f"{'same fixture' if workload == roadmap['workload'] else 'other fixture, not comparable'}):")
    for name, baseline in roadmap["us"].items():
        here = metrics.get(f"{name}.us_p50")
        shown = "not covered by this workload" if not here else f"{here:10.1f} us"
        print(f"  {name:34s} {shown}   ROADMAP {baseline:8.0f} us")
    for name, why in roadmap["not_covered"].items():
        print(f"  {name:34s} not covered by any workload: {why}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: workloads.DEFAULT_SEED)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kincal", "__init__.py")):
        print(f"error: no kincal sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import kincal.sim

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = workloads.WORKLOADS[args.workload]
    truth = kincal.sim.builtin_chain(spec["chain"]).params.to_vector()
    cfg = workloads.config_doc(args.workload, seed, truth)
    config_path = os.path.join(work, "config.json")
    with open(config_path, "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    stamp = machine_stamp()
    stamp["loadavg_before"] = os.getloadavg()
    runner = Runner(work, config_path)
    try:
        if args.trace:
            repeats, metrics, notes = traced_run(runner, args.seconds)
        else:
            repeats, metrics, notes = measured_run(runner, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    stamp["loadavg_after"] = os.getloadavg()
    stamp["openblas_threads"] = repeats[0]["openblas_threads"]

    problems, figures = check_outputs(repeats, cfg, reference["workloads"][args.workload])
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} are not both measured "
                        f"and declared in BENCHMARK.json")
    attempted = sum(len(cfg["seeds"]) for _ in repeats)
    failed = sum(len(r["failures"]) for r in repeats)

    print(f"workload {args.workload}  seed {seed} (default {workloads.DEFAULT_SEED})  "
          f"trace {args.trace}  {len(cfg['seeds'])} seeds x {cfg['iterations']} iterations")
    print("machine " + json.dumps(stamp, sort_keys=True))
    print("run " + json.dumps({k: v for k, v in notes.items() if k not in ("self_s", "also")},
                              sort_keys=True))
    if args.trace:
        _print_layers(notes, metrics, reference["roadmap_arm12"], args.workload)
    print(f"metrics (BENCHMARK.json {'per_layer' if args.trace else 'end_to_end'}):")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units.get(name, '?')}")
    if "also" in notes:
        print("also measured, not bounded:")
        for name, (value, unit, how) in notes["also"].items():
            print(f"  {name} = {value:.6g} {unit}  ({how})")
    print("calibration quality (deterministic; checked, not timed):")
    for name, value in figures.items():
        shown = "inf (censored)" if math.isinf(value) else f"{value:.6g}"
        print(f"  {name} = {shown} {QUALITY_UNITS[name]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                          for name, value in metrics.items()}}
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump({"result": result, "machine": stamp, "run": notes, "quality": figures,
                   "problems": problems, "config": cfg}, fh, indent=1, sort_keys=True,
                  default=str)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
