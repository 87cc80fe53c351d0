"""One repeat of a workload in a fresh process.

Started by run.py, never by hand. Runs the experiment config it is given
through kincal's public API (run_experiment, then write_records) and
writes a JSON result. Modes:

  setup   stop at the first iteration; only the set-up time counts
  full    the whole experiment, untraced
  traced  the whole experiment with spans around each layer (spans.py)

Untraced repeats carry one thin timer: a time stamp at each call into
kincal.cli.measure (one per seed-iteration), with a calibration probe
(calibrate.py) at most every PROBE_INTERVAL_S whose own time is left out
of the stamps. The first iteration starts at the first call into
select_next or measure, whichever comes first; set-up is everything
before it, from the moment run.py started this process. A set-up probe
runs one calibration probe after it stops.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import kincal.cli  # noqa: E402

import calibrate  # noqa: E402

PROBE_INTERVAL_S = 0.25


class _SetupDone(BaseException):
    """Ends a set-up probe at the first iteration. A BaseException, so
    run_experiment's per-seed `except Exception` does not absorb it."""


class _SkippedUpdates(logging.Handler):
    """Counts run_experiment's "degenerate update skipped" warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.name == "kincal.cli" and "degenerate update skipped" in record.getMessage():
            self.count += 1


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, or None if it is not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _stamp_iterations(marks: dict, setup_only: bool, tracer=None) -> None:
    """Stamp every call into kincal.cli.measure, once per seed-iteration.

    marks["first"] gets the start of the first iteration: the first call
    into select_next or measure, whichever comes first. At most every
    PROBE_INTERVAL_S a calibration probe runs before the stamp; its time
    is taken out of the stamps, and (stamp, probe seconds) goes to
    marks["probes"]; a tracer gets it as a span of its own."""
    select_next, measure = kincal.cli.select_next, kincal.cli.measure
    clock = time.perf_counter
    stamps, probes = marks["measure"], marks["probes"]
    state = {"excluded": 0.0, "last_probe": -math.inf}

    def first_select(*args, **kwargs):
        marks["first"] = clock()
        kincal.cli.select_next = select_next
        if setup_only:
            raise _SetupDone
        return select_next(*args, **kwargs)

    def stamped_measure(*args, **kwargs):
        now = clock()
        if marks["first"] is None:
            marks["first"] = now
            if setup_only:
                raise _SetupDone
        if now - state["last_probe"] >= PROBE_INTERVAL_S:
            probes.append((now - state["excluded"], calibrate.probe()))
            state["last_probe"] = clock()
            state["excluded"] += state["last_probe"] - now
            if tracer is not None:
                tracer.record("calibration.probe", now, state["last_probe"])
        stamps.append(clock() - state["excluded"])
        return measure(*args, **kwargs)

    kincal.cli.select_next = first_select
    kincal.cli.measure = stamped_measure


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "full", "traced"), required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--run-id", required=True)
    args = parser.parse_args()

    skipped = _SkippedUpdates()
    kincal_log = logging.getLogger("kincal")
    kincal_log.addHandler(skipped)
    kincal_log.setLevel(logging.WARNING)
    kincal_log.propagate = False

    with open(args.config) as fh:
        cfg = kincal.cli.config_from_dict(json.load(fh))

    marks = {"first": None, "measure": [], "probes": []}
    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer(args.run_id)
        tracer.install()
    _stamp_iterations(marks, setup_only=args.mode == "setup", tracer=tracer)

    failures = []
    run_start = time.perf_counter()
    try:
        records = kincal.cli.run_experiment(cfg, failures=failures)
    except _SetupDone:
        records = None
        marks["probes"].append((time.perf_counter(), calibrate.probe()))
    if records is not None:
        kincal.cli.write_records(records, kincal.cli.config_to_meta(cfg), args.out,
                                 failures=failures)
    run_end = time.perf_counter()

    result = {
        "mode": args.mode,
        "spawned_at": args.spawned_at,
        "first_iteration_at": marks["first"],
        "measure_stamps": marks["measure"],
        "probes": marks["probes"],
        "run_start": run_start,
        "run_end": run_end,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "skipped_updates": skipped.count,
        "failures": failures,
        "openblas_threads": _openblas_threads(),
    }
    if records is not None:
        result["records"] = len(records)
        result["select_seconds"] = [r.selection_seconds for r in records
                                    if r.selection_seconds is not None]
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(os.path.splitext(args.out)[0] + ".spans.jsonl")
        result["trace"] = tracer.summary(run_end - run_start)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
