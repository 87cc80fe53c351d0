import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kincal.active
import kincal.cli
from kincal.cli import (_PROBE_ATTEMPT_FACTOR, ConfigError, ExperimentRecord, _probe_set,
                        _quantile, config_from_dict, config_to_meta, iterations_to_threshold,
                        load_config, main, read_records, resolve_ground_truth,
                        run_experiment, summarize, write_records)
from kincal.estimator import NoiseConfig, apply_stabilizing_noise
from kincal.kinematics import (ChainObservationModel, ChainParams, Pose, Twist, observe,
                               save_chain)
from kincal.sim import builtin_chain, make_rng, random_config


# The active_planar3_fov benchmark workload's view cone.
PLANAR3_CONE = {"camera_position": [0.35, 0.0, 1.0], "axis": [0.0, 0.0, -1.0],
                "half_angle": 0.5}


def base_config(**extra):
    doc = {"chain": "planar3", "strategy": "random_rls", "iterations": 3,
           "seeds": [0, 1], "noise": {"obs_variance": 1e-4},
           "probe_set_size": 10}
    doc.update(extra)
    return doc


def full_config(**extra):
    """A document that sets every numeric key of the table. No strategy
    reads both optimizer and gradient, so config_from_dict refuses it as
    it stands; without the section its strategy does not read, it is valid."""
    return base_config(
        init_hypercube=[-1.0, 1.0], init_variance=1.0, probe_seed=0, joint_limits=0.5,
        optimizer={"max_evaluations": 15, "variant": "direct_l"},
        gradient={"learning_rate": 0.05, "decay": 0.0},
        fov={"camera_position": [1.0, 0.0, -2.0], "axis": [0.0, 1.0, 0.0], "half_angle": 0.7},
        noise={"obs_variance": 1e-4, "stabilizing_variance": 1e-3}, **extra)


_MISSING = object()


def set_key(doc, dotted, value):
    """doc with its dotted key set to value, or removed for _MISSING."""
    *parents, last = dotted.split(".")
    node = doc
    for part in parents:
        node = node[part]
    if value is _MISSING:
        del node[last]
    else:
        node[last] = value
    return doc


# every numeric leaf of the document, and where a bad number goes in it
_NUMERIC_LEAVES = [
    ("iterations", lambda bad: bad),
    ("seeds", lambda bad: [0, bad]),
    ("init_hypercube", lambda bad: [bad, 1.0]),
    ("init_variance", lambda bad: bad),
    ("probe_set_size", lambda bad: bad),
    ("probe_seed", lambda bad: bad),
    ("joint_limits", lambda bad: bad),
    ("joint_limits", lambda bad: [[bad, 1.0]] * 3),
    ("noise.obs_variance", lambda bad: bad),
    ("noise.stabilizing_variance", lambda bad: bad),
    ("optimizer.max_evaluations", lambda bad: bad),
    ("gradient.learning_rate", lambda bad: bad),
    ("gradient.decay", lambda bad: bad),
    ("fov.camera_position", lambda bad: [1.0, bad, -2.0]),
    ("fov.axis", lambda bad: [0.0, 1.0, bad]),
    ("fov.half_angle", lambda bad: bad),
]
# keys the document no longer has: unknown whatever their value, the
# values they once took included
_REMOVED_KEYS = ("fov.near", "fov.far", "optimizer.epsilon", "output")
_BAD_CONFIG_VALUES = [(key, place(bad)) for key, place in _NUMERIC_LEAVES
                      for bad in (True, math.nan, math.inf, -math.inf)] + [
    ("fov.camera_position", [1.0, 0.0]),
    ("fov.camera_position", _MISSING),
    ("fov.axis", [[0.0, 1.0, 0.0]]),
    ("fov.half_angle", 4.0),
    ("init_hypercube", [False, True]),
    ("init_hypercube", [1.0, -1.0]),
    ("init_hypercube", [[-1.0, 1.0, 0.0]]),
    ("init_hypercube", [[-1.0, 1.0], [0.0]]),
    ("joint_limits", [-0.5, 0.5]),
    ("joint_limits", [[0.5, -0.5]] * 3),
    ("joint_limits", 0.0),
    ("init_variance", 10 ** 400),        # an integer no float holds
    ("seeds", [0, 0]),
    ("seeds", 0),
    ("iterations", "3"),
    ("noise", 1e-4),
    ("optimizer.variant", "newton"),
    ("optimizer.bounds", [[0.0, 1.0]] * 3),
    ("chain", 3),
] + [(key, value) for key in _REMOVED_KEYS
     for value in (0.0, True, math.nan, math.inf, -math.inf)] + [
    ("fov.far", None),
    ("output", "r.jsonl"),
    ("output", 3),
]


def write_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(**extra)))
    return str(path)


def fake_record(seed, iteration, orientation, location=1.0, prediction=1.0):
    return ExperimentRecord(seed, iteration, orientation, location, prediction, None, 0, None)


def per_draw_probe_set(gt, size, probe_seed):
    """The reference for _probe_set: one random_config, one observe and
    one fov.contains per draw, the first size in-view draws kept."""
    rng = make_rng(probe_seed)
    probes = []
    for _ in range(size * _PROBE_ATTEMPT_FACTOR):
        q = random_config(gt, rng)
        pos = observe(gt.params, q)
        if gt.fov is None or gt.fov.contains(pos):
            probes.append((q, pos))
            if len(probes) == size:
                return np.asarray([q for q, _ in probes]), np.asarray([p for _, p in probes])
    raise AssertionError("the reference found too few in-view probes")


# the cone of the active_planar3_fov benchmark workload
PLANAR3_CONE = {"camera_position": [0.35, 0.0, 1.0], "axis": [0.0, 0.0, -1.0],
                "half_angle": 0.5}
# a record file's failure line, for the seed %d
FAILURE = '{"error": "x", "seed": %d, "type": "failure"}'


class TestRunExperiment:
    def test_record_conservation(self):
        cfg = config_from_dict(base_config())
        records = run_experiment(cfg)
        assert len(records) == 2 * 3
        assert {(r.seed, r.iteration) for r in records} == {
            (s, i) for s in (0, 1) for i in (1, 2, 3)}
        for rec in records:
            assert math.isfinite(rec.orientation_error)
            assert math.isfinite(rec.location_error)
            assert math.isfinite(rec.prediction_error)
            assert rec.cost is None and rec.fov_rejections == 0

    def test_same_config_sequence_for_both_random_strategies(self, tmp_path):
        streams = {}
        for strategy in ("random_rls", "random_gradient"):
            cfg = config_from_dict(base_config(strategy=strategy))
            observations = []
            run_experiment(cfg, observations=observations)
            streams[strategy] = [(o["seed"], o["iteration"], tuple(o["q"]))
                                 for o in observations]
        assert streams["random_rls"] == streams["random_gradient"]

    def test_active_records_costs(self):
        cfg = config_from_dict(base_config(
            strategy="active_rls", iterations=2, seeds=[0],
            optimizer={"max_evaluations": 15, "variant": "direct_l"}))
        records = run_experiment(cfg)
        assert len(records) == 2
        for rec in records:
            assert rec.cost is not None and math.isfinite(rec.cost)
            assert rec.selection_seconds >= 0.0

    def test_rls_errors_shrink(self):
        cfg = config_from_dict(base_config(iterations=60, seeds=[4],
                                           init_hypercube=[-0.5, 0.5]))
        records = run_experiment(cfg)
        assert records[-1].prediction_error < 0.5 * records[0].prediction_error

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverging_seed_becomes_failure_entry(self):
        cfg = config_from_dict(base_config(strategy="random_gradient", iterations=30,
                                           seeds=[0], gradient={"learning_rate": 5.0}))
        failures = []
        records = run_experiment(cfg, failures=failures)
        assert records == []
        assert len(failures) == 1 and failures[0]["seed"] == 0
        assert "non-finite" in failures[0]["error"]

    @pytest.mark.parametrize("error", [TypeError, np.linalg.LinAlgError, FloatingPointError])
    def test_programming_error_in_seed_propagates(self, monkeypatch, error):
        # only DegenerateUpdateError fails a seed; kincal's run path
        # raises neither numpy error itself
        def broken_measure(gt, q, rng):
            raise error("broken measure")

        monkeypatch.setattr("kincal.cli.measure", broken_measure)
        failures = []
        with pytest.raises(error, match="broken measure"):
            run_experiment(config_from_dict(base_config()), failures=failures)
        assert failures == []

    @pytest.mark.parametrize("strategy, fov", [("active_rls", None),
                                               ("active_rls", PLANAR3_CONE),
                                               ("random_rls", None)])
    def test_active_updates_make_no_jacobian_call(self, monkeypatch, strategy, fov):
        # an active update takes its selection's innovation row; a random
        # strategy's updates take rows of one linearization per round, over
        # the stack of the round's means. No update calls jacobian.
        calls, stacked = [], []
        jacobian, linearize = ChainObservationModel.jacobian, ChainObservationModel.linearize

        def counted(self, x, q):
            calls.append(q)
            return jacobian(self, x, q)

        def counted_linearize(self, terms, configs, index=None):
            # selection's calls carry a row index; a round's updates' do not
            if index is None and terms.norm.ndim == 2:
                stacked.append(len(terms.norm))
            return linearize(self, terms, configs, index)

        monkeypatch.setattr(ChainObservationModel, "jacobian", counted)
        monkeypatch.setattr(ChainObservationModel, "linearize", counted_linearize)
        doc = base_config(strategy=strategy, iterations=4, seeds=[0, 1])
        if strategy == "active_rls":
            doc["optimizer"] = {"max_evaluations": 15, "variant": "direct_l"}
        if fov is not None:
            doc["fov"] = fov
        observations = []
        assert len(run_experiment(config_from_dict(doc), observations=observations)) == 8
        accepted = sum(o["accepted"] for o in observations)
        assert accepted > 0 and calls == []
        assert stacked == ([] if strategy == "active_rls" else [2] * 4)
        assert sum(stacked) == (0 if strategy == "active_rls" else accepted)

    def test_steps_keep_no_sweep_arrays(self, monkeypatch):
        # a seed's results outlive its selections; its records keep the
        # cost and duration as floats and its observations plain lists,
        # never the chosen innovation row
        kept = []
        run_seed = kincal.cli._run_seed

        def keeping(*args):
            records, observations = yield from run_seed(*args)
            kept.append((records, observations))
            return records, observations

        monkeypatch.setattr(kincal.cli, "_run_seed", keeping)
        doc = base_config(strategy="active_rls", iterations=4, seeds=[0],
                          optimizer={"max_evaluations": 15, "variant": "direct_l"},
                          fov=PLANAR3_CONE)
        run_experiment(config_from_dict(doc), observations=[])
        [(records, observations)] = kept
        assert len(records) == len(observations) == 4
        for record, observation in zip(records, observations):
            assert type(record.cost) is float and type(record.selection_seconds) is float
            assert all(type(a) is float for a in observation["q"])
            assert observation["y"] is None or all(type(a) is float for a in observation["y"])

    @pytest.mark.parametrize("variance, calls", [(1e-3, 2), (0.0, 0)])
    def test_stabilizing_noise_every_tenth_update(self, monkeypatch, variance, calls):
        seen = []

        def counted(state, noise):
            seen.append(noise.stabilizing_variance)
            return apply_stabilizing_noise(state, noise)

        monkeypatch.setattr("kincal.cli.apply_stabilizing_noise", counted)
        cfg = config_from_dict(base_config(
            iterations=25, seeds=[0],
            noise={"obs_variance": 1e-4, "stabilizing_variance": variance}))
        assert len(run_experiment(cfg)) == 25
        assert seen == [variance] * calls

    @pytest.mark.parametrize("strategy", ["active_rls", "random_rls"])
    def test_benchmark_hooks_once_per_seed_iteration(self, monkeypatch, strategy):
        # bench/child.py times iterations by wrapping these module
        # attributes: measure is stamped once per seed-iteration, and an
        # iteration starts at the first select_next or measure. The
        # driver selects for all seeds of a round in one select_lockstep
        # call, so select_next is not called and a round of active seeds
        # is one run of lookahead calls, then one measure per seed.
        events = []
        select_next, measure = kincal.cli.select_next, kincal.cli.measure
        lookahead_costs = kincal.active.lookahead_costs

        def recorded(name, original):
            def wrapper(*args, **kwargs):
                events.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(kincal.cli, "select_next", recorded("select", select_next))
        monkeypatch.setattr(kincal.cli, "measure", recorded("measure", measure))
        monkeypatch.setattr(kincal.active, "lookahead_costs",
                            recorded("lookahead", lookahead_costs))
        doc = base_config(strategy=strategy, iterations=3, seeds=[0, 1])
        if strategy == "active_rls":
            doc["optimizer"] = {"max_evaluations": 15, "variant": "direct_l"}
        assert len(run_experiment(config_from_dict(doc))) == 6
        # runs of lookahead calls collapse to one entry
        steps = [e for e, before in zip(events, [None] + events)
                 if not e == before == "lookahead"]
        per_round = ["lookahead", "measure", "measure"] if strategy == "active_rls" \
            else ["measure", "measure"]
        assert steps == per_round * 3

    @pytest.mark.parametrize("iterations", [1, 9, 10, 11, 23])
    def test_scoring_blocks_leave_records_unchanged(self, iterations):
        # records are scored in blocks of iterations; a run that stops
        # anywhere in a block gives the leading records of a longer run
        longer = run_experiment(config_from_dict(base_config(iterations=30)))
        records = run_experiment(config_from_dict(base_config(iterations=iterations)))
        assert [(r.seed, r.iteration) for r in records] == [
            (s, i) for s in (0, 1) for i in range(1, iterations + 1)]
        assert records == [r for r in longer if r.iteration <= iterations]
        assert all(type(getattr(r, field)) is float for r in longer
                   for field in ("orientation_error", "location_error", "prediction_error"))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("extra, failed", [
        ({}, []),
        # seeds 2 and 0 diverge at iterations 6 and 7; 1 and 3 run on
        ({"strategy": "random_gradient", "gradient": {"learning_rate": 2.0}}, [0, 2]),
        # rejected measurements: rounds in which some seeds make no request
        ({"fov": PLANAR3_CONE, "joint_limits": 3.14}, []),
        # selections in lockstep, with and without rejected measurements
        ({"strategy": "active_rls", "optimizer": {"max_evaluations": 15, "variant": "direct_l"}},
         []),
        ({"strategy": "active_rls", "fov": PLANAR3_CONE, "joint_limits": 3.14,
          "optimizer": {"max_evaluations": 30, "variant": "direct_l"}}, []),
    ])
    def test_seeds_in_lockstep_match_seeds_alone(self, tmp_path, extra, failed):
        # the records, CSV rows and observations of seeds run together are
        # those of each seed run alone, in seed order, failures after
        # every record
        def run(name, seeds):
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps(base_config(iterations=12, seeds=seeds, **extra)))
            out, observed = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.obs.jsonl"
            main(["run", "--config", str(config), "--out", str(out),
                  "--observations", str(observed)])
            lines = out.read_text().splitlines()[1:]
            return ([line for line in lines if '"type": "record"' in line],
                    [line for line in lines if '"type": "failure"' in line],
                    out.with_suffix(".csv").read_text().splitlines(),
                    observed.read_text().splitlines())

        seeds = [0, 1, 2, 3]
        together = run("together", seeds)
        alone = [run(f"alone-{seed}", [seed]) for seed in seeds]
        assert together[0] == [line for one in alone for line in one[0]]
        assert together[1] == [line for one in alone for line in one[1]]
        assert together[2] == alone[0][2][:1] + [row for one in alone for row in one[2][1:]]
        assert together[3] == [line for one in alone for line in one[3]]
        assert [json.loads(line)["seed"] for line in together[1]] == failed
        assert len(together[0]) == 12 * (len(seeds) - len(failed))
        if "fov" in extra:
            assert any('"accepted": false' in line for line in together[3])

    def test_chain_file_input(self, tmp_path):
        path = tmp_path / "chain.json"
        save_chain(builtin_chain("planar3").params, path)
        cfg = config_from_dict(base_config(chain=str(path), iterations=2))
        assert len(run_experiment(cfg)) == 4

    def test_chain_file_with_a_non_unit_axis(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        save_chain(ChainParams([Twist([0.0, 0.0, 2.0], [0.0, 0.0, 0.0]),
                                Twist([0.0, 0.0, 1.0], [0.0, -0.3, 0.0])],
                               Pose(np.eye(3), [0.6, 0.0, 0.0])), path)
        with pytest.raises(ConfigError, match=re.escape(repr(str(path)))):
            resolve_ground_truth(config_from_dict(base_config(chain=str(path))))
        config = write_config(tmp_path, chain=str(path))
        assert main(["run", "--config", config, "--out", str(tmp_path / "r.jsonl")]) == 1
        assert "unit norm" in capsys.readouterr().err
        assert not (tmp_path / "r.jsonl").exists()

    def test_chain_file_holding_an_array(self, tmp_path, capsys):
        path = tmp_path / "chain.json"
        path.write_text("[1, 2]")
        config = write_config(tmp_path, chain=str(path))
        assert main(["run", "--config", config, "--out", str(tmp_path / "r.jsonl")]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        assert not (tmp_path / "r.jsonl").exists()

    def test_missing_chain(self):
        with pytest.raises(ConfigError):
            resolve_ground_truth(config_from_dict(base_config(chain="nope.json")))

    def test_fov_starves_probe_set(self, monkeypatch):
        draws = []

        def counted(gt, rng):
            draws.append(1)
            return random_config(gt, rng)

        monkeypatch.setattr(kincal.cli, "random_config", counted)
        fov = {"camera_position": [100.0, 0.0, 0.0], "axis": [1.0, 0.0, 0.0],
               "half_angle": 1e-4}
        cfg = config_from_dict(base_config(fov=fov, probe_set_size=2))
        bound = 2 * _PROBE_ATTEMPT_FACTOR
        with pytest.raises(ConfigError, match=f": 0 of {bound} draws in view, 2 needed"):
            run_experiment(cfg)
        assert len(draws) == bound

    @pytest.mark.parametrize("chain, fov", [("planar3", None), ("planar3", PLANAR3_CONE),
                                            ("arm12", None)])
    def test_probe_set_matches_per_draw_reference(self, chain, fov):
        # at the workload's joint limits the cone sees about 58 % of the
        # planar3 draws, so its 20 probes take several rounds of draws
        doc = base_config(chain=chain, joint_limits=3.14, probe_set_size=20, probe_seed=3)
        if fov is not None:
            doc["fov"] = fov
        gt = resolve_ground_truth(config_from_dict(doc))
        got = _probe_set(gt, 20, 3)
        want = per_draw_probe_set(gt, 20, 3)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_scalar_joint_limits(self):
        cfg = config_from_dict(base_config(joint_limits=0.25))
        gt = resolve_ground_truth(cfg)
        np.testing.assert_array_equal(gt.joint_limits,
                                      np.tile([-0.25, 0.25], (3, 1)))

    @pytest.mark.parametrize("strategy, limits", [
        ("random_rls", [[0.0, 1.0], [0.5, -0.5], [0.0, 1.0]]),
        ("active_rls", [[0.0, 1.0], [0.5, -0.5], [0.0, 1.0]]),
        ("active_rls", [[0.0, 1.0], [0.2, 0.2], [0.0, 1.0]]),
        ("random_rls", float("nan")),
    ])
    def test_bad_joint_limits_fail_before_any_seed(self, tmp_path, capsys, strategy, limits):
        failures = []
        with pytest.raises(ConfigError, match="joint"):
            run_experiment(config_from_dict(base_config(strategy=strategy, joint_limits=limits)),
                           failures=failures)
        assert failures == []
        path = write_config(tmp_path, strategy=strategy, joint_limits=limits)
        assert main(["run", "--config", path, "--out", str(tmp_path / "r.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_zero_width_joint_limit_allowed_for_random_strategies(self):
        limits = [[0.0, 1.0], [0.2, 0.2], [0.0, 1.0]]
        for strategy in ("random_rls", "random_gradient"):
            cfg = config_from_dict(base_config(strategy=strategy, joint_limits=limits,
                                               iterations=2, seeds=[0]))
            assert len(run_experiment(cfg)) == 2

    def test_bad_init_box(self):
        cfg = config_from_dict(base_config(init_hypercube=[[0.0, 1.0]]))
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestConfigParsing:
    def test_defaults_by_strategy(self):
        active = config_from_dict(base_config(strategy="active_rls"))
        assert active.optimizer.variant == "direct_l"
        gradient = config_from_dict(base_config(strategy="random_gradient"))
        assert gradient.gradient.learning_rate == 0.05

    @pytest.mark.parametrize("section, expected", [
        (None, (60, "direct_l")),
        ({}, (60, "direct_l")),
        ({"max_evaluations": 30}, (30, "direct_l")),
        ({"variant": "direct"}, (60, "direct")),
    ])
    def test_partial_optimizer_section_keeps_the_active_defaults(self, section, expected):
        doc = base_config(strategy="active_rls")
        if section is not None:
            doc["optimizer"] = section
        optimizer = config_from_dict(doc).optimizer
        assert (optimizer.max_evaluations, optimizer.variant) == expected

    def test_rejects_unknown_fields_and_bad_values(self):
        with pytest.raises(ConfigError):
            config_from_dict(base_config(mystery=1))
        with pytest.raises(ConfigError):
            config_from_dict(base_config(strategy="annealing"))
        with pytest.raises(ConfigError):
            config_from_dict(base_config(iterations=0))
        with pytest.raises(ConfigError):
            config_from_dict(base_config(seeds=[]))
        with pytest.raises(ConfigError):
            config_from_dict(base_config(noise={"obs_variance": -1.0}))
        for key, value in (("state_noise_variance", 0.0), ("stabilizing_period", 10)):
            with pytest.raises(ConfigError):
                config_from_dict(base_config(noise={"obs_variance": 1e-4, key: value}))
        with pytest.raises(ConfigError):
            config_from_dict(base_config(strategy="active_rls",
                                         optimizer={"bounds": [[0.0, 1.0]] * 3}))

    @pytest.mark.parametrize("extra", [
        {"iterations": 2.0},
        {"probe_set_size": 5.0},
        {"strategy": "active_rls", "optimizer": {"max_evaluations": 10.0}},
        {"iterations": True},
        {"seeds": [0.5]},
        {"seeds": [-1]},
        {"probe_seed": -3},
    ])
    def test_rejects_non_integer_and_negative_counts(self, tmp_path, capsys, extra):
        with pytest.raises(ConfigError):
            config_from_dict(base_config(**extra))
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", write_config(tmp_path, **extra),
                     "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        {"init_variance": True},
        {"noise": {"obs_variance": True}},
        {"noise": {"obs_variance": 1e-4, "stabilizing_variance": True}},
        {"fov": {"camera_position": [1.0, 0.0, -2.0], "axis": [0.0, 1.0, 0.0],
                 "half_angle": True}},
        {"strategy": "random_gradient", "gradient": {"learning_rate": True}},
        {"strategy": "random_gradient", "gradient": {"learning_rate": 0.05, "decay": False}},
    ])
    def test_rejects_booleans_in_float_fields(self, tmp_path, capsys, extra):
        with pytest.raises(ConfigError, match="must be a number"):
            config_from_dict(base_config(**extra))
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", write_config(tmp_path, **extra),
                     "--out", str(out)]) == 1
        assert "must be a number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", _BAD_CONFIG_VALUES, ids=[
        f"{key}={'missing' if value is _MISSING else json.dumps(value)}"
        for key, value in _BAD_CONFIG_VALUES])
    def test_table_rejects_bad_values(self, tmp_path, capsys, key, value):
        # booleans, NaN and infinities are never numbers, and every error
        # names its dotted key before any seed runs
        doc = set_key(full_config(), key, value)
        if key in _REMOVED_KEYS:
            key = f"unknown key {key}"
        failures = []
        with pytest.raises(ConfigError, match=re.escape(key)):
            run_experiment(config_from_dict(doc), failures=failures)
        assert failures == []
        path, out = tmp_path / "config.json", tmp_path / "r.jsonl"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err
        assert not out.exists()

    def test_meta_round_trip(self):
        for strategy, unread in (("active_rls", "gradient"), ("random_gradient", "optimizer")):
            doc = full_config(strategy=strategy)
            del doc[unread]
            cfg = config_from_dict(doc)
            again = config_from_dict(config_to_meta(cfg))
            assert config_to_meta(again) == config_to_meta(cfg) == doc
            np.testing.assert_array_equal(again.fov.camera_position, [1.0, 0.0, -2.0])
            np.testing.assert_array_equal(again.fov.axis, [0.0, 1.0, 0.0])
            assert again.fov.half_angle == 0.7
        # numbers are echoed as given: an integer stays an integer, and a
        # box or a cone written with integers, its axis not of unit norm,
        # echoes as written while the run reads the unit axis
        fov = {"camera_position": [1, 0, -2], "axis": [0, 0, -2], "half_angle": 1}
        cfg = config_from_dict(base_config(init_variance=1, init_hypercube=[-1, 1], fov=fov))
        meta = config_to_meta(cfg)
        assert type(meta["init_variance"]) is int
        assert json.dumps(meta["init_hypercube"]) == "[-1, 1]"
        assert json.dumps(meta["fov"], sort_keys=True) == json.dumps(fov, sort_keys=True)
        np.testing.assert_array_equal(cfg.fov.axis, [0.0, 0.0, -1.0])
        assert config_to_meta(config_from_dict(meta)) == meta

    @pytest.mark.parametrize("strategy, section", [
        ("random_rls", {}),
        ("active_rls", {"optimizer": {"max_evaluations": 60, "variant": "direct_l"}}),
        ("random_gradient", {"gradient": {"learning_rate": 0.05, "decay": 0.0}}),
    ])
    def test_meta_fills_the_defaults_of_each_strategy(self, strategy, section):
        # a document with no optional key echoes every default, and the
        # section its strategy reads, and reads back to the same echo
        doc = {"chain": "planar3", "strategy": strategy, "iterations": 3, "seeds": [0, 1]}
        meta = config_to_meta(config_from_dict(doc))
        assert meta == {**doc, **section,
                        "noise": {"obs_variance": 1e-4, "stabilizing_variance": 0.0},
                        "init_hypercube": [-1.0, 1.0], "init_variance": 1.0,
                        "probe_set_size": 100, "probe_seed": 0}
        assert config_to_meta(config_from_dict(meta)) == meta

    @pytest.mark.parametrize("strategy, section", [
        ("random_rls", {"optimizer": {"variant": "direct"}}),
        ("random_gradient", {"optimizer": {}}),
        ("random_rls", {"gradient": {"learning_rate": 0.02}}),
        ("active_rls", {"gradient": {"learning_rate": 0.05, "decay": 0.0}}),
    ])
    def test_rejects_a_section_the_strategy_does_not_read(self, tmp_path, capsys,
                                                          strategy, section):
        # the run would never read it, and the meta line would echo it filled
        (key,) = section
        with pytest.raises(ConfigError, match=f"{key} .*{strategy}"):
            config_from_dict(base_config(strategy=strategy, **section))
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", write_config(tmp_path, strategy=strategy, **section),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and key in err and strategy in err
        assert not out.exists()

    @pytest.mark.parametrize("strategy", ["random_rls", "active_rls"])
    def test_rls_strategies_refuse_a_zero_obs_variance(self, tmp_path, capsys, strategy):
        # with R = 0 the filter's covariance turns indefinite and later
        # updates are skipped: refused before any seed runs, and a record
        # file whose meta line holds it does not read
        noise = {"obs_variance": 0.0}
        with pytest.raises(ConfigError, match=f"noise.obs_variance .*{strategy}"):
            config_from_dict(base_config(strategy=strategy, noise=noise))
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", write_config(tmp_path, strategy=strategy, noise=noise),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "noise.obs_variance" in err and strategy in err
        assert not out.exists()
        meta = config_to_meta(config_from_dict(base_config(strategy=strategy)))
        meta["noise"]["obs_variance"] = 0.0
        out.write_text(json.dumps({"type": "meta", "config": meta}) + "\n")
        with pytest.raises(ConfigError, match="noise.obs_variance"):
            read_records(str(out))

    def test_gradient_descent_accepts_a_zero_obs_variance(self):
        cfg = config_from_dict(base_config(strategy="random_gradient",
                                           noise={"obs_variance": 0.0}))
        assert cfg.noise.obs_variance == 0.0
        assert len(run_experiment(cfg)) == 6

    def test_readme_example_config_is_accepted(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert len(blocks) == 1
        doc = json.loads(blocks[0])
        cfg = config_from_dict(doc)
        assert config_to_meta(cfg)["noise"] == doc["noise"]

    def test_overrides(self, tmp_path):
        path = write_config(tmp_path)
        cfg = load_config(path, ["noise.obs_variance=0.01", "iterations=5",
                                 "chain=arm6"])
        assert cfg.noise.obs_variance == 0.01
        assert cfg.iterations == 5 and cfg.chain == "arm6"
        with pytest.raises(ConfigError):
            load_config(path, ["no-equals-sign"])

    def test_bad_files(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(bad))


class TestRecordsIO:
    def test_roundtrip(self, tmp_path):
        # seed 9 of the config failed: one failure line and no records
        cfg = config_from_dict(base_config(iterations=2, seeds=[3, 9]))
        records = [rec for rec in run_experiment(cfg) if rec.seed == 3]
        path = str(tmp_path / "out.jsonl")
        write_records(records, config_to_meta(cfg), path,
                      failures=[{"seed": 9, "error": "boom"}])
        meta, parsed, failures = read_records(path)
        assert meta["strategy"] == "random_rls" and meta["seeds"] == [3, 9]
        assert failures == [{"seed": 9, "error": "boom"}]
        assert len(parsed) == len(records)
        for a, b in zip(parsed, records):
            assert (a.seed, a.iteration) == (b.seed, b.iteration)
            assert a.orientation_error == b.orientation_error

    def test_csv_projection(self, tmp_path):
        cfg = config_from_dict(base_config(iterations=2, seeds=[0]))
        records = run_experiment(cfg)
        write_records(records, config_to_meta(cfg), str(tmp_path / "out.jsonl"))
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0].startswith("seed,iteration,orientation_error")
        assert len(lines) == 1 + len(records)

    def test_golden_bytes(self, tmp_path):
        # pins the on-disk format: sorted JSON keys, no wall clock in the
        # records or the CSV, one .timing line per timed record
        records = [ExperimentRecord(3, 1, 0.5, 0.25, 0.1, None, 0, None),
                   ExperimentRecord(3, 2, 0.375, 0.125, 0.0625, cost=1.5,
                                    fov_rejections=1, selection_seconds=0.75)]
        path = tmp_path / "golden.jsonl"
        write_records(records, {"chain": "planar3", "seeds": [3, 4]}, str(path),
                      failures=[{"seed": 4, "error": "boom"}])
        assert path.read_bytes() == (
            b'{"config": {"chain": "planar3", "seeds": [3, 4]}, "type": "meta"}\n'
            b'{"cost": null, "fov_rejections": 0, "iteration": 1, "location_error": 0.25, '
            b'"orientation_error": 0.5, "prediction_error": 0.1, "seed": 3, "type": "record"}\n'
            b'{"cost": 1.5, "fov_rejections": 1, "iteration": 2, "location_error": 0.125, '
            b'"orientation_error": 0.375, "prediction_error": 0.0625, "seed": 3, '
            b'"type": "record"}\n'
            b'{"error": "boom", "seed": 4, "type": "failure"}\n')
        assert (tmp_path / "golden.csv").read_bytes() == (
            b"seed,iteration,orientation_error,location_error,prediction_error,cost,"
            b"fov_rejections\r\n"
            b"3,1,0.5,0.25,0.1,,0\r\n"
            b"3,2,0.375,0.125,0.0625,1.5,1\r\n")
        assert (tmp_path / "golden.jsonl.timing").read_bytes() == (
            b'{"iteration": 2, "seed": 3, "selection_seconds": 0.75}\n')


class TestSummaries:
    def test_quantile(self):
        assert _quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
        assert _quantile([4.0, 1.0, 3.0, 2.0], 0.0) == 1.0
        assert _quantile([1.0, 2.0, 3.0], 0.5) == 2.0
        assert math.isinf(_quantile([1.0, float("inf")], 0.5))

    def test_iterations_to_threshold(self):
        records = [fake_record(0, 2, 0.04), fake_record(0, 1, 0.30),
                   fake_record(1, 1, 0.30), fake_record(1, 2, 0.30)]
        hits = iterations_to_threshold(records, "orientation_error", 0.05)
        assert hits[0] == 2
        assert math.isinf(hits[1])

    def test_summarize(self):
        records = []
        for seed, hit in ((0, 2), (1, 4), (2, None)):
            for it in range(1, 6):
                err = 0.01 if (hit is not None and it >= hit) else 0.5
                records.append(fake_record(seed, it, err, location=err,
                                           prediction=err))
        summary = summarize(records)
        assert summary["seeds"] == 3
        assert summary["converged_orientation"] == 2
        assert summary["iterations_to_orientation_threshold"]["median"] == 4
        assert summary["final_orientation_error"]["median"] == 0.01
        with pytest.raises(ValueError):
            summarize([])


class TestCommandLine:
    def test_run_is_byte_deterministic(self, tmp_path):
        path = write_config(tmp_path)
        out_a, out_b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["run", "--config", path, "--out", out_a]) == 0
        assert main(["run", "--config", path, "--out", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_active_run_keeps_timing_out_of_records(self, tmp_path):
        path = write_config(tmp_path, strategy="active_rls", seeds=[0], iterations=2)
        out_a, out_b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["run", "--config", path, "--out", out_a]) == 0
        assert main(["run", "--config", path, "--out", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()
        timing = [json.loads(line)
                  for line in open(out_a + ".timing").read().splitlines()]
        assert len(timing) == 2
        assert all(t["selection_seconds"] >= 0 for t in timing)
        # a random run over the same --out leaves no earlier timing behind
        assert main(["run", "--config", path, "--out", out_a,
                     "--override", "strategy=random_rls"]) == 0
        assert open(out_a + ".timing").read() == ""

    def test_cli_overrides_and_observations(self, tmp_path):
        # overrides are applied before validation, so the active default
        # optimizer is never echoed for a random run
        path = write_config(tmp_path, strategy="active_rls")
        out = str(tmp_path / "r.jsonl")
        obs = str(tmp_path / "obs.jsonl")
        code = main(["run", "--config", path, "--out", out,
                     "--override", "strategy=random_gradient", "--override", "seeds=[5]",
                     "--override", "iterations=2", "--override", "probe_set_size=5",
                     "--observations", obs])
        assert code == 0
        meta, records, _ = read_records(out)
        assert meta["strategy"] == "random_gradient" and "optimizer" not in meta
        assert meta["seeds"] == [5] and meta["probe_set_size"] == 5
        assert len(records) == 2
        assert len(open(obs).read().splitlines()) == 2

    def test_run_flags_are_overrides(self, tmp_path):
        # overriding strategy, seeds and iterations gives the bytes of a
        # config that sets them, and the active default optimizer of the
        # overridden strategy is never echoed for a random run
        active = tmp_path / "active.json"
        active.write_text(json.dumps(base_config(strategy="active_rls")))
        written = tmp_path / "random.json"
        written.write_text(json.dumps(base_config(strategy="random_rls", iterations=2, seeds=[0])))
        runs = {"written": [str(written)],
                "override": [str(active), "--override", "strategy=random_rls",
                             "--override", "seeds=[0]", "--override", "iterations=2"]}
        for name, (config, *flags) in runs.items():
            assert main(["run", "--config", config, "--out",
                         str(tmp_path / f"{name}.jsonl"), *flags]) == 0
        assert (tmp_path / "written.jsonl").read_bytes() == \
            (tmp_path / "override.jsonl").read_bytes()
        assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "override.csv").read_bytes()
        meta, records, _ = read_records(str(tmp_path / "override.jsonl"))
        assert "optimizer" not in meta
        assert meta["seeds"] == [0] and len(records) == 2

    def test_summarize_json_rejects_shared_labels(self, tmp_path, capsys):
        path = write_config(tmp_path, iterations=2)
        outs = [str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        for out in outs:
            assert main(["run", "--config", path, "--out", out]) == 0
        capsys.readouterr()
        json_out = tmp_path / "summary.json"
        assert main(["summarize", "--in", outs[0], "--in", outs[1],
                     "--json", str(json_out)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and outs[0] in err and outs[1] in err
        assert not json_out.exists()
        assert main(["summarize", "--in", outs[0], "--in", outs[1]]) == 0

    @pytest.mark.parametrize("line", [
        "not json", '{"seed": 0, "iteration": 1, "mystery": 1}', '{"seed": 0}', "[1, 2]", "5",
        # a record without a type, one of an unknown type, and a second meta line
        '{"seed": 0, "iteration": 3, "orientation_error": 0.1, "location_error": 0.1, '
        '"prediction_error": 0.1}',
        '{"type": "recrod", "seed": 0, "iteration": 3, "orientation_error": 0.1, '
        '"location_error": 0.1, "prediction_error": 0.1}',
        '{"type": "meta", "config": {"strategy": "active_rls"}}', '{"type": "meta"}',
        # a record with a wall-clock field, and a failure with a stray key
        '{"type": "record", "seed": 0, "iteration": 3, "orientation_error": 0.1, '
        '"location_error": 0.1, "prediction_error": 0.1, "cost": null, "fov_rejections": 0, '
        '"selection_seconds": 0.5}',
        '{"type": "failure", "bogus": 1}',
        # a null error, a seed that is not an integer, and a second record
        # of seed 0 iteration 1
        '{"type": "record", "seed": 0, "iteration": 3, "orientation_error": null, '
        '"location_error": 0.1, "prediction_error": 0.1, "cost": null, "fov_rejections": 0}',
        '{"type": "record", "seed": "zero", "iteration": 3, "orientation_error": 0.1, '
        '"location_error": 0.1, "prediction_error": 0.1, "cost": null, "fov_rejections": 0}',
        '{"type": "record", "seed": 0, "iteration": 1, "orientation_error": 0.1, '
        '"location_error": 0.1, "prediction_error": 0.1, "cost": null, "fov_rejections": 0}',
    ])
    def test_summarize_rejects_malformed_record_files(self, tmp_path, capsys, line):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", write_config(tmp_path, iterations=2),
                     "--out", str(out)]) == 0
        good_lines = len(out.read_text().splitlines())
        with open(out, "a") as fh:
            fh.write(line + "\n")
        where = f"{out}:{good_lines + 1}"
        with pytest.raises(ConfigError, match=re.escape(where)):
            read_records(str(out))
        capsys.readouterr()
        assert main(["summarize", "--in", str(out)]) == 1
        assert where in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", '{"type": "meta", "config": [1]}\n',
                                      '{"type": "record", "seed": 0, "iteration": 1, '
                                      '"orientation_error": 0.1, "location_error": 0.1, '
                                      '"prediction_error": 0.1}\n',
                                      # a meta config that is not a config document
                                      '{"type": "meta", "config": {"chain": "planar3"}}\n',
                                      # and a meta line without a config
                                      '{"type": "meta"}\n'])
    def test_read_records_needs_a_leading_meta_line(self, tmp_path, text):
        path = tmp_path / "r.jsonl"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{path}:1")):
            read_records(str(path))

    @pytest.mark.parametrize("edit", [
        # a cone whose axis has no direction, which config_from_dict refuses
        lambda config: set_key(config, "fov.axis", [0, 0, 0]),
        # a filled default left out: no run writes that meta line
        lambda config: set_key(config, "probe_seed", _MISSING),
        lambda config: set_key(config, "noise.stabilizing_variance", _MISSING),
    ], ids=["zero-axis", "no-probe-seed", "no-stabilizing-variance"])
    def test_read_records_needs_a_meta_line_a_run_could_write(self, tmp_path, capsys, edit):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", write_config(tmp_path, iterations=2, fov=PLANAR3_CONE),
                     "--out", str(out)]) == 0
        meta, *lines = out.read_text().splitlines()
        doc = json.loads(meta)
        doc["config"] = edit(doc["config"])
        out.write_text("\n".join([json.dumps(doc, sort_keys=True)] + lines) + "\n")
        with pytest.raises(ConfigError, match=re.escape(f"{out}:1")):
            read_records(str(out))
        capsys.readouterr()
        assert main(["summarize", "--in", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"{out}:1" in captured.err and captured.out == ""

    @pytest.mark.parametrize("edit, seed", [
        # a failure line for a seed that has records
        (lambda lines: lines + [FAILURE % 0], 0),
        # two failure lines for a seed without records
        (lambda lines: [ln for ln in lines if '"seed": 1,' not in ln] + [FAILURE % 1] * 2, 1),
        # failure lines, or a record, for a seed the meta line does not list
        (lambda lines: lines + [FAILURE % 5] * 2, 5),
        (lambda lines: lines + [lines[1].replace('"seed": 0,', '"seed": 7,')], 7),
        # a seed without its first iteration, and a seed without any line
        (lambda lines: lines[:1] + lines[2:], 0),
        (lambda lines: [ln for ln in lines if '"seed": 1,' not in ln], 1),
    ], ids=["failed-recorded-seed", "two-failures", "unlisted-failed-seed", "unlisted-record",
            "missing-iteration", "missing-seed"])
    def test_read_records_checks_the_file_as_a_whole(self, tmp_path, capsys, edit, seed):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", write_config(tmp_path, iterations=4),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert '"seed": 0,' in lines[1] and '"iteration": 1,' in lines[1]
        out.write_text("\n".join(edit(lines)) + "\n")
        where = f"{out}: seed {seed} "
        with pytest.raises(ConfigError, match=re.escape(where)):
            read_records(str(out))
        capsys.readouterr()
        assert main(["summarize", "--in", str(out)]) == 1
        captured = capsys.readouterr()
        assert where in captured.err and captured.out == ""

    def test_summarize_thresholds_are_fixed(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", write_config(tmp_path, iterations=2),
                     "--out", str(out)]) == 0
        for flag in ("--orientation-threshold", "--location-threshold"):
            with pytest.raises(SystemExit) as exc:
                main(["summarize", "--in", str(out), flag, "0.1"])
            assert exc.value.code == 2
        json_out = tmp_path / "s.json"
        assert main(["summarize", "--in", str(out), "--json", str(json_out)]) == 0
        summary = json.loads(json_out.read_text())["random_rls"]
        assert (summary["orientation_threshold"], summary["location_threshold"]) == (0.05, 0.02)

    @pytest.mark.parametrize("target", ["", "missing/s.json", "r.jsonl",
                                        pytest.param(None, id="empty-path")])
    def test_summarize_json_path_fails_before_any_input_is_read(self, tmp_path, capsys,
                                                                target):
        # a directory, a file in a missing directory, or a record file
        # that the summary would overwrite (here spelt through "."), or
        # the empty path itself
        out = tmp_path / "r.jsonl"
        assert main(["run", "--config", write_config(tmp_path, iterations=2),
                     "--out", str(out)]) == 0
        before = out.read_bytes()
        capsys.readouterr()
        bad = "" if target is None else os.path.join(tmp_path, ".", target)
        assert main(["summarize", "--in", str(out), "--json", bad]) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and bad in captured.err
        assert captured.out == ""
        assert out.read_bytes() == before and not (tmp_path / "missing").exists()
        assert main(["summarize", "--in", str(out)]) == 0

    @pytest.mark.parametrize("flag, bad", [("--out", "missing/x.jsonl"),
                                           ("--observations", "missing/x.jsonl"),
                                           ("--out", ""),
                                           ("--out", "obs.csv"),
                                           ("--observations", "r.jsonl"),
                                           ("--observations", "r.csv"),
                                           ("--observations", "r.jsonl.timing"),
                                           ("--out", "config.json"),
                                           ("--observations", "config.json"),
                                           ("--out", "chain.json")])
    def test_bad_output_path_fails_before_any_seed(self, tmp_path, capsys, monkeypatch,
                                                   flag, bad):
        def unexpected_measure(gt, q, rng):
            raise AssertionError("a seed ran")

        monkeypatch.setattr(kincal.cli, "measure", unexpected_measure)
        chain = tmp_path / "chain.json"
        save_chain(builtin_chain("planar3").params, chain)
        path = write_config(tmp_path, chain=str(chain))
        inputs = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        # a missing directory, an existing one, a file that the run
        # writes twice (records as their own CSV projection, or
        # observations over the records, their CSV or their .timing), or
        # an input: the config or the chain file
        bad = str(tmp_path / bad)
        paths = {"--out": str(tmp_path / "r.jsonl"),
                 "--observations": str(tmp_path / "obs.jsonl"), flag: bad}
        assert main(["run", "--config", path, *itertools.chain(*paths.items())]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and bad in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == inputs
        if bad in (path, str(chain)):
            assert ("--config file" if bad == path else "chain file") in err

    def test_summarize_rejects_unreadable_record_files(self, tmp_path, capsys):
        for path in (str(tmp_path / "missing.jsonl"), str(tmp_path)):
            with pytest.raises(ConfigError, match=re.escape(repr(path))):
                read_records(path)
            assert main(["summarize", "--in", path]) == 1
            captured = capsys.readouterr()
            assert "error:" in captured.err and path in captured.err
            assert captured.out == ""

    def test_summarize_command(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = str(tmp_path / "r.jsonl")
        main(["run", "--config", path, "--out", out])
        capsys.readouterr()
        json_out = str(tmp_path / "summary.json")
        assert main(["summarize", "--in", out, "--json", json_out]) == 0
        text = capsys.readouterr().out
        assert "random_rls" in text and "iterations to orientation" in text
        doc = json.loads(open(json_out).read())
        assert doc["random_rls"]["seeds"] == 2

    def test_module_entry_point_loads_cli_once(self):
        # kincal/__init__.py must not import cli, or python -m kincal.cli
        # loads it twice and warns
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "kincal.cli",
                               "--help"], env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "usage: kincal" in done.stdout

    def test_fixtures_command(self, capsys):
        assert main(["fixtures"]) == 0
        text = capsys.readouterr().out
        for name in ("planar3", "arm6", "arm12"):
            assert name in text

    def test_unknown_log_level_is_an_error(self, monkeypatch, capsys):
        monkeypatch.setenv("KINCAL_LOG", "verbose")
        assert main(["fixtures"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: KINCAL_LOG must be one of DEBUG, INFO, WARNING, "
                                "ERROR, CRITICAL, got 'verbose'\n")
        # a level name in any case is a level
        monkeypatch.setenv("KINCAL_LOG", "debug")
        assert main(["fixtures"]) == 0

    def test_config_errors_exit_nonzero(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "r.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

        path = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:  # --out is a required flag
            main(["run", "--config", path])
        assert exc.value.code == 2
        assert main(["run", "--config", path, "--out", ""]) == 1
        assert main(["run", "--config", path, "--out", str(tmp_path / "r.jsonl"),
                     "--observations", ""]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        # a zero iteration count or an empty seed list is an error
        for override in ("iterations=0", "seeds=[]"):
            assert main(["run", "--config", path, "--out", str(tmp_path / "r.jsonl"),
                         "--override", override]) == 1
        # the settings have no flags of their own
        for flag in ("--strategy", "--seeds", "--iterations"):
            with pytest.raises(SystemExit) as exc:
                main(["run", "--config", path, "--out", str(tmp_path / "r.jsonl"), flag, "0"])
            assert exc.value.code == 2
        assert not (tmp_path / "r.jsonl").exists()
