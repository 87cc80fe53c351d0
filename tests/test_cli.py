import json
import math

import numpy as np
import pytest

from kincal.cli import (ConfigError, ExperimentRecord, _quantile, config_from_dict,
                        config_to_meta, iterations_to_threshold, load_config, main,
                        read_records, resolve_ground_truth, run_experiment,
                        summarize, write_records)
from kincal.estimator import NoiseConfig
from kincal.kinematics import save_chain
from kincal.sim import builtin_chain


def base_config(**extra):
    doc = {"chain": "planar3", "strategy": "random_rls", "iterations": 3,
           "seeds": [0, 1], "noise": {"obs_variance": 1e-4},
           "probe_set_size": 10}
    doc.update(extra)
    return doc


def write_config(tmp_path, **extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base_config(**extra)))
    return str(path)


def fake_record(seed, iteration, orientation, location=1.0, prediction=1.0):
    return ExperimentRecord(seed, iteration, orientation, location, prediction)


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

    def test_programming_error_in_seed_propagates(self, monkeypatch):
        def broken_measure(gt, q, rng):
            raise TypeError("broken measure")

        monkeypatch.setattr("kincal.cli.measure", broken_measure)
        with pytest.raises(TypeError, match="broken measure"):
            run_experiment(config_from_dict(base_config()), failures=[])

    def test_chain_file_input(self, tmp_path):
        path = tmp_path / "chain.json"
        save_chain(builtin_chain("planar3").params, path)
        cfg = config_from_dict(base_config(chain=str(path), iterations=2))
        assert len(run_experiment(cfg)) == 4

    def test_missing_chain(self):
        with pytest.raises(ConfigError):
            resolve_ground_truth(config_from_dict(base_config(chain="nope.json")))

    def test_fov_starves_probe_set(self):
        fov = {"camera_position": [100.0, 0.0, 0.0], "axis": [1.0, 0.0, 0.0],
               "half_angle": 1e-4}
        cfg = config_from_dict(base_config(fov=fov, probe_set_size=2))
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_scalar_joint_limits(self):
        cfg = config_from_dict(base_config(joint_limits=0.25))
        gt = resolve_ground_truth(cfg)
        np.testing.assert_array_equal(gt.joint_limits,
                                      np.tile([-0.25, 0.25], (3, 1)))

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
        cfg = config_from_dict(base_config(iterations=2, seeds=[3]))
        records = run_experiment(cfg)
        path = str(tmp_path / "out.jsonl")
        write_records(records, config_to_meta(cfg), path,
                      failures=[{"seed": 9, "error": "boom"}])
        meta, parsed, failures = read_records(path)
        assert meta["strategy"] == "random_rls" and meta["seeds"] == [3]
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
        path = write_config(tmp_path, strategy="active_rls", seeds=[0],
                            iterations=2,
                            optimizer={"max_evaluations": 15, "variant": "direct_l"})
        out_a, out_b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["run", "--config", path, "--out", out_a]) == 0
        assert main(["run", "--config", path, "--out", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()
        timing = [json.loads(line)
                  for line in open(out_a + ".timing").read().splitlines()]
        assert len(timing) == 2
        assert all(t["selection_seconds"] >= 0 for t in timing)

    def test_cli_overrides_and_observations(self, tmp_path):
        path = write_config(tmp_path)
        out = str(tmp_path / "r.jsonl")
        obs = str(tmp_path / "obs.jsonl")
        code = main(["run", "--config", path, "--out", out,
                     "--strategy", "random_gradient", "--seeds", "5",
                     "--iterations", "2", "--override", "probe_set_size=5",
                     "--observations", obs])
        assert code == 0
        meta, records, _ = read_records(out)
        assert meta["strategy"] == "random_gradient"
        assert meta["seeds"] == [5] and meta["probe_set_size"] == 5
        assert len(records) == 2
        assert len(open(obs).read().splitlines()) == 2

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

    def test_fixtures_command(self, capsys):
        assert main(["fixtures"]) == 0
        text = capsys.readouterr().out
        for name in ("planar3", "arm6", "arm12"):
            assert name in text

    def test_config_errors_exit_nonzero(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "r.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

        path = write_config(tmp_path)
        assert main(["run", "--config", path]) == 1  # no output path anywhere
