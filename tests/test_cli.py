"""End-to-end tests for the command-line interface."""

import csv
import json
import subprocess
import sys
from dataclasses import replace

import pytest
import yaml

from dsinkhorn import config as cfgmod
from dsinkhorn import experiments, netsim, otcore
from dsinkhorn.cli import main
from dsinkhorn.engine import simulate_lanes
from dsinkhorn.experiments import CheckResult, VerificationReport
from reference import trace_rows


def _base_tree():
    return {
        "problem": {"d": 16, "epsilon": 0.5},
        "network": {"topology_kind": "complete", "params": {"n": 4}},
        "comms": {"delta": 1e-3, "bits": "unquantized", "tau_inner": 1e-4,
                  "tau_outer": 1e-6, "inner_step_cap": 200, "outer_iter_cap": 60},
        "seeds": [0, 1],
    }


def _write_cfg(tmp_path, tree, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree))
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParser:
    def test_missing_config_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["centralized"])
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x.yaml"])
        assert exc.value.code == 2


class TestCentralized:
    def test_writes_barycenter_and_trace(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _base_tree())
        out = tmp_path / "out"
        rc = main(["centralized", "--config", cfg, "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "centralized: iterations=" in captured.out
        assert "converged=True" in captured.out

        bary = _read_csv(out / "barycenter.csv")
        assert len(bary) == 16
        assert list(bary[0]) == ["support_x", "mass"]
        total = sum(float(r["mass"]) for r in bary)
        assert total == pytest.approx(1.0, abs=1e-9)
        assert float(bary[0]["support_x"]) == 0.0
        assert float(bary[-1]["support_x"]) == 1.0

        trace = _read_csv(out / "centralized_trace.csv")
        assert list(trace[0]) == ["iteration", "log_v_change_linf"]
        assert int(trace[0]["iteration"]) == 1
        assert (out / "config_resolved.json").exists()

    def test_cap_hit_returns_two(self, tmp_path, capsys):
        tree = _base_tree()
        tree["comms"]["outer_iter_cap"] = 1
        tree["comms"]["tau_outer"] = 1e-12
        cfg = _write_cfg(tmp_path, tree)
        rc = main(["centralized", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "converged=False" in capsys.readouterr().out


class TestRun:
    def test_artifacts_and_exit_code(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _base_tree())
        out = tmp_path / "out"
        rc = main(["run", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert "run: error_max=" in capsys.readouterr().out

        metrics = json.loads((out / "run_metrics.json").read_text())
        assert len(metrics["runs"]) == 2
        agg = metrics["aggregate"]
        assert set(agg) == {"error_max", "error_mean", "messages_total_mean",
                            "bias_bound", "all_converged"}
        assert agg["all_converged"] is True
        assert agg["error_max"] <= agg["bias_bound"]

        trace = _read_csv(out / "trace.csv")
        assert {r["variant"] for r in trace} == {"always_on", "triggered"}

        overlap = _read_csv(out / "overlap.csv")
        assert len(overlap) == 16
        assert list(overlap[0]) == ["support_x", "b_star",
                                    "b_tilde_min", "b_tilde_max"]

    def test_always_on_rows_equal_a_separate_zero_delta_run(self, tmp_path):
        # the always-on twin is one more lane of the run's batch
        tree = _base_tree()
        tree["comms"]["outer_iter_cap"] = 5
        tree["seeds"] = [3, 4]
        cfg = _write_cfg(tmp_path, tree)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        resolved = cfgmod.run_config_from_dict(tree)
        instance = cfgmod.build_instance(resolved)
        topology = cfgmod.build_topology_from_spec(resolved.network)
        expected = []
        for variant, delta in (("always_on", 0.0), ("triggered", resolved.comms.delta)):
            (record,) = simulate_lanes(instance, topology, [(replace(resolved.comms, delta=delta), 3)],
                                       resolved.channel, resolved.activation)
            expected += trace_rows(variant, record)
        trace = _read_csv(out / "trace.csv")
        assert len(trace) == len(expected)
        for row, want in zip(trace, expected):
            assert row == {k: str(v) for k, v in want.items()}

    def test_first_failing_seed_exits_one(self, tmp_path, capsys):
        # a 1-bit quantizer over a 2000-wide clip range sends +-1000 payloads,
        # so exp(z) overflows; where and when depends on the seed, and seed 0
        # fails last (outer iteration 4, after seeds 1 and 2)
        tree = {
            "problem": {"d": 16, "epsilon": 0.5},
            "network": {"topology_kind": "ring", "params": {"n": 4}},
            "comms": {"delta": 0.0, "bits": 1, "s_min": -1002.7, "s_max": 997.3,
                      "tau_outer": 1e-300, "inner_step_cap": 20, "outer_iter_cap": 6},
            "activation": {"mode": "randomized_subset", "p_active": 0.2},
            "seeds": [0, 1, 2, 3],
        }
        resolved = cfgmod.run_config_from_dict(tree)
        instance = cfgmod.build_instance(resolved)
        topology = cfgmod.build_topology_from_spec(resolved.network)
        errors = []
        for seed in resolved.seeds:
            try:
                experiments.run_decentralized(instance, topology, resolved.comms, resolved.channel,
                                              resolved.activation, seed=seed)
            except ValueError as exc:
                errors.append(str(exc))
        assert len(errors) == len(resolved.seeds) and len(set(errors)) == len(errors)
        rc = main(["run", "--config", _write_cfg(tmp_path, tree), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {errors[0]}\n"
        assert errors[0].startswith("node ") and "at outer iteration" in errors[0]

    def test_zero_delta_trace_has_single_variant(self, tmp_path):
        tree = _base_tree()
        tree["comms"]["delta"] = 0.0
        tree["comms"]["outer_iter_cap"] = 10
        tree["seeds"] = [0]
        cfg = _write_cfg(tmp_path, tree)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        trace = _read_csv(out / "trace.csv")
        assert {r["variant"] for r in trace} == {"always_on"}

    def test_cap_hit_returns_two(self, tmp_path):
        tree = _base_tree()
        tree["comms"]["outer_iter_cap"] = 2
        tree["comms"]["tau_outer"] = 1e-13
        tree["seeds"] = [0]
        cfg = _write_cfg(tmp_path, tree)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_output_dir_from_config(self, tmp_path):
        tree = _base_tree()
        tree["seeds"] = [0]
        tree["output_dir"] = str(tmp_path / "fromcfg")
        cfg = _write_cfg(tmp_path, tree)
        rc = main(["run", "--config", cfg])
        assert rc == 0
        assert (tmp_path / "fromcfg" / "run_metrics.json").exists()

    def test_determinism_up_to_wall_clock(self, tmp_path):
        cfg = _write_cfg(tmp_path, _base_tree())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", cfg, "--out", str(out_a)])
        main(["run", "--config", cfg, "--out", str(out_b)])
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "overlap.csv").read_bytes() == (out_b / "overlap.csv").read_bytes()

        def masked(path):
            tree = json.loads(path.read_text())
            for run in tree["runs"]:
                run.pop("wall_clock_seconds")
            return tree

        assert masked(out_a / "run_metrics.json") == masked(out_b / "run_metrics.json")

    def test_deterministic_seeds_match_their_own_runs(self, tmp_path):
        # on a synchronous lossless channel the seed drives nothing: every
        # seed's run is its own full run, and the trace is the first seed's
        tree = dict(_base_tree(), seeds=[0, 1, 2])
        assert main(["run", "--config", _write_cfg(tmp_path, tree), "--out", str(tmp_path / "all")]) == 0
        one = _write_cfg(tmp_path, dict(tree, seeds=[0]), "one.yaml")
        assert main(["run", "--config", one, "--out", str(tmp_path / "one")]) == 0
        resolved = cfgmod.run_config_from_dict(tree)
        instance = cfgmod.build_instance(resolved)
        topology = cfgmod.build_topology_from_spec(resolved.network)
        oracle = experiments.centralized_oracle(instance)
        alone = [experiments.run_decentralized(instance, topology, resolved.comms, resolved.channel,
                                               resolved.activation, seed=seed, oracle=oracle)[0]
                 for seed in tree["seeds"]]
        experiments.write_json(str(tmp_path / "alone.json"), alone)

        def timeless(runs):
            return [{k: v for k, v in run.items() if k != "wall_clock_seconds"} for run in runs]

        runs = json.loads((tmp_path / "all" / "run_metrics.json").read_text())["runs"]
        assert [run["seed"] for run in runs] == tree["seeds"]
        assert timeless(runs) == timeless(json.loads((tmp_path / "alone.json").read_text()))
        assert (tmp_path / "all" / "trace.csv").read_bytes() == (tmp_path / "one" / "trace.csv").read_bytes()

    def test_inert_delta_warns_and_traces_the_zero_delta_run(self, tmp_path, capsys):
        # delta=1e-3 is at most delta_q/2 at 12 bits (3.7e-3) and above it at
        # 16 bits (2.3e-4)
        tree = dict(_base_tree(), seeds=[0])
        tree["comms"].update(bits=12, outer_iter_cap=5)
        assert main(["run", "--config", _write_cfg(tmp_path, tree), "--out", str(tmp_path / "q12")]) in (0, 2)
        assert capsys.readouterr().err == (
            "warning: comms.delta=0.001 is at most half the quantizer step (delta_q=0.00732601): "
            "it sends exactly what delta=0 sends\n")
        trace = _read_csv(tmp_path / "q12" / "trace.csv")
        variants = {v: [[r[k] for k in ("round", "outer_iter", "inner_step", "residual")]
                        for r in trace if r["variant"] == v] for v in ("always_on", "triggered")}
        assert variants["always_on"] and variants["always_on"] == variants["triggered"]
        tree["comms"]["bits"] = 16
        main(["run", "--config", _write_cfg(tmp_path, tree), "--out", str(tmp_path / "q16")])
        assert "warning" not in capsys.readouterr().err


    @pytest.mark.parametrize("command", ["run", "verify"])
    @pytest.mark.parametrize("comms, cause", [
        ({"delta": float("inf")}, "the perturbation tau_inner + delta + delta_q is infinite (delta=inf)"),
        ({"s_min": -1000.0, "s_max": 30.0}, "exp over- or underflows at the clip range [-1000, 30]"),
    ])
    def test_an_infinite_bias_bound_warns_once_on_one_line(self, tmp_path, capsys, command, comms, cause):
        # the bound is +inf for the config's comms (and, at the wide clip
        # range, for every tracking run of verify): the CLI names the cause
        # once, with no source location
        tree = dict(_base_tree(), seeds=[0])
        tree["comms"].update(comms, bits=16, inner_step_cap=40, outer_iter_cap=5)
        assert main([command, "--config", _write_cfg(tmp_path, tree), "--out", str(tmp_path / "o")]) in (0, 2, 4)
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "bias bound" in line] == [f"warning: steady-state bias bound is +inf: {cause}"]

    def test_run_metrics_per_outer_iter_is_bounded(self, tmp_path):
        # per-round residuals live only in trace.csv: the JSON keeps one
        # summary per outer iteration, and the trace equals the one a batch
        # that keeps every lane's residuals gives for seed 0 and its twin
        tree = dict(_base_tree(), seeds=[4, 5, 6],
                    channel={"drop_prob": 0.2, "max_staleness": 2},
                    activation={"mode": "randomized_subset", "p_active": 0.5})
        tree["comms"].update(bits=16, inner_step_cap=30, outer_iter_cap=4)
        out = tmp_path / "out"
        assert main(["run", "--config", _write_cfg(tmp_path, tree), "--out", str(out)]) in (0, 2)
        runs = json.loads((out / "run_metrics.json").read_text())["runs"]
        assert len(runs) == 3
        for run in runs:
            assert len(run["per_outer_iter"]) == run["outer_iters"]
            for entry in run["per_outer_iter"]:
                assert list(entry) == ["outer_iter", "inner_steps_used", "log_v_change_linf",
                                       "consensus_residual_last"]
        resolved = cfgmod.run_config_from_dict(tree)
        instance = cfgmod.build_instance(resolved)
        topology = cfgmod.build_topology_from_spec(resolved.network)
        lanes = [(resolved.comms, seed) for seed in resolved.seeds]
        lanes.append((replace(resolved.comms, delta=0.0), resolved.seeds[0]))
        records = simulate_lanes(instance, topology, lanes, resolved.channel, resolved.activation)
        with open(tmp_path / "expected.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, ["variant", "round", "outer_iter", "inner_step", "residual"])
            writer.writeheader()
            writer.writerows(trace_rows("always_on", records[-1]) + trace_rows("triggered", records[0]))
        assert (out / "trace.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


class TestOverrides:
    def test_override_lands_in_resolved_config(self, tmp_path):
        cfg = _write_cfg(tmp_path, _base_tree())
        out = tmp_path / "out"
        rc = main(["centralized", "--config", cfg, "--out", str(out),
                   "--override", "comms.delta=0.05", "problem.d=8"])
        assert rc == 0
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert resolved["comms"]["delta"] == 0.05
        assert resolved["problem"]["d"] == 8

    def test_exponent_override(self, tmp_path):
        cfg = _write_cfg(tmp_path, _base_tree())
        out = tmp_path / "out"
        rc = main(["centralized", "--config", cfg, "--out", str(out),
                   "--override", "comms.tau_outer=1e-6", "problem.epsilon=5e-1"])
        assert rc == 0
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert resolved["comms"]["tau_outer"] == 1e-6
        assert resolved["problem"]["epsilon"] == 0.5

    def test_json_config_with_exponents(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_tree()))
        assert "1e-06" in path.read_text()
        out = tmp_path / "out"
        rc = main(["centralized", "--config", str(path), "--out", str(out)])
        assert rc == 0
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert resolved["comms"]["tau_outer"] == 1e-6

    def test_malformed_override_is_config_error(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _base_tree())
        rc = main(["centralized", "--config", cfg, "--out", str(tmp_path / "o"),
                   "--override", "comms.delta"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSweep:
    def _sweep_tree(self, variable, values):
        tree = _base_tree()
        tree["comms"]["outer_iter_cap"] = 10
        tree["sweep"] = {"variable": variable, "values": values}
        return tree

    def test_delta_sweep_writes_table(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, self._sweep_tree("delta", [1e-3, 1e-2]))
        out = tmp_path / "out"
        rc = main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert "sweep: 2 rows written" in capsys.readouterr().out
        rows = _read_csv(out / "sweep.csv")
        assert [r["value"] for r in rows] == ["0.001", "0.01"]
        resolved = json.loads((out / "config_resolved.json").read_text())
        assert resolved["sweep"] == {"variable": "delta", "values": [1e-3, 1e-2]}

    def test_an_inert_delta_sweep_warns_for_each_value(self, tmp_path, capsys):
        # at 12 bits both deltas are at most delta_q/2 (3.7e-3), so both
        # rows hold the delta=0 run, and each value warns as ``run`` does
        tree = dict(self._sweep_tree("delta", [1e-4, 1e-3]), seeds=[0])
        tree["comms"].update(bits=12, outer_iter_cap=5)
        assert main(["sweep", "--config", _write_cfg(tmp_path, tree), "--out", str(tmp_path / "sweep")]) == 0
        warnings = capsys.readouterr().err
        rows = [{k: v for k, v in r.items() if k != "value" and not k.startswith("runtime")}
                for r in _read_csv(tmp_path / "sweep" / "sweep.csv")]
        assert len(rows) == 2 and rows[0] == rows[1]
        run_warnings = ""
        for delta in (1e-4, 1e-3):
            run = {k: v for k, v in tree.items() if k != "sweep"}
            run["comms"] = dict(tree["comms"], delta=delta)
            assert main(["run", "--config", _write_cfg(tmp_path, run), "--out", str(tmp_path / "run")]) in (0, 2)
            run_warnings += capsys.readouterr().err
        assert warnings == run_warnings and warnings.count("warning: comms.delta=") == 2

    def test_n_sweep_writes_scaling_table(self, tmp_path):
        tree = self._sweep_tree("N", [4, 9])
        tree["problem"]["d"] = 8
        tree["network"] = {"topology_kind": "grid2d", "params": {"rows": 2, "cols": 2}}
        tree["seeds"] = [0]
        cfg = _write_cfg(tmp_path, tree)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "scaling.csv")
        assert [r["N"] for r in rows] == ["4", "9"]

    def test_d_sweep_writes_support_table(self, tmp_path):
        tree = self._sweep_tree("d", [8, 16])
        tree["comms"]["delta"] = 0.0
        tree["seeds"] = [0]
        cfg = _write_cfg(tmp_path, tree)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "support.csv")
        assert [r["d"] for r in rows] == ["8", "16"]

    @pytest.mark.parametrize("variable, values", [
        ("delta", [1e-3, 1e-2]), ("bits", [8, 16]), ("tau_inner", [1e-5, 1e-4]), ("drop_prob", [0.0, 0.1]),
        ("d", [8, 16]),
    ])
    def test_unsolvable_shared_reference_exits_one(self, tmp_path, capsys, variable, values):
        # every value shares the base's reference (d: the largest d's), which
        # is solved once, before any run: its failure is the command's
        tree = self._sweep_tree(variable, values)
        tree["problem"]["epsilon"] = 1e-9  # exp(-C/epsilon) underflows
        out = tmp_path / "out"
        rc = main(["sweep", "--config", _write_cfg(tmp_path, tree), "--out", str(out)])
        assert rc == 1
        # an inert value (delta=1e-3 at 8 bits) warns first, as in ``run``
        *warnings, error = capsys.readouterr().err.splitlines()
        assert error.startswith("error: exp(-C/epsilon) underflowed")
        assert len(warnings) == (variable == "bits") and all(w.startswith("warning: comms.delta=") for w in warnings)
        assert not (out / "failures.json").exists()

    def test_failed_runs_exit_three(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, self._sweep_tree("epsilon", [1e-9]))
        out = tmp_path / "out"
        rc = main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "failed" in capsys.readouterr().err
        failures = json.loads((out / "failures.json").read_text())
        assert len(failures) == 2

    def test_missing_sweep_section(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, _base_tree())
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "sweep: section required" in capsys.readouterr().err

    def test_unknown_sweep_field(self, tmp_path, capsys):
        tree = self._sweep_tree("delta", [1e-3])
        tree["sweep"]["step"] = 2
        cfg = _write_cfg(tmp_path, tree)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "sweep.step: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("section, message", [
        ("{1: 2, foo: 3, variable: N, values: [4]}", "sweep.1: unknown field"),
        ("{variable: N, values: [2020-01-01]}", "sweep.values: '2020-01-01' is not a number"),
    ])
    def test_sweep_section_keys_and_dates(self, tmp_path, capsys, section, message):
        cfg = _write_cfg(tmp_path, _base_tree())
        with open(cfg, "a") as fh:
            fh.write(f"sweep: {section}\n")
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bad_variable(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, self._sweep_tree("gamma", [1]))
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "sweep.variable" in capsys.readouterr().err

    def test_unquantized_bits_sweep(self, tmp_path):
        tree = self._sweep_tree("bits", ["unquantized", 8])
        tree["seeds"] = [0]
        cfg = _write_cfg(tmp_path, tree)
        out = tmp_path / "out"
        rc = main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 0
        rows = _read_csv(out / "sweep.csv")
        assert [r["value"] for r in rows] == ["unquantized", "8"]
        assert all(r["n_failed"] == "0" for r in rows)

    def test_non_numeric_value_is_config_error(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, self._sweep_tree("delta", [1e-3, "abc"]))
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "sweep.values:" in capsys.readouterr().err

    @pytest.mark.parametrize("variable, values, message", [
        ("bits", [8.7, 12], "sweep.values: 8.7: comms.bits"),
        ("N", [4, 5], "sweep.values: 5: network.params"),
        ("drop_prob", [0.0, 1.0], "sweep.values: 1.0: channel.drop_prob"),
    ])
    def test_invalid_value_exits_before_any_run(self, tmp_path, capsys, variable, values, message):
        tree = self._sweep_tree(variable, values)
        tree["network"] = {"topology_kind": "grid2d", "params": {"rows": 2, "cols": 2}}
        cfg = _write_cfg(tmp_path, tree)
        out = tmp_path / "o"
        rc = main(["sweep", "--config", cfg, "--out", str(out)])
        assert rc == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("variable, values, table, network", [
        ("delta", [1e-3, 1e-2, 5e-2], "sweep.csv", ("grid2d", {"rows": 2, "cols": 2})),
        ("N", [4, 9, 16], "scaling.csv", ("grid2d", {"rows": 2, "cols": 2})),
        ("N", [5, 8, 12], "scaling.csv", ("random_geometric", {"n": 5, "radius": 0.6, "seed": 3})),
    ])
    def test_jobs_do_not_change_tables(self, tmp_path, variable, values, table, network):
        tree = self._sweep_tree(variable, values)
        tree["problem"]["d"] = 8
        tree["network"] = {"topology_kind": network[0], "params": network[1]}
        tree["comms"]["outer_iter_cap"] = 4
        cfg = _write_cfg(tmp_path, tree)
        tables = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            rc = main(["sweep", "--config", cfg, "--out", str(out), "--jobs", str(jobs)])
            assert rc == 0
            tables.append([{k: v for k, v in row.items() if not k.startswith("runtime")}
                           for row in _read_csv(out / table)])
        assert len(tables[0]) == len(values)
        assert tables[0] == tables[1]

    def test_each_warning_shows_once_at_any_jobs(self, tmp_path, capfd):
        # every point warns that its bias bound is +inf and the first value
        # is inert at 12 bits; the pool's workers record their warnings and
        # the parent prints each once (fd capture sees worker writes too)
        tree = self._sweep_tree("delta", [1e-4, 0.5, 1.0])
        tree["comms"].update(bits=12, s_min=-1000.0, s_max=30.0, inner_step_cap=20, outer_iter_cap=2)
        tree["seeds"] = [0]
        cfg = _write_cfg(tmp_path, tree)
        lines = []
        for jobs in ("1", "2"):
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / jobs), "--jobs", jobs]) == 0
            lines.append([line for line in capfd.readouterr().err.splitlines() if line.startswith("warning:")])
        assert lines[0] == lines[1] and len(set(lines[0])) == len(lines[0]) == 2
        assert "warning: steady-state bias bound is +inf: exp over- or underflows at the clip range [-1000, 30]" in lines[0]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, tmp_path, capsys, jobs):
        cfg = _write_cfg(tmp_path, self._sweep_tree("delta", [1e-3, 1e-2]))
        out = tmp_path / "out"
        rc = main(["sweep", "--config", cfg, "--out", str(out), "--jobs", jobs])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: --jobs: must be at least 1, got {jobs}")
        assert not out.exists()


class TestVerify:
    def test_passing_report(self, tmp_path, capsys):
        tree = _base_tree()
        tree["comms"]["bits"] = 16
        tree["comms"]["inner_step_cap"] = 40
        cfg = _write_cfg(tmp_path, tree)
        out = tmp_path / "out"
        rc = main(["verify", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert "verify: all 5 checks passed" in capsys.readouterr().out
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is True
        assert len(report["checks"]) == 5

    def test_failing_report_exits_four(self, tmp_path, capsys, monkeypatch):
        fake = VerificationReport(
            checks=[
                CheckResult(name="hilbert_contraction", passed=True, details={}),
                CheckResult(name="tracking_bound", passed=False, details={},
                            witness={"error": 1.0, "bias_bound": 0.5}),
            ],
            warnings=["2 tracking run(s) excluded (not converged or clipping active)"],
        )
        monkeypatch.setattr("dsinkhorn.experiments.verify_theory",
                            lambda *a, **k: fake)
        cfg = _write_cfg(tmp_path, _base_tree())
        out = tmp_path / "out"
        rc = main(["verify", "--config", cfg, "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "verify: failed checks: tracking_bound" in err
        assert "warning: 2 tracking run(s) excluded" in err
        report = json.loads((out / "verify.json").read_text())
        assert report["passed"] is False


class TestConfigErrors:
    def test_invalid_field_names_path(self, tmp_path, capsys):
        tree = _base_tree()
        tree["problem"]["d"] = 1
        cfg = _write_cfg(tmp_path, tree)
        rc = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: problem.d")

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["run", "--config", str(tmp_path / "absent.yaml")])
        assert rc == 1
        assert "error: config: cannot read" in capsys.readouterr().err

    def test_solver_error_maps_to_config_exit(self, tmp_path, capsys):
        tree = _base_tree()
        tree["problem"]["epsilon"] = 1e-9
        cfg = _write_cfg(tmp_path, tree)
        rc = main(["centralized", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


    @pytest.mark.parametrize("command", ["run", "sweep", "verify", "centralized"])
    def test_uncreatable_output_dir_is_config_error(self, tmp_path, capsys, command):
        # a path under a file cannot be a directory: every command exits 1
        # naming output_dir, before it writes or runs anything
        cfg = _write_cfg(tmp_path, dict(_base_tree(), sweep={"variable": "delta", "values": [1e-3]}))
        for out, reason in ((f"{cfg}/out", "Not a directory"), (cfg, "File exists")):
            assert main([command, "--config", cfg, "--out", out]) == 1
            assert capsys.readouterr() == ("", f"error: output_dir: cannot create {out!r}: {reason}\n")

    @pytest.mark.parametrize("command", ["run", "verify", "centralized"])
    def test_missing_cost_file_is_config_error(self, tmp_path, capsys, command):
        tree = _base_tree()
        tree["problem"].update(cost_kind="file", cost_path=str(tmp_path / "absent.npy"))
        cfg = _write_cfg(tmp_path, tree)
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: problem.cost_path: ")


class TestYamlDates:
    @pytest.mark.parametrize("command", ["centralized", "run", "sweep", "verify"])
    def test_date_seed_is_a_config_error(self, tmp_path, capsys, command):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("seeds: [2020-01-01]\nsweep: {variable: delta, values: [0.001]}\n")
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: seeds: must be a nonempty list of integers\n"

    def test_date_output_dir_is_a_string(self, tmp_path, monkeypatch):
        tree = _base_tree()
        tree["comms"]["outer_iter_cap"] = 2
        cfg = _write_cfg(tmp_path, tree)
        with open(cfg, "a") as fh:
            fh.write("output_dir: 2020-01-01\n")
        monkeypatch.chdir(tmp_path)
        assert main(["centralized", "--config", cfg]) in (0, 2)
        resolved = json.loads((tmp_path / "2020-01-01" / "config_resolved.json").read_text())
        assert resolved["output_dir"] == "2020-01-01"


class TestBuildsOnce:
    """A command builds its graph once, a sweep each point's config once, and
    each reference barycenter is solved once; counted by wrapping
    ``netsim.build_topology``, ``experiments.config_for_value`` and
    ``otcore.centralized_barycenter``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        wrapped = ((netsim, "build_topology"), (experiments, "config_for_value"),
                   (otcore, "centralized_barycenter"))
        calls = dict.fromkeys([name for _, name in wrapped], 0)
        for module, name in wrapped:
            def counted(*args, _build=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _build(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_run_and_verify_build_the_graph_once(self, tmp_path, calls, command):
        tree = _base_tree()
        tree["comms"].update(bits=16, inner_step_cap=20, outer_iter_cap=3)
        rc = main([command, "--config", _write_cfg(tmp_path, tree), "--out", str(tmp_path / "o")])
        assert rc in (0, 2, 4)
        assert calls == {"build_topology": 1, "config_for_value": 0, "centralized_barycenter": 1}

    @pytest.mark.parametrize("variable, values, builds, solves", [
        ("N", [4, 9, 16], 1 + 3, 0),  # each N is a graph of its own, and no error is scored
        ("delta", [1e-4, 1e-3, 1e-2], 1, 1),  # every point shares the base's graph and problem
        ("d", [4, 8], 1, 1),  # one fine reference, binned down onto each d
        ("epsilon", [0.4, 0.5, 0.6], 1, 3),  # every epsilon poses its own problem
    ])
    def test_sweep_builds_each_point_once(self, tmp_path, calls, variable, values, builds, solves):
        tree = _base_tree()
        tree["problem"]["d"] = 8
        tree["network"] = {"topology_kind": "grid2d", "params": {"rows": 2, "cols": 2}}
        tree["comms"]["outer_iter_cap"] = 2
        tree["sweep"] = {"variable": variable, "values": values}
        rc = main(["sweep", "--config", _write_cfg(tmp_path, tree), "--out", str(tmp_path / "o"), "--jobs", "1"])
        assert rc == 0
        assert calls == {"build_topology": builds, "config_for_value": len(values), "centralized_barycenter": solves}


class TestModuleInvocation:
    def test_python_dash_m_entry(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dsinkhorn.cli", "run",
             "--config", str(tmp_path / "absent.yaml")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "error: config: cannot read" in proc.stderr
