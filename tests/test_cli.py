"""End-to-end tests for the command-line interface."""

import csv
import json
import subprocess
import sys
from dataclasses import replace

import pytest
import yaml

from dsinkhorn import config as cfgmod
from dsinkhorn import experiments
from dsinkhorn.cli import main
from dsinkhorn.engine import simulate_decentralized
from dsinkhorn.experiments import CheckResult, VerificationReport


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
            record = simulate_decentralized(
                instance, topology, replace(resolved.comms, delta=delta),
                resolved.channel, resolved.activation, seed=3)
            expected += experiments.trace_rows(variant, record)
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
                simulate_decentralized(instance, topology, resolved.comms, resolved.channel,
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

    @pytest.mark.parametrize("variable, values, table", [
        ("delta", [1e-3, 1e-2, 5e-2], "sweep.csv"),
        ("N", [4, 9, 16], "scaling.csv"),
    ])
    def test_jobs_do_not_change_tables(self, tmp_path, variable, values, table):
        tree = self._sweep_tree(variable, values)
        tree["problem"]["d"] = 8
        tree["network"] = {"topology_kind": "grid2d", "params": {"rows": 2, "cols": 2}}
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


class TestModuleInvocation:
    def test_python_dash_m_entry(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dsinkhorn.cli", "run",
             "--config", str(tmp_path / "absent.yaml")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert "error: config: cannot read" in proc.stderr
