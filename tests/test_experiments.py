"""Tests for run metrics, sweeps, the verification checks, and artifact writers."""

import csv
import dataclasses
import json
import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from itertools import cycle, islice

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import stdtrit

from dsinkhorn import config as cfgmod
from dsinkhorn import experiments as xp
from dsinkhorn import netsim, otcore
from dsinkhorn.config import ConfigError, run_config_from_dict
from dsinkhorn.engine import simulate_lanes
from dsinkhorn.netsim import build_topology, metropolis_weights
from dsinkhorn.protocol import CommsConfig, packet_wire_size
from reference import trace_rows


def _small_instance(d=16, n=4, epsilon=0.5):
    hists = cfgmod.mixture_histograms(d, n, density_seed=7)
    return otcore.ProblemInstance(
        cost=otcore.grid_cost(d), epsilon=epsilon, ridge=1e-16, histograms=tuple(hists)
    )


def _small_cfg(**overrides):
    tree = {
        "problem": {"d": 16, "epsilon": 0.5},
        "network": {"topology_kind": "grid2d", "params": {"rows": 2, "cols": 2}},
        "comms": {"delta": 1e-3, "bits": 16, "tau_inner": 1e-4, "tau_outer": 1e-6,
                  "inner_step_cap": 40, "outer_iter_cap": 30},
        "seeds": [0, 1],
    }
    for path, value in overrides.items():
        node = tree
        keys = path.split(".")
        for k in keys[:-1]:
            node = node.setdefault(k, {})
        node[keys[-1]] = value
    return run_config_from_dict(tree)


class TestRunMetrics:
    def test_counter_consistency(self):
        instance = _small_instance()
        topology = build_topology("grid2d", rows=2, cols=2)
        comms = CommsConfig(delta=1e-3, bits=16, inner_step_cap=40, outer_iter_cap=20)
        metrics, _ = xp.run_decentralized(instance, topology, comms, seed=0)
        deg = topology.degrees()
        assert np.array_equal(metrics.messages_per_agent, metrics.broadcasts_per_agent * deg)
        assert metrics.messages_total == metrics.messages_per_agent.sum()
        wire = packet_wire_size(16, comms.bits)
        assert metrics.bytes_total == metrics.messages_total * wire

    def test_error_fields(self):
        instance = _small_instance()
        topology = build_topology("complete", n=4)
        comms = CommsConfig(delta=0.0, bits=None, tau_inner=1e-8, tau_outer=1e-8,
                            inner_step_cap=100, outer_iter_cap=100)
        metrics, _ = xp.run_decentralized(instance, topology, comms, seed=0,
                                          oracle=xp.centralized_oracle(instance))
        assert metrics.l1_error_per_node is not None
        assert metrics.l1_error_per_node.shape == (4,)
        assert 0.0 <= metrics.l1_error_mean <= metrics.l1_error_max
        assert metrics.l1_error_max < 1e-4

    def test_no_error_without_oracle(self, monkeypatch):
        # without an oracle the error fields are NaN, and no reference is solved
        monkeypatch.setattr(otcore, "centralized_barycenter", None)
        instance = _small_instance()
        topology = build_topology("complete", n=4)
        comms = CommsConfig(inner_step_cap=10, outer_iter_cap=5)
        metrics, _ = xp.run_decentralized(instance, topology, comms, seed=0)
        assert metrics.l1_error_per_node is None
        assert math.isnan(metrics.l1_error_max)
        assert math.isnan(metrics.l1_error_mean)

    def test_one_bias_bound_per_distinct_comms(self, monkeypatch):
        instance = _small_instance()
        topology = build_topology("complete", n=4)
        comms = CommsConfig(delta=1e-3, bits=16, inner_step_cap=10, outer_iter_cap=3)
        lanes = [(comms, s) for s in range(4)] + [(replace(comms, delta=0.0), 0)]
        real, calls = otcore.theory_constants, []
        monkeypatch.setattr(otcore, "theory_constants", lambda *args: calls.append(args) or real(*args))
        results = xp.run_lanes(instance, topology, lanes)
        assert [c for _, c in calls] == [comms, replace(comms, delta=0.0)]
        for (lane_comms, _), (metrics, _) in zip(lanes, results):
            assert metrics.bias_bound == real(instance, lane_comms).steady_state_bias_bound

    @pytest.mark.parametrize("with_oracle", [True, False])
    def test_metrics_are_json_ready(self, with_oracle):
        instance = _small_instance()
        topology = build_topology("complete", n=4)
        metrics, _ = xp.run_decentralized(
            instance, topology, CommsConfig(inner_step_cap=10, outer_iter_cap=5), seed=0,
            oracle=xp.centralized_oracle(instance) if with_oracle else None,
        )
        tree = json.loads(json.dumps(xp._json_safe(metrics)))
        assert list(tree) == [f.name for f in dataclasses.fields(xp.RunMetrics)]
        assert tree["seed"] == 0
        assert tree["broadcasts_per_agent"] == metrics.broadcasts_per_agent.tolist()
        if with_oracle:
            assert tree["l1_error_per_node"] == metrics.l1_error_per_node.tolist()
        else:
            assert tree["l1_error_per_node"] is None
            assert tree["l1_error_max"] == "nan"


class TestTraceAndOverlapRows:
    def test_trace_rows_number_rounds_globally(self):
        class FakeRecord:
            per_outer = [
                {"outer_iter": 1, "inner_steps_used": 2,
                 "consensus_residual_trace": [0.5, 0.25]},
                {"outer_iter": 2, "inner_steps_used": 3,
                 "consensus_residual_trace": [0.4, 0.2, 0.1]},
            ]

        rows = [dict(zip(xp.TRACE_FIELDS, row)) for row in xp.trace_lines("triggered", FakeRecord())]
        assert [r["round"] for r in rows] == [1, 2, 3, 4, 5]
        assert [r["outer_iter"] for r in rows] == [1, 1, 2, 2, 2]
        assert [r["inner_step"] for r in rows] == [1, 2, 1, 2, 3]
        assert rows[0]["variant"] == "triggered"
        assert rows[-1]["residual"] == 0.1
        assert rows == trace_rows("triggered", FakeRecord())

    def test_overlap_rows_envelope(self):
        oracle = np.array([0.25, 0.75])
        bary = np.array([[0.2, 0.8], [0.3, 0.7]])
        rows = xp.overlap_rows(oracle, bary)
        assert rows[0]["support_x"] == 0.0
        assert rows[1]["support_x"] == 1.0
        assert rows[0]["b_star"] == 0.25
        assert rows[0]["b_tilde_min"] == 0.2
        assert rows[0]["b_tilde_max"] == 0.3
        assert rows[1]["b_tilde_min"] == 0.7


def _convergence_trace(cfg):
    """The seed-0 run's residual traces, as `dsinkhorn run` writes them to
    trace.csv: always-on (delta=0) and, when delta > 0, triggered."""
    instance = cfgmod.build_instance(cfg)
    topology = cfgmod.build_topology_from_spec(cfg.network)
    variants = {"always_on": replace(cfg.comms, delta=0.0)}
    if cfg.comms.delta > 0:
        variants["triggered"] = cfg.comms
    rows, records = [], {}
    for name, comms in variants.items():
        (records[name],) = simulate_lanes(
            instance, topology, [(comms, cfg.seeds[0])], cfg.channel, cfg.activation,
        )
        rows.extend(trace_rows(name, records[name]))
    return rows, records


def _overlap(cfg):
    """The seed-0 run against the oracle, as `dsinkhorn run` writes it to
    overlap.csv; returns (rows, metrics, record)."""
    instance = cfgmod.build_instance(cfg)
    topology = cfgmod.build_topology_from_spec(cfg.network)
    oracle = xp.centralized_oracle(instance)
    metrics, record = xp.run_decentralized(
        instance, topology, cfg.comms, channel=cfg.channel,
        activation=cfg.activation, seed=cfg.seeds[0], oracle=oracle,
    )
    return xp.overlap_rows(oracle, record.barycenters), metrics, record


@pytest.fixture(scope="module")
def traced():
    cfg = _small_cfg(**{
        "comms.delta": 5e-4,
        "comms.bits": "unquantized",
        "comms.tau_inner": 2e-4,
        "comms.inner_step_cap": 60,
        "comms.outer_iter_cap": 12,
    })
    rows, records = _convergence_trace(cfg)
    return cfg, rows, records


class TestConvergenceTrace:
    def test_variants_present(self, traced):
        cfg, rows, records = traced
        assert set(records) == {"always_on", "triggered"}
        assert {r["variant"] for r in rows} == {"always_on", "triggered"}

    def test_zero_delta_config_has_single_variant(self):
        cfg = _small_cfg(**{"comms.delta": 0.0, "comms.outer_iter_cap": 3})
        rows, records = _convergence_trace(cfg)
        assert set(records) == {"always_on"}

    def test_triggered_floor_set_by_delta(self, traced):
        # within the final inner window the triggered run's residual cannot
        # fall below the trigger dead zone
        cfg, rows, records = traced
        rec = records["triggered"]
        floor = min(rec.per_outer[-1]["consensus_residual_trace"])
        assert floor >= max(cfg.comms.delta_q, cfg.comms.delta) / 2.0

    def test_always_on_contracts_within_window(self, traced):
        cfg, rows, records = traced
        sigma2 = metropolis_weights(
            cfgmod.build_topology_from_spec(cfg.network)
        ).sigma2
        for entry in records["always_on"].per_outer:
            trace = entry["consensus_residual_trace"]
            for a, b in list(zip(trace, trace[1:]))[2:]:
                if a > 1e-13:  # below that, float noise dominates
                    assert b <= (sigma2 + 0.05) * a

    def test_sawtooth_reseed_jumps(self, traced):
        # each outer reseed re-inflates disagreement: the first residual of
        # a window exceeds the last residual of the previous one
        cfg, rows, records = traced
        rec = records["always_on"]
        jumps = 0
        for prev, cur in zip(rec.per_outer, rec.per_outer[1:]):
            last = prev["consensus_residual_trace"][-1]
            first = cur["consensus_residual_trace"][0]
            if first > last:
                jumps += 1
        assert jumps >= len(rec.per_outer) - 2

    def test_triggered_floor_close_to_always_on(self, traced):
        # at matched outer iterations the triggered floor sits within an
        # order of magnitude of the always-on floor
        cfg, rows, records = traced
        shared = min(len(records["always_on"].per_outer),
                     len(records["triggered"].per_outer))
        f_on = min(records["always_on"].per_outer[shared - 1]["consensus_residual_trace"])
        f_tr = min(records["triggered"].per_outer[shared - 1]["consensus_residual_trace"])
        assert f_tr <= 10.0 * max(f_on, cfg.comms.delta)


class TestOverlap:
    def test_near_exact_overlap(self):
        cfg = _small_cfg(**{
            "network.topology_kind": "complete",
            "network.params": {"n": 4},
            "comms.delta": 0.0,
            "comms.bits": "unquantized",
            "comms.tau_inner": 1e-10,
            "comms.tau_outer": 1e-9,
            "comms.inner_step_cap": 400,
            "comms.outer_iter_cap": 200,
        })
        rows, metrics, record = _overlap(cfg)
        assert len(rows) == 16
        assert metrics.converged
        for row in rows:
            assert row["b_tilde_min"] - 1e-6 <= row["b_star"] <= row["b_tilde_max"] + 1e-6
            assert row["b_tilde_max"] - row["b_tilde_min"] <= 1e-6

    def test_default_problem_overlap_within_tolerance(self):
        cfg = run_config_from_dict({"comms": {"outer_iter_cap": 60}, "seeds": [0]})
        rows, metrics, record = _overlap(cfg)
        assert len(rows) == 64
        for row in rows:
            gap = max(row["b_tilde_min"] - row["b_star"],
                      row["b_star"] - row["b_tilde_max"], 0.0)
            assert gap <= 1e-2


class TestMeanCi:
    def test_hand_value(self):
        mean, half = xp._mean_ci([1.0, 2.0, 3.0, 4.0])
        assert mean == pytest.approx(2.5)
        expected = stats.t.ppf(0.975, 3) * np.std([1, 2, 3, 4], ddof=1) / 2.0
        assert half == pytest.approx(float(expected), rel=1e-12)

    def test_single_sample(self):
        assert xp._mean_ci([7.5]) == (7.5, 0.0)

    def test_t_quantile_matches_scipy(self):
        for df in range(1, 200):
            assert xp._t975(df) == pytest.approx(float(stdtrit(df, 0.975)), rel=1e-12, abs=0)

    def test_no_samples(self):
        mean, half = xp._mean_ci([])
        assert math.isnan(mean) and math.isnan(half)

    def test_identical_samples_have_zero_width(self):
        mean, half = xp._mean_ci([2.0, 2.0, 2.0])
        assert mean == 2.0
        assert half == 0.0


class TestSweepSpec:
    def test_valid(self):
        spec = xp.SweepSpec("delta", (1e-4, 1e-3), _small_cfg())
        assert spec.values == (1e-4, 1e-3)
        # the spec keeps the config of each point, built by its check
        assert [(c.comms.delta, c.seeds) for c in spec.configs] == [(1e-4, (0, 1)), (1e-3, (0, 1))]
        assert spec.configs[0] == xp.config_for_value(spec.base, "delta", 1e-4)

    def test_unknown_variable(self):
        with pytest.raises(ConfigError, match="sweep.variable"):
            xp.SweepSpec("gamma", (1,), _small_cfg())

    def test_empty_values(self):
        with pytest.raises(ConfigError, match="sweep.values: must be nonempty"):
            xp.SweepSpec("delta", (), _small_cfg())

    def test_descending_values(self):
        with pytest.raises(ConfigError, match="ascending"):
            xp.SweepSpec("delta", (1e-2, 1e-3), _small_cfg())

    def test_none_sorts_first_for_bits(self):
        spec = xp.SweepSpec("bits", (None, 8, 16), _small_cfg())
        assert spec.values[0] is None

    @pytest.mark.parametrize("variable, values, message", [
        ("bits", (8.7, 12), r"sweep\.values: 8\.7: comms\.bits: must be an integer"),
        ("bits", (8, 40), r"sweep\.values: 40: comms\.bits: must be an integer in \[1, 32\]"),
        ("d", (8.0, 16), r"sweep\.values: 8\.0: problem\.d: must be an integer"),
        ("N", (4.5, 9), r"sweep\.values: 4\.5: network\.params: N=4\.5 is not a perfect square"),
        ("epsilon", (-1.0, 0.5), r"sweep\.values: -1\.0: problem\.epsilon: must be > 0"),
        ("drop_prob", (0.5, 1.0), r"sweep\.values: 1\.0: channel\.drop_prob"),
    ])
    def test_values_get_their_config_field_checks(self, variable, values, message):
        with pytest.raises(ConfigError, match=message):
            xp.SweepSpec(variable, values, _small_cfg())

    def test_d_values_divide_the_largest(self):
        with pytest.raises(ConfigError, match=r"sweep\.values: every d must divide the largest, 12"):
            xp.SweepSpec("d", (8, 12), _small_cfg())
        assert xp.SweepSpec("d", (4, 12), _small_cfg()).values == (4, 12)

    def test_fractional_n_on_ring(self):
        base = _small_cfg(**{"network.topology_kind": "ring", "network.params": {"n": 4}})
        with pytest.raises(ConfigError, match=r"sweep\.values: 4\.5: network\.params: n must be an integer"):
            xp.SweepSpec("N", (4.5, 9), base)


_NETWORKS = {
    "grid2d": {"topology_kind": "grid2d", "params": {"rows": 2, "cols": 2}},
    "ring": {"topology_kind": "ring", "params": {"n": 4}},
    "random_geometric": {"topology_kind": "random_geometric", "params": {"n": 6, "radius": 0.6, "seed": 3}},
}


class TestConfigForValue:
    def test_grid_n(self):
        cfg = xp.config_for_value(_small_cfg(), "N", 9)
        assert cfg.network.params == {"rows": 3, "cols": 3}
        assert cfg.network.topology.num_nodes == 9

    def test_grid_n_rejects_non_square(self):
        with pytest.raises(ConfigError, match="not a perfect square"):
            xp.config_for_value(_small_cfg(), "N", 5)

    def test_ring_n(self):
        base = _small_cfg(**{"network.topology_kind": "ring", "network.params": {"n": 4}})
        cfg = xp.config_for_value(base, "N", 6)
        assert cfg.network.params["n"] == 6

    @pytest.mark.parametrize("variable, value, getter", [
        ("d", 32, lambda c: c.problem.d),
        ("epsilon", 0.7, lambda c: c.problem.epsilon),
        ("delta", 5e-3, lambda c: c.comms.delta),
        ("tau_inner", 1e-5, lambda c: c.comms.tau_inner),
        ("bits", 8, lambda c: c.comms.bits),
        ("drop_prob", 0.2, lambda c: c.channel.drop_prob),
    ])
    def test_scalar_variables(self, variable, value, getter):
        cfg = xp.config_for_value(_small_cfg(), variable, value)
        assert getter(cfg) == value

    def test_bits_unquantized(self):
        assert xp.config_for_value(_small_cfg(), "bits", None).comms.bits is None
        assert xp.config_for_value(_small_cfg(), "bits", "unquantized").comms.bits is None

    def test_other_fields_untouched(self):
        base = _small_cfg()
        cfg = xp.config_for_value(base, "delta", 0.5)
        assert cfg.problem == base.problem
        assert cfg.network == base.network
        assert cfg.comms.tau_inner == base.comms.tau_inner

    @pytest.mark.parametrize("variable, value", [
        ("d", 8), ("epsilon", 0.7), ("delta", 5e-3), ("tau_inner", 1e-5), ("bits", 8), ("drop_prob", 0.2),
    ])
    def test_other_sections_are_the_base_objects(self, variable, value):
        # a point replaces the one section that owns its field; the network,
        # graph included, is built once, with the base
        base = _small_cfg()
        cfg = xp.config_for_value(base, variable, value)
        for section in ("problem", "network", "comms", "channel", "activation"):
            kept = getattr(cfg, section) is getattr(base, section)
            assert kept == (section != xp.SWEEPS[variable][0]), section

    @pytest.mark.parametrize("network", _NETWORKS.values(), ids=list(_NETWORKS))
    def test_bool_n_is_rejected(self, network):
        base = _small_cfg(**{"network": network})
        with pytest.raises(ConfigError, match=r"^network\.params: "):
            xp.config_for_value(base, "N", True)


def _through_key_tree(base, variable, value):
    """The sweep point the way a config file would state it: the swept field
    set in the base's key-tree, which is then read like a config file."""
    tree = base.resolved_dict()
    section = xp.SWEEPS[variable][0]
    if variable != "N":
        tree[section][variable] = value
    elif base.network.topology_kind != "grid2d":
        tree["network"]["params"]["n"] = value
    else:
        side = math.isqrt(value) if isinstance(value, int) and value > 0 else 0
        if side * side != value:
            raise ConfigError(f"network.params: N={value!r} is not a perfect square for grid2d")
        tree["network"]["params"] = {"rows": side, "cols": side}
    return run_config_from_dict(tree)


# valid, out of range, fractional, unquantized, strings (file spellings
# among them), inf and NaN, for every variable alike
_POINT_VALUES = (0, 1, 2, 4, 9, 16, 40, -1, 33, 1e-3, 0.5, 0.999, 1.0, 2.5, 8.0, -0.1, None, "unquantized",
                 ".inf", "inf", "abc", "8", math.inf, -math.inf, math.nan, True, False)


class TestReplaceMatchesKeyTree:
    """config_for_value replaces one section field; reading the base's
    key-tree with that field set gives the same config or the same error."""

    @pytest.mark.parametrize("network", list(_NETWORKS))
    @pytest.mark.parametrize("variable", list(xp.SWEEPS))
    def test_same_config_or_same_error(self, network, variable):
        base = _small_cfg(**{"network": _NETWORKS[network]})
        differ = []
        for value in _POINT_VALUES:
            outcome = []
            for derive in (xp.config_for_value, _through_key_tree):
                try:
                    cfg = derive(base, variable, value)
                    outcome.append((cfg, cfg.network.topology.edges))
                except ConfigError as exc:
                    outcome.append(str(exc))
            if outcome[0] != outcome[1]:
                differ.append((value, *outcome))
        if (network, variable) == ("grid2d", "N"):
            # the one difference: a bool is no N (the key-tree path took True for 1)
            ((value, replaced, read),) = differ
            assert value is True and replaced.startswith("network.params: ")
            assert read[0].network.params == {"rows": 1, "cols": 1}
        else:
            assert differ == []


class TestParameterSweep:
    def test_delta_sweep_messages_monotone(self):
        base = _small_cfg(**{"comms.outer_iter_cap": 12})
        spec = xp.SweepSpec("delta", (0.0, 1e-3, 1e-2), base)
        table, fieldnames, rows, failures = xp.run_sweep(spec)
        assert failures == []
        assert table == "sweep.csv"
        assert fieldnames == ["value", "error_mean", "error_ci", "messages_mean",
                              "messages_ci", "runtime_mean", "n_failed"]
        assert [r["value"] for r in rows] == [0.0, 1e-3, 1e-2]
        msgs = [r["messages_mean"] for r in rows]
        assert msgs[0] >= msgs[1] >= msgs[2]
        for r in rows:
            assert r["n_failed"] == 0
            assert np.isfinite(r["error_mean"])

    def test_bits_sweep_row_labels(self):
        base = _small_cfg(**{"comms.outer_iter_cap": 5, "seeds": [0]})
        spec = xp.SweepSpec("bits", (None, 8), base)
        _, _, rows, failures = xp.run_sweep(spec)
        assert rows[0]["value"] == "unquantized"
        assert rows[1]["value"] == 8

    @pytest.mark.filterwarnings("ignore:steady-state bias bound is")
    def test_seed_failures_stay_per_seed(self):
        # 1-bit payloads at +-1000 overflow exp(z) on some seeds only (90%
        # drops, p=0.4 subset activation): each failing seed is its own
        # failure, and the healthy seeds of the same batch fill the row
        base = _small_cfg(**{
            "network.topology_kind": "ring", "network.params": {"n": 4},
            "comms.delta": 0.0, "comms.bits": 1, "comms.s_min": -1002.7, "comms.s_max": 997.3,
            "comms.tau_outer": 1e-300, "comms.inner_step_cap": 20, "comms.outer_iter_cap": 6,
            "activation.mode": "randomized_subset", "activation.p_active": 0.4,
            "seeds": list(range(8)),
        })
        _, _, rows, failures = xp.run_sweep(xp.SweepSpec("drop_prob", (0.9,), base))
        cfg = xp.config_for_value(base, "drop_prob", 0.9)
        instance = cfgmod.build_instance(cfg)
        topology = cfgmod.build_topology_from_spec(cfg.network)
        oracle = xp.centralized_oracle(instance)
        alone = {}
        for seed in base.seeds:
            try:
                alone[seed], _ = xp.run_decentralized(
                    instance, topology, cfg.comms, cfg.channel, cfg.activation, seed=seed, oracle=oracle)
            except ValueError as exc:
                alone[seed] = str(exc)
        assert failures == [{"value": 0.9, "seed": s, "error": e}
                            for s, e in alone.items() if isinstance(e, str)]
        assert 0 < len(failures) < len(base.seeds)
        healthy = [m for m in alone.values() if not isinstance(m, str)]
        assert rows[0]["n_failed"] == len(failures)
        assert rows[0]["messages_mean"] == np.mean([m.messages_total for m in healthy])
        assert rows[0]["error_mean"] == np.mean([m.l1_error_max for m in healthy])

    def test_value_level_failure_produces_rows(self):
        # epsilon so small the kernel underflows: every seed fails at that
        # value, the other value still runs
        base = _small_cfg(**{"comms.outer_iter_cap": 5})
        spec = xp.SweepSpec("epsilon", (1e-9, 0.5), base)
        _, _, rows, failures = xp.run_sweep(spec)
        assert len(failures) == len(base.seeds)
        assert all(f["value"] == 1e-9 for f in failures)
        assert "kernel" in failures[0]["error"].lower() or "underflow" in failures[0]["error"].lower()
        bad = rows[0]
        assert bad["n_failed"] == len(base.seeds)
        assert math.isnan(bad["error_mean"])
        good = rows[1]
        assert good["n_failed"] == 0
        assert np.isfinite(good["error_mean"])

    def test_deterministic_up_to_runtime(self):
        base = _small_cfg(**{"comms.outer_iter_cap": 8, "seeds": [0]})
        spec = xp.SweepSpec("delta", (1e-3, 1e-2), base)
        rows_a = xp.run_sweep(spec)[2]
        rows_b = xp.run_sweep(spec)[2]
        for a, b in zip(rows_a, rows_b):
            a = {k: v for k, v in a.items() if not k.startswith("runtime")}
            b = {k: v for k, v in b.items() if not k.startswith("runtime")}
            assert a == b

    @pytest.mark.parametrize("variable, values, solves", [
        ("delta", (1e-3, 1e-2, 5e-2), 1),  # every value poses the base's problem
        ("epsilon", (0.4, 0.5, 0.6), 3),  # every value poses its own
    ])
    def test_one_oracle_per_problem(self, monkeypatch, variable, values, solves):
        calls = []
        solve = otcore.centralized_barycenter
        monkeypatch.setattr(otcore, "centralized_barycenter",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        base = _small_cfg(**{"comms.outer_iter_cap": 3, "seeds": [0, 1, 2]})
        _, _, rows, failures = xp.run_sweep(xp.SweepSpec(variable, values, base))
        assert failures == []
        assert all(np.isfinite(r["error_mean"]) for r in rows)
        assert len(calls) == solves


class TestScalingSweep:
    def test_table_shape(self):
        base = _small_cfg(**{
            "problem.d": 8,
            "comms.delta": 0.0,
            "comms.bits": "unquantized",
            "comms.tau_inner": 1e-6,
            "comms.tau_outer": 1e-5,
            "comms.inner_step_cap": 30,
            "comms.outer_iter_cap": 10,
            "seeds": [0, 1],
        })
        spec = xp.SweepSpec("N", (4, 9), base)
        table, fieldnames, rows, failures = xp.run_sweep(spec)
        assert failures == []
        assert table == "scaling.csv"
        assert fieldnames == ["N", "messages_mean", "messages_ci",
                              "runtime_mean", "n_failed"]
        assert [r["N"] for r in rows] == [4, 9]
        for r in rows:
            assert r["messages_mean"] > 0
            assert r["runtime_mean"] > 0
            assert r["messages_ci"] >= 0
            assert set(r) == {"N", "messages_mean", "messages_ci",
                              "runtime_mean", "n_failed"}

    def test_larger_networks_send_more(self):
        base = _small_cfg(**{
            "problem.d": 8,
            "comms.delta": 0.0,
            "comms.bits": "unquantized",
            "comms.inner_step_cap": 20,
            "comms.outer_iter_cap": 8,
            "seeds": [0],
        })
        rows = xp.run_sweep(xp.SweepSpec("N", (4, 16), base))[2]
        assert rows[1]["messages_mean"] > rows[0]["messages_mean"]

    def test_pool_has_no_more_workers_than_points_and_runs_the_largest_first(self, monkeypatch):
        # an in-process stand-in for the pool: it records its size and the
        # order the points were handed over, and runs them in that order,
        # each from a pickled copy as a worker gets it, counting the graphs
        # built while they run
        pools, builds = [], []
        build = netsim.build_topology
        monkeypatch.setattr(netsim, "build_topology", lambda *a, **k: builds.append(a) or build(*a, **k))

        class RecordingPool:
            def __init__(self, max_workers, initializer=None, initargs=()):
                self.max_workers, self.values = max_workers, []
                pools.append(self)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                tasks = list(tasks)
                self.values = [value for _, value, _, _ in tasks]
                start = len(builds)
                results = [fn(pickle.loads(pickle.dumps(t))) for t in tasks]
                self.built = len(builds) - start
                return results

        monkeypatch.setattr(xp, "ProcessPoolExecutor", RecordingPool)
        base = _small_cfg(**{"problem.d": 8, "comms.inner_step_cap": 5, "comms.outer_iter_cap": 2,
                             "seeds": [0]})
        spec = xp.SweepSpec("N", (1, 4, 9), base)
        rows = xp.run_sweep(spec, jobs=64)[2]
        serial = xp.run_sweep(spec)[2]
        assert [(p.max_workers, p.values) for p in pools] == [(3, [9, 4, 1])]
        assert [r["N"] for r in rows] == [1, 4, 9]
        assert [r["messages_mean"] for r in rows] == [r["messages_mean"] for r in serial]
        # a support sweep orders by d
        spec = xp.SweepSpec("d", (4, 8), _small_cfg(**{"comms.outer_iter_cap": 2, "seeds": [0]}))
        xp.run_sweep(spec, jobs=2)
        assert [(p.max_workers, p.values) for p in pools[1:]] == [(2, [8, 4])]
        assert [p.built for p in pools] == [0, 0]


def _affinity(_):
    time.sleep(0.2)  # long enough that the other worker takes the next task
    return os.sched_getaffinity(0)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls here")
class TestWorkerPlacement:
    # run_sweep starts each pool worker on a CPU of its own, round-robin over
    # the parent's CPUs, and then releases it to all of them
    @staticmethod
    def spec(values=(4, 9)):
        return xp.SweepSpec("N", values, _small_cfg(**{"problem.d": 8, "comms.outer_iter_cap": 2, "seeds": [0]}))

    def test_workers_are_released_to_the_parent_mask(self, monkeypatch):
        masks = []

        class ProbedPool(ProcessPoolExecutor):
            def map(self, fn, tasks):
                masks.extend(super().map(_affinity, range(2)))
                return super().map(fn, tasks)

        monkeypatch.setattr(xp, "ProcessPoolExecutor", ProbedPool)
        xp.run_sweep(self.spec(), jobs=2)
        assert masks == [os.sched_getaffinity(0)] * 2

    def test_workers_start_round_robin_over_the_cpus(self, monkeypatch, tmp_path):
        # three workers: on two CPUs the third starts where the first does.
        # The workers log their affinity calls to a file (forked copies of
        # this patch), one line per call
        log, setaffinity = tmp_path / "calls", os.sched_setaffinity

        def logged(pid, mask):
            with open(log, "a") as fh:
                fh.write(json.dumps([os.getpid(), sorted(mask)]) + "\n")
            setaffinity(pid, mask)

        monkeypatch.setattr(os, "sched_setaffinity", logged)
        xp.run_sweep(self.spec((1, 4, 9)), jobs=3)
        calls = {}
        for pid, mask in map(json.loads, log.read_text().splitlines()):
            calls.setdefault(pid, []).append(mask)
        cpus = sorted(os.sched_getaffinity(0))
        assert len(calls) == 3
        assert all(len(masks) == 2 and len(masks[0]) == 1 and masks[1] == cpus for masks in calls.values())
        assert sorted(masks[0][0] for masks in calls.values()) == sorted(islice(cycle(cpus), len(calls)))

    def test_a_failed_placement_leaves_the_rows_unchanged(self, monkeypatch):
        def refuse(pid, mask):
            raise OSError(22, "Invalid argument")

        monkeypatch.setattr(os, "sched_setaffinity", refuse)
        rows, serial = xp.run_sweep(self.spec(), jobs=2)[2], xp.run_sweep(self.spec())[2]
        drop_runtime = lambda rows: [{k: v for k, v in r.items() if k != "runtime_mean"} for r in rows]
        assert drop_runtime(rows) == drop_runtime(serial) and len(rows) == 2


class TestSupportSweep:
    def test_downsample_bins(self):
        out = xp.downsample_reference(np.array([0.1, 0.2, 0.3, 0.4]), 2)
        assert_allclose(out, np.array([0.3, 0.7]))
        assert out.sum() == pytest.approx(1.0)

    def test_downsample_identity(self):
        ref = np.array([0.25, 0.75])
        assert np.array_equal(xp.downsample_reference(ref, 2), ref)

    def test_downsample_rejects_uneven(self):
        with pytest.raises(ValueError, match="cannot downsample"):
            xp.downsample_reference(np.ones(5) / 5.0, 2)

    def test_table_shape(self):
        base = _small_cfg(**{
            "comms.delta": 0.0,
            "comms.bits": "unquantized",
            "comms.tau_inner": 1e-7,
            "comms.inner_step_cap": 80,
            "comms.outer_iter_cap": 40,
            "seeds": [0],
        })
        spec = xp.SweepSpec("d", (8, 16), base)
        table, fieldnames, rows, failures = xp.run_sweep(spec)
        assert failures == []
        assert table == "support.csv"
        assert fieldnames == ["d", "error_mean", "error_ci", "n_failed"]
        assert [r["d"] for r in rows] == [8, 16]
        for r in rows:
            assert np.isfinite(r["error_mean"])
            assert r["error_mean"] >= 0


@pytest.fixture(scope="module")
def small_setup():
    instance = _small_instance(d=16, n=4, epsilon=0.5)
    topology = build_topology("grid2d", rows=2, cols=2)
    comms = CommsConfig(delta=1e-3, bits=16, tau_inner=1e-4, tau_outer=1e-6,
                        inner_step_cap=40, outer_iter_cap=60)
    return instance, topology, comms


class TestVerifyTheory:
    def test_all_checks_pass_on_benign_instance(self, small_setup):
        instance, topology, comms = small_setup
        report = xp.verify_theory(instance, comms, topology, seed=0)
        assert report.passed
        assert report.failing == []
        names = [c.name for c in report.checks]
        assert names == ["hilbert_contraction", "normalization_bridge",
                         "consensus_decay", "tracking_bound", "broadcast_budget"]
        contraction = report.checks[0]
        assert contraction.details["pairs"] >= 100
        assert contraction.details["max_ratio"] <= contraction.details["rho_bound"] + 1e-9

    def test_adversarial_clip_window_excludes_tracking(self, small_setup):
        instance, topology, _ = small_setup
        # a clip window this tight distorts every transmission; the runs get
        # flagged, the tracking claim is not exercised, and the check fails
        # with the exclusions as its witness
        comms = CommsConfig(delta=1e-3, bits=16, tau_inner=1e-4, tau_outer=1e-6,
                            s_min=-0.05, s_max=0.05,
                            inner_step_cap=20, outer_iter_cap=40)
        report = xp.verify_theory(instance, comms, topology, seed=0)
        assert not report.passed
        assert any("excluded" in w for w in report.warnings)
        tracking = next(c for c in report.checks if c.name == "tracking_bound")
        assert not tracking.passed and tracking.details["included"] == 0
        excluded = tracking.details["excluded"]
        assert len(excluded) == tracking.details["grid_runs"] == 9
        assert tracking.witness == {"reason": "every grid run excluded", "excluded": excluded}
        assert all(c.passed for c in report.checks if c.name != "tracking_bound")
        budget = next(c for c in report.checks if c.name == "broadcast_budget")
        assert budget.details["runs_checked"] > 0

    def test_tiny_epsilon_warns_and_still_passes(self):
        instance = _small_instance(d=16, n=4, epsilon=0.01)
        topology = build_topology("grid2d", rows=2, cols=2)
        # caps and a tau_outer at which some grid runs converge, so that the
        # tracking check has runs to test
        comms = CommsConfig(delta=1e-3, bits=16, tau_inner=1e-4, tau_outer=1e-2,
                            inner_step_cap=20, outer_iter_cap=40)
        with pytest.warns(RuntimeWarning):
            report = xp.verify_theory(instance, comms, topology, seed=0)
        assert report.passed
        assert any("close to 1" in w for w in report.warnings)
        tracking = next(c for c in report.checks if c.name == "tracking_bound")
        assert tracking.details["included"] > 0

    def test_report_serialization(self, small_setup):
        instance, topology, comms = small_setup
        report = xp.verify_theory(instance, comms, topology, seed=1,
                                  n_pairs=30, consensus_steps=20,
                                  deltas=(1e-3,), bits_grid=(16,))
        tree = report.to_dict()
        assert tree["passed"] == report.passed
        assert len(tree["checks"]) == 5
        json.dumps(xp._json_safe(tree))  # must not raise


class TestArtifactWriters:
    def test_json_safe_handles_special_floats(self):
        out = xp._json_safe({"a": math.inf, "b": -math.inf, "c": math.nan,
                             "d": np.float64(1.5), "e": np.int64(3),
                             "f": np.array([1.0, 2.0])})
        assert out == {"a": "inf", "b": "-inf", "c": "nan",
                       "d": 1.5, "e": 3, "f": [1.0, 2.0]}

    def test_json_safe_handles_dataclasses(self):
        check = xp.CheckResult(name="x", passed=True, details={"v": np.inf})
        out = xp._json_safe(check)
        assert out["details"]["v"] == "inf"

    def test_write_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        xp.write_csv(str(path), ["a", "b"], [(1, 2), (3, 4)])
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows == [{"a": "1", "b": "2"}, {"a": "3", "b": "4"}]

    def test_write_csv_creates_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "t.csv"
        xp.write_csv(str(path), ["x"], [(0,)])
        assert path.exists()

    def test_write_json(self, tmp_path):
        path = tmp_path / "r.json"
        xp.write_json(str(path), {"value": math.inf, "arr": np.arange(3)})
        text = path.read_text()
        assert text.endswith("\n")
        data = json.loads(text)
        assert data == {"value": "inf", "arr": [0, 1, 2]}
