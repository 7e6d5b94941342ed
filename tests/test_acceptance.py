"""Acceptance suite: one test per headline claim, each with a time budget.

Every test carries ``@pytest.mark.acceptance("<description>")``; the
conftest reporter prints a one-line [PASS]/[FAIL] verdict per criterion
after the run. The tests use the public experiment drivers wherever
possible so that what is checked here is what the CLI ships.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsinkhorn import config as cfgmod
from dsinkhorn import experiments, otcore, protocol
from dsinkhorn.config import run_config_from_dict
from dsinkhorn.engine import consensus_trace, simulate_lanes
from dsinkhorn.netsim import (
    ActivationModel,
    ChannelModel,
    build_topology,
    metropolis_weights,
)
from dsinkhorn.protocol import CommsConfig

# Base communication settings for the 4x4-grid, d=64 experiments.
BASE_COMMS = CommsConfig(
    delta=1e-3,
    bits=None,
    tau_inner=1e-4,
    tau_outer=1e-6,
    inner_step_cap=200,
    outer_iter_cap=60,
)


@pytest.fixture(scope="module")
def default_setup():
    """Default experiment problem: 4x4 grid, d=64, plus its oracle."""
    cfg = run_config_from_dict({})
    instance = cfgmod.build_instance(cfg)
    topology = cfgmod.build_topology_from_spec(cfg.network)
    oracle = experiments.centralized_oracle(instance)
    return instance, topology, oracle


@pytest.fixture(scope="module")
def small_mixture_instance():
    hists = cfgmod.mixture_histograms(16, 4, density_seed=7)
    return otcore.ProblemInstance(
        cost=otcore.grid_cost(16), epsilon=0.5, ridge=1e-16, histograms=tuple(hists)
    )


@pytest.fixture(scope="module")
def tracking_grid(default_setup):
    """The (delta, bits) grid of decentralized runs shared by the tracking
    and trigger-budget criteria: 3 deltas x 3 bit widths x 5 seeds."""
    instance, topology, oracle = default_setup
    t0 = time.perf_counter()
    runs = []
    for delta in (1e-4, 1e-3, 1e-2):
        for bits in (8, 12, 16):
            comms = replace(BASE_COMMS, delta=delta, bits=bits)
            for seed in range(5):
                metrics, _ = experiments.run_decentralized(
                    instance,
                    topology,
                    comms,
                    seed=seed,
                    oracle=oracle,
                    collect_residuals=False,
                )
                runs.append((comms, metrics))
    return runs, time.perf_counter() - t0


@pytest.mark.acceptance(
    "criterion 1: centralized solver returns the symmetric two-point "
    "barycenter (0.5, 0.5) within 1e-8 in under 1 s"
)
def test_c01_centralized_symmetric_fixed_point(symmetric_instance):
    t0 = time.perf_counter()
    result = otcore.centralized_barycenter(symmetric_instance, tol=1e-10, max_iter=1000)
    elapsed = time.perf_counter() - t0
    assert result.converged
    assert_allclose(result.barycenter.weights, [0.5, 0.5], atol=1e-8)
    assert elapsed < 1.0


@pytest.mark.acceptance(
    "criterion 2: with delta=0, no quantization, and tau_inner=1e-10 on a "
    "complete graph, the decentralized log-v trajectory matches centralized "
    "iterations within 1e-8 per outer step (d=16, N=4, under 10 s)"
)
def test_c02_degenerate_exactness(small_mixture_instance):
    instance = small_mixture_instance
    topology = build_topology("complete", n=4)
    comms = CommsConfig(
        delta=0.0,
        bits=None,
        tau_inner=1e-10,
        tau_outer=1e-9,
        inner_step_cap=400,
        outer_iter_cap=60,
    )
    t0 = time.perf_counter()
    (record,) = simulate_lanes(instance, topology, [(comms, 0)], collect_round_log_v=True)
    elapsed = time.perf_counter() - t0
    assert record.converged

    # round index of the last inner step of each outer iteration
    ends = np.cumsum([po["inner_steps_used"] for po in record.per_outer]) - 1

    kernel = instance.kernel()
    mu = instance.histogram_matrix()
    log_v = np.zeros(instance.support_size)
    worst = 0.0
    for outer, end in enumerate(ends):
        _, log_v = otcore._ibp_log_step(mu, kernel, instance.ridge, log_v)
        log_v = log_v - log_v.mean()
        z = record.round_log_v[end]
        z = z - z.mean(axis=1, keepdims=True)
        worst = max(worst, float(np.abs(z - log_v[None, :]).max()))
    assert worst <= 1e-8
    assert elapsed < 10.0


@pytest.mark.acceptance(
    "criterion 3: one scaling cycle contracts the Hilbert metric by at most "
    "tanh^2(max|C|/2eps) on 100+ random simplex pairs at eps in "
    "{0.1, 0.5, 1.0} (d=16, under 30 s)"
)
def test_c03_hilbert_contraction_sweep():
    t0 = time.perf_counter()
    hists = tuple(cfgmod.mixture_histograms(16, 4, density_seed=7))
    rng = np.random.default_rng(42)
    for epsilon in (0.1, 0.5, 1.0):
        instance = otcore.ProblemInstance(
            cost=otcore.grid_cost(16), epsilon=epsilon, ridge=1e-16, histograms=hists
        )
        kernel = instance.kernel()
        bound = np.tanh(instance.cost.entries.max() / (2.0 * epsilon)) ** 2
        checked = 0
        for _ in range(120):
            b1 = rng.dirichlet(np.full(16, 2.0))
            b2 = rng.dirichlet(np.full(16, 2.0))
            d_in = otcore.hilbert_distance(b1, b2)
            if d_in < 1e-12:
                continue
            d_out = otcore.hilbert_distance(
                otcore.ibp_cycle(instance, kernel, b1),
                otcore.ibp_cycle(instance, kernel, b2),
            )
            assert d_out / d_in <= bound + 1e-9
            checked += 1
        assert checked >= 100
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.acceptance(
    "criterion 4: synchronous unquantized gossip on ring(16) stays inside "
    "the sigma2(W)^s decay envelope for 100 rounds (under 5 s)"
)
def test_c04_consensus_decay_envelope():
    t0 = time.perf_counter()
    topology = build_topology("ring", n=16)
    comms = CommsConfig(delta=0.0, bits=None)
    rng = np.random.default_rng(3)
    z0 = rng.uniform(-1.0, 1.0, size=(16, 8))
    residuals, _ = consensus_trace(topology, comms, z0, steps=100, seed=0)
    sigma2 = metropolis_weights(topology).sigma2
    envelope = sigma2 ** np.arange(101) * residuals[0] + 1e-9
    assert np.all(residuals <= envelope)
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.acceptance(
    "criterion 5: on the 4x4 grid (d=64) every converged, clip-free run in "
    "the (delta, bits) grid keeps its error below the steady-state bias "
    "bound, and error grows with tau+delta+Dq (45 runs, under 5 min)"
)
def test_c05_tracking_bound(tracking_grid):
    runs, elapsed = tracking_grid
    assert len(runs) == 45
    assert not any(m.clip_active for _, m in runs)

    tracked = [(c, m) for c, m in runs if m.converged and not m.clip_active]
    assert len(tracked) >= 1
    for comms, metrics in tracked:
        assert metrics.l1_error_max <= metrics.bias_bound

    xs = np.array([c.tau_inner + c.delta + c.delta_q for c, _ in runs])
    ys = np.array([m.l1_error_max for _, m in runs])
    slope = np.polyfit(xs, ys, 1)[0]
    assert slope >= 0.0
    assert elapsed < 300.0


@pytest.mark.acceptance(
    "criterion 6: per-agent broadcasts stay within the 1 + ceil(V/delta) "
    "trigger budget in every run of the tracking grid"
)
def test_c06_trigger_budget(tracking_grid):
    runs, _ = tracking_grid
    checked = 0
    for comms, metrics in runs:
        if not comms.delta > 0 or np.isinf(comms.delta):
            continue
        budget = 1 + np.ceil(metrics.variation_per_agent / comms.delta)
        assert np.all(metrics.broadcasts_per_agent <= budget)
        checked += 1
    assert checked == 45


@pytest.mark.acceptance(
    "criterion 7: total messages scale near-linearly with network size "
    "(log-log slope in [0.8, 1.4] over N in {4,...,36}), messages and "
    "runtime grow strictly with N (under 10 min)"
)
def test_c07_message_scaling():
    t0 = time.perf_counter()
    base = run_config_from_dict(
        {
            "problem": {"d": 32},
            "network": {"topology_kind": "grid2d", "params": {"rows": 2, "cols": 2}},
            "comms": {
                "delta": 0.0,
                "bits": "unquantized",
                "tau_inner": 1e-13,
                "tau_outer": 1e-12,
                "inner_step_cap": 30,
                "outer_iter_cap": 10,
            },
            "seeds": [0, 1, 2, 3, 4],
        }
    )
    spec = experiments.SweepSpec("N", (4, 9, 16, 25, 36), base)
    sweeps = [experiments.run_sweep(spec) for _ in range(5)]
    assert all(failures == [] for *_, failures in sweeps)

    _, _, rows, _ = sweeps[0]
    sizes = np.array([r["N"] for r in rows], dtype=float)
    messages = np.array([r["messages_mean"] for r in rows])
    slope = np.polyfit(np.log(sizes), np.log(messages), 1)[0]
    assert 0.8 <= slope <= 1.4
    # the work count, which unlike runtime does not depend on the host
    assert all(a < b for a, b in zip(messages, messages[1:]))

    # host load and speed drift move single sweeps by tens of percent, more
    # than the N=4 -> 9 step: each N's fastest of five sweeps is compared
    runtimes = np.min([[r["runtime_mean"] for r in rows] for _, _, rows, _ in sweeps], axis=0)
    assert all(a < b for a, b in zip(runtimes, runtimes[1:]))
    assert time.perf_counter() - t0 < 600.0


@pytest.mark.acceptance(
    "criterion 8: delta=1e-3 triggered runs send at most 60% of the "
    "messages of matched delta=0 runs while staying within the bias bound "
    "(5 paired seeds on the 4x4 grid)"
)
def test_c08_bandwidth_saving(default_setup):
    instance, topology, oracle = default_setup
    always_on = replace(BASE_COMMS, delta=0.0)
    for seed in range(5):
        triggered, _ = experiments.run_decentralized(
            instance, topology, BASE_COMMS, seed=seed, oracle=oracle,
            collect_residuals=False,
        )
        dense, _ = experiments.run_decentralized(
            instance, topology, always_on, seed=seed, oracle=oracle,
            collect_residuals=False,
        )
        assert triggered.converged and dense.converged
        assert triggered.messages_total <= 0.60 * dense.messages_total
        assert triggered.l1_error_max <= triggered.bias_bound


@pytest.mark.acceptance(
    "criterion 9: quantizer round-trip error stays below Delta_q on 1e5 "
    "uniform samples per bit width in {1, 4, 8, 16}, and quantization is "
    "idempotent (under 5 s)"
)
def test_c09_quantizer_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for bits in (1, 4, 8, 16):
        comms = CommsConfig(bits=bits)
        x = rng.uniform(comms.s_min, comms.s_max, size=100_000)
        q = protocol.quantize(x, comms)
        assert np.max(np.abs(q - x)) <= comms.delta_q
        assert np.array_equal(protocol.quantize(q, comms), q)
    assert time.perf_counter() - t0 < 5.0


@pytest.mark.acceptance(
    "criterion 10: random-subset activation (p=0.5) with 10% drops and "
    "delay 2 keeps the error within 3x the synchronous level on at least "
    "19 of 20 seeds (under 5 min)"
)
def test_c10_asynchrony(default_setup):
    instance, topology, oracle = default_setup
    comms = replace(BASE_COMMS, bits=8)
    channel = ChannelModel(drop_prob=0.1, max_staleness=2)
    t0 = time.perf_counter()

    sync_errors = []
    for seed in range(5):
        metrics, _ = experiments.run_decentralized(
            instance, topology, comms, channel=channel, seed=seed,
            oracle=oracle, collect_residuals=False,
        )
        sync_errors.append(metrics.l1_error_max)
    sync_mean = float(np.mean(sync_errors))

    activation = ActivationModel(mode="randomized_subset", p_active=0.5)
    within = 0
    for seed in range(20):
        metrics, _ = experiments.run_decentralized(
            instance, topology, comms, channel=channel, activation=activation,
            seed=seed, oracle=oracle, collect_residuals=False,
        )
        if metrics.l1_error_max <= 3.0 * sync_mean:
            within += 1
    assert within >= 19
    assert time.perf_counter() - t0 < 300.0


@pytest.mark.acceptance(
    "criterion 11: error vs support size decreases strictly from d=8 to "
    "d=32 and the d=64->128 decrement is smaller than the d=8->16 one "
    "(under 5 min)"
)
def test_c11_support_saturation():
    t0 = time.perf_counter()
    base = run_config_from_dict(
        {
            "problem": {"d": 8},
            "comms": {
                "delta": 0.0,
                "bits": "unquantized",
                "tau_inner": 1e-8,
                "tau_outer": 1e-6,
                "inner_step_cap": 300,
                "outer_iter_cap": 100,
            },
            "seeds": [0],
        }
    )
    spec = experiments.SweepSpec("d", (8, 16, 32, 64, 128), base)
    _, _, rows, failures = experiments.run_sweep(spec)
    assert failures == []
    errors = [r["error_mean"] for r in rows]
    assert errors[0] > errors[1] > errors[2]
    assert errors[3] - errors[4] < errors[0] - errors[1]
    assert time.perf_counter() - t0 < 300.0
