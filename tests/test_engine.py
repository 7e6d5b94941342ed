"""The vectorized network engine must agree step-for-step with the per-agent
reference implementation in ``reference.py`` (per-agent protocol ops driven
by the packet-level scheduler), and every lane of a batch must run exactly
as it would alone."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsinkhorn import otcore, protocol
from dsinkhorn.config import mixture_histograms
from dsinkhorn.engine import NetworkEngine, consensus_trace, simulate_decentralized, simulate_lanes
from dsinkhorn.experiments import run_decentralized
from dsinkhorn.netsim import (
    ActivationModel,
    ChannelModel,
    Topology,
    build_topology,
    consensus_residual,
    metropolis_weights,
)
from dsinkhorn.protocol import CommsConfig
from reference import (
    AgentState,
    Packet,
    RoundScheduler,
    inner_converged,
    local_scaling_update,
    normalize_scale,
    pack_packet,
    reseed_inner,
)


def _instance(d=16, n=4, epsilon=0.5):
    hists = mixture_histograms(d, n, density_seed=7)
    return otcore.ProblemInstance(
        cost=otcore.grid_cost(d), epsilon=epsilon, ridge=1e-16, histograms=hists
    )


def reference_run(instance, topology, comms, channel=None, activation=None, seed=0):
    """Agent-by-agent rebuild of the decentralized loop. Deliberately slow
    and literal: every step goes through the protocol functions and the
    packet scheduler, nothing is vectorized."""
    kernel = instance.kernel()
    agents = [AgentState.initialize(i, kernel) for i in range(topology.num_nodes)]
    sched = RoundScheduler(topology, comms, channel, activation, seed)
    sched.bootstrap(agents)
    prev = np.stack([a.z for a in agents])
    converged = False
    global_round = 0
    outer = 0
    for outer in range(1, comms.outer_iter_cap + 1):
        for a, h in zip(agents, instance.histograms):
            local_scaling_update(a, h, kernel, instance.ridge)
            reseed_inner(a)
        for inner in range(1, comms.inner_step_cap + 1):
            global_round += 1
            sched.schedule_round(agents, global_round, outer, inner)
            if all(inner_converged(a, comms) for a in agents):
                break
        for a in agents:
            normalize_scale(a)
        z = np.stack([a.z for a in agents])
        change = float(np.abs(z - prev).max())
        prev = z.copy()
        if change < comms.tau_outer:
            converged = True
            break
    return {
        "log_v": prev,
        "converged": converged,
        "outer_iters": outer,
        "rounds_total": global_round,
        "messages": np.array([a.messages_sent for a in agents]),
        "variation": np.array([a.variation_accum for a in agents]),
    }


REGIMES = [
    pytest.param(
        dict(
            topology=("complete", {"n": 4}),
            comms=CommsConfig(delta=1e-3, bits=8, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=40, outer_iter_cap=8),
            channel=None,
            activation=None,
        ),
        id="clean-sync-8bit",
    ),
    pytest.param(
        dict(
            topology=("complete", {"n": 4}),
            comms=CommsConfig(delta=1e-3, bits=16, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=40, outer_iter_cap=8),
            channel=ChannelModel(drop_prob=0.3, max_staleness=2),
            activation=None,
        ),
        id="lossy-delayed-sync",
    ),
    pytest.param(
        dict(
            # delta well below typical per-round movement: the trigger is
            # effectively always on, but not sensitive to 1-ulp differences
            # in summation order the way delta = 0 would be
            topology=("ring", {"n": 4}),
            comms=CommsConfig(delta=1e-5, bits=None, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=40, outer_iter_cap=8),
            channel=None,
            activation=ActivationModel(mode="randomized_subset", p_active=0.6),
        ),
        id="clean-subset",
    ),
    pytest.param(
        dict(
            topology=("ring", {"n": 4}),
            comms=CommsConfig(delta=1e-2, bits=12, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=40, outer_iter_cap=8),
            channel=ChannelModel(drop_prob=0.2),
            activation=ActivationModel(mode="randomized_pairwise"),
        ),
        id="lossy-pairwise-12bit",
    ),
    pytest.param(
        dict(
            # inner cap 3 with delays up to 3 rounds: packets sent late in
            # an inner window are still in flight at the outer boundary and
            # land in the next window
            topology=("ring", {"n": 4}),
            comms=CommsConfig(delta=1e-3, bits=12, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=3, outer_iter_cap=12),
            channel=ChannelModel(drop_prob=0.25, max_staleness=3),
            activation=None,
        ),
        id="lossy-stale-cap3",
    ),
]


class TestEngineMatchesReference:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_full_run_parity(self, regime):
        kind, params = regime["topology"]
        topology = build_topology(kind, **params)
        instance = _instance(d=16, n=topology.num_nodes)
        record = simulate_decentralized(
            instance, topology, regime["comms"],
            channel=regime["channel"], activation=regime["activation"], seed=5,
        )
        ref = reference_run(
            instance, topology, regime["comms"],
            channel=regime["channel"], activation=regime["activation"], seed=5,
        )
        assert record.converged == ref["converged"]
        assert record.outer_iters == ref["outer_iters"]
        assert record.rounds_total == ref["rounds_total"]
        assert np.array_equal(record.messages_per_agent, ref["messages"])
        assert_allclose(record.log_v, ref["log_v"], atol=1e-12)
        assert_allclose(record.variation_per_agent, ref["variation"], atol=1e-12)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_bytes_account_for_every_broadcast(self, regime):
        # every reference broadcast reaches each neighbor as one packed packet
        kind, params = regime["topology"]
        topology = build_topology(kind, **params)
        instance = _instance(d=16, n=topology.num_nodes)
        metrics, _ = run_decentralized(
            instance, topology, regime["comms"], channel=regime["channel"],
            activation=regime["activation"], seed=5, compute_error=False,
        )
        ref = reference_run(
            instance, topology, regime["comms"],
            channel=regime["channel"], activation=regime["activation"], seed=5,
        )
        packet = Packet(sender=0, payload=protocol.quantize(np.zeros(16), regime["comms"]),
                        outer_iter=1, inner_step=1)
        wire = len(pack_packet(packet, regime["comms"]))
        assert metrics.bytes_total == int(ref["messages"] @ topology.degrees()) * wire


class TestRunRecord:
    def test_barycenters_on_simplex(self):
        topology = build_topology("complete", n=4)
        record = simulate_decentralized(
            _instance(), topology,
            CommsConfig(delta=1e-3, bits=16, inner_step_cap=40, outer_iter_cap=10),
            seed=0,
        )
        assert record.barycenters.shape == (4, 16)
        assert record.barycenters.min() >= 0.0
        assert_allclose(record.barycenters.sum(axis=1), np.ones(4), atol=1e-12)

    def test_topology_size_mismatch(self):
        with pytest.raises(ValueError, match="topology size"):
            simulate_decentralized(
                _instance(n=4), build_topology("ring", n=5), CommsConfig()
            )

    def test_round_log_v_collection(self):
        topology = build_topology("ring", n=4)
        comms = CommsConfig(delta=0.0, bits=None, inner_step_cap=25, outer_iter_cap=4)
        record = simulate_decentralized(
            _instance(), topology, comms, seed=1, collect_round_log_v=True
        )
        assert len(record.round_log_v) == record.rounds_total
        assert record.round_log_v[0].shape == (4, 16)
        used = sum(p["inner_steps_used"] for p in record.per_outer)
        assert used == record.rounds_total

    def test_clip_flag_raised_by_tight_range(self):
        topology = build_topology("complete", n=4)
        comms = CommsConfig(delta=0.0, bits=8, s_min=-0.01, s_max=0.01,
                            inner_step_cap=10, outer_iter_cap=3)
        record = simulate_decentralized(_instance(), topology, comms, seed=0)
        assert record.clip_active

    def test_clip_flag_clear_in_wide_range(self):
        topology = build_topology("complete", n=4)
        comms = CommsConfig(delta=0.0, bits=16, inner_step_cap=40, outer_iter_cap=10)
        record = simulate_decentralized(_instance(), topology, comms, seed=0)
        assert not record.clip_active

    def test_per_outer_bookkeeping(self):
        topology = build_topology("complete", n=4)
        comms = CommsConfig(delta=1e-3, bits=16, inner_step_cap=30, outer_iter_cap=6)
        record = simulate_decentralized(_instance(), topology, comms, seed=2)
        assert len(record.per_outer) == record.outer_iters
        for k, entry in enumerate(record.per_outer):
            assert entry["outer_iter"] == k + 1
            assert 1 <= entry["inner_steps_used"] <= comms.inner_step_cap
            assert len(entry["consensus_residual_trace"]) == entry["inner_steps_used"]
            assert entry["log_v_change_linf"] >= 0.0


class TestSingleNode:
    def test_matches_centralized_solver(self):
        # a one-node network runs the plain centralized iteration
        rng = np.random.default_rng(31)
        w = rng.random(8) + 0.05
        instance = otcore.ProblemInstance(
            cost=otcore.grid_cost(8),
            epsilon=0.5,
            ridge=1e-16,
            histograms=(otcore.Histogram(w / w.sum()),),
        )
        comms = CommsConfig(delta=0.0, bits=None, tau_outer=1e-9,
                            inner_step_cap=5, outer_iter_cap=300)
        record = simulate_decentralized(instance, Topology(1, ()), comms, seed=0)
        central = otcore.centralized_barycenter(instance, tol=1e-9, max_iter=300)
        assert record.converged and central.converged
        assert record.outer_iters == central.iterations
        assert_allclose(record.barycenters[0], central.barycenter.weights, atol=1e-10)
        # no edges: each outer iteration costs exactly one (empty) round
        assert record.rounds_total == record.outer_iters


class TestConsensusTrace:
    def test_shape_and_initial_residual(self):
        topology = build_topology("ring", n=8)
        comms = CommsConfig(delta=0.0, bits=None, s_min=-50.0, s_max=50.0)
        rng = np.random.default_rng(3)
        z0 = rng.normal(size=(8, 2))
        residuals, z_final = consensus_trace(topology, comms, z0, steps=40)
        assert residuals.shape == (41,)
        assert residuals[0] == pytest.approx(consensus_residual(z0), rel=1e-12)
        assert z_final.shape == (8, 2)

    def test_clean_sync_decay_envelope(self):
        topology = build_topology("ring", n=8)
        sigma2 = metropolis_weights(topology).sigma2
        comms = CommsConfig(delta=0.0, bits=None, s_min=-50.0, s_max=50.0)
        rng = np.random.default_rng(4)
        z0 = rng.normal(size=(8, 3))
        residuals, _ = consensus_trace(topology, comms, z0, steps=60)
        for s in range(61):
            assert residuals[s] <= (sigma2 ** s) * residuals[0] + 1e-9

    def test_complete_graph_reaches_mean_in_one_round(self):
        topology = build_topology("complete", n=5)
        comms = CommsConfig(delta=0.0, bits=None, s_min=-50.0, s_max=50.0)
        rng = np.random.default_rng(6)
        z0 = rng.normal(size=(5, 2))
        residuals, z_final = consensus_trace(topology, comms, z0, steps=3)
        assert residuals[1] <= 1e-13
        assert_allclose(z_final, np.tile(z0.mean(axis=0), (5, 1)), atol=1e-12)

    def test_engine_matches_scheduler_on_pure_gossip(self):
        topology = build_topology("grid2d", rows=2, cols=3)
        comms = CommsConfig(delta=1e-3, bits=12, s_min=-30.0, s_max=30.0)
        channel = ChannelModel(drop_prob=0.2, max_staleness=1)
        rng = np.random.default_rng(7)
        z0 = rng.normal(size=(6, 2))
        residuals, z_final = consensus_trace(
            topology, comms, z0, steps=25, channel=channel, seed=9
        )
        agents = [
            AgentState(agent_id=i, u=np.ones(2), s=np.zeros(2), z=z0[i].copy())
            for i in range(6)
        ]
        sched = RoundScheduler(topology, comms, channel=channel, seed=9)
        sched.bootstrap(agents)
        for r in range(1, 26):
            sched.schedule_round(agents, r, 0, r)
        assert_allclose(z_final, np.stack([a.z for a in agents]), atol=1e-13)
        assert residuals[-1] == pytest.approx(
            consensus_residual(np.stack([a.z for a in agents])), abs=1e-12
        )


def _regime_setup(regime):
    kind, params = regime["topology"]
    topology = build_topology(kind, **params)
    return _instance(d=16, n=topology.num_nodes), topology


def _assert_same_record(a, b):
    """Two records of the same lane are bit-identical (wall time aside)."""
    for name in ("converged", "outer_iters", "rounds_total", "clip_active", "per_outer"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("log_v", "barycenters", "messages_per_agent", "variation_per_agent"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


class TestLanes:
    SEEDS = (5, 6, 7)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_batch_equals_one_lane_runs(self, regime):
        instance, topology = _regime_setup(regime)
        comms, channel, activation = regime["comms"], regime["channel"], regime["activation"]
        batch = simulate_lanes(instance, topology, [(comms, s) for s in self.SEEDS], channel, activation)
        for seed, record in zip(self.SEEDS, batch):
            alone = simulate_decentralized(instance, topology, comms, channel, activation, seed=seed)
            _assert_same_record(record, alone)
            assert all(p["consensus_residual_trace"] for p in record.per_outer)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_every_lane_matches_reference(self, regime):
        instance, topology = _regime_setup(regime)
        comms, channel, activation = regime["comms"], regime["channel"], regime["activation"]
        batch = simulate_lanes(instance, topology, [(comms, s) for s in self.SEEDS], channel, activation)
        for seed, record in zip(self.SEEDS, batch):
            ref = reference_run(instance, topology, comms, channel, activation, seed=seed)
            assert record.converged == ref["converged"]
            assert record.outer_iters == ref["outer_iters"]
            assert record.rounds_total == ref["rounds_total"]
            assert np.array_equal(record.messages_per_agent, ref["messages"])
            assert_allclose(record.log_v, ref["log_v"], atol=1e-12)
            assert_allclose(record.variation_per_agent, ref["variation"], atol=1e-12)

    @staticmethod
    def _companions(comms):
        """Seeds 6 and 7, plus two delta=1 lanes that stop early in some
        regimes: in lossy-stale-cap3 they retire at rounds 18 and 21, with
        packets of the other lanes still in flight."""
        loose = dataclasses.replace(comms, delta=1.0)
        return [(comms, 6), (comms, 7), (loose, 0), (loose, 2)]

    @pytest.mark.parametrize("regime", REGIMES)
    def test_lane_position_does_not_matter(self, regime):
        instance, topology = _regime_setup(regime)
        comms, channel, activation = regime["comms"], regime["channel"], regime["activation"]
        others = self._companions(comms)
        alone = simulate_lanes(instance, topology, [(comms, 5)], channel, activation)[0]
        first = simulate_lanes(instance, topology, [(comms, 5)] + others, channel, activation)
        last = simulate_lanes(instance, topology, others + [(comms, 5)], channel, activation)
        _assert_same_record(first[0], alone)
        _assert_same_record(last[-1], alone)
        for (lane_comms, seed), record in zip(others, last):
            _assert_same_record(record, simulate_decentralized(
                instance, topology, lane_comms, channel, activation, seed=seed))

    @pytest.mark.parametrize("regime_id", ["clean-subset", "lossy-stale-cap3"])
    def test_lanes_retire_at_different_rounds(self, regime_id):
        regime = next(p.values[0] for p in REGIMES if p.id == regime_id)
        instance, topology = _regime_setup(regime)
        lanes = [(regime["comms"], 5)] + self._companions(regime["comms"])
        batch = simulate_lanes(instance, topology, lanes, regime["channel"], regime["activation"])
        assert len({r.rounds_total for r in batch}) > 2

    def test_lanes_may_differ_in_delta(self):
        instance, topology = _instance(), build_topology("complete", n=4)
        comms = CommsConfig(delta=1e-3, bits=12, inner_step_cap=30, outer_iter_cap=4)
        always = dataclasses.replace(comms, delta=0.0)
        batch = simulate_lanes(instance, topology, [(comms, 3), (always, 3)])
        _assert_same_record(batch[0], simulate_decentralized(instance, topology, comms, seed=3))
        _assert_same_record(batch[1], simulate_decentralized(instance, topology, always, seed=3))

    SHARED = {"tau_inner": 1e-5, "tau_outer": 1e-7, "bits": 8, "s_min": -20.0, "s_max": 20.0,
              "inner_step_cap": 7, "outer_iter_cap": 3}

    def test_shared_fields_are_all_but_delta(self):
        assert {f.name for f in dataclasses.fields(CommsConfig)} == {"delta", *self.SHARED}

    @pytest.mark.parametrize("field", sorted(SHARED))
    def test_lanes_must_share_comms_except_delta(self, field):
        comms = CommsConfig()
        change = {field: self.SHARED[field]}
        other = dataclasses.replace(comms, delta=0.5, **change)
        with pytest.raises(ValueError, match="only in seed and comms.delta"):
            simulate_lanes(_instance(), build_topology("complete", n=4), [(comms, 0), (other, 1)])
        with pytest.raises(ValueError, match="only in seed and comms.delta"):
            NetworkEngine(build_topology("complete", n=4), [(comms, 0), (other, 1)])

    def test_wall_clock_is_the_lanes_share_by_rounds(self):
        regime = next(p.values[0] for p in REGIMES if p.id == "lossy-stale-cap3")
        instance, topology = _regime_setup(regime)
        lanes = [(regime["comms"], 5)] + self._companions(regime["comms"])
        batch = simulate_lanes(instance, topology, lanes, regime["channel"], regime["activation"])
        assert len({r.rounds_total for r in batch}) > 1
        per_round = [r.wall_clock_seconds / r.rounds_total for r in batch]
        assert per_round[0] > 0
        assert_allclose(per_round, per_round[0], rtol=1e-12)


def _crafted_failures():
    """A 1-bit quantizer over a 2000-wide clip range: payloads sit at +-1000,
    so z can overflow exp() at the next local scaling. Under 90% drops and
    p=0.4 subset activation whether it does depends on the seed."""
    instance = _instance()
    topology = build_topology("ring", n=4)
    comms = CommsConfig(delta=0.0, bits=1, s_min=-1002.7, s_max=997.3, tau_outer=1e-300,
                        inner_step_cap=20, outer_iter_cap=6)
    channel = ChannelModel(drop_prob=0.9)
    activation = ActivationModel(mode="randomized_subset", p_active=0.4)
    return instance, topology, comms, channel, activation


class TestLaneFailures:
    def test_failing_lanes_retire_alone(self):
        instance, topology, comms, channel, activation = _crafted_failures()
        seeds = list(range(8))
        batch = simulate_lanes(instance, topology, [(comms, s) for s in seeds], channel, activation)
        failed = [s for s, r in zip(seeds, batch) if isinstance(r, Exception)]
        assert 0 < len(failed) < len(seeds)
        healthy_rounds = max(r.rounds_total for r in batch if not isinstance(r, Exception))
        for seed, result in zip(seeds, batch):
            if not isinstance(result, Exception):
                _assert_same_record(result, simulate_decentralized(
                    instance, topology, comms, channel, activation, seed=seed))
                continue
            assert isinstance(result, protocol.ClipRangeError)
            assert result.__traceback__ is None  # held, not raised, by the batch
            with pytest.raises(protocol.ClipRangeError) as alone:
                simulate_decentralized(instance, topology, comms, channel, activation, seed=seed)
            assert str(result) == str(alone.value)
            outer = int(str(result).split("outer iteration ")[1].split(":")[0])
            assert str(result).startswith("node ") and 1 < outer <= comms.outer_iter_cap
        assert healthy_rounds > comms.inner_step_cap  # survivors ran on after failures

    def test_degenerate_lane_names_node_and_outer(self, monkeypatch):
        instance, topology = _instance(), build_topology("complete", n=4)
        comms = CommsConfig(delta=1e-3, bits=16, inner_step_cap=30, outer_iter_cap=4)
        real = otcore._local_scaling
        calls = []

        def annihilate_second_call(mu, kernel, ridge, v):
            calls.append(1)
            if len(calls) == 2:  # the second lane's first local scaling
                v = v.copy()
                v[2] = 0.0  # node 2: K v = 0, so u = mu / 0 without the ridge
                with np.errstate(divide="ignore", invalid="ignore"):
                    return real(mu, kernel, 0.0, v)
            return real(mu, kernel, ridge, v)

        monkeypatch.setattr(otcore, "_local_scaling", annihilate_second_call)
        batch = simulate_lanes(instance, topology, [(comms, s) for s in (0, 1, 2)])
        monkeypatch.setattr(otcore, "_local_scaling", real)
        assert isinstance(batch[1], otcore.DegenerateStateError)
        assert str(batch[1]).startswith("node 2 at outer iteration 1: K^T u has zero entries")
        for pos in (0, 2):
            _assert_same_record(batch[pos], simulate_decentralized(instance, topology, comms, seed=pos))

    def test_one_lane_call_raises(self):
        instance, topology, comms, channel, activation = _crafted_failures()
        with pytest.raises(protocol.ClipRangeError, match=r"^node \d at outer iteration \d"):
            simulate_decentralized(instance, topology, comms, channel, activation, seed=1)
