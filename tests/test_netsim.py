"""Tests for topologies, gossip weights, channel effects, and the reference
round scheduler."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsinkhorn.netsim import (
    ActivationModel,
    ChannelModel,
    Topology,
    TopologyError,
    build_topology,
    consensus_residual,
    draw_active,
    metropolis_weights,
    spectral_gap,
)
from dsinkhorn.protocol import CommsConfig
from reference import AgentState, RoundScheduler, effective_weights, expected_weights


def _agents(z0):
    z0 = np.asarray(z0, dtype=np.float64)
    return [
        AgentState(agent_id=i, u=np.ones(z0.shape[1]), s=np.zeros(z0.shape[1]), z=z0[i].copy())
        for i in range(z0.shape[0])
    ]


def _stack(agents):
    return np.stack([a.z for a in agents])


class TestTopologyBuilders:
    def test_grid2d_4x4(self):
        t = build_topology("grid2d", rows=4, cols=4)
        assert t.num_nodes == 16
        assert len(t.edges) == 24
        assert t.degrees().max() == 4
        assert t.degrees().min() == 2

    def test_grid2d_3x4(self):
        t = build_topology("grid2d", rows=3, cols=4)
        assert t.num_nodes == 12
        assert len(t.edges) == 17  # 3*3 horizontal + 2*4 vertical

    def test_ring(self):
        t = build_topology("ring", n=5)
        assert len(t.edges) == 5
        assert np.all(t.degrees() == 2)

    def test_path(self):
        t = build_topology("path", n=3)
        assert t.edges == ((0, 1), (1, 2))
        assert list(t.degrees()) == [1, 2, 1]

    def test_complete(self):
        t = build_topology("complete", n=3)
        assert len(t.edges) == 3
        assert np.all(t.degrees() == 2)

    def test_ring_needs_three(self):
        with pytest.raises(TopologyError):
            build_topology("ring", n=2)

    def test_unknown_kind(self):
        with pytest.raises(TopologyError):
            build_topology("hypercube", n=8)

    def test_random_geometric_deterministic(self):
        a = build_topology("random_geometric", n=12, radius=0.45, seed=3)
        b = build_topology("random_geometric", n=12, radius=0.45, seed=3)
        assert a.edges == b.edges
        assert a.num_nodes == 12

    def test_random_geometric_tiny_radius_fails(self):
        with pytest.raises(TopologyError, match="disconnected"):
            build_topology("random_geometric", n=20, radius=1e-4, seed=0, max_attempts=5)


class TestTopologyValidation:
    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError, match="self-loop"):
            Topology(3, ((0, 0), (0, 1), (1, 2)))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(TopologyError, match="duplicate"):
            Topology(3, ((0, 1), (1, 0), (1, 2)))

    def test_rejects_out_of_range(self):
        with pytest.raises(TopologyError, match="out of range"):
            Topology(3, ((0, 1), (1, 3)))

    def test_rejects_disconnected(self):
        with pytest.raises(TopologyError, match="not connected"):
            Topology(4, ((0, 1), (2, 3)))

    def test_single_node_is_valid(self):
        t = Topology(1, ())
        assert t.num_nodes == 1
        assert t.degrees()[0] == 0

    def test_edges_are_normalized(self):
        t = Topology(3, ((2, 1), (1, 0)))
        assert t.edges == ((0, 1), (1, 2))

    def test_directed_edges_both_ways(self):
        t = Topology(3, ((0, 1), (1, 2)))
        d = t.directed_edges()
        assert d.shape == (4, 2)
        assert [tuple(r) for r in d] == [(0, 1), (1, 0), (1, 2), (2, 1)]


class TestMetropolisWeights:
    def test_path3_hand_values(self):
        gw = metropolis_weights(build_topology("path", n=3))
        expected = np.array(
            [[2.0 / 3.0, 1.0 / 3.0, 0.0],
             [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
             [0.0, 1.0 / 3.0, 2.0 / 3.0]]
        )
        assert_allclose(gw.w, expected, rtol=1e-15)

    def test_complete_is_uniform_average(self):
        n = 5
        gw = metropolis_weights(build_topology("complete", n=n))
        assert_allclose(gw.w, np.full((n, n), 1.0 / n), rtol=1e-12)
        assert gw.sigma2 == pytest.approx(0.0, abs=1e-12)

    def test_doubly_stochastic_on_random_graphs(self):
        for seed in range(50):
            t = build_topology("random_geometric", n=10, radius=0.6, seed=seed)
            w = metropolis_weights(t).w
            assert_allclose(w.sum(axis=0), np.ones(10), atol=1e-12)
            assert_allclose(w.sum(axis=1), np.ones(10), atol=1e-12)
            assert_allclose(w, w.T, atol=1e-15)
            assert w.min() >= 0.0

    def test_beta_is_min_positive_entry(self):
        gw = metropolis_weights(build_topology("path", n=3))
        assert gw.beta == pytest.approx(1.0 / 3.0)
        assert gw.beta > 0


class TestSpectralGap:
    def test_rank_one_projector(self):
        sigma2, gap = spectral_gap(np.full((2, 2), 0.5))
        assert sigma2 == pytest.approx(0.0, abs=1e-12)
        assert gap == pytest.approx(1.0, abs=1e-12)

    def test_matches_eigenvalues_on_ring(self):
        w = metropolis_weights(build_topology("ring", n=8)).w
        sigma2, _ = spectral_gap(w)
        eig = np.sort(np.abs(np.linalg.eigvalsh(w)))
        assert sigma2 == pytest.approx(eig[-2], abs=1e-10)
        assert 0.0 < sigma2 < 1.0


class TestConsensusResidual:
    def test_consensus_is_zero(self):
        assert consensus_residual(np.ones((4, 3)) * 2.5) == 0.0

    def test_hand_value(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert consensus_residual(z) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_contracts_under_averaging(self):
        rng = np.random.default_rng(2)
        w = metropolis_weights(build_topology("ring", n=8)).w
        sigma2, _ = spectral_gap(w)
        z = rng.normal(size=(8, 3))
        for _ in range(20):
            z_next = w @ z
            assert consensus_residual(z_next) <= sigma2 * consensus_residual(z) + 1e-12
            z = z_next

    @pytest.mark.parametrize("shape", [(16, 64), (3, 16, 64), (1, 64, 256), (2, 1), (4, 1, 5)])
    def test_bit_identical_to_np_mean_deviations(self, shape):
        # trace.csv holds these values, so the node mean must stay np.mean's
        rng = np.random.default_rng(3)
        for scale in (1e-8, 1.0, 1e6):
            z = rng.normal(size=shape) * scale + 1e3
            dev = (z - z.mean(axis=-2, keepdims=True)).reshape(*z.shape[:-2], 1, -1)
            want = np.sqrt(dev @ dev.swapaxes(-1, -2))[..., 0, 0]
            got = np.asarray(consensus_residual(z))
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestEffectiveWeights:
    def test_all_active_matches_metropolis(self):
        t = build_topology("grid2d", rows=3, cols=3)
        w = effective_weights(t, np.ones(9, dtype=bool))
        assert_allclose(w, metropolis_weights(t).w, atol=1e-15)

    def test_inactive_nodes_keep_identity_rows(self):
        t = build_topology("ring", n=6)
        active = np.array([True, True, False, True, False, True])
        w = effective_weights(t, active)
        for i in (2, 4):
            assert w[i, i] == 1.0
            assert np.abs(w[i]).sum() == 1.0
            assert np.abs(w[:, i]).sum() == 1.0

    def test_isolated_active_node_is_identity(self):
        t = build_topology("path", n=3)
        w = effective_weights(t, np.array([True, False, True]))
        assert_allclose(w, np.eye(3), atol=1e-15)

    def test_doubly_stochastic_for_random_masks(self):
        rng = np.random.default_rng(5)
        t = build_topology("grid2d", rows=3, cols=4)
        for _ in range(40):
            mask = rng.random(12) < 0.6
            w = effective_weights(t, mask)
            assert_allclose(w.sum(axis=0), np.ones(12), atol=1e-12)
            assert_allclose(w.sum(axis=1), np.ones(12), atol=1e-12)
            assert_allclose(w, w.T, atol=1e-15)


class TestExpectedWeights:
    def test_synchronous_is_metropolis(self):
        t = build_topology("ring", n=5)
        w = expected_weights(t, ActivationModel(mode="synchronous"))
        assert_allclose(w, metropolis_weights(t).w, atol=1e-15)

    def test_pairwise_is_laplacian_form(self):
        t = build_topology("ring", n=6)
        w = expected_weights(t, ActivationModel(mode="randomized_pairwise"))
        lap = np.diag(t.degrees().astype(float)) - t.adjacency().astype(float)
        assert_allclose(w, np.eye(6) - lap / 12.0, atol=1e-15)

    def test_pairwise_matches_empirical_mean(self):
        t = build_topology("ring", n=5)
        act = ActivationModel(mode="randomized_pairwise")
        rng = np.random.default_rng(7)
        total = np.zeros((5, 5))
        trials = 4000
        for _ in range(trials):
            total += effective_weights(t, draw_active(rng, act, t))
        assert_allclose(total / trials, expected_weights(t, act), atol=0.02)

    @pytest.mark.parametrize("kind, params, p", [
        ("ring", {"n": 5}, 0.4),
        ("path", {"n": 4}, 0.7),
    ])
    def test_subset_matches_brute_force(self, kind, params, p):
        # average the per-mask effective matrix over all 2^n activation
        # patterns; the closed form must agree exactly
        t = build_topology(kind, **params)
        n = t.num_nodes
        w_brute = np.zeros((n, n))
        for mask_bits in range(1 << n):
            mask = np.array([(mask_bits >> b) & 1 for b in range(n)], dtype=bool)
            prob = p ** mask.sum() * (1 - p) ** (n - mask.sum())
            w_brute += prob * effective_weights(t, mask)
        w_exact = expected_weights(t, ActivationModel(mode="randomized_subset", p_active=p))
        assert_allclose(w_exact, w_brute, atol=1e-12)

    def test_expected_matrix_is_doubly_stochastic(self):
        t = build_topology("grid2d", rows=2, cols=3)
        for act in (
            ActivationModel(mode="randomized_pairwise"),
            ActivationModel(mode="randomized_subset", p_active=0.5),
        ):
            w = expected_weights(t, act)
            assert_allclose(w.sum(axis=1), np.ones(6), atol=1e-12)
            assert_allclose(w, w.T, atol=1e-12)


class TestChannelAndActivationModels:
    def test_full_drop_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            ChannelModel(drop_prob=1.0)

    def test_near_full_drop_allowed(self):
        assert ChannelModel(drop_prob=0.999).drop_prob == 0.999

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError):
            ChannelModel(max_staleness=-1)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown activation mode"):
            ActivationModel(mode="round_robin")

    @pytest.mark.parametrize("p", [0.0, 1.5])
    def test_bad_p_active(self, p):
        with pytest.raises(ValueError):
            ActivationModel(mode="randomized_subset", p_active=p)

    def test_draw_active_modes(self):
        t = build_topology("ring", n=6)
        rng = np.random.default_rng(0)
        assert draw_active(rng, ActivationModel(), t).all()
        pair = draw_active(rng, ActivationModel(mode="randomized_pairwise"), t)
        assert pair.sum() == 2
        i, k = np.flatnonzero(pair)
        assert t.adjacency()[i, k]


class TestSchedulerCleanSynchronous:
    """With delta = 0, no quantization, and a perfect channel the scheduled
    rounds reproduce the plain averaging iteration z <- W z."""

    def _run(self, steps=12):
        t = build_topology("ring", n=6)
        comms = CommsConfig(delta=0.0, bits=None, s_min=-50.0, s_max=50.0)
        sched = RoundScheduler(t, comms)
        rng = np.random.default_rng(9)
        z0 = rng.normal(size=(6, 3))
        agents = _agents(z0)
        sched.bootstrap(agents)
        w = metropolis_weights(t).w
        ref = z0.copy()
        for r in range(1, steps + 1):
            sched.schedule_round(agents, r)
            ref = w @ ref
            yield r, _stack(agents), ref

    def test_matches_matrix_iteration(self):
        for r, z, ref in self._run():
            assert_allclose(z, ref, atol=1e-13)

    def test_mean_is_preserved(self):
        for r, z, ref in self._run():
            assert_allclose(z.mean(axis=0), ref.mean(axis=0), atol=1e-13)

    def test_residual_contracts(self):
        sigma2 = metropolis_weights(build_topology("ring", n=6)).sigma2
        prev = None
        for r, z, ref in self._run(steps=25):
            res = consensus_residual(z)
            if prev is not None:
                assert res <= sigma2 * prev + 1e-12
            prev = res


class TestSchedulerFrozenCaches:
    def test_infinite_delta_converges_to_cache_average(self):
        # after the bootstrap nobody retransmits, so each node relaxes onto
        # the average of its frozen neighbor payloads:
        #   z*_i = sum_k w_ik z0_k / (1 - w_ii)
        t = build_topology("grid2d", rows=2, cols=3)
        comms = CommsConfig(delta=np.inf, bits=None, s_min=-50.0, s_max=50.0)
        sched = RoundScheduler(t, comms)
        rng = np.random.default_rng(11)
        z0 = rng.normal(size=(6, 2))
        agents = _agents(z0)
        sched.bootstrap(agents)
        for r in range(1, 400):
            sched.schedule_round(agents, r)
        w = metropolis_weights(t).w
        for a in agents:
            i = a.agent_id
            target = (w[i] @ z0 - w[i, i] * z0[i]) / (1.0 - w[i, i])
            assert_allclose(a.z, target, atol=1e-10)
        assert all(a.messages_sent == 1 for a in agents)


class TestSchedulerChannel:
    def _drive(self, drop, staleness, seed, rounds=40):
        t = build_topology("grid2d", rows=2, cols=3)
        comms = CommsConfig(delta=0.0, bits=8, s_min=-30.0, s_max=30.0)
        channel = ChannelModel(drop_prob=drop, max_staleness=staleness)
        sched = RoundScheduler(t, comms, channel=channel, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        agents = _agents(rng.normal(size=(6, 2)))
        sched.bootstrap(agents)
        reports = []
        for r in range(1, rounds + 1):
            for a in agents:  # local drift keeps the triggers firing
                a.z = a.z + rng.normal(scale=0.05, size=2)
            reports.append((r, sched.schedule_round(agents, r, inner_step=r)))
        return t, agents, reports

    def test_caches_follow_delivered_packets(self):
        # the delivery log alone must reconstruct every cache at every round
        t = build_topology("grid2d", rows=2, cols=3)
        comms = CommsConfig(delta=0.0, bits=8, s_min=-30.0, s_max=30.0)
        sched = RoundScheduler(
            t, comms, channel=ChannelModel(drop_prob=0.3, max_staleness=2), seed=4
        )
        rng = np.random.default_rng(1004)
        agents = _agents(rng.normal(size=(6, 2)))
        sched.bootstrap(agents)
        replay = {
            (a.agent_id, k): a.neighbor_cache[k].payload.copy()
            for a in agents
            for k in a.neighbor_cache
        }
        for r in range(1, 41):
            for a in agents:
                a.z = a.z + rng.normal(scale=0.05, size=2)
            report = sched.schedule_round(agents, r, inner_step=r)
            for rcv, pkt in report.delivered:
                replay[(rcv, pkt.sender)] = pkt.payload.copy()
            for a in agents:
                for k, cached in a.neighbor_cache.items():
                    assert np.array_equal(cached.payload, replay[(a.agent_id, k)])

    def test_delivered_packets_respect_staleness_and_order(self):
        staleness = 3
        t = build_topology("ring", n=5)
        comms = CommsConfig(delta=0.0, bits=None, s_min=-50.0, s_max=50.0)
        sched = RoundScheduler(
            t, comms, channel=ChannelModel(drop_prob=0.2, max_staleness=staleness), seed=8
        )
        rng = np.random.default_rng(88)
        agents = _agents(rng.normal(size=(5, 2)))
        sched.bootstrap(agents)
        last_seen = {}
        for r in range(1, 60):
            for a in agents:
                a.z = a.z + rng.normal(scale=0.05, size=2)
            report = sched.schedule_round(agents, r, inner_step=r)
            for rcv, pkt in report.delivered:
                age = r - pkt.inner_step
                assert 0 <= age <= staleness
                key = (rcv, pkt.sender)
                # freshness: applied packets are strictly newer than the cache
                assert pkt.inner_step > last_seen.get(key, -1)
                last_seen[key] = pkt.inner_step

    def test_same_seed_reproduces_exactly(self):
        _, agents_a, _ = self._drive(drop=0.25, staleness=1, seed=6)
        _, agents_b, _ = self._drive(drop=0.25, staleness=1, seed=6)
        for a, b in zip(agents_a, agents_b):
            assert np.array_equal(a.z, b.z)
            assert a.messages_sent == b.messages_sent

    def test_activation_stream_independent_of_channel(self):
        # the same run seed must produce the same activation masks whether or
        # not the channel drops packets
        t = build_topology("ring", n=6)
        comms = CommsConfig(delta=0.0, bits=None, s_min=-50.0, s_max=50.0)
        act = ActivationModel(mode="randomized_subset", p_active=0.5)
        masks = []
        for drop in (0.0, 0.5):
            sched = RoundScheduler(
                t, comms, channel=ChannelModel(drop_prob=drop), activation=act, seed=3
            )
            rng = np.random.default_rng(30)
            agents = _agents(rng.normal(size=(6, 2)))
            sched.bootstrap(agents)
            masks.append(
                [sched.schedule_round(agents, r).active.copy() for r in range(1, 15)]
            )
        for m_clean, m_noisy in zip(*masks):
            assert np.array_equal(m_clean, m_noisy)


class TestAsynchronousDecay:
    def test_subset_residual_tracks_expected_matrix(self):
        # averaged over seeds, the residual under random subset activation
        # follows the contraction rate of the expected averaging matrix
        t = build_topology("ring", n=6)
        act = ActivationModel(mode="randomized_subset", p_active=0.5)
        sigma2_bar, _ = spectral_gap(expected_weights(t, act))
        comms = CommsConfig(delta=0.0, bits=None, s_min=-50.0, s_max=50.0)
        rng = np.random.default_rng(14)
        z0 = rng.uniform(-1.0, 1.0, size=(6, 2))
        steps = 30
        traces = []
        for seed in range(24):
            sched = RoundScheduler(t, comms, activation=act, seed=seed)
            agents = _agents(z0)
            sched.bootstrap(agents)
            trace = [consensus_residual(_stack(agents))]
            for r in range(1, steps + 1):
                sched.schedule_round(agents, r)
                trace.append(consensus_residual(_stack(agents)))
            traces.append(trace)
        mean_trace = np.mean(traces, axis=0)
        r0 = mean_trace[0]
        for s in range(1, steps + 1):
            assert mean_trace[s] <= 1.1 * (sigma2_bar ** s) * r0


class TestInnerHorizonScaling:
    def test_rounds_to_tolerance_track_spectral_prediction(self):
        # the number of averaging rounds needed to push the residual below
        # tau scales like log(r0/tau) / (-log sigma2); check within 2x
        rng = np.random.default_rng(21)
        for n in (8, 16, 32, 64):
            t = build_topology("ring", n=n)
            gw = metropolis_weights(t)
            z = rng.normal(size=(n, 1))
            r0 = consensus_residual(z)
            for tau in (1e-2, 1e-4, 1e-6):
                pred = np.log(r0 / tau) / (-np.log(gw.sigma2))
                zt = z.copy()
                steps = 0
                while consensus_residual(zt) >= tau:
                    zt = gw.w @ zt
                    steps += 1
                    assert steps < 100000
                assert 0.4 * pred - 2 <= steps <= 2.0 * pred + 2
