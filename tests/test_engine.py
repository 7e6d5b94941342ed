"""The vectorized network engine must agree step-for-step with the per-agent
reference implementation in ``reference.py`` (per-agent protocol ops driven
by the packet-level scheduler), and every lane of a batch must run exactly
as it would alone."""

import copy
import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsinkhorn import config as cfgmod
from dsinkhorn import engine, netsim, otcore, protocol
from dsinkhorn.config import mixture_histograms
from dsinkhorn.engine import NetworkEngine, RunRecord, consensus_trace, simulate_lanes
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
    maybe_transmit,
    maybe_transmit_resending,
    normalize_scale,
    pack_packet,
    reseed_inner,
)

# simulate_lanes gives each record its comms' bias bound, which is +inf, with
# a RuntimeWarning naming the cause, at delta=inf or a clip range wide enough
# to overflow exp; these tests compare runs, not bounds
pytestmark = pytest.mark.filterwarnings("ignore:steady-state bias bound is \\+inf:RuntimeWarning")


def _instance(d=16, n=4, epsilon=0.5):
    hists = mixture_histograms(d, n, density_seed=7)
    return otcore.ProblemInstance(
        cost=otcore.grid_cost(d), epsilon=epsilon, ridge=1e-16, histograms=hists
    )


def _one_lane(instance, topology, comms, channel=None, activation=None, seed=0, **collect):
    """The one-lane batch: a lane alone, its RunRecord or the error that ended it."""
    return simulate_lanes(instance, topology, [(comms, seed)], channel, activation, **collect)[0]


def reference_run(instance, topology, comms, channel=None, activation=None, seed=0,
                  transmit=maybe_transmit):
    """Agent-by-agent rebuild of the decentralized loop. Deliberately slow
    and literal: every step goes through the protocol functions and the
    packet scheduler, nothing is vectorized."""
    kernel = instance.kernel()
    agents = [AgentState.initialize(i, kernel) for i in range(topology.num_nodes)]
    sched = RoundScheduler(topology, comms, channel, activation, seed, transmit)
    sched.bootstrap(agents)
    prev = np.stack([a.z for a in agents])
    round_z = []  # every round's stacked z
    inner_steps = []  # rounds used by each outer iteration
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
            round_z.append(np.stack([a.z for a in agents]))
            if all(inner_converged(a, comms) for a in agents):
                break
        inner_steps.append(inner)
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
        "round_z": round_z,
        "inner_steps": inner_steps,
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
    pytest.param(
        dict(
            # in-degrees 2, 3 and 4 in a cache grid of 4 slots: the pad rows
            # of the low-degree nodes see async weights, drops and delays
            topology=("grid2d", {"rows": 3, "cols": 3}),
            comms=CommsConfig(delta=1e-3, bits=16, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=40, outer_iter_cap=6),
            channel=ChannelModel(drop_prob=0.2, max_staleness=2),
            activation=ActivationModel(mode="randomized_subset", p_active=0.5),
        ),
        id="padded-grid-subset",
    ),
    pytest.param(
        dict(
            # the two end nodes have one in-edge, so one of their two cache
            # slots is padding, and the gap test stops every outer iteration
            # before the cap (delta as in clean-subset)
            topology=("path", {"n": 5}),
            comms=CommsConfig(delta=1e-5, bits=None, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=80, outer_iter_cap=8),
            channel=None,
            activation=None,
        ),
        id="path-ends",
    ),
    pytest.param(
        dict(
            # in-degree 9: the gossip sum runs over more than 8 slots, where
            # its order is no longer numpy's segment-sum order
            topology=("complete", {"n": 10}),
            comms=CommsConfig(delta=1e-3, bits=8, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=40, outer_iter_cap=6),
            channel=ChannelModel(drop_prob=0.1, max_staleness=1),
            activation=ActivationModel(mode="randomized_pairwise"),
        ),
        id="complete-10",
    ),
    pytest.param(
        dict(
            # a synchronous lossless channel: each outer iteration reaches a
            # bitwise fixed point (nothing sent, z unchanged) long before the
            # cap, so the engine skips the idle rounds that remain
            topology=("grid2d", {"rows": 3, "cols": 3}),
            comms=CommsConfig(delta=1e-3, bits=12, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=150, outer_iter_cap=4),
            channel=None,
            activation=None,
        ),
        id="sync-fixed-point-12bit",
    ),
    pytest.param(
        dict(
            topology=("grid2d", {"rows": 3, "cols": 3}),
            comms=CommsConfig(delta=1e-3, bits=None, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=150, outer_iter_cap=4),
            channel=None,
            activation=None,
        ),
        id="sync-fixed-point-unquantized",
    ),
    pytest.param(
        dict(
            # synchronous weights with drops and no delays: every kept packet
            # lands the round it is sent, the ring stays empty, and the
            # gossip keeps its neighbour sum through rounds that deliver nothing
            topology=("grid2d", {"rows": 3, "cols": 3}),
            comms=CommsConfig(delta=1e-3, bits=12, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=60, outer_iter_cap=4),
            channel=ChannelModel(drop_prob=0.2, max_staleness=0),
            activation=None,
        ),
        id="sync-drops-undelayed",
    ),
    pytest.param(
        dict(
            # in-degrees 1 to 9, so 9 cache slots and many pad rows; at
            # p=0.3 most receivers have no active in-edge in a round; a loose
            # tau_inner stops lanes on the gap test at different rounds, so
            # lanes retire while the 4-round send store holds packets
            topology=("random_geometric", {"n": 12, "radius": 0.45, "seed": 3}),
            comms=CommsConfig(delta=1e-3, bits=12, tau_inner=0.2, tau_outer=1e-6,
                              inner_step_cap=40, outer_iter_cap=6),
            channel=ChannelModel(drop_prob=0.2, max_staleness=3),
            activation=ActivationModel(mode="randomized_subset", p_active=0.3),
        ),
        id="geometric-sparse-subset",
    ),
    pytest.param(
        dict(
            # one active edge per round, its packets delayed up to 2 rounds
            topology=("grid2d", {"rows": 3, "cols": 3}),
            comms=CommsConfig(delta=1e-3, bits=16, tau_inner=1e-4, tau_outer=1e-6,
                              inner_step_cap=40, outer_iter_cap=6),
            channel=ChannelModel(drop_prob=0.1, max_staleness=2),
            activation=ActivationModel(mode="randomized_pairwise"),
        ),
        id="delayed-pairwise",
    ),
]
IDLING = ("sync-fixed-point-12bit", "sync-fixed-point-unquantized")
# The final values engine and reference agree on bit for bit, by regime;
# the reference sums the gossip in the engine's order. Every other final
# value, and every round's z and residual, differs by a few ulps at most,
# from a source not yet found.
BIT_EXACT = {
    "clean-sync-8bit": ("log_v", "variation"),
    **dict.fromkeys(("lossy-delayed-sync", "lossy-pairwise-12bit", "padded-grid-subset", "sync-fixed-point-12bit",
                     "sync-drops-undelayed", "delayed-pairwise"), ("log_v",)),
}


def _is_deterministic(regime) -> bool:
    """Synchronous, lossless and undelayed: the rounds the engine may skip."""
    channel, activation = regime["channel"], regime["activation"]
    return (activation is None or activation.mode == "synchronous") and (
        channel is None or (channel.drop_prob == 0 and channel.max_staleness == 0))


def _count_rounds_run(monkeypatch) -> list:
    """Patch NetworkEngine.step_round and step_block to count the rounds
    they compute in the returned list, one entry per round holding the
    number of lanes it stepped: a block counts once for each round it
    took. Idle rounds counted up to the inner cap are not run."""
    step_round, step_block, calls = NetworkEngine.step_round, NetworkEngine.step_block, []

    def counted(eng):
        calls.append(eng.lanes)
        step_round(eng)

    def counted_block(eng, rounds):
        taken = step_block(eng, rounds)
        calls.extend([eng.lanes] * taken)
        return taken

    monkeypatch.setattr(NetworkEngine, "step_round", counted)
    monkeypatch.setattr(NetworkEngine, "step_block", counted_block)
    return calls


class TestEngineMatchesReference:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_full_run_parity(self, regime):
        kind, params = regime["topology"]
        topology = build_topology(kind, **params)
        instance = _instance(d=16, n=topology.num_nodes)
        record = _one_lane(
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
        assert [p["inner_steps_used"] for p in record.per_outer] == ref["inner_steps"]
        assert np.array_equal(record.broadcasts_per_agent, ref["messages"])
        exact = next(BIT_EXACT.get(p.id, ()) for p in REGIMES if p.values[0] is regime)
        for name, value in (("log_v", record.log_v), ("variation", record.variation_per_agent)):
            if name in exact:
                assert _bitwise(value) == _bitwise(ref[name]), name
            else:  # the source of the difference is still unknown
                assert_allclose(value, ref[name], atol=1e-12)

    @pytest.mark.parametrize("regime_id", ["clean-subset", "path-ends", "geometric-sparse-subset"])
    def test_regimes_stop_on_the_gap_test(self, regime_id):
        # the engine scans every cache only when a lane may stop; these
        # regimes end outer iterations before the cap, so the parity test
        # above covers that scan, pad rows included
        regime = _regime(regime_id)
        instance, topology = _regime_setup(regime)
        record = _one_lane(instance, topology, regime["comms"], regime["channel"],
                           regime["activation"], seed=5)
        assert min(p["inner_steps_used"] for p in record.per_outer) < regime["comms"].inner_step_cap

    @pytest.mark.parametrize("regime", REGIMES)
    def test_round_by_round_parity(self, regime):
        # skipped idle rounds still appear in round_log_v and in the
        # residual traces, as the copies the reference computes
        instance, topology = _regime_setup(regime)
        args = (instance, topology, regime["comms"], regime["channel"], regime["activation"])
        record = _one_lane(*args, seed=5, collect_round_log_v=True)
        ref = reference_run(*args, seed=5)
        assert [p["inner_steps_used"] for p in record.per_outer] == ref["inner_steps"]
        assert len(record.round_log_v) == len(ref["round_z"]) == record.rounds_total
        for z, z_ref in zip(record.round_log_v, ref["round_z"]):
            assert_allclose(z, z_ref, atol=1e-12)  # the source of the difference is still unknown
        traces = [r for p in record.per_outer for r in p["consensus_residual_trace"]]
        assert_allclose(traces, [consensus_residual(z) for z in ref["round_z"]], atol=1e-12)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_idle_rounds_are_skipped_only_on_deterministic_channels(self, regime, monkeypatch):
        calls = _count_rounds_run(monkeypatch)
        instance, topology = _regime_setup(regime)
        record = _one_lane(instance, topology, regime["comms"], regime["channel"],
                           regime["activation"], seed=5)
        if not _is_deterministic(regime):
            assert len(calls) == record.rounds_total
        elif regime in [_regime(i) for i in IDLING]:
            assert len(calls) < record.rounds_total
        else:
            assert len(calls) <= record.rounds_total

    @pytest.mark.parametrize("regime", REGIMES)
    def test_bytes_account_for_every_broadcast(self, regime):
        # every reference broadcast reaches each neighbor as one packed packet
        kind, params = regime["topology"]
        topology = build_topology(kind, **params)
        instance = _instance(d=16, n=topology.num_nodes)
        metrics, _ = run_decentralized(
            instance, topology, regime["comms"], channel=regime["channel"],
            activation=regime["activation"], seed=5,
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
        record = _one_lane(
            _instance(), topology,
            CommsConfig(delta=1e-3, bits=16, inner_step_cap=40, outer_iter_cap=10),
            seed=0,
        )
        assert record.barycenters.shape == (4, 16)
        assert record.barycenters.min() >= 0.0
        assert_allclose(record.barycenters.sum(axis=1), np.ones(4), atol=1e-12)

    def test_topology_size_mismatch(self):
        with pytest.raises(ValueError, match="topology size"):
            simulate_lanes(_instance(n=4), build_topology("ring", n=5), [(CommsConfig(), 0)])

    def test_round_log_v_collection(self):
        topology = build_topology("ring", n=4)
        comms = CommsConfig(delta=0.0, bits=None, inner_step_cap=25, outer_iter_cap=4)
        record = _one_lane(
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
        record = _one_lane(_instance(), topology, comms, seed=0)
        assert record.clip_active

    def test_clip_flag_clear_in_wide_range(self):
        topology = build_topology("complete", n=4)
        comms = CommsConfig(delta=0.0, bits=16, inner_step_cap=40, outer_iter_cap=10)
        record = _one_lane(_instance(), topology, comms, seed=0)
        assert not record.clip_active

    @pytest.mark.parametrize("delta", [0.0, 1e-3])
    def test_clip_flag_raised_by_an_active_node_that_does_not_send(self, delta):
        # node 0 sits 5e-4 above s_max, within delta of its last payload
        # s_max: at delta=0 it fires and its payload repeats, at 1e-3 it
        # does not fire; either way the clip range was in use
        comms = CommsConfig(delta=delta, bits=8, s_min=-1.0, s_max=1.0)
        eng = NetworkEngine(build_topology("complete", n=2), [(comms, 0)])
        eng.bootstrap(np.zeros((2, 3)))
        assert not eng.clip_active.any()
        eng.z[0] = eng.ref[0] = eng.anchor[0] = 1.0
        eng.z[0, 1] += 5e-4
        eng.step_round()
        assert eng.clip_active.tolist() == [True]
        assert eng.messages.tolist() == [1, 1]

    def test_per_outer_bookkeeping(self):
        topology = build_topology("complete", n=4)
        comms = CommsConfig(delta=1e-3, bits=16, inner_step_cap=30, outer_iter_cap=6)
        record = _one_lane(_instance(), topology, comms, seed=2)
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
        record = _one_lane(instance, Topology(1, ()), comms, seed=0)
        central = otcore.centralized_barycenter(instance, tol=1e-9, max_iter=300)
        assert record.converged and central.converged
        assert record.outer_iters == central.iterations
        assert_allclose(record.barycenters[0], central.barycenter.weights, atol=1e-10)
        # no edges: each outer iteration costs exactly one (empty) round
        assert record.rounds_total == record.outer_iters

    def test_a_stopping_round_is_not_skipped(self):
        # delta=inf: the node never sends and z never moves, so every round
        # is idle, and the gap test (no edges) still ends each outer
        # iteration after that one round
        instance = _instance(n=1)
        comms = CommsConfig(delta=float("inf"), bits=None, inner_step_cap=5, outer_iter_cap=4)
        record = _one_lane(instance, Topology(1, ()), comms, seed=0)
        assert [p["inner_steps_used"] for p in record.per_outer] == [1] * 4
        assert record.rounds_total == 4


class TestIdleFlag:
    """``NetworkEngine.idle``: None after a round run alone; after a block
    that ends at a fixed point, per lane, True only when the block's last
    round left z bit-for-bit unchanged. ``quiet``: True when a
    deterministic round sent nothing in any lane, so that a block may
    follow (``TestBlocks``)."""

    @staticmethod
    def _engine(channel=None, activation=None):
        comms = CommsConfig(delta=1e-3, bits=None)
        eng = NetworkEngine(build_topology("complete", n=2), [(comms, 0), (comms, 1)], channel, activation)
        eng.bootstrap(np.zeros((4, 3)))  # consensus at 0: the gossip maps it to itself exactly
        return eng

    def test_a_round_alone_flags_no_lane(self):
        # lane 0 stays at its fixed point in both rounds, lane 1 sends in
        # the first: neither round run alone flags a lane
        eng = self._engine()
        eng.ref[2] = 1.0  # lane 1's node 0 last sent 1.0: it fires and sends 0.0
        eng.step_round()
        assert not eng.z.any() and eng.messages.tolist() == [1, 1, 2, 1]
        assert eng.idle is None and not eng.quiet
        eng.step_round()
        assert not eng.z.any() and eng.idle is None and eng.quiet

    def test_a_block_flags_the_lanes_at_a_fixed_point(self):
        # lane 1 starts further from its point than lane 0, so the block's
        # last round leaves lane 0 unchanged and still moves lane 1
        comms = CommsConfig(delta=np.inf, bits=None, tau_inner=1e-300)
        caches = [[0.1], [0.0], [1.0], [0.9], [10.0], [0.0], [100.0], [90.0]]
        eng = _crafted(comms, [[0.0], [0.0], [0.0]] * 2, caches, lanes=2, topology=build_topology("path", n=3))
        quiet = _quiet_rounds(eng)
        taken, _ = _block_against_rounds(eng, 128)
        assert taken == quiet + 1 and eng.idle.tolist() == [True, False]

    @pytest.mark.parametrize("channel, activation", [
        (ChannelModel(drop_prob=0.1), None),
        (ChannelModel(max_staleness=1), None),
        (None, ActivationModel(mode="randomized_subset", p_active=0.5)),
    ])
    def test_random_rounds_are_never_idle(self, channel, activation):
        eng = self._engine(channel, activation)
        eng.step_round()
        assert eng.idle is None and not eng.quiet


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

    @pytest.mark.parametrize("topology, comms, channel, activation", [
        (("grid2d", {"rows": 2, "cols": 3}), CommsConfig(delta=1e-3, bits=12, s_min=-30.0, s_max=30.0),
         ChannelModel(drop_prob=0.2, max_staleness=1), None),
        # in-degree 4 at the centre: the order of the neighbour sum shows
        (("grid2d", {"rows": 3, "cols": 3}), CommsConfig(delta=0.0, bits=None), None, None),
    ], ids=["grid-2x3-lossy", "grid-3x3-sync"])
    def test_engine_matches_scheduler_on_pure_gossip(self, topology, comms, channel, activation):
        # under synchronous weights and without local scaling the engine and
        # the reference agree bit for bit in every round, the neighbour
        # sum's order included
        kind, params = topology
        topology = build_topology(kind, **params)
        n = topology.num_nodes
        z0 = np.random.default_rng(7).normal(size=(n, 2))
        residuals, z_final = consensus_trace(topology, comms, z0, steps=25, channel=channel,
                                             activation=activation, seed=9)
        agents = [AgentState(agent_id=i, u=np.ones(2), s=np.zeros(2), z=z0[i].copy()) for i in range(n)]
        sched = RoundScheduler(topology, comms, channel=channel, activation=activation, seed=9)
        sched.bootstrap(agents)
        ref = [consensus_residual(z0)]
        for r in range(1, 26):
            sched.schedule_round(agents, r, 0, r)
            ref.append(consensus_residual(np.stack([a.z for a in agents])))
        assert _bitwise(z_final) == _bitwise(np.stack([a.z for a in agents]))
        assert _bitwise(residuals) == _bitwise(np.array(ref))


class TestRepeatRule:
    @pytest.mark.parametrize("bits", [4, 8, 12])
    def test_repeats_change_no_trajectory_on_sync_lossless_channels(self, bits):
        # delta_q > delta at these widths, so fired triggers often quantize
        # back to the payload every neighbor already holds
        topology = build_topology("ring", n=4)
        instance = _instance(d=16, n=4)
        comms = CommsConfig(delta=1e-3, bits=bits, tau_inner=1e-4, tau_outer=1e-6,
                            inner_step_cap=40, outer_iter_cap=8)
        assert comms.delta_q > comms.delta
        new = reference_run(instance, topology, comms, seed=5)
        old = reference_run(instance, topology, comms, seed=5, transmit=maybe_transmit_resending)
        assert len(new["round_z"]) == len(old["round_z"]) == new["rounds_total"]
        for z_new, z_old in zip(new["round_z"], old["round_z"]):
            assert np.array_equal(z_new, z_old)
        assert np.array_equal(new["log_v"], old["log_v"])
        assert new["messages"].sum() < old["messages"].sum()
        record = _one_lane(instance, topology, comms, seed=5)
        assert np.array_equal(record.broadcasts_per_agent, new["messages"])


def _regime(regime_id):
    return next(p.values[0] for p in REGIMES if p.id == regime_id)


def _regime_setup(regime):
    kind, params = regime["topology"]
    topology = build_topology(kind, **params)
    return _instance(d=16, n=topology.num_nodes), topology


QUANTIZED = [p for p in REGIMES if p.values[0]["comms"].bits is not None]
DETERMINISTIC = [p for p in REGIMES if _is_deterministic(p.values[0])]


def _apart(regime, lanes):
    """``lanes`` made to run as lanes of their own. On a random channel they
    are as given. On a deterministic one, where requests that differ only in
    seed share a lane, the k-th request's delta is raised by k quantizer
    steps (k * 1e-3 unquantized), past any inert threshold."""
    if not _is_deterministic(regime):
        return lanes
    step = regime["comms"].delta_q or 1e-3
    return [(dataclasses.replace(c, delta=c.delta + k * step), seed) for k, (c, seed) in enumerate(lanes)]


def _assert_same_record(a, b):
    """Two records of the same lane are bit-identical (wall time aside)."""
    for name in ("converged", "outer_iters", "rounds_total", "clip_active", "per_outer"):
        assert getattr(a, name) == getattr(b, name), name
    for name in ("log_v", "barycenters", "broadcasts_per_agent", "variation_per_agent"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _assert_round_counts(batch):
    """Every record of a batch counts its rounds as the sum of its inner
    steps and has one per_outer entry per outer iteration."""
    records = [r for r in batch if not isinstance(r, Exception)]
    assert records
    for record in records:
        assert record.rounds_total == sum(p["inner_steps_used"] for p in record.per_outer)
        assert record.outer_iters == len(record.per_outer)


class TestLanes:
    SEEDS = (5, 6, 7)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_batch_equals_one_lane_runs(self, regime):
        instance, topology = _regime_setup(regime)
        comms, channel, activation = regime["comms"], regime["channel"], regime["activation"]
        batch = simulate_lanes(instance, topology, [(comms, s) for s in self.SEEDS], channel, activation)
        for seed, record in zip(self.SEEDS, batch):
            alone = _one_lane(instance, topology, comms, channel, activation, seed=seed)
            _assert_same_record(record, alone)
            assert all(p["consensus_residual_trace"] for p in record.per_outer)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_every_lane_matches_reference(self, regime, monkeypatch):
        # every broadcast carries a payload that differs from its sender's
        # previous one, read from ref before and after each batch round,
        # and a block of rounds sends nothing
        step_round, step_block, sent = NetworkEngine.step_round, NetworkEngine.step_block, []

        def watched(eng):
            messages, ref = eng.messages.copy(), eng.ref.copy()
            step_round(eng)
            fired = eng.messages > messages
            same = (eng.ref.view(np.uint64) == ref.view(np.uint64)).all(axis=1)
            assert not (fired & same).any()
            sent.append(int(fired.sum()))

        def watched_block(eng, rounds):
            messages, ref = eng.messages.copy(), eng.ref.copy()
            taken = step_block(eng, rounds)
            assert np.array_equal(eng.messages, messages) and np.array_equal(eng.ref, ref)
            return taken

        monkeypatch.setattr(NetworkEngine, "step_round", watched)
        monkeypatch.setattr(NetworkEngine, "step_block", watched_block)
        instance, topology = _regime_setup(regime)
        comms, channel, activation = regime["comms"], regime["channel"], regime["activation"]
        batch = simulate_lanes(instance, topology, [(comms, s) for s in self.SEEDS], channel, activation)
        assert sum(sent) > 0
        for seed, record in zip(self.SEEDS, batch):
            ref = reference_run(instance, topology, comms, channel, activation, seed=seed)
            assert record.converged == ref["converged"]
            assert record.outer_iters == ref["outer_iters"]
            assert record.rounds_total == ref["rounds_total"]
            assert np.array_equal(record.broadcasts_per_agent, ref["messages"])
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
        instance, topology, (lane, *others) = _regime_case(regime)
        channel, activation = regime["channel"], regime["activation"]
        alone = simulate_lanes(instance, topology, [lane], channel, activation)[0]
        first = simulate_lanes(instance, topology, [lane] + others, channel, activation)
        last = simulate_lanes(instance, topology, others + [lane], channel, activation)
        _assert_same_record(first[0], alone)
        _assert_same_record(last[-1], alone)
        for (lane_comms, seed), record in zip(others, last):
            _assert_same_record(record, _one_lane(
                instance, topology, lane_comms, channel, activation, seed=seed))

    @pytest.mark.parametrize("regime_id", ["clean-subset", "lossy-stale-cap3", "geometric-sparse-subset"])
    def test_lanes_retire_at_different_rounds(self, regime_id):
        regime = _regime(regime_id)
        instance, topology = _regime_setup(regime)
        lanes = [(regime["comms"], 5)] + self._companions(regime["comms"])
        batch = simulate_lanes(instance, topology, lanes, regime["channel"], regime["activation"])
        assert len({r.rounds_total for r in batch}) > 2

    def test_lanes_may_differ_in_delta(self):
        # at 16 bits delta=1e-3 is above delta_q/2, so the two lanes run apart
        instance, topology = _instance(), build_topology("complete", n=4)
        comms = CommsConfig(delta=1e-3, bits=16, inner_step_cap=30, outer_iter_cap=4)
        always = dataclasses.replace(comms, delta=0.0)
        batch = simulate_lanes(instance, topology, [(comms, 3), (always, 3)])
        _assert_same_record(batch[0], _one_lane(instance, topology, comms, seed=3))
        _assert_same_record(batch[1], _one_lane(instance, topology, always, seed=3))

    def test_idle_and_busy_lanes_share_a_batch(self, monkeypatch):
        # delta=1e-3 idles long before the cap, delta=1e-5 stops on the gap
        # test without idling, delta=0 sends until it stops
        regime = _regime("sync-fixed-point-unquantized")
        instance, topology = _regime_setup(regime)
        lanes = [(dataclasses.replace(regime["comms"], delta=dv), 5) for dv in (1e-3, 1e-5, 0.0)]
        batch = simulate_lanes(instance, topology, lanes)
        calls = _count_rounds_run(monkeypatch)
        skipped = []
        for (comms, seed), record in zip(lanes, batch):
            calls.clear()
            _assert_same_record(record, _one_lane(instance, topology, comms, seed=seed))
            skipped.append(len(calls) < record.rounds_total)
        assert skipped == [True, False, False]

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
        # a lane requested twice runs once, and each copy still gets its share
        for regime_id in ("lossy-stale-cap3", "sync-fixed-point-12bit"):
            regime = _regime(regime_id)
            instance, topology = _regime_setup(regime)
            lanes = [(regime["comms"], 5)] + self._companions(regime["comms"])
            lanes += [lanes[0], lanes[-1]]
            batch = simulate_lanes(instance, topology, lanes, regime["channel"], regime["activation"])
            assert len({r.rounds_total for r in batch}) > 1
            per_round = [r.wall_clock_seconds / r.rounds_total for r in batch]
            assert per_round[0] > 0
            assert_allclose(per_round, per_round[0], rtol=1e-12)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_repeated_lanes_run_once(self, regime, monkeypatch):
        instance, topology, distinct = _regime_case(regime)
        channel, activation = regime["channel"], regime["activation"]
        lanes = distinct + [distinct[0], distinct[3], distinct[0], distinct[1]]
        calls = _count_rounds_run(monkeypatch)
        batch = simulate_lanes(instance, topology, lanes, channel, activation)
        assert max(calls) == len(distinct)
        for (lane_comms, seed), record in zip(lanes, batch):
            _assert_same_record(record, _one_lane(
                instance, topology, lane_comms, channel, activation, seed=seed))
            assert record.seed == seed

    @pytest.mark.parametrize("regime", DETERMINISTIC)
    def test_deterministic_seeds_share_one_lane(self, regime, monkeypatch):
        # the seed drives nothing on a deterministic channel, so the seeds of
        # one comms run as one lane and each request gets its own seed back
        instance, topology = _regime_setup(regime)
        comms = regime["comms"]
        calls = _count_rounds_run(monkeypatch)
        batch = simulate_lanes(instance, topology, [(comms, s) for s in self.SEEDS])
        assert max(calls) == 1
        for seed, record in zip(self.SEEDS, batch):
            _assert_same_record(record, _one_lane(instance, topology, comms, seed=seed))
            assert record.seed == seed

    @pytest.mark.parametrize("channel, activation", [
        pytest.param(None, ActivationModel(mode="randomized_subset", p_active=0.5), id="subset"),
        pytest.param(None, ActivationModel(mode="randomized_pairwise"), id="pairwise"),
        pytest.param(ChannelModel(drop_prob=0.2), None, id="drops"),
        pytest.param(ChannelModel(max_staleness=2), None, id="delays"),
    ])
    def test_random_seeds_run_as_lanes_of_their_own(self, channel, activation, monkeypatch):
        # one random ingredient is enough for the seed to drive the run
        regime = _regime("sync-fixed-point-12bit")
        instance, topology = _regime_setup(regime)
        comms = regime["comms"]
        calls = _count_rounds_run(monkeypatch)
        batch = simulate_lanes(instance, topology, [(comms, s) for s in self.SEEDS], channel, activation)
        assert max(calls) == len(self.SEEDS)
        for seed, record in zip(self.SEEDS, batch):
            _assert_same_record(record, _one_lane(instance, topology, comms, channel, activation, seed=seed))
            assert record.seed == seed

    def test_copies_share_no_state(self):
        regime = _regime("sync-fixed-point-12bit")
        instance, topology = _regime_setup(regime)
        batch = simulate_lanes(instance, topology, [(regime["comms"], 5)] * 3, collect_round_log_v=True)
        kept = copy.deepcopy(batch[1:])
        first = batch[0]
        first.broadcasts_per_agent += 1
        first.variation_per_agent[:] = -1.0
        first.log_v[:] = first.barycenters[:] = 0.0
        first.round_log_v[0][:] = 0.0
        first.per_outer[0]["consensus_residual_trace"].append(1.0)
        first.per_outer[0]["inner_steps_used"] = -1
        first.per_outer.append({})
        for record, before in zip(batch[1:], kept):
            _assert_same_record(record, before)
            assert all(np.array_equal(z, z0) for z, z0 in zip(record.round_log_v, before.round_log_v))

    def test_duplicates_of_a_failed_lane_hold_their_own_errors(self, monkeypatch):
        instance, topology = _instance(), build_topology("complete", n=4)
        comms = CommsConfig(delta=1e-3, bits=16, inner_step_cap=30, outer_iter_cap=4)
        other = dataclasses.replace(comms, delta=2e-3)
        lanes = [(comms, 0), (other, 0), (comms, 0), (comms, 0)]
        monkeypatch.setattr(otcore, "_local_scaling", _annihilating(1))  # the first lane's first
        batch = simulate_lanes(instance, topology, lanes)
        monkeypatch.undo()
        errors = [batch[i] for i in (0, 2, 3)]
        assert all(type(e) is otcore.DegenerateStateError for e in errors)
        assert len({id(e) for e in errors}) == 3
        assert {str(e) for e in errors} == {str(errors[0])}
        assert str(errors[0]).startswith("node 2 at outer iteration 1: K^T u has zero entries")
        assert isinstance(batch[1], RunRecord)
        _assert_same_record(batch[1], _one_lane(instance, topology, other, seed=0))

    @pytest.mark.parametrize("regime", QUANTIZED)
    def test_inert_deltas_share_the_zero_delta_lane(self, regime, monkeypatch):
        # delta <= delta_q/2 sends exactly what delta=0 sends, so each seed
        # runs one lane on a random channel, and on a deterministic one,
        # where the seed drives nothing, all six requests run one lane
        instance, topology = _regime_setup(regime)
        comms, channel, activation = regime["comms"], regime["channel"], regime["activation"]
        seeds = 1 if _is_deterministic(regime) else 2  # the lanes each delta's two seeds run
        deltas = (0.0, comms.delta_q / 4, comms.delta_q / 2)
        lanes = [(dataclasses.replace(comms, delta=dv), s) for dv in deltas for s in (5, 6)]
        assert [c.inert_delta for c, _ in lanes] == [False, False, True, True, True, True]
        calls = _count_rounds_run(monkeypatch)
        batch = simulate_lanes(instance, topology, lanes, channel, activation)
        assert max(calls) == seeds
        for (lane_comms, seed), record in zip(lanes, batch):
            _assert_same_record(record, _one_lane(
                instance, topology, lane_comms, channel, activation, seed=seed))
        # and each record is the one its lane gives when run as itself
        monkeypatch.setattr(CommsConfig, "inert_delta", property(lambda c: False))
        calls.clear()
        apart = simulate_lanes(instance, topology, lanes, channel, activation)
        assert max(calls) == len(deltas) * seeds
        for record, alone in zip(batch, apart):
            _assert_same_record(record, alone)

    def test_a_delta_past_half_delta_q_runs_alone(self, monkeypatch):
        regime = _regime("sync-fixed-point-12bit")
        instance, topology = _regime_setup(regime)
        comms = regime["comms"]
        past = dataclasses.replace(comms, delta=float(np.nextafter(comms.delta_q / 2, np.inf)))
        assert not past.inert_delta and dataclasses.replace(comms, delta=comms.delta_q / 2).inert_delta
        calls = _count_rounds_run(monkeypatch)
        simulate_lanes(instance, topology, [(dataclasses.replace(comms, delta=0.0), 5), (past, 5)])
        assert max(calls) == 2

    def test_unquantized_deltas_are_never_shared(self, monkeypatch):
        regime = _regime("sync-fixed-point-unquantized")
        instance, topology = _regime_setup(regime)
        lanes = [(dataclasses.replace(regime["comms"], delta=dv), 5) for dv in (0.0, 5e-324, 1e-12, 1e-5)]
        assert not any(c.inert_delta for c, _ in lanes)
        calls = _count_rounds_run(monkeypatch)
        simulate_lanes(instance, topology, lanes)
        assert max(calls) == len(lanes)


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


def _annihilating(call: int):
    """otcore._local_scaling, except that its ``call``-th call zeroes node
    2's scaling vector: K v = 0, so u = mu / 0 without the ridge. The
    first local scaling of every lane runs in lane order, before any round."""
    real, calls = otcore._local_scaling, []

    def local_scaling(mu, kernel, ridge, v):
        calls.append(1)
        if len(calls) == call:
            v = v.copy()
            v[2] = 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                return real(mu, kernel, 0.0, v)
        return real(mu, kernel, ridge, v)

    return local_scaling


def _bitwise(value):
    """``value`` with every float and array replaced by its bit pattern."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return int(np.float64(value).view(np.int64))
    if isinstance(value, dict):
        return {k: _bitwise(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bitwise(v) for v in value]
    return value


def _untraced(result):
    """A lane's result, bit for bit, without its per-round residual traces
    and wall time; an error as its type and message."""
    if isinstance(result, Exception):
        return type(result), str(result)
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    del fields["wall_clock_seconds"]
    fields["per_outer"] = [{k: v for k, v in p.items() if k != "consensus_residual_trace"}
                           for p in result.per_outer]
    return _bitwise(fields)


class TestSelectedTraces:
    """Residuals kept for some requests only change nothing else."""

    def _check(self, instance, topology, lanes, channel, activation):
        full = simulate_lanes(instance, topology, lanes, channel, activation)
        records = [r for r in full if isinstance(r, RunRecord)]
        assert records
        for record in records:
            for p in record.per_outer:
                assert _bitwise(p["consensus_residual_last"]) == _bitwise(p["consensus_residual_trace"][-1])
        for chosen in [False, *({i} for i in range(len(lanes)))]:
            some = simulate_lanes(instance, topology, lanes, channel, activation, collect_residuals=chosen)
            for i, (a, b) in enumerate(zip(full, some)):
                assert _untraced(a) == _untraced(b), (chosen, i)
                if chosen and i in chosen and isinstance(b, RunRecord):
                    assert _bitwise(b.per_outer) == _bitwise(a.per_outer)
        return full

    @pytest.mark.parametrize("regime", REGIMES)
    def test_every_regime(self, regime):
        # lanes that retire at different rounds, and a repeated request
        instance, topology, lanes = _regime_case(regime)
        self._check(instance, topology, lanes + [lanes[1]], regime["channel"], regime["activation"])

    def test_failing_lanes(self):
        instance, topology, comms, channel, activation = _crafted_failures()
        batch = self._check(instance, topology, [(comms, s) for s in range(6)], channel, activation)
        assert any(isinstance(r, Exception) for r in batch)

    def test_untraced_lanes_keep_empty_traces(self):
        regime = _regime("sync-fixed-point-12bit")
        instance, topology = _regime_setup(regime)
        comms = regime["comms"]
        lanes = [(comms, 5), (dataclasses.replace(comms, delta=1.0), 6), (comms, 5), (comms, 7)]
        batch = simulate_lanes(instance, topology, lanes, collect_residuals={3})
        # requests 2 and 3 run request 0's lane, a repeat and another seed on
        # a deterministic channel, so all three carry the trace of that lane
        assert all(p["consensus_residual_trace"] for r in (batch[0], batch[2], batch[3]) for p in r.per_outer)
        assert not any(p["consensus_residual_trace"] for p in batch[1].per_outer)
        assert [r.seed for r in batch] == [5, 6, 5, 7]


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
                _assert_same_record(result, _one_lane(
                    instance, topology, comms, channel, activation, seed=seed))
                continue
            assert isinstance(result, protocol.ClipRangeError)
            assert result.__traceback__ is None  # held, not raised, by the batch
            alone = _one_lane(instance, topology, comms, channel, activation, seed=seed)
            assert type(alone) is type(result) and str(alone) == str(result)
            outer = int(str(result).split("outer iteration ")[1].split(":")[0])
            assert str(result).startswith("node ") and 1 < outer <= comms.outer_iter_cap
        assert healthy_rounds > comms.inner_step_cap  # survivors ran on after failures
        _assert_round_counts(batch)

    def test_degenerate_lane_names_node_and_outer(self, monkeypatch):
        # three deltas past delta_q/2, so three lanes on a deterministic channel
        instance, topology = _instance(), build_topology("complete", n=4)
        lanes = [(CommsConfig(delta=dv, bits=16, inner_step_cap=30, outer_iter_cap=4), s)
                 for dv, s in ((1e-3, 0), (2e-3, 1), (4e-3, 2))]
        real = otcore._local_scaling
        monkeypatch.setattr(otcore, "_local_scaling", _annihilating(2))  # the second lane's first
        batch = simulate_lanes(instance, topology, lanes)
        monkeypatch.setattr(otcore, "_local_scaling", real)
        assert isinstance(batch[1], otcore.DegenerateStateError)
        assert str(batch[1]).startswith("node 2 at outer iteration 1: K^T u has zero entries")
        for pos in (0, 2):
            comms, seed = lanes[pos]
            _assert_same_record(batch[pos], _one_lane(instance, topology, comms, seed=seed))

    def test_a_failed_lane_gets_no_bias_bound(self, monkeypatch):
        # the second of three lanes fails at its first local scaling: the
        # other two records get their comms' bias bound, the failure none
        instance, topology = _instance(), build_topology("complete", n=4)
        lanes = [(CommsConfig(delta=dv, bits=16, inner_step_cap=30, outer_iter_cap=4), s)
                 for dv, s in ((1e-3, 0), (2e-3, 1), (4e-3, 2))]
        real, calls = otcore.theory_constants, []
        monkeypatch.setattr(otcore, "_local_scaling", _annihilating(2))
        monkeypatch.setattr(otcore, "theory_constants", lambda *args: calls.append(args[1]) or real(*args))
        batch = simulate_lanes(instance, topology, lanes)
        assert isinstance(batch[1], otcore.DegenerateStateError)
        assert calls == [lanes[0][0], lanes[2][0]]

    def test_one_lane_call_raises(self):
        # run_decentralized is the one-lane entry point, and it raises the
        # error the batch holds in place of the lane's record
        instance, topology, comms, channel, activation = _crafted_failures()
        held = _one_lane(instance, topology, comms, channel, activation, seed=1)
        with pytest.raises(protocol.ClipRangeError, match=r"^node \d at outer iteration \d") as raised:
            run_decentralized(instance, topology, comms, channel, activation, seed=1)
        assert str(raised.value) == str(held)


class TestRoundCount:
    """rounds_total is the sum of inner_steps_used, idle rounds up to the
    inner cap included, and outer_iters the length of per_outer."""

    @pytest.mark.parametrize("regime", REGIMES)
    def test_every_regime(self, regime):
        instance, topology, lanes = _regime_case(regime)
        _assert_round_counts(simulate_lanes(instance, topology, lanes, regime["channel"], regime["activation"]))

    def test_lanes_leaving_at_different_outer_iterations(self, monkeypatch):
        # delta=1e-3 idles to the inner cap, delta=0 stops on the gap test,
        # delta=inf meets tau_outer at outer iteration 2 while the others
        # run to the outer cap, and the fourth lane's first local scaling
        # annihilates the kernel
        regime = _regime("sync-fixed-point-unquantized")
        instance, topology = _regime_setup(regime)
        lanes = [(dataclasses.replace(regime["comms"], delta=dv), 5) for dv in (1e-3, 0.0, np.inf, 1e-5)]
        monkeypatch.setattr(otcore, "_local_scaling", _annihilating(4))
        calls = _count_rounds_run(monkeypatch)
        batch = simulate_lanes(instance, topology, lanes)
        assert isinstance(batch[3], otcore.DegenerateStateError)
        idle, busy, early = batch[:3]
        assert early.outer_iters == 2 < busy.outer_iters == idle.outer_iters == regime["comms"].outer_iter_cap
        assert len(calls) < idle.rounds_total  # idle rounds counted, not run
        assert all(p["inner_steps_used"] == regime["comms"].inner_step_cap for p in idle.per_outer)
        assert all(p["inner_steps_used"] < regime["comms"].inner_step_cap for p in busy.per_outer)
        _assert_round_counts(batch)


def _bits(result):
    """A lane's result, bit for bit, wall time aside; an error as its type
    and message."""
    if isinstance(result, Exception):
        return type(result), str(result)
    return _bitwise({f.name: getattr(result, f.name) for f in dataclasses.fields(result)
                     if f.name != "wall_clock_seconds"})


def _default_case(bits):
    """The default 4x4 grid at d=64 with six outer iterations, as the CLI
    runs it: seed 5 and its always-on twin."""
    cfg = cfgmod.run_config_from_dict({"comms": {"bits": bits, "outer_iter_cap": 6}})
    instance, topology = cfgmod.build_instance(cfg), cfgmod.build_topology_from_spec(cfg.network)
    return instance, topology, [(cfg.comms, 5), (dataclasses.replace(cfg.comms, delta=0.0), 5)]


def _regime_case(regime):
    """The regime's instance and topology, and five requests that run as
    five lanes: seed 5 of its comms and ``TestLanes._companions``."""
    instance, topology = _regime_setup(regime)
    return instance, topology, _apart(regime, [(regime["comms"], 5)] + TestLanes._companions(regime["comms"]))


BLOCK_CASES = [
    *(pytest.param(p.values[0], id=p.id) for p in REGIMES if _is_deterministic(p.values[0])),
    pytest.param(12, id="default-12bit"),
    pytest.param(16, id="default-16bit"),
    pytest.param("unquantized", id="default-unquantized"),
]


def _crafted(comms, z, caches, lanes=1, topology=None):
    """Lanes of the 2-node complete graph (self and neighbour weight 1/2),
    or of ``topology``, after one round from z, with the neighbour caches
    set by hand: on the 2-node graph each node's z halves its distance to
    its cache every quiet round. ``z`` stacks the lanes' node rows and
    ``caches`` one row per directed edge (receiver, sender) of the union,
    in the engine's edge order; ref is the payload of the starting z."""
    eng = NetworkEngine(topology or build_topology("complete", n=2), [(comms, s) for s in range(lanes)])
    z = np.asarray(z, dtype=np.float64)
    eng.bootstrap(z)
    eng.ce[eng.cell] = np.asarray(caches, dtype=np.float64)
    eng.step_round()
    return eng


def _still(eng, z):
    """Per lane: whether ``eng.z`` is ``z`` bit for bit."""
    return (eng.z.view(np.int64) == z.view(np.int64)).reshape(eng.lanes, -1).all(axis=1)


def _block_against_rounds(eng, rounds):
    """Take one block of at most ``rounds`` and, on a copy, as many single
    rounds; each of those must send nothing and stop no lane, all but the
    last must leave every lane moving, the block must flag as idle the
    lanes the last leaves unchanged, and the two must end in the same
    state bit for bit. Returns the rounds taken and the copy."""
    single = copy.deepcopy(eng)
    taken = eng.step_block(rounds)
    for k in range(taken):
        messages, z = single.messages.copy(), single.z.copy()
        single.step_round()
        assert np.array_equal(single.messages, messages)
        assert not single.all_inner_converged().any()
        still = _still(single, z)
        assert k == taken - 1 or not still.any()
        assert _bitwise(eng.block[k]) == _bitwise(single.z), f"round {k + 1}"
    if taken:
        flagged = np.zeros(eng.lanes, dtype=bool) if eng.idle is None else eng.idle
        assert flagged.tolist() == still.tolist()
    for name in ("z", "anchor", "ref", "ce", "messages", "variation", "clip_active", "send_counter"):
        assert _bitwise(getattr(eng, name)) == _bitwise(getattr(single, name)), name
    return taken, single


def _lane_rounds(batch, results):
    """The lane-rounds a deterministic batch counts: the rounds_total of
    each lane it runs, once for all the requests that share the lane, which
    is keyed by comms alone (an inert delta read as 0)."""
    lanes = {dataclasses.replace(c, delta=0.0) if c.inert_delta else c: r for (c, _), r in zip(batch, results)}
    return sum(r.rounds_total for r in lanes.values())


def _ending_causes(batch, results):
    """How the outer iterations of a batch's records end, counted per
    request: "gap" before the inner cap (the gap test), "skip" at a fixed
    point whose idle repeats share one round-log copy, "cap" after every
    round up to the cap ran."""
    causes = dict.fromkeys(("gap", "skip", "cap"), 0)
    for (comms, _), record in zip(batch, results):
        rounds = 0
        for entry in [] if isinstance(record, Exception) else record.per_outer:
            rounds += entry["inner_steps_used"]
            last_two = record.round_log_v[rounds - 2 : rounds]
            if entry["inner_steps_used"] < comms.inner_step_cap:
                causes["gap"] += 1
            else:
                causes["skip" if len(last_two) == 2 and last_two[0] is last_two[1] else "cap"] += 1
    return causes


def _quiet_rounds(eng, limit=200):
    """Rounds a copy of ``eng`` runs alone before one sends, stops a lane
    or leaves a lane's z unchanged."""
    eng = copy.deepcopy(eng)
    for k in range(limit):
        messages, z = eng.messages.copy(), eng.z.copy()
        eng.step_round()
        if (eng.messages != messages).any() or eng.all_inner_converged().any() or _still(eng, z).any():
            return k
    return limit


class TestResidualStacks:
    """The traced residuals of single rounds come from held stacks of at
    most ``engine._TRACE_BYTES``, one ``consensus_residual`` call per
    stack; the bound changes no record."""

    @pytest.mark.parametrize("case", [
        *(pytest.param(_regime(i), id=i) for i in (
            "clean-sync-8bit", "sync-fixed-point-12bit", "lossy-stale-cap3", "padded-grid-subset")),
        pytest.param(12, id="default-12bit"),
    ])
    def test_the_stack_bound_changes_no_record(self, case, monkeypatch):
        instance, topology, lanes = _regime_case(case) if isinstance(case, dict) else _default_case(case)
        channel, activation = (case["channel"], case["activation"]) if isinstance(case, dict) else (None, None)
        traced = {0, len(lanes) - 1}  # in the regimes, a lane that retires early
        calls, residual = [], netsim.consensus_residual
        monkeypatch.setattr(netsim, "consensus_residual", lambda zs: calls.append(zs.shape) or residual(zs))
        want = [_bits(r) for r in simulate_lanes(instance, topology, lanes, channel, activation, traced)]
        held = len(calls)
        one_round = 8 * topology.num_nodes * instance.histogram_matrix().shape[1]  # one lane's z
        for rounds in (0, 1, 2, 3, 5):  # 0 and 1: no stack, each round's residuals at once
            monkeypatch.setattr(engine, "_TRACE_BYTES", rounds * one_round)
            calls.clear()
            got = [_bits(r) for r in simulate_lanes(instance, topology, lanes, channel, activation, traced)]
            assert got == want, rounds
            if rounds == 5:  # a stack of 2 rounds of two traced lanes, or 5 of one
                assert len(calls) > held  # full stacks were flushed
                assert max(shape[0] for shape in calls if len(shape) == 4) >= 2


class TestBlocks:
    """A deterministic lane's quiet stretch runs as one certified block
    (``NetworkEngine.step_block``) and changes no record."""

    @pytest.mark.parametrize("case", BLOCK_CASES)
    def test_blocks_change_no_record(self, case, monkeypatch):
        instance, topology, lanes = _regime_case(case) if isinstance(case, dict) else _default_case(case)
        calls = _count_rounds_run(monkeypatch)
        blocks = [0]
        counted = NetworkEngine.step_block

        def block(eng, rounds):
            taken = counted(eng, rounds)
            blocks[0] += taken
            return taken

        monkeypatch.setattr(NetworkEngine, "step_block", block)
        # the batch, and each lane alone: in some regimes only a lane alone
        # ever has a round in which no lane sends
        runs = [lanes] + [[lane] for lane in dict.fromkeys(lanes)]
        with_blocks = [simulate_lanes(instance, topology, batch, collect_round_log_v=True) for batch in runs]
        assert blocks[0] > 0
        monkeypatch.setattr(NetworkEngine, "step_block", lambda eng, rounds: 0)  # every round alone
        for batch, results in zip(runs, with_blocks):
            calls.clear()
            alone = simulate_lanes(instance, topology, batch, collect_round_log_v=True)
            # a round run alone never skips: every counted round runs
            assert sum(calls) == _lane_rounds(batch, alone)
            assert [_bits(r) for r in results] == [_bits(r) for r in alone]

    @pytest.mark.parametrize("channel, activation", [
        (ChannelModel(drop_prob=0.1), None),
        (ChannelModel(max_staleness=1), None),
        (None, ActivationModel(mode="randomized_subset", p_active=0.5)),
    ])
    def test_random_rounds_take_no_block(self, channel, activation):
        comms = CommsConfig(delta=np.inf, bits=None, tau_inner=1e-12)
        eng = NetworkEngine(build_topology("complete", n=2), [(comms, 0)], channel, activation)
        eng.bootstrap(np.array([[0.0], [1.0]]))
        eng.step_round()
        assert not eng.quiet and eng.step_block(8) == 0

    def test_a_quantization_boundary_ends_the_block(self):
        # node 0 starts in the cell of level 14 of a 4-bit quantizer over
        # [-1, 1] and closes in on a cache just past the cell's top edge
        comms = CommsConfig(delta=0.0, bits=4, s_min=-1.0, s_max=1.0, tau_inner=1e-12)
        eng = _crafted(comms, [[0.81], [0.0]], [[0.934], [0.0]])
        quiet = _quiet_rounds(eng)
        assert 2 <= quiet < 16
        taken, single = _block_against_rounds(eng, 16)
        assert taken == quiet and not eng.quiet
        messages = single.messages.copy()
        single.step_round()
        assert single.messages[0] == messages[0] + 1  # the next round sends

    def test_a_send_in_the_first_round_alone_refuses_the_block(self):
        # node 0's z sits in the cell of level 14 of a 4-bit quantizer over
        # [-1, 1], its last payload is level 13 and its cache pulls it back
        # into cell 13: only the round that evaluates the current z sends
        comms = CommsConfig(delta=0.0, bits=4, s_min=-1.0, s_max=1.0, tau_inner=1e-12)
        eng = _crafted(comms, [[0.95], [0.0]], [[0.7], [0.0]])
        eng.ref[0] = eng.anchor[0] = protocol.quantize(np.array([0.7]), comms)
        z, payload = eng.z[0], eng.ref[0]
        assert protocol.quantize(z, comms) != payload
        assert protocol.quantize(0.5 * z + 0.35, comms) == payload  # the next z would not send
        taken, single = _block_against_rounds(eng, 8)
        assert taken == 0
        messages = single.messages.copy()
        single.step_round()
        assert single.messages[0] == messages[0] + 1

    def test_a_gap_test_stop_ends_the_block(self):
        # delta=inf never sends; node 0's cache gap 2^-k after round k is
        # the lane's largest, and tau_inner = 2^-10 stops it at round 11
        comms = CommsConfig(delta=np.inf, bits=None, tau_inner=2.0 ** -10)
        eng = _crafted(comms, [[0.0], [0.0]], [[1.0], [0.5]])
        quiet = _quiet_rounds(eng)
        assert quiet == 9
        taken, single = _block_against_rounds(eng, 16)
        assert taken == quiet and not eng.quiet
        single.step_round()
        assert single.all_inner_converged().all()

    def test_a_witness_that_crosses_its_cache_rules_out_no_stop(self):
        # node 1 of the path 0-1-2 with leaves 3 and 4 on node 2 has weight
        # 1/3 on node 0 and 1/4 on node 2, so z1 heads from about 5 to
        # 0.814, between its caches 0 and 1.9; on the way it passes within
        # tau = 1 of both, and the gap test stops the lane (every other
        # node sits on its caches). The witness, the edge to node 2, is
        # 1.9 - z1 >= tau at both ends of a long block, but on both sides
        # of the cache, so it rules out no stop.
        comms = CommsConfig(delta=np.inf, bits=None, tau_inner=1.0)
        topology = Topology(5, ((0, 1), (1, 2), (2, 3), (2, 4)))
        eng = _crafted(comms, [[0.0], [11.0], [5.0], [5.0], [5.0]],
                       [[0.0], [0.0], [1.9], [5.0], [5.0], [5.0], [5.0], [5.0]], topology=topology)
        edge = np.flatnonzero((eng.rcv == 1) & (eng.snd == 2))
        eng._witness = eng.cell[edge], np.array([1])
        quiet = _quiet_rounds(eng)
        assert 0 < quiet < 8
        taken, single = _block_against_rounds(eng, 8)
        assert taken <= quiet
        for _ in range(quiet - taken):
            single.step_round()
        single.step_round()
        assert single.all_inner_converged().all()

    @pytest.mark.parametrize("start, cache", [(0.0, 1 + 2.0 ** -6), (1.25, 1 - 2.0 ** -4)],
                             ids=["exit-at-the-far-end", "exit-at-the-near-end"])
    def test_a_clip_range_exit_at_one_end_raises_the_flag(self, start, cache):
        # node 0 crosses s_max = 1 inside the block: upward, only the last
        # state the block evaluates is outside; downward, only the first
        comms = CommsConfig(delta=np.inf, bits=None, s_min=-1.0, s_max=1.0, tau_inner=1e-12)
        eng = _crafted(comms, [[start], [0.0]], [[cache], [0.0]])
        eng.clip_active[:] = False  # the round from the start may have left the range
        evaluated = [eng.z[0, 0]]
        for _ in range(9):
            evaluated.append(0.5 * evaluated[-1] + 0.5 * cache)
        outside = [z > 1.0 for z in evaluated]
        assert outside[0] != outside[-1]
        taken, _ = _block_against_rounds(eng, 10)
        assert taken == 10 and eng.clip_active.tolist() == [True]

    def test_a_nan_lane_takes_no_block(self):
        comms = CommsConfig(delta=np.inf, bits=None, tau_inner=1e-12)
        z, caches = [[0.0], [0.0]] * 2, [[1.0], [0.5]] * 2
        eng = _crafted(comms, z, caches, lanes=2)
        assert _block_against_rounds(copy.deepcopy(eng), 8)[0] == 8
        eng.z[3, 0] = np.nan  # lane 1's node 1
        assert eng.step_block(8) == 0

    def test_a_lane_that_still_sends_ends_the_block_for_all(self):
        # lane 0 is quiet for the whole block on its own; lane 1 sends first
        # in the round after the first, or at once
        comms = CommsConfig(delta=0.0, bits=4, s_min=-1.0, s_max=1.0, tau_inner=1e-12)
        quiet_lane = ([[0.81], [0.0]], [[0.9], [0.0]])
        assert _block_against_rounds(_crafted(comms, *quiet_lane), 8)[0] == 8
        quiet = []
        for start in (0.9, 0.0):
            eng = _crafted(comms, quiet_lane[0] + [[start], [0.0]], quiet_lane[1] + [[0.934], [0.0]], lanes=2)
            quiet.append(_quiet_rounds(eng))
            taken, single = _block_against_rounds(eng, 8)
            assert taken == quiet[-1]
            messages = single.messages.copy()
            single.step_round()
            assert (single.messages > messages).tolist() == [False, False, True, False]
        assert 0 == quiet[1] < quiet[0] < 8

    def test_a_block_ends_at_a_fixed_point(self):
        # on a 3-node path each z closes in on a point and stops moving
        # there; the block takes the round that leaves the lane unchanged
        # and flags the lane idle. The middle node, pulled to 0.5 by caches
        # 0 and 1, is the witness edge that keeps the gap test from
        # stopping the lane.
        comms = CommsConfig(delta=np.inf, bits=None, tau_inner=1e-300)
        eng = _crafted(comms, [[0.0], [0.0], [0.0]], [[0.1], [0.0], [1.0], [0.9]],
                       topology=build_topology("path", n=3))
        quiet = _quiet_rounds(eng)
        assert 40 < quiet < 128
        taken, _ = _block_against_rounds(eng, 128)
        assert taken == quiet + 1 and not eng.quiet
        assert eng.idle.tolist() == [True]


class TestRowmax:
    """The engine's per-node sup norms are one segmented reduction over the
    flat array; each must equal ``np.maximum.reduce`` along the rows bit
    for bit, NaN (of either sign), infinities and signed zeros included."""

    VALUES = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0, 5e-324])

    @pytest.mark.parametrize("shape", [(40, 7), (3, 5, 4), (2, 64), (11, 1), (0, 6), (2, 0, 3)])
    def test_equals_reduce_along_rows(self, shape):
        x = np.random.default_rng(len(shape) * 100 + shape[-1]).choice(self.VALUES, size=shape)
        expected = np.maximum.reduce(x, axis=-1)
        got = engine._rowmax(x)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_rows_of_one_value(self):
        # rows that are all NaN, all -0.0 or all +0.0, or mix the two zeros, keep their exact bits
        x = np.array([[np.nan] * 3, [-0.0] * 3, [0.0] * 3, [-0.0, 0.0, -0.0], [0.0, -0.0, -0.0]])
        assert engine._rowmax(x).tobytes() == np.maximum.reduce(x, axis=1).tobytes()

    def test_row_counts_that_grow_and_shrink(self):
        # the row starts kept per width serve shorter and longer calls alike
        rng = np.random.default_rng(1)
        for shape in [(3, 50), (200, 3), (7, 50), (2, 3), (400, 50)]:
            x = rng.normal(size=shape)
            assert engine._rowmax(x).tobytes() == np.maximum.reduce(x, axis=1).tobytes()

    def test_into_a_flat_output(self):
        x = np.abs(np.random.default_rng(0).normal(size=(3, 4, 5)))
        out = np.full((4, 4), np.nan)
        engine._rowmax(x, out=out[1:].reshape(-1))
        assert np.isnan(out[0]).all()
        assert out[1:].tobytes() == np.maximum.reduce(x, axis=2).tobytes()


PADDED = build_topology("grid2d", rows=3, cols=3)  # in-degrees 2 to 4: every slot below 4 has pads


def _assert_zero_rows(eng):
    """Every pad row of the cache grid and the zero row after ref are +0.0."""
    assert eng._src.shape == (eng.n + 1, eng.ce.shape[1])
    assert eng.pad.sum() == eng.slots * eng.n - eng.n_edges
    assert not eng.ce[eng.pad].view(np.int64).any()
    assert not eng._src[-1].view(np.int64).any()


class TestGridZeros:
    """On a padded topology the pad rows of ``ce`` stay exactly +0.0 and the
    zero row after ``ref`` stays zero, through every kind of round and a
    lane's retirement. A pad read under weight 0 changes at most the sign
    of a zero, so the parity tests alone would not see a wrong cell-to-
    sender index."""

    @pytest.mark.parametrize("channel, activation, refills", [
        pytest.param(None, None, True, id="sync-lossless"),
        pytest.param(ChannelModel(drop_prob=0.3), None, False, id="drops"),
        pytest.param(ChannelModel(max_staleness=2), ActivationModel(mode="randomized_subset", p_active=0.5),
                     False, id="delayed-async"),
    ])
    def test_pads_stay_zero(self, channel, activation, refills, monkeypatch):
        refill, calls = NetworkEngine._refill, []

        def checked(eng):
            # a full refill writes every cell from its own sender's ref
            refill(eng)
            calls.append(eng.lanes)
            assert eng.ce[eng.cell].tobytes() == eng.ref[eng.snd].tobytes()
            _assert_zero_rows(eng)

        monkeypatch.setattr(NetworkEngine, "_refill", checked)
        comms = CommsConfig(delta=0.0, bits=None, inner_step_cap=50)
        eng = NetworkEngine(PADDED, [(comms, seed) for seed in range(3)], channel, activation)
        eng.bootstrap(np.random.default_rng(5).normal(size=(3 * PADDED.num_nodes, 6)))
        assert eng.slots == 4 and calls == [3]
        delivered = 0
        for k in range(36):
            if k == 18:
                eng.retire(np.array([False, True, False]))
                _assert_zero_rows(eng)
            cached = eng.ce.copy()
            eng.step_round()
            delivered += bool((eng.ce != cached).any())
            _assert_zero_rows(eng)
        assert eng.lanes == 2 and delivered >= 30
        # after round 1, in which z is still ref, every round of a synchronous
        # lossless channel refills the whole grid; no other round does
        assert calls == [3] + ([3] * 17 + [2] * 18 if refills else [])


def pytest_generate_tests(metafunc):
    if "differential_index" in metafunc.fixturenames:
        metafunc.parametrize("differential_index", range(metafunc.config.getoption("differential_configs")))


def _differential_config(index):
    """Config ``index`` of a seeded stream of small deterministic runs:
    instance, topology and requests. Every topology family with N in
    [2, 9], d in [2, 16], every width from unquantized to 16 bits, a
    default, tight or wide clip range, inner caps 1-60 (mostly 40-60, so
    that lanes reach fixed points), outer caps 1-6, and 1-4 requests
    whose deltas mix 0, inert, past delta_q/2 and inf, with repeats."""
    rng = np.random.default_rng([2026, index])
    kind = ("ring", "path", "grid2d", "complete", "random_geometric")[index % 5]
    n = int(rng.integers(3 if kind == "ring" else 2, 10))
    if kind == "grid2d":
        rows = int(rng.integers(1, 4))
        params = {"rows": rows, "cols": int(rng.integers(-(-2 // rows), 9 // rows + 1))}
    elif kind == "random_geometric":
        params = {"n": n, "radius": float(rng.uniform(0.5, 0.9)), "seed": int(rng.integers(100))}
    else:
        params = {"n": n}
    topology = build_topology(kind, **params)
    d = int(rng.integers(2, 17))
    instance = otcore.ProblemInstance(
        cost=otcore.grid_cost(d), epsilon=float(rng.uniform(0.1, 1.0)), ridge=1e-16,
        histograms=mixture_histograms(d, topology.num_nodes, density_seed=int(rng.integers(100))))
    # a 4-bit quantizer over the wide range sends about -2136 or 2131 for z below
    # or above -2.5, so exp(z) may overflow in a later local scaling
    s_min, s_max = ((-30.0, 30.0), (-3.0, 1.0), (-1.5, 0.5), (-32002.5, 31997.5))[rng.integers(4)]
    comms = CommsConfig(
        delta=0.0, bits=(None, 4, 8, 12, 16)[rng.integers(5)], s_min=s_min, s_max=s_max,
        tau_inner=float(10 ** rng.uniform(-12, -1)), tau_outer=float(10 ** rng.uniform(-8, -2)),
        inner_step_cap=int(rng.integers(1 if rng.random() < 0.25 else 40, 61)),
        outer_iter_cap=int(rng.integers(1, 7)))
    step = comms.delta_q if comms.bits else 1e-3
    deltas = {"zero": 0.0, "inert": step * rng.uniform(0.05, 0.5), "active": step * rng.uniform(0.6, 3.0),
              "inf": np.inf}
    requests = [(dataclasses.replace(comms, delta=float(deltas[rng.choice(list(deltas))])), int(rng.integers(2)))
                for _ in range(rng.integers(1, 5))]
    if len(requests) < 4 and rng.random() < 0.3:
        requests.append(requests[rng.integers(len(requests))])
    return instance, topology, requests


@functools.lru_cache(maxsize=None)
def _differential_outcome(index):
    """Run config ``index`` with the engine's shortcuts and with every
    round alone. Returns the fields that differ, as (request, field), the
    rounds blocks took, the lane-rounds each run executed, the lane-rounds
    the records count (None when a lane failed), and how the shortcut
    run's outer iterations end (``_ending_causes``)."""
    instance, topology, requests = _differential_config(index)
    traced = True if index % 3 else set(range(0, len(requests), 2))
    step_round, step_block, executed = NetworkEngine.step_round, NetworkEngine.step_block, [0, 0]

    def counted_round(eng):
        executed[0] += eng.lanes
        step_round(eng)

    def counted_block(eng, rounds):
        taken = step_block(eng, rounds)
        executed[0] += eng.lanes * taken
        executed[1] += taken
        return taken

    def run():
        return simulate_lanes(instance, topology, requests, collect_residuals=traced, collect_round_log_v=True)

    with mock.patch.object(NetworkEngine, "step_round", counted_round), \
            mock.patch.object(NetworkEngine, "step_block", counted_block):
        shortcut = run()
    fast, blocks = executed
    executed[0] = 0
    with mock.patch.object(NetworkEngine, "step_round", counted_round), \
            mock.patch.object(NetworkEngine, "step_block", lambda eng, rounds: 0):
        alone = run()
    differ = []
    for i, (a, b) in enumerate(zip(shortcut, alone)):
        a, b = _bits(a), _bits(b)
        if isinstance(a, dict) and isinstance(b, dict):
            differ += [(i, name) for name in a if a[name] != b[name]]
        elif a != b:
            differ.append((i, "error"))
    failed = any(isinstance(r, Exception) for r in alone)
    return (differ, blocks, fast, executed[0], None if failed else _lane_rounds(requests, alone),
            _ending_causes(requests, shortcut))


class TestShortcutsDifferential:
    """Quiet blocks and the skip of a lane's fixed point, on generated
    deterministic configs: a run with them is bit-identical to the run of
    every round alone, errors included (type and message). Tier-1 checks
    40 configs; ``--differential-configs`` sets the count. Over the first
    40 at least, blocks take rounds, some lane's fixed point is skipped,
    and outer iterations end in each of the three ways."""

    def test_shortcuts_change_no_record(self, differential_index):
        differ, _, fast, slow, counted, _ = _differential_outcome(differential_index)
        assert not differ, f"config {differential_index}: (request, field) {differ}"
        assert fast <= slow
        assert counted is None or slow == counted  # alone, every counted round runs

    def test_the_configs_take_blocks_and_skip(self, request):
        count = max(40, request.config.getoption("differential_configs"))
        outcomes = [_differential_outcome(i) for i in range(count)]
        assert sum(blocks for _, blocks, *_ in outcomes) > 0
        assert sum(slow - fast for _, _, fast, slow, *_ in outcomes) > 0
        causes = {cause: sum(o[-1][cause] for o in outcomes[:40]) for cause in ("gap", "skip", "cap")}
        assert min(causes.values()) > 0, causes
