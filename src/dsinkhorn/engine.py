"""Vectorized whole-network simulation loop, run for many lanes at once.

This is the one implementation of the protocol round behind the
experiment harness and the CLI. A lane is one (CommsConfig, seed) pair.
The engine runs L lanes on the disjoint union of L copies of the
topology: node l*N + i is node i of lane l, and the directed edges are
stacked the same way, so one round of every lane is a handful of numpy
calls: trigger evaluation on the activated nodes, clip + quantize of the
fired payloads, per-edge drops and delays into a ring of in-flight
packets, freshest-wins cache delivery, then cached gossip with the
round's effective weights. Only four things stay per lane: its
activation/drop/delay streams, its delta, its inner and outer stopping,
and its retirement from the union once it finishes. The test suite pins
every lane, step for step, to a deliberately literal per-agent oracle.
"""

import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import netsim, otcore, protocol

__all__ = ["NetworkEngine", "RunRecord", "simulate_lanes", "simulate_decentralized", "consensus_trace"]

_BLOCK = 8  # rounds of random draws taken per lane and stream in one call
_CHUNK_BYTES = 1 << 17  # per-edge scratch of the gossip step


@dataclass
class RunRecord:
    """Raw outcome of one decentralized run (pre-metrics)."""

    barycenters: np.ndarray  # (N, d) per-node softmax(log v)
    log_v: np.ndarray  # (N, d) final per-node log v
    converged: bool
    outer_iters: int
    rounds_total: int
    messages_per_agent: np.ndarray
    variation_per_agent: np.ndarray
    clip_active: bool
    per_outer: list  # dicts: outer_iter, inner_steps_used, log_v_change_linf, consensus_residual_trace
    wall_clock_seconds: float  # the run's share of its batch's time, by rounds
    round_log_v: list = field(default_factory=list)  # optional per-round Z copies


class NetworkEngine:
    """Array-backed state of a batch of lanes plus the per-round update.

    Caches live per directed edge (receiver, sender) of the union; rows
    are sorted by receiver so neighborhood reductions are contiguous
    `reduceat` segments. Lanes may differ only in seed and delta.
    """

    def __init__(self, topology, lanes, channel=None, activation=None):
        comms = lanes[0][0]
        if any(replace(c, delta=comms.delta) != comms for c, _ in lanes):
            raise ValueError("lanes may differ only in seed and comms.delta")
        self.topology, self.comms = topology, comms
        self.channel = channel or netsim.ChannelModel()
        self.activation = activation or netsim.ActivationModel()
        self.size, self.edges = topology.num_nodes, topology.directed_edges()
        w_sync = netsim.metropolis_weights(topology).w if self.size > 1 else np.ones((1, 1))
        self.w_edges, self.w_diag = w_sync[self.edges[:, 0], self.edges[:, 1]], np.diag(w_sync)
        self.rngs = [netsim._rng_streams(seed) for _, seed in lanes]
        self.delta = np.repeat([c.delta for c, _ in lanes], self.size)
        self._layout(len(lanes))

    def _layout(self, lanes: int) -> None:
        """Index arrays and sync weights of the union of ``lanes`` copies."""
        shift = (np.arange(lanes) * self.size)[:, None]
        self.lanes, self.n, self.n_edges = lanes, lanes * self.size, lanes * len(self.edges)
        self.rcv = (self.edges[:, 0] + shift).ravel()
        self.snd = (self.edges[:, 1] + shift).ravel()
        # reduceat segment starts per receiver (every node has an in-edge)
        self.seg_starts = np.searchsorted(self.rcv, np.arange(self.n))
        self.w_sync_edges = np.tile(self.w_edges, lanes)
        self.w_sync_diag = np.tile(self.w_diag, lanes)

    # -- state ------------------------------------------------------------

    def bootstrap(self, z0: np.ndarray) -> None:
        """Round 0: every node broadcasts quantize(clip(z)) unconditionally;
        all caches are filled, bypassing drops, delays, and the trigger.
        ``z0`` stacks the lanes' (N, d) states."""
        cm, d = self.comms, z0.shape[1]
        self.z = z0.astype(np.float64)
        self.ref = protocol.quantize(protocol.clip_log(self.z, cm.s_min, cm.s_max), cm)
        self.anchor = self.ref.copy()
        self.ce = self.ref[self.snd]
        self.ce_time = np.zeros(self.n_edges, dtype=np.int64)
        self.messages = np.ones(self.n, dtype=np.int64)
        self.variation = np.zeros(self.n)
        self.clip_active = ((self.z < cm.s_min) | (self.z > cm.s_max)).reshape(self.lanes, -1).any(axis=1)
        self.send_counter = 1
        # In-flight packets, one slot per send round modulo max_staleness+1:
        # arrival rounds per directed edge, the round's fired nodes and their
        # payloads. A slot is rewritten only after all its packets arrived.
        slots = self.channel.max_staleness + 1
        self.arrival = np.zeros((slots, self.n_edges), dtype=np.int64)
        self.ring = [(np.zeros(0, dtype=np.int64), np.empty((0, d)))] * slots
        rows = max(len(self.edges), _CHUNK_BYTES // (8 * d))
        self._edge_buf = np.empty((min(rows, self.n_edges), d))
        self._lane_gap = np.full(self.lanes, -np.inf)
        self._block = [None, None, None]

    def retire(self, done: np.ndarray) -> None:
        """Remove the lanes flagged in ``done`` from the union."""
        keep = ~done
        nodes, edges = np.repeat(keep, self.size), np.repeat(keep, len(self.edges))
        for name in ("z", "ref", "anchor", "messages", "variation", "delta"):
            setattr(self, name, getattr(self, name)[nodes])
        self.ce, self.ce_time, self.arrival = self.ce[edges], self.ce_time[edges], self.arrival[:, edges]
        renumber = np.cumsum(nodes) - 1
        self.ring = [(renumber[f[nodes[f]]], p[nodes[f]]) for f, p in self.ring]
        self.clip_active, self._lane_gap = self.clip_active[keep], self._lane_gap[keep]
        self.rngs = [r for r, k in zip(self.rngs, keep) if k]
        self._block = [None if b is None else b[keep] for b in self._block]
        self._layout(len(self.rngs))

    # -- one round ---------------------------------------------------------

    def _draws(self, now: int) -> list:
        """This round's active mask, kept (not dropped) links and delays
        over the union; None where the channel draws nothing. Each lane's
        streams are read _BLOCK rounds at a time, as one-round draws would."""
        if (now - 1) % _BLOCK == 0:
            rngs, e, ch, slots = self.rngs, len(self.edges), self.channel, len(self.ring)
            act = [netsim.draw_active(a, self.activation, self.topology, _BLOCK) for a, _, _ in rngs]
            kept = ch.drop_prob > 0 and [d.random((_BLOCK, e)) >= ch.drop_prob for _, d, _ in rngs]
            delays = slots > 1 and [t.integers(0, slots, (_BLOCK, e)).astype(np.int32) for *_, t in rngs]
            self._block = [np.stack(b) if b else None for b in (act, kept, delays)]
        return [None if b is None else b[:, (now - 1) % _BLOCK].ravel() for b in self._block]

    def step_round(self) -> None:
        """One round of every lane; rounds are numbered 1, 2, ... after the
        bootstrap, and a packet's send time is the round it left in."""
        cm, now, slots = self.comms, self.send_counter, len(self.ring)
        self.send_counter += 1
        active, kept, delays = self._draws(now)

        # trigger evaluation on activated nodes
        act_idx = np.flatnonzero(active)
        z_act = self.z[act_idx]
        diff = self.anchor[act_idx]
        self.variation[act_idx] += np.abs(np.subtract(z_act, diff, out=diff), out=diff).max(axis=1)
        self.anchor[act_idx] = z_act
        diff = np.take(self.ref, act_idx, axis=0, out=diff, mode="clip")
        hot = np.abs(np.subtract(z_act, diff, out=diff), out=diff).max(axis=1) > self.delta[act_idx]
        fired, raw = act_idx[hot], z_act[hot]
        del z_act, diff  # the round's largest temporaries
        outside = ((raw < cm.s_min) | (raw > cm.s_max)).any(axis=1)
        self.clip_active[fired[outside] // self.size] = True
        raw = protocol.clip_log(raw, cm.s_min, cm.s_max)
        payload = protocol.quantize(raw, cm)
        del raw
        self.ref[fired] = payload
        self.anchor[fired] = payload
        self.messages[fired] += 1

        # each fired node's packet enters the ring on its kept out-edges
        self.ring[now % slots] = (fired, payload)
        sent = np.zeros(self.n, dtype=bool)
        sent[fired] = True
        sent = sent[self.snd] if kept is None else sent[self.snd] & kept
        self.arrival[now % slots, sent] = now if delays is None else now + delays[sent]

        # freshest-wins delivery: per edge, the latest send round due now
        sent_at = now - (now - np.arange(slots)) % slots
        due = np.where(self.arrival == now, sent_at[:, None], 0).max(axis=0)
        upd = np.flatnonzero(due > self.ce_time)
        self.ce_time[upd] = due[upd]
        for slot, (senders, payloads) in enumerate(self.ring):
            e = upd[due[upd] % slots == slot]
            self.ce[e] = payloads[np.searchsorted(senders, self.snd[e])]
        self._gossip(active)

    def _gossip(self, active: np.ndarray) -> None:
        if not self.n_edges:
            return
        if self.activation.mode == "synchronous":
            w_e, diag = self.w_sync_edges, self.w_sync_diag
        else:
            both = active[self.rcv] & active[self.snd]
            deg_a = np.bincount(self.rcv[both], minlength=self.n)
            w_e = np.where(
                both, 1.0 / (1.0 + np.maximum(deg_a[self.rcv], deg_a[self.snd])), 0.0
            )
            diag = 1.0 - np.bincount(self.rcv, weights=w_e, minlength=self.n)
        # Lanes are disjoint: the per-edge work runs a few lanes at a time
        # in one small buffer, indexed by the first lanes' index arrays.
        n, e = self.size, len(self.edges)
        per = len(self._edge_buf) // e
        gaps = np.empty(self.n_edges)
        for lo in range(0, self.lanes, per):
            nodes, edges = slice(lo * n, (lo + per) * n), slice(lo * e, (lo + per) * e)
            z, ce = self.z[nodes], self.ce[edges]
            buf = np.multiply(w_e[edges, None], ce, out=self._edge_buf[: len(ce)])
            z *= diag[nodes, None]
            z += np.add.reduceat(buf, self.seg_starts[: len(z)], axis=0)
            np.take(z, self.rcv[: len(ce)], axis=0, out=buf, mode="clip")
            gaps[edges] = np.abs(np.subtract(buf, ce, out=buf), out=buf).max(axis=1)
        node_gaps = np.maximum.reduceat(gaps, self.seg_starts)
        self._lane_gap = node_gaps.reshape(self.lanes, -1).max(axis=1)

    def all_inner_converged(self) -> np.ndarray:
        """Per lane: True when every node's cached neighbor payloads sit
        within tau_inner (sup norm, strict) of its own z."""
        return self._lane_gap < self.comms.tau_inner


def simulate_lanes(instance: otcore.ProblemInstance, topology, lanes, channel=None, activation=None,
                   collect_residuals: bool = True, collect_round_log_v: bool = False) -> list:
    """Run the full decentralized barycenter loop for every ``(comms,
    seed)`` lane as one batch; returns one RunRecord per lane, in order.

    Per outer iteration: local scaling at each node (u from exp(z), then
    s = log(K^T u)), reseed z = s, inner gossip rounds until every node's
    stopping rule fires or the step cap ends the loop, then the shared
    projection b_i = softmax(z_i). The outer loop stops when every node's
    log-v change drops below tau_outer, or at the outer cap. Each lane
    runs its own loops and leaves the batch when they end; its
    wall_clock_seconds is its share of the batch's time, by rounds. A
    lane whose exp(z) overflows (``ClipRangeError``) or whose scaling
    vector annihilates the kernel (``DegenerateStateError``) gets that
    error in place of its record; the other lanes run on unchanged.
    """
    if topology.num_nodes != instance.num_agents:
        raise ValueError("topology size must match the number of agents")
    kernel, mu = instance.kernel(), instance.histogram_matrix()
    eng = NetworkEngine(topology, lanes, channel, activation)
    cm, (n, d) = eng.comms, mu.shape
    t0 = time.perf_counter()
    eng.bootstrap(np.zeros((len(lanes) * n, d)))
    results, start = [None] * len(lanes), np.zeros((n, d))
    live = [SimpleNamespace(index=i, prev_log_v=start, outer=0, inner=0, per_outer=[], round_log_v=[])
            for i in range(len(lanes))]  # each lane's progress, in engine order

    def next_outer(pos, lane) -> bool:
        """Local scaling and reseed of one lane; True when it failed."""
        lane.outer, lane.inner, lane.residuals = lane.outer + 1, 0, []
        z = eng.z[pos * n : (pos + 1) * n]
        with np.errstate(over="ignore"):
            v = np.exp(z)
        if not np.all(np.isfinite(v)):
            bad = int(np.argmax(~np.isfinite(v).all(axis=1)))
            results[lane.index] = protocol.ClipRangeError(
                f"node {bad} at outer iteration {lane.outer}: exp(z) overflowed; "
                "tighten the clip range (s_max)"
            )
            return True
        try:
            _, z[:] = otcore._local_scaling(mu, kernel, instance.ridge, v)
        except otcore.DegenerateStateError as exc:
            results[lane.index] = otcore.DegenerateStateError(
                f"node {exc.row} at outer iteration {lane.outer}: {exc}"
            )
            return True
        return False

    done = np.array([next_outer(pos, lane) for pos, lane in enumerate(live)])
    while True:
        if done.any():
            eng.retire(done)
            live = [lane for lane, gone in zip(live, done) if not gone]
        if not live:
            break
        eng.step_round()
        if collect_residuals:
            residuals = netsim.consensus_residual(eng.z.reshape(eng.lanes, n, d)).tolist()
        stop = eng.all_inner_converged()
        done = np.zeros(len(live), dtype=bool)
        for pos, lane in enumerate(live):
            lane.inner += 1
            z = eng.z[pos * n : (pos + 1) * n]
            if collect_residuals:
                lane.residuals.append(residuals[pos])
            if collect_round_log_v:
                lane.round_log_v.append(z.copy())
            if not (stop[pos] or lane.inner == cm.inner_step_cap):
                continue
            # Remove each node's common log-v offset (a purely local step).
            # The raw shared update flips the offset's sign around its
            # equilibrium every outer iteration while softmax ignores it, so
            # successive iterates are compared mean-zero; without this the
            # outer stopping rule could never fire.
            z -= z.mean(axis=1, keepdims=True)
            change = float(np.abs(z - lane.prev_log_v).max())
            lane.per_outer.append({"outer_iter": lane.outer, "inner_steps_used": lane.inner,
                                   "log_v_change_linf": change, "consensus_residual_trace": lane.residuals})
            lane.prev_log_v = z.copy()
            if not change < cm.tau_outer and lane.outer < cm.outer_iter_cap:
                done[pos] = next_outer(pos, lane)
                continue
            done[pos] = True
            rows = slice(pos * n, (pos + 1) * n)
            results[lane.index] = RunRecord(
                otcore._softmax(z), lane.prev_log_v, change < cm.tau_outer, lane.outer,
                eng.send_counter - 1, eng.messages[rows].copy(), eng.variation[rows].copy(),
                bool(eng.clip_active[pos]), lane.per_outer, 0.0, lane.round_log_v,
            )
    wall = time.perf_counter() - t0
    records = [r for r in results if isinstance(r, RunRecord)]
    for r in records:
        r.wall_clock_seconds = wall * r.rounds_total / sum(q.rounds_total for q in records)
    return results


def simulate_decentralized(instance: otcore.ProblemInstance, topology, comms: protocol.CommsConfig,
                           channel=None, activation=None, seed: int = 0,
                           collect_residuals: bool = True, collect_round_log_v: bool = False) -> RunRecord:
    """One run of the decentralized barycenter loop: the one-lane batch of
    :func:`simulate_lanes`, raising the error that ended a failed run."""
    (record,) = simulate_lanes(instance, topology, [(comms, seed)], channel, activation,
                               collect_residuals, collect_round_log_v)
    if isinstance(record, Exception):
        raise record
    return record


def consensus_trace(
    topology,
    comms: protocol.CommsConfig,
    z0: np.ndarray,
    steps: int,
    channel=None,
    activation=None,
    seed: int = 0,
) -> tuple:
    """Pure gossip (no transport updates): bootstrap from z0 and run rounds.

    Returns (residuals, z_final) with residuals[0] the initial disagreement
    and residuals[s] the value after round s. Used by the consensus-decay
    and inner-steps-scaling checks.
    """
    eng = NetworkEngine(topology, [(comms, seed)], channel, activation)
    eng.bootstrap(np.asarray(z0, dtype=np.float64))
    residuals = [netsim.consensus_residual(eng.z)]
    for _ in range(steps):
        eng.step_round()
        residuals.append(netsim.consensus_residual(eng.z))
    return np.array(residuals), eng.z.copy()
