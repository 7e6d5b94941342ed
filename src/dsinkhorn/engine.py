"""Vectorized whole-network simulation loop.

This is the one implementation of the protocol round behind the
experiment harness and the CLI. It keeps the network state as (N, d)
arrays and per-directed-edge caches so that one gossip round costs a
handful of numpy calls instead of a Python loop over agents: trigger
evaluation on the activated nodes, clip + quantize of the fired payloads,
per-edge drops and delays, freshest-wins cache delivery, then cached
gossip with the round's effective weights. The test suite pins it, step
for step, to a deliberately literal per-agent oracle.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import netsim, otcore, protocol

__all__ = ["NetworkEngine", "RunRecord", "simulate_decentralized", "consensus_trace"]


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
    wall_clock_seconds: float
    round_log_v: list = field(default_factory=list)  # optional per-round Z copies


class NetworkEngine:
    """Array-backed network state plus the per-round update.

    Caches live per directed edge (receiver, sender); rows are sorted by
    receiver so neighborhood reductions are contiguous `reduceat` segments.
    """

    def __init__(self, topology, comms, channel=None, activation=None, seed=0):
        self.topology = topology
        self.comms = comms
        self.channel = channel or netsim.ChannelModel()
        self.activation = activation or netsim.ActivationModel()
        self.n = topology.num_nodes
        self.rng_act, self.rng_drop, self.rng_delay = netsim._rng_streams(seed)
        dir_edges = topology.directed_edges()
        self.rcv = dir_edges[:, 0]
        self.snd = dir_edges[:, 1]
        self.n_edges = len(dir_edges)
        if self.n_edges:
            # reduceat segment starts per receiver (every node has an in-edge)
            self.seg_starts = np.searchsorted(self.rcv, np.arange(self.n))
            self.out_edges = [np.flatnonzero(self.snd == i) for i in range(self.n)]
        else:
            self.seg_starts = np.zeros(0, dtype=np.int64)
            self.out_edges = [np.zeros(0, dtype=np.int64)]
        w_sync = netsim.metropolis_weights(topology).w if self.n > 1 else np.ones((1, 1))
        self.w_sync_edges = w_sync[self.rcv, self.snd] if self.n_edges else np.zeros(0)
        self.w_sync_diag = np.diag(w_sync).copy()

    # -- state ------------------------------------------------------------

    def bootstrap(self, z0: np.ndarray) -> None:
        """Round 0: every node broadcasts quantize(clip(z)) unconditionally;
        all caches are filled, bypassing drops, delays, and the trigger."""
        d = z0.shape[1]
        self.z = z0.astype(np.float64).copy()
        payload = protocol.quantize(
            protocol.clip_log(self.z, self.comms.s_min, self.comms.s_max), self.comms
        )
        self.ref = payload.copy()
        self.anchor = payload.copy()
        self.ce = payload[self.snd].copy() if self.n_edges else np.zeros((0, d))
        self.ce_time = np.zeros(self.n_edges, dtype=np.int64)
        self.messages = np.ones(self.n, dtype=np.int64)
        self.variation = np.zeros(self.n)
        self.clip_active = bool(np.any((self.z < self.comms.s_min) | (self.z > self.comms.s_max)))
        self.send_counter = 1
        self.pending = {}  # arrival_round -> list of (edge_idx, send_time, payload_row)
        self._last_gaps_max = np.inf

    # -- one round ---------------------------------------------------------

    def step_round(self) -> None:
        """One round; rounds are numbered 1, 2, ... after the bootstrap, and
        a packet's send time is the round it left in."""
        cm = self.comms
        active = netsim.draw_active(self.rng_act, self.activation, self.topology)
        drops = self.rng_drop.random(self.n_edges) if self.channel.drop_prob > 0.0 else None
        delays = (
            self.rng_delay.integers(0, self.channel.max_staleness + 1, size=self.n_edges)
            if self.channel.max_staleness > 0
            else None
        )
        now = self.send_counter
        self.send_counter += 1

        # trigger evaluation on activated nodes
        act_idx = np.flatnonzero(active)
        if act_idx.size:
            self.variation[act_idx] += np.abs(
                self.z[act_idx] - self.anchor[act_idx]
            ).max(axis=1)
            self.anchor[act_idx] = self.z[act_idx]
            drift = np.abs(self.z[act_idx] - self.ref[act_idx]).max(axis=1)
            fired = act_idx[drift > cm.delta]
        else:
            fired = act_idx
        if fired.size:
            raw = self.z[fired]
            if np.any((raw < cm.s_min) | (raw > cm.s_max)):
                self.clip_active = True
            payload = protocol.quantize(protocol.clip_log(raw, cm.s_min, cm.s_max), cm)
            self.ref[fired] = payload
            self.anchor[fired] = payload
            self.messages[fired] += 1
            self._route(fired, payload, drops, delays, now)

        self._deliver(now)
        self._gossip(active)

    def _route(self, fired, payload, drops, delays, now):
        for row, i in enumerate(fired):
            edges = self.out_edges[i]
            if drops is not None:
                edges = edges[drops[edges] >= self.channel.drop_prob]
            for e in edges:
                arrival = now if delays is None else now + int(delays[e])
                self.pending.setdefault(arrival, []).append((int(e), now, payload[row]))

    def _deliver(self, now: int) -> None:
        # Every round is stepped, so nothing older than `now` is pending.
        # At most one packet per edge and send time is due, so keeping the
        # freshest per edge gives the same caches in any order.
        for e, stime, payload in self.pending.pop(now, ()):
            if stime > self.ce_time[e]:
                self.ce[e] = payload
                self.ce_time[e] = stime

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
        contrib = np.add.reduceat(w_e[:, None] * self.ce, self.seg_starts, axis=0)
        self.z = diag[:, None] * self.z + contrib
        gaps = np.abs(self.z[self.rcv] - self.ce).max(axis=1)
        self._last_gaps_max = float(np.maximum.reduceat(gaps, self.seg_starts).max())

    def all_inner_converged(self) -> bool:
        """True when every node's cached neighbor payloads sit within
        tau_inner (sup norm, strict) of its own z."""
        if not self.n_edges:
            return True
        return self._last_gaps_max < self.comms.tau_inner


def simulate_decentralized(
    instance: otcore.ProblemInstance,
    topology,
    comms: protocol.CommsConfig,
    channel=None,
    activation=None,
    seed: int = 0,
    collect_residuals: bool = True,
    collect_round_log_v: bool = False,
) -> RunRecord:
    """Run the full decentralized barycenter loop.

    Per outer iteration: local scaling at each node (u from exp(z), then
    s = log(K^T u)), reseed z = s, inner gossip rounds until every node's
    stopping rule fires or the step cap ends the loop, then the shared
    projection b_i = softmax(z_i). The outer loop stops when every node's
    log-v change drops below tau_outer, or at the outer cap.
    """
    if topology.num_nodes != instance.num_agents:
        raise ValueError("topology size must match the number of agents")
    kernel = instance.kernel()
    mu = instance.histogram_matrix()
    eng = NetworkEngine(topology, comms, channel, activation, seed)
    n, d = mu.shape
    t0 = time.perf_counter()
    eng.bootstrap(np.zeros((n, d)))
    per_outer = []
    round_log_v = []
    prev_log_v = eng.z.copy()
    converged = False
    outer = 0
    for outer in range(1, comms.outer_iter_cap + 1):
        with np.errstate(over="ignore"):
            v = np.exp(eng.z)
        if not np.all(np.isfinite(v)):
            bad = int(np.argmax(~np.isfinite(v).all(axis=1)))
            raise protocol.ClipRangeError(
                f"node {bad} at outer iteration {outer}: exp(z) overflowed; "
                "tighten the clip range (s_max)"
            )
        _, eng.z = otcore._local_scaling(mu, kernel, instance.ridge, v)
        residuals = []
        for inner_steps in range(1, comms.inner_step_cap + 1):
            eng.step_round()
            if collect_residuals:
                residuals.append(netsim.consensus_residual(eng.z))
            if collect_round_log_v:
                round_log_v.append(eng.z.copy())
            if eng.all_inner_converged():
                break
        # Remove each node's common log-v offset (a purely local step).
        # The raw shared update flips the offset's sign around its
        # equilibrium every outer iteration while softmax ignores it, so
        # successive iterates are compared mean-zero; without this the
        # outer stopping rule could never fire.
        eng.z -= eng.z.mean(axis=1, keepdims=True)
        change = np.abs(eng.z - prev_log_v).max(axis=1)
        per_outer.append(
            {
                "outer_iter": outer,
                "inner_steps_used": inner_steps,
                "log_v_change_linf": float(change.max()),
                "consensus_residual_trace": residuals,
            }
        )
        prev_log_v = eng.z.copy()
        if float(change.max()) < comms.tau_outer:
            converged = True
            break
    wall = time.perf_counter() - t0
    log_v = eng.z.copy()
    return RunRecord(
        barycenters=otcore._softmax(log_v),
        log_v=log_v,
        converged=converged,
        outer_iters=outer,
        rounds_total=eng.send_counter - 1,
        messages_per_agent=eng.messages.copy(),
        variation_per_agent=eng.variation.copy(),
        clip_active=eng.clip_active,
        per_outer=per_outer,
        wall_clock_seconds=wall,
        round_log_v=round_log_v,
    )


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
    eng = NetworkEngine(topology, comms, channel, activation, seed)
    eng.bootstrap(np.asarray(z0, dtype=np.float64))
    residuals = [netsim.consensus_residual(eng.z)]
    for _ in range(steps):
        eng.step_round()
        residuals.append(netsim.consensus_residual(eng.z))
    return np.array(residuals), eng.z.copy()
