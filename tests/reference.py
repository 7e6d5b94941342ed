"""Per-agent reference implementation of the protocol round (test oracle).

Deliberately slow and literal: each agent is an :class:`AgentState`, every
broadcast is a :class:`Packet`, and :class:`RoundScheduler` drives one round
agent by agent -- trigger evaluations on activated nodes, per-directed-edge
drops and delays, freshness-ordered cache updates, then a gossip step with
the round's effective doubly-stochastic weights. The vectorized
``dsinkhorn.engine.NetworkEngine`` must reproduce these trajectories
exactly; ``test_engine.py`` pins the two together.

``pack_packet``/``unpack_packet`` are the byte-level wire format that
``dsinkhorn.protocol.packet_wire_size`` accounts for, and
``log_message_lse`` is the log-sum-exp form of ``otcore.log_message``.
``expected_weights`` is the exact mean of ``effective_weights`` under each
activation model. ``trace_rows`` is the row-dict form of the trace.csv
rows that ``dsinkhorn.experiments.trace_lines`` writes.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from dsinkhorn import netsim, otcore
from dsinkhorn.protocol import _HEADER, ClipRangeError, CommsConfig, clip_log, quantize

_UNQUANTIZED_WIRE_BITS = 0  # wire sentinel for float64 payloads


def log_message_lse(u: np.ndarray, kernel: otcore.GibbsKernel) -> np.ndarray:
    """s = log(K^T u) through an explicit log-sum-exp over an (N, d, d)
    broadcast, for u of shape (d,) or (N, d); zeros in u enter as -inf."""
    u = np.asarray(u, dtype=np.float64)
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    # (K^T u)_j = sum_k K[k, j] u[k]; axis -2 of the broadcast runs over k
    return logsumexp(kernel.log_entries + log_u[..., :, None], axis=-2)


def trace_rows(variant: str, record) -> list:
    """Flatten a record's per-inner-step residuals into trace.csv rows."""
    rows = []
    rnd = 0
    for rec in record.per_outer:
        for step, residual in enumerate(rec["consensus_residual_trace"], start=1):
            rnd += 1
            rows.append(
                {
                    "variant": variant,
                    "round": rnd,
                    "outer_iter": rec["outer_iter"],
                    "inner_step": step,
                    "residual": residual,
                }
            )
    return rows


# -- wire format -------------------------------------------------------------


@dataclass(frozen=True)
class Packet:
    """One broadcast: the sender's clipped+quantized z at a given round."""

    sender: int
    payload: np.ndarray
    outer_iter: int
    inner_step: int


def _encode_levels(payload: np.ndarray, config: CommsConfig) -> np.ndarray:
    n = config.num_levels - 1
    step = (config.s_max - config.s_min) / n
    k = np.rint((payload - config.s_min) / step).astype(np.int64)
    if (
        np.any(k < 0)
        or np.any(k > n)
        or not np.array_equal(config.s_min + k * step, payload)
    ):
        raise ValueError("payload contains values that are not quantizer levels")
    return k


def pack_packet(packet: Packet, config: CommsConfig) -> bytes:
    """Serialize: header (sender, outer_iter, inner_step, bits, d) then the
    payload as level indices in ceil(bits/8) little-endian bytes each, or raw
    float64 when unquantized (bits encoded as 0 on the wire)."""
    d = packet.payload.size
    if config.bits is None:
        head = _HEADER.pack(packet.sender, packet.outer_iter, packet.inner_step, _UNQUANTIZED_WIRE_BITS, d)
        return head + packet.payload.astype("<f8").tobytes()
    bits = int(config.bits)
    head = _HEADER.pack(packet.sender, packet.outer_iter, packet.inner_step, bits, d)
    width = (bits + 7) // 8
    k = _encode_levels(packet.payload, config)
    body = b"".join(int(v).to_bytes(width, "little") for v in k)
    return head + body


def unpack_packet(blob: bytes, config: CommsConfig) -> Packet:
    """Inverse of :func:`pack_packet`; reconstructs exact level values."""
    sender, outer_iter, inner_step, bits, d = _HEADER.unpack_from(blob, 0)
    body = blob[_HEADER.size :]
    if bits == _UNQUANTIZED_WIRE_BITS:
        payload = np.frombuffer(body, dtype="<f8", count=d).astype(np.float64)
    else:
        width = (bits + 7) // 8
        n = (1 << bits) - 1
        step = (config.s_max - config.s_min) / n
        k = np.array(
            [int.from_bytes(body[i * width : (i + 1) * width], "little") for i in range(d)],
            dtype=np.int64,
        )
        payload = config.s_min + k * step
    return Packet(sender=sender, payload=payload, outer_iter=outer_iter, inner_step=inner_step)


# -- per-agent state and operations ------------------------------------------


@dataclass
class AgentState:
    """Mutable per-agent protocol state.

    ``z_last_tx`` holds the payload of the agent's most recent broadcast
    (post clip/quantize). ``trigger_anchor`` is the reference point from
    which ``variation_accum`` measures the travelled sup-norm distance of
    the trigger-monitored sequence; it moves to z at every trigger
    evaluation and to the fresh payload at every transmission, so the
    broadcast budget messages <= 1 + ceil(variation/delta) is exact.
    """

    agent_id: int
    u: np.ndarray
    s: np.ndarray
    z: np.ndarray
    z_last_tx: np.ndarray | None = None
    trigger_anchor: np.ndarray | None = None
    neighbor_cache: dict = field(default_factory=dict)
    messages_sent: int = 0
    variation_accum: float = 0.0

    @classmethod
    def initialize(cls, agent_id: int, kernel: otcore.GibbsKernel) -> "AgentState":
        """Fresh agent: u = 1, s = log(K^T 1), z = 0.

        z starts at 0 (v = 1) so the shared iterate follows the same
        trajectory as the centralized reference solver, which also starts
        from v = 1.
        """
        u = np.ones(kernel.d)
        s = otcore.log_message(u, kernel)
        return cls(agent_id=agent_id, u=u, s=s, z=np.zeros(kernel.d))


def local_scaling_update(state: AgentState, histogram, kernel: otcore.GibbsKernel, ridge: float) -> None:
    """Recompute u = mu / (K exp(z) + ridge) and s = log(K^T u) in place.

    Raises ``ClipRangeError`` when exp(z) overflows: that means transmitted
    values escaped any sane range and the clip interval (s_max) must be
    tightened.
    """
    mu = histogram.weights if isinstance(histogram, otcore.Histogram) else np.asarray(histogram)
    with np.errstate(over="ignore"):
        v = np.exp(state.z)
    if not np.all(np.isfinite(v)):
        raise ClipRangeError(
            f"agent {state.agent_id}: exp(z) overflowed; tighten the clip range (s_max)"
        )
    kv = kernel.entries @ v
    state.u = mu / (kv + ridge)
    state.s = otcore.log_message(state.u, kernel)


def reseed_inner(state: AgentState) -> None:
    """Reset the gossip variable to the fresh local message: z = s."""
    state.z = state.s.copy()


def normalize_scale(state: AgentState) -> None:
    """Remove the common offset of z (a purely local step, no messages).

    The shared update has an exact scale symmetry -- multiplying v by c
    divides the next v by c -- so the offset component of log v flips
    sign around its equilibrium at every outer iteration and never
    settles, while softmax(z) ignores it entirely. Normalizing once per
    outer iteration, after the inner gossip, makes successive shared
    iterates comparable so the outer stopping rule can fire.
    """
    state.z = state.z - state.z.mean()


def _eval_variation(state: AgentState) -> None:
    if state.trigger_anchor is not None:
        state.variation_accum += float(np.abs(state.z - state.trigger_anchor).max())
    state.trigger_anchor = state.z.copy()


def _drift_fires(state: AgentState, config: CommsConfig, force: bool) -> bool:
    _eval_variation(state)
    if force or state.z_last_tx is None:
        return True
    return float(np.abs(state.z - state.z_last_tx).max()) > config.delta


def _send(state: AgentState, payload: np.ndarray, outer_iter: int, inner_step: int) -> Packet:
    state.z_last_tx = payload
    state.trigger_anchor = payload.copy()
    state.messages_sent += 1
    return Packet(sender=state.agent_id, payload=payload, outer_iter=outer_iter, inner_step=inner_step)


def maybe_transmit(
    state: AgentState,
    config: CommsConfig,
    outer_iter: int = 0,
    inner_step: int = 0,
    force: bool = False,
) -> Packet | None:
    """Evaluate the event trigger; broadcast when it fires and the payload
    is new.

    The trigger fires when ||z - z_last_tx||_inf strictly exceeds delta
    (the comparison is against the dequantized payload neighbors actually
    hold). The payload is clip+quantize of the current z; it goes out only
    if it differs from ``z_last_tx`` in at least one entry, and then it
    replaces ``z_last_tx`` and the variation anchor, and ``messages_sent``
    is incremented. A fired trigger whose payload repeats the last one
    sends nothing and leaves the anchor at z. ``force`` bypasses both
    tests for the round-0 bootstrap exchange.
    """
    bootstrap = force or state.z_last_tx is None
    if not _drift_fires(state, config, force):
        return None
    payload = quantize(clip_log(state.z, config.s_min, config.s_max), config)
    if not bootstrap and np.array_equal(payload, state.z_last_tx):
        return None
    return _send(state, payload, outer_iter, inner_step)


def maybe_transmit_resending(
    state: AgentState,
    config: CommsConfig,
    outer_iter: int = 0,
    inner_step: int = 0,
    force: bool = False,
) -> Packet | None:
    """The trigger without the repeat test: every fired trigger broadcasts,
    even a payload equal to ``z_last_tx``. Kept only to show that dropping
    repeats changes no trajectory on synchronous lossless channels."""
    if not _drift_fires(state, config, force):
        return None
    return _send(state, quantize(clip_log(state.z, config.s_min, config.s_max), config),
                 outer_iter, inner_step)


def gossip_step(state: AgentState, weights_row: np.ndarray) -> None:
    """One cached-gossip averaging step:
    z <- w_ii z + sum_k w_ik (cached payload of k), own z at full precision.

    Raises if a positive-weight neighbor has no cached packet.
    """
    terms = []  # w_ik * payload, by sender k
    for k, w in enumerate(weights_row):
        if k == state.agent_id or w == 0.0:
            continue
        pkt = state.neighbor_cache.get(k)
        if pkt is None:
            raise RuntimeError(
                f"agent {state.agent_id}: no cached packet from positive-weight neighbor {k}"
            )
        terms.append(w * pkt.payload)
    # the order of NetworkEngine._gossip: the neighbour terms as
    # (k1 + k2 + ...) + k0, then w_ii z plus that sum
    z_new = weights_row[state.agent_id] * state.z
    if terms:
        ordered = terms[1:] + terms[:1]  # k1, k2, ..., k0
        total = ordered[0]
        for term in ordered[1:]:
            total = total + term
        z_new = z_new + total
    state.z = z_new


def inner_converged(state: AgentState, config: CommsConfig) -> bool:
    """Local stopping rule: every cached neighbor payload is within
    tau_inner of the agent's own z (sup norm, strict).

    With quantization coarser than tau_inner this can stay False at true
    consensus; the inner step cap then ends the loop.
    """
    if not state.neighbor_cache:
        return True
    gap = max(float(np.abs(state.z - p.payload).max()) for p in state.neighbor_cache.values())
    return gap < config.tau_inner


def outer_converged(log_v_prev: np.ndarray, log_v_curr: np.ndarray, config: CommsConfig) -> bool:
    """Outer stopping rule: ||log v_curr - log v_prev||_inf < tau_outer (strict)."""
    return bool(float(np.abs(np.asarray(log_v_curr) - np.asarray(log_v_prev)).max()) < config.tau_outer)


# -- the round ---------------------------------------------------------------


def effective_weights(topology: netsim.Topology, active: np.ndarray) -> np.ndarray:
    """The round's averaging matrix: Metropolis weights of the subgraph
    induced by the active nodes, identity rows elsewhere.

    Symmetric and doubly stochastic for every active set; an active node
    with no active neighbor keeps an identity row.
    """
    n = topology.num_nodes
    adj = topology.adjacency()
    active = np.asarray(active, dtype=bool)
    both = np.outer(active, active) & adj
    deg_a = both.sum(axis=1)
    w = np.zeros((n, n))
    denom = 1.0 + np.maximum(deg_a[:, None], deg_a[None, :])
    w[both] = 1.0 / denom[both]
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def expected_weights(topology: netsim.Topology, activation: netsim.ActivationModel) -> np.ndarray:
    """Exact expectation of the per-round effective averaging matrix.

    synchronous: the Metropolis matrix itself. randomized_pairwise:
    I - L/(2|E|) with L the graph Laplacian. randomized_subset: per-edge
    expectation by enumerating the joint activation of the two endpoint
    neighborhoods (the only nodes that influence the edge weight).
    """
    n = topology.num_nodes
    if activation.mode == "synchronous":
        return netsim.metropolis_weights(topology).w
    if activation.mode == "randomized_pairwise":
        lap = np.diag(topology.degrees().astype(np.float64)) - topology.adjacency().astype(np.float64)
        return np.eye(n) - lap / (2.0 * len(topology.edges))
    p = activation.p_active
    adj = topology.neighbor_lists()
    w_bar = np.zeros((n, n))
    for i, k in topology.edges:
        others = sorted((set(adj[i]) | set(adj[k])) - {i, k})
        m = len(others)
        in_i = np.array([o in adj[i] for o in others], dtype=np.int64)
        in_k = np.array([o in adj[k] for o in others], dtype=np.int64)
        exp_w = 0.0
        for mask in range(1 << m):
            bits = np.array([(mask >> b) & 1 for b in range(m)], dtype=np.int64)
            prob = p ** bits.sum() * (1 - p) ** (m - bits.sum())
            deg_i = 1 + int((bits * in_i).sum())
            deg_k = 1 + int((bits * in_k).sum())
            exp_w += prob / (1.0 + max(deg_i, deg_k))
        w_bar[i, k] = w_bar[k, i] = p * p * exp_w
    np.fill_diagonal(w_bar, 1.0 - w_bar.sum(axis=1))
    return w_bar

@dataclass
class RoundReport:
    """What one scheduled round did: who was active, which packets were
    delivered (receiver, packet) in application order, and the effective
    weight matrix used for the averaging step."""

    active: np.ndarray
    delivered: list
    effective: np.ndarray


class RoundScheduler:
    """Stateful per-agent round driver (reference semantics).

    Owns the activation/drop/delay streams and the in-flight packet queue.
    ``transmit`` is the per-agent trigger: :func:`maybe_transmit`, or
    :func:`maybe_transmit_resending` for the rule without the repeat test.
    Each call to :meth:`schedule_round` performs: trigger evaluation on the
    activated nodes, channel effects per directed edge, freshness-ordered
    cache updates, then one gossip step per node with the round's effective
    weights.
    """

    def __init__(self, topology: netsim.Topology, comms: CommsConfig,
                 channel: netsim.ChannelModel | None = None,
                 activation: netsim.ActivationModel | None = None, seed: int = 0,
                 transmit=maybe_transmit):
        self.topology = topology
        self.transmit = transmit
        self.comms = comms
        self.channel = channel or netsim.ChannelModel()
        self.activation = activation or netsim.ActivationModel()
        self.rng_act, self.rng_drop, self.rng_delay = netsim._rng_streams(seed)
        self.dir_edges = topology.directed_edges()  # (receiver, sender) rows
        self.pending = []  # (arrival_round, send_time, sender, receiver, Packet)
        self._send_counter = 0
        self._cache_time = {}

    def bootstrap(self, agents) -> None:
        """Round 0: mandatory full exchange. Every node broadcasts its
        clipped+quantized z unconditionally and every cache is populated;
        drops, delays, and the trigger test are bypassed this once."""
        adj = self.topology.neighbor_lists()
        packets = [maybe_transmit(a, self.comms, 0, 0, force=True) for a in agents]
        for a in agents:
            for k in adj[a.agent_id]:
                a.neighbor_cache[k] = packets[k]
        self._cache_time = {
            (rcv, snd): 0 for rcv, snd in map(tuple, self.dir_edges)
        }
        self._send_counter = 1

    def schedule_round(self, agents, round_index: int, outer_iter: int = 0,
                       inner_step: int = 0) -> RoundReport:
        active = netsim.draw_active(self.rng_act, self.activation, self.topology)
        n_dir = len(self.dir_edges)
        drops = (
            self.rng_drop.random(n_dir)
            if self.channel.drop_prob > 0.0
            else None
        )
        delays = (
            self.rng_delay.integers(0, self.channel.max_staleness + 1, size=n_dir)
            if self.channel.max_staleness > 0
            else np.zeros(n_dir, dtype=np.int64)
        )
        send_time = self._send_counter
        self._send_counter += 1

        # trigger evaluation on activated nodes; enqueue surviving copies
        for a in agents:
            if not active[a.agent_id]:
                continue
            pkt = self.transmit(a, self.comms, outer_iter, inner_step)
            if pkt is None:
                continue
            for e, (rcv, snd) in enumerate(self.dir_edges):
                if snd != a.agent_id:
                    continue
                if drops is not None and drops[e] < self.channel.drop_prob:
                    continue
                self.pending.append((round_index + int(delays[e]), send_time, snd, rcv, pkt))

        # deliver everything due, in (sender, send_time) order; keep freshest
        due = [p for p in self.pending if p[0] <= round_index]
        self.pending = [p for p in self.pending if p[0] > round_index]
        delivered = []
        for _, stime, snd, rcv, pkt in sorted(due, key=lambda p: (p[2], p[1], p[3])):
            if stime > self._cache_time.get((rcv, snd), -1):
                agents[rcv].neighbor_cache[snd] = pkt
                self._cache_time[(rcv, snd)] = stime
                delivered.append((rcv, pkt))

        w_eff = effective_weights(self.topology, active)
        for a in agents:
            if active[a.agent_id]:
                gossip_step(a, w_eff[a.agent_id])
        return RoundReport(active=active, delivered=delivered, effective=w_eff)
