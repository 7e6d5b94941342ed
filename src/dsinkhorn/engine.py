"""Vectorized whole-network simulation loop, run for many lanes at once.

This is the one implementation of the protocol round behind the
experiment harness and the CLI. A lane is one (CommsConfig, seed) pair.
The engine runs L lanes on the disjoint union of L copies of the
topology: node l*N + i is node i of lane l, and the directed edges are
stacked the same way, so one round of every lane is a handful of numpy
calls: trigger evaluation on the activated nodes, clip + quantize of the
fired payloads, of which only those that differ from the sender's last
payload go out, per-edge drops, a send store for delayed packets,
freshest-wins cache delivery, then cached gossip with the round's
weights on the receivers that have an active in-edge. The edge caches
sit in a slot-major grid (ELLPACK-style): slot s of receiver r is row
s*n + r, so the gossip sum is one multiply-add per slot with the
synchronous weights stored in full, kept until a cache row changes, and
the inner stop test checks one witness edge per lane before it scans
every edge. A round in which every node sends over a lossless, undelayed
channel refills the grid in one take from ref through a cell-to-sender
index whose pads read a zero row kept after ref. Every per-node sup norm
is one segmented reduction over the flat array (``_rowmax``) rather
than one numpy inner loop per row, and the random draws are taken in
round-major blocks, so a round's draws are a view. Only four
things stay per lane: its activation/drop/delay streams, its delta, its
stop decision between outer iterations, and its retirement from the
union once it finishes. A lane is keyed by what it runs: its comms, where
an inert quantized threshold (``CommsConfig.inert_delta``: 0 < delta <=
delta_q/2) runs as delta = 0, since it sends exactly what delta = 0
sends, and its seed unless the channel is deterministic (below). Requests
with the same key run as one lane of the union, and each request gets its
own copy of its outcome, with its own seed.
The test suite pins every lane, step for step, to a deliberately literal
per-agent oracle. One lane alone is the one-lane batch; measured against
the centralized barycenter, it is ``experiments.run_decentralized``.

A deterministic round (synchronous activation, no drops, no delays) draws
no random numbers and leaves nothing in flight. After such a round sends
nothing in any lane, the loop takes the rounds that follow as one block
(``NetworkEngine.step_block``): while nothing is sent the caches stay
frozen and z follows one monotone map, so one set of stacked checks at
the block's two ends shows that no round in it sends or stops a lane on
the gap test. A block asks for every round up to the nearest inner cap,
as many as ``_STACK_BYTES`` holds, and ends with the first round that
leaves some lane's z bit-for-bit unchanged: that lane is at a fixed point,
and every later round of the outer iteration would repeat the round
(``simulate_lanes`` counts them). Neither a block nor a skip changes a
record: it is bit-identical to the record of the same rounds run one at a
time.
"""

import copy
import math
import time
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from . import netsim, otcore, protocol

__all__ = ["NetworkEngine", "RunRecord", "simulate_lanes", "consensus_trace"]

_BLOCK = 64  # rounds of random draws taken per lane and stream in one call
_STACK_BYTES = 1 << 20  # the z states of one block of quiet rounds, at most
_TRACE_BYTES = 1 << 17  # the traced z of the single rounds whose residuals wait for one call, at most


_STARTS = {}  # per row width, the flat index of each row's first entry, for the most rows asked yet


def _rowmax(x: np.ndarray, out=None) -> np.ndarray:
    """``np.maximum.reduce(x, axis=-1)``, bit for bit (NaN and signed zeros
    included), as one segmented reduction (``reduceat``) over the flat
    array, where ``reduce`` runs one inner loop per row; ``out`` is flat.
    Boolean any and all along rows stay numpy reductions, which are faster
    than ``reduceat`` for them."""
    flat, width = x.reshape(-1), x.shape[-1]
    rows, starts = flat.size // width, _STARTS.get(width)
    if starts is None or len(starts) < rows:
        starts = _STARTS[width] = np.arange(0, rows * width, width)
        starts.flags.writeable = False
    return np.maximum.reduceat(flat, starts[:rows], out=out).reshape(x.shape[:-1])


@dataclass
class RunRecord:
    """Outcome of one decentralized run, the one result type per run; all of
    it comes from ``simulate_lanes``, the errors against its oracle (NaN, None
    per node, without one) and its comms' steady-state bias bound included."""

    seed: int
    barycenters: np.ndarray  # (N, d) per-node softmax(log v)
    log_v: np.ndarray  # (N, d) final per-node log v
    converged: bool
    outer_iters: int
    rounds_total: int
    broadcasts_per_agent: np.ndarray
    variation_per_agent: np.ndarray
    messages_per_agent: np.ndarray  # link messages: broadcasts times the agent's degree
    messages_total: int
    bytes_total: int  # messages_total times the packet's wire size
    clip_active: bool  # some active node's z left [s_min, s_max] in some round, bootstrap included
    # dicts: outer_iter, inner_steps_used, log_v_change_linf, consensus_residual_last, consensus_residual_trace
    per_outer: list
    wall_clock_seconds: float  # the run's share of its batch's time, by rounds
    # optional per-round Z copies, a block's rounds included; idle repeats share one
    round_log_v: list = field(default_factory=list)
    l1_error_per_node: np.ndarray | None = None
    l1_error_max: float = math.nan
    l1_error_mean: float = math.nan
    bias_bound: float = math.nan


class NetworkEngine:
    """Array-backed state of a batch of lanes plus the per-round update.

    Delivery state (``ce_time``, ``arrival``, ``rcv``, ``snd``) lives per
    directed edge (receiver, sender) of the union, sorted by receiver. The
    caches ``ce`` live in ``slots`` (the largest in-degree) blocks of n
    rows: the k-th in-edge of receiver r is row ``cell = k*n + r``, and the
    rows no edge fills (``pad``) are zero with weight 0; ``_sum``, their
    weighted sum, is kept under synchronous weights until a cache row is
    written. ``cell_src`` maps each cell to its row of ``_src``: its
    sender's ref, or for a pad the zero row stored after ref. Delayed
    packets wait in ``store[send round % depth, sender]``, and
    ``arrival[slot, edge]`` is the round they land; each round every edge
    takes its freshest packet due in one gather, fresher than its
    ``ce_time``, which only a delaying channel keeps (it stays 0
    otherwise). ``marks`` stacks each node's ``anchor`` (the state its
    variation is measured from) and ``ref`` (its last payload), so the
    trigger's two distances take one subtraction and a send one scatter.
    The views of these arrays a round reads, and under synchronous
    activation the weights in full, shaped as the caches and z they
    multiply, are built once per layout. Lanes may differ only in seed
    and delta; on a deterministic channel a lane has no random streams
    and its seed is unused. ``idle`` is None, or flags per lane whether
    the last round of a block left z bit-for-bit unchanged; a round run
    alone sets it to None. ``quiet`` is True after a deterministic round
    that sent nothing in any lane, or after a block that ran its full
    length: ``step_block`` may then take the next rounds as one block and
    leave the z each of them reaches in ``block``.
    """

    def __init__(self, topology, lanes, channel=None, activation=None):
        comms = lanes[0][0]
        if any(replace(c, delta=comms.delta) != comms for c, _ in lanes):
            raise ValueError("lanes may differ only in seed and comms.delta")
        self.topology, self.comms = topology, comms
        self.channel = channel or netsim.ChannelModel()
        self.activation = activation or netsim.ActivationModel()
        self.deterministic = _deterministic(self.channel, self.activation)
        self.size, self.edges = topology.num_nodes, topology.directed_edges()
        w_sync = netsim._metropolis_matrix(topology)
        self.w_edges, self.w_diag = w_sync[self.edges[:, 0], self.edges[:, 1]], np.diag(w_sync)
        # each edge's rank among its receiver's in-edges picks its slot
        self.rank = np.arange(len(self.edges)) - np.searchsorted(self.edges[:, 0], self.edges[:, 0])
        self.slots = int(self.rank.max(initial=-1)) + 1
        self._order = [*range(1, self.slots), 0][: self.slots]  # in-edges add as (k1 + k2 + ...) + k0
        self.rngs = [None if self.deterministic else netsim._rng_streams(seed) for _, seed in lanes]
        self.delta = np.repeat([c.delta for c, _ in lanes], self.size)
        self._layout(len(lanes))

    def _layout(self, lanes: int) -> None:
        """Index arrays and sync weights of the union of ``lanes`` copies."""
        shift = (np.arange(lanes) * self.size)[:, None]
        self.lanes, self.n, self.n_edges = lanes, lanes * self.size, lanes * len(self.edges)
        self.rcv = (self.edges[:, 0] + shift).ravel()
        self.snd = (self.edges[:, 1] + shift).ravel()
        self.cell = np.tile(self.rank, lanes) * self.n + self.rcv
        # each cell's sender, a row of ``_src``: ref, then a zero row (row n) for the pads
        self.cell_src = np.full(self.slots * self.n, self.n)
        self.cell_src[self.cell] = self.snd
        self.pad = self.cell_src == self.n

    def _views(self) -> None:
        """Views and weights for the current layout: the (2, n, d) marks,
        anchor, ref and ``_src`` (ref and the zero row), the (slots, n, d)
        caches, the gossip products and each slot's row of them in
        summation order, the trigger's (2, n, d) diffs, and under
        synchronous activation the weights in full, shaped as the caches
        and z they multiply."""
        n, d = self.n, self.ce.shape[1]
        self.marks, self._src = self._marks[:-1].reshape(2, n, d), self._marks[n:]
        self.anchor, self.ref = self.marks
        self._ce3 = self.ce.reshape(self.slots, n, d)
        self._prod = self._scratch[: self.ce.size].reshape(self._ce3.shape)
        self._terms = [self._prod[s] for s in self._order]
        self._diff = self._scratch[: 2 * self.z.size].reshape(2, *self.z.shape)
        if self.activation.mode == "synchronous":
            w_sync = np.zeros(self.slots * n)
            w_sync[self.cell] = np.tile(self.w_edges, self.lanes)
            self.w_sync = np.repeat(w_sync, d).reshape(self._ce3.shape)
            self.w_sync_diag = np.repeat(np.tile(self.w_diag, self.lanes), d).reshape(n, d)

    # built by _views, not copied with the engine
    _VIEWS = ("marks", "_src", "anchor", "ref", "_ce3", "_prod", "_terms", "_diff", "w_sync", "w_sync_diag")

    def __getstate__(self):  # a copy builds its views of its own arrays
        return {k: v for k, v in self.__dict__.items() if k not in self._VIEWS}

    def __setstate__(self, state):
        self.__dict__.update(state)
        if "ce" in state:
            self._views()

    # -- state ------------------------------------------------------------

    def bootstrap(self, z0: np.ndarray) -> None:
        """Round 0: every node broadcasts quantize(clip(z)) unconditionally;
        all caches are filled, bypassing drops, delays, and the trigger.
        ``z0`` stacks the lanes' (N, d) states."""
        cm, d = self.comms, z0.shape[1]
        self.z = z0.astype(np.float64)
        self._marks = np.zeros((2 * self.n + 1, d))  # the anchor and ref rows of every node, then a zero row
        self.ce = np.empty((self.slots * self.n, d))
        # the trigger's diffs, the gossip products and the gaps; under random
        # activation also the z each of the first two gathers
        spare = self.activation.mode != "synchronous"
        self._scratch = np.empty((max(self.slots, 2) + spare) * self.z.size)
        self._views()
        self.marks[:] = protocol.quantize(protocol.clip_log(self.z, cm.s_min, cm.s_max), cm)
        self._refill()
        self.ce_time = np.zeros(self.n_edges, dtype=np.int64)
        self.messages = np.ones(self.n, dtype=np.int64)
        self.variation = np.zeros(self.n)
        self.clip_active = ((self.z < cm.s_min) | (self.z > cm.s_max)).reshape(self.lanes, -1).any(axis=1)
        self.send_counter = 1
        # The send store of a delaying channel, depth max_staleness+1: payloads
        # by send round and sender, and per edge the round each lands. A slot is
        # rewritten only after all its packets arrived; undelayed, it is empty.
        depth = self.channel.max_staleness + 1 if self.channel.max_staleness else 0
        self.store = np.zeros((depth, self.n, d))
        self.arrival = np.zeros((depth, self.n_edges), dtype=np.int64)
        self._sum = None
        # per lane: the largest cache gap, or a lower bound exact below tau_inner, and its cell and node
        self._lane_gap, self._witness = np.full(self.lanes, -np.inf), None
        self._block = [None, None, None]
        self.quiet, self.idle, self._stack, self.block = False, None, None, None

    def retire(self, done: np.ndarray) -> None:
        """Remove the lanes flagged in ``done`` from the union."""
        keep = ~done
        nodes, edges = np.repeat(keep, self.size), np.repeat(keep, len(self.edges))
        for name in ("z", "messages", "variation", "delta"):
            setattr(self, name, getattr(self, name)[nodes])
        self._marks = np.concatenate((self.anchor[nodes], self.ref[nodes], self._marks[-1:]))
        d = self.ce.shape[1]
        self.ce = self.ce.reshape(self.slots, self.lanes, self.size * d)[:, keep].reshape(-1, d)
        self.ce_time, self.arrival, self.store = self.ce_time[edges], self.arrival[:, edges], self.store[:, nodes]
        self.clip_active, self._lane_gap = self.clip_active[keep], self._lane_gap[keep]
        self._witness = self._sum = self._stack = None
        self.rngs = [r for r, k in zip(self.rngs, keep) if k]
        self._block = [None if b is None else b[:, keep] for b in self._block]
        self._layout(len(self.rngs))
        self._views()

    # -- one round ---------------------------------------------------------

    def _draws(self, now: int) -> list:
        """This round's active mask, kept (not dropped) links and delays
        over the union of a round that is not deterministic; None where it
        draws nothing (a synchronous one activates all). Each lane's streams
        are read _BLOCK rounds at a time, as one-round draws would, into
        round-major (_BLOCK, lanes, ...) blocks, so a round's draws are a view."""
        if (now - 1) % _BLOCK == 0:
            rngs, e, ch, depth = self.rngs, len(self.edges), self.channel, len(self.store)
            self._block = [None, None, None]  # the spent block goes before the next is drawn
            act = kept = delays = None  # filled lane by lane, without a list of per-lane copies
            if self.activation.mode != "synchronous":
                act = np.stack([netsim.draw_active(a, self.activation, self.topology, _BLOCK) for a, _, _ in rngs],
                               axis=1)
            if ch.drop_prob > 0:
                kept = np.empty((_BLOCK, self.lanes, e), dtype=bool)
                for lane, (_, d, _) in zip(kept.swapaxes(0, 1), rngs):
                    np.greater_equal(d.random((_BLOCK, e)), ch.drop_prob, out=lane)
            if depth:
                delays = np.empty((_BLOCK, self.lanes, e), dtype=np.int32)
                for lane, (*_, t) in zip(delays.swapaxes(0, 1), rngs):
                    lane[:] = t.integers(0, depth, (_BLOCK, e))
            self._block = [act, kept, delays]
        return [None if b is None else b[(now - 1) % _BLOCK].ravel() for b in self._block]

    def step_round(self) -> None:
        """One round of every lane; rounds are numbered 1, 2, ... after the
        bootstrap, and a packet's send time is the round it left in."""
        cm, now, depth = self.comms, self.send_counter, len(self.store)
        self.send_counter += 1
        active, kept, delays = (None, None, None) if self.deterministic else self._draws(now)

        # trigger evaluation on activated nodes (the arrays themselves when
        # synchronous): |z - anchor| for the variation and |z - ref| for the
        # trigger in one pass
        if active is None:
            z_act, marks, delta, diff = self.z, self.marks, self.delta, self._diff
        else:
            # the active rows of z and marks, gathered into the scratch buffer
            rows = active.nonzero()[0]
            k, d = len(rows), self.z.shape[1]
            marks = diff = self.marks.take(rows, 1, self._scratch[: 2 * k * d].reshape(2, k, d), "clip")
            z_act = self.z.take(rows, 0, self._scratch[2 * k * d : 3 * k * d].reshape(k, d), "clip")
            delta = self.delta[rows]
        np.subtract(z_act, marks, out=diff)
        step, gap = _rowmax(np.abs(diff, out=diff))
        hot = (gap > delta).nonzero()[0]  # of the active rows
        if active is None:
            self.variation += step
            self.anchor[...] = z_act
            fired = hot
        else:
            self.variation[rows] += step
            self.anchor[rows] = z_act
            fired = rows.take(hot)
        # the clip range is in use when an active node's z leaves it, fired
        # or not; entries inside [s_min, s_max] are their own clip (NaN is
        # never outside)
        clipped = False
        if z_act.size and (np.fmin.reduce(z_act, None) < cm.s_min or np.fmax.reduce(z_act, None) > cm.s_max):
            outside = np.logical_or.reduce((z_act < cm.s_min) | (z_act > cm.s_max), axis=1)
            self.clip_active[(outside.nonzero()[0] if active is None else rows[outside]) // self.size] = True
            clipped = np.logical_or.reduce(outside.take(hot))
        raw = z_act if len(hot) == len(z_act) else z_act.take(hot, 0)  # read only: clip and quantize copy
        del z_act, marks, diff, step, gap  # z_act is in the scratch buffer on random activation
        if clipped:
            raw = protocol.clip_log(raw, cm.s_min, cm.s_max)
        payload = protocol.quantize(raw, cm)
        del raw
        # only a payload that differs from the last one sent goes out (an
        # unclipped, unquantized one is z, more than delta away from ref);
        # while every node sends, whole arrays are written
        everyone = len(fired) == self.n
        if clipped or cm.bits is not None:
            new = np.logical_or.reduce(payload != (self.ref if everyone else self.ref.take(fired, 0)), axis=1)
            if not np.logical_and.reduce(new):
                new = new.nonzero()[0]
                fired, payload, everyone = fired.take(new), payload.take(new, 0), False
        if everyone:
            self.marks[...] = payload
            self.messages += 1
        else:
            self.marks[:, fired] = payload
            self.messages[fired] += 1

        # each fired node's packet leaves on its kept out-edges; where packets
        # can be delayed it enters the store, and every edge then takes the
        # freshest packet due now, delay 0 included; only that test reads
        # ``ce_time``, so an undelayed channel leaves it at 0
        if everyone and kept is None and not depth:
            # every node sent and every edge is lossless and undelayed
            self._refill()
            self._sum = None
        elif len(fired) or depth:
            if len(fired):
                sent = np.zeros(self.n, dtype=bool)
                sent[fired] = True
                sent = sent.take(self.snd) if kept is None else sent.take(self.snd) & kept
            if not depth:  # undelayed: every kept packet lands now, and ref holds its payload
                upd = sent.nonzero()[0]
                landed = self.ref.take(self.snd[upd], 0)
            else:
                if len(fired):
                    self.store[now % depth, fired] = payload
                    sent = sent.nonzero()[0]
                    self.arrival[now % depth, sent] = delays.take(sent) + now
                sent_at = now - (now - np.arange(depth)) % depth
                due = np.maximum.reduce((self.arrival == now) * sent_at[:, None], axis=0)
                upd = (due > self.ce_time).nonzero()[0]
                due = due[upd]
                landed = self.store.reshape(-1, self.z.shape[1]).take(due % depth * self.n + self.snd[upd], 0)
                self.ce_time[upd] = due
            if len(upd):
                self.ce[self.cell[upd]] = landed
                self._sum = None
        self._gossip(active)
        self.idle, self.quiet = None, self.deterministic and not len(fired)

    def step_block(self, rounds: int) -> int:
        """Up to ``rounds`` deterministic rounds of every lane as one block
        of rounds that send nothing and stop no lane; returns how many it
        took, 0 when it cannot certify the next round. ``block`` then holds
        z after each of them.

        With nothing sent the caches and their sum stay frozen, so each
        coordinate follows fl(fl(a*x) + b) with a > 0, a non-decreasing
        map: its orbit is monotone. The trigger gap |fl(z - ref)| and the
        cache gap |fl(z - c)| are quasi-convex in each coordinate and the
        payload quantize(clip(z)) is monotone, so a send, or a clip-range
        exit, anywhere in a block shows at one of the two states its
        rounds evaluate first and last. A gap-test stop is ruled out when
        a coordinate of the lane's witness edge stays at least tau_inner
        on one side of its cache at both ends. Each check holds for a
        block when it holds for a longer one. A block ends with the first
        round that leaves some lane's z bit-for-bit unchanged, and ``idle``
        flags those lanes: every later round would repeat that one (anchor
        aside, which adds |z - anchor| = 0 to the variation).
        """
        cm = self.comms
        if not (rounds > 0 and self.deterministic and self._sum is not None and self._witness is not None):
            return 0
        within, repeats = self._silent(self.z)  # round 1 evaluates the current z
        if not (within | repeats).all():
            return 0
        if self._stack is None or self._stack.shape[2:] != self.z.shape:
            # stack[0] is the anchor, stack[k + 1] the z that round k leaves;
            # the second half takes the rounds' z moves
            self._stack = np.empty((2, max(3, _STACK_BYTES // self.z.nbytes // 2), *self.z.shape))
        (stack, moves), rounds = self._stack, min(rounds, self._stack.shape[1] - 2)
        stack[0], stack[1] = self.anchor, self.z
        for k in range(1, rounds + 1):
            np.multiply(stack[k], self.w_sync_diag, out=stack[k + 1])
            stack[k + 1] += self._sum
        bits, full, moved = stack.view(np.int64), rounds, None
        if (bits[rounds + 1] == bits[rounds]).reshape(self.lanes, -1).all(axis=1).any():
            moved = (bits[2 : rounds + 2] != bits[1 : rounds + 1]).reshape(rounds, self.lanes, -1).any(axis=2)
            rounds = int(np.argmin(moved.all(axis=1))) + 1
        cells, nodes = self._witness
        caches, tau = self.ce.take(cells, 0), cm.tau_inner
        first = stack[2].take(nodes, 0) - caches  # the witness gaps after round 1

        def certified(b):
            last_within, last_repeats = self._silent(stack[b])
            if not ((within & last_within) | (repeats & last_repeats)).all():
                return False
            last = stack[b + 1].take(nodes, 0) - caches
            apart = (np.minimum(first, last) >= tau) | (np.maximum(first, last) <= -tau)
            return bool(apart.any(axis=1).all())

        taken = rounds
        if rounds and not certified(rounds):
            taken, fails = 0, rounds  # the longest certified block, by bisection
            while fails - taken > 1:
                mid = (taken + fails) // 2
                taken, fails = (mid, fails) if certified(mid) else (taken, mid)
        self.quiet = taken == full  # the next round may start another block
        if not taken:
            return 0
        steps, moves = np.empty((taken + 1, self.n)), moves[:taken]
        steps[0] = self.variation
        np.subtract(stack[1 : taken + 1], stack[:taken], out=moves)
        _rowmax(np.abs(moves, out=moves), out=steps[1:].reshape(-1))
        self.variation = np.add.accumulate(steps, axis=0)[-1]  # round by round
        ends = stack[[1, taken]]  # the states the block's first and last rounds evaluate
        if np.fmin.reduce(ends, None) < cm.s_min or np.fmax.reduce(ends, None) > cm.s_max:
            outside = ((ends < cm.s_min) | (ends > cm.s_max)).any(axis=(0, 2))
            self.clip_active[outside.nonzero()[0] // self.size] = True
        self.anchor[...], self.z = stack[taken], stack[taken + 1].copy()
        self._lane_gap = _rowmax(np.abs(self.z.take(nodes, 0) - caches))
        self.send_counter += taken
        self.idle, self.block = None if moved is None else ~moved[taken - 1], stack[2 : taken + 2]
        return taken

    def _silent(self, z: np.ndarray) -> tuple:
        """Per node, for a state a round evaluates: whether z is within
        delta of ref, so the trigger does not fire, and whether its payload
        is ref, so a fired trigger sends nothing; False for NaN."""
        cm = self.comms
        within = _rowmax(np.abs(z - self.ref)) <= self.delta
        payload = protocol.quantize(protocol.clip_log(z, cm.s_min, cm.s_max), cm)
        return within, (payload == self.ref).all(axis=1)

    def _refill(self) -> None:
        """Every cache row from its sender's ref, and every pad from the zero row."""
        np.take(self._src, self.cell_src, 0, out=self.ce, mode="clip")

    def _gossip(self, active: np.ndarray | None) -> None:
        if not self.n_edges:
            return
        ce, buf = self._ce3, self._prod
        total = self._sum  # kept while the weights are fixed and no cache row changed
        if active is None:
            if total is None:
                np.multiply(self.w_sync, ce, out=buf)
                # in-edges are added as (k1 + k2 + ...) + k0, numpy's order for
                # add.reduce over at most 8 rows (zero pads change nothing)
                total, *rest = self._terms
                for term in rest:
                    np.add(total, term, out=total)
                self._sum = total = total.copy()
            z = self.z * self.w_sync_diag
            z += total
            self.z = z
        else:
            # only receivers with an active in-edge move: every other row has
            # self weight 1 and cache weight 0, so it keeps its z
            both = (active[self.rcv] & active[self.snd]).nonzero()[0]
            rcv = self.rcv[both]
            deg_a = np.bincount(rcv, minlength=self.n)
            w_e = 1.0 / (1.0 + np.maximum(deg_a[rcv], deg_a[self.snd[both]]))
            rows = deg_a.nonzero()[0]
            diag = 1.0 - np.bincount(rcv, weights=w_e, minlength=self.n)[rows]
            w = np.zeros(self.slots * self.n)
            w[self.cell[both]] = w_e
            k, d = len(rows), ce.shape[2]
            prod = ce.take(rows, 1, self._scratch[: self.slots * k * d].reshape(self.slots, k, d), "clip")
            np.multiply(w.reshape(self.slots, self.n, 1).take(rows, 1), prod, out=prod)
            total, *rest = (prod[s] for s in self._order)
            for term in rest:
                np.add(total, term, out=total)
            z = self.z.take(rows, 0, self._scratch[self.slots * k * d : (self.slots + 1) * k * d].reshape(k, d), "clip")
            z *= diag[:, None]
            z += total
            self.z[rows] = z
        if self._witness is not None:
            cells, nodes = self._witness
            gap = _rowmax(np.abs(self.z.take(nodes, 0) - self.ce.take(cells, 0)))
            if np.minimum.reduce(gap) >= self.comms.tau_inner:  # no lane can stop: skip the scan
                self._lane_gap = gap
                return
        gaps = _rowmax(np.abs(np.subtract(ce, self.z, out=buf), out=buf)).ravel()
        gaps[self.pad] = -np.inf
        per_lane = gaps.reshape(self.slots, self.lanes, self.size).transpose(1, 0, 2).reshape(self.lanes, -1)
        best = per_lane.argmax(axis=1)
        self._lane_gap = per_lane[np.arange(self.lanes), best]
        slot, node = np.divmod(best, self.size)
        node += np.arange(self.lanes) * self.size
        self._witness = slot * self.n + node, node

    def all_inner_converged(self) -> np.ndarray:
        """Per lane: True when every node's cached neighbor payloads sit
        within tau_inner (sup norm, strict) of its own z. The round's gap
        is exact only when a lane may stop; otherwise it may be a lower
        bound read from one witness edge, still at least tau_inner."""
        return self._lane_gap < self.comms.tau_inner


def _deterministic(channel, activation) -> bool:
    """Synchronous, lossless and undelayed: no round draws, so the seed drives nothing."""
    return activation.mode == "synchronous" and channel.drop_prob == 0 and channel.max_staleness == 0


def simulate_lanes(instance: otcore.ProblemInstance, topology, lanes, channel=None, activation=None,
                   collect_residuals=True, collect_round_log_v: bool = False, *, oracle=None) -> list:
    """Run the full decentralized barycenter loop for every ``(comms,
    seed)`` lane as one batch; returns one RunRecord per lane, in order.
    Each record's errors are measured against ``oracle``, a reference mass
    vector such as ``experiments.centralized_oracle`` returns (NaN, and
    ``l1_error_per_node`` None, without one), and its bias bound is its
    request's comms' steady-state bound, computed once per distinct comms.

    Per outer iteration: local scaling at each node (u from exp(z), then s =
    log(K^T u)), reseed z = s, inner gossip rounds, then the shared
    projection b_i = softmax(z_i). The inner rounds end at the inner cap, on
    the gap test (``NetworkEngine.all_inner_converged``) or at a fixed
    point, the last round of a block that leaves z unchanged, which counts
    as every round left up to the cap: ``inner_steps_used`` is the cap, and
    the round repeats in the round log and the residual trace. Between outer
    iterations, and once before the first, each lane takes one stop
    decision: it finishes when every node's log-v change is below tau_outer
    or at the outer cap, and otherwise opens the next outer iteration with
    its local scaling. A lane whose exp(z) overflows there
    (``ClipRangeError``) or whose scaling vector annihilates the kernel
    (``DegenerateStateError``) gets that error in place of its record; the
    other lanes run on unchanged. Each lane leaves the batch when it
    finishes; its wall_clock_seconds is its share of the batch's time, by
    rounds. Its link messages are its broadcasts times the topology's
    degrees, and its bytes those messages times the packet's wire size.

    Every ``per_outer`` entry holds ``consensus_residual_last``, the
    residual after the outer iteration's last round. The per-round
    residuals, ``consensus_residual_trace``, are kept for the traced
    requests: all with ``collect_residuals=True``, none with False, or
    those whose indices it lists; the others get an empty trace. Residuals
    are computed only for traced lanes: single rounds hold their z in a
    stack of at most ``_TRACE_BYTES`` that one call covers when a lane ends
    its outer iteration or the stack is full (the values of one call per
    round, bit for bit). A round visits only the lanes that are traced or
    end their outer iteration in it.

    Requests run by the lane they key to: their comms, with an inert
    quantized delta (``CommsConfig.inert_delta``) replaced by 0, which
    sends exactly the same packets, and their seed unless the channel is
    deterministic. Requests with one key run once, traced if any of them
    is; the first takes that run's result and every later one a deep copy
    (of an error: one of the same type and message), each record with its
    own request's seed, bias bound and errors.
    """
    if topology.num_nodes != instance.num_agents:
        raise ValueError("topology size must match the number of agents")
    channel, activation = channel or netsim.ChannelModel(), activation or netsim.ActivationModel()
    oracle = None if oracle is None else np.asarray(oracle)
    seeded = not _deterministic(channel, activation)  # else no lane's key holds its seed
    keys = [(replace(c, delta=0.0) if c.inert_delta else c, seed if seeded else None) for c, seed in lanes]
    slot = {}
    index = [slot.setdefault(key, len(slot)) for key in keys]  # each request's distinct lane
    first = [index.index(j) for j in range(len(slot))]  # each distinct lane's first request
    runs = [keys[i] for i in first]  # the distinct lanes, in engine order
    if isinstance(collect_residuals, bool):
        chosen = range(len(runs)) if collect_residuals else ()
    else:
        chosen = {index[i] for i in collect_residuals}  # the lanes the chosen requests run
    kernel, mu = instance.kernel(), instance.histogram_matrix()
    eng = NetworkEngine(topology, runs, channel, activation)
    cm, (n, d) = eng.comms, mu.shape
    cap = cm.inner_step_cap
    degrees, wire = topology.degrees(), protocol.packet_wire_size(d, cm.bits)
    t0 = time.perf_counter()
    eng.bootstrap(np.zeros((len(runs) * n, d)))
    results, start = [None] * len(runs), np.zeros((n, d))
    live = [SimpleNamespace(index=i, pos=i, traced=i in chosen, prev_log_v=start, outer=0,
                            per_outer=[], round_log_v=[]) for i in range(len(runs))]  # in engine order
    # the batch's round, per live lane the round its inner iteration opened
    # in, and the next round a cap falls in
    now, opened, cap_at = 0, np.zeros(len(runs), dtype=np.int64), cap

    def decide(lane, change: float) -> bool:
        """The lane's stop decision after an outer iteration whose log-v
        changed by ``change``; True when the lane ends here. A lane that
        goes on opens its next outer iteration in round ``now``."""
        rows = slice(lane.pos * n, (lane.pos + 1) * n)
        z = eng.z[rows]
        opened[lane.pos] = now  # its next inner steps, if any, are the rounds after this one
        if change < cm.tau_outer or lane.outer == cm.outer_iter_cap:
            broadcasts = eng.messages[rows].copy()
            links = broadcasts * degrees
            record = results[lane.index] = RunRecord(
                None, otcore._softmax(z), lane.prev_log_v, change < cm.tau_outer, lane.outer,
                sum(p["inner_steps_used"] for p in lane.per_outer), broadcasts, eng.variation[rows].copy(),
                links, int(links.sum()), int(links.sum()) * wire, bool(eng.clip_active[lane.pos]),
                lane.per_outer, 0.0, lane.round_log_v,
            )
            if oracle is not None:
                errors = record.l1_error_per_node = np.abs(record.barycenters - oracle).sum(axis=1)
                record.l1_error_max, record.l1_error_mean = float(errors.max()), float(errors.mean())
            return True
        lane.outer, lane.residuals = lane.outer + 1, []
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

    def trace(zs):
        """Append to each traced lane its residuals after the rounds of
        ``zs``, stacked (rounds, traced lanes, n, d)."""
        for lane, values in zip(traced, netsim.consensus_residual(zs).T.tolist()):
            lane.residuals += values

    def flush():
        """Trace the held rounds."""
        nonlocal held
        if held:
            trace(hold[:held])
            held = 0

    done, traced = [lane.pos for lane in live if decide(lane, np.inf)], None
    while True:
        if done:
            gone = np.isin(np.arange(len(live)), done)
            eng.retire(gone)
            opened = opened[~gone]
            live = [lane for lane in live if lane.pos not in done]
            for pos, lane in enumerate(live):
                lane.pos = pos
        if done or traced is None:
            traced = [lane for lane in live if lane.traced]
            # a gather of the traced lanes' z, unless every live lane is traced
            traced_at = slice(None) if len(traced) == len(live) else [lane.pos for lane in traced]
            # single rounds' traced z, held until a lane ends its outer
            # iteration or the stack is full
            room = max(1, _TRACE_BYTES // (8 * max(len(traced), 1) * n * d))
            held, hold = 0, np.empty((room, len(traced), n, d))
        if not live:
            break
        # after a quiet step, a block of quiet rounds up to the nearest
        # inner cap, or else one round; zs holds z after each round taken
        taken = eng.step_block(cap_at - now) if eng.quiet else 0
        if taken:
            zs = eng.block.reshape(taken, eng.lanes, n, d)
        else:
            eng.step_round()
            taken, zs = 1, eng.z.reshape(1, eng.lanes, n, d)
        now += taken
        if traced and taken > 1:  # a block is a stack already
            flush()  # the held rounds come first
            trace(zs[:, traced_at])
        elif traced:
            hold[held] = zs[0, traced_at]
            held += 1
            if held == room:
                flush()
        # the lanes whose outer iteration ends this round (at the cap, on the gap
        # test, or idle after a block), and each one's idle rounds left up to the cap
        stop = eng.all_inner_converged()
        ends = stop if eng.idle is None else stop | eng.idle
        if now == cap_at:
            ends = ends | (opened == now - cap)
        ending = ends.nonzero()[0].tolist()
        left = np.where(ends & ~stop, cap - now + opened, 0).tolist() if ending else [0] * eng.lanes
        if collect_round_log_v:
            for lane in live:
                lane.round_log_v += [z[lane.pos].copy() for z in zs[:-1]]
                lane.round_log_v += [zs[-1, lane.pos].copy()] * (1 + left[lane.pos])
        done = []
        if not ending:
            continue
        flush()
        untraced = [pos for pos in ending if not live[pos].traced]
        if untraced:  # a traced lane's last residual is its trace's last value
            last = dict(zip(untraced, netsim.consensus_residual(zs[-1, untraced]).tolist()))
        for pos in ending:
            lane = live[pos]
            if lane.traced:  # an idle round repeats in the trace up to the cap
                lane.residuals += lane.residuals[-1:] * left[pos]
            z = eng.z[pos * n : (pos + 1) * n]
            # Remove each node's common log-v offset (a purely local step).
            # The raw shared update flips the offset's sign around its
            # equilibrium every outer iteration while softmax ignores it, so
            # successive iterates are compared mean-zero; without this the
            # outer stopping rule could never fire.
            z -= z.mean(axis=1, keepdims=True)
            change = float(np.abs(z - lane.prev_log_v).max())
            lane.per_outer.append({
                "outer_iter": lane.outer, "inner_steps_used": int(now - opened[pos]) + left[pos],
                "log_v_change_linf": change,
                "consensus_residual_last": lane.residuals[-1] if lane.traced else last[pos],
                "consensus_residual_trace": lane.residuals,
            })
            lane.prev_log_v = z.copy()
            if decide(lane, change):
                done.append(pos)
        cap_at = int(opened.min()) + cap  # an ended lane's entry is now, not below any live one
        del z  # a view that would keep this round's z alive through later rounds
    wall = time.perf_counter() - t0
    # a lane's first request takes the run's result, every later one a copy
    results = [results[j] if first[j] == i else copy.deepcopy(results[j]) for i, j in enumerate(index)]
    records = [(r, *lane) for r, lane in zip(results, lanes) if isinstance(r, RunRecord)]
    rounds, bias = sum(r.rounds_total for r, *_ in records), {}
    for r, comms, seed in records:  # each record carries its own request's seed and comms' bias bound
        if comms not in bias:
            bias[comms] = otcore.theory_constants(instance, comms).steady_state_bias_bound
        r.seed, r.wall_clock_seconds, r.bias_bound = seed, wall * r.rounds_total / rounds, bias[comms]
    return results


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
