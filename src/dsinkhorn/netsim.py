"""Network simulation: topologies, Metropolis weights, activation models,
and lossy/stale channels.

Everything one gossip round needs besides the protocol itself: the graph,
its averaging weights and spectral data, the per-round active-node draw,
and the seeded activation/drop/delay streams. The round that ties these
together is :class:`dsinkhorn.engine.NetworkEngine`.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Topology",
    "GossipWeights",
    "ChannelModel",
    "ActivationModel",
    "TopologyError",
    "build_topology",
    "metropolis_weights",
    "spectral_gap",
    "consensus_residual",
]


class TopologyError(ValueError):
    """Raised for malformed or disconnected communication graphs."""


@dataclass(frozen=True)
class Topology:
    """Connected undirected graph; edges are sorted (i, k) pairs with i < k."""

    num_nodes: int
    edges: tuple
    kind: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.num_nodes
        if n < 1:
            raise TopologyError("need at least one node")
        seen = set()
        for i, k in self.edges:
            if i == k:
                raise TopologyError("self-loops are not allowed")
            if not (0 <= i < n and 0 <= k < n):
                raise TopologyError("edge endpoint out of range")
            e = (min(i, k), max(i, k))
            if e in seen:
                raise TopologyError("duplicate edge")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(seen)))
        if not self._connected():
            raise TopologyError("graph is not connected")

    def _connected(self) -> bool:
        if self.num_nodes == 1:
            return True
        adj = self.neighbor_lists()
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for k in adj[i]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        return len(seen) == self.num_nodes

    def neighbor_lists(self) -> list:
        adj = [[] for _ in range(self.num_nodes)]
        for i, k in self.edges:
            adj[i].append(k)
            adj[k].append(i)
        return [sorted(a) for a in adj]

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.num_nodes, self.num_nodes), dtype=bool)
        for i, k in self.edges:
            a[i, k] = a[k, i] = True
        return a

    def degrees(self) -> np.ndarray:
        return self.adjacency().sum(axis=1).astype(np.int64)

    def directed_edges(self) -> np.ndarray:
        """All (receiver, sender) pairs, sorted by receiver then sender."""
        pairs = []
        for i, k in self.edges:
            pairs.append((i, k))
            pairs.append((k, i))
        return np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _number(name: str, value, *, minimum=None, strict_min=None) -> float:
    """``value`` as a finite float, or ValueError ``<name>: <rule>``; the
    field checks of the config dataclasses are built from it and ``_integer``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}: must be a number")
    val = float(value)
    if math.isnan(val):
        raise ValueError(f"{name}: must not be NaN")
    if math.isinf(val):
        raise ValueError(f"{name}: must be finite")
    if minimum is not None and val < minimum:
        raise ValueError(f"{name}: must be >= {minimum}")
    if strict_min is not None and val <= strict_min:
        raise ValueError(f"{name}: must be > {strict_min}")
    return val


def _integer(name: str, value, *, minimum=None) -> int:
    if not _is_int(value):
        raise ValueError(f"{name}: must be an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name}: must be >= {minimum}")
    return int(value)


def _int_param(key: str, value) -> int:
    if not _is_int(value):
        raise TopologyError(f"{key} must be an integer, got {value!r}")
    return int(value)


# The parameters each graph family reads: (required, optional)
_TOPOLOGY_PARAMS = {
    "grid2d": (("rows", "cols"), ()),
    "ring": (("n",), ()),
    "path": (("n",), ()),
    "complete": (("n",), ()),
    "random_geometric": (("n", "radius"), ("seed", "max_attempts")),
}


def build_topology(kind: str, **params) -> Topology:
    """Construct one of the supported graph families.

    kinds: grid2d(rows, cols), ring(n), path(n), complete(n),
    random_geometric(n, radius, seed). Random geometric graphs are resampled
    (fresh sub-seed each attempt) until connected; failure after
    ``max_attempts`` raises ``TopologyError``. A missing parameter, or one
    the family does not read, raises ``TopologyError`` naming it.
    """
    if not isinstance(kind, str) or kind not in _TOPOLOGY_PARAMS:
        raise TopologyError(f"unknown topology kind: {kind!r}")
    required, optional = _TOPOLOGY_PARAMS[kind]
    for key in required:
        if key not in params:
            raise TopologyError(f"{kind} needs {key}")
    unknown = sorted(set(params) - set(required) - set(optional))
    if unknown:
        raise TopologyError(f"{kind} does not take {unknown[0]}")
    if kind == "grid2d":
        rows, cols = _int_param("rows", params["rows"]), _int_param("cols", params["cols"])
        if rows < 1 or cols < 1:
            raise TopologyError("grid2d needs rows, cols >= 1")
        edges = []
        node = lambda r, c: r * cols + c
        for r in range(rows):
            for c in range(cols):
                if c + 1 < cols:
                    edges.append((node(r, c), node(r, c + 1)))
                if r + 1 < rows:
                    edges.append((node(r, c), node(r + 1, c)))
        return Topology(rows * cols, tuple(edges), kind=kind, params={"rows": rows, "cols": cols})
    if kind in ("ring", "path", "complete"):
        n = _int_param("n", params["n"])
        if n < 2 or (kind == "ring" and n < 3):
            raise TopologyError(f"{kind} needs enough nodes")
        if kind == "ring":
            edges = [(i, (i + 1) % n) for i in range(n)]
        elif kind == "path":
            edges = [(i, i + 1) for i in range(n - 1)]
        else:
            edges = [(i, k) for i in range(n) for k in range(i + 1, n)]
        return Topology(n, tuple(edges), kind=kind, params={"n": n})
    if kind == "random_geometric":
        n = _int_param("n", params["n"])
        if n < 1:
            raise TopologyError(f"n must be >= 1, got {n}")
        radius = params["radius"]
        if isinstance(radius, bool) or not isinstance(radius, numbers.Real) or not radius > 0:
            raise TopologyError(f"radius must be a number > 0, got {radius!r}")
        seed = _int_param("seed", params.get("seed", 0))
        max_attempts = _int_param("max_attempts", params.get("max_attempts", 50))
        if max_attempts < 1:
            raise TopologyError(f"max_attempts must be >= 1, got {max_attempts}")
        root = np.random.SeedSequence(seed)
        for child in root.spawn(max_attempts):
            rng = np.random.default_rng(child)
            pts = rng.random((n, 2))
            dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            edges = tuple(
                (i, k) for i in range(n) for k in range(i + 1, n) if dist[i, k] <= radius
            )
            try:
                return Topology(n, edges, kind=kind, params={"n": n, "radius": float(radius), "seed": seed})
            except TopologyError:
                continue
        raise TopologyError(
            f"random_geometric(n={n}, radius={radius}) stayed disconnected after {max_attempts} attempts"
        )


@dataclass(frozen=True)
class GossipWeights:
    """Symmetric doubly-stochastic averaging matrix with spectral data."""

    w: np.ndarray
    sigma2: float
    beta: float


def _metropolis_matrix(topology: Topology) -> np.ndarray:
    """Metropolis-Hastings weights: w_ik = 1/(1 + max(deg_i, deg_k)) on
    edges, diagonal takes the remainder. Symmetric and doubly stochastic by
    construction; O(N^2), without the spectral data."""
    n = topology.num_nodes
    deg = topology.degrees()
    w = np.zeros((n, n))
    for i, k in topology.edges:
        w[i, k] = w[k, i] = 1.0 / (1.0 + max(deg[i], deg[k]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def metropolis_weights(topology: Topology) -> GossipWeights:
    """The Metropolis-Hastings matrix (``_metropolis_matrix``) with its
    spectral gap (a full SVD) and smallest positive weight."""
    w = _metropolis_matrix(topology)
    sigma2, _ = spectral_gap(w)
    beta = float(w[w > 0].min()) if topology.num_nodes > 1 else 1.0
    return GossipWeights(w=w, sigma2=sigma2, beta=beta)


def spectral_gap(w: np.ndarray) -> tuple:
    """(sigma2, 1 - sigma2) where sigma2 is the second-largest singular value."""
    svals = np.linalg.svd(np.asarray(w, dtype=np.float64), compute_uv=False)
    sigma2 = float(svals[1]) if svals.size > 1 else 0.0
    return sigma2, 1.0 - sigma2


def consensus_residual(z_all: np.ndarray):
    """Frobenius-style disagreement: sqrt of the summed squared deviations of
    every coordinate from its per-coordinate network mean. A stack of
    networks, shape (L, N, d), gives one value per network."""
    z = np.atleast_2d(np.asarray(z_all, dtype=np.float64))
    # np.mean's own steps (a sum over nodes divided in place by their count),
    # without its Python wrapper: this runs once per traced round
    mean = np.add.reduce(z, axis=-2, keepdims=True)
    mean /= z.shape[-2]
    dev = (z - mean).reshape(*z.shape[:-2], 1, -1)
    residual = np.sqrt(dev @ dev.swapaxes(-1, -2))[..., 0, 0]  # one BLAS dot per network
    return float(residual) if z.ndim == 2 else residual


@dataclass(frozen=True)
class ChannelModel:
    """Per-directed-edge i.i.d. packet loss and bounded random delay.

    A packet is dropped with ``drop_prob``; otherwise it arrives after a
    uniform delay in {0, ..., max_staleness} rounds. Receivers keep the
    freshest payload per neighbor: a late packet older than the cached one
    is discarded.
    """

    drop_prob: float = 0.0
    max_staleness: int = 0

    def __post_init__(self):
        object.__setattr__(self, "drop_prob", _number("drop_prob", self.drop_prob, minimum=0.0))
        if self.drop_prob >= 1.0:
            raise ValueError("drop_prob: must be in [0, 1)")
        object.__setattr__(self, "max_staleness", _integer("max_staleness", self.max_staleness, minimum=0))


@dataclass(frozen=True)
class ActivationModel:
    """Which nodes participate each round.

    modes: "synchronous" (all nodes, every round), "randomized_pairwise"
    (one uniformly random edge; its endpoints average 1/2-1/2), and
    "randomized_subset" (each node active independently with ``p_active``;
    the active nodes run Metropolis weights of the induced subgraph).
    Inactive nodes keep their state (identity row).
    """

    mode: str = "synchronous"
    p_active: float = 1.0

    def __post_init__(self):
        if self.mode not in ("synchronous", "randomized_pairwise", "randomized_subset"):
            raise ValueError(f"mode: unknown activation mode {self.mode!r}")
        object.__setattr__(self, "p_active", _number("p_active", self.p_active, strict_min=0.0))
        if self.p_active > 1.0:
            raise ValueError("p_active: must be in (0, 1]")


def _rng_streams(seed: int):
    """Independent activation/drop/delay generators split from the run seed."""
    return tuple(np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3))


def draw_active(rng, activation: ActivationModel, topology: Topology, size=None) -> np.ndarray:
    """Sample the round's active-node mask (consumes the activation stream).
    An int ``size`` samples that many rounds at once, shape (size, n), from
    the same stream values as ``size`` one-round draws."""
    rounds, n = 1 if size is None else size, topology.num_nodes
    if activation.mode == "synchronous":
        mask = np.ones((rounds, n), dtype=bool)
    elif activation.mode == "randomized_pairwise":
        ends = np.array(topology.edges)[rng.integers(0, len(topology.edges), size=rounds)]
        mask = np.zeros((rounds, n), dtype=bool)
        mask[np.arange(rounds)[:, None], ends] = True
    else:
        mask = rng.random((rounds, n)) < activation.p_active
    return mask[0] if size is None else mask
