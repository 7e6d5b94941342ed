"""Core numerics for entropic optimal-transport barycenters.

Dense Gibbs kernels, iterative Bregman projection (IBP) steps for the
barycenter fixed point, log-domain messages, Hilbert projective metric,
and the contraction/tracking constants used by the verification suite.
Everything here is deterministic and side-effect free.
"""

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Histogram",
    "CostMatrix",
    "GibbsKernel",
    "ProblemInstance",
    "TheoryConstants",
    "BarycenterResult",
    "KernelUnderflowError",
    "DegenerateStateError",
    "grid_cost",
    "build_gibbs_kernel",
    "centralized_barycenter",
    "ibp_cycle",
    "log_message",
    "softmax_normalize",
    "hilbert_distance",
    "osc_log_kernel",
    "theory_constants",
]

_SIMPLEX_ATOL = 1e-12


class KernelUnderflowError(ValueError):
    """Raised when exp(-C/epsilon) underflows to zero entries."""


class DegenerateStateError(ValueError):
    """Raised when a scaling vector annihilates the kernel (K^T u has zeros);
    from ``log_message``, ``row`` is the first offending row of the batch."""


@dataclass(frozen=True)
class Histogram:
    """Probability vector on a finite support.

    Parameters
    ----------
    weights : ndarray, shape (d,)
        Nonnegative masses summing to 1 (within 1e-12). Zeros are allowed.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("histogram must be a nonempty 1-D array")
        if not np.all(np.isfinite(w)) or np.any(w < 0):
            raise ValueError("histogram entries must be finite and >= 0")
        if abs(float(w.sum()) - 1.0) > _SIMPLEX_ATOL:
            raise ValueError("histogram must sum to 1 within 1e-12")
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return self.weights.size


@dataclass(frozen=True)
class CostMatrix:
    """Symmetric-support ground cost; entries must be finite and >= 0."""

    entries: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.entries, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("cost matrix must be square")
        if not np.all(np.isfinite(c)) or np.any(c < 0):
            raise ValueError("cost entries must be finite and >= 0")
        object.__setattr__(self, "entries", c)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    @property
    def max_entry(self) -> float:
        return float(self.entries.max())


def grid_cost(d: int) -> CostMatrix:
    """Squared-distance cost on the regular grid {0, 1/(d-1), ..., 1}.

    C[j, k] = (j - k)^2 / (d - 1)^2, so the largest entry is exactly 1.
    """
    if d < 2:
        raise ValueError("grid cost needs at least two support points")
    idx = np.arange(d, dtype=np.float64)
    diff = (idx[:, None] - idx[None, :]) / (d - 1)
    return CostMatrix(diff**2)


@dataclass(frozen=True)
class GibbsKernel:
    """Dense kernel K = exp(-C/epsilon) with its log kept alongside."""

    entries: np.ndarray
    log_entries: np.ndarray
    epsilon: float

    @property
    def d(self) -> int:
        return self.entries.shape[0]


def build_gibbs_kernel(cost: CostMatrix, epsilon: float) -> GibbsKernel:
    """Form K = exp(-C/epsilon).

    Raises
    ------
    KernelUnderflowError
        If any entry underflows to exactly zero: the kernel must stay
        strictly positive for the scaling iterations and the Hilbert-metric
        contraction argument to apply. Increase epsilon or rescale the cost.
    """
    if not (epsilon > 0) or not math.isfinite(epsilon):
        raise ValueError("epsilon must be a positive finite real")
    log_k = -cost.entries / epsilon
    k = np.exp(log_k)
    if np.any(k <= 0.0):
        raise KernelUnderflowError(
            "exp(-C/epsilon) underflowed to zero; epsilon is too small "
            "for the cost scale"
        )
    return GibbsKernel(entries=k, log_entries=log_k, epsilon=float(epsilon))


@dataclass(frozen=True)
class ProblemInstance:
    """A barycenter problem: shared cost/kernel data plus one histogram per agent."""

    cost: CostMatrix
    epsilon: float
    ridge: float
    histograms: tuple

    def __post_init__(self):
        hists = tuple(
            h if isinstance(h, Histogram) else Histogram(np.asarray(h)) for h in self.histograms
        )
        if len(hists) == 0:
            raise ValueError("need at least one histogram")
        if len({h.d for h in hists}) != 1 or hists[0].d != self.cost.d:
            raise ValueError("all histograms must live on the cost support")
        if self.ridge < 0 or not math.isfinite(self.ridge):
            raise ValueError("ridge must be finite and >= 0")
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be > 0")
        object.__setattr__(self, "histograms", hists)

    @property
    def support_size(self) -> int:
        return self.cost.d

    @property
    def num_agents(self) -> int:
        return len(self.histograms)

    def histogram_matrix(self) -> np.ndarray:
        """Stack the agent histograms into an (N, d) array."""
        return np.stack([h.weights for h in self.histograms])

    def kernel(self) -> GibbsKernel:
        return build_gibbs_kernel(self.cost, self.epsilon)


def log_message(u: np.ndarray, kernel: GibbsKernel) -> np.ndarray:
    """s = log(K^T u) for one scaling vector, shape (d,), or one per row,
    shape (N, d), as the max-shifted product log((u/u_max) @ K) + log(u_max)
    with u_max the row maximum: each row's scale is absorbed into log(u_max)
    (Schmitzer 2019, arXiv:1610.06519), and one matrix product replaces a
    (N, d, d) log-sum-exp. Safe because K > 0 (``build_gibbs_kernel``
    rejects zero entries) and u >= 0: no term cancels, and the shifted row
    holds a 1, so each sum is at least one entry of K and cannot underflow.
    A row that is all zero (or not finite) raises ``DegenerateStateError``.
    """
    u = np.asarray(u, dtype=np.float64)
    u_max = u.max(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log((u / u_max) @ kernel.entries) + np.log(u_max)  # sum_k u_k K[k, j]
    finite = np.isfinite(s).all(axis=-1)
    if not np.all(finite):
        error = DegenerateStateError("K^T u has zero entries; scaling vector is degenerate")
        error.row = int(np.argmin(finite))
        raise error
    return s


def softmax_normalize(log_v: np.ndarray) -> Histogram:
    """Map a log-scale vector to the simplex: exp(log_v) / sum(exp(log_v))."""
    log_v = np.asarray(log_v, dtype=np.float64)
    if not np.all(np.isfinite(log_v)):
        raise ValueError("log_v must be finite")
    return Histogram(_softmax(log_v))


def _softmax(log_v: np.ndarray) -> np.ndarray:
    """exp(log_v) / sum(exp(log_v)) along the last axis, max-shifted."""
    shifted = np.exp(log_v - log_v.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def _local_scaling(mu: np.ndarray, kernel: GibbsKernel, ridge: float, v: np.ndarray):
    """Every agent's scaling step from v > 0: u = mu / (K v + ridge), then
    s = log(K^T u). ``v`` is one shared vector, shape (d,), or one per
    agent, shape (N, d); returns (u, s), both (N, d)."""
    u = mu / (v @ kernel.entries.T + ridge)  # (Kv)_j = sum_k K[j,k] v_k
    return u, log_message(u, kernel)


def _ibp_log_step(mu: np.ndarray, kernel: GibbsKernel, ridge: float, log_v: np.ndarray):
    """One IBP round in the log domain. Returns (u, log_v_next)."""
    u, s = _local_scaling(mu, kernel, ridge, np.exp(log_v))
    return u, s.mean(axis=0)


class BarycenterResult(NamedTuple):
    barycenter: Histogram
    iterations: int
    converged: bool
    log_v: np.ndarray
    trace: list


def centralized_barycenter(instance: ProblemInstance, tol: float = 1e-6, max_iter: int = 500) -> BarycenterResult:
    """Reference solver: iterate IBP rounds from v = 1 until the log-scale
    update falls below ``tol`` in sup norm, or ``max_iter`` rounds elapse.

    The iterate is kept mean-normalized: after each round the common
    offset of log v is removed. The raw update carries an exact scale
    symmetry (scaling v by c divides v_next by c), so the offset
    component of log v flips sign around its equilibrium every round and
    the raw sup-norm change never settles, while the barycenter --
    softmax of log v -- is offset-invariant. Comparing mean-zero
    iterates measures exactly the part that moves the output.

    The returned trace holds the sup-norm log-v change of every round.
    """
    kernel = instance.kernel()
    mu = instance.histogram_matrix()
    log_v = np.zeros(instance.support_size)
    trace = []
    converged = False
    iterations = 0
    for _ in range(max_iter):
        _, log_v_next = _ibp_log_step(mu, kernel, instance.ridge, log_v)
        log_v_next = log_v_next - log_v_next.mean()
        change = float(np.abs(log_v_next - log_v).max())
        trace.append(change)
        log_v = log_v_next
        iterations += 1
        if change < tol:
            converged = True
            break
    return BarycenterResult(
        barycenter=softmax_normalize(log_v),
        iterations=iterations,
        converged=converged,
        log_v=log_v,
        trace=trace,
    )


def ibp_cycle(instance: ProblemInstance, kernel: GibbsKernel, b: np.ndarray) -> np.ndarray:
    """One full barycenter cycle on the simplex.

    All u_i updates against a common positive vector b, the shared
    geometric-mean update, then normalization back to the simplex. This is
    the map whose Hilbert-metric contraction factor the verification suite
    samples.
    """
    b = np.asarray(b, dtype=np.float64)
    if np.any(b <= 0):
        raise ValueError("b must be strictly positive")
    _, log_v_next = _ibp_log_step(instance.histogram_matrix(), kernel, instance.ridge, np.log(b))
    return _softmax(log_v_next)


def hilbert_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Hilbert projective metric d_H(x, y) = log max_j(x_j/y_j) - log min_j(x_j/y_j)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError("shape mismatch")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("Hilbert metric needs strictly positive vectors")
    r = np.log(x) - np.log(y)
    return float(r.max() - r.min())


def osc_log_kernel(kernel: GibbsKernel) -> float:
    """Oscillation of log K: the largest log K[l, j] - log K[l, j'] over all
    rows l and column pairs (j, j').

    For a fixed row the maximum over column pairs is the row's spread, so
    this equals max_l (max_j log K[l,j] - min_j log K[l,j]).
    """
    log_k = kernel.log_entries
    return float((log_k.max(axis=1) - log_k.min(axis=1)).max())


@dataclass(frozen=True)
class TheoryConstants:
    """Contraction and tracking constants for a problem/comms pairing.

    ``rho`` is the square of theta = tanh(osc(log K)/4); ``rho_bound`` is the
    cost-level bound tanh^2(max|C| / (2 epsilon)). ``l_norm_bound`` is the
    2/v_min Lipschitz bound of the simplex normalization on [v_min, v_max]^d;
    the exact constant is never materialized, only this bound.
    """

    osc_log_k: float
    theta: float
    rho: float
    rho_bound: float
    l_exp: float
    v_min: float
    v_max: float
    l_norm_bound: float
    steady_state_bias_bound: float
    bias_bound_overflowed: bool = False


def theory_constants(instance: ProblemInstance, comms) -> TheoryConstants:
    """Assemble the constants behind the steady-state tracking bound.

    ``comms`` must expose s_min, s_max, delta, tau_inner and delta_q. The
    bias bound is l_exp * l_norm_bound * (tau_inner + delta + delta_q) /
    (1 - rho); if it overflows (or rho saturates to 1 in floating point) it
    is reported as +inf and a warning is emitted.
    """
    kernel = instance.kernel()
    osc = osc_log_kernel(kernel)
    theta = math.tanh(osc / 4.0)
    rho = theta * theta
    rho_bound = math.tanh(instance.cost.max_entry / (2.0 * instance.epsilon)) ** 2
    s_min, s_max = float(comms.s_min), float(comms.s_max)
    with np.errstate(over="ignore"):
        l_exp = float(np.exp(s_max))
        v_min = float(np.exp(s_min))
        v_max = float(np.exp(s_max))
        l_norm_bound = 2.0 / v_min if v_min > 0.0 else math.inf  # exp(s_min) underflows below -745
        perturbation = float(comms.tau_inner) + float(comms.delta) + float(comms.delta_q)
        denom = 1.0 - rho
        if denom <= 0.0:
            bias = math.inf
        else:
            bias = l_exp * l_norm_bound * perturbation / denom
    overflowed = not math.isfinite(bias)
    if overflowed:
        warnings.warn(
            "steady-state bias bound overflowed to +inf (clip range too wide "
            "or contraction factor saturated at 1)",
            RuntimeWarning,
            stacklevel=2,
        )
        bias = math.inf
    return TheoryConstants(
        osc_log_k=osc,
        theta=theta,
        rho=rho,
        rho_bound=rho_bound,
        l_exp=l_exp,
        v_min=v_min,
        v_max=v_max,
        l_norm_bound=l_norm_bound,
        steady_state_bias_bound=bias,
        bias_bound_overflowed=overflowed,
    )
