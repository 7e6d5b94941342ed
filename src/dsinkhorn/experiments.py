"""Experiment drivers: runs against the centralized oracle, sweep tables,
and the theory-verification suite.

Message accounting uses two counters with different units:

* ``broadcasts_per_agent`` — how many times each agent transmitted its
  state (the event trigger's budget applies to this counter);
* ``messages_per_agent`` — per-link transmissions, i.e. broadcasts times
  the agent's degree. Totals of this counter scale with the edge count,
  which is what the scaling tables report.

All CSV outputs carry a one-line header; each output directory gets a
JSON sidecar of the fully resolved configuration.
"""

import csv
import dataclasses
import json
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import stdtrit

from . import config as cfgmod
from . import engine, netsim, otcore, protocol

__all__ = [
    "ORACLE_TOL",
    "ORACLE_MAX_ITER",
    "RunMetrics",
    "SweepSpec",
    "centralized_oracle",
    "run_lanes",
    "run_decentralized",
    "trace_rows",
    "overlap_rows",
    "config_for_value",
    "downsample_reference",
    "run_sweep",
    "CheckResult",
    "VerificationReport",
    "verify_theory",
    "write_csv",
    "write_json",
]

# The reference solver always runs far past any decentralized setting it
# is judging.
ORACLE_TOL = 1e-12
ORACLE_MAX_ITER = 100_000


@dataclass
class RunMetrics:
    """Accuracy/bandwidth summary of one decentralized run; wall_clock_seconds
    is the run's share of its batch's engine time, in proportion to rounds."""

    seed: int
    converged: bool
    outer_iters: int
    rounds_total: int
    per_outer_iter: list
    l1_error_per_node: np.ndarray | None
    l1_error_max: float
    l1_error_mean: float
    broadcasts_per_agent: np.ndarray
    variation_per_agent: np.ndarray
    messages_per_agent: np.ndarray
    messages_total: int
    bytes_total: int
    wall_clock_seconds: float
    bias_bound: float
    clip_active: bool


def centralized_oracle(instance, kernel=None) -> np.ndarray:
    """Reference barycenter at oracle tolerance; returns the mass vector."""
    result = otcore.centralized_barycenter(
        instance, tol=ORACLE_TOL, max_iter=ORACLE_MAX_ITER, kernel=kernel
    )
    return result.barycenter.weights


def run_lanes(instance, topology, lanes, channel=None, activation=None, *, oracle=None,
              compute_error: bool = True, collect_residuals: bool = True) -> list:
    """Every ``(comms, seed)`` lane as one engine batch, plus its metrics.

    Returns one ``(RunMetrics, RunRecord)`` per lane, in order, or the
    ``ClipRangeError``/``DegenerateStateError`` that ended the lane.
    ``oracle`` may carry a precomputed reference mass vector to avoid
    recomputing it inside sweeps; with ``compute_error=False`` the error
    fields are NaN and no reference is solved at all.
    """
    records = engine.simulate_lanes(instance, topology, lanes, channel, activation, collect_residuals)
    if compute_error and oracle is None:
        oracle = centralized_oracle(instance)
    degrees = topology.degrees()
    results = []
    for (comms, seed), record in zip(lanes, records):
        if isinstance(record, Exception):
            results.append(record)
            continue
        if compute_error:
            errors = np.abs(record.barycenters - np.asarray(oracle)[None, :]).sum(axis=1)
            err_max, err_mean = float(errors.max()), float(errors.mean())
        else:
            errors, err_max, err_mean = None, math.nan, math.nan
        link_messages = record.messages_per_agent * degrees
        wire = protocol.packet_wire_size(instance.support_size, comms.bits)
        metrics = RunMetrics(
            seed=seed, converged=record.converged, outer_iters=record.outer_iters,
            rounds_total=record.rounds_total, per_outer_iter=record.per_outer,
            l1_error_per_node=errors, l1_error_max=err_max, l1_error_mean=err_mean,
            broadcasts_per_agent=record.messages_per_agent.copy(),
            variation_per_agent=record.variation_per_agent.copy(),
            messages_per_agent=link_messages, messages_total=int(link_messages.sum()),
            bytes_total=int(link_messages.sum()) * wire,
            wall_clock_seconds=record.wall_clock_seconds,
            bias_bound=otcore.theory_constants(instance, comms).steady_state_bias_bound,
            clip_active=record.clip_active,
        )
        results.append((metrics, record))
    return results


def run_decentralized(instance, topology, comms, channel=None, activation=None, seed: int = 0, *,
                      oracle=None, compute_error: bool = True, collect_residuals: bool = True):
    """One full decentralized run plus its metrics, ``(RunMetrics,
    RunRecord)``: the one-lane :func:`run_lanes`, raising the error that
    ended a failed run."""
    (result,) = run_lanes(instance, topology, [(comms, seed)], channel, activation, oracle=oracle,
                          compute_error=compute_error, collect_residuals=collect_residuals)
    if isinstance(result, Exception):
        raise result
    return result


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


def overlap_rows(oracle, barycenters) -> list:
    """Per-support-point oracle mass vs the node-output envelope."""
    oracle = np.asarray(oracle, dtype=np.float64)
    bary = np.asarray(barycenters, dtype=np.float64)
    x = np.linspace(0.0, 1.0, oracle.size)
    lo, hi = bary.min(axis=0), bary.max(axis=0)
    return [
        {
            "support_x": float(x[j]),
            "b_star": float(oracle[j]),
            "b_tilde_min": float(lo[j]),
            "b_tilde_max": float(hi[j]),
        }
        for j in range(oracle.size)
    ]


# Swept variable -> (config field it overrides, table file, label column,
# statistics). Each statistic becomes a <stat>_mean and a <stat>_ci column
# over the seeds, taken from the RunMetrics field in STATISTICS.
SWEEPS = {
    "N": ("network.params.n", "scaling.csv", "N", ("messages", "runtime")),
    "d": ("problem.d", "support.csv", "d", ("error",)),
    **{
        variable: (path, "sweep.csv", "value", ("error", "messages", "runtime"))
        for variable, path in (
            ("delta", "comms.delta"),
            ("bits", "comms.bits"),
            ("tau_inner", "comms.tau_inner"),
            ("epsilon", "problem.epsilon"),
            ("drop_prob", "channel.drop_prob"),
        )
    },
}
STATISTICS = {"error": "l1_error_max", "messages": "messages_total", "runtime": "wall_clock_seconds"}


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over a base config.

    ``variable`` is a key of :data:`SWEEPS`; values must be nonempty,
    numeric and ascending, and each must pass the checks its config field
    gets in a config file; d values must also divide the largest one. For
    ``bits``, ``None`` or ``"unquantized"`` (stored as ``None``) means
    float64 payloads and sorts first.
    """

    variable: str
    values: tuple
    base: cfgmod.RunConfig

    def __post_init__(self):
        if self.variable not in SWEEPS:
            raise cfgmod.ConfigError(f"sweep.variable: must be one of {', '.join(SWEEPS)}")
        if not self.values:
            raise cfgmod.ConfigError("sweep.values: must be nonempty")
        bits = self.variable == "bits"
        values = tuple(None if bits and v in (None, "unquantized") else v for v in self.values)
        for v in values:
            if not ((bits and v is None) or (isinstance(v, numbers.Real) and not isinstance(v, bool))):
                extra = " or 'unquantized'" if bits else ""
                raise cfgmod.ConfigError(f"sweep.values: {v!r} is not a number{extra}")
        keys = [(-1 if v is None else v) for v in values]
        if any(b < a for a, b in zip(keys, keys[1:])):
            raise cfgmod.ConfigError("sweep.values: must be sorted ascending")
        for v in values:
            try:
                config_for_value(self.base, self.variable, v)
            except cfgmod.ConfigError as exc:
                raise cfgmod.ConfigError(f"sweep.values: {v!r}: {exc}") from exc
        if self.variable == "d" and any(values[-1] % v for v in values):
            # every d is scored against the largest-d reference, binned down
            raise cfgmod.ConfigError(f"sweep.values: every d must divide the largest, {values[-1]}")
        object.__setattr__(self, "values", values)

    @property
    def seeds(self):
        return self.base.seeds


def config_for_value(base: cfgmod.RunConfig, variable: str, value) -> cfgmod.RunConfig:
    """Derive the config at one sweep point: the swept field is set in the
    base key-tree, which is then validated like a config file. On a grid2d
    network, N must be a perfect square and sets rows = cols = sqrt(N)."""
    if variable not in SWEEPS:
        raise cfgmod.ConfigError(f"sweep.variable: unsupported variable {variable!r}")
    tree = base.resolved_dict()
    *sections, key = SWEEPS[variable][0].split(".")
    node = tree
    for name in sections:
        node = node[name]
    node[key] = value
    if variable == "N" and base.network.topology_kind == "grid2d":
        side = math.isqrt(value) if isinstance(value, int) and value > 0 else 0
        if side * side != value:
            raise cfgmod.ConfigError(f"network.params: N={value!r} is not a perfect square for grid2d")
        tree["network"]["params"] = {"rows": side, "cols": side}
    return cfgmod.run_config_from_dict(tree)


def _mean_ci(samples) -> tuple:
    """Sample mean and 95% t half-width (0 for one sample, NaN for none)."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    half = float(stdtrit(arr.size - 1, 0.975) * arr.std(ddof=1) / math.sqrt(arr.size))
    return mean, half


def _sweep_point(task):
    """Run all seeds at one sweep value as one batch; returns (samples per
    statistic, failures). Errors are measured against ``oracle`` when one
    is given, else against one centralized solve at this value."""
    spec, value, oracle = task
    *_, statistics = SWEEPS[spec.variable]
    samples = {stat: [] for stat in statistics}
    try:
        cfg = config_for_value(spec.base, spec.variable, value)
        instance = cfgmod.build_instance(cfg)
        topology = cfgmod.build_topology_from_spec(cfg.network)
        if "error" in statistics and oracle is None:
            oracle = centralized_oracle(instance)
        lanes = [(cfg.comms, seed) for seed in spec.seeds]
        results = run_lanes(instance, topology, lanes, cfg.channel, cfg.activation, oracle=oracle,
                            compute_error="error" in statistics, collect_residuals=False)
    except Exception as exc:  # noqa: BLE001 - value-level failures become rows too
        return samples, [{"value": value, "seed": seed, "error": str(exc)} for seed in spec.seeds]
    failures = []
    for seed, result in zip(spec.seeds, results):
        if isinstance(result, Exception):  # failures become table rows
            failures.append({"value": value, "seed": seed, "error": str(result)})
            continue
        for stat in statistics:
            samples[stat].append(getattr(result[0], STATISTICS[stat]))
    return samples, failures


def downsample_reference(reference: np.ndarray, d: int) -> np.ndarray:
    """Aggregate a fine-grid mass vector onto a coarser grid by summing
    equal-width bins; requires the sizes to divide evenly."""
    ref = np.asarray(reference, dtype=np.float64)
    if ref.size % d != 0:
        raise ValueError(f"cannot downsample {ref.size} points onto {d} bins")
    return ref.reshape(d, ref.size // d).sum(axis=1)


def run_sweep(spec: SweepSpec, jobs: int = 1):
    """Run every seed at every swept value; returns ``(table_name,
    fieldnames, rows, failures)`` with one row per value.

    Scaling (N) tables solve no oracle. A support (d) sweep measures every
    value against one reference: the centralized barycenter at the largest
    d, downsampled by bin aggregation onto each coarser grid. Every other
    variable solves one oracle per value.
    """
    _, table, label, statistics = SWEEPS[spec.variable]
    oracles = [None] * len(spec.values)
    if spec.variable == "d":
        fine = centralized_oracle(
            cfgmod.build_instance(config_for_value(spec.base, "d", spec.values[-1]))
        )
        oracles = [downsample_reference(fine, v) for v in spec.values]
    tasks = [(spec, v, oracle) for v, oracle in zip(spec.values, oracles)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_point, tasks))
    else:
        results = [_sweep_point(t) for t in tasks]
    fieldnames = [label]
    for stat in statistics:
        fieldnames += [f"{stat}_mean", f"{stat}_ci"]
    fieldnames.append("n_failed")
    rows, failures = [], []
    for value, (samples, fails) in zip(spec.values, results):
        failures.extend(fails)
        row = {label: "unquantized" if value is None else value}
        for stat in statistics:
            row[f"{stat}_mean"], row[f"{stat}_ci"] = _mean_ci(samples[stat])
        row["n_failed"] = len(fails)
        rows.append(row)
    return table, fieldnames, rows, failures


# ---------------------------------------------------------------------------
# Theory verification
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)
    witness: dict | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed, "details": self.details}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationReport:
    checks: list
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failing(self) -> list:
        return [c.name for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
            "warnings": list(self.warnings),
        }


def _check_hilbert_contraction(instance, constants, rng, n_pairs) -> CheckResult:
    kernel = instance.kernel()
    d = instance.support_size
    worst = {"ratio": -math.inf}
    ratios = []
    for _ in range(n_pairs):
        b1 = np.maximum(rng.dirichlet(np.full(d, 2.0)), 1e-12)
        b2 = np.maximum(rng.dirichlet(np.full(d, 2.0)), 1e-12)
        b1, b2 = b1 / b1.sum(), b2 / b2.sum()
        d_in = otcore.hilbert_distance(b1, b2)
        if d_in < 1e-12:
            continue
        d_out = otcore.hilbert_distance(
            otcore.ibp_cycle(instance, kernel, b1), otcore.ibp_cycle(instance, kernel, b2)
        )
        ratio = d_out / d_in
        ratios.append(ratio)
        if ratio > worst["ratio"]:
            worst = {"ratio": ratio, "b": b1.tolist(), "b_prime": b2.tolist()}
    bound = constants.rho_bound + 1e-9
    passed = bool(ratios) and max(ratios) <= bound
    return CheckResult(
        name="hilbert_contraction",
        passed=passed,
        details={
            "pairs": len(ratios),
            "max_ratio": max(ratios) if ratios else math.nan,
            "rho_bound": constants.rho_bound,
        },
        witness=None if passed else worst,
    )


def _check_normalization_bridge(instance, rng, n_pairs) -> CheckResult:
    d = instance.support_size
    lo, hi = 0.5, 2.0
    factor = 2.0 / lo
    worst = None
    ok = True
    max_slack = -math.inf
    for _ in range(n_pairs):
        x = rng.uniform(lo, hi, size=d)
        y = rng.uniform(lo, hi, size=d)
        lhs = np.abs(x / x.sum() - y / y.sum()).sum()
        rhs = factor * np.abs(x - y).sum()
        max_slack = max(max_slack, lhs - rhs)
        if lhs > rhs + 1e-12:
            ok = False
            worst = {"x": x.tolist(), "y": y.tolist(), "lhs": float(lhs), "rhs": float(rhs)}
    return CheckResult(
        name="normalization_bridge",
        passed=ok,
        details={"pairs": n_pairs, "entry_range": [lo, hi], "max_lhs_minus_rhs": max_slack},
        witness=worst,
    )


def _check_consensus_decay(topology, comms, rng, steps) -> CheckResult:
    weights = netsim.metropolis_weights(topology)
    z0 = rng.uniform(-1.0, 1.0, size=(topology.num_nodes, 4))
    # The decay statement is about exact gossip: no trigger, no quantizer,
    # and a clip window wide enough that the initial values pass untouched.
    exact = replace(
        comms,
        delta=0.0,
        bits=None,
        s_min=min(comms.s_min, -30.0),
        s_max=max(comms.s_max, 30.0),
    )
    residuals, _ = engine.consensus_trace(topology, exact, z0, steps)
    r0 = residuals[0]
    envelope = weights.sigma2 ** np.arange(steps + 1) * r0 + 1e-9
    bad = np.nonzero(residuals > envelope)[0]
    passed = bad.size == 0
    return CheckResult(
        name="consensus_decay",
        passed=passed,
        details={
            "sigma2": weights.sigma2,
            "steps": steps,
            "max_violation": float((residuals - envelope).max()),
        },
        witness=None
        if passed
        else {"step": int(bad[0]), "residual": float(residuals[bad[0]]), "bound": float(envelope[bad[0]])},
    )


def _check_tracking_and_budget(instance, topology, comms, deltas, bits_grid, seed):
    """Runs the (delta, bits) grid once; feeds both the tracking check and
    the broadcast-budget check."""
    oracle = centralized_oracle(instance)
    runs = []
    for dv in deltas:
        for bv in bits_grid:
            variant = replace(comms, delta=dv, bits=bv)
            metrics, record = run_decentralized(
                instance,
                topology,
                variant,
                seed=seed,
                oracle=oracle,
                collect_residuals=False,
            )
            runs.append(
                {
                    "delta": dv,
                    "bits": bv,
                    "perturbation": variant.tau_inner + dv + variant.delta_q,
                    "metrics": metrics,
                }
            )
    excluded = []
    tracked = []
    worst = None
    track_ok = True
    for run in runs:
        m = run["metrics"]
        if not m.converged or m.clip_active:
            excluded.append(
                {"delta": run["delta"], "bits": run["bits"],
                 "converged": m.converged, "clip_active": m.clip_active}
            )
            continue
        tracked.append(run)
        if m.l1_error_max > m.bias_bound:
            track_ok = False
            worst = {"delta": run["delta"], "bits": run["bits"],
                     "error": m.l1_error_max, "bias_bound": m.bias_bound}
    xs = np.array([r["perturbation"] for r in runs])
    ys = np.array([r["metrics"].l1_error_max for r in runs])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(runs) >= 2 else math.nan
    slope_ok = slope >= -1e-12
    if tracked:
        passed = track_ok and slope_ok
    else:
        # Every run was excluded (diverged or clipped): nothing the bound
        # speaks about happened, so the check is vacuously satisfied. The
        # exclusions are surfaced through the report warnings.
        passed = True
    tracking = CheckResult(
        name="tracking_bound",
        passed=passed,
        details={
            "grid_runs": len(runs),
            "included": len(tracked),
            "excluded": excluded,
            "lsq_slope": slope,
        },
        witness=worst,
    )

    budget_ok = True
    budget_witness = None
    checked = 0
    for run in runs:
        dv = run["delta"]
        if not (dv > 0) or math.isinf(dv):
            continue
        m = run["metrics"]
        limit = 1 + np.ceil(m.variation_per_agent / dv)
        checked += 1
        if np.any(m.broadcasts_per_agent > limit):
            budget_ok = False
            i = int(np.argmax(m.broadcasts_per_agent - limit))
            budget_witness = {
                "delta": dv,
                "bits": run["bits"],
                "agent": i,
                "broadcasts": int(m.broadcasts_per_agent[i]),
                "budget": float(limit[i]),
            }
    budget = CheckResult(
        name="broadcast_budget",
        passed=budget_ok and checked > 0,
        details={"runs_checked": checked},
        witness=budget_witness,
    )
    return tracking, budget, excluded


def verify_theory(
    instance,
    comms,
    topology,
    *,
    n_pairs: int = 120,
    consensus_steps: int = 100,
    deltas=(1e-4, 1e-3, 1e-2),
    bits_grid=(8, 12, 16),
    seed: int = 0,
) -> VerificationReport:
    """Run the five analytic checks on a desk-scale instance.

    (a) empirical one-cycle contraction ratios in the Hilbert metric stay
    under the tanh^2 bound; (b) the normalization map is 2/v_min-Lipschitz
    from positive vectors to the simplex in l1; (c) synchronous exact
    gossip contracts at sigma2 per step; (d) converged, clip-inactive runs
    land inside the steady-state bias bound, and error grows with
    (tau + delta + delta_q); (e) per-agent broadcast counts respect the
    variation budget.
    """
    rng = np.random.default_rng(seed)
    constants = otcore.theory_constants(instance, comms)
    warnings_list = []
    if constants.rho_bound > 0.99:
        warnings_list.append(
            f"rho_bound={constants.rho_bound:.6f} is close to 1: contraction is "
            "slow and the bias bound is very loose at this epsilon"
        )
    checks = [
        _check_hilbert_contraction(instance, constants, rng, n_pairs),
        _check_normalization_bridge(instance, rng, n_pairs),
        _check_consensus_decay(topology, comms, rng, consensus_steps),
    ]
    tracking, budget, excluded = _check_tracking_and_budget(
        instance, topology, comms, deltas, bits_grid, seed
    )
    if excluded:
        warnings_list.append(
            f"{len(excluded)} tracking run(s) excluded (not converged or clipping active)"
        )
    checks.extend([tracking, budget])
    return VerificationReport(checks=checks, warnings=warnings_list)


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        obj = float(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _json_safe(dataclasses.asdict(obj))
    return obj


def write_csv(path: str, fieldnames, rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=False)
        fh.write("\n")
