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

import contextlib
import csv
import dataclasses
import json
import math
import multiprocessing
import numbers
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import cycle, islice, repeat

import numpy as np

from . import config as cfgmod
from . import engine, netsim, otcore

__all__ = [
    "ORACLE_TOL",
    "ORACLE_MAX_ITER",
    "SweepSpec",
    "centralized_oracle",
    "run_decentralized",
    "TRACE_FIELDS",
    "trace_lines",
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


def centralized_oracle(instance) -> np.ndarray:
    """Reference barycenter at oracle tolerance; returns the mass vector."""
    result = otcore.centralized_barycenter(instance, tol=ORACLE_TOL, max_iter=ORACLE_MAX_ITER)
    return result.barycenter.weights


def run_decentralized(instance, topology, comms, channel=None, activation=None, seed: int = 0, *,
                      oracle=None, collect_residuals: bool = True):
    """One full decentralized run, the one-lane ``engine.simulate_lanes``
    scored against ``oracle``, raising the error that ended a failed run.
    Returns the record twice, ``(record, record)``, because callers unpack
    two values: perfbench's reference replay reads the first."""
    (record,) = engine.simulate_lanes(instance, topology, [(comms, seed)], channel, activation,
                                      collect_residuals=collect_residuals, oracle=oracle)
    if isinstance(record, Exception):
        raise record
    return record, record


TRACE_FIELDS = ("variant", "round", "outer_iter", "inner_step", "residual")


def trace_lines(variant: str, record):
    """A record's per-round residuals as trace.csv rows (TRACE_FIELDS),
    rounds numbered across outer iterations, inner steps within each."""
    rnd = 0
    for rec in record.per_outer:
        trace = rec["consensus_residual_trace"]
        yield from zip(repeat(variant), range(rnd + 1, rnd + 1 + len(trace)), repeat(rec["outer_iter"]),
                       range(1, 1 + len(trace)), trace)
        rnd += len(trace)


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


# Swept variable -> (config section that owns the field, table file, label
# column, statistics); the field is the variable's namesake, but N sets the
# network's params. Each statistic becomes a <stat>_mean and a <stat>_ci
# column over the seeds, taken from the RunRecord field in STATISTICS.
# Runtime gets no _ci: the seeds of a point run as one batch whose time is
# shared out by rounds, so their runtimes carry no seed-to-seed spread.
SWEEPS = {
    "N": ("network", "scaling.csv", "N", ("messages", "runtime")),
    "d": ("problem", "support.csv", "d", ("error",)),
    **{variable: (section, "sweep.csv", "value", ("error", "messages", "runtime"))
       for variable, section in (("delta", "comms"), ("bits", "comms"), ("tau_inner", "comms"),
                                 ("epsilon", "problem"), ("drop_prob", "channel"))},
}
STATISTICS = {"error": "l1_error_max", "messages": "messages_total", "runtime": "wall_clock_seconds"}


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable over a base config.

    ``variable`` is a key of :data:`SWEEPS`; values must be nonempty,
    numeric and ascending, and each must pass the checks its config field
    gets in a config file; d values must also divide the largest one. For
    ``bits``, ``None`` or ``"unquantized"`` (stored as ``None``) means
    float64 payloads and sorts first. The spec keeps the ``RunConfig`` of
    each value, which the check builds, as ``configs`` (a plain attribute).
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
        configs = []
        for v in values:
            try:
                configs.append(config_for_value(self.base, self.variable, v))
            except cfgmod.ConfigError as exc:
                raise cfgmod.ConfigError(f"sweep.values: {v!r}: {exc}") from exc
        if self.variable == "d" and any(values[-1] % v for v in values):
            # every d is scored against the largest-d reference, binned down
            raise cfgmod.ConfigError(f"sweep.values: every d must divide the largest, {values[-1]}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "configs", tuple(configs))


def config_for_value(base: cfgmod.RunConfig, variable: str, value) -> cfgmod.RunConfig:
    """The config at one sweep point: ``dataclasses.replace`` on the section
    that owns the swept field, which checks the value as in a config file;
    the other sections are the base's own objects, graph included. On a
    grid2d network, N must be a perfect square and sets rows = cols = sqrt(N)."""
    if variable not in SWEEPS:
        raise cfgmod.ConfigError(f"sweep.variable: unsupported variable {variable!r}")
    section = SWEEPS[variable][0]
    part, name = getattr(base, section), "params" if variable == "N" else variable
    if variable == "N" and part.topology_kind == "grid2d":
        side = math.isqrt(value) if netsim._is_int(value) and value > 0 else 0
        if side * side != value:
            raise cfgmod.ConfigError(f"network.params: N={value!r} is not a perfect square for grid2d")
        value = {"rows": side, "cols": side}
    elif variable == "N":
        value = {**part.params, "n": value}
    kind = next(f.type for f in dataclasses.fields(part) if f.name == name)
    try:
        part = replace(part, **{name: cfgmod._unspell(f"{section}.{name}", kind, value)})
        return replace(base, **{section: part})
    except ValueError as exc:
        raise cfgmod.ConfigError(f"{section}.{exc}") from exc


def _mean_ci(samples) -> tuple:
    """Sample mean and 95% t half-width (0 for one sample, NaN for none)."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        return math.nan, math.nan
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, 0.0
    half = float(_t975(arr.size - 1) * arr.std(ddof=1) / math.sqrt(arr.size))
    return mean, half


def _t_two_sided(t: float, df: int) -> float:
    """P(|T| < t) for Student's t with integer df > 0, in closed form
    (Abramowitz & Stegun 26.7.3 for odd df, 26.7.4 for even df)."""
    theta = math.atan(t / math.sqrt(df))
    s, c2 = math.sin(theta), math.cos(theta) ** 2
    if df % 2 == 0:
        term = total = 1.0
        for j in range(1, df // 2):
            term *= c2 * (2 * j - 1) / (2 * j)
            total += term
        return s * total
    if df == 1:
        return 2.0 * theta / math.pi
    term = total = math.cos(theta)
    for j in range(1, (df - 1) // 2):
        term *= c2 * (2 * j) / (2 * j + 1)
        total += term
    return 2.0 / math.pi * (theta + s * total)


def _t975(df: int) -> float:
    """The 0.975 quantile of Student's t with integer df > 0: the t with
    P(|T| < t) = 0.95, bisected until the bracket is one float wide."""
    lo, hi = 0.0, 1.0
    while _t_two_sided(hi, df) < 0.95:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _t_two_sided(mid, df) < 0.95:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sweep_point(task):
    """Run all seeds of one sweep point's ``cfg`` as one batch; returns
    (samples per statistic, failures, recorded warnings). Errors are measured
    against ``oracle`` when one is given, else a centralized solve at this value."""
    variable, value, cfg, oracle = task
    *_, statistics = SWEEPS[variable]
    samples, failures = {stat: [] for stat in statistics}, []
    with warnings.catch_warnings(record=True) as caught:
        try:
            instance = cfgmod.build_instance(cfg)
            if "error" in statistics and oracle is None:  # epsilon: each value its own problem
                oracle = centralized_oracle(instance)
            lanes = [(cfg.comms, seed) for seed in cfg.seeds]
            results = engine.simulate_lanes(instance, cfg.network.topology, lanes, cfg.channel, cfg.activation,
                                            collect_residuals=False, oracle=oracle)
        except Exception as exc:  # noqa: BLE001 - value-level failures become rows too
            results = [exc] * len(cfg.seeds)
    for seed, result in zip(cfg.seeds, results):
        if isinstance(result, Exception):  # failures become table rows
            failures.append({"value": value, "seed": seed, "error": str(result)})
            continue
        for stat in statistics:
            samples[stat].append(getattr(result, STATISTICS[stat]))
    return samples, failures, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _place(cpus, queue):
    """Pool initializer: start this worker on the CPU ``queue`` hands it, then
    release it to ``cpus``; where a call fails the worker runs unplaced."""
    for mask in ({queue.get()}, cpus):
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, mask)


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

    A reference that several values share is solved once, here (a failed
    solve raises): a support (d) sweep scores every value against the
    centralized barycenter at the largest d, binned down onto each coarser
    grid, and a comms or channel sweep against the base's barycenter. N
    sweeps solve none, and an epsilon sweep one per value, in its task.
    """
    section, table, label, statistics = SWEEPS[spec.variable]
    oracles = [None] * len(spec.values)
    if spec.variable == "d":
        fine = centralized_oracle(cfgmod.build_instance(spec.configs[-1]))
        oracles = [downsample_reference(fine, v) for v in spec.values]
    elif section in ("comms", "channel"):  # every value poses the base's problem
        oracles = [centralized_oracle(cfgmod.build_instance(spec.base))] * len(spec.values)
    tasks = [(spec.variable, v, cfg, oracle) for v, cfg, oracle in zip(spec.values, spec.configs, oracles)]
    if jobs > 1:
        # the largest points (nodes x d; every point runs all seeds) go
        # first, so that no long one starts last; rows keep value order
        size = [cfg.network.topology.num_nodes * cfg.problem.d for cfg in spec.configs]
        order = sorted(range(len(tasks)), key=lambda i: -size[i])
        workers, place = min(jobs, len(tasks)), {}
        if hasattr(os, "sched_setaffinity"):  # each worker starts on a CPU of its own
            cpus, queue = os.sched_getaffinity(0), multiprocessing.SimpleQueue()
            for cpu in islice(cycle(sorted(cpus)), workers):
                queue.put(cpu)
            place = {"initializer": _place, "initargs": (cpus, queue)}
        with ProcessPoolExecutor(max_workers=workers, **place) as pool:
            done = dict(zip(order, pool.map(_sweep_point, [tasks[i] for i in order])))
        results = [done[i] for i in range(len(tasks))]
    else:
        results = [_sweep_point(t) for t in tasks]
    fieldnames = [label]
    for stat in statistics:
        fieldnames += [f"{stat}_mean"] if stat == "runtime" else [f"{stat}_mean", f"{stat}_ci"]
    fieldnames.append("n_failed")
    rows, failures, registry = [], [], {}
    for value, (samples, fails, caught) in zip(spec.values, results):
        failures.extend(fails)
        for warning in caught:  # issued here, so each shows once at any number of jobs
            warnings.warn_explicit(*warning, registry=registry)
        row = {label: "unquantized" if value is None else value, "n_failed": len(fails)}
        for stat in statistics:
            row[f"{stat}_mean"], row[f"{stat}_ci"] = _mean_ci(samples[stat])
        rows.append({name: row[name] for name in fieldnames})
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
    """Runs the (delta, bits) grid once, one engine batch per bits value
    with one lane per delta; feeds both the tracking check and the
    broadcast-budget check."""
    oracle = centralized_oracle(instance)
    grid = {}
    for bv in bits_grid:
        lanes = [(replace(comms, delta=dv, bits=bv), seed) for dv in deltas]
        results = engine.simulate_lanes(instance, topology, lanes, collect_residuals=False, oracle=oracle)
        for dv, (variant, _), result in zip(deltas, lanes, results):
            if isinstance(result, Exception):
                raise result
            grid[dv, bv] = {"delta": dv, "bits": bv, "record": result,
                            "perturbation": variant.tau_inner + dv + variant.delta_q}
    runs = [grid[dv, bv] for dv in deltas for bv in bits_grid]
    excluded = []
    tracked = []
    for run in runs:
        m = run["record"]
        if not m.converged or m.clip_active:
            excluded.append(
                {"delta": run["delta"], "bits": run["bits"],
                 "converged": m.converged, "clip_active": m.clip_active}
            )
            continue
        tracked.append(run)
    violations = [run for run in tracked if run["record"].l1_error_max > run["record"].bias_bound]
    worst = None
    if violations:  # the witness is the run furthest past its bound, by ratio
        run = max(violations, key=lambda r: r["record"].l1_error_max / r["record"].bias_bound)
        worst = {"delta": run["delta"], "bits": run["bits"],
                 "error": run["record"].l1_error_max, "bias_bound": run["record"].bias_bound}
    xs = np.array([r["perturbation"] for r in runs])
    ys = np.array([r["record"].l1_error_max for r in runs])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(runs) >= 2 else math.nan
    slope_ok = slope >= -1e-12
    passed = bool(tracked) and not violations and slope_ok
    if not tracked:
        # every run was excluded (not converged or clipped): the bound was
        # never put to the test, which fails the check
        worst = {"reason": "every grid run excluded", "excluded": excluded}
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

    over = []  # per run past the budget: its largest excess, and the agent's witness
    checked = 0
    for run in runs:
        dv = run["delta"]
        if not (dv > 0) or math.isinf(dv):
            continue
        m = run["record"]
        limit = 1 + np.ceil(m.variation_per_agent / dv)
        checked += 1
        i = int(np.argmax(m.broadcasts_per_agent - limit))
        if m.broadcasts_per_agent[i] > limit[i]:
            over.append((m.broadcasts_per_agent[i] - limit[i], {
                "delta": dv,
                "bits": run["bits"],
                "agent": i,
                "broadcasts": int(m.broadcasts_per_agent[i]),
                "budget": float(limit[i]),
            }))
    budget = CheckResult(
        name="broadcast_budget",
        passed=not over and checked > 0,
        details={"runs_checked": checked},
        # the witness is the agent furthest past its budget, over all runs
        witness=max(over, key=lambda o: o[0])[1] if over else None,
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
    gossip contracts at sigma2 per step; (d) converged, clip-inactive runs,
    of which there is at least one, land inside the steady-state bias
    bound, and error grows with (tau + delta + delta_q); (e) per-agent
    broadcast counts respect the variation budget.
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
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    # a list of finite floats and ints is its own JSON form (v - v is nan for inf and nan)
    if isinstance(obj, list) and all(type(v) is float and v - v == 0 or type(v) is int for v in obj):
        return obj
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
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
    return obj


def write_csv(path: str, fieldnames, rows) -> None:
    """A header line, then one line per row: its values in ``fieldnames`` order."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        writer.writerows(rows)


def write_json(path: str, obj) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=False)
        fh.write("\n")
