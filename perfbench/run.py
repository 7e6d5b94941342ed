"""dsinkhorn benchmark: runs the real CLI on generated workloads and gates
its outputs.

    python3 perfbench/run.py --workload sync_q12 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --smoke        # every workload, toy size

Each repetition is a fresh process (``child.py``) that imports the package
from ``src/`` of the checkout this file sits in and calls
``dsinkhorn.cli.main``; repetitions run one at a time until ``--seconds``
have passed (at least six). Untraced repetitions give the end-to-end
metrics (medians, scaled to a reference host speed, see ``end_to_end``).
With ``--trace 1`` untraced and traced repetitions alternate and the
per-layer metrics come from the traced ones (see ``tracer.py``). After
the repetitions, outside any timed region, the benchmark solves its own
oracle barycenter (and, for the sweep, replays the sweep's runs
in-process) and checks every repetition's artifacts against it and
against each other. The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` (seed-runs) and ``metrics``.
The exit code is 1 when a check failed and 2 when the package sources
are missing. Metric meanings and the layer map are in ``metrics.json``.
"""

import argparse
import collections
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 60
MIN_REPS = 6
MAX_REPS = 40
# Calibration kernel time per iteration on the machine recorded in
# metrics.json ("environment"), at its median speed.
CAL_REF_S = 20e-6
ORACLE_TOL = 1e-12
ORACLE_MAX_ITER = 100_000
BLAS_ENV = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

os.environ.update(BLAS_ENV)  # before numpy loads, here and in every child
sys.path[:0] = [str(HERE), str(SRC)]

import yaml  # noqa: E402
from workloads import FULL, SMOKE  # noqa: E402


class GateError(Exception):
    """A repetition's outputs failed a correctness check."""


# -- environment ---------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return "unknown"

    cpu = "unknown"
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(idx / "level"), read(idx / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = read(idx / "size")
    sha = "unknown"
    head = read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        sha = read(ROOT / ".git" / head[5:])
    elif head != "unknown":
        sha = head
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "cpu": cpu, "l2": caches.get("L2", "unknown"),
            "l3": caches.get("L3", "unknown"), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "openblas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "git_sha": sha, "blas_threads": 1}


# -- repetitions ---------------------------------------------------------------

def launch(wl, k: int, traced: bool, cfg_path: Path, out: Path) -> dict:
    """Run one repetition in a fresh process; returns its record."""
    rep_dir = out / f"rep{k:02d}"
    trace_dir = rep_dir / "spans"
    trace_dir.mkdir(parents=True)
    result_path = rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(result_path),
           str(trace_dir) if traced else "-", wl.command, "--config", str(cfg_path),
           "--out", str(rep_dir / "artifacts"), "--jobs", str(wl.jobs)]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    with open(rep_dir / "log.txt", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    result = None
    if proc.returncode == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    return {"k": k, "traced": traced, "dir": rep_dir, "artifacts": rep_dir / "artifacts",
            "result": result, "log": (rep_dir / "log.txt").read_text()[-2000:]}


# -- reference solve (outside every timed region) --------------------------------

def reference(wl, tree: dict) -> dict:
    import numpy as np
    from dsinkhorn import config as cfgmod
    from dsinkhorn import experiments, otcore, protocol

    raw = {k: v for k, v in tree.items() if k != "sweep"}
    base = cfgmod.run_config_from_dict(raw)

    def solve(cfg):
        instance = cfgmod.build_instance(cfg)
        topology = cfgmod.build_topology_from_spec(cfg.network)
        result = otcore.centralized_barycenter(instance, tol=ORACLE_TOL, max_iter=ORACLE_MAX_ITER)
        return instance, topology, result.barycenter.weights

    wire = protocol.packet_wire_size(base.problem.d, base.comms.bits)
    if wl.command == "run":
        _, topology, oracle = solve(base)
        return {"oracle": oracle, "degrees": topology.degrees(), "wire": wire,
                "seeds": list(base.seeds), "comms": base.comms}
    # Sweep: replay every (N, seed) run in-process; the CLI's table must
    # match it message for message, and the replay supplies the rounds and
    # the errors that scaling.csv does not carry.
    values = tree["sweep"]["values"]
    messages_mean, rounds, errors = {}, 0, []
    for n in values:
        cfg = experiments.config_for_value(base, "N", n)
        instance, topology, oracle = solve(cfg)
        messages = []
        for seed in base.seeds:
            metrics, _ = experiments.run_decentralized(
                instance, topology, cfg.comms, channel=cfg.channel, activation=cfg.activation,
                seed=seed, oracle=oracle, collect_residuals=False)
            messages.append(metrics.messages_total)
            rounds += metrics.rounds_total
            errors.append(metrics.l1_error_max)
        messages_mean[n] = float(np.asarray(messages, dtype=np.float64).mean())
    return {"values": values, "messages_mean": messages_mean, "rounds": rounds,
            "l1_error_max": float(np.mean(errors)), "wire": wire, "n_seeds": len(base.seeds)}


# -- correctness gate ------------------------------------------------------------

def _read_csv(path: Path) -> list:
    if not path.is_file():
        raise GateError(f"missing artifact {path.name}")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path):
    if not path.is_file():
        raise GateError(f"missing artifact {path.name}")
    return json.loads(path.read_text())


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def check_run(art: Path, ref: dict):
    """Gate one `run` repetition; returns (measures, deterministic signature)."""
    import numpy as np

    _read_json(art / "config_resolved.json")
    runs = _read_json(art / "run_metrics.json")["runs"]
    if [r["seed"] for r in runs] != ref["seeds"]:
        raise GateError("run_metrics.json: seeds differ from the config")
    comms = ref["comms"]
    for r in runs:
        steps = [p["inner_steps_used"] for p in r["per_outer_iter"]]
        if r["rounds_total"] != sum(steps) or r["outer_iters"] != len(steps):
            raise GateError(f"seed {r['seed']}: rounds_total/outer_iters disagree with per_outer_iter")
        if r["outer_iters"] > comms.outer_iter_cap or max(steps) > comms.inner_step_cap:
            raise GateError(f"seed {r['seed']}: iteration caps exceeded")
        links = np.asarray(r["broadcasts_per_agent"]) * ref["degrees"]
        if (r["messages_per_agent"] != links.tolist() or r["messages_total"] != int(links.sum())
                or r["bytes_total"] != r["messages_total"] * ref["wire"]):
            raise GateError(f"seed {r['seed']}: message/byte counts inconsistent")
        if r["l1_error_max"] != max(r["l1_error_per_node"]):
            raise GateError(f"seed {r['seed']}: l1_error_max is not the worst node's error")
    # The CLI's oracle must be the benchmark's own solve; then the per-node
    # errors in run_metrics.json are distances to the benchmark's oracle.
    overlap = _read_csv(art / "overlap.csv")
    b_star = np.array([float(row["b_star"]) for row in overlap])
    lo = np.array([float(row["b_tilde_min"]) for row in overlap])
    hi = np.array([float(row["b_tilde_max"]) for row in overlap])
    oracle = ref["oracle"]
    if b_star.shape != oracle.shape or np.abs(b_star - oracle).sum() > 1e-9:
        raise GateError("overlap.csv: b_star differs from the benchmark's oracle")
    # Node outputs of the first run lie in [lo, hi], so its per-node errors
    # are bounded by the envelope: M/N <= mean error <= max error <= M.
    env = np.maximum(np.abs(hi - oracle), np.abs(lo - oracle)).sum()
    errs = np.asarray(runs[0]["l1_error_per_node"])
    if not (env / errs.size - 1e-9 <= errs.mean() and errs.max() <= env + 1e-9):
        raise GateError("overlap.csv envelope contradicts the first run's node errors")
    variant = "triggered" if comms.delta > 0 else "always_on"
    trace = _read_csv(art / "trace.csv")
    if sum(row["variant"] == variant for row in trace) != runs[0]["rounds_total"]:
        raise GateError("trace.csv: row count differs from the first run's rounds")

    measures = {
        "rounds_total": sum(r["rounds_total"] for r in runs),
        "engine_s": [r["wall_clock_seconds"] for r in runs],
        "bytes_on_wire": sum(r["bytes_total"] for r in runs),
        "l1_error_max": float(np.mean([r["l1_error_max"] for r in runs])),
        "seed_runs": len(runs),
    }
    timeless = [{k: v for k, v in r.items() if k != "wall_clock_seconds"} for r in runs]
    signature = _digest(timeless, (art / "trace.csv").read_bytes(), (art / "overlap.csv").read_bytes())
    return measures, signature


def check_sweep(art: Path, ref: dict):
    """Gate one `sweep` repetition against the in-process replay."""
    _read_json(art / "config_resolved.json")
    if (art / "failures.json").exists():
        raise GateError("sweep reported failed runs")
    rows = _read_csv(art / "scaling.csv")
    if [int(r["N"]) for r in rows] != ref["values"]:
        raise GateError("scaling.csv: N column differs from the sweep values")
    engine_s, messages = [], 0
    for r in rows:
        n = int(r["N"])
        if int(r["n_failed"]) != 0:
            raise GateError(f"scaling.csv: N={n} has failed runs")
        if float(r["messages_mean"]) != ref["messages_mean"][n]:
            raise GateError(f"scaling.csv: N={n} messages_mean differs from the replay")
        runtime = float(r["runtime_mean"])
        if not runtime > 0:
            raise GateError(f"scaling.csv: N={n} runtime_mean is not positive")
        engine_s.append(runtime * ref["n_seeds"])
        messages += round(float(r["messages_mean"]) * ref["n_seeds"])
    measures = {
        "rounds_total": ref["rounds"],
        "engine_s": engine_s,
        "bytes_on_wire": messages * ref["wire"],
        "l1_error_max": ref["l1_error_max"],
        "seed_runs": len(rows) * ref["n_seeds"],
    }
    timeless = [{k: v for k, v in r.items() if not k.startswith("runtime")} for r in rows]
    return measures, _digest(timeless)


def gate(wl, rep: dict, ref: dict):
    """Checks one repetition; returns (measures, signature) or raises GateError."""
    res = rep["result"]
    if res is None:
        tail = rep["log"].strip().splitlines()[-1:]
        raise GateError("repetition process failed: " + "".join(tail))
    if res["exit_code"] not in wl.allowed_exit:
        raise GateError(f"CLI exit code {res['exit_code']} not in {sorted(wl.allowed_exit)}")
    check = check_run if wl.command == "run" else check_sweep
    return check(rep["artifacts"], ref)


# -- metrics ---------------------------------------------------------------------

def _speed(rep: dict) -> float:
    """Host speed around the repetition's CLI call, relative to the
    reference machine: CAL_REF_S over the calibration kernel's mean time
    per iteration, measured just before and just after the call."""
    res = rep["result"]
    return CAL_REF_S / ((res["cal_before_s"] + res["cal_after_s"]) / 2)


def _scaled_wall(rep: dict) -> float:
    return rep["result"]["wall_s"] * _speed(rep)


def end_to_end(reps: list) -> dict:
    """Medians over the untraced repetitions; the deterministic counts are
    equal in every repetition.

    The host's speed drifts with its other tenants: the same repetition
    ran 1.6x faster or slower minutes apart, which no statistic over a
    25 s run removes. Times are therefore scaled to the reference
    machine's speed by a calibration kernel run in the same process right
    before and after the CLI call (``child.calibrate``). Over 200 s of
    sync_q12 repetitions, medians of 6-8 repetitions moved 13-16% from
    window to window raw and 4-5% scaled. The table printed before the
    result also shows the raw medians.
    """
    plain = [r for r in reps if not r["traced"]]
    first = plain[0]["measures"]

    def med(f):
        return statistics.median(f(r) for r in plain)

    def setup(r):
        return r["result"]["setup_s"] * CAL_REF_S / r["result"]["cal_before_s"]

    def engine(r):
        return sum(r["measures"]["engine_s"]) * _speed(r)

    return {
        "setup_s": (med(setup), "s"),
        "wall_s": (med(_scaled_wall), "s"),
        "rounds_per_s": (med(lambda r: first["rounds_total"] / engine(r)), "1/s"),
        "runs_per_s": (med(lambda r: first["seed_runs"] / _scaled_wall(r)), "1/s"),
        "peak_rss_mb": (med(lambda r: r["result"]["peak_rss_mb"]), "MB"),
        "l1_error_max": (first["l1_error_max"], "l1"),
        "bytes_on_wire": (first["bytes_on_wire"], "bytes"),
        "rounds_total": (first["rounds_total"], "rounds"),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(wl, reps: list, units: dict) -> dict:
    """Layer metrics of the median traced repetition; times are scaled to
    the reference host speed like the end-to-end ones."""
    import numpy as np
    import tracer

    # One consistent snapshot: the median traced and untraced repetitions.
    def middle(traced):
        group = sorted((r for r in reps if r["traced"] == traced), key=_scaled_wall)
        return group[(len(group) - 1) // 2]

    rep, plain = middle(True), middle(False)
    agg = tracer.aggregate(tracer.load(rep["dir"] / "spans"))
    calls, tot, slf, cnt = agg["calls"], agg["total"], agg["self"], agg["counters"]
    steps = np.asarray(agg["durations"]["engine.step_round"] or [0.0])
    out = {
        "cli.import_s": rep["result"]["import_s"],
        "config.build_s": agg["layer_outer_s"]["config"],
        "experiments.write_s": tot["experiments.write_json"] + tot["experiments.write_csv"],
        "experiments.write_bytes": cnt["write_bytes"],
        "otcore.centralized_barycenter.s": tot["otcore.centralized_barycenter"],
        "otcore.centralized_barycenter.iterations": cnt["oracle_iterations"],
        "otcore.build_gibbs_kernel.calls": calls["otcore.build_gibbs_kernel"],
        "otcore.theory_constants.s": tot["otcore.theory_constants"],
        "engine.simulate_decentralized.calls": calls["engine.simulate_decentralized"],
        "engine.simulate_decentralized.s": tot["engine.simulate_decentralized"],
        "engine.outer_self_s": slf["engine.simulate_decentralized"],
        "engine.step_round.calls": calls["engine.step_round"],
        "engine.step_round.us_p50": float(np.percentile(steps, 50)) * 1e6,
        "engine.step_round.us_p99": float(np.percentile(steps, 99)) * 1e6,
        "engine.step_round.self_s": slf["engine.step_round"],
        "engine.all_inner_converged.s": tot["engine.all_inner_converged"],
        "protocol.quantize.calls": calls["protocol.quantize"],
        "protocol.quantize.s": tot["protocol.quantize"],
        "protocol.clip_log.s": tot["protocol.clip_log"],
        "protocol.broadcasts": cnt["broadcasts"],
        "protocol.redundant_broadcasts": cnt["redundant_broadcasts"],
        "protocol.useful_broadcast_ratio": 1.0 - _ratio(cnt["redundant_broadcasts"], cnt["broadcasts"]),
        "protocol.inner_cap_hits": cnt["inner_cap_hits"],
        "protocol.outer_iters": cnt["outer_iters"],
        "netsim.draw_active.s": tot["netsim.draw_active"],
        "netsim.consensus_residual.calls": calls["netsim.consensus_residual"],
        "netsim.consensus_residual.s": tot["netsim.consensus_residual"],
        "netsim.metropolis_weights.calls": calls["netsim.metropolis_weights"],
        "netsim.metropolis_weights.s": tot["netsim.metropolis_weights"],
        "netsim.link_packets": cnt["link_packets"],
        "netsim.cache_updates": cnt["cache_updates"],
        "netsim.delivery_useful_ratio": _ratio(cnt["cache_updates"], cnt["link_packets"]),
        "trace.uncovered_frac": _ratio(slf["cli.main"], tot["cli.main"]),
    }
    out["experiments.sweep_parallel_efficiency"] = (
        sum(plain["measures"]["engine_s"]) / (wl.jobs * plain["result"]["wall_s"]))
    out["tracing_overhead_frac"] = _scaled_wall(rep) / _scaled_wall(plain) - 1.0
    return {k: v * _speed(rep) if units[k] in ("s", "us") else v for k, v in out.items()}


# -- runs ----------------------------------------------------------------------

def run_workload(wl, seed: int, seconds: float, min_reps: int, trace: bool, declared: dict):
    """Returns the result object and the unscaled median times."""
    out = OUT / wl.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    tree = wl.config(seed, str(out / "artifacts"))
    cfg_path = out / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(tree))

    reps, t0, k = [], time.perf_counter(), 0
    while k < MAX_REPS and (k < min_reps or time.perf_counter() - t0 < seconds):
        reps.append(launch(wl, k, trace and k % 2 == 1, cfg_path, out))
        k += 1

    ref = reference(wl, tree)
    for rep in reps:
        try:
            rep["measures"], rep["signature"] = gate(wl, rep, ref)
        except GateError as exc:
            rep["error"] = str(exc)
    # Deterministic outputs must repeat exactly across repetitions,
    # traced ones included.
    signatures = collections.Counter(r["signature"] for r in reps if "error" not in r)
    if signatures:
        common = signatures.most_common(1)[0][0]
        for rep in reps:
            if "error" not in rep and rep["signature"] != common:
                rep["error"] = "deterministic outputs drifted from the other repetitions"
    per_rep = len(wl.seeds(seed)) * (len(tree["sweep"]["values"]) if wl.command == "sweep" else 1)
    failed = [r for r in reps if "error" in r]
    for rep in failed:
        print(f"{wl.name}: repetition {rep['k']} FAILED: {rep['error']}", file=sys.stderr)

    metrics = {}
    if not failed:
        if trace:
            units = {m["name"]: m["unit"] for m in declared["per_layer"]}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in per_layer(wl, reps, units).items()}
        else:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(reps).items()}
    raw = {} if trace or failed else {
        f"{key} (unscaled median)": statistics.median(r["result"][key] for r in reps)
        for key in ("setup_s", "wall_s")}
    return {"correct": not failed, "attempted": len(reps) * per_rep,
            "failed": len(failed) * per_rep, "metrics": metrics}, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*FULL, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, minimum repetitions: every workload in seconds")
    args = parser.parse_args(argv)
    if not (SRC / "dsinkhorn" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    OUT.mkdir(exist_ok=True)
    (OUT / "env.json").write_text(json.dumps(env, indent=1))
    print("env: " + json.dumps(env))
    table = SMOKE if args.smoke else FULL
    names = list(table) if args.workload == "all" else [args.workload]
    seconds = 0.0 if args.smoke else args.seconds
    # A traced run needs traced and untraced repetitions (they alternate).
    min_reps = 2 if args.smoke else (4 if args.trace else MIN_REPS)
    ok = True
    for name in names:
        result, raw = run_workload(table[name], args.seed, seconds, min_reps, bool(args.trace), declared)
        ok = ok and result["correct"]
        for key, m in result["metrics"].items():
            print(f"{name:16s} {key:42s} {m['value']:>16.6g} {m['unit']}")
        for key, value in raw.items():
            print(f"{name:16s} {key:42s} {value:>16.6g} s")
        print(f"{name:16s} {'failed_frac':42s} {result['failed'] / result['attempted']:>16.6g} ratio")
        print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
