"""Command-line entry point.

Commands
--------
centralized   solve the reference problem and dump barycenter + trace
run           decentralized runs over the config's seed list
sweep         run a SweepSpec and emit the figure tables
verify        run the theory-verification suite

Exit codes: 0 success, 1 config error (message names the field path),
2 iteration cap hit, 3 sweep finished with failed runs, 4 verification
checks failed.
"""

import argparse
import os
import sys
import warnings
from dataclasses import replace
from itertools import chain

import numpy as np

from . import config as cfgmod
from . import engine, experiments, otcore, protocol

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CAP = 2
EXIT_PARTIAL = 3
EXIT_VERIFY = 4


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, metavar="PATH",
                        help="YAML/JSON config file")
    common.add_argument("--override", nargs="+", action="extend", default=[],
                        metavar="K=V", help="dotted-path overrides, e.g. comms.delta=0")
    common.add_argument("--out", default=None, metavar="DIR",
                        help="output directory (defaults to config output_dir)")
    common.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes for sweeps")

    parser = argparse.ArgumentParser(
        prog="dsinkhorn",
        description="Decentralized entropic barycenters over gossip networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("centralized", parents=[common],
                   help="solve the centralized reference problem")
    sub.add_parser("run", parents=[common],
                   help="run the decentralized protocol over the seed list")
    sub.add_parser("sweep", parents=[common],
                   help="run a parameter sweep (config needs a sweep: section)")
    sub.add_parser("verify", parents=[common],
                   help="run the theory-verification checks")
    return parser


def _load(args):
    raw = cfgmod.load_config_file(args.config)
    raw = cfgmod.apply_overrides(raw, args.override)
    sweep_sec = raw.pop("sweep", None)
    cfg = cfgmod.run_config_from_dict(raw)
    if args.out:
        cfg = replace(cfg, output_dir=args.out)
    return cfg, sweep_sec


def _write_resolved(outdir: str, cfg: cfgmod.RunConfig, extra: dict | None = None):
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise cfgmod.ConfigError(f"output_dir: cannot create {outdir!r}: {exc.strerror}") from exc
    resolved = cfg.resolved_dict()
    if extra:
        resolved.update(extra)
    experiments.write_json(os.path.join(outdir, "config_resolved.json"), resolved)


def _warn_inert(comms: protocol.CommsConfig) -> None:
    if comms.inert_delta:
        print(f"warning: comms.delta={comms.delta:g} is at most half the quantizer step "
              f"(delta_q={comms.delta_q:g}): it sends exactly what delta=0 sends", file=sys.stderr)


def cmd_centralized(cfg: cfgmod.RunConfig) -> int:
    outdir = cfg.output_dir
    _write_resolved(outdir, cfg)
    instance = cfgmod.build_instance(cfg)
    result = otcore.centralized_barycenter(
        instance, tol=cfg.comms.tau_outer, max_iter=cfg.comms.outer_iter_cap
    )
    x = np.linspace(0.0, 1.0, instance.support_size)
    experiments.write_csv(
        os.path.join(outdir, "barycenter.csv"),
        ["support_x", "mass"],
        zip(x.tolist(), result.barycenter.weights.tolist()),
    )
    experiments.write_csv(
        os.path.join(outdir, "centralized_trace.csv"),
        ["iteration", "log_v_change_linf"],
        enumerate(result.trace, start=1),
    )
    print(
        f"centralized: iterations={result.iterations} "
        f"converged={result.converged} out={outdir}"
    )
    return EXIT_OK if result.converged else EXIT_CAP


# run_metrics.json's fields per run, in file order: RunRecord fields, where
# per_outer_iter is per_outer without the per-round residual traces, which
# trace.csv holds
_RUN_KEYS = ("seed", "converged", "outer_iters", "rounds_total", "per_outer_iter", "l1_error_per_node",
             "l1_error_max", "l1_error_mean", "broadcasts_per_agent", "variation_per_agent",
             "messages_per_agent", "messages_total", "bytes_total", "wall_clock_seconds", "bias_bound",
             "clip_active")


def _run_entry(record) -> dict:
    """One run of run_metrics.json: the record's _RUN_KEYS."""
    per_outer_iter = [{k: v for k, v in p.items() if k != "consensus_residual_trace"} for p in record.per_outer]
    return {key: per_outer_iter if key == "per_outer_iter" else getattr(record, key) for key in _RUN_KEYS}


def cmd_run(cfg: cfgmod.RunConfig) -> int:
    outdir = cfg.output_dir
    _write_resolved(outdir, cfg)
    _warn_inert(cfg.comms)
    instance = cfgmod.build_instance(cfg)
    oracle = experiments.centralized_oracle(instance)

    # The always-on (delta=0) twin of the first seed, for trace.csv, is one
    # more lane of the same batch (at an inert delta, the first seed's own
    # lane). Only these two keep per-round residuals.
    lanes = [(cfg.comms, seed) for seed in cfg.seeds]
    if cfg.comms.delta > 0:
        lanes.append((replace(cfg.comms, delta=0.0), cfg.seeds[0]))
    twin = len(lanes) - 1 if cfg.comms.delta > 0 else 0
    records = engine.simulate_lanes(instance, cfg.network.topology, lanes, cfg.channel, cfg.activation,
                                    collect_residuals={0, twin}, oracle=oracle)
    failed = [r for r in records if isinstance(r, Exception)]
    if failed:
        raise failed[0]
    runs = records[: len(cfg.seeds)]

    error_max = max(r.l1_error_max for r in runs)
    messages_mean = float(np.mean([r.messages_total for r in runs]))
    bias = runs[0].bias_bound
    experiments.write_json(
        os.path.join(outdir, "run_metrics.json"),
        {
            "runs": [_run_entry(r) for r in runs],
            "aggregate": {
                "error_max": error_max,
                "error_mean": float(np.mean([r.l1_error_mean for r in runs])),
                "messages_total_mean": messages_mean,
                "bias_bound": bias,
                "all_converged": all(r.converged for r in runs),
            },
        },
    )

    # Trace CSV: the seed-0 run plus its always-on twin for comparison.
    rows = experiments.trace_lines("always_on", records[twin])
    if cfg.comms.delta > 0:
        rows = chain(rows, experiments.trace_lines("triggered", records[0]))
    experiments.write_csv(os.path.join(outdir, "trace.csv"), experiments.TRACE_FIELDS, rows)
    experiments.write_csv(
        os.path.join(outdir, "overlap.csv"),
        ["support_x", "b_star", "b_tilde_min", "b_tilde_max"],
        map(dict.values, experiments.overlap_rows(oracle, records[0].barycenters)),
    )
    print(
        f"run: error_max={error_max:.6e} messages_total={messages_mean:.0f} "
        f"bias_bound={bias:.6e}"
    )
    return EXIT_OK if all(r.converged for r in runs) else EXIT_CAP


def cmd_sweep(cfg: cfgmod.RunConfig, sweep_sec, jobs: int) -> int:
    if not isinstance(sweep_sec, dict):
        raise cfgmod.ConfigError("sweep: section required (variable, values)")
    unknown = set(sweep_sec) - {"variable", "values"}
    if unknown:
        raise cfgmod.ConfigError(f"sweep.{sorted(unknown)[0]}: unknown field")
    variable = sweep_sec.get("variable")
    values = sweep_sec.get("values")
    if not isinstance(values, (list, tuple)):
        raise cfgmod.ConfigError("sweep.values: must be a list")
    spec = experiments.SweepSpec(variable=variable, values=tuple(values), base=cfg)
    outdir = cfg.output_dir
    _write_resolved(outdir, cfg, extra={"sweep": {"variable": variable, "values": list(values)}})
    for point in spec.configs:
        _warn_inert(point.comms)
    name, fields, rows, failures = experiments.run_sweep(spec, jobs)
    experiments.write_csv(os.path.join(outdir, name), fields, map(dict.values, rows))
    if failures:
        experiments.write_json(os.path.join(outdir, "failures.json"), failures)
        print(f"sweep: {len(failures)} run(s) failed, table written to {name}",
              file=sys.stderr)
        return EXIT_PARTIAL
    print(f"sweep: {len(rows)} rows written to {os.path.join(outdir, name)}")
    return EXIT_OK


def cmd_verify(cfg: cfgmod.RunConfig) -> int:
    outdir = cfg.output_dir
    _write_resolved(outdir, cfg)
    instance = cfgmod.build_instance(cfg)
    report = experiments.verify_theory(instance, cfg.comms, cfg.network.topology)
    experiments.write_json(os.path.join(outdir, "verify.json"), report.to_dict())
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if report.passed:
        print(f"verify: all {len(report.checks)} checks passed")
        return EXIT_OK
    print("verify: failed checks: " + ", ".join(report.failing), file=sys.stderr)
    return EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shown = set()

    def show(message, *_):  # each warning message once, as a line like the inert-delta one
        if str(message) not in shown:
            shown.add(str(message))
            sys.stderr.write(f"warning: {message}\n")

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            if args.jobs < 1:
                raise cfgmod.ConfigError(f"--jobs: must be at least 1, got {args.jobs}")
            cfg, sweep_sec = _load(args)
            if args.command == "centralized":
                return cmd_centralized(cfg)
            if args.command == "run":
                return cmd_run(cfg)
            if args.command == "sweep":
                return cmd_sweep(cfg, sweep_sec, args.jobs)
            if args.command == "verify":
                return cmd_verify(cfg)
            raise AssertionError(f"unhandled command {args.command}")
        except (cfgmod.ConfigError, protocol.ClipRangeError, otcore.KernelUnderflowError,
                otcore.DegenerateStateError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
