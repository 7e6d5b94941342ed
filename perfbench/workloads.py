"""Workload definitions: the config each workload hands to the dsinkhorn CLI.

Every workload is one CLI command on a config the benchmark writes. The
benchmark seed picks the run seeds; ``problem.density_seed`` stays at its
default so the histograms, and hence the oracle, never change.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand: "run" or "sweep"
    tree: dict  # config key-tree without seeds and output_dir
    n_seeds: int  # seed-runs per CLI invocation (per sweep point for a sweep)
    allowed_exit: frozenset
    jobs: int = 1

    def seeds(self, bench_seed: int) -> list:
        """Run seeds for one benchmark seed: disjoint blocks per seed."""
        return [bench_seed * 1000 + j for j in range(self.n_seeds)]

    def config(self, bench_seed: int, output_dir: str) -> dict:
        return dict(self.tree, seeds=self.seeds(bench_seed), output_dir=output_dir)


RUN_EXIT = frozenset({0, 2})  # 2: iteration cap hit, expected at these caps
SWEEP_EXIT = frozenset({0})

# Criterion-7 problem (d=32, delta=0, unquantized, inner cap 30, outer cap 10).
_SWEEP_BASE = {
    "problem": {"d": 32},
    "network": {"topology_kind": "grid2d", "params": {"rows": 2, "cols": 2}},
    "comms": {"delta": 0.0, "bits": "unquantized", "tau_inner": 1e-13,
              "tau_outer": 1e-12, "inner_step_cap": 30, "outer_iter_cap": 10},
}

FULL = {
    # Default 4x4 grid, d=64, delta=1e-3, 12 bits: Delta_q > delta, so all 16
    # nodes fire every round and every outer iteration hits the inner cap.
    # Six outer iterations keep one CLI call near one second (twin included).
    "sync_q12": Workload(
        "sync_q12", "run",
        {"comms": {"bits": 12, "delta": 1e-3, "outer_iter_cap": 6}},
        n_seeds=1, allowed_exit=RUN_EXIT,
    ),
    # Lossy async channel. The worst-node error varies ~30% from seed to seed,
    # so one outer iteration over 32 seeds gives a mean that repeats within
    # ~5% while every round still runs the pending-queue path.
    "lossy_async_q16": Workload(
        "lossy_async_q16", "run",
        {"comms": {"bits": 16, "delta": 1e-3, "outer_iter_cap": 1},
         "channel": {"drop_prob": 0.1, "max_staleness": 2},
         "activation": {"mode": "randomized_subset", "p_active": 0.5}},
        n_seeds=32, allowed_exit=RUN_EXIT,
    ),
    # 8x8 grid, unquantized, delta=0, small inner cap: otcore's (N, d, d)
    # logsumexp dominates. d=256 instead of the paper-scale 512 keeps the
    # oracle near 1 s instead of 9 s, so a run holds several repetitions.
    "large_support": Workload(
        "large_support", "run",
        {"problem": {"d": 256},
         "network": {"topology_kind": "grid2d", "params": {"rows": 8, "cols": 8}},
         "comms": {"bits": "unquantized", "delta": 0.0, "inner_step_cap": 5,
                   "outer_iter_cap": 3}},
        n_seeds=1, allowed_exit=RUN_EXIT,
    ),
    # Many short runs through the process pool: N in {4..36}, 5 seeds each.
    "scaling_sweep": Workload(
        "scaling_sweep", "sweep",
        dict(_SWEEP_BASE, sweep={"variable": "N", "values": [4, 9, 16, 25, 36]}),
        n_seeds=5, allowed_exit=SWEEP_EXIT, jobs=2,
    ),
}

# Toy sizes of the same workloads, for the smoke mode and the self-tests.
SMOKE = {
    "sync_q12": Workload(
        "sync_q12", "run",
        {"problem": {"d": 16}, "network": {"topology_kind": "grid2d", "params": {"rows": 2, "cols": 2}},
         "comms": {"bits": 12, "delta": 1e-3, "outer_iter_cap": 1, "inner_step_cap": 20}},
        n_seeds=1, allowed_exit=RUN_EXIT,
    ),
    "lossy_async_q16": Workload(
        "lossy_async_q16", "run",
        {"problem": {"d": 16}, "network": {"topology_kind": "grid2d", "params": {"rows": 2, "cols": 2}},
         "comms": {"bits": 16, "delta": 1e-3, "outer_iter_cap": 1, "inner_step_cap": 20},
         "channel": {"drop_prob": 0.1, "max_staleness": 2},
         "activation": {"mode": "randomized_subset", "p_active": 0.5}},
        n_seeds=2, allowed_exit=RUN_EXIT,
    ),
    "large_support": Workload(
        "large_support", "run",
        {"problem": {"d": 32}, "network": {"topology_kind": "grid2d", "params": {"rows": 3, "cols": 3}},
         "comms": {"bits": "unquantized", "delta": 0.0, "inner_step_cap": 2, "outer_iter_cap": 1}},
        n_seeds=1, allowed_exit=RUN_EXIT,
    ),
    "scaling_sweep": Workload(
        "scaling_sweep", "sweep",
        {"problem": {"d": 8},
         "network": {"topology_kind": "grid2d", "params": {"rows": 2, "cols": 2}},
         "comms": {"delta": 0.0, "bits": "unquantized", "tau_inner": 1e-13,
                   "tau_outer": 1e-12, "inner_step_cap": 5, "outer_iter_cap": 2},
         "sweep": {"variable": "N", "values": [4, 9]}},
        n_seeds=2, allowed_exit=SWEEP_EXIT, jobs=2,
    ),
}
