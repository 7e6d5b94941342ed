"""One repetition of a workload, in a fresh process.

Usage: child.py SRC_DIR RESULT_JSON TRACE_DIR|- CLI_ARG...

Times the set-up a user of the CLI pays before the first simulated round
(import of ``dsinkhorn.cli``, config parse and validation, instance and
topology build), then calls ``dsinkhorn.cli.main`` on the CLI arguments
and times it. With a trace directory the package's layers are wrapped
for the call and the spans are written there. The result JSON holds the
times, the exit code, the peak RSS of this process and its children and
the host speed measured just before and after the call.
"""

import json
import os
import resource
import sys
import time


def calibrate(window: float = 0.3) -> float:
    """Mean time per iteration of a fixed kernel shaped like an engine
    round (small numpy reductions plus a short Python loop) over a window;
    it measures how fast the host runs this process right now."""
    import numpy as np
    a = np.arange(1024, dtype=np.float64).reshape(16, 64)
    n, t0 = 0, time.perf_counter()
    while time.perf_counter() - t0 < window:
        np.abs(a - a.mean(axis=0)).max(axis=1)
        s = 0
        for j in range(40):
            s += j
        n += 1
    return (time.perf_counter() - t0) / n


def main(argv) -> int:
    src, result_path, trace_dir, cli_args = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import dsinkhorn.cli as cli
    from dsinkhorn import config as cfgmod
    import_s = time.perf_counter() - t0
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"dsinkhorn imported from {cli.__file__}, not from {src}")

    raw = cfgmod.load_config_file(cli_args[cli_args.index("--config") + 1])
    raw.pop("sweep", None)
    cfg = cfgmod.run_config_from_dict(raw)
    cfgmod.build_instance(cfg)
    cfgmod.build_topology_from_spec(cfg.network)
    setup_s = time.perf_counter() - t0

    rec = None
    if trace_dir != "-":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer
        rec = tracer.install(trace_dir)
    cal_before_s = calibrate()
    t1 = time.perf_counter()
    code = cli.main(cli_args)
    wall_s = time.perf_counter() - t1
    cal_after_s = calibrate()
    if rec is not None:
        tracer.uninstall(rec)
        rec.dump()

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"exit_code": code, "import_s": import_s, "setup_s": setup_s,
              "wall_s": wall_s, "peak_rss_mb": rss_kb / 1024.0,
              "cal_before_s": cal_before_s, "cal_after_s": cal_after_s}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
