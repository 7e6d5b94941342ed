"""The package's public surface: the names it exports, that each of them
exists, and that the package never reaches into the test suite (the
per-agent reference implementation lives only under tests/)."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dsinkhorn
from dsinkhorn import engine, experiments, otcore

PACKAGE_DIR = Path(dsinkhorn.__file__).resolve().parent
MODULES = ["dsinkhorn"] + [
    f"dsinkhorn.{p.stem}" for p in sorted(PACKAGE_DIR.glob("*.py")) if p.stem != "__init__"
]

EXPORTED = {
    "__version__",
    # core numerics
    "Histogram", "CostMatrix", "GibbsKernel", "ProblemInstance",
    "BarycenterResult", "TheoryConstants", "KernelUnderflowError",
    "DegenerateStateError", "grid_cost", "build_gibbs_kernel",
    "centralized_barycenter", "hilbert_distance", "theory_constants",
    # protocol
    "CommsConfig", "ClipRangeError", "clip_log", "quantize", "packet_wire_size",
    # network simulation
    "Topology", "TopologyError", "build_topology", "GossipWeights",
    "metropolis_weights", "spectral_gap", "consensus_residual",
    "ChannelModel", "ActivationModel",
    "RunRecord", "simulate_lanes", "consensus_trace",
    # experiments & config
    "RunMetrics", "SweepSpec", "VerificationReport", "centralized_oracle",
    "run_decentralized", "run_sweep", "verify_theory",
    "RunConfig", "ProblemSpec", "NetworkSpec",
    "ConfigError", "build_instance", "build_topology_from_spec",
    "mixture_histograms",
}


def test_package_exports_are_pinned():
    assert len(dsinkhorn.__all__) == len(set(dsinkhorn.__all__))
    assert set(dsinkhorn.__all__) == EXPORTED


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_import_tests(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        else:
            continue
        for imported in names:
            assert imported.split(".")[0] not in ("reference", "tests"), (
                f"{path.name} imports {imported}"
            )


def test_cli_import_skips_scipy_stats():
    # importing scipy costs a quarter second, scipy.stats most of a second;
    # the package needs neither at run time
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    code = "import sys, dsinkhorn.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_cli_runs_without_scipy(tmp_path):
    tree = {
        "problem": {"d": 8, "epsilon": 0.5},
        "network": {"topology_kind": "ring", "params": {"n": 4}},
        "comms": {"bits": 12, "inner_step_cap": 20, "outer_iter_cap": 3},
        "seeds": [0, 1],
        "output_dir": str(tmp_path / "out"),
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(tree))
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    code = ("import sys; sys.modules['scipy'] = None; from dsinkhorn.cli import main; "
            f"sys.exit(main(['run', '--config', {str(cfg)!r}]))")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode in (0, 2), proc.stderr
    assert (tmp_path / "out" / "run_metrics.json").is_file()


def _small_problem():
    d, n = 8, 4
    instance = otcore.ProblemInstance(
        cost=otcore.grid_cost(d), epsilon=0.5, ridge=1e-16,
        histograms=dsinkhorn.mixture_histograms(d, n, density_seed=1),
    )
    return instance, dsinkhorn.build_topology("ring", n=n)


class TestBenchmarkContract:
    """What perfbench/ calls and reads from outside the package: its
    tracer wraps the engine's per-round methods and reads engine state,
    and its reference replay calls run_decentralized per seed. A refactor
    that breaks any of it fails here, in Tier-1."""

    def test_traced_methods_live_in_the_class_dict(self):
        for name in ("bootstrap", "step_round", "all_inner_converged"):
            assert inspect.isfunction(vars(engine.NetworkEngine).get(name)), name

    def test_simulate_lanes_returns_a_record_per_lane(self):
        instance, topology = _small_problem()
        comms = dsinkhorn.CommsConfig(inner_step_cap=5, outer_iter_cap=2)
        records = engine.simulate_lanes(instance, topology, [(comms, 3), (comms, 4)])
        assert len(records) == 2
        for record in records:
            assert isinstance(record, engine.RunRecord)
            assert record.outer_iters == len(record.per_outer) >= 1
            assert all("inner_steps_used" in p for p in record.per_outer)

    def test_run_decentralized_returns_metrics_and_record(self):
        instance, topology = _small_problem()
        comms = dsinkhorn.CommsConfig(inner_step_cap=5, outer_iter_cap=2)
        oracle = experiments.centralized_oracle(instance)
        result = experiments.run_decentralized(
            instance, topology, comms, channel=None, activation=None, seed=2,
            oracle=oracle, collect_residuals=False,
        )
        metrics, record = result
        assert isinstance(metrics, experiments.RunMetrics) and metrics.seed == 2
        assert isinstance(record, engine.RunRecord)

    @pytest.mark.parametrize("lanes", [1, 3])
    def test_round_state_is_per_node_and_per_edge(self, lanes):
        _, topology = _small_problem()
        comms = dsinkhorn.CommsConfig(delta=0.0)
        eng = engine.NetworkEngine(topology, [(comms, seed) for seed in range(lanes)])
        n, d = lanes * topology.num_nodes, 8
        eng.bootstrap(np.random.default_rng(0).normal(size=(n, d)))
        eng.z += 0.5  # every payload moves off the bootstrap one, so all send
        eng.step_round()
        n_edges = lanes * len(topology.directed_edges())
        assert eng.n == n
        assert eng.messages.shape == (n,)
        assert eng.ref.shape == (n, d)
        assert eng.ce_time.shape == eng.snd.shape == (n_edges,)
        assert np.bincount(eng.snd, minlength=eng.n).shape == (n,)
        assert (eng.messages == 2).all()  # delta=0: every node fired once more
