"""The package's public surface: the names it exports, that each of them
exists, and that the package never reaches into the test suite (the
per-agent reference implementation lives only under tests/)."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dsinkhorn

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
    "ChannelModel", "ActivationModel", "expected_weights",
    "RunRecord", "simulate_decentralized", "consensus_trace",
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
    # scipy.stats costs most of a second to import; the package needs only scipy.special
    path = os.pathsep.join([str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH", "")])
    code = "import sys, dsinkhorn.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
