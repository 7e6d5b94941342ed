"""Decentralized entropic Wasserstein barycenters over gossip networks.

Agents holding private histograms on a shared support cooperate to
compute the entropic barycenter without a coordinator: each runs local
Sinkhorn-style scaling steps and the network averages the per-agent
log-messages by event-triggered, quantized gossip. The package bundles
the core numerics, the transmission rules, a deterministic network
simulator with the vectorized round engine, an experiment harness, and
a CLI.
"""

from .config import (
    ConfigError,
    NetworkSpec,
    ProblemSpec,
    RunConfig,
    build_instance,
    build_topology_from_spec,
    mixture_histograms,
)
from .engine import RunRecord, consensus_trace, simulate_lanes
from .experiments import (
    SweepSpec,
    VerificationReport,
    centralized_oracle,
    run_decentralized,
    run_sweep,
    verify_theory,
)
from .netsim import (
    ActivationModel,
    ChannelModel,
    GossipWeights,
    Topology,
    TopologyError,
    build_topology,
    consensus_residual,
    metropolis_weights,
    spectral_gap,
)
from .otcore import (
    BarycenterResult,
    CostMatrix,
    DegenerateStateError,
    GibbsKernel,
    Histogram,
    KernelUnderflowError,
    ProblemInstance,
    TheoryConstants,
    build_gibbs_kernel,
    centralized_barycenter,
    grid_cost,
    hilbert_distance,
    theory_constants,
)
from .protocol import ClipRangeError, CommsConfig, clip_log, packet_wire_size, quantize

__version__ = "0.1.0"

__all__ = [
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
    "SweepSpec", "VerificationReport", "centralized_oracle",
    "run_decentralized", "run_sweep", "verify_theory",
    "RunConfig", "ProblemSpec", "NetworkSpec",
    "ConfigError", "build_instance", "build_topology_from_spec",
    "mixture_histograms",
]
