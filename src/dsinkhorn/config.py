"""Run configuration: schema, validation, and instance builders.

A run is described by one key-tree (YAML or JSON) with sections

    problem:    support size, epsilon, ridge, cost choice, density seed
    network:    topology kind and its parameters
    comms:      trigger/quantizer/stopping parameters
    channel:    drop probability and staleness bound
    activation: participation model
    seeds:      list of run seeds
    output_dir: where commands write their artifacts

Validation failures raise :class:`ConfigError` whose message starts with the
dotted field path (e.g. ``problem.epsilon: must be > 0``).
"""

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import netsim, otcore, protocol

__all__ = [
    "ConfigError",
    "ProblemSpec",
    "NetworkSpec",
    "RunConfig",
    "load_config_file",
    "apply_overrides",
    "run_config_from_dict",
    "mixture_histograms",
    "build_instance",
    "build_topology_from_spec",
]


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field path."""


@dataclass(frozen=True)
class ProblemSpec:
    d: int = 64
    epsilon: float = 0.1
    ridge: float = 1e-16
    cost_kind: str = "grid_squared"
    cost_path: str | None = None
    density_seed: int = 7


@dataclass(frozen=True)
class NetworkSpec:
    topology_kind: str = "grid2d"
    params: dict = field(default_factory=lambda: {"rows": 4, "cols": 4})

    @property
    def num_nodes(self) -> int:
        if self.topology_kind == "grid2d":
            return int(self.params["rows"]) * int(self.params["cols"])
        return int(self.params["n"])


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    comms: protocol.CommsConfig = field(default_factory=protocol.CommsConfig)
    channel: netsim.ChannelModel = field(default_factory=netsim.ChannelModel)
    activation: netsim.ActivationModel = field(default_factory=netsim.ActivationModel)
    seeds: tuple = (0, 1, 2, 3, 4)
    output_dir: str = "out"

    def resolved_dict(self) -> dict:
        """Full key-tree with every default materialized (JSON/YAML safe)."""
        delta = self.comms.delta
        return {
            "problem": {
                "d": self.problem.d,
                "epsilon": self.problem.epsilon,
                "ridge": self.problem.ridge,
                "cost_kind": self.problem.cost_kind,
                "cost_path": self.problem.cost_path,
                "density_seed": self.problem.density_seed,
            },
            "network": {
                "topology_kind": self.network.topology_kind,
                "params": dict(self.network.params),
            },
            "comms": {
                "delta": ".inf" if math.isinf(delta) else delta,
                "tau_inner": self.comms.tau_inner,
                "tau_outer": self.comms.tau_outer,
                "bits": "unquantized" if self.comms.bits is None else self.comms.bits,
                "s_min": self.comms.s_min,
                "s_max": self.comms.s_max,
                "inner_step_cap": self.comms.inner_step_cap,
                "outer_iter_cap": self.comms.outer_iter_cap,
            },
            "channel": {
                "drop_prob": self.channel.drop_prob,
                "max_staleness": self.channel.max_staleness,
            },
            "activation": {
                "mode": self.activation.mode,
                "p_active": self.activation.p_active,
            },
            "seeds": list(self.seeds),
            "output_dir": self.output_dir,
        }


class _Loader(yaml.SafeLoader):
    """SafeLoader that also reads YAML 1.2 exponent floats such as ``1e-6``
    or ``1.0e6``, which YAML 1.1 leaves as strings (JSON writes them)."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def load_config_file(path: str) -> dict:
    """Read a YAML (or JSON; YAML is a superset here) key-tree."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_Loader)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: {path!r} is not valid YAML/JSON: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be a mapping")
    return data


def apply_overrides(data: dict, overrides) -> dict:
    """Apply ``dotted.path=value`` overrides; values parse as YAML scalars."""
    out = json.loads(json.dumps(data))  # deep copy of plain tree
    for ov in overrides or []:
        if "=" not in ov:
            raise ConfigError(f"override {ov!r}: expected dotted.path=value")
        path, raw = ov.split("=", 1)
        keys = path.strip().split(".")
        if not all(keys):
            raise ConfigError(f"override {ov!r}: empty path component")
        try:
            value = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {ov!r}: bad value: {exc}") from exc
        node = out
        for k in keys[:-1]:
            nxt = node.setdefault(k, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {ov!r}: {k} is not a section")
            node = nxt
        node[keys[-1]] = value
    return out


def _section(data: dict, name: str) -> dict:
    sec = data.get(name, {})
    if sec is None:
        sec = {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be a mapping")
    return dict(sec)


def _reject_unknown(sec: dict, name: str, allowed) -> None:
    unknown = set(sec) - set(allowed)
    if unknown:
        raise ConfigError(f"{name}.{sorted(unknown)[0]}: unknown field")


def _number(sec, key, path, default, *, minimum=None, strict_min=None, allow_inf=False):
    raw = sec.get(key, default)
    if isinstance(raw, str) and raw.strip().lstrip(".").lower() in ("inf", "infinity"):
        raw = math.inf
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{path}: must be a number")
    val = float(raw)
    if math.isnan(val):
        raise ConfigError(f"{path}: must not be NaN")
    if math.isinf(val) and not allow_inf:
        raise ConfigError(f"{path}: must be finite")
    if minimum is not None and val < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    if strict_min is not None and val <= strict_min:
        raise ConfigError(f"{path}: must be > {strict_min}")
    return val


def _integer(sec, key, path, default, *, minimum=None):
    raw = sec.get(key, default)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(f"{path}: must be an integer")
    if minimum is not None and raw < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    return int(raw)


def run_config_from_dict(data: dict) -> RunConfig:
    """Validate a raw key-tree into a :class:`RunConfig`."""
    data = dict(data or {})
    _reject_unknown(
        data, "config", ("problem", "network", "comms", "channel", "activation", "seeds", "output_dir")
    )

    prob = _section(data, "problem")
    _reject_unknown(prob, "problem", ("d", "epsilon", "ridge", "cost_kind", "cost_path", "density_seed"))
    cost_kind = prob.get("cost_kind", "grid_squared")
    if cost_kind not in ("grid_squared", "file"):
        raise ConfigError("problem.cost_kind: must be 'grid_squared' or 'file'")
    cost_path = prob.get("cost_path")
    if cost_kind == "file" and not cost_path:
        raise ConfigError("problem.cost_path: required when cost_kind is 'file'")
    problem = ProblemSpec(
        d=_integer(prob, "d", "problem.d", 64, minimum=2),
        epsilon=_number(prob, "epsilon", "problem.epsilon", 0.1, strict_min=0.0),
        ridge=_number(prob, "ridge", "problem.ridge", 1e-16, minimum=0.0),
        cost_kind=cost_kind,
        cost_path=cost_path,
        density_seed=_integer(prob, "density_seed", "problem.density_seed", 7),
    )

    net = _section(data, "network")
    _reject_unknown(net, "network", ("topology_kind", "params"))
    kind = net.get("topology_kind", "grid2d")
    params = net.get("params", {"rows": 4, "cols": 4} if kind == "grid2d" else {})
    if not isinstance(params, dict):
        raise ConfigError("network.params: must be a mapping")
    network = NetworkSpec(topology_kind=kind, params=dict(params))
    try:
        build_topology_from_spec(network)
    except (netsim.TopologyError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"network.params: {exc}") from exc

    comms_sec = _section(data, "comms")
    _reject_unknown(
        comms_sec,
        "comms",
        ("delta", "tau_inner", "tau_outer", "bits", "s_min", "s_max", "inner_step_cap", "outer_iter_cap"),
    )
    bits_raw = comms_sec.get("bits", 16)
    if bits_raw is None or (isinstance(bits_raw, str) and bits_raw == "unquantized"):
        bits = None
    elif isinstance(bits_raw, int) and not isinstance(bits_raw, bool):
        bits = bits_raw
    else:
        raise ConfigError("comms.bits: must be an integer >= 1 or 'unquantized'")
    comms_fields = dict(
        delta=_number(comms_sec, "delta", "comms.delta", 1e-3, minimum=0.0, allow_inf=True),
        tau_inner=_number(comms_sec, "tau_inner", "comms.tau_inner", 1e-4, strict_min=0.0),
        tau_outer=_number(comms_sec, "tau_outer", "comms.tau_outer", 1e-6, strict_min=0.0),
        bits=bits,
        s_min=_number(comms_sec, "s_min", "comms.s_min", -30.0),
        s_max=_number(comms_sec, "s_max", "comms.s_max", 30.0),
        inner_step_cap=_integer(comms_sec, "inner_step_cap", "comms.inner_step_cap", 200, minimum=1),
        outer_iter_cap=_integer(comms_sec, "outer_iter_cap", "comms.outer_iter_cap", 500, minimum=1),
    )
    try:
        comms = protocol.CommsConfig(**comms_fields)
    except ValueError as exc:
        raise ConfigError(f"comms: {exc}") from exc

    chan_sec = _section(data, "channel")
    _reject_unknown(chan_sec, "channel", ("drop_prob", "max_staleness"))
    drop = _number(chan_sec, "drop_prob", "channel.drop_prob", 0.0, minimum=0.0)
    if drop >= 1.0:
        raise ConfigError("channel.drop_prob: must be in [0, 1)")
    channel = netsim.ChannelModel(
        drop_prob=drop,
        max_staleness=_integer(chan_sec, "max_staleness", "channel.max_staleness", 0, minimum=0),
    )

    act_sec = _section(data, "activation")
    _reject_unknown(act_sec, "activation", ("mode", "p_active"))
    mode = act_sec.get("mode", "synchronous")
    p_active = _number(act_sec, "p_active", "activation.p_active", 1.0, strict_min=0.0)
    if p_active > 1.0:
        raise ConfigError("activation.p_active: must be in (0, 1]")
    try:
        activation = netsim.ActivationModel(mode=mode, p_active=p_active)
    except ValueError as exc:
        raise ConfigError(f"activation.mode: {exc}") from exc

    seeds_raw = data.get("seeds", [0, 1, 2, 3, 4])
    if not isinstance(seeds_raw, (list, tuple)) or not seeds_raw:
        raise ConfigError("seeds: must be a nonempty list of integers")
    for s in seeds_raw:
        if isinstance(s, bool) or not isinstance(s, int):
            raise ConfigError("seeds: must be a nonempty list of integers")
    output_dir = data.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir: must be a nonempty string")

    return RunConfig(
        problem=problem,
        network=network,
        comms=comms,
        channel=channel,
        activation=activation,
        seeds=tuple(int(s) for s in seeds_raw),
        output_dir=output_dir,
    )


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise, by the formula of scipy's ``ndtr``
    (cephes): with x = a/sqrt(2), 0.5 + 0.5 erf(x) when |x| < 1/sqrt(2),
    else 0.5 erfc(|x|), reflected for x > 0."""
    x = a * math.sqrt(0.5)
    inner = np.abs(x) < math.sqrt(0.5)
    out = np.empty_like(x)
    out[inner] = 0.5 + 0.5 * np.fromiter(map(math.erf, x[inner].tolist()), np.float64)
    outer = x[~inner]
    tail = 0.5 * np.fromiter(map(math.erfc, np.abs(outer).tolist()), np.float64)
    out[~inner] = np.where(outer > 0, 1.0 - tail, tail)
    return out


def mixture_histograms(d: int, num_agents: int, density_seed: int):
    """Per-agent histograms from seeded two-component Gaussian mixtures.

    The continuous densities depend only on the seed and the agent index,
    never on d: agent k's density is identical at every support size, so
    refining the grid only changes the discretization. Cell masses come
    from CDF differences over the Voronoi cells of the regular grid on
    [0, 1] and are renormalized to the simplex.
    """
    rng = np.random.default_rng(density_seed)
    x = np.linspace(0.0, 1.0, d)
    mids = 0.5 * (x[1:] + x[:-1])
    edges = np.concatenate(([x[0] - 0.5 / (d - 1)], mids, [x[-1] + 0.5 / (d - 1)]))
    params = []
    for _ in range(num_agents):
        m1, m2 = rng.uniform(0.15, 0.85, size=2)
        sd1, sd2 = rng.uniform(0.05, 0.12, size=2)
        params.append((m1, m2, sd1, sd2, rng.uniform(0.3, 0.7)))
    m1, m2, sd1, sd2, w1 = (np.array(p)[:, None] for p in zip(*params))
    cdf = w1 * _ndtr((edges - m1) / sd1) + (1 - w1) * _ndtr((edges - m2) / sd2)
    return [otcore.Histogram(mass / mass.sum()) for mass in np.diff(cdf, axis=1)]


def build_instance(cfg: RunConfig) -> otcore.ProblemInstance:
    """Materialize the barycenter problem a config describes."""
    p = cfg.problem
    if p.cost_kind == "grid_squared":
        cost = otcore.grid_cost(p.d)
    else:
        entries = np.load(p.cost_path)
        if entries.shape != (p.d, p.d):
            raise ConfigError(f"problem.cost_path: expected shape ({p.d}, {p.d}), got {entries.shape}")
        cost = otcore.CostMatrix(entries)
    hists = mixture_histograms(p.d, cfg.network.num_nodes, p.density_seed)
    return otcore.ProblemInstance(cost=cost, epsilon=p.epsilon, ridge=p.ridge, histograms=tuple(hists))


def build_topology_from_spec(network: NetworkSpec) -> netsim.Topology:
    return netsim.build_topology(network.topology_kind, **network.params)
