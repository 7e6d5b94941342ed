"""Run configuration: schema, validation, and instance builders.

A run is described by one key-tree (YAML or JSON) with sections

    problem:    support size, epsilon, ridge, cost choice, density seed
    network:    topology kind and its parameters
    comms:      trigger/quantizer/stopping parameters
    channel:    drop probability and staleness bound
    activation: participation model
    seeds:      list of run seeds
    output_dir: where commands write their artifacts

Each section is a frozen dataclass (``ProblemSpec``, ``NetworkSpec``,
``protocol.CommsConfig``, ``netsim.ChannelModel``, ``netsim.ActivationModel``)
that alone declares its field names, order, defaults and type and range
rules, and checks its fields on construction (``ValueError("<field>: <rule>")``).
The parser only reads the file spellings (``.inf``, ``unquantized``) and raises
:class:`ConfigError` with the dotted field path in front of a dataclass's
message (e.g. ``problem.epsilon: must be > 0.0``); ``RunConfig.resolved_dict``
writes the fields back in the same order.
"""

import json
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial

import numpy as np
import yaml

from . import netsim, otcore, protocol
from .netsim import _integer, _is_int, _number

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

    def __post_init__(self):
        keep = partial(object.__setattr__, self)  # frozen: store each checked value
        keep("d", _integer("d", self.d, minimum=2))
        keep("epsilon", _number("epsilon", self.epsilon, strict_min=0.0))
        keep("ridge", _number("ridge", self.ridge, minimum=0.0))
        if self.cost_kind not in ("grid_squared", "file"):
            raise ValueError("cost_kind: must be 'grid_squared' or 'file'")
        if not (self.cost_path is None or isinstance(self.cost_path, str)):
            raise ValueError("cost_path: must be a string")
        keep("density_seed", _integer("density_seed", self.density_seed))
        if self.cost_kind == "file" and not self.cost_path:
            raise ValueError("cost_path: required when cost_kind is 'file'")


@dataclass(frozen=True)
class NetworkSpec:
    """A graph family and its parameters; the graph, built on construction,
    is kept as ``topology``, a plain attribute and not a field."""

    topology_kind: str = "grid2d"
    params: dict = field(default_factory=lambda: {"rows": 4, "cols": 4})

    def __post_init__(self):
        if not isinstance(self.params, Mapping):
            raise ValueError("params: must be a mapping")
        object.__setattr__(self, "params", dict(self.params))
        try:
            topology = netsim.build_topology(self.topology_kind, **self.params)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"params: {exc}") from exc
        object.__setattr__(self, "topology", topology)


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    comms: protocol.CommsConfig = field(default_factory=protocol.CommsConfig)
    channel: netsim.ChannelModel = field(default_factory=netsim.ChannelModel)
    activation: netsim.ActivationModel = field(default_factory=netsim.ActivationModel)
    seeds: tuple = (0, 1, 2, 3, 4)
    output_dir: str = "out"

    def __post_init__(self):
        if not (isinstance(self.seeds, (list, tuple)) and self.seeds and all(map(_is_int, self.seeds))):
            raise ValueError("seeds: must be a nonempty list of integers")
        object.__setattr__(self, "seeds", tuple(map(int, self.seeds)))
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise ValueError("output_dir: must be a nonempty string")

    def resolved_dict(self) -> dict:
        """Full key-tree with every default materialized (JSON/YAML safe),
        in field order; ``delta=inf`` and ``bits=None`` are written the way
        a config file spells them."""

        def plain(path, value):
            if is_dataclass(value):
                return {f.name: plain(f"{path}.{f.name}", getattr(value, f.name)) for f in fields(value)}
            if path in _SPELLED and value == _SPELLED[path][0]:
                return _SPELLED[path][1]
            if isinstance(value, tuple):
                return list(value)
            return dict(value) if isinstance(value, dict) else value

        return {f.name: plain(f.name, getattr(self, f.name)) for f in fields(self)}


# the values a key-tree spells as strings: field path -> (value, spelling)
_SPELLED = {"comms.delta": (math.inf, ".inf"), "comms.bits": (None, "unquantized")}


class _Loader(yaml.SafeLoader):
    """SafeLoader that reads YAML 1.2 exponent floats such as ``1e-6`` (JSON
    writes them; YAML 1.1 leaves them as strings). As in YAML 1.2, a date
    such as ``2020-01-01`` is a string, and a binary or set value (no field
    takes one) is an error, so that every loaded tree passes through JSON."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)
_Loader.add_constructor("tag:yaml.org,2002:timestamp", yaml.SafeLoader.construct_yaml_str)
_Loader.add_constructor("tag:yaml.org,2002:binary", yaml.SafeLoader.construct_undefined)
_Loader.add_constructor("tag:yaml.org,2002:set", yaml.SafeLoader.construct_undefined)


def load_config_file(path: str) -> dict:
    """Read a YAML (or JSON; YAML is a superset here) key-tree."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.loads(json.dumps(yaml.load(fh, Loader=_Loader)))  # keys as JSON spells them
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: not UTF-8, or an alias inside itself
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
            value = json.loads(json.dumps(yaml.load(raw, Loader=_Loader)))
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigError(f"override {ov!r}: bad value: {exc}") from exc
        node = out
        for k in keys[:-1]:
            nxt = node.setdefault(k, {})
            if not isinstance(nxt, dict):
                raise ConfigError(f"override {ov!r}: {k} is not a section")
            node = nxt
        node[keys[-1]] = value
    return out


def _unspell(key: str, kind, raw):
    """What ``raw`` spells in a config file's field ``key`` of type ``kind``:
    inf for an inf string in a float field, None for ``comms.bits: unquantized``."""
    if isinstance(raw, str) and kind is float and raw.strip().lstrip(".").lower() in ("inf", "infinity"):
        return math.inf
    return None if key == "comms.bits" and raw == "unquantized" else raw


def _read(cls, tree: dict, path: str = ""):
    """``cls`` built from ``tree``: the fields the tree sets, in their file
    spellings, go to ``cls``, which checks them (a section is read the same
    way); the others keep their defaults, a name that is no field of ``cls``
    is an error, and a ``ValueError`` of ``cls`` gets the section path."""
    unknown = sorted(set(tree) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{path or 'config'}.{unknown[0]}: unknown field")
    values = {}
    for f in fields(cls):
        if f.name not in tree:
            continue
        key = f"{path}.{f.name}" if path else f.name
        raw = _unspell(key, f.type, tree[f.name])
        if is_dataclass(f.default_factory):
            raw = {} if raw is None else raw
            if not isinstance(raw, dict):
                raise ConfigError(f"{key}: must be a mapping")
            raw = _read(f.default_factory, raw, key)
        values[f.name] = raw
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}" if path else str(exc)) from exc


def run_config_from_dict(data: dict) -> RunConfig:
    """Validate a raw key-tree into a :class:`RunConfig`; every field the
    tree leaves out keeps its dataclass default."""
    return _read(RunConfig, dict(data or {}))


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
        try:
            with open(p.cost_path, "rb") as fh:
                entries = np.load(fh)
            if not isinstance(entries, np.ndarray):
                raise ValueError("expected a .npy array, got an .npz archive")
            if entries.shape != (p.d, p.d):
                raise ValueError(f"expected shape ({p.d}, {p.d}), got {entries.shape}")
            cost = otcore.CostMatrix(entries)
        except (OSError, EOFError, ValueError) as exc:
            raise ConfigError(f"problem.cost_path: {exc}") from exc
    hists = mixture_histograms(p.d, cfg.network.topology.num_nodes, p.density_seed)
    return otcore.ProblemInstance(cost=cost, epsilon=p.epsilon, ridge=p.ridge, histograms=tuple(hists))


def build_topology_from_spec(network: NetworkSpec) -> netsim.Topology:
    return network.topology
