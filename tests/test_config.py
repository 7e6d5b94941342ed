"""Config loading, overrides, validation paths, and the input-density builder."""

import json
import math
from dataclasses import fields, is_dataclass
from types import MappingProxyType

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

from dsinkhorn import config as cfgmod
from dsinkhorn.config import (
    ConfigError,
    NetworkSpec,
    ProblemSpec,
    RunConfig,
    apply_overrides,
    build_instance,
    build_topology_from_spec,
    load_config_file,
    mixture_histograms,
    run_config_from_dict,
)
from dsinkhorn.netsim import ActivationModel, ChannelModel
from dsinkhorn.protocol import CommsConfig


class TestLoadConfigFile:
    def test_reads_yaml(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("problem:\n  d: 32\n  epsilon: 0.5\nseeds: [1, 2]\n")
        data = load_config_file(str(p))
        assert data["problem"]["d"] == 32
        assert data["seeds"] == [1, 2]

    def test_reads_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"comms": {"bits": 8}}))
        assert load_config_file(str(p))["comms"]["bits"] == 8

    def test_json_exponent_floats(self, tmp_path):
        # json writes 1e-06 with no dot, which YAML 1.1 reads as a string
        p = tmp_path / "cfg.json"
        p.write_text('{"comms": {"tau_outer": 1e-06, "delta": 1E-3}, "problem": {"epsilon": 2e-1}}')
        cfg = run_config_from_dict(load_config_file(str(p)))
        assert cfg.comms.tau_outer == 1e-6
        assert cfg.comms.delta == 1e-3
        assert cfg.problem.epsilon == 0.2

    def test_empty_file_is_empty_tree(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        assert load_config_file(str(p)) == {}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config: cannot read"):
            load_config_file(str(tmp_path / "nope.yaml"))

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("problem: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config_file(str(p))

    def test_non_mapping_top_level(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError, match="top level must be a mapping"):
            load_config_file(str(p))


class TestApplyOverrides:
    def test_sets_nested_value(self):
        out = apply_overrides({"comms": {"delta": 1e-3}}, ["comms.delta=0.01"])
        assert out["comms"]["delta"] == 0.01

    def test_creates_missing_sections(self):
        out = apply_overrides({}, ["activation.mode=randomized_subset",
                                   "activation.p_active=0.5"])
        assert out["activation"] == {"mode": "randomized_subset", "p_active": 0.5}

    def test_values_parse_as_yaml(self):
        out = apply_overrides({}, ["comms.bits=unquantized", "seeds=[3, 4]",
                                   "channel.drop_prob=0.25"])
        assert out["comms"]["bits"] == "unquantized"
        assert out["seeds"] == [3, 4]
        assert out["channel"]["drop_prob"] == 0.25

    @pytest.mark.parametrize("raw, value", [
        ("1e-6", 1e-6), ("1E6", 1e6), ("-2.5e-3", -2.5e-3), ("1.0e6", 1e6), (".5e2", 50.0),
    ])
    def test_exponent_floats(self, raw, value):
        out = apply_overrides({}, [f"comms.tau_outer={raw}"])
        assert out["comms"]["tau_outer"] == value
        assert type(out["comms"]["tau_outer"]) is float

    def test_integers_and_strings_keep_their_type(self):
        out = apply_overrides({}, ["problem.d=16", "activation.mode=e5", "output_dir=1e"])
        assert out["problem"]["d"] == 16 and type(out["problem"]["d"]) is int
        assert out["activation"]["mode"] == "e5"
        assert out["output_dir"] == "1e"

    def test_original_tree_untouched(self):
        base = {"comms": {"delta": 1e-3}}
        apply_overrides(base, ["comms.delta=0.5"])
        assert base["comms"]["delta"] == 1e-3

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="expected dotted.path=value"):
            apply_overrides({}, ["comms.delta"])

    def test_scalar_in_path(self):
        with pytest.raises(ConfigError, match="not a section"):
            apply_overrides({"seeds": [1]}, ["seeds.extra=2"])

    def test_empty_path_component(self):
        with pytest.raises(ConfigError, match="empty path component"):
            apply_overrides({}, ["comms..delta=1"])


class TestYaml12Scalars:
    """The loader reads scalars as YAML 1.2's core schema does, in files and
    in overrides alike: no YAML 1.1 spelling changes a value silently."""

    @pytest.mark.parametrize("raw, value", [
        ("017", 17), ("-017", -17), ("00", 0), ("+3", 3), ("0o17", 15), ("0x1F", 31),
        ("true", True), ("False", False), ("TRUE", True),
        (".inf", math.inf), ("-.inf", -math.inf), ("+.Inf", math.inf), ("1e-6", 1e-6), ("1.", 1.0), (".5", 0.5),
        # YAML 1.1 spellings, strings in YAML 1.2
        ("1:30", "1:30"), ("1:30.5", "1:30.5"), ("0b11", "0b11"), ("1_000", "1_000"), ("0o9", "0o9"),
        ("off", "off"), ("on", "on"), ("yes", "yes"), ("no", "no"), ("y", "y"), ("N", "N"),
    ])
    def test_scalars(self, tmp_path, raw, value):
        p = tmp_path / "cfg.yaml"
        p.write_text(f"x: {raw}\ny: [{raw}]\n")
        for tree in (load_config_file(str(p)), apply_overrides({}, [f"x={raw}", f"y=[{raw}]"])):
            assert tree == {"x": value, "y": [value]}
            assert type(tree["x"]) is type(value)

    def test_nan(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        for raw in (".nan", ".NaN", ".NAN"):
            p.write_text(f"x: {raw}\n")
            for tree in (load_config_file(str(p)), apply_overrides({}, [f"x={raw}"])):
                assert math.isnan(tree["x"])

    @pytest.mark.parametrize("text, outcome", [
        ("seeds: [1:30]", "seeds: must be a nonempty list of integers"),  # 90 in YAML 1.1
        ("seeds: [017]", (17,)),  # 15 in YAML 1.1
        ("seeds: [0o17, 0x1F]", (15, 31)),
        ("activation: {mode: off}", "activation.mode: unknown activation mode 'off'"),  # False in YAML 1.1
        ("comms: {bits: 0b1100}", "comms.bits: must be an integer in [1, 32] or None (unquantized)"),
        ("comms: {outer_iter_cap: 1_000}", "comms.outer_iter_cap: must be an integer"),
        ("comms: {delta: 1:30}", "comms.delta: must be a number"),
    ])
    def test_a_yaml11_spelling_reads_as_yaml12_or_fails_naming_its_field(self, tmp_path, text, outcome):
        p = tmp_path / "cfg.yaml"
        p.write_text(text + "\n")
        for tree in (load_config_file(str(p)), apply_overrides({}, [text.replace(": ", "=", 1)])):
            if isinstance(outcome, str):
                with pytest.raises(ConfigError) as exc:
                    run_config_from_dict(tree)
                assert str(exc.value) == outcome
            else:
                assert run_config_from_dict(tree).seeds == outcome


class TestLoadedValues:
    """Every value the loader returns, explicit tags included, passes its
    field's check or fails it with a ConfigError; none ends in a traceback."""

    @staticmethod
    def _cases(value):
        """(file text, overrides) that put ``value`` at every field, at every
        section, and at the graph parameters of two kinds."""
        for s in fields(RunConfig):
            yield f"{s.name}: {value}", [f"{s.name}={value}"]
            for f in fields(s.default_factory) if is_dataclass(s.default_factory) else ():
                yield f"{s.name}: {{{f.name}: {value}}}", [f"{s.name}.{f.name}={value}"]
        yield f"network: {{params: {{rows: {value}, cols: 2}}}}", [f"network.params.rows={value}",
                                                                  "network.params.cols=2"]
        for key, other in (("n", "radius: 0.9"), ("radius", "n: 4")):
            yield (f"network: {{topology_kind: random_geometric, params: {{{key}: {value}, {other}}}}}",
                   ["network.topology_kind=random_geometric", f"network.params.{key}={value}",
                    "network.params." + other.replace(": ", "=")])

    @pytest.mark.parametrize("value", [
        "2020-01-01", "!!timestamp 2020-01-01 10:00:00", "!!binary aGVsbG8=", "!!set {a: null}",
        "!!omap [a: 1]", "!!pairs [a: 1, a: 2]", "{1: 2, foo: 3}", "{? !!binary aGk= : 1}",
        "!!float 8", "!!str 8",
    ])
    def test_no_traceback_at_any_field(self, tmp_path, value):
        p = tmp_path / "cfg.yaml"
        for text, overrides in self._cases(value):
            p.write_text(text + "\n")
            for read in (lambda: apply_overrides(load_config_file(str(p)), []),
                         lambda: apply_overrides({}, overrides)):
                try:
                    run_config_from_dict(read())
                except ConfigError:
                    pass

    def test_dates_read_as_strings(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text("output_dir: 2020-01-01\nactivation: {mode: !!timestamp 2020-01-01}\n")
        data = load_config_file(str(p))
        assert data == {"output_dir": "2020-01-01", "activation": {"mode": "2020-01-01"}}
        assert run_config_from_dict({"output_dir": data["output_dir"]}).output_dir == "2020-01-01"
        assert apply_overrides({}, ["output_dir=2020-01-01"]) == {"output_dir": "2020-01-01"}
        p.write_text("seeds: [2020-01-01]\n")
        with pytest.raises(ConfigError, match=r"^seeds: must be a nonempty list of integers$"):
            run_config_from_dict(apply_overrides(load_config_file(str(p)), []))

    @pytest.mark.parametrize("text, message", [
        ("problem: {1: 2, foo: 3}", "problem.1: unknown field"),
        ("problem: {true: 2}", "problem.true: unknown field"),
        ("problem: {1.5: 2}", "problem.1.5: unknown field"),
    ])
    def test_keys_are_spelled_as_json_writes_them(self, tmp_path, text, message):
        p = tmp_path / "cfg.yaml"
        p.write_text(text + "\n")
        for tree in (apply_overrides(load_config_file(str(p)), []),
                     apply_overrides({}, [text.replace(": ", "=", 1)])):
            with pytest.raises(ConfigError) as exc:
                run_config_from_dict(tree)
            assert str(exc.value) == message

    @pytest.mark.parametrize("text, reason", [
        ("output_dir: !!binary aGk=", "could not determine a constructor for the tag 'tag:yaml.org,2002:binary'"),
        ("seeds: !!set {1: null}", "could not determine a constructor for the tag 'tag:yaml.org,2002:set'"),
        ("problem: {? !!binary aGk= : 2}", "could not determine a constructor"),
        ("seeds: &x [1, *x]", "Circular reference detected"),
    ])
    def test_values_no_field_takes_are_yaml_errors(self, tmp_path, text, reason):
        p = tmp_path / "cfg.yaml"
        p.write_text(text + "\n")
        with pytest.raises(ConfigError, match=r"^config: '.*' is not valid YAML/JSON: ") as exc:
            load_config_file(str(p))
        assert reason in str(exc.value)
        override = text.replace(": ", "=", 1)
        with pytest.raises(ConfigError, match=r"^override .*: bad value: ") as exc:
            apply_overrides({}, [override])
        assert reason in str(exc.value)

    def test_a_file_that_is_not_utf8_is_a_config_error(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_bytes(b"problem: {d: 8}\n\xff\xfe\n")
        with pytest.raises(ConfigError, match=r"^config: '.*' is not valid YAML/JSON: 'utf-8' codec"):
            load_config_file(str(p))


class TestRunConfigValidation:
    def test_empty_tree_gives_defaults(self):
        cfg = run_config_from_dict({})
        assert cfg.problem.d == 64
        assert cfg.problem.epsilon == 0.1
        assert cfg.network.topology_kind == "grid2d"
        assert cfg.network.topology.num_nodes == 16
        assert cfg.comms.bits == 16
        assert cfg.channel.drop_prob == 0.0
        assert cfg.activation.mode == "synchronous"
        assert cfg.seeds == (0, 1, 2, 3, 4)
        assert cfg.output_dir == "out"

    @pytest.mark.parametrize("tree, message", [
        ({"problem": {"epsilon": 0.0}}, r"problem\.epsilon: must be > 0"),
        ({"problem": {"epsilon": "fast"}}, r"problem\.epsilon: must be a number"),
        ({"problem": {"d": 1}}, r"problem\.d: must be >= 2"),
        ({"problem": {"d": 3.5}}, r"problem\.d: must be an integer"),
        ({"problem": {"ridge": -1e-3}}, r"problem\.ridge: must be >= 0"),
        ({"problem": {"cost_kind": "euclidean"}}, r"problem\.cost_kind"),
        ({"problem": {"cost_kind": "file"}}, r"problem\.cost_path: required"),
        ({"problem": {"turbo": True}}, r"problem\.turbo: unknown field"),
        ({"network": {"topology_kind": "ring", "params": {"n": 2}}}, r"network\.params"),
        ({"network": {"params": []}}, r"network\.params: must be a mapping"),
        ({"comms": {"delta": -0.5}}, r"comms\.delta: must be >= 0"),
        ({"comms": {"tau_inner": 0}}, r"comms\.tau_inner: must be > 0"),
        ({"comms": {"tau_inner": ".inf"}}, r"comms\.tau_inner: must be finite"),
        ({"comms": {"bits": 2.5}}, r"comms\.bits"),
        ({"comms": {"bits": 0}}, r"comms\.bits: must be an integer in \[1, 32\]"),
        ({"comms": {"inner_step_cap": 0}}, r"comms\.inner_step_cap: must be >= 1"),
        ({"channel": {"drop_prob": 1.0}}, r"channel\.drop_prob: must be in \[0, 1\)"),
        ({"channel": {"drop_prob": -0.1}}, r"channel\.drop_prob: must be >= 0"),
        ({"channel": {"max_staleness": -1}}, r"channel\.max_staleness: must be >= 0"),
        ({"activation": {"p_active": 1.5}}, r"activation\.p_active: must be in \(0, 1\]"),
        ({"activation": {"p_active": 0.0}}, r"activation\.p_active: must be > 0"),
        ({"activation": {"mode": "roundrobin"}}, r"activation\.mode"),
        ({"seeds": []}, r"seeds: must be a nonempty list"),
        ({"seeds": ["a"]}, r"seeds: must be a nonempty list of integers"),
        ({"seeds": [True]}, r"seeds: must be a nonempty list of integers"),
        ({"output_dir": ""}, r"output_dir: must be a nonempty string"),
        ({"output_dir": 7}, r"output_dir: must be a nonempty string"),
        ({"typo_section": {}}, r"config\.typo_section: unknown field"),
        ({"comms": {"quantizer": 8}}, r"comms\.quantizer: unknown field"),
        ({"network": {"topology_kind": "ring", "params": {"n": 6.7}}},
         r"network\.params: n must be an integer"),
        ({"network": {"params": {"rows": 2, "cols": 2.5}}}, r"network\.params: cols must be an integer"),
        ({"network": {"topology_kind": "random_geometric",
                      "params": {"n": 5, "radius": 0.9, "seed": 1.5}}},
         r"network\.params: seed must be an integer"),
        ({"comms": {"tau_outer": "1e-6x"}}, r"^comms\.tau_outer: must be a number"),
        ({"problem": {"cost_path": 5}}, r"^problem\.cost_path: must be a string"),
        ({"network": {"topology_kind": "ring"}}, r"^network\.params: ring needs n$"),
        ({"network": {"params": {"rows": 2}}}, r"^network\.params: grid2d needs cols$"),
        ({"network": {"topology_kind": "random_geometric", "params": {"n": 5}}},
         r"^network\.params: random_geometric needs radius$"),
        ({"network": {"topology_kind": "ring", "params": {"n": 5, "radius": 3}}},
         r"^network\.params: ring does not take radius$"),
        ({"network": {"params": {"rows": 3, "cols": 3, "n": 9}}}, r"^network\.params: grid2d does not take n$"),
        *[({"network": {"topology_kind": "random_geometric", "params": {"n": 5, "radius": radius}}},
           r"^network\.params: radius must be a number > 0, got " + shown + "$")
          for radius, shown in (("x", "'x'"), (True, "True"), (-0.3, r"-0\.3"), (float("nan"), "nan"), (0, "0"))],
        *[({"network": {"topology_kind": "random_geometric", "params": {"n": 5, "radius": 0.9, "max_attempts": k}}},
           rf"^network\.params: max_attempts must be >= 1, got {k}$")
          for k in (0, -2)],
        *[({"network": {"topology_kind": "random_geometric", "params": {"n": k, "radius": 0.5}}},
           rf"^network\.params: n must be >= 1, got {k}$")
          for k in (0, -1)],
    ])
    def test_field_errors_name_the_path(self, tree, message):
        with pytest.raises(ConfigError, match=message):
            run_config_from_dict(tree)

    # (section, fields, constructor message) for one bad input each, None
    # for a top-level field; the first twelve are the inputs on which the
    # two entry points disagreed when config files and the dataclasses each
    # kept a rule set, and the problem, network and top-level rows are
    # inputs the constructors accepted while only files checked them
    BAD_FIELDS = [
        ("comms", {"tau_inner": math.inf}, "tau_inner: must be finite"),
        ("comms", {"tau_outer": math.inf}, "tau_outer: must be finite"),
        ("comms", {"s_min": math.inf}, "s_min: must be finite"),
        ("comms", {"inner_step_cap": 2.5}, "inner_step_cap: must be an integer"),
        ("comms", {"outer_iter_cap": 3.0}, "outer_iter_cap: must be an integer"),
        ("comms", {"delta": "0.1"}, "delta: must be a number"),
        ("comms", {"bits": 40}, "bits: must be an integer in [1, 32] or None (unquantized)"),
        ("comms", {"s_min": 1, "s_max": 0}, "s_max: must be > s_min"),
        ("channel", {"max_staleness": 1.5}, "max_staleness: must be an integer"),
        ("channel", {"drop_prob": "x"}, "drop_prob: must be a number"),
        ("activation", {"p_active": math.nan}, "p_active: must not be NaN"),
        ("activation", {"mode": "x"}, "mode: unknown activation mode 'x'"),
        ("comms", {"delta": -0.5}, "delta: must be >= 0.0"),
        ("comms", {"delta": math.nan}, "delta: must not be NaN"),
        ("comms", {"delta": True}, "delta: must be a number"),
        ("comms", {"tau_inner": 0.0}, "tau_inner: must be > 0.0"),
        ("comms", {"tau_outer": "1e-6x"}, "tau_outer: must be a number"),
        ("comms", {"bits": 0}, "bits: must be an integer in [1, 32] or None (unquantized)"),
        ("comms", {"bits": 2.5}, "bits: must be an integer in [1, 32] or None (unquantized)"),
        ("comms", {"bits": True}, "bits: must be an integer in [1, 32] or None (unquantized)"),
        ("comms", {"s_max": -math.inf}, "s_max: must be finite"),
        ("comms", {"s_min": 5.0, "s_max": 5.0}, "s_max: must be > s_min"),
        ("comms", {"inner_step_cap": 0}, "inner_step_cap: must be >= 1"),
        ("comms", {"outer_iter_cap": "7"}, "outer_iter_cap: must be an integer"),
        ("channel", {"drop_prob": 1.0}, "drop_prob: must be in [0, 1)"),
        ("channel", {"drop_prob": -0.1}, "drop_prob: must be >= 0.0"),
        ("channel", {"drop_prob": math.inf}, "drop_prob: must be finite"),
        ("channel", {"max_staleness": -1}, "max_staleness: must be >= 0"),
        ("activation", {"p_active": 0.0}, "p_active: must be > 0.0"),
        ("activation", {"p_active": 1.5}, "p_active: must be in (0, 1]"),
        ("activation", {"p_active": "half"}, "p_active: must be a number"),
        ("activation", {"mode": 3}, "mode: unknown activation mode 3"),
        ("problem", {"d": 1}, "d: must be >= 2"),
        ("problem", {"d": 3.5}, "d: must be an integer"),
        ("problem", {"epsilon": 0}, "epsilon: must be > 0.0"),
        ("problem", {"epsilon": -0.5}, "epsilon: must be > 0.0"),
        ("problem", {"epsilon": "fast"}, "epsilon: must be a number"),
        ("problem", {"ridge": -1e-3}, "ridge: must be >= 0.0"),
        ("problem", {"cost_kind": "euclidean"}, "cost_kind: must be 'grid_squared' or 'file'"),
        ("problem", {"cost_kind": "file"}, "cost_path: required when cost_kind is 'file'"),
        ("problem", {"cost_kind": "file", "cost_path": ""}, "cost_path: required when cost_kind is 'file'"),
        ("problem", {"cost_path": 5}, "cost_path: must be a string"),
        ("problem", {"density_seed": 1.5}, "density_seed: must be an integer"),
        ("network", {"params": []}, "params: must be a mapping"),
        ("network", {"topology_kind": "ring", "params": {"n": 2}}, "params: ring needs enough nodes"),
        ("network", {"topology_kind": "ring"}, "params: ring needs n"),
        ("network", {"topology_kind": "mesh"}, "params: unknown topology kind: 'mesh'"),
        ("network", {"params": {"rows": 2, "cols": 2.5}}, "params: cols must be an integer, got 2.5"),
        (None, {"seeds": ()}, "seeds: must be a nonempty list of integers"),
        (None, {"seeds": [True]}, "seeds: must be a nonempty list of integers"),
        (None, {"seeds": ["a"]}, "seeds: must be a nonempty list of integers"),
        (None, {"seeds": 3}, "seeds: must be a nonempty list of integers"),
        (None, {"output_dir": ""}, "output_dir: must be a nonempty string"),
        (None, {"output_dir": 7}, "output_dir: must be a nonempty string"),
    ]
    SECTIONS = {"problem": ProblemSpec, "network": NetworkSpec, "comms": CommsConfig,
                "channel": ChannelModel, "activation": ActivationModel, None: RunConfig}

    @pytest.mark.parametrize("section, values, message", BAD_FIELDS)
    def test_one_rule_set_for_both_entry_points(self, section, values, message):
        with pytest.raises(ValueError) as api:
            self.SECTIONS[section](**values)
        assert str(api.value) == message
        with pytest.raises(ConfigError) as file:
            run_config_from_dict(values if section is None else {section: values})
        assert str(file.value) == (message if section is None else f"{section}.{message}")

    def test_quantized_config_with_fractional_inner_cap_raises(self):
        # the Python API used to accept this, and a run with it never returned
        with pytest.raises(ValueError, match=r"^inner_step_cap: must be an integer$"):
            CommsConfig(bits=12, inner_step_cap=2.5)

    def test_checked_values_are_stored_as_floats_and_ints(self):
        comms = CommsConfig(delta=0, tau_inner=np.float32(0.5), bits=np.int64(8), s_min=-1, inner_step_cap=np.int32(3))
        assert [type(getattr(comms, name)) for name in ("delta", "tau_inner", "bits", "s_min", "inner_step_cap")] == [
            float, float, int, float, int]
        assert type(ChannelModel(drop_prob=0).drop_prob) is float
        assert type(ActivationModel(p_active=1).p_active) is float
        assert CommsConfig(delta=np.inf).delta == math.inf
        problem = ProblemSpec(d=np.int64(8), epsilon=np.float32(0.5), ridge=0, density_seed=np.int32(3))
        assert [type(getattr(problem, name)) for name in ("d", "epsilon", "ridge", "density_seed")] == [
            int, float, float, int]
        params = {"n": 5}
        network = NetworkSpec("ring", MappingProxyType(params))
        assert type(network.params) is dict and network.params == params
        params["n"] = 2  # the spec holds its own copy
        assert network.topology.num_nodes == 5
        cfg = RunConfig(seeds=[np.int64(3), 4])
        assert cfg.seeds == (3, 4) and [type(s) for s in cfg.seeds] == [int, int]

    def test_bits_unquantized_sentinel(self):
        assert run_config_from_dict({"comms": {"bits": "unquantized"}}).comms.bits is None
        assert run_config_from_dict({"comms": {"bits": None}}).comms.bits is None

    def test_infinite_delta_spellings(self):
        for raw in ("inf", ".inf", "Infinity"):
            cfg = run_config_from_dict({"comms": {"delta": raw}})
            assert np.isinf(cfg.comms.delta)

    def test_non_square_custom_network(self):
        cfg = run_config_from_dict(
            {"network": {"topology_kind": "ring", "params": {"n": 7}}}
        )
        assert cfg.network.topology.num_nodes == 7
        assert build_topology_from_spec(cfg.network) is cfg.network.topology

    def test_seeds_tuple_accepted(self):
        assert run_config_from_dict({"seeds": (3, 4)}).seeds == (3, 4)


class TestResolvedDict:
    def test_empty_tree_golden(self):
        # pins the key order and every default of config_resolved.json
        assert json.dumps(run_config_from_dict({}).resolved_dict()) == (
            '{"problem": {"d": 64, "epsilon": 0.1, "ridge": 1e-16, "cost_kind": "grid_squared", '
            '"cost_path": null, "density_seed": 7}, '
            '"network": {"topology_kind": "grid2d", "params": {"rows": 4, "cols": 4}}, '
            '"comms": {"delta": 0.001, "tau_inner": 0.0001, "tau_outer": 1e-06, "bits": 16, '
            '"s_min": -30.0, "s_max": 30.0, "inner_step_cap": 200, "outer_iter_cap": 500}, '
            '"channel": {"drop_prob": 0.0, "max_staleness": 0}, '
            '"activation": {"mode": "synchronous", "p_active": 1.0}, '
            '"seeds": [0, 1, 2, 3, 4], "output_dir": "out"}'
        )
        assert run_config_from_dict({}) == RunConfig()

    def test_round_trip_defaults(self):
        cfg = run_config_from_dict({})
        assert run_config_from_dict(cfg.resolved_dict()) == cfg

    def test_round_trip_sentinels(self):
        cfg = run_config_from_dict(
            {"comms": {"delta": ".inf", "bits": "unquantized"},
             "network": {"topology_kind": "complete", "params": {"n": 4}},
             "activation": {"mode": "randomized_subset", "p_active": 0.5}}
        )
        resolved = cfg.resolved_dict()
        assert resolved["comms"]["delta"] == ".inf"
        assert resolved["comms"]["bits"] == "unquantized"
        assert run_config_from_dict(resolved) == cfg

    def test_round_trip_every_section(self):
        cfg = run_config_from_dict(
            {"problem": {"d": 8, "epsilon": 0.3, "density_seed": 2},
             "network": {"topology_kind": "ring", "params": {"n": 5}},
             "comms": {"delta": 0.0, "bits": 12, "s_min": -20.0, "inner_step_cap": 7},
             "channel": {"drop_prob": 0.1, "max_staleness": 2},
             "activation": {"mode": "randomized_pairwise"},
             "seeds": [4], "output_dir": "elsewhere"}
        )
        assert run_config_from_dict(cfg.resolved_dict()) == cfg

    def test_resolved_tree_is_json_serializable(self):
        cfg = run_config_from_dict({"comms": {"delta": "inf"}})
        text = json.dumps(cfg.resolved_dict())
        assert "Infinity" not in text  # the sentinel string survives, not the float


class TestMixtureHistograms:
    @pytest.mark.parametrize("d", [8, 64, 256, 512])
    @pytest.mark.parametrize("density_seed", [0, 1, 2])
    def test_matches_scipy_ndtr(self, d, density_seed, monkeypatch):
        # Cell masses are differences of CDF values, so libm's erf and
        # scipy's (<= 5e-14 apart) can differ by ~1e-11 relative in a single
        # small cell; the whole histogram, of total mass 1, agrees to 1e-12.
        ours = mixture_histograms(d, 8, density_seed)
        monkeypatch.setattr(cfgmod, "_ndtr", ndtr)
        theirs = mixture_histograms(d, 8, density_seed)
        for a, b in zip(ours, theirs):
            assert np.abs(a.weights - b.weights).sum() <= 1e-12

    def test_deterministic(self):
        a = mixture_histograms(32, 3, density_seed=7)
        b = mixture_histograms(32, 3, density_seed=7)
        for ha, hb in zip(a, b):
            assert np.array_equal(ha.weights, hb.weights)

    def test_seed_changes_output(self):
        a = mixture_histograms(32, 1, density_seed=7)[0]
        b = mixture_histograms(32, 1, density_seed=8)[0]
        assert not np.allclose(a.weights, b.weights)

    def test_on_simplex(self):
        for h in mixture_histograms(48, 5, density_seed=3):
            assert h.weights.min() >= 0.0
            assert h.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_prefix_stable_in_agent_count(self):
        # agent k's histogram does not depend on how many agents follow it
        small = mixture_histograms(24, 3, density_seed=7)
        large = mixture_histograms(24, 6, density_seed=7)
        for hs, hl in zip(small, large):
            assert np.array_equal(hs.weights, hl.weights)

    def test_density_independent_of_grid(self):
        # the same continuous mixture discretized at two resolutions:
        # first moments must agree closely
        coarse = mixture_histograms(64, 4, density_seed=7)
        fine = mixture_histograms(512, 4, density_seed=7)
        for hc, hf in zip(coarse, fine):
            mean_c = float(np.linspace(0, 1, 64) @ hc.weights)
            mean_f = float(np.linspace(0, 1, 512) @ hf.weights)
            assert abs(mean_c - mean_f) < 2e-3


class TestBuildInstance:
    def test_default_grid_instance(self):
        cfg = run_config_from_dict({"problem": {"d": 16},
                                    "network": {"topology_kind": "complete",
                                                "params": {"n": 3}}})
        inst = build_instance(cfg)
        assert inst.support_size == 16
        assert inst.num_agents == 3
        assert inst.cost.max_entry == 1.0

    def test_cost_from_file(self, tmp_path):
        entries = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0))) / 5.0
        path = tmp_path / "cost.npy"
        np.save(path, entries)
        cfg = run_config_from_dict(
            {"problem": {"d": 6, "cost_kind": "file", "cost_path": str(path)},
             "network": {"topology_kind": "complete", "params": {"n": 3}}}
        )
        inst = build_instance(cfg)
        assert_allclose(inst.cost.entries, entries)

    def test_cost_file_shape_mismatch(self, tmp_path):
        path = tmp_path / "cost.npy"
        np.save(path, np.zeros((4, 4)))
        cfg = run_config_from_dict(
            {"problem": {"d": 6, "cost_kind": "file", "cost_path": str(path)},
             "network": {"topology_kind": "complete", "params": {"n": 3}}}
        )
        with pytest.raises(ConfigError, match="expected shape"):
            build_instance(cfg)

    @pytest.mark.parametrize("write, message", [
        (None, r"No such file"),
        (lambda fh: fh.write(b"not an array\n" * 8), r"pickled \(object\) data"),
        (lambda fh: None, r"No data left in file"),
        (lambda fh: np.save(fh, -np.ones((6, 6))), r"cost entries must be finite and >= 0"),
        (lambda fh: np.save(fh, np.array([[1, "a"]] * 3, dtype=object)), r"allow_pickle=False"),
        (lambda fh: np.savez(fh, np.zeros((6, 6))), r"expected a \.npy array"),
    ])
    def test_bad_cost_file_names_the_path(self, tmp_path, write, message):
        path = tmp_path / "cost.npy"
        if write is not None:
            with open(path, "wb") as fh:
                write(fh)
        cfg = run_config_from_dict(
            {"problem": {"d": 6, "cost_kind": "file", "cost_path": str(path)},
             "network": {"topology_kind": "complete", "params": {"n": 3}}}
        )
        with pytest.raises(ConfigError, match=r"^problem\.cost_path: .*" + message):
            build_instance(cfg)

    def test_agent_count_follows_topology(self):
        cfg = run_config_from_dict({})  # 4x4 grid
        assert build_instance(cfg).num_agents == 16
        assert build_topology_from_spec(cfg.network).num_nodes == 16
