"""Tests for the transmission rules (comms config, clip, quantizer, wire size)
and for the per-agent reference ops: trigger, wire format, gossip, stopping."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dsinkhorn import otcore
from dsinkhorn.protocol import (
    _HEADER,
    ClipRangeError,
    CommsConfig,
    clip_log,
    packet_wire_size,
    quantize,
)
import reference
from reference import (
    AgentState,
    Packet,
    gossip_step,
    inner_converged,
    local_scaling_update,
    maybe_transmit,
    normalize_scale,
    outer_converged,
    pack_packet,
    reseed_inner,
    unpack_packet,
)


def _flat_kernel(d):
    return otcore.build_gibbs_kernel(otcore.CostMatrix(np.zeros((d, d))), epsilon=1.0)


def _agent(z, agent_id=0):
    z = np.asarray(z, dtype=np.float64)
    return AgentState(agent_id=agent_id, u=np.ones(z.size), s=np.zeros(z.size), z=z.copy())


def _packet(sender, payload):
    return Packet(sender=sender, payload=np.asarray(payload, dtype=np.float64),
                  outer_iter=0, inner_step=0)


class TestCommsConfig:
    def test_defaults(self):
        c = CommsConfig()
        assert c.delta == 1e-3
        assert c.bits == 16
        assert c.num_levels == 1 << 16

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            CommsConfig(delta=-1e-6)

    def test_rejects_nan_delta(self):
        with pytest.raises(ValueError):
            CommsConfig(delta=np.nan)

    def test_infinite_delta_allowed(self):
        c = CommsConfig(delta=np.inf)
        assert c.delta == np.inf

    @pytest.mark.parametrize("field, value", [
        ("tau_inner", 0.0),
        ("tau_inner", -1.0),
        ("tau_outer", 0.0),
        ("bits", 0),
        ("bits", 33),
        ("bits", 2.5),
        ("inner_step_cap", 0),
        ("outer_iter_cap", 0),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError):
            CommsConfig(**{field: value})

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            CommsConfig(s_min=5.0, s_max=5.0)

    def test_delta_q_one_bit(self):
        c = CommsConfig(bits=1, s_min=0.0, s_max=1.0)
        assert c.num_levels == 2
        assert c.delta_q == 0.5

    def test_delta_q_eight_bits(self):
        c = CommsConfig(bits=8, s_min=-10.0, s_max=10.0)
        assert c.delta_q == pytest.approx(0.0392156862745098, rel=1e-15)

    def test_unquantized_has_zero_gap(self):
        c = CommsConfig(bits=None)
        assert c.num_levels == 0
        assert c.delta_q == 0.0


class TestClipLog:
    def test_clamps_both_sides(self):
        out = clip_log(np.array([15.0, -1e308, 3.0]), -10.0, 10.0)
        assert_allclose(out, np.array([10.0, -10.0, 3.0]))

    def test_returns_copy(self):
        x = np.array([1.0, 2.0])
        out = clip_log(x, -10.0, 10.0)
        out[0] = 99.0
        assert x[0] == 1.0


class TestQuantize:
    def test_one_bit_endpoints_and_tie(self):
        c = CommsConfig(bits=1, s_min=0.0, s_max=1.0)
        assert quantize(np.array([0.4]), c)[0] == 0.0
        # exact midpoint resolves to the lower level
        assert quantize(np.array([0.5]), c)[0] == 0.0
        assert quantize(np.array([0.6]), c)[0] == 1.0

    def test_four_bit_value(self):
        c = CommsConfig(bits=4, s_min=-1.0, s_max=1.0)
        out = quantize(np.array([0.3]), c)
        assert out[0] == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_midgap_resolves_down(self):
        # 0.0 sits exactly between two 8-bit levels of [-30, 30]
        c = CommsConfig(bits=8, s_min=-30.0, s_max=30.0)
        out = quantize(np.array([0.0]), c)
        assert out[0] == pytest.approx(-30.0 + 127 * 60.0 / 255.0, rel=1e-14)
        assert out[0] < 0.0

    @pytest.mark.parametrize("bits", [1, 4, 8, 16])
    def test_error_within_half_step(self, bits):
        c = CommsConfig(bits=bits, s_min=-5.0, s_max=5.0)
        rng = np.random.default_rng(bits)
        x = rng.uniform(-5.0, 5.0, size=2000)
        q = quantize(x, c)
        assert np.abs(q - x).max() <= c.delta_q + 1e-15

    @pytest.mark.parametrize("bits", [1, 4, 8, 16])
    def test_idempotent(self, bits):
        c = CommsConfig(bits=bits, s_min=-5.0, s_max=5.0)
        rng = np.random.default_rng(100 + bits)
        x = rng.uniform(-5.0, 5.0, size=500)
        q = quantize(x, c)
        assert np.array_equal(quantize(q, c), q)

    def test_out_of_range_clamps_to_boundary_level(self):
        c = CommsConfig(bits=4, s_min=-1.0, s_max=1.0)
        out = quantize(np.array([3.0, -3.0]), c)
        assert_allclose(out, np.array([1.0, -1.0]))

    def test_unquantized_returns_copy(self):
        c = CommsConfig(bits=None)
        x = np.array([0.123, -4.56])
        out = quantize(x, c)
        assert np.array_equal(out, x)
        out[0] = 9.0
        assert x[0] == 0.123


def _bits_equal(a, b) -> bool:
    """Same shape, dtype and bits (NaN payloads and the sign of zero included)."""
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


# clip ranges: the default, zero bounds on either side, s_min = -0.0, and a
# 4-bit range whose step is exactly 1, so that its half steps are exact ties
_RANGES = [(-30.0, 30.0), (0.0, 1.0), (-1.0, 0.0), (-0.0, 1.0), (-0.0, 15.0), (-5.0, 5.0)]


def _table(s_min, s_max, step):
    """Edge values for one clip range and quantizer step."""
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, s_min, s_max, np.nextafter(s_min, -np.inf),
                np.nextafter(s_max, np.inf), s_min - 1.0, s_max + 1.0, 1e308, -1e308]
    halves = s_min + (np.arange(5) + 0.5) * step
    shaped = np.random.default_rng(7).uniform(s_min - 1.0, s_max + 1.0, (3, 8))
    return [np.array(specials), halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf), shaped]


class TestAgainstReferenceFormulas:
    """``clip_log`` and ``quantize`` against the np.clip formulas in
    ``tests/reference.py``, bit for bit."""

    @pytest.mark.parametrize("s_min, s_max", _RANGES)
    def test_clip_log(self, s_min, s_max):
        for values in _table(s_min, s_max, (s_max - s_min) / 7) + [[1, -3, 40], np.arange(-4, 5), 3]:
            got, want = clip_log(values, s_min, s_max), reference.clip_log(values, s_min, s_max)
            assert _bits_equal(np.asarray(got), np.asarray(want)), values

    @pytest.mark.parametrize("s_min, s_max", _RANGES)
    @pytest.mark.parametrize("bits", [None, 1, 4, 8, 12, 16, 32])
    @pytest.mark.filterwarnings("ignore:overflow encountered")  # +-1e308 over a small step
    def test_quantize(self, bits, s_min, s_max):
        c = CommsConfig(bits=bits, s_min=s_min, s_max=s_max)
        step = (s_max - s_min) / (c.num_levels - 1) if bits else 1.0
        table = _table(s_min, s_max, step) + [[1, -3, 40], [0.5, 2.5, -0.0], np.arange(-4, 5), 3, 2.5]
        for values in table:
            for x in (values, clip_log(values, s_min, s_max)):
                assert _bits_equal(quantize(x, c), reference.quantize(x, c)), (x, c)

    def test_the_table_has_exact_ties(self):
        # 2.5 lies halfway between the 4-bit levels 2 and 3 of [-0.0, 15]:
        # a quantizer that rounds ties up differs from the formula there
        c = CommsConfig(bits=4, s_min=-0.0, s_max=15.0)
        assert reference.quantize([2.5], c).tolist() == [2.0]
        # and at s_min = -0.0 the level 0 keeps its sign through np.clip
        assert np.signbit(reference.quantize([-0.0, 0.0, 0.3], c)).tolist() == [True, True, True]


class TestWireFormat:
    def test_header_is_seventeen_bytes(self):
        assert _HEADER.size == 17

    @pytest.mark.parametrize("bits, entry_bytes", [(1, 1), (8, 1), (12, 2), (16, 2), (None, 8)])
    def test_wire_size(self, bits, entry_bytes):
        assert packet_wire_size(5, bits) == 17 + 5 * entry_bytes

    @pytest.mark.parametrize("bits", [1, 8, 12, 16, None])
    def test_roundtrip_exact(self, bits):
        c = CommsConfig(bits=bits, s_min=-8.0, s_max=8.0)
        rng = np.random.default_rng(7 if bits is None else bits)
        z = rng.uniform(-8.0, 8.0, size=6)
        payload = quantize(clip_log(z, c.s_min, c.s_max), c)
        pkt = Packet(sender=3, payload=payload, outer_iter=7, inner_step=11)
        blob = pack_packet(pkt, c)
        assert len(blob) == packet_wire_size(6, bits)
        back = unpack_packet(blob, c)
        assert back.sender == 3
        assert back.outer_iter == 7
        assert back.inner_step == 11
        assert np.array_equal(back.payload, payload)

    def test_rejects_non_level_payload(self):
        c = CommsConfig(bits=8, s_min=-1.0, s_max=1.0)
        pkt = Packet(sender=0, payload=np.array([0.05]), outer_iter=0, inner_step=0)
        with pytest.raises(ValueError):
            pack_packet(pkt, c)


class TestLocalScalingUpdate:
    def test_flat_kernel_uniform(self):
        # C = 0, mu uniform on 3 points, z = 0: Kv = 3, u = 1/9, s = -log 3
        kernel = _flat_kernel(3)
        state = AgentState.initialize(0, kernel)
        mu = otcore.Histogram(np.full(3, 1.0 / 3.0))
        local_scaling_update(state, mu, kernel, ridge=0.0)
        assert_allclose(state.u, np.full(3, 1.0 / 9.0), rtol=1e-15)
        assert_allclose(state.s, np.full(3, -np.log(3.0)), rtol=1e-14)

    def test_deterministic(self):
        kernel = otcore.build_gibbs_kernel(otcore.grid_cost(8), epsilon=0.6)
        mu = otcore.Histogram(np.full(8, 0.125))
        rng = np.random.default_rng(1)
        z = rng.normal(size=8)
        a = _agent(z)
        b = _agent(z)
        local_scaling_update(a, mu, kernel, ridge=1e-16)
        local_scaling_update(b, mu, kernel, ridge=1e-16)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.s, b.s)

    def test_zero_mass_entry(self):
        kernel = _flat_kernel(2)
        state = _agent([0.0, 0.0])
        local_scaling_update(state, otcore.Histogram(np.array([1.0, 0.0])), kernel, 1e-16)
        assert state.u[1] == 0.0
        assert np.all(np.isfinite(state.s))

    def test_overflow_raises_clip_error(self):
        kernel = _flat_kernel(2)
        state = _agent([800.0, 0.0], agent_id=4)
        with pytest.raises(ClipRangeError, match="agent 4"):
            local_scaling_update(state, otcore.Histogram(np.array([0.5, 0.5])), kernel, 1e-16)


class TestReseedAndNormalize:
    def test_reseed_copies_s(self):
        state = _agent([1.0, 2.0])
        state.s = np.array([5.0, 7.0])
        reseed_inner(state)
        assert np.array_equal(state.z, state.s)
        state.z[0] = -1.0
        assert state.s[0] == 5.0  # copy, not alias

    def test_reseed_idempotent(self):
        state = _agent([1.0, 2.0])
        state.s = np.array([5.0, 7.0])
        reseed_inner(state)
        first = state.z.copy()
        reseed_inner(state)
        assert np.array_equal(state.z, first)

    def test_normalize_removes_mean(self):
        state = _agent([1.0, 2.0, 6.0])
        normalize_scale(state)
        assert state.z.mean() == pytest.approx(0.0, abs=1e-15)
        assert_allclose(state.z, np.array([-2.0, -1.0, 3.0]))


class TestTrigger:
    def test_first_call_fires(self):
        state = _agent([0.1, -0.2])
        pkt = maybe_transmit(state, CommsConfig(delta=np.inf, bits=None))
        assert pkt is not None
        assert state.messages_sent == 1
        assert np.array_equal(state.z_last_tx, state.z)

    def test_infinite_delta_fires_once(self):
        state = _agent([0.0, 0.0])
        config = CommsConfig(delta=np.inf, bits=None)
        assert maybe_transmit(state, config) is not None
        for step in range(5):
            state.z = state.z + 100.0
            assert maybe_transmit(state, config) is None
        assert state.messages_sent == 1

    def test_below_threshold_stays_silent(self):
        config = CommsConfig(delta=0.1, bits=None)
        state = _agent([0.0, 0.0])
        maybe_transmit(state, config)
        state.z = np.array([0.05, 0.0])
        assert maybe_transmit(state, config) is None
        assert state.messages_sent == 1

    def test_exact_threshold_is_silent(self):
        # drift == delta does not fire: the comparison is strict
        config = CommsConfig(delta=0.5, bits=None)
        state = _agent([0.0, 0.0])
        maybe_transmit(state, config)
        state.z = np.array([0.5, 0.0])
        assert maybe_transmit(state, config) is None
        state.z = np.array([0.5 + 1e-12, 0.0])
        assert maybe_transmit(state, config) is not None

    def test_zero_delta_fires_on_any_move(self):
        config = CommsConfig(delta=0.0, bits=None)
        state = _agent([0.0, 0.0])
        maybe_transmit(state, config)
        assert maybe_transmit(state, config) is None  # no movement: 0 > 0 is false
        state.z = np.array([1e-15, 0.0])
        assert maybe_transmit(state, config) is not None

    def test_payload_is_clipped_and_quantized(self):
        config = CommsConfig(delta=0.0, bits=4, s_min=-1.0, s_max=1.0)
        state = _agent([0.3, 5.0])
        pkt = maybe_transmit(state, config)
        assert_allclose(pkt.payload, np.array([1.0 / 3.0, 1.0]), rtol=1e-14)
        assert np.array_equal(state.z_last_tx, pkt.payload)
        assert np.array_equal(state.trigger_anchor, pkt.payload)

    def test_trigger_compares_against_sent_payload(self):
        # after a quantized broadcast the reference point is the dequantized
        # payload, not the raw z at transmit time
        config = CommsConfig(delta=0.2, bits=1, s_min=0.0, s_max=1.0)
        state = _agent([0.4])
        maybe_transmit(state, config)  # payload quantizes to 0.0
        assert state.z_last_tx[0] == 0.0
        state.z = np.array([0.55])  # 0.55 from the payload but 0.15 from old z
        pkt = maybe_transmit(state, config)
        assert pkt is not None and pkt.payload[0] == 1.0

    def test_fired_trigger_does_not_resend_the_same_payload(self):
        # z = 0.25 is 0.25 > delta from the sent 0.0 but quantizes back to
        # 0.0 at 1 bit: the trigger fires and nothing goes out
        config = CommsConfig(delta=0.2, bits=1, s_min=0.0, s_max=1.0)
        state = _agent([0.4])
        maybe_transmit(state, config)
        state.z = np.array([0.25])
        assert maybe_transmit(state, config) is None
        assert state.messages_sent == 1
        assert np.array_equal(state.z_last_tx, [0.0])
        assert np.array_equal(state.trigger_anchor, [0.25])

    def test_variation_accumulates_between_evaluations(self):
        config = CommsConfig(delta=1.0, bits=None)
        state = _agent([0.0])
        maybe_transmit(state, config)  # anchor = payload = 0
        state.z = np.array([0.3])
        maybe_transmit(state, config)
        assert state.variation_accum == pytest.approx(0.3)
        state.z = np.array([0.5])
        maybe_transmit(state, config)
        assert state.variation_accum == pytest.approx(0.5)
        assert state.messages_sent == 1

    def test_broadcast_budget_random_walk(self):
        # messages <= 1 + ceil(variation / delta) along any monitored path
        rng = np.random.default_rng(42)
        for trial in range(20):
            delta = float(rng.uniform(0.05, 0.5))
            config = CommsConfig(delta=delta, bits=None)
            state = _agent(np.zeros(4))
            maybe_transmit(state, config, force=True)
            for step in range(60):
                state.z = state.z + rng.normal(scale=0.1, size=4)
                maybe_transmit(state, config)
            budget = 1 + int(np.ceil(state.variation_accum / delta))
            assert state.messages_sent <= budget


class TestGossipStep:
    def test_two_node_average(self):
        state = _agent([1.0, 3.0], agent_id=0)
        state.neighbor_cache[1] = _packet(1, [3.0, 5.0])
        gossip_step(state, np.array([0.5, 0.5]))
        assert_allclose(state.z, np.array([2.0, 4.0]))

    def test_path_center_averages_three(self):
        state = _agent([3.0], agent_id=1)
        state.neighbor_cache[0] = _packet(0, [2.0])
        state.neighbor_cache[2] = _packet(2, [4.0])
        gossip_step(state, np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]))
        assert state.z[0] == pytest.approx(3.0, rel=1e-15)

    def test_consensus_is_fixed_point(self):
        z = np.array([0.7, -0.4])
        state = _agent(z, agent_id=0)
        state.neighbor_cache[1] = _packet(1, z)
        state.neighbor_cache[2] = _packet(2, z)
        gossip_step(state, np.array([0.2, 0.5, 0.3]))
        assert_allclose(state.z, z, rtol=1e-15)

    def test_missing_cache_raises(self):
        state = _agent([1.0], agent_id=0)
        with pytest.raises(RuntimeError, match="no cached packet"):
            gossip_step(state, np.array([0.5, 0.5]))

    def test_zero_weight_neighbor_not_required(self):
        state = _agent([1.0], agent_id=0)
        state.neighbor_cache[1] = _packet(1, [2.0])
        gossip_step(state, np.array([0.5, 0.5, 0.0]))  # node 2 silent but weight 0
        assert state.z[0] == pytest.approx(1.5)


class TestStoppingRules:
    def test_empty_cache_is_converged(self):
        assert inner_converged(_agent([1.0]), CommsConfig())

    def test_tight_cache_converges(self):
        config = CommsConfig(tau_inner=1e-4)
        state = _agent([1.0, 2.0])
        state.neighbor_cache[1] = _packet(1, [1.0, 2.0 + 5e-5])
        assert inner_converged(state, config)

    def test_loose_cache_does_not(self):
        config = CommsConfig(tau_inner=1e-4)
        state = _agent([1.0, 2.0])
        state.neighbor_cache[1] = _packet(1, [1.0, 2.0 + 2e-4])
        assert not inner_converged(state, config)

    def test_quantization_floor_blocks_convergence(self):
        # z between levels: the cached payload sits a quantization gap away,
        # so a tau below that gap can never be met
        config = CommsConfig(tau_inner=1e-3, bits=4, s_min=-1.0, s_max=1.0, delta=0.0)
        state = _agent([0.3])
        pkt = maybe_transmit(state, config, force=True)
        state.neighbor_cache[1] = pkt
        assert not inner_converged(state, config)

    def test_outer_strict_inequality(self):
        config = CommsConfig(tau_outer=1e-6)
        prev = np.zeros(3)
        assert not outer_converged(prev, np.array([0.0, 1e-6, 0.0]), config)
        assert outer_converged(prev, np.array([0.0, 9.9e-7, 0.0]), config)
