"""Transmission rules shared by every agent: the comms configuration,
payload clipping and b-bit quantization, and the packet wire size.

Transmission is event triggered: the trigger fires when an agent's
gossip variable z has drifted more than delta (sup norm) from the
dequantized payload it last sent, and a packet goes out only if the new
payload differs from that last one in at least one entry. When
delta_q > delta the trigger can fire while z still quantizes to the
payload already sent; that payload is not sent again. A threshold
0 < delta <= delta_q/2 is inert: it sends exactly what delta = 0 sends
(``CommsConfig.inert_delta``). Payloads are always clipped to
[s_min, s_max] and quantized; local state stays full precision. The
round itself lives in :mod:`dsinkhorn.engine`.
"""

import math
import struct
from dataclasses import dataclass
from functools import partial

import numpy as np

from .netsim import _integer, _is_int, _number

__all__ = ["CommsConfig", "ClipRangeError", "clip_log", "quantize", "packet_wire_size"]

_HEADER = struct.Struct("<IIIBI")  # sender, outer_iter, inner_step, bits, d


class ClipRangeError(ValueError):
    """Raised when z has entries that overflow exp(); tighten the clip range."""


@dataclass(frozen=True)
class CommsConfig:
    """Trigger, stopping, and quantization parameters.

    bits=None means unquantized payloads (8-byte floats on the wire);
    delta may be 0 (always transmit on any change) or +inf (only the
    bootstrap packet is ever sent). A quantized delta of at most
    delta_q/2 is inert (``inert_delta``). A bad field raises
    ``ValueError("<field>: <rule>")``, for config files and callers alike.
    """

    delta: float = 1e-3
    tau_inner: float = 1e-4
    tau_outer: float = 1e-6
    bits: int | None = 16
    s_min: float = -30.0
    s_max: float = 30.0
    inner_step_cap: int = 200
    outer_iter_cap: int = 500

    def __post_init__(self):
        keep = partial(object.__setattr__, self)  # frozen: store each checked value
        keep("delta", math.inf if self.delta == math.inf else _number("delta", self.delta, minimum=0.0))
        for name in ("tau_inner", "tau_outer"):
            keep(name, _number(name, getattr(self, name), strict_min=0.0))
        if self.bits is not None:
            if not (_is_int(self.bits) and 1 <= self.bits <= 32):
                raise ValueError("bits: must be an integer in [1, 32] or None (unquantized)")
            keep("bits", int(self.bits))
        keep("s_min", _number("s_min", self.s_min))
        keep("s_max", _number("s_max", self.s_max))
        if not self.s_min < self.s_max:
            raise ValueError("s_max: must be > s_min")
        for name in ("inner_step_cap", "outer_iter_cap"):
            keep(name, _integer(name, getattr(self, name), minimum=1))

    @property
    def num_levels(self) -> int:
        return 0 if self.bits is None else (1 << int(self.bits))

    @property
    def delta_q(self) -> float:
        """Worst-case quantization error: half the level spacing, 0 if unquantized."""
        if self.bits is None:
            return 0.0
        return (self.s_max - self.s_min) / (2.0 * (self.num_levels - 1))

    @property
    def inert_delta(self) -> bool:
        """True when delta > 0 sends exactly what delta = 0 sends.

        The last payload sent is a quantizer level. A node within delta <=
        delta_q/2 (a quarter of the level spacing) of it does not fire, but
        if it fired at delta = 0, clipping, which never moves an entry away
        from a point of the range, would keep it that close to the level,
        and the quantizer would map it back onto that level, a payload the
        repeat rule does not send. At delta_q/2 the quantizer's margin is
        still a quarter step; it vanishes as delta approaches delta_q.
        """
        return 0 < self.delta <= self.delta_q / 2


def clip_log(values: np.ndarray, s_min: float, s_max: float) -> np.ndarray:
    """Clamp entries into [s_min, s_max] (a copy; locals are never clipped in place)."""
    return np.clip(values, s_min, s_max)


def quantize(values: np.ndarray, config: CommsConfig) -> np.ndarray:
    """Map each entry to the nearest of the 2^bits uniform levels over
    [s_min, s_max], ties resolved toward the lower level.

    Entries are expected to be pre-clipped; anything outside the range is
    clamped to the boundary level. Unquantized configs return the values
    unchanged. Idempotent: levels map to themselves exactly.
    """
    values = np.asarray(values, dtype=np.float64)
    if config.bits is None:
        return values.copy()
    n = config.num_levels - 1
    step = (config.s_max - config.s_min) / n
    k = np.asarray(values - config.s_min)  # one scratch array, updated in place
    k /= step
    k -= 0.5
    np.ceil(k, out=k)  # nearest level, exact halves round down
    np.clip(k, 0, n, out=k)
    k *= step
    k += config.s_min
    return k


def packet_wire_size(d: int, bits: int | None) -> int:
    """Serialized size in bytes: 17-byte header plus d fixed-width entries."""
    entry = 8 if bits is None else (int(bits) + 7) // 8
    return _HEADER.size + d * entry
