"""Transmission rules shared by every agent: the comms configuration,
payload clipping and b-bit quantization, and the packet wire size.

Transmission is event triggered: a packet goes out only when an agent's
gossip variable z has drifted more than delta (sup norm) from the
dequantized value its neighbors currently hold. Payloads are always
clipped to [s_min, s_max] and quantized; local state stays full
precision. The round itself lives in :mod:`dsinkhorn.engine`.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = ["CommsConfig", "ClipRangeError", "clip_log", "quantize", "packet_wire_size"]

_HEADER = struct.Struct("<IIIBI")  # sender, outer_iter, inner_step, bits, d


class ClipRangeError(ValueError):
    """Raised when z has entries that overflow exp(); tighten the clip range."""


@dataclass(frozen=True)
class CommsConfig:
    """Trigger, stopping, and quantization parameters.

    bits=None means unquantized payloads (8-byte floats on the wire);
    delta may be 0 (always transmit on any change) or +inf (only the
    bootstrap packet is ever sent).
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
        if self.delta < 0 or math.isnan(self.delta):
            raise ValueError("delta must be >= 0")
        if not (self.tau_inner > 0 and self.tau_outer > 0):
            raise ValueError("tolerances must be > 0")
        if self.bits is not None and (
            not isinstance(self.bits, (int, np.integer))
            or isinstance(self.bits, bool)
            or not (1 <= self.bits <= 32)
        ):
            raise ValueError("bits must be an integer in [1, 32] or None")
        if not (self.s_min < self.s_max):
            raise ValueError("need s_min < s_max")
        if self.inner_step_cap < 1 or self.outer_iter_cap < 1:
            raise ValueError("step caps must be >= 1")

    @property
    def num_levels(self) -> int:
        return 0 if self.bits is None else (1 << int(self.bits))

    @property
    def delta_q(self) -> float:
        """Worst-case quantization error: half the level spacing, 0 if unquantized."""
        if self.bits is None:
            return 0.0
        return (self.s_max - self.s_min) / (2.0 * (self.num_levels - 1))


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
