"""Counter-based random primitives for reproducible simulation.

Every draw is a pure function of a seed and a tuple of stream indices
(SplitMix64-style integer mixing), so simulations can be chunked or
parallelized arbitrarily without changing a single number.
"""

from __future__ import annotations

import numpy as np

_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_MULT2 = np.uint64(0x94D049BB133111EB)
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_WORD = 1 << 64


def _finalize(x: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    # SplitMix64 finalizer, in place on ``x``, which the caller owns; uint64
    # array arithmetic wraps modulo 2**64.  ``scratch``, shaped like ``x``,
    # holds each shifted copy.
    for shift, mult in ((np.uint64(30), _MULT1), (np.uint64(27), _MULT2)):
        np.right_shift(x, shift, out=scratch)
        x ^= scratch
        x *= mult
    np.right_shift(x, np.uint64(31), out=scratch)
    x ^= scratch
    return x


def _step(h: np.ndarray, stream, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """One stream of :func:`counter_hash`: ``out = finalize((h + GAMMA) ^ stream)``.

    ``h`` (an array, so that the addition wraps silently where a numpy
    scalar would warn) and ``stream`` broadcast to the shape of ``out``;
    ``scratch`` has that shape too.  Only ``h + GAMMA``, shaped like
    ``h``, is allocated, and the stream is XORed into it in one pass.
    """
    np.bitwise_xor(h + _GAMMA, stream, out=out)
    return _finalize(out, scratch)


def counter_hash(seed: int, *streams) -> np.ndarray:
    """Hash (seed, streams...) to uint64 values.

    Streams are nonnegative integers or integer arrays and broadcast
    against each other like ordinary numpy operands, so callers can
    request whole blocks of draws in one call.
    """
    h = np.asarray([seed % _WORD], dtype=np.uint64)
    h = _finalize(h, np.empty_like(h))
    for stream in streams:
        arr = np.asarray(stream, dtype=np.uint64)
        out = np.empty(np.broadcast_shapes(h.shape, arr.shape), dtype=np.uint64)
        h = _step(h, arr, out, np.empty_like(out))
    return h


def uniform01(seed: int, *streams) -> np.ndarray:
    """Uniform [0, 1) doubles with 53-bit resolution, one per stream point."""
    bits = counter_hash(seed, *streams) >> np.uint64(11)
    return bits.astype(np.float64) * 2.0**-53
