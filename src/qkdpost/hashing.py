"""Privacy amplification with a Toeplitz two-universal hash family.

The final key is ``T x`` over GF(2), where the ell-by-n Toeplitz matrix T is
filled from n+ell-1 random generator bits g:

    T[i, j] = g[n - 1 - j + i]

so a descriptor is just (n, ell, generator bits) and fits on a public
channel.  Any two distinct inputs collide with probability 2^-ell over the
choice of generator, which is what privacy amplification needs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .reconciliation import _bits


def _generator_len(output_len: int, input_len: int) -> int:
    """n + ell - 1 generator bits for an ell-by-n matrix; raises ValueError for
    lengths no descriptor can have, ell = 0 too: a zero-length key is an abort."""
    if output_len > input_len:
        raise ValueError("output length exceeds input length")
    if output_len < 1:
        raise ValueError(f"output length must be at least 1, got {output_len}")
    return input_len + output_len - 1


@dataclass(frozen=True)
class HashDescriptor:
    """Everything needed to reproduce one hash choice."""

    input_len: int
    output_len: int
    generator: np.ndarray

    def __post_init__(self):
        gen = _bits(self.generator, "generator")
        expected = _generator_len(self.output_len, self.input_len)
        if gen.shape != (expected,):
            raise ValueError(f"generator must hold exactly {expected} bits, got {gen.shape}")
        gen.setflags(write=False)
        object.__setattr__(self, "generator", gen)

    @functools.cached_property
    def _generator_spectrum(self) -> np.ndarray:
        """``rfft`` of the generator at the transform size of ``apply_hash``."""
        return np.fft.rfft(self.generator.astype(np.float64), _fft_size(self.generator.shape[0]))


def key_length(n: int, m: int, ambiguity: float, epsilon: float) -> int:
    """Secure key length floor(n*ambiguity - m - n*epsilon), clamped at 0.

    ``m`` syndrome bits went over the public channel, ``epsilon`` is the
    security margin per signal.  Negative arguments, and a budget
    ``n*ambiguity - m - n*epsilon`` that is not finite, raise ValueError.
    """
    if n < 0 or m < 0 or epsilon < 0:
        raise ValueError("arguments must be nonnegative")
    budget = n * ambiguity - m - n * epsilon
    if not math.isfinite(budget):
        raise ValueError(f"key budget {budget} not finite: ambiguity={ambiguity}, epsilon={epsilon}")
    return max(0, math.floor(budget))


def sample_hash(output_len: int, input_len: int, seed: int) -> HashDescriptor:
    """The descriptor whose generator is ``default_rng(seed).integers(0, 2,
    nbits, dtype=np.uint8)``, read from the raw words: that draw takes the
    words' bytes low byte first and keeps the top bit of each."""
    nbits = _generator_len(output_len, input_len)
    words = np.random.default_rng(seed).bit_generator.random_raw(-(-nbits // 8))
    gen = words.astype("<u8", copy=False).view(np.uint8)[:nbits] >> 7
    return HashDescriptor(input_len, output_len, gen)


def _fft_size(conv_len: int) -> int:
    """Smallest power of two at least ``conv_len``."""
    return 1 << (conv_len - 1).bit_length()


def apply_hash(desc: HashDescriptor, x: np.ndarray) -> np.ndarray:
    """Key bits T x over GF(2).

    ``key[i]`` is entry n - 1 + i of the convolution g * x.  A circular
    convolution of length n + ell - 1 or more leaves those entries free of
    wrap-around, so the transforms take the next power of two at or above
    that length.  The generator's transform is computed on the first call
    for a descriptor and reused by every later one.  The descriptor also
    keeps its last input and key, so hashing the same input again, as a
    decoded word equal to its source is, costs one comparison; every call
    returns a new array.  ``x`` holds bits; anything else raises
    ``ValueError``.
    """
    x = _bits(x, "input")
    if x.shape != (desc.input_len,):
        raise ValueError(f"input length {x.shape} does not match descriptor n={desc.input_len}")
    last = desc.__dict__.get("_last")
    if last is not None and np.array_equal(last[0], x):
        return last[1].copy()
    # FFT convolution gives exact counts: they are bounded by n, far inside
    # float64 integer accuracy at these sizes.
    n, ell = desc.input_len, desc.output_len
    size = _fft_size(desc.generator.shape[0])
    fx = np.fft.rfft(x.astype(np.float64), size)
    conv = np.fft.irfft(fx * desc._generator_spectrum, size)[n - 1 : n - 1 + ell]
    counts = np.rint(conv)
    if np.abs(conv - counts).max(initial=0.0) > 0.1:
        raise FloatingPointError("FFT convolution lost integer accuracy")
    key = (counts.astype(np.int64) & 1).astype(np.uint8)
    # _bits made x a new array, so no caller can change the kept pair
    desc.__dict__["_last"] = (x, key)
    return key.copy()
