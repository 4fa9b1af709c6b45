"""Privacy amplification with a Toeplitz two-universal hash family.

The final key is ``T x`` over GF(2), where the ell-by-n Toeplitz matrix T is
filled from n+ell-1 random generator bits g:

    T[i, j] = g[n - 1 - j + i]

so a descriptor is just (n, ell, generator bits, seed) and fits on a public
channel.  Any two distinct inputs collide with probability 2^-ell over the
choice of generator, which is what privacy amplification needs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HashDescriptor:
    """Everything needed to reproduce one hash choice."""

    input_len: int
    output_len: int
    generator: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        gen = np.asarray(self.generator, dtype=np.uint8).copy()
        if self.output_len > self.input_len:
            raise ValueError("output length exceeds input length")
        if self.output_len < 0 or self.input_len <= 0:
            raise ValueError("lengths must be positive")
        expected = self.input_len + self.output_len - 1 if self.output_len else 0
        if gen.shape != (expected,):
            raise ValueError(f"generator must hold exactly {expected} bits, got {gen.shape}")
        if ((gen != 0) & (gen != 1)).any():
            raise ValueError("generator bits must be 0/1")
        gen.setflags(write=False)
        object.__setattr__(self, "generator", gen)

    @functools.cached_property
    def _generator_spectrum(self) -> np.ndarray:
        """``rfft`` of the generator at the transform size of ``apply_hash``."""
        return np.fft.rfft(self.generator.astype(np.float64), _fft_size(self.generator.shape[0]))

    def matrix(self) -> np.ndarray:
        """Dense Toeplitz matrix; intended for tests and tiny sizes."""
        n, ell = self.input_len, self.output_len
        t = np.empty((ell, n), np.uint8)
        for i in range(ell):
            t[i] = self.generator[i : n + i][::-1]
        return t

    def serialize(self) -> str:
        """Hex text form for transmission over the public channel."""
        bits = np.packbits(self.generator) if self.generator.size else np.zeros(0, np.uint8)
        seed = "-" if self.seed is None else str(self.seed)
        return f"toeplitz n={self.input_len} l={self.output_len} seed={seed} gen={bits.tobytes().hex()}"

    @classmethod
    def deserialize(cls, text: str) -> "HashDescriptor":
        fields = dict(tok.split("=", 1) for tok in text.split()[1:])
        missing = [key + "=" for key in ("n", "l", "seed", "gen") if key not in fields]
        if missing:
            raise ValueError(f"hash descriptor is missing {' '.join(missing)}")
        n = int(fields["n"])
        ell = int(fields["l"])
        nbits = n + ell - 1 if ell else 0
        raw = np.frombuffer(bytes.fromhex(fields["gen"]), dtype=np.uint8)
        gen = np.unpackbits(raw)[:nbits]
        seed = None if fields["seed"] == "-" else int(fields["seed"])
        return cls(n, ell, gen, seed)


def key_length(n: int, m: int, ambiguity: float, epsilon: float) -> int:
    """Secure key length floor(n*ambiguity - m - n*epsilon), clamped at 0.

    ``m`` syndrome bits went over the public channel, ``epsilon`` is the
    security margin per signal.
    """
    if n < 0 or m < 0 or epsilon < 0:
        raise ValueError("arguments must be nonnegative")
    return max(0, math.floor(n * ambiguity - m - n * epsilon))


def sample_hash(output_len: int, input_len: int, seed: int) -> HashDescriptor:
    if output_len > input_len:
        raise ValueError("output length exceeds input length")
    rng = np.random.default_rng(seed)
    nbits = input_len + output_len - 1 if output_len else 0
    gen = rng.integers(0, 2, size=nbits, dtype=np.uint8)
    return HashDescriptor(input_len, output_len, gen, seed)


def _fft_size(conv_len: int) -> int:
    """Smallest power of two at least ``conv_len``."""
    return 1 << (conv_len - 1).bit_length()


def apply_hash(desc: HashDescriptor, x: np.ndarray) -> np.ndarray:
    """Key bits T x over GF(2).

    ``key[i]`` is entry n - 1 + i of the convolution g * x.  A circular
    convolution of length n + ell - 1 or more leaves those entries free of
    wrap-around, so the transforms take the next power of two at or above
    that length.  The generator's transform is computed on the first call
    for a descriptor and reused by every later one.
    """
    x = np.asarray(x, dtype=np.uint8)
    if x.shape != (desc.input_len,):
        raise ValueError(f"input length {x.shape} does not match descriptor n={desc.input_len}")
    ell = desc.output_len
    if ell == 0:
        return np.zeros(0, np.uint8)
    # FFT convolution gives exact counts: they are bounded by n, far inside
    # float64 integer accuracy at these sizes.
    n = desc.input_len
    size = _fft_size(desc.generator.shape[0])
    fx = np.fft.rfft(x.astype(np.float64), size)
    conv = np.fft.irfft(fx * desc._generator_spectrum, size)[n - 1 : n - 1 + ell]
    counts = np.rint(conv)
    if np.abs(conv - counts).max(initial=0.0) > 0.1:
        raise FloatingPointError("FFT convolution lost integer accuracy")
    return (counts.astype(np.int64) & 1).astype(np.uint8)
