"""Minimal deterministic numeric kernel.

Conventions used throughout the package:

* a *vector* is a one-dimensional ``numpy.ndarray`` of ``float64``,
* a *matrix* is a two-dimensional ``numpy.ndarray`` of ``float64`` in
  row-major layout,
* public functions validate their input once, at the entry point
  (``as_vector``/``as_matrix``: shape, length, finiteness), and then
  hand it to private kernels (``_logsumexp``, ``_softmax`` and the
  ``_``-prefixed helpers of the loss modules), which assume validated
  float64 input and check nothing.  Code that has already validated a
  vector calls the kernels directly instead of validating it again.

Besides the small linear-algebra helpers this module provides a
numerically stable softmax / log-sum-exp pair, a central-finite-difference
gradient oracle used by the test suites of every other module, and a
seeded counter-based pseudo-random generator whose output is identical
across runs and platforms.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "as_vector",
    "as_matrix",
    "logsumexp",
    "logsumexp_rows",
    "softmax",
    "softmax_rows",
    "finite_diff_grad",
    "rel_err",
    "NORMAL_BOUND",
    "Rng",
]


def as_vector(data, min_len: int = 1) -> np.ndarray:
    """Validate and convert ``data`` to a 1-D float64 array.

    Raises ``ValueError`` when the input is not one-dimensional, is
    shorter than ``min_len`` or contains NaN/Inf entries.
    """
    v = np.asarray(data, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if v.shape[0] < min_len:
        raise ValueError(f"vector needs at least {min_len} entries, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def as_matrix(data) -> np.ndarray:
    """Validate and convert ``data`` to a 2-D float64 array."""
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def logsumexp(z) -> float:
    """Stable ``log(sum(exp(z)))`` via the max-shift trick.

    Finite for every finite input, including entries far outside the
    range where ``exp`` alone would overflow.
    """
    return _logsumexp(as_vector(z))


def _logsumexp(z: np.ndarray) -> float:
    """Kernel of :func:`logsumexp` for a validated float64 vector."""
    m = float(np.maximum.reduce(z))
    e = z - m
    np.exp(e, out=e)
    return m + math.log(float(np.add.reduce(e)))


def logsumexp_rows(Z: np.ndarray) -> np.ndarray:
    """Row-wise stable log-sum-exp for an ``n x C`` matrix."""
    m = np.maximum.reduce(Z, axis=1, keepdims=True)
    E = Z - m
    np.exp(E, out=E)
    return (m + np.log(np.add.reduce(E, axis=1, keepdims=True)))[:, 0]


def softmax(z) -> np.ndarray:
    """Probability simplex projection of the logits.

    Computed as ``exp(z - max z) / sum(exp(z - max z))``: algebraically
    ``exp(z - logsumexp(z))`` and just as overflow-safe, but at equal
    logits every entry becomes the correctly rounded ``1/C`` (the
    explicit-log path drifts a couple of ulps there, which matters to
    the exactness guarantees of the delta normalizer).
    """
    return _softmax(as_vector(z))


def _softmax(z: np.ndarray) -> np.ndarray:
    """Kernel of :func:`softmax` for a validated float64 vector."""
    e = z - np.maximum.reduce(z)
    np.exp(e, out=e)
    e /= np.add.reduce(e)
    return e


def softmax_rows(Z: np.ndarray) -> np.ndarray:
    """Row-wise softmax for an ``n x C`` matrix (same path as softmax)."""
    return _softmax_rows(Z, np.empty_like(Z))


def _softmax_rows(Z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Kernel of :func:`softmax_rows`: writes the probabilities into
    ``out``, an array shaped like ``Z`` (returned), over the last axis:
    ``Z`` may also be a ``K x n x C`` stack of matrices.  ``out`` may be
    a row block of a larger array; with C-contiguous rows, as a fresh
    array has, each row sum adds in the same order, so the bits do not
    depend on where ``out`` lives or on the stack around a matrix."""
    np.subtract(Z, np.maximum.reduce(Z, axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def _scaled(z: np.ndarray, tau: float) -> np.ndarray:
    """``z / tau`` for a validated vector, refusing a quotient that overflows.

    An entry of ``z / tau`` overflows exactly when ``max|z| / tau`` does,
    so that one Python-float division is checked before the array is
    divided, and the overflow is reported by the ``ValueError`` alone,
    not also by a numpy warning.
    """
    if math.isinf(float(np.maximum.reduce(np.abs(z))) / float(tau)):
        raise ValueError(f"logits / temperature overflow at tau={tau}")
    return z / tau


def finite_diff_grad(f: Callable[[np.ndarray], float], z, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle ``(f(z+h*e_i) - f(z-h*e_i)) / 2h``.

    ``f`` must return a finite scalar; a non-finite value raises
    ``FloatingPointError`` so broken integrands fail loudly instead of
    silently contaminating a gradient check.  The step ``h`` must be
    positive and finite (``ValueError`` otherwise).
    """
    if not (h > 0 and math.isfinite(h)):
        raise ValueError(f"step must be positive and finite, got {h}")
    z = as_vector(z)
    grad = np.empty_like(z)
    for i in range(z.shape[0]):
        step = np.zeros_like(z)
        step[i] = h
        hi = float(f(z + step))
        lo = float(f(z - step))
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise FloatingPointError(f"non-finite objective at coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_err(a, b) -> float:
    """Relative error ``|a - b| / max(1, |a|, |b|)``, elementwise max."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = _U64(11), _U64(27), _U64(30), _U64(31)
_ULP53 = 2.0 ** -53

# No draw of Rng.normals exceeds sqrt(-2 ln 2^-53), about 8.5716, in size.
NORMAL_BOUND = math.sqrt(-2.0 * math.log(_ULP53))

# Raw outputs generated ahead per refill: small draws are then a slice.
_BLOCK = 256


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on an array of uint64."""
    x = (x ^ (x >> _S30)) * _MIX1
    x = (x ^ (x >> _S27)) * _MIX2
    return x ^ (x >> _S31)


class Rng:
    """Counter-based SplitMix64 generator.

    The n-th raw output is ``mix64(seed + (n + 1) * GOLDEN)`` where
    ``mix64`` is the SplitMix64 finalizer and ``GOLDEN`` is the 64-bit
    golden-ratio constant.  Because outputs are a pure function of
    ``(seed, counter)`` the stream is reproducible byte-for-byte across
    runs and platforms, and blocks of any size can be generated with
    vectorized integer arithmetic.

    Every draw is served from one block of uniforms computed ahead from
    the counter (``max(n, 256)`` outputs per refill), so how draws are
    sized never changes the values; ``counter`` counts the outputs
    handed out, not the ones computed.

    Instances are single-owner: share nothing, and key independent
    child generators by label with :meth:`derive`.
    """

    def __init__(self, seed: int):
        self.seed = _U64(seed & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0
        self._block = np.empty(0)  # uniforms for outputs _start+1 .. _start+len
        self._start = 0

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1), 53-bit resolution."""
        if n < 0:
            raise ValueError("block size must be non-negative")
        off = self.counter - self._start
        if off < 0 or off + n > self._block.shape[0]:
            size = max(n, _BLOCK)
            idx = np.arange(self.counter + 1, self.counter + size + 1, dtype=np.uint64)
            with np.errstate(over="ignore"):
                raw = _mix64(self.seed + idx * _GOLDEN)
            self._block = (raw >> _S11).astype(np.float64) * _ULP53
            self._start, off = self.counter, 0
        self.counter += n
        return self._block[off:off + n].copy()

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normal draws via Box-Muller, none larger than
        ``NORMAL_BOUND`` in absolute value."""
        pairs = (n + 1) // 2
        # u1 = (k + 1) 2^-53 lives in (0, 1], so the log below is always
        # finite; adding 2^-53 to k 2^-53 is exact.
        u1 = self.uniforms(pairs) + _ULP53
        u2 = self.uniforms(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.concatenate([r * np.cos(theta), r * np.sin(theta)])
        return out[:n]

    def integers(self, n: int, lo: int, hi: int) -> np.ndarray:
        """``n`` integers uniform on [lo, hi)."""
        if hi <= lo:
            raise ValueError("empty integer range")
        span = hi - lo
        return lo + np.minimum((self.uniforms(n) * span).astype(np.int64), span - 1)

    def categorical(self, p, n: int) -> np.ndarray:
        """``n`` class indices drawn from the simplex vector ``p``."""
        p = as_vector(p)
        cdf = np.cumsum(p)
        cdf[-1] = 1.0
        return np.minimum(
            np.searchsorted(cdf, self.uniforms(n), side="right"), p.shape[0] - 1
        ).astype(np.int64)

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random permutation of ``range(n)``: the stable
        ascending order of ``n`` uniforms.

        The default (unstable, faster) sort gives that order whenever
        the uniforms are distinct, since distinct keys have exactly one
        ascending order; only when two adjacent sorted uniforms are equal
        is the stable sort run, which keeps tied indices in index order.
        """
        u = self.uniforms(n)
        order = np.argsort(u)
        s = u[order]
        if (s[1:] == s[:-1]).any():
            order = np.argsort(u, kind="stable")
        return order

    def derive(self, label: str) -> "Rng":
        """Independent child generator keyed by a string label.

        The label is folded with FNV-1a so equal labels always map to the
        same child stream regardless of call order.
        """
        h = 0xCBF29CE484222325
        for byte in label.encode("utf8"):
            h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        with np.errstate(over="ignore"):
            salt = _mix64(np.asarray(_U64(h) + _GOLDEN))
            child = _mix64(np.asarray(self.seed ^ salt))
        return Rng(int(child))
