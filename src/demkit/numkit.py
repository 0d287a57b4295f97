"""Minimal deterministic numeric kernel.

Conventions used throughout the package:

* a *vector* is a one-dimensional ``numpy.ndarray`` of ``float64``,
* a *matrix* is a two-dimensional ``numpy.ndarray`` of ``float64`` in
  row-major layout,
* public functions validate their input once, at the entry point
  (``as_vector``/``as_matrix``: shape, length, finiteness), and then
  hand it to private kernels (``_logsumexp``, ``_softmax``,
  ``_central_differences`` and the ``_``-prefixed helpers of the loss
  modules), which assume validated float64 input and check nothing.
  Code that has already validated a vector calls the kernels directly.
* each scalar rule has one owner here: ``_count`` (an integer, not a
  bool, of at least a given least value: a draw count, a width, a batch
  size, ``epochs``), ``_classes`` (the class count ``C``, a ``_count`` of
  at least 2) and ``_positive`` (finite and positive: a temperature, a
  step, a radius).  Each refusal names the setting and its value.

Besides the small linear-algebra helpers this module provides a
numerically stable softmax / log-sum-exp pair, the one central-difference
gradient oracle (``gradcheck`` and the test suites of every other module), a
vectorized row sum with ``math.fsum``'s bits (``_row_fsums``), and a
seeded counter-based pseudo-random generator whose output is identical
across runs and platforms.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

__all__ = [
    "as_vector",
    "as_matrix",
    "validated_labels",
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
    """Validate and convert ``data`` to a 2-D float64 array.

    Finiteness is read from the minimum and the maximum, which are NaN or
    infinite where an entry is, so the check holds no temporary the size
    of the matrix: a whole shift of a protocol's inputs is checked at once.
    """
    m = np.asarray(data, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if m.size and not (
        math.isfinite(np.minimum.reduce(m, axis=None))
        and math.isfinite(np.maximum.reduce(m, axis=None))
    ):
        raise ValueError("matrix entries must be finite")
    return m


def validated_labels(y, shape: tuple, C: int) -> np.ndarray:
    """``y`` as an integer array of ``shape`` holding labels in ``[0, C)``."""
    y = np.asarray(y)
    if y.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got {y.dtype}")
    if y.shape != shape:
        raise ValueError(f"labels must be one per input row, shape {shape}, got {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= C):
        raise ValueError(f"labels must lie in [0, {C})")
    return y


def _integer(value, name: str):
    """``value`` if it is a Python or numpy integer, not a bool; else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def _count(value, name: str, least: int) -> None:
    """``ValueError`` naming ``name`` unless ``value`` passes :func:`_integer`
    and is at least ``least``; the one check of every integer count."""
    if _integer(value, name) < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


def _classes(C) -> None:
    """``ValueError`` unless the class count ``C`` is a :func:`_count` of at least 2."""
    _count(C, "C", 2)


def _positive(value, name: str) -> None:
    """``ValueError`` unless ``value`` is finite and positive; NaN is not."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


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


def logsumexp_rows(Z) -> np.ndarray:
    """Row-wise stable log-sum-exp for a finite ``n x C`` matrix."""
    return _logsumexp_rows(as_matrix(Z))


def _logsumexp_rows(Z: np.ndarray) -> np.ndarray:
    """Kernel of :func:`logsumexp_rows` for a validated float64 matrix.

    Its maxima are :func:`_row_max`'s: a ``+0.0`` or ``-0.0`` maximum
    gives ``m + log(s)`` one bit pattern, since ``log(s)`` is ``+0.0`` or
    nonzero for ``s >= 1``."""
    m = _row_max(Z)
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


def softmax_rows(Z) -> np.ndarray:
    """Row-wise softmax for a finite ``n x C`` matrix (same path as softmax)."""
    return _softmax_rows(as_matrix(Z))


def _row_max(Z: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """Each row's maximum over the last axis of ``Z``, kept as an axis of
    length 1: ``np.maximum.reduce`` over axis 0 of a C-contiguous copy of
    ``Z`` with the class axis first, held in ``scratch`` (a C-contiguous
    array of ``Z``'s size that does not overlap it) or a fresh array.

    numpy then makes ``C - 1`` passes over all the rows at once instead of
    one short reduction per row.  A maximum is exact in any order, so the
    result is the row-wise reduction's, except that a zero maximum may
    carry the other sign; NaN propagates in either order."""
    # A matrix skips the reshapes, a fifth of its call's time.
    T = Z.T if Z.ndim == 2 else Z.reshape(-1, Z.shape[-1]).T
    if scratch is None:
        T = T.copy()
    else:
        scratch = scratch.reshape(T.shape)
        np.copyto(scratch, T)
        T = scratch
    m = np.maximum.reduce(T, axis=0)
    return m[:, None] if Z.ndim == 2 else m.reshape(Z.shape[:-1] + (1,))


def _softmax_rows(Z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Kernel of :func:`softmax_rows`: writes the probabilities over the
    last axis of ``Z``, a matrix or a ``K x n x C`` stack, into ``out``
    (returned; a fresh array if None), which may be ``Z`` itself or a row
    block of a larger array.  With C-contiguous rows, as a fresh array
    has, each row sum adds in the same order, so the bits do not depend
    on where ``out`` lives or on the stack around a matrix.

    The row maxima are :func:`_row_max`'s.  A stack with an ``out`` of its
    own, C-contiguous and apart from ``Z`` (``adapt_stream``'s ``P``),
    holds their class-major copy in ``out``, which the subtraction then
    overwrites; a matrix, or an in-place call, takes a fresh copy.  Where
    the maximum is a zero of either sign, ``exp(z - m)`` is 1 at the
    zeros and ``exp(z)`` elsewhere, so the bits are the row-wise
    expression's."""
    scratch = out if Z.ndim == 3 and out is not None and out is not Z else None
    out = np.subtract(Z, _row_max(Z, scratch), out=out)
    np.exp(out, out=out)
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def _scaled(z: np.ndarray, tau: float) -> np.ndarray:
    """``z / tau`` for a validated vector, refusing a quotient that overflows.

    An entry of ``z / tau`` overflows exactly when ``max|z| / tau`` does,
    so for ``tau < 1`` that one Python-float division is checked before
    the array is divided, and the overflow is reported by the
    ``ValueError`` alone, not also by a numpy warning.  At ``tau >= 1``
    no test is needed: the correctly rounded quotient of a finite entry
    by ``tau >= 1`` is at most the entry in size, so it cannot overflow.
    """
    if tau < 1.0 and math.isinf(float(np.maximum.reduce(np.abs(z))) / float(tau)):
        raise ValueError(f"logits / temperature overflow at tau={tau}")
    return z / tau


def finite_diff_grad(f: Callable[[np.ndarray], float], z, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient oracle ``(f(z+h*e_i) - f(z-h*e_i)) / 2h``.

    ``f`` must return a finite scalar; a non-finite value raises
    ``FloatingPointError`` so broken integrands fail loudly instead of
    silently contaminating a gradient check.  The step ``h`` must be
    positive and finite (``ValueError`` otherwise).

    Each evaluation hands ``f`` a fresh array, ``z + h e_i`` and then
    ``z - h e_i``, so ``f`` may keep its argument.  Both are ``z`` plus or
    minus a step vector that is zero off coordinate ``i``, so a ``-0.0``
    of ``z`` elsewhere reaches ``f`` as ``+0.0`` in the first array and
    as ``-0.0`` in the second.
    """
    _positive(h, "step")
    return _central_differences(f, as_vector(z), h)


def _central_differences(f: Callable[[np.ndarray], float], z: np.ndarray, h: float) -> np.ndarray:
    """Kernel of :func:`finite_diff_grad`: ``z`` validated, ``h`` positive and finite."""
    grad = np.empty_like(z)
    step = np.zeros_like(z)
    for i in range(z.shape[0]):
        step[i] = h
        hi = float(f(z + step))
        lo = float(f(z - step))
        step[i] = 0.0
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise FloatingPointError(f"non-finite objective at coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_err(a, b) -> float:
    """Relative error ``|a - b| / max(1, |a|, |b|)``, elementwise max.

    ``a`` and ``b`` must have the same shape (``ValueError`` naming both
    otherwise): they are not broadcast, so a gradient of the wrong shape
    is refused instead of compared entry by entry with a stretched one.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"rel_err needs operands of one shape, got {a.shape} and {b.shape}")
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.maximum.reduce(np.abs(a - b) / denom, axis=None))


# Batches of fewer rows go to ``math.fsum`` whole: one ``fsum`` per row is
# faster there than the certified sum's fixed cost (they cross at about 22
# rows of 10 terms on a 2-core Xeon).
_CERTIFY_ROWS = 24


@functools.cache
def _extended(dtype=np.longdouble):
    """``(u, top)`` if ``dtype`` is x87 extended precision (64-bit
    significand), else None.

    ``u`` is its unit roundoff, ``2**-64``, read from ``np.finfo`` on first
    use and checked by arithmetic: ``1 + eps`` must differ from 1, which
    an FPU set to round to 53 bits fails.  ``top`` is ``2**1023 -
    2**969``, the midpoint between ``2**1023`` and the double below it,
    which ``dtype`` holds exactly.  A double-precision, binary128 or
    double-double ``dtype`` gives None.
    """
    fi = np.finfo(dtype)
    one = dtype(1)
    if fi.nmant != 63 or one + fi.eps == one:
        return None
    return fi.eps / 2, dtype(2.0**1023) - 2.0**969


def _row_fsums(A: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each row of an ``n x C`` float64 matrix of
    nonnegative (or NaN) entries, with ``fsum``'s bits, ``inf`` and
    ``OverflowError``.

    A batch of at least ``_CERTIFY_ROWS`` rows of at most ``2**30`` terms,
    on x87 extended precision (``_extended``), is summed in one longdouble
    pass, and only the rows that fail a certificate go to ``math.fsum``;
    any other batch goes to ``fsum`` row by row.  The certificate, for a
    row of ``C`` terms ``x_i >= 0`` with exact sum ``S`` and ``u =
    2**-64``:

    * Every double is a longdouble, and no longdouble sum of ``C`` doubles
      underflows or overflows, so each addition rounds with relative error
      at most ``u``.  In whatever order numpy adds, each ``x_i`` passes
      through at most ``C - 1`` of them, so the longdouble sum ``s`` has
      ``|s - S| <= g S`` with ``g = (C - 1) u / (1 - (C - 1) u)`` (Higham,
      *Accuracy and Stability of Numerical Algorithms*, section 4.2).
    * Let ``k = j u`` with ``j`` the even one of ``C + 1`` and ``C + 2``, so
      that ``1 - k`` and ``1 + k`` are exact.  ``lo = fl(s (1 - k))`` and
      ``hi = fl(s (1 + k))`` round once each, so ``lo <= S (1 + g)(1 +
      u)(1 - k)`` and ``hi >= S (1 - g)(1 - u)(1 + k)``.  The first factor
      is at most 1 because ``g + u + g u <= C u + 3 C**2 u**2 <= k``, the
      second at least 1 because ``(g + u)(1 + k) <= C u + 6 C**2 u**2 <=
      k``; both hold for ``6 C**2 u <= 1``, so for ``C <= 2**30``.  Hence
      ``lo <= S <= hi``.
    * Rounding to the nearest double is monotone, so if ``lo`` and ``hi``
      round to one double, ``S`` rounds to it too: that is ``fsum``'s
      correctly rounded result.
    * ``s`` is first clamped to ``top``, a rounding midpoint just below
      ``2**1023``.  A clamped row's ``lo`` and ``hi`` lie on either side of
      it (``k top`` is more than half a longdouble ulp there), so it is
      never certified, and no ``hi`` is large enough to overflow its cast.
      A certified sum is below about ``2**1023``, where ``fsum`` cannot
      overflow: its partial sums stay within a few ulps of the total.

    Ties, sums within ``2 k s`` of a rounding midpoint, NaN and ``inf``
    rows fail the certificate and keep ``fsum``'s result; the fallback
    holds one row at a time.
    """
    n, C = A.shape
    if n < _CERTIFY_ROWS or C > 2**30 or (ext := _extended()) is None:
        return np.fromiter(map(math.fsum, A.tolist()), dtype=np.float64, count=n)
    u, top = ext
    k = u * (2 * (C // 2 + 1))
    s = np.add.reduce(A, axis=1, dtype=np.longdouble)
    np.minimum(s, top, out=s)
    lo = (s * (1 - k)).astype(np.float64)
    hi = (s * (1 + k)).astype(np.float64)
    for i in np.flatnonzero(lo != hi).tolist():
        lo[i] = math.fsum(A[i].tolist())
    return lo


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

# How far from 1 Rng.categorical lets a probability vector's sum lie: far
# above the rounding of a normalized vector of a million classes (about
# 1e6 * 2**-53, 1.1e-10), far below any mistake in the probabilities.
_SIMPLEX_TOL = 1e-9


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
        self.seed = _U64(int(_integer(seed, "seed")) & 0xFFFFFFFFFFFFFFFF)
        self.counter = 0
        self._block = np.empty(0)  # uniforms for outputs _start+1 .. _start+len
        self._start = 0

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles uniform on [0, 1), 53-bit resolution; ``n`` must be
        an integer of at least 0 (:func:`_count`)."""
        _count(n, "n", 0)
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
        ``NORMAL_BOUND`` in absolute value; ``n`` must be an integer of at
        least 0 (:func:`_count`)."""
        _count(n, "n", 0)
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
        """``n`` integers uniform on [lo, hi): integer bounds within int64,
        at most ``2**53`` apart so that every one can be drawn (``ValueError``
        otherwise, before any draw)."""
        lo, hi = int(_integer(lo, "lo")), int(_integer(hi, "hi"))
        if lo >= hi:
            raise ValueError("empty integer range")
        if lo < -(2**63) or hi >= 2**63 or hi - lo > 2**53:
            raise ValueError(f"integer range [{lo}, {hi}) must lie in int64 and span at most 2**53")
        span = hi - lo
        return lo + np.minimum((self.uniforms(n) * span).astype(np.int64), span - 1)

    def categorical(self, p, n: int) -> np.ndarray:
        """``n`` class indices drawn from the simplex vector ``p``.

        ``p`` must have no negative entry and sum to 1 within
        ``_SIMPLEX_TOL`` (``ValueError`` otherwise, before any draw).  The
        last entry of its cumulative sum is then set to exactly 1, so the
        sum's rounding never leaves a uniform past the last class.
        """
        p = as_vector(p)
        with np.errstate(over="ignore"):  # an overflowing sum is inf, refused below
            cdf = np.cumsum(p)
        low, total = float(np.minimum.reduce(p)), float(cdf[-1])
        if low < 0 or not abs(total - 1.0) <= _SIMPLEX_TOL:
            raise ValueError(
                f"class probabilities must be non-negative and sum to 1 within {_SIMPLEX_TOL},"
                f" got smallest {low!r}, sum {total!r}"
            )
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
