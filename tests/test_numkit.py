"""Tests for the numeric kernel: stable reductions and the counter RNG."""

import functools
import math
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demkit import numkit
from demkit.bench import long_tail_priors
from demkit.numkit import (
    Rng,
    _central_differences,
    _extended,
    _logsumexp,
    _logsumexp_rows,
    _row_fsums,
    _scaled,
    _softmax,
    _softmax_rows,
    as_matrix,
    as_vector,
    finite_diff_grad,
    logsumexp,
    logsumexp_rows,
    rel_err,
    softmax,
    softmax_rows,
)

finite_vectors = st.lists(
    st.floats(min_value=-50, max_value=50), min_size=2, max_size=12
)


class TestValidators:
    def test_as_vector_accepts_lists(self):
        v = as_vector([1, 2, 3])
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])

    def test_as_vector_rejects_short_input(self):
        with pytest.raises(ValueError):
            as_vector([1.0], min_len=2)

    def test_as_vector_rejects_nan_and_inf(self):
        with pytest.raises(ValueError):
            as_vector([1.0, float("nan")])
        with pytest.raises(ValueError):
            as_vector([1.0, float("inf")])

    def test_as_vector_rejects_matrices(self):
        with pytest.raises(ValueError):
            as_vector(np.zeros((2, 2)))

    def test_as_matrix_rejects_vectors_and_nonfinite(self):
        with pytest.raises(ValueError):
            as_matrix(np.zeros(3))
        with pytest.raises(ValueError):
            as_matrix([[1.0, float("nan")]])

    @pytest.mark.parametrize("function", [softmax_rows, logsumexp_rows])
    @pytest.mark.parametrize(
        "Z, message",
        [(np.zeros(3), "expected a 2-D matrix"), (np.zeros((2, 2, 2)), "expected a 2-D matrix"),
         ([[1.0, float("nan")]], "finite"), ([[float("-inf"), 0.0]], "finite")],
        ids=["vector", "stack", "nan", "inf"],
    )
    def test_row_functions_validate_their_input(self, function, Z, message):
        with pytest.raises(ValueError, match=message):
            function(Z)

    @pytest.mark.parametrize("function", [softmax_rows, logsumexp_rows])
    def test_row_functions_take_an_integer_matrix_as_float64(self, function):
        Z = np.array([[1, 2, 3], [0, 0, -4]])
        assert function(Z).tobytes() == function(Z.astype(np.float64)).tobytes()


class TestLogsumexp:
    def test_reference_value(self):
        # ln(e^1 + e^2 + e^3), precomputed with mpmath at 50 digits.
        assert abs(logsumexp([1.0, 2.0, 3.0]) - 3.4076059644443806) < 1e-15

    def test_uniform_vector(self):
        for C in (2, 7, 10):
            assert abs(logsumexp(np.full(C, 3.5)) - (3.5 + math.log(C))) < 1e-12

    def test_huge_logits_do_not_overflow(self):
        z = np.array([1e4, 1e4 - 1.0])
        assert abs(logsumexp(z) - (1e4 + math.log(1 + math.exp(-1.0)))) < 1e-9

    @given(finite_vectors, st.floats(min_value=-100, max_value=100))
    def test_shift_invariance(self, z, c):
        z = np.asarray(z)
        assert abs(logsumexp(z + c) - (logsumexp(z) + c)) < 1e-9

    @given(finite_vectors)
    def test_exceeds_max_entry(self, z):
        z = np.asarray(z)
        assert logsumexp(z) >= float(np.max(z))

    def test_rows_matches_vector_version(self):
        Z = np.array([[1.0, 2.0, 3.0], [-5.0, 0.0, 5.0], [0.0, 0.0, 0.0]])
        np.testing.assert_allclose(
            logsumexp_rows(Z), [logsumexp(r) for r in Z], rtol=0, atol=0
        )


class TestSoftmax:
    @given(finite_vectors)
    def test_simplex(self, z):
        p = softmax(np.asarray(z))
        assert np.all(p >= 0)
        assert abs(float(np.sum(p)) - 1.0) < 1e-12

    def test_reference_value(self):
        p = softmax([1.0, 2.0, 3.0])
        expected = np.exp([1.0, 2.0, 3.0]) / np.sum(np.exp([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(p, expected, rtol=1e-15)

    def test_extreme_logits_are_finite(self):
        p = softmax([1e4, 0.0, -1e4])
        assert np.all(np.isfinite(p))
        assert abs(p[0] - 1.0) < 1e-12

    def test_zero_logits_give_exact_reciprocal(self):
        # exp(0 - 0) = 1 for every entry, so each probability is the
        # correctly rounded 1/C.  This exactness is what downstream
        # normalizer checks rely on.
        for C in range(2, 101):
            p = softmax(np.zeros(C))
            assert p[0] == 1.0 / C
            assert np.all(p == p[0])

    def test_constant_logits_match_zero_logits(self):
        # Max-shifting maps any constant vector onto the zero vector.
        for k in (-7.5, 0.3, 40.0):
            np.testing.assert_array_equal(softmax(np.full(10, k)), softmax(np.zeros(10)))

    def test_rows_matches_vector_version(self):
        Z = np.array([[0.5, -0.5, 2.0], [3.0, 3.0, 3.0]])
        np.testing.assert_array_equal(softmax_rows(Z), np.stack([softmax(r) for r in Z]))


class TestScaled:
    TOP = np.finfo(np.float64).max

    @given(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
        st.floats(min_value=5e-324, allow_infinity=False),
    )
    def test_quotient_keeps_the_bytes_of_the_division(self, z, tau):
        z = np.asarray(z)
        with np.errstate(over="ignore"):
            expected = z / tau
        if np.isfinite(expected).all():
            assert _scaled(z, tau).tobytes() == expected.tobytes()
        else:
            with pytest.raises(ValueError, match="overflow"):
                _scaled(z, tau)

    @pytest.mark.parametrize(
        "tau", [1.0, np.nextafter(1.0, 2.0), 2.5, math.inf], ids=["1.0", "1.0+ulp", "2.5", "inf"]
    )
    def test_largest_finite_quotient_is_kept(self, tau):
        # At tau >= 1 no quotient can overflow, so none is refused, and
        # subnormal logits next to the largest ones keep their bits too.
        tiny = np.nextafter(0.0, 1.0)
        z = np.array([self.TOP, -self.TOP, tiny, -tiny, 0.0])
        expected = z / tau
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _scaled(z, tau).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_is_refused_without_a_warning(self, sign):
        # The quotient rounds up past the largest float by one ulp of tau.
        tau = np.nextafter(1.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"logits / temperature overflow at tau={tau}"):
                _scaled(np.array([0.5, sign * self.TOP]), tau)


class TestFiniteDiff:
    def test_matches_analytic_gradient_of_quadratic(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(z):
            return float(0.5 * z @ A @ z)

        z = np.array([0.3, -1.1])
        np.testing.assert_allclose(finite_diff_grad(f, z), A @ z, atol=1e-7)

    def test_raises_on_nonfinite_objective(self):
        def f(z):
            return float("nan")

        with pytest.raises(FloatingPointError):
            finite_diff_grad(f, np.zeros(2))

    def test_each_evaluation_gets_a_fresh_perturbed_array(self):
        # f keeps every argument; after the call each must still hold the
        # bits of z + h e_i, then z - h e_i, in coordinate order.
        z = np.array([-0.0, 1.5, -0.0, -2.0])
        h = 1e-5
        kept = []

        def f(v):
            kept.append(v)
            return float(np.add.reduce(v))

        finite_diff_grad(f, z, h=h)
        expected = []
        for i in range(z.size):
            step = np.zeros_like(z)
            step[i] = h
            expected += [z + step, z - step]
        assert [v.tobytes() for v in kept] == [e.tobytes() for e in expected]
        assert z.tobytes() == np.array([-0.0, 1.5, -0.0, -2.0]).tobytes()
        for j, v in enumerate(kept):
            assert not np.shares_memory(v, z)
            assert not any(np.shares_memory(v, w) for w in kept[:j])
        # z + step turns the other coordinates' -0.0 into +0.0; z - step keeps it.
        assert not np.signbit(kept[2][0]) and np.signbit(kept[3][0])

    def test_the_kernel_gives_the_public_bits(self):
        # gradcheck's parameter-space cases call the kernel on a model's
        # theta; on finite input it is the public oracle, bit for bit.
        rng = Rng(4)
        z = (rng.uniforms(7) - 0.5) * 8.0
        z[2] = -0.0
        kept = z.copy()

        def f(v):
            return float(np.add.reduce(np.exp(v) * np.sin(3.0 * v)))

        for h in (1e-5, 1e-3):
            assert _central_differences(f, z, h).tobytes() == finite_diff_grad(f, z, h).tobytes()
        assert z.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -1e-5])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, h):
        calls = []

        def f(z):
            calls.append(z)
            return 0.0

        with pytest.raises(ValueError, match=r"step must be positive and finite"):
            finite_diff_grad(f, np.zeros(2), h=h)
        assert calls == []  # refused before the objective is evaluated


def _reduction_inputs():
    """Vectors and matrices for the bitwise kernel checks: C from 1 to 39,
    scales 0.01-50, all-zero rows and rows holding ``-0.0``."""
    rng = np.random.default_rng(20)
    for i in range(600):
        C = 1 + i % 39
        n = 1 + i % 7
        Z = rng.standard_normal((n, C)) * rng.choice([0.01, 0.3, 1.0, 8.0, 50.0])
        if i % 5 == 0:
            Z[0] = 0.0
        if i % 7 == 0:
            Z[-1, : (C + 1) // 2] = -0.0
        yield Z


def _special_rows(C: int, rng) -> list:
    """Rows of ``C`` logits whose maxima are ties, zeros of either sign in
    either order, infinities or NaN, below which sit entries of -1 or
    less, and one plain row."""
    rows = []
    every = slice(None)
    for setting in [
        [(0, 2.0), (C - 1, 2.0)],
        [(0, 0.0), (C - 1, -0.0)],
        [(0, -0.0), (C - 1, 0.0)],
        [(every, -0.0)],
        [(every, 0.0)],
        [(C // 2, math.inf)],
        [(0, -math.inf)],
        [(every, -math.inf)],
        [(every, math.inf)],
        [(C // 2, math.nan)],
        [(0, math.nan), (C - 1, math.inf)],
        [],
    ]:
        row = -1.0 - np.abs(rng.standard_normal(C))
        for where, value in setting:
            row[where] = value
        rows.append(row)
    return rows


def _special_inputs():
    """Matrices of :func:`_special_rows`, one row and many, and ``K x n x
    C`` stacks of them, for C = 2, 3, 10 and 1000."""
    rng = np.random.default_rng(21)
    for C in (2, 3, 10, 1000):
        rows = np.array(_special_rows(C, rng))
        for row in rows:
            yield row[None, :]
        yield rows
        yield np.stack([rows, rows[::-1], rng.permutation(rows)])
        yield rows[None, :1]


class TestReductionKernels:
    """The kernels reduce with ``np.maximum.reduce``/``np.add.reduce`` and an
    in-place ``exp`` and divide; each keeps the bits of the method-call
    expression it replaced."""

    def test_vector_kernels_keep_the_bits(self):
        for Z in _reduction_inputs():
            for z in Z:
                e = np.exp(z - z.max())
                assert _softmax(z).tobytes() == (e / e.sum()).tobytes()
                m = float(z.max())
                lse = m + math.log(float(np.exp(z - m).sum()))
                assert np.float64(_logsumexp(z)).tobytes() == np.float64(lse).tobytes()

    def test_row_kernels_keep_the_bits(self):
        for Z in _reduction_inputs():
            e = np.exp(Z - Z.max(axis=1, keepdims=True))
            expected = e / e.sum(axis=1, keepdims=True)
            assert softmax_rows(Z).tobytes() == expected.tobytes()
            assert _softmax_rows(Z).tobytes() == expected.tobytes()
            in_place = Z.copy()
            assert _softmax_rows(in_place, in_place) is in_place
            assert in_place.tobytes() == expected.tobytes()
            m = Z.max(axis=1, keepdims=True)
            lse = (m + np.log(np.exp(Z - m).sum(axis=1, keepdims=True)))[:, 0]
            assert logsumexp_rows(Z).tobytes() == lse.tobytes()
            assert _logsumexp_rows(Z).tobytes() == lse.tobytes()

    def test_row_kernel_writes_into_a_row_block(self):
        # adapt_stream hands the kernel each batch's rows of one matrix:
        # the block gets the bits of softmax_rows and no other row moves.
        for Z in _reduction_inputs():
            buf = np.full((Z.shape[0] + 2, Z.shape[1]), 7.0)
            block = buf[1:-1]
            assert _softmax_rows(Z, block) is block
            assert block.tobytes() == softmax_rows(Z).tobytes()
            assert np.all(buf[0] == 7.0) and np.all(buf[-1] == 7.0)

    def test_class_major_maxima_keep_the_row_wise_bits(self):
        # The kernels take each row's maximum over a class-major copy;
        # every call form gives the bits of the row-wise expression, for
        # matrices and stacks, on the rows where the order of a maximum
        # could show: ties, zero maxima of either sign, infinities, NaN.
        for Z in _special_inputs():
            with np.errstate(invalid="ignore"):
                e = np.exp(Z - np.maximum.reduce(Z, axis=-1, keepdims=True))
                expected = (e / np.add.reduce(e, axis=-1, keepdims=True)).tobytes()
                before = Z.tobytes()
                assert _softmax_rows(Z).tobytes() == expected
                in_place = Z.copy()
                assert _softmax_rows(in_place, in_place) is in_place
                assert in_place.tobytes() == expected
                out = np.full_like(Z, 7.0)
                assert _softmax_rows(Z, out) is out
                assert out.tobytes() == expected and Z.tobytes() == before
                if Z.ndim == 2:
                    m = np.maximum.reduce(Z, axis=1, keepdims=True)
                    s = np.add.reduce(np.exp(Z - m), axis=1, keepdims=True)
                    lse = (m + np.log(s))[:, 0]
                    assert _logsumexp_rows(Z).tobytes() == lse.tobytes()
                    assert Z.tobytes() == before

    def test_a_stack_with_its_own_out_allocates_no_copy_of_the_stack(self):
        # A stack called with a separate out holds the class-major copy of
        # its logits there; a fresh copy would add the stack's size to the
        # traced peak.
        Z = np.random.default_rng(3).standard_normal((4, 2048, 10))
        out = np.empty_like(Z)
        _softmax_rows(Z, out)  # warm numpy's caches
        tracemalloc.start()
        try:
            _softmax_rows(Z, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < Z.nbytes // 2, peak

    def test_inputs_are_read_not_written(self):
        Z = np.array([[0.5, -0.0, 2.0], [3.0, 3.0, 3.0]])
        before = Z.tobytes()
        softmax_rows(Z), logsumexp_rows(Z), _softmax(Z[0]), _logsumexp(Z[1])
        assert Z.tobytes() == before


class TestRelErr:
    def test_small_magnitudes_use_absolute_scale(self):
        assert rel_err(np.array([0.0]), np.array([1e-8])) == pytest.approx(1e-8)

    def test_large_magnitudes_use_relative_scale(self):
        assert rel_err(np.array([100.0]), np.array([101.0])) == pytest.approx(1 / 101)

    def test_takes_elementwise_max(self):
        a = np.array([1.0, 0.0])
        b = np.array([1.0, 0.5])
        assert rel_err(a, b) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "a, b, shapes",
        [
            ([1.0, 2.0, 3.0], [1.0], r"\(3,\) and \(1,\)"),
            ([1.0], [1.0, 2.0, 3.0], r"\(1,\) and \(3,\)"),
            ([[1.0, 2.0]], [1.0, 2.0], r"\(1, 2\) and \(2,\)"),
            (1.0, [1.0, 2.0], r"\(\) and \(2,\)"),
        ],
        ids=["longer-first", "longer-second", "row-and-vector", "scalar-and-vector"],
    )
    def test_operands_of_different_shapes_are_refused(self, a, b, shapes):
        # Broadcasting would compare a wrong-shaped gradient entry by entry
        # with a stretched one: rel_err([1, 2, 3], [1]) read 0.667.
        with pytest.raises(ValueError, match=shapes):
            rel_err(a, b)


X87 = np.finfo(np.longdouble).nmant == 63
ROW_COUNTS = (1, numkit._CERTIFY_ROWS - 1, numkit._CERTIFY_ROWS, 64)
TIE_ROWS = (
    (1.0, 2.0**-53),  # a midpoint: rounds down to the even 1.0
    (1.0 + 2.0**-52, 2.0**-53),  # a midpoint: rounds up to the even neighbour
    (1.0, 2.0**-54, 2.0**-54),  # a midpoint split over two terms
    (1.0, 2.0**-53, 2.0**-120),  # just above a midpoint
    (2.0**-53, 1.0, 2.0**-106),  # just above a midpoint, largest term second
    (1.0, 2.0**-53 - 2.0**-106, 2.0**-107),  # just below a midpoint
)


def _fsum_rows(A):
    """The reference: ``math.fsum`` row by row."""
    return np.array([math.fsum(row) for row in A.tolist()])


def _assert_fsum_bits(A):
    assert _row_fsums(A).tobytes() == _fsum_rows(A).tobytes()


def _count_fsum_calls(monkeypatch) -> list:
    """A list that gains an entry per ``math.fsum`` call from now on."""
    calls, fsum = [], math.fsum
    monkeypatch.setattr(math, "fsum", lambda row: calls.append(1) or fsum(row))
    return calls


def _rows(kind, n, C, rng):
    """``n x C`` nonnegative terms of one adversarial kind."""
    A = np.zeros((n, C))
    if kind == "ties":
        for i in range(n):
            terms = TIE_ROWS[i % len(TIE_ROWS)][:C]
            A[i, rng.permutation(C)[: len(terms)]] = terms
            A[i] *= 2.0 ** int(rng.integers(-900, 900))  # scaling keeps a tie
    elif kind == "powers-of-two":
        A[:] = 2.0 ** rng.integers(-1074, 1000, size=(n, C)).astype(float)
    elif kind == "subnormal":
        A[:] = rng.integers(0, 2**12, size=(n, C)) * 5e-324
        A[::3] = 5e-324
    elif kind == "single-term":
        A[np.arange(n), rng.integers(0, C, size=n)] = rng.choice(
            [5e-324, 1e-310, 1.0, 0.1, 3.0, 1e308], size=n
        )
        A[::4] = 0.0
    elif kind == "inf":
        A[:] = rng.random((n, C))
        A[::2, rng.integers(0, C)] = np.inf
    else:
        A[:] = np.abs(rng.standard_normal((n, C))) * 10.0 ** rng.integers(-300, 300, size=(n, 1))
    return A


class TestRowFsums:
    """``_row_fsums`` gives ``math.fsum``'s bits on every row, whichever
    route its batch takes."""

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize(
        "kind", ["ties", "powers-of-two", "subnormal", "single-term", "inf", "random"]
    )
    def test_adversarial_rows_keep_fsums_bits(self, kind, n):
        rng = np.random.default_rng(sum(map(ord, kind)) + n)
        for C in range(2, 41):
            _assert_fsum_bits(_rows(kind, n, C, rng))

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_all_zero_rows_sum_to_plus_zero(self, n):
        for C in range(2, 41):
            A = np.zeros((n, C))
            _assert_fsum_bits(A)
            assert not np.signbit(_row_fsums(A)).any()

    def test_random_batches_keep_fsums_bits(self):
        rng = np.random.default_rng(7)
        for i in range(400):
            C, n = 2 + i % 39, 16 + i % 80
            P = softmax_rows(rng.standard_normal((n, C)) * rng.choice([0.1, 3.0, 30.0]))
            _assert_fsum_bits(P * rng.random((n, C)) * rng.choice([1e-300, 1e-5, 1.0, 1e8]))

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_an_overflowing_row_raises_fsums_overflow_error(self, n):
        for C in range(2, 41):
            A = np.full((n, C), 1e-3)
            A[-1] = 1e308
            with pytest.raises(OverflowError):
                _fsum_rows(A)
            with pytest.raises(OverflowError):
                _row_fsums(A)

    def test_sums_at_the_top_of_the_double_range_keep_fsums_bits(self):
        top = np.finfo(np.float64).max
        for C in (2, 3, 10, 40):
            A = np.full((64, C), top / C / 4)
            A[:, 0] *= np.linspace(0.5, 3.9, 64)
            _assert_fsum_bits(A[:48])  # every sum below the largest double
            A[:, 0] *= 2.0  # some sums now round to the largest double or past it
            for row in A:
                try:
                    expected = _fsum_rows(row[None, :])
                except OverflowError:
                    with pytest.raises(OverflowError):
                        _row_fsums(np.repeat(row[None, :], 30, axis=0))
                else:
                    got = _row_fsums(np.repeat(row[None, :], 30, axis=0))
                    assert got.tobytes() == np.repeat(expected, 30).tobytes()

    @pytest.mark.skipif(not X87, reason="the certified route needs x87 extended precision")
    def test_a_long_batch_calls_fsum_only_for_uncertified_rows(self, monkeypatch):
        calls = _count_fsum_calls(monkeypatch)
        rng = np.random.default_rng(3)
        A = softmax_rows(rng.standard_normal((64, 10)) * 3.0) * rng.random((64, 10))
        _row_fsums(A)
        assert len(calls) <= 2
        calls.clear()
        _row_fsums(np.array([TIE_ROWS[0]] * 30))
        assert len(calls) == 30  # a midpoint is never certified
        calls.clear()
        _row_fsums(A[: numkit._CERTIFY_ROWS - 1])
        assert len(calls) == numkit._CERTIFY_ROWS - 1  # a short batch goes to fsum whole

    def test_double_precision_sends_every_row_to_fsum(self, monkeypatch):
        # The precision check reports the double format: every row goes to
        # math.fsum, and the bits do not change.
        rng = np.random.default_rng(4)
        kinds = ("ties", "subnormal", "random")
        batches = [_rows(kind, 64, C, rng) for kind in kinds for C in (2, 10, 40)]
        expected = [_row_fsums(A).tobytes() for A in batches]
        monkeypatch.setattr(numkit, "_extended", functools.partial(_extended, np.float64))
        calls = _count_fsum_calls(monkeypatch)
        assert [_row_fsums(A).tobytes() for A in batches] == expected
        assert len(calls) == 64 * len(batches)

    def test_precision_check_reads_the_running_numpy(self):
        assert _extended(np.float64) is None
        if not X87:
            assert _extended() is None
            return
        u, top = _extended()
        assert u == np.finfo(np.longdouble).eps / 2 == 2.0**-64
        below = np.longdouble(np.nextafter(2.0**1023, 0.0))
        assert top == (below + np.longdouble(2.0**1023)) / 2  # a rounding midpoint

    def test_import_and_gradcheck_leave_the_precision_unread(self):
        # Nothing runs at import, and gradcheck's batches of 1-6 rows stay
        # below the certified route's row count.
        code = (
            "import contextlib, io, demkit.cli as cli, demkit.numkit as nk\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['gradcheck', '--trials', '3'])\n"
            "print(code, nk._extended.cache_info().currsize)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 0\n"

    def test_certificate_brackets_the_exact_sum(self):
        # The docstring's two inequalities, in exact arithmetic: lo's factor
        # is at most 1 and hi's at least 1, up to 2**30 terms; and 1 - k and
        # 1 + k are exact in a 64-bit significand.
        u = Fraction(1, 2**64)
        for C in [*range(1, 200), 1000, 2**20, 2**30 - 1, 2**30]:
            g = (C - 1) * u / (1 - (C - 1) * u)
            j = 2 * (C // 2 + 1)
            assert j in (C + 1, C + 2) and j % 2 == 0
            k = j * u
            assert (1 + g) * (1 + u) * (1 - k) <= 1 <= (1 - g) * (1 - u) * (1 + k)
            assert ((1 + k) / (2 * u)).denominator == 1 and ((1 - k) / u).denominator == 1


class TestRng:
    def test_same_seed_same_stream(self):
        np.testing.assert_array_equal(Rng(42).uniforms(100), Rng(42).uniforms(100))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniforms(10), Rng(2).uniforms(10))

    def test_counter_based_blocks_concatenate(self):
        # Output n depends only on (seed, n), never on block boundaries.
        rng = Rng(7)
        a = np.concatenate([rng.uniforms(3), rng.uniforms(5)])
        np.testing.assert_array_equal(a, Rng(7).uniforms(8))
        # Sizes straddling the internal block edge, in sequence.
        sizes = (1, 63, 64, 65, 255, 256, 257, 5000)
        rng = Rng(7)
        a = np.concatenate([rng.uniforms(n) for n in sizes])
        np.testing.assert_array_equal(a, Rng(7).uniforms(sum(sizes)))
        assert rng.counter == sum(sizes)
        rng = Rng(7)
        a = np.concatenate([rng.integers(n, -4, 9) for n in sizes])
        np.testing.assert_array_equal(a, Rng(7).integers(sum(sizes), -4, 9))
        # A returned array is the caller's: writing to it leaves later
        # draws unchanged, even draws that rewind the counter over the
        # same outputs, so no view of the internal block is handed out.
        rng, ref = Rng(7), Rng(7).uniforms(8)
        first = rng.uniforms(3)
        first[:] = -1.0
        np.testing.assert_array_equal(rng.uniforms(5), ref[3:])
        rng.counter = 0
        np.testing.assert_array_equal(rng.uniforms(8), ref)

    def test_uniforms_in_unit_interval(self):
        u = Rng(3).uniforms(10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(float(np.mean(u)) - 0.5) < 0.02

    def test_normals_moments(self):
        x = Rng(11).normals(100_000)
        assert abs(float(np.mean(x))) < 0.02
        assert abs(float(np.var(x)) - 1.0) < 0.03

    def test_normals_odd_count(self):
        assert Rng(5).normals(7).shape == (7,)

    def test_integers_cover_range(self):
        draws = Rng(9).integers(5_000, 2, 6)
        assert set(np.unique(draws)) == {2, 3, 4, 5}

    def test_integers_rejects_empty_range(self):
        with pytest.raises(ValueError):
            Rng(0).integers(1, 3, 3)

    @pytest.mark.parametrize(
        "lo, hi, message",
        [(0.5, 3, "lo must be an integer, got 0.5"), (0, 3.0, "hi must be an integer, got 3.0"),
         (False, 3, "lo must be an integer, got False")],
        ids=["float-lo", "float-hi", "bool-lo"],
    )
    def test_integers_bounds_must_be_integers(self, lo, hi, message):
        # A float bound used to give floats: integers(3, 0.5, 3) returned
        # [2. 1.5 0.5].  The refusal comes before any draw.
        rng = Rng(0)
        with pytest.raises(ValueError, match=message):
            rng.integers(3, lo, hi)
        assert rng.counter == 0
        same = Rng(0).integers(4, 2, 6).tolist()
        assert Rng(0).integers(4, np.int64(2), np.int32(6)).tolist() == same

    @pytest.mark.parametrize(
        "lo, hi",
        [(0, 2**53 + 1), (-(2**52), 2**52 + 1), (0, 2**64), (2**70, 2**70 + 5),
         (-(2**63) - 1, 0), (2**63 - 1, 2**63)],
        ids=["span", "span-across-zero", "hi-past-uint64", "both-past-int64", "lo-below-int64",
             "hi-at-2**63"],
    )
    def test_integers_refuses_a_range_it_cannot_draw_uniformly(self, lo, hi):
        # Above a span of 2**53 some integers were never drawn; a bound
        # outside int64 gave garbage after a cast warning, or raised
        # OverflowError after the counter had moved.
        rng = Rng(0)
        with pytest.raises(ValueError, match=r"must lie in int64 and span at most 2\*\*53"):
            rng.integers(3, lo, hi)
        assert rng.counter == 0

    def test_integers_draws_up_to_a_span_of_2_53_and_the_int64_edges(self):
        u = Rng(5).uniforms(4)
        for lo, hi in [(0, 2**53), (2**63 - 2**53, 2**63 - 1), (-(2**63), -(2**63) + 2**53)]:
            draws = Rng(5).integers(4, lo, hi)
            assert draws.dtype == np.int64
            span = hi - lo
            assert draws.tolist() == [lo + min(int(x * span), span - 1) for x in u.tolist()]

    @pytest.mark.parametrize(
        "draw, message",
        [(lambda: Rng(1.5), "seed must be an integer, got 1.5"),
         (lambda: Rng(True), "seed must be an integer, got True"),
         (lambda: Rng(0).uniforms(2.5), "n must be an integer, got 2.5"),
         (lambda: Rng(0).normals(2.0), "n must be an integer, got 2.0"),
         (lambda: Rng(0).normals(-1), "n must be at least 0, got -1"),
         (lambda: Rng(0).integers(np.float64(2.0), 0, 3), "n must be an integer"),
         (lambda: Rng(0).categorical([0.5, 0.5], 1.0), "n must be an integer, got 1.0"),
         (lambda: Rng(0).permutation(3.0), "n must be an integer, got 3.0")],
        ids=["float-seed", "bool-seed", "uniforms", "normals", "negative-normals",
             "integers", "categorical", "permutation"],
    )
    def test_seed_and_draw_counts_must_be_integers(self, draw, message):
        with pytest.raises(ValueError, match=message):
            draw()

    def test_a_numpy_integer_seed_is_its_int(self):
        assert Rng(np.int64(7)).uniforms(5).tobytes() == Rng(7).uniforms(5).tobytes()
        assert Rng(np.uint64(2**64 - 1)).uniforms(5).tobytes() == Rng(-1).uniforms(5).tobytes()

    def test_categorical_frequencies(self):
        p = np.array([0.5, 0.3, 0.2])
        draws = Rng(17).categorical(p, 50_000)
        freqs = np.bincount(draws, minlength=3) / draws.shape[0]
        np.testing.assert_allclose(freqs, p, atol=0.01)

    def test_categorical_degenerate_simplex(self):
        draws = Rng(1).categorical([0.0, 1.0, 0.0], 100)
        assert np.all(draws == 1)

    @pytest.mark.parametrize(
        "p",
        [[0.5, 0.6], [1.5, -0.5], [0.2, -0.0, 0.7], [1.0 + 2e-9], [1.0 - 2e-9, 0.0]],
        ids=["over", "negative", "under", "over-by-2e-9", "under-by-2e-9"],
    )
    def test_categorical_refuses_a_vector_that_is_not_a_simplex(self, p):
        # [0.5, 0.6] used to draw class 1 with probability 0.5; the
        # refusal comes before any draw.
        rng = Rng(0)
        with pytest.raises(ValueError, match="non-negative and sum to 1 within 1e-09"):
            rng.categorical(p, 3)
        assert rng.counter == 0

    def test_categorical_refuses_an_overflowing_sum_without_a_warning(self):
        # np.cumsum's overflow warning used to come first, so under
        # filterwarnings = error a caller saw it instead of the ValueError.
        rng = Rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="got smallest 1e\\+308, sum inf"):
                rng.categorical([1e308, 1e308], 2)
        assert rng.counter == 0

    def test_categorical_takes_the_priors_its_callers_build(self):
        # The stream's long-tail priors, at every class count from 2 to
        # 1000 and skews up to 1e6, and the uniform priors cli builds as
        # np.full(C, 1 / C), sum to 1 within the tolerance, and their
        # draws keep the bits of the unchecked sampler.
        def unchecked(p, u):
            cdf = np.cumsum(p)
            cdf[-1] = 1.0
            return np.minimum(np.searchsorted(cdf, u, side="right"), len(p) - 1)

        for C in range(2, 1001):
            priors = [long_tail_priors(C, rho) for rho in (1.0, 10.0, 1e3, 1e6)]
            for p in priors + [np.full(C, 1 / C)]:
                assert abs(float(np.cumsum(p)[-1]) - 1.0) <= numkit._SIMPLEX_TOL / 100, C
                if C % 97 == 2:
                    draws = Rng(C).categorical(p, 50)
                    assert draws.tolist() == unchecked(p, Rng(C).uniforms(50)).tolist()

    def test_permutation_is_a_permutation(self):
        perm = Rng(23).permutation(1000)
        assert sorted(perm.tolist()) == list(range(1000))

    def test_permutation_first_position_roughly_uniform(self):
        counts = np.zeros(4)
        for i in range(2000):
            counts[Rng(i).permutation(4)[0]] += 1
        np.testing.assert_allclose(counts / 2000, 0.25, atol=0.05)

    def test_permutation_is_the_stable_argsort_of_its_uniforms(self):
        # The default sort is exact whenever the uniforms are distinct.
        for seed in range(25):
            for n in (0, 1, 2, 3, 17, 64, 255, 256, 257, 1000, 5000):
                expected = np.argsort(Rng(seed).uniforms(n), kind="stable")
                assert np.array_equal(Rng(seed).permutation(n), expected)

    @pytest.mark.parametrize(
        "keys",
        [
            np.zeros(6),
            np.array([0.5, 0.25, 0.5, 0.25, 0.75, 0.5]),
            np.arange(17) * 7919 % 3 / 3.0,
            np.arange(300) * 7919 % 10 / 10.0,
        ],
        ids=["all-equal", "some-equal", "3-values-17", "10-values-300"],
    )
    def test_permutation_keeps_tied_uniforms_in_index_order(self, keys, monkeypatch):
        # The last two are tie patterns the default sort does not keep in
        # index order, so they need the stable fallback.
        monkeypatch.setattr(Rng, "uniforms", lambda self, n: keys[:n].copy())
        perm = Rng(0).permutation(keys.shape[0])
        assert np.array_equal(perm, np.argsort(keys, kind="stable"))

    def test_derive_depends_only_on_label(self):
        rng = Rng(5)
        first = rng.derive("data").uniforms(10)
        rng.uniforms(100)  # advancing the parent must not matter
        np.testing.assert_array_equal(first, rng.derive("data").uniforms(10))
        assert not np.array_equal(first, rng.derive("init").uniforms(10))
        assert not np.array_equal(first, Rng(5).uniforms(10))

    def test_known_first_outputs(self):
        # Frozen regression values: the raw stream is a pure function of
        # (seed, counter), so these must never change.
        np.testing.assert_allclose(
            Rng(0).uniforms(3),
            [0.8833108082136426, 0.43152799704850997, 0.026433771592597743],
            rtol=0,
            atol=1e-16,
        )
