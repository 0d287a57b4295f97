"""Tests for the adaptive variant: delta normalizer, calibrator, gradients."""

import functools
import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demkit import adadem, numkit
from demkit.adadem import (
    DELTA_FLOOR,
    VARIANT_KINDS,
    AdaDemVariant,
    MecState,
    adadem_row_values,
    adadem_rows,
    delta,
    mec_init,
    mec_update,
    _loss_terms,
)
from demkit.cli import DEFAULT_CONFIG
from demkit.em_losses import em_eval
from demkit.numkit import Rng, rel_err, softmax, softmax_rows

# The default config's MEC momentum, for the calls that take it.
PI = DEFAULT_CONFIG["loss"]["pi"]


def _mec_update_per_class(state, P, labels):
    """The per-class loop ``mec_update`` replaced; the bit-exact reference."""
    for k in np.unique(labels):
        mean_k = P[labels == k].mean(axis=0)
        state.table[k] = (1.0 - state.pi) * state.table[k] + state.pi * mean_k
    return state


def _adadem_rows_unshared(Z, state, variant):
    """``adadem_rows`` with softmax and the reward rows recomputed where
    each is used, as before they were computed once and shared."""
    P = softmax_rows(Z)
    labels = np.argmax(P, axis=1)
    _mec_update_per_class(state, P, labels)
    Cmat = P if variant.kind == "norm_only" else state.table[labels]
    S = np.sum(P * Z, axis=1, keepdims=True)
    R = P * (Z + 1.0 - S)
    d = np.array([math.fsum(np.abs(r).tolist()) for r in R])
    d = np.maximum(d, DELTA_FLOOR)[:, None]
    values = -np.sum((P - Cmat) * Z, axis=1, keepdims=True) / d
    grads = -(P * (Z + 1.0 - S) - Cmat) / d
    return values[:, 0], grads


logit_vectors = st.lists(
    st.floats(min_value=-20, max_value=20), min_size=2, max_size=10
)

# C values where the C-term sum of the double nearest 1/C cannot round
# to 1.0; see test_delta_uniform_impossible_class_counts for the proof.
INEXACT_C = {49, 98}


class TestDelta:
    def test_reference_value(self):
        # L1 norm of the CADF reward at [1,2,3], mpmath 50-digit oracle.
        assert abs(delta([1.0, 2.0, 3.0]) - 1.1035730408788635) < 1e-15

    def test_uniform_logits_give_exactly_one(self):
        for C in range(2, 101):
            if C in INEXACT_C:
                continue
            assert delta(np.zeros(C)) == 1.0

    def test_delta_uniform_impossible_class_counts(self):
        # For C in {49, 98} no summation algorithm can return 1.0: the
        # exact sum of C copies of the double nearest to 1/C sits below
        # 1 by more than the rounding radius 2**-54 (float spacing just
        # under 1.0 is 2**-53), so even the correctly rounded sum is the
        # float one ulp below 1.  fsum returns exactly that float.
        for C in INEXACT_C:
            per_entry = Fraction(1.0 / C)  # exact value of the stored double
            exact_sum = C * per_entry
            assert exact_sum < 1 - Fraction(1, 2**54)
            got = delta(np.zeros(C))
            assert got != 1.0
            assert abs(got - 1.0) < 1e-15

    @given(logit_vectors)
    @settings(max_examples=60)
    def test_cadf_source_stays_above_floor(self, z):
        # The CADF reward's entries sum to 1, so its L1 norm is at least 1
        # up to rounding for logits in the working range.
        assert delta(np.asarray(z)) >= 1 - 1e-12

    def test_row_deltas_match_scalar_delta(self):
        # The batched deltas sum in another order than the scalar helper,
        # so they agree to rounding, not bit for bit.
        rng = np.random.default_rng(7)
        for C in range(2, 12):
            Z = rng.uniform(-8.0, 8.0, (200, C))
            P = softmax_rows(Z)
            labels = np.argmax(P, axis=1)
            _, _, rows = _loss_terms(Z, P, labels, mec_init(C, PI), AdaDemVariant())
            for z, d in zip(Z, rows[:, 0]):
                assert rel_err(d, delta(z)) <= 1e-14


class TestMecState:
    def test_init_is_uniform(self):
        state = mec_init(4, PI)
        np.testing.assert_array_equal(state.table, np.full((4, 4), 0.25))
        assert state.pi == PI

    @pytest.mark.parametrize(
        "C, message",
        [(3.0, "C must be an integer, got 3.0"), (True, "C must be an integer, got True"),
         (np.float64(2.0), "C must be an integer"), (1, "C must be at least 2, got 1")],
        ids=["float", "bool", "numpy-float", "one-class"],
    )
    def test_init_checks_the_class_count(self, C, message):
        with pytest.raises(ValueError, match=message):
            mec_init(C, PI)

    def test_init_validation(self):
        with pytest.raises(ValueError):
            mec_init(1, PI)
        with pytest.raises(ValueError):
            mec_init(3, pi=0.0)
        with pytest.raises(ValueError):
            mec_init(3, pi=1.5)

    @pytest.mark.parametrize(
        "table", [np.full((3, 2), 0.5), np.full(3, 1 / 3), np.full((2, 2, 2), 0.5)],
        ids=["3x2", "vector", "three-axes"],
    )
    def test_a_table_that_is_not_square_is_refused(self, table):
        with pytest.raises(ValueError, match=r"table must be C x C, got shape \("):
            MecState(table, PI)

    def test_a_state_built_directly_checks_its_momentum(self):
        # pi = 2.0 wrote the non-probability row [1.590, -0.280, -0.310].
        with pytest.raises(ValueError, match=r"momentum pi must lie in \(0, 1\], got 2.0"):
            MecState(np.full((3, 3), 1 / 3), pi=2.0)

    def test_one_update_reference(self):
        # Row 0 pulled from uniform toward [0.7, 0.2, 0.1] with pi = 0.1.
        state = mec_init(3, PI)
        mec_update(state, np.array([[0.7, 0.2, 0.1]]), [0])
        np.testing.assert_allclose(state.table[0], [0.37, 0.32, 0.31], atol=1e-15)
        np.testing.assert_allclose(state.table[1], 1 / 3, atol=1e-15)
        # Exactly one EMA step on row 0, and none on the others.
        np.testing.assert_array_equal(
            state.table[0], (1 - 0.1) * np.full(3, 1 / 3) + 0.1 * np.array([0.7, 0.2, 0.1])
        )
        np.testing.assert_array_equal(state.table[1:], np.full((2, 3), 1 / 3))

    def test_absent_classes_keep_rows(self):
        state = mec_init(3, PI)
        before = state.table.copy()
        mec_update(state, np.array([[0.5, 0.3, 0.2]]), [1])
        np.testing.assert_array_equal(state.table[0], before[0])
        np.testing.assert_array_equal(state.table[2], before[2])

    def test_batch_mean_per_class(self):
        state = mec_init(2, pi=1.0)  # pi = 1 copies the batch mean exactly
        probs = np.array([[0.9, 0.1], [0.7, 0.3], [0.2, 0.8]])
        mec_update(state, probs, [0, 0, 1])
        np.testing.assert_allclose(state.table[0], [0.8, 0.2], atol=1e-15)
        np.testing.assert_allclose(state.table[1], [0.2, 0.8], atol=1e-15)

    def test_order_within_batch_is_irrelevant(self):
        probs = np.array([[0.6, 0.4], [0.8, 0.2], [0.1, 0.9]])
        labels = np.array([0, 0, 1])
        a, b = mec_init(2, PI), mec_init(2, PI)
        perm = [2, 0, 1]
        mec_update(a, probs, labels)
        mec_update(b, probs[perm], labels[perm])
        np.testing.assert_array_equal(a.table, b.table)

    def test_order_across_batches_matters(self):
        p1 = np.array([[0.9, 0.1]])
        p2 = np.array([[0.2, 0.8]])
        a, b = mec_init(2, PI), mec_init(2, PI)
        mec_update(mec_update(a, p1, [0]), p2, [0])
        mec_update(mec_update(b, p2, [0]), p1, [0])
        assert not np.array_equal(a.table, b.table)

    def test_geometric_decay_toward_constant_target(self):
        # With a constant batch mean q the gap to q shrinks by exactly
        # (1 - pi) per step.
        state = mec_init(3, PI)
        q = np.array([0.5, 0.3, 0.2])
        gap0 = float(np.max(np.abs(state.table[1] - q)))
        for t in range(1, 51):
            mec_update(state, q[None, :], [1])
            gap = float(np.max(np.abs(state.table[1] - q)))
            assert abs(gap - (0.9**t) * gap0) < 1e-12

    def test_rows_stay_on_simplex_under_random_updates(self):
        rng = Rng(99)
        state = mec_init(5, PI)
        for _ in range(10_000):
            logits = (rng.uniforms(5) - 0.5) * 30.0
            p = softmax(logits)
            mec_update(state, p[None, :], [int(np.argmax(p))])
        sums = state.table.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        assert np.all(state.table >= 0.0)

    def test_validation_errors(self):
        state = mec_init(3, PI)
        with pytest.raises(ValueError):
            mec_update(state, np.zeros((2, 3)), [0])  # batch size mismatch
        with pytest.raises(ValueError):
            mec_update(state, np.full((1, 4), 0.25), [0])  # class mismatch
        with pytest.raises(ValueError):
            mec_update(state, np.full((1, 3), 1 / 3), [3])  # label range

    def test_validation_runs_before_the_kernel(self, monkeypatch):
        # Bad input is refused by the public wrapper: the kernel is never
        # reached and the table keeps its bits.
        def no_kernel(*args):
            raise AssertionError("_mec_update reached with invalid input")

        monkeypatch.setattr(adadem, "_mec_update", no_kernel)
        state = mec_init(3, PI)
        before = state.table.copy()
        for probs, labels in [
            (np.zeros((2, 3)), [0]),
            (np.full((1, 4), 0.25), [0]),
            (np.full((1, 3), 1 / 3), [-1]),
            (np.full((2, 3), 1 / 3), [0, 3]),
        ]:
            with pytest.raises(ValueError):
                mec_update(state, probs, labels)
        assert np.array_equal(state.table, before)

    @pytest.mark.parametrize(
        "probs, labels",
        [
            ([[0.2, 0.3, 0.5]], [1.7]),  # was taken as class 1
            ([[0.2, 0.3, 0.5]], [True]),  # was taken as class 1
            ([[0.2, 0.3, 0.5]], np.array([1.0])),
            ([[math.nan, 0.3, 0.5]], [1]),  # wrote NaN into the table
            ([[math.inf, 0.3, 0.5]], [1]),
            ([[0.2, 0.3, 0.5]], [[1]]),  # one label per row, not a column
        ],
        ids=["float-label", "bool-label", "float-array", "nan-prob", "inf-prob", "label-column"],
    )
    def test_non_integer_labels_and_non_finite_probabilities_are_refused(
        self, monkeypatch, probs, labels
    ):
        def no_kernel(*args):
            raise AssertionError("_mec_update reached with invalid input")

        state = mec_init(3, PI)
        before = state.table.copy()
        monkeypatch.setattr(adadem, "_mec_update", no_kernel)
        with pytest.raises(ValueError):
            mec_update(state, probs, labels)
        assert np.array_equal(state.table, before)

    def test_empty_and_unsigned_batches_are_accepted(self):
        state = mec_init(3, PI)
        before = state.table.copy()
        mec_update(state, np.empty((0, 3)), np.empty(0, dtype=np.int64))
        assert np.array_equal(state.table, before)
        ref = mec_init(3, PI)
        P = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]])
        mec_update(state, P, np.array([2, 0], dtype=np.uint8))
        mec_update(ref, P, [2, 0])
        assert np.array_equal(state.table, ref.table)

    def test_scatter_matches_the_per_class_loop_bit_for_bit(self):
        # np.add.at adds each class's rows strictly in batch order, as
        # P[labels == k].mean(axis=0) does.  np.add.reduceat and a
        # ones-vector matmul sum in another order and change a few
        # percent of the cells, so neither may stand in for it.
        rng = np.random.default_rng(17)
        for C in range(2, 12):
            for n in (1, 2, 5, 64, 300):
                for labelling in ("argmax", "uniform", "one_class", "half_absent"):
                    P = softmax_rows(rng.uniform(-8.0, 8.0, (n, C)))
                    if labelling == "argmax":
                        labels = np.argmax(P, axis=1)
                    elif labelling == "uniform":
                        labels = rng.integers(0, C, n)
                    elif labelling == "one_class":
                        labels = np.full(n, rng.integers(0, C))
                    else:
                        labels = rng.integers(0, max(1, C // 2), n)
                    # A non-uniform starting table and momentum.
                    table = softmax_rows(rng.uniform(-3.0, 3.0, (C, C)))
                    pi = float(rng.uniform(0.01, 1.0))
                    ours, ref = MecState(table.copy(), pi), MecState(table.copy(), pi)
                    mec_update(ours, P, labels)
                    _mec_update_per_class(ref, P, labels)
                    assert np.array_equal(ours.table, ref.table), (C, n, labelling)
                    absent = np.setdiff1d(np.arange(C), labels)
                    assert np.array_equal(ours.table[absent], table[absent])

    def test_bincount_sums_match_the_add_at_formula(self):
        # The kernel's weighted bincount over label * C + column against
        # the np.add.at scatter into a zero table that it replaced, bit
        # for bit: random batches, and batches whose pseudo-labels tie
        # (rows with several equal maxima, and every row on one class).
        def add_at_update(state, P, labels):
            sums = np.zeros((state.C, state.C))
            np.add.at(sums, labels, P)
            counts = np.bincount(labels, minlength=state.C)
            means = sums / np.maximum(counts, 1)[:, None]
            new = (1.0 - state.pi) * state.table + state.pi * means
            np.copyto(state.table, new, where=(counts > 0)[:, None])

        rng = np.random.default_rng(23)
        for trial in range(600):
            C, n = int(rng.integers(2, 12)), int(rng.integers(0, 130))
            P = softmax_rows(rng.uniform(-8.0, 8.0, (n, C)))
            if trial % 3 == 1:
                tied = rng.integers(0, 3, (n, C)).astype(np.float64)
                P = tied / np.maximum(tied.sum(axis=1, keepdims=True), 1.0)
            labels = np.argmax(P, axis=1) if trial % 3 != 2 else np.full(n, trial % C)
            table = softmax_rows(rng.uniform(-3.0, 3.0, (C, C)))
            pi = float(rng.uniform(0.01, 1.0))
            ours, ref = MecState(table.copy(), pi), MecState(table.copy(), pi)
            adadem._mec_update(ours, P, labels)
            add_at_update(ref, P, labels)
            assert ours.table.tobytes() == ref.table.tobytes(), (trial, C, n)

    def test_copy_is_independent(self):
        state = mec_init(3, PI)
        clone = state.copy()
        mec_update(state, np.array([[0.7, 0.2, 0.1]]), [0])
        np.testing.assert_array_equal(clone.table, np.full((3, 3), 1 / 3))


class TestVariants:
    def test_defaults(self):
        assert [f.name for f in fields(AdaDemVariant)] == ["kind"]
        assert AdaDemVariant().kind == "full"

    def test_validation(self):
        for kind in ("extra", "mec_only"):
            with pytest.raises(ValueError):
                AdaDemVariant(kind=kind)
        # The calibrator enters at weight 1; there is no scale to set.
        with pytest.raises(TypeError):
            AdaDemVariant(mec_alpha=1.0)

    @pytest.mark.parametrize("option", [{"norm": "L1"}, {"delta_source": "cadf"}])
    def test_delta_options_are_gone(self, option):
        # Delta is the L1 norm of the CADF reward; there is nothing to pick.
        with pytest.raises(TypeError):
            AdaDemVariant(**option)


class TestAdaDemRows:
    def test_norm_only_gradient_is_scaled_em(self):
        # Multiplying the norm_only gradient back by delta recovers the
        # classical EM gradient to within one rounding of the division.
        rng = Rng(7)
        variant = AdaDemVariant(kind="norm_only")
        for _ in range(200):
            z = (rng.uniforms(6) - 0.5) * 20.0
            state = mec_init(6, PI)
            grads = adadem_rows(z[None, :], softmax_rows(z[None, :]), state, variant)
            d = max(delta(z), DELTA_FLOOR)
            assert rel_err(grads[0] * d, em_eval(z).grad) <= 1e-12

    def test_fresh_state_uniform_logits_near_fixed_point(self):
        # p equals the calibrator row up to EMA rounding, so value and
        # gradient sit at numerical zero.
        state = mec_init(10, PI)
        Z = np.zeros((1, 10))
        grads = adadem_rows(Z, softmax_rows(Z), state)
        values = adadem_row_values(Z, softmax_rows(Z), state)
        assert abs(values[0]) < 1e-12
        np.testing.assert_allclose(grads[0], 0.0, atol=1e-12)

    def test_calibrator_update_happens_before_evaluation(self):
        z = np.array([[2.0, 0.5, -1.0]])
        p = softmax(z[0])
        k = int(np.argmax(p))
        d = max(delta(z[0]), DELTA_FLOOR)

        state = mec_init(3, PI)
        grads = adadem_rows(z, softmax_rows(z), state)
        values = adadem_row_values(z, softmax_rows(z), state)

        # Hand-compute both orderings; the committed contract is
        # update-first, so the returned value must use the row that has
        # already absorbed this batch.
        row_before = np.full(3, 1 / 3)
        row_after = 0.9 * row_before + 0.1 * p
        value_update_first = -float(np.dot(p - row_after, z[0])) / d
        value_eval_first = -float(np.dot(p - row_before, z[0])) / d
        assert values[0] == pytest.approx(value_update_first, abs=1e-15)
        assert abs(values[0] - value_eval_first) > 1e-4
        np.testing.assert_array_equal(state.table[k], row_after)

    def test_gradient_treats_calibrator_and_delta_as_constants(self):
        # Finite differences of the frozen-constant objective.
        rng = Rng(21)
        z = (rng.uniforms(5) - 0.5) * 8.0
        state = mec_init(5, PI)
        warm = (rng.uniforms(15).reshape(3, 5) - 0.5) * 8.0
        adadem_rows(warm, softmax_rows(warm), state)

        frozen = state.copy()
        grads = adadem_rows(z[None, :], softmax_rows(z[None, :]), state)

        p = softmax(z)
        k = int(np.argmax(p))
        mec_update(frozen, p[None, :], [k])
        c = frozen.table[k]
        d = max(delta(z), DELTA_FLOOR)

        def objective(v):
            return -float(np.dot(softmax(v) - c, v)) / d

        from demkit.numkit import finite_diff_grad

        assert rel_err(grads[0], finite_diff_grad(objective, z)) < 1e-6

    def test_tied_pseudo_labels_go_to_lowest_index(self):
        # Classes 0 and 1 tie exactly; the calibrator row of class 0
        # absorbs the sample and row 1 stays uniform.
        state = mec_init(3, PI)
        z = np.log(np.array([[0.4, 0.4, 0.2]]))
        adadem_rows(z, softmax_rows(z), state)
        p = softmax(z[0])
        assert p[0] == p[1]
        np.testing.assert_allclose(state.table[0], 0.9 / 3 + 0.1 * p, atol=1e-15)
        np.testing.assert_array_equal(state.table[1], np.full(3, 1 / 3))
        np.testing.assert_array_equal(state.table[2], np.full(3, 1 / 3))

    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_shared_reward_rows_keep_every_bit(self, kind):
        # S and the CADF reward rows are built once and shared by delta
        # and the gradient.  Values, gradients and the table must equal
        # the unshared formulas exactly, over several batches of one
        # stream.
        variant = AdaDemVariant(kind=kind)
        rng = np.random.default_rng(23)
        ours, ref = mec_init(7, pi=0.2), mec_init(7, pi=0.2)
        for n in (64, 1, 13):
            Z = rng.uniform(-9.0, 9.0, (n, 7))
            P = softmax_rows(Z)
            grads = adadem_rows(Z, P, ours, variant)
            values = adadem_row_values(Z, P, ours, variant)
            ref_values, ref_grads = _adadem_rows_unshared(Z, ref, variant)
            assert np.array_equal(values, ref_values)
            assert np.array_equal(grads, ref_grads)
            assert np.array_equal(ours.table, ref.table)
            assert np.array_equal(P, softmax_rows(Z))  # P is read, not written

    def test_never_calls_the_validating_update(self, monkeypatch):
        # adadem_rows builds P and its argmax labels itself, so it runs
        # the unchecked kernel; the table still matches the public update.
        ref = mec_init(4, PI)
        Z = np.random.default_rng(3).uniform(-5.0, 5.0, (32, 4))
        P = softmax_rows(Z)
        mec_update(ref, P, np.argmax(P, axis=1))

        def no_public_update(*args):
            raise AssertionError("adadem_rows called the public mec_update")

        monkeypatch.setattr(adadem, "mec_update", no_public_update)
        state = mec_init(4, PI)
        adadem_rows(Z, P, state)
        assert np.array_equal(state.table, ref.table)

    def test_list_inputs_give_the_bits_of_arrays(self):
        # _checked converts P as it converts Z, so lists reach the kernel
        # as float64 matrices.
        Z = np.random.default_rng(4).uniform(-5.0, 5.0, (6, 4))
        P = softmax_rows(Z)
        warm = mec_init(4, PI)
        adadem_rows(Z[::-1].copy(), softmax_rows(Z[::-1].copy()), warm)
        ours, ref = warm.copy(), warm.copy()
        grads = adadem_rows(Z.tolist(), P.tolist(), ours)
        assert grads.tobytes() == adadem_rows(Z, P, ref).tobytes()
        assert ours.table.tobytes() == ref.table.tobytes()
        values = adadem_row_values(Z.tolist(), P.tolist(), ours)
        assert values.tobytes() == adadem_row_values(Z, P, ref).tobytes()

    def test_probabilities_must_match_the_logits(self):
        Z = np.zeros((2, 3))
        with pytest.raises(ValueError):
            adadem_rows(Z, softmax_rows(Z[:1]), mec_init(3, PI))

    def test_state_class_count_must_match(self):
        with pytest.raises(ValueError):
            adadem_rows(np.zeros((1, 4)), np.full((1, 4), 0.25), mec_init(3, PI))

    def test_row_values_read_the_state_without_updating(self):
        # The values judge the batch against the calibrator as it stands,
        # the table adadem_rows has just updated; the state is not touched.
        Z = np.random.default_rng(5).uniform(-4.0, 4.0, (16, 5))
        P = softmax_rows(Z)
        state = mec_init(5, PI)
        adadem_rows(Z, P, state)
        table = state.table.copy()
        values = adadem_row_values(Z, P, state)
        assert values.shape == (16,)
        assert np.array_equal(state.table, table)
        with pytest.raises(ValueError):
            adadem_row_values(Z, P[:1], state)
        with pytest.raises(ValueError):
            adadem_row_values(Z, P, mec_init(4, PI))

    def test_one_ema_step_for_the_whole_batch(self):
        # The rows of both pseudo-labels moved once, toward their own
        # sample, and the third kept its row.
        Z = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.0]])
        P = softmax_rows(Z)
        state, ref = mec_init(3, PI), mec_init(3, PI)
        adadem_rows(Z, P, state)
        mec_update(ref, P, [0, 1])
        np.testing.assert_array_equal(state.table, ref.table)
        np.testing.assert_array_equal(state.table[2], np.full(3, 1 / 3))

    def test_delta_floor_keeps_gradients_finite_at_huge_logits(self):
        # z + 1 - s cancels to 0 at |z| ~ 1e17, so the CADF delta reads 0
        # there although it is at least 1 in exact arithmetic; the floor
        # keeps the division finite.
        Z = np.array([[1e17, 0.0]])
        assert delta(Z[0]) == 0.0
        state = mec_init(2, PI)
        grads = adadem_rows(Z, softmax_rows(Z), state)
        values = adadem_row_values(Z, softmax_rows(Z), state)
        # The reward row cancels to 0, so the gradient is the calibrator
        # row over the floor: [5.5e7, 4.5e7].
        assert np.array_equal(grads[0], state.table[0] / DELTA_FLOOR)
        assert np.all(np.isfinite(grads))
        assert np.isfinite(values[0])

    @pytest.mark.parametrize("n", (1, numkit._CERTIFY_ROWS - 1, numkit._CERTIFY_ROWS, 64))
    def test_deltas_are_fsums_bits_on_either_route(self, monkeypatch, n):
        # Batched deltas are math.fsum's bits, whether the batch is summed
        # in longdouble with a certificate or by fsum row by row.
        rng = np.random.default_rng(n)
        batches = []
        for C in range(2, 41):
            Z = rng.standard_normal((n, C)) * rng.choice([0.5, 4.0, 40.0])
            P = softmax_rows(Z)
            labels = np.argmax(P, axis=1)
            _, Rc, d = _loss_terms(Z, P, labels, mec_init(C, PI), AdaDemVariant())
            expected = np.maximum([math.fsum(np.abs(row).tolist()) for row in Rc], DELTA_FLOOR)
            assert d[:, 0].tobytes() == expected.tobytes()
            batches.append((Z, P, adadem_rows(Z, P, mec_init(C, PI))))
        monkeypatch.setattr(
            numkit, "_extended", functools.partial(numkit._extended, np.float64)
        )
        for Z, P, grads in batches:
            assert adadem_rows(Z, P, mec_init(Z.shape[1], PI)).tobytes() == grads.tobytes()

    @pytest.mark.parametrize("n", (1, numkit._CERTIFY_ROWS - 1, numkit._CERTIFY_ROWS, 64))
    def test_an_overflowing_delta_raises_fsums_overflow_error(self, n):
        # With P all ones (not a softmax), each reward row is 1e308, -1e308,
        # 1, ...: its L1 norm overflows, and math.fsum raises for it.
        for C in range(2, 41):
            Z = np.zeros((n, C))
            Z[:, :2] = 1e308, -1e308
            with pytest.raises(OverflowError):
                adadem_rows(Z, np.ones_like(Z), mec_init(C, PI))

    def test_batched_rows_match_sequential_delta(self):
        # The vectorized per-row deltas agree with the scalar helper to
        # rounding.
        rng = Rng(31)
        Z = (rng.uniforms(24).reshape(4, 6) - 0.5) * 18.0
        state = mec_init(6, PI)
        grads = adadem_rows(Z.copy(), softmax_rows(Z), state)
        state2 = mec_init(6, PI)
        P = np.stack([softmax(z) for z in Z])
        labels = [int(np.argmax(p)) for p in P]
        mec_update(state2, P, labels)
        for i, z in enumerate(Z):
            d = max(delta(z), DELTA_FLOOR)
            c = state2.table[labels[i]]
            p = P[i]
            s = float(np.dot(p, z))
            expected = -(p * (z + 1.0 - s) - c) / d
            # np.dot and the row-wise reduction inside adadem_rows
            # may round the inner product differently by one ulp.
            np.testing.assert_allclose(grads[i], expected, rtol=1e-12, atol=1e-15)
