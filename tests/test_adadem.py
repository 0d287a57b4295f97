"""Tests for the adaptive variant: delta normalizer, calibrator, gradients."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demkit import adadem
from demkit.adadem import (
    DELTA_FLOOR,
    DELTA_SOURCES,
    NORM_KINDS,
    VARIANT_KINDS,
    AdaDemVariant,
    MecState,
    adadem_eval,
    adadem_rows,
    delta,
    mec_init,
    mec_update,
    _deltas_rows,
)
from demkit.em_losses import em_eval
from demkit.numkit import Rng, rel_err, softmax, softmax_rows



def _mec_update_per_class(state, P, labels):
    """The per-class loop ``mec_update`` replaced; the bit-exact reference."""
    for k in np.unique(labels):
        mean_k = P[labels == k].mean(axis=0)
        state.table[k] = (1.0 - state.pi) * state.table[k] + state.pi * mean_k
    return state


def _adadem_rows_unshared(Z, state, variant):
    """``adadem_rows`` with softmax, ``S`` and the reward rows recomputed
    where each is used, as before they were computed once and shared."""
    P = softmax_rows(Z)
    labels = np.argmax(P, axis=1)
    _mec_update_per_class(state, P, labels)
    Cmat = P if variant.kind == "norm_only" else variant.mec_alpha * state.table[labels]
    n = Z.shape[0]
    if variant.kind == "mec_only":
        d = np.ones(n)
    else:
        S = np.sum(P * Z, axis=1, keepdims=True)
        R = P * (Z + 1.0 - S) if variant.delta_source == "cadf" else P * (Z - S)
        if variant.norm == "L1":
            d = np.array([math.fsum(np.abs(R[i]).tolist()) for i in range(n)])
        elif variant.norm == "L2":
            d = np.array([math.sqrt(math.fsum((R[i] * R[i]).tolist())) for i in range(n)])
        else:
            d = np.max(np.abs(R), axis=1)
    d = np.maximum(d, DELTA_FLOOR)[:, None]
    S = np.sum(P * Z, axis=1, keepdims=True)
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
            assert delta(np.zeros(C), "L1", "cadf") == 1.0

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
            got = delta(np.zeros(C), "L1", "cadf")
            assert got != 1.0
            assert abs(got - 1.0) < 1e-15

    def test_l2_and_linf_match_numpy_norms(self):
        z = np.array([0.5, -1.5, 2.0, 0.0])
        r = np.abs(softmax(z) * (-(softmax(z) @ z) + z + 1.0))
        assert delta(z, "L2") == pytest.approx(float(np.linalg.norm(r)), rel=1e-15)
        assert delta(z, "Linf") == float(np.max(r))

    def test_full_entropy_source_vanishes_at_uniform(self):
        assert delta(np.zeros(6), "L1", "full_entropy") == 0.0

    def test_full_entropy_source_positive_off_uniform(self):
        assert delta([1.0, 2.0, 3.0], "L1", "full_entropy") > 1e-6

    @given(logit_vectors)
    @settings(max_examples=60)
    def test_cadf_source_stays_above_floor(self, z):
        # The CADF reward never vanishes: its L1 norm stays macroscopic
        # for logits in the working range.
        assert delta(np.asarray(z), "L1", "cadf") >= 1e-6

    def test_row_deltas_match_scalar_delta(self):
        # The batched deltas sum in another order than the scalar helper,
        # so they agree to rounding, not bit for bit.
        rng = np.random.default_rng(7)
        for norm in NORM_KINDS:
            for source in DELTA_SOURCES:
                variant = AdaDemVariant(norm=norm, delta_source=source)
                for C in range(2, 12):
                    Z = rng.uniform(-8.0, 8.0, (200, C))
                    P = softmax_rows(Z)
                    S = np.sum(P * Z, axis=1, keepdims=True)
                    rows = _deltas_rows(Z, P, S, P * (Z + 1.0 - S), variant)
                    for z, d in zip(Z, rows):
                        assert rel_err(d, delta(z, norm, source)) <= 1e-14

    def test_rejects_unknown_norm(self):
        with pytest.raises(ValueError):
            delta([1.0, 2.0], "L3")

    def test_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            delta([1.0, 2.0], "L1", "entropy")


class TestMecState:
    def test_init_is_uniform(self):
        state = mec_init(4)
        np.testing.assert_array_equal(state.table, np.full((4, 4), 0.25))
        assert state.pi == 0.1

    def test_init_validation(self):
        with pytest.raises(ValueError):
            mec_init(1)
        with pytest.raises(ValueError):
            mec_init(3, pi=0.0)
        with pytest.raises(ValueError):
            mec_init(3, pi=1.5)

    def test_one_update_reference(self):
        # Row 0 pulled from uniform toward [0.7, 0.2, 0.1] with pi = 0.1.
        state = mec_init(3)
        mec_update(state, np.array([[0.7, 0.2, 0.1]]), [0])
        np.testing.assert_allclose(state.table[0], [0.37, 0.32, 0.31], atol=1e-15)
        np.testing.assert_allclose(state.table[1], 1 / 3, atol=1e-15)
        # Exactly one EMA step on row 0, and none on the others.
        np.testing.assert_array_equal(
            state.table[0], (1 - 0.1) * np.full(3, 1 / 3) + 0.1 * np.array([0.7, 0.2, 0.1])
        )
        np.testing.assert_array_equal(state.table[1:], np.full((2, 3), 1 / 3))

    def test_absent_classes_keep_rows(self):
        state = mec_init(3)
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
        a, b = mec_init(2), mec_init(2)
        perm = [2, 0, 1]
        mec_update(a, probs, labels)
        mec_update(b, probs[perm], labels[perm])
        np.testing.assert_array_equal(a.table, b.table)

    def test_order_across_batches_matters(self):
        p1 = np.array([[0.9, 0.1]])
        p2 = np.array([[0.2, 0.8]])
        a, b = mec_init(2), mec_init(2)
        mec_update(mec_update(a, p1, [0]), p2, [0])
        mec_update(mec_update(b, p2, [0]), p1, [0])
        assert not np.array_equal(a.table, b.table)

    def test_geometric_decay_toward_constant_target(self):
        # With a constant batch mean q the gap to q shrinks by exactly
        # (1 - pi) per step.
        state = mec_init(3)
        q = np.array([0.5, 0.3, 0.2])
        gap0 = float(np.max(np.abs(state.table[1] - q)))
        for t in range(1, 51):
            mec_update(state, q[None, :], [1])
            gap = float(np.max(np.abs(state.table[1] - q)))
            assert abs(gap - (0.9**t) * gap0) < 1e-12

    def test_rows_stay_on_simplex_under_random_updates(self):
        rng = Rng(99)
        state = mec_init(5)
        for _ in range(10_000):
            logits = (rng.uniforms(5) - 0.5) * 30.0
            p = softmax(logits)
            mec_update(state, p[None, :], [int(np.argmax(p))])
        sums = state.table.sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)
        assert np.all(state.table >= 0.0)

    def test_validation_errors(self):
        state = mec_init(3)
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
        state = mec_init(3)
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

    def test_copy_is_independent(self):
        state = mec_init(3)
        clone = state.copy()
        mec_update(state, np.array([[0.7, 0.2, 0.1]]), [0])
        np.testing.assert_array_equal(clone.table, np.full((3, 3), 1 / 3))


class TestVariants:
    def test_defaults(self):
        v = AdaDemVariant()
        assert (v.kind, v.mec_alpha, v.delta_source, v.norm) == ("full", 1.0, "cadf", "L1")

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaDemVariant(kind="extra")
        with pytest.raises(ValueError):
            AdaDemVariant(norm="L0")
        with pytest.raises(ValueError):
            AdaDemVariant(delta_source="gmc")
        with pytest.raises(ValueError):
            AdaDemVariant(mec_alpha=-0.5)


class TestAdaDemRows:
    def test_norm_only_gradient_is_scaled_em(self):
        # Multiplying the norm_only gradient back by delta recovers the
        # classical EM gradient to within one rounding of the division.
        rng = Rng(7)
        variant = AdaDemVariant(kind="norm_only")
        for _ in range(200):
            z = (rng.uniforms(6) - 0.5) * 20.0
            state = mec_init(6)
            _, grads = adadem_rows(z[None, :], softmax_rows(z[None, :]), state, variant)
            d = max(delta(z), DELTA_FLOOR)
            assert rel_err(grads[0] * d, em_eval(z).grad) <= 1e-12

    def test_fresh_state_uniform_logits_near_fixed_point(self):
        # p equals the calibrator row up to EMA rounding, so value and
        # gradient sit at numerical zero.
        state = mec_init(10)
        Z = np.zeros((1, 10))
        values, grads = adadem_rows(Z, softmax_rows(Z), state)
        assert abs(values[0]) < 1e-12
        np.testing.assert_allclose(grads[0], 0.0, atol=1e-12)

    def test_calibrator_update_happens_before_evaluation(self):
        z = np.array([[2.0, 0.5, -1.0]])
        p = softmax(z[0])
        k = int(np.argmax(p))
        d = max(delta(z[0]), DELTA_FLOOR)

        state = mec_init(3)
        values, grads = adadem_rows(z, softmax_rows(z), state)

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
        state = mec_init(5)
        warm = (rng.uniforms(15).reshape(3, 5) - 0.5) * 8.0
        adadem_rows(warm, softmax_rows(warm), state)

        frozen = state.copy()
        _, grads = adadem_rows(z[None, :], softmax_rows(z[None, :]), state)

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
        state = mec_init(3)
        z = np.log(np.array([[0.4, 0.4, 0.2]]))
        adadem_rows(z, softmax_rows(z), state)
        p = softmax(z[0])
        assert p[0] == p[1]
        np.testing.assert_allclose(state.table[0], 0.9 / 3 + 0.1 * p, atol=1e-15)
        np.testing.assert_array_equal(state.table[1], np.full(3, 1 / 3))
        np.testing.assert_array_equal(state.table[2], np.full(3, 1 / 3))

    def test_mec_only_uses_unit_delta(self):
        z = np.array([[3.0, 0.0, -3.0]])
        sa = mec_init(3)
        sb = mec_init(3)
        _, g_mec = adadem_rows(z, softmax_rows(z), sa, AdaDemVariant(kind="mec_only"))
        _, g_full = adadem_rows(z, softmax_rows(z), sb, AdaDemVariant(kind="full"))
        d = max(delta(z[0]), DELTA_FLOOR)
        np.testing.assert_allclose(g_mec[0], g_full[0] * d, rtol=1e-12)

    def test_mec_alpha_scales_calibrator(self):
        z = np.array([[1.0, -1.0, 0.5]])
        sa, sb = mec_init(3), mec_init(3)
        _, g1 = adadem_rows(z, softmax_rows(z), sa, AdaDemVariant(mec_alpha=1.0))
        _, g0 = adadem_rows(z, softmax_rows(z), sb, AdaDemVariant(mec_alpha=0.0))
        p = softmax(z[0])
        d = max(delta(z[0]), DELTA_FLOOR)
        c = sa.table[int(np.argmax(p))]
        np.testing.assert_allclose(g1[0] - g0[0], c / d, rtol=1e-12)

    @pytest.mark.parametrize("norm", NORM_KINDS)
    @pytest.mark.parametrize("source", DELTA_SOURCES)
    @pytest.mark.parametrize("kind", VARIANT_KINDS)
    def test_shared_reward_rows_keep_every_bit(self, kind, source, norm):
        # S and the CADF reward rows are built once and shared by delta
        # and the gradient; the full-entropy delta must still use its own
        # P * (Z - S).  Values, gradients and the table must equal the
        # unshared formulas exactly, over several batches of one stream.
        variant = AdaDemVariant(kind=kind, mec_alpha=0.7, delta_source=source, norm=norm)
        rng = np.random.default_rng(23)
        ours, ref = mec_init(7, pi=0.2), mec_init(7, pi=0.2)
        for n in (64, 1, 13):
            Z = rng.uniform(-9.0, 9.0, (n, 7))
            P = softmax_rows(Z)
            values, grads = adadem_rows(Z, P, ours, variant)
            ref_values, ref_grads = _adadem_rows_unshared(Z, ref, variant)
            assert np.array_equal(values, ref_values)
            assert np.array_equal(grads, ref_grads)
            assert np.array_equal(ours.table, ref.table)
            assert np.array_equal(P, softmax_rows(Z))  # P is read, not written

    def test_never_calls_the_validating_update(self, monkeypatch):
        # adadem_rows builds P and its argmax labels itself, so it runs
        # the unchecked kernel; the table still matches the public update.
        ref = mec_init(4)
        Z = np.random.default_rng(3).uniform(-5.0, 5.0, (32, 4))
        P = softmax_rows(Z)
        mec_update(ref, P, np.argmax(P, axis=1))

        def no_public_update(*args):
            raise AssertionError("adadem_rows called the public mec_update")

        monkeypatch.setattr(adadem, "mec_update", no_public_update)
        state = mec_init(4)
        adadem_rows(Z, P, state)
        assert np.array_equal(state.table, ref.table)

    def test_probabilities_must_match_the_logits(self):
        Z = np.zeros((2, 3))
        with pytest.raises(ValueError):
            adadem_rows(Z, softmax_rows(Z[:1]), mec_init(3))

    def test_state_class_count_must_match(self):
        with pytest.raises(ValueError):
            adadem_rows(np.zeros((1, 4)), np.full((1, 4), 0.25), mec_init(3))

    def test_eval_wrapper_returns_per_sample_evals(self):
        state = mec_init(3)
        evals = adadem_eval([np.array([1.0, 0.0, -1.0]), np.array([0.0, 2.0, 0.0])], state)
        assert len(evals) == 2
        assert all(e.grad.shape == (3,) for e in evals)
        # One EMA step for the whole batch: the rows of both pseudo-labels
        # moved once, toward their own sample, and the third kept its row.
        ref = mec_init(3)
        P = softmax_rows(np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.0]]))
        mec_update(ref, P, [0, 1])
        np.testing.assert_array_equal(state.table, ref.table)

    def test_eval_wrapper_accepts_a_matrix(self):
        Z = np.array([[1.0, 0.0, -1.0], [0.0, 2.0, 0.0]])
        by_rows = adadem_eval(list(Z), mec_init(3))
        by_matrix = adadem_eval(Z, mec_init(3))
        for a, b in zip(by_rows, by_matrix):
            assert a.value == b.value
            np.testing.assert_array_equal(a.grad, b.grad)

    @pytest.mark.parametrize(
        "batch",
        [
            np.array([[np.nan, 0.0, 1.0]]),
            [np.array([np.nan, 0.0, 1.0])],
            np.array([[np.inf, 0.0, 1.0], [0.0, 0.0, 0.0]]),
            [np.array([0.0, 0.0, 0.0]), np.array([-np.inf, 0.0, 1.0])],
            np.array([1.0, 0.0, -1.0]),  # a matrix batch must be 2-D
            np.zeros((2, 1)),  # fewer than two classes
            [np.zeros(1), np.zeros(1)],
        ],
    )
    def test_eval_wrapper_rejects_bad_batches_without_touching_state(self, batch):
        state = mec_init(3)
        with pytest.raises(ValueError):
            adadem_eval(batch, state)
        np.testing.assert_array_equal(state.table, mec_init(3).table)

    def test_full_entropy_delta_floor_keeps_gradients_finite(self):
        # At uniform logits the full-entropy normalizer vanishes; the
        # floor keeps the division finite.
        state = mec_init(4)
        variant = AdaDemVariant(delta_source="full_entropy")
        Z = np.zeros((1, 4))
        values, grads = adadem_rows(Z, softmax_rows(Z), state, variant)
        assert np.all(np.isfinite(grads))
        assert np.isfinite(values[0])

    def test_batched_rows_match_sequential_delta(self):
        # The vectorized per-row deltas agree with the scalar helper to
        # rounding.
        rng = Rng(31)
        Z = (rng.uniforms(24).reshape(4, 6) - 0.5) * 18.0
        for norm in ("L1", "L2", "Linf"):
            variant = AdaDemVariant(norm=norm)
            state = mec_init(6)
            _, grads = adadem_rows(Z.copy(), softmax_rows(Z), state, variant)
            state2 = mec_init(6)
            P = np.stack([softmax(z) for z in Z])
            labels = [int(np.argmax(p)) for p in P]
            mec_update(state2, P, labels)
            for i, z in enumerate(Z):
                d = max(delta(z, norm), DELTA_FLOOR)
                c = state2.table[labels[i]]
                p = P[i]
                s = float(np.dot(p, z))
                expected = -(p * (z + 1.0 - s) - c) / d
                # np.dot and the row-wise reduction inside adadem_rows
                # may round the inner product differently by one ulp.
                np.testing.assert_allclose(grads[i], expected, rtol=1e-12, atol=1e-15)
