"""Loss terms against closed forms, and the Dice/IoU metric algebra."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sa2net.tensor as T
from sa2net.errors import ContractError, DimensionError, ValidationError
from sa2net.gradcheck import grad_error, run_suite
from sa2net.losses import (
    IOU_EPS,
    total_loss,
    weight_map,
    weighted_bce,
    weighted_iou_loss,
)
from sa2net.metrics import (
    EvalReport,
    dice_score,
    ensemble_mean,
    iou_score,
    threshold_mask,
)
from sa2net.tensor import Rng, Tensor


def random_mask(rng, shape):
    return Tensor((rng.random(shape) > 0.5).astype(np.float64))


class TestWeightMap:
    def test_constant_masks_give_unit_weights(self):
        for value in (0.0, 1.0):
            gt = Tensor(np.full((1, 1, 20, 20), value))
            w = weight_map(gt)
            npt.assert_array_equal(w.data, np.ones_like(gt.data))

    def test_single_pixel_boundary_weight(self):
        gt = np.zeros((1, 1, 15, 15))
        gt[0, 0, 7, 7] = 1.0
        w = weight_map(Tensor(gt))
        expected_center = 1.0 + 5.0 * (1.0 - 1.0 / 225.0)
        assert abs(w.data[0, 0, 7, 7] - expected_center) < 1e-12
        assert np.all(w.data >= 1.0)

    def test_detached_from_tape(self):
        gt = random_mask(Rng(1), (1, 1, 8, 8))
        w = weight_map(gt)
        assert not w.requires_grad and w._node is None

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError, match="binary"):
            weight_map(Tensor(np.full((1, 1, 4, 4), 0.5)))


class TestWeightedBce:
    def test_zero_logits_give_log_two(self):
        rng = Rng(2)
        gt = random_mask(rng, (1, 1, 6, 6))
        logits = Tensor(np.zeros((1, 1, 6, 6)))
        w = Tensor(np.ones((1, 1, 6, 6)))
        loss = weighted_bce(logits, gt, w)
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_saturated_correct_logits_vanish_without_overflow(self):
        gt = random_mask(Rng(3), (1, 1, 8, 8))
        logits = Tensor(np.where(gt.data == 1.0, 30.0, -30.0))
        w = weight_map(gt)
        loss = weighted_bce(logits, gt, w)
        assert 0.0 <= loss.item() < 1e-9

    def test_gradcheck(self):
        (_, err, limit), = run_suite(["weighted_bce"], seeds=5, tol=1e-5)
        assert err < limit


class TestWeightedIou:
    def test_perfect_prediction_vanishes(self):
        gt = random_mask(Rng(4), (1, 1, 8, 8))
        logits = Tensor(np.where(gt.data == 1.0, 40.0, -40.0))
        w = Tensor(np.ones_like(gt.data))
        assert weighted_iou_loss(logits, gt, w).item() < 1e-6

    def test_empty_mask_with_empty_prediction(self):
        gt = Tensor(np.zeros((1, 1, 8, 8)))
        logits = Tensor(np.full((1, 1, 8, 8), -40.0))
        w = weight_map(gt)
        assert weighted_iou_loss(logits, gt, w).item() < 1e-6

    def test_gradcheck(self):
        (_, err, limit), = run_suite(["weighted_iou"], seeds=5, tol=1e-5)
        assert err < limit


class TestTotalLoss:
    def test_perfect_heads_vanish(self):
        gt = random_mask(Rng(5), (1, 1, 16, 16))
        head = Tensor(np.where(gt.data == 1.0, 40.0, -40.0))
        loss = total_loss([head] * 4, gt)
        assert loss.item() < 1e-5

    def test_zero_logits_empty_mask_closed_form(self):
        gt = Tensor(np.zeros((2, 1, 8, 8)))
        heads = [Tensor(np.zeros((2, 1, 8, 8))) for _ in range(4)]
        loss = total_loss(heads, gt)
        numel = 2 * 8 * 8
        iou_term = 1.0 - IOU_EPS / (0.5 * numel + IOU_EPS)
        expected = 4.0 * (math.log(2.0) + iou_term)
        assert abs(loss.item() - expected) < 1e-10

    def test_sum_dominates_single_head(self):
        rng = Rng(6)
        gt = random_mask(rng, (1, 1, 8, 8))
        heads = [Tensor(rng.normal((1, 1, 8, 8), dtype=T.F64)) for _ in range(4)]
        w = weight_map(gt)
        head1 = (weighted_bce(heads[0], gt, w)
                 + weighted_iou_loss(heads[0], gt, w)).item()
        assert total_loss(heads, gt).item() >= head1

    def test_weight_map_never_sees_logit_gradient(self):
        rng = Rng(7)
        gt = random_mask(rng, (1, 1, 8, 8))
        before = weight_map(gt).data.copy()
        logits = Tensor(rng.normal((1, 1, 8, 8), dtype=T.F64), requires_grad=True)
        T.backward(total_loss([logits], gt))
        npt.assert_array_equal(weight_map(gt).data, before)

    def test_batch_permutation_invariance(self):
        rng = Rng(8)
        gt = random_mask(rng, (3, 1, 8, 8))
        logits = Tensor(rng.normal((3, 1, 8, 8), dtype=T.F64))
        perm = [2, 0, 1]
        loss = total_loss([logits], gt).item()
        loss_perm = total_loss([Tensor(logits.data[perm])],
                               Tensor(gt.data[perm])).item()
        assert abs(loss - loss_perm) < 1e-12

    def test_end_to_end_gradcheck_through_both_terms(self):
        rng = Rng(9)
        gt = random_mask(rng, (1, 1, 4, 4))
        logits = Tensor(rng.normal((1, 1, 4, 4), dtype=T.F64),
                        requires_grad=True)
        err = grad_error(lambda: total_loss([logits, logits], gt),
                         [logits], rng, max_samples=None)
        assert err < 1e-5


class TestDiceIou:
    def test_identical_masks(self):
        mask = random_mask(Rng(10), (16, 16)).data
        assert dice_score(mask, mask) == 1.0
        assert iou_score(mask, mask) == 1.0

    def test_counting_example(self):
        pred = np.zeros((4, 4))
        gt = np.zeros((4, 4))
        pred[1, 1] = 1.0
        gt[1, 1] = 1.0
        gt[2, 2] = 1.0
        assert abs(dice_score(pred, gt) - 2.0 / 3.0) < 1e-15
        assert abs(iou_score(pred, gt) - 0.5) < 1e-15

    def test_both_empty_convention(self):
        empty = np.zeros((8, 8))
        assert dice_score(empty, empty) == 1.0
        assert iou_score(empty, empty) == 1.0

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError, match="binary"):
            dice_score(np.full((2, 2), 0.5), np.zeros((2, 2)))

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_dice_iou_algebra(self, seed):
        rng = Rng(seed)
        pred = random_mask(rng, (16, 16)).data
        gt = random_mask(rng, (16, 16)).data
        dice = dice_score(pred, gt)
        iou = iou_score(pred, gt)
        assert dice >= iou
        assert abs(dice - 2.0 * iou / (1.0 + iou)) < 1e-12


class TestEnsemble:
    def test_identical_maps_idempotent(self):
        m = Rng(11).random((1, 1, 4, 4))
        merged = ensemble_mean([m, m, m])
        npt.assert_array_equal(merged, m)

    def test_boundary_threshold_convention(self):
        merged = ensemble_mean([np.full((1, 1, 2, 2), 0.2),
                                np.full((1, 1, 2, 2), 0.8)])
        npt.assert_array_equal(merged, np.full((1, 1, 2, 2), 0.5))
        mask = threshold_mask(merged, 0.5)
        npt.assert_array_equal(mask, np.ones((1, 1, 2, 2)))

    def test_permutation_invariant_summation(self):
        rng = Rng(12)
        maps = [rng.random((1, 1, 8, 8)) for _ in range(5)]
        forward = ensemble_mean(maps)
        backward_order = ensemble_mean(maps[::-1])
        assert np.max(np.abs(forward - backward_order)) < 1e-12

    def test_result_has_the_first_maps_dtype(self):
        maps = [np.full((1, 1, 2, 2), 0.25, np.float32),
                np.full((1, 1, 2, 2), 0.75, np.float64)]
        assert ensemble_mean(maps).dtype == np.float32
        assert ensemble_mean(maps[::-1]).dtype == np.float64

    def test_empty_list_rejected(self):
        with pytest.raises(ContractError):
            ensemble_mean([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            ensemble_mean([np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 3, 3))])


class TestEvalReport:
    def test_aggregates_are_population_statistics(self):
        entries = [(0, 0.5, 0.4), (1, 0.7, 0.6), (2, 0.9, 0.8)]
        report = EvalReport(entries=entries, threshold=0.5)
        table = report.to_table()
        for name, values in (("dice", [0.5, 0.7, 0.9]),
                             ("iou ", [0.4, 0.6, 0.8])):
            mean = sum(values) / len(values)
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
            assert f"\n{name} {mean:.4f} +/- {std:.4f}\n" in table

    def test_machine_lines_format(self):
        report = EvalReport(entries=[(3, 0.25, 0.125)], threshold=0.5)
        assert report.to_machine_lines() == "3\t0.250000\t0.125000\n"

    def test_table_mentions_aggregates(self):
        report = EvalReport(entries=[(0, 1.0, 1.0)], threshold=0.25)
        table = report.to_table()
        assert "dice" in table and "threshold 0.25" in table
