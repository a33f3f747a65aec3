"""Adam against the scalar recurrence oracle, plus train/evaluate loops."""

import math
import weakref

import numpy as np
import pytest

import sa2net.tensor as T
import sa2net.training
from sa2net.data import Sample, SynthSpec, gen_sample
from sa2net.errors import ConfigError, ContractError, DivergenceError, \
    IncompatibleCheckpointError
from sa2net.metrics import dice_score, iou_score, threshold_mask
from sa2net.model import ModelConfig, ModelOutput, init_model_params, \
    load_checkpoint, save_checkpoint
from sa2net.optim import AdamState, adam_step
from sa2net.tensor import Rng, Tensor
from sa2net.training import TrainConfig, evaluate, infer, train


def scalar_adam_oracle(grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, theta=0.0):
    """Textbook Adam recurrence on one scalar, independent of the package."""
    m = v = 0.0
    history = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (math.sqrt(v_hat) + eps)
        history.append(theta)
    return history


def single_param_store(value=0.0):
    return {"theta": Tensor(np.array([value]), requires_grad=True)}


class TestAdam:
    def test_bias_corrected_first_step(self):
        store = single_param_store(0.0)
        state = AdamState.for_store(store)
        store["theta"].grad = np.array([1.0])
        adam_step(store, state, lr=1e-3)
        expected = -1e-3 / (1.0 + 1e-8)
        assert abs(store["theta"].data[0] - expected) < 1e-15
        assert state.step == 1
        assert store["theta"].grad is None  # cleared after the step

    def test_zero_gradients_leave_parameters_unchanged(self):
        store = single_param_store(0.75)
        state = AdamState.for_store(store)
        for _ in range(10):
            store["theta"].grad = np.array([0.0])
            adam_step(store, state, lr=0.1)
        assert store["theta"].data[0] == 0.75

    def test_matches_scalar_recurrence_for_1000_steps(self):
        rng = Rng(42)
        grads = rng.normal((1000,), dtype=T.F64)
        store = single_param_store(0.0)
        state = AdamState.for_store(store)
        observed = []
        for g in grads:
            store["theta"].grad = np.array([g])
            adam_step(store, state, lr=1e-3)
            observed.append(float(store["theta"].data[0]))
        expected = scalar_adam_oracle([float(g) for g in grads], lr=1e-3)
        assert max(abs(a - b) for a, b in zip(observed, expected)) < 1e-12

    def test_quadratic_descent(self):
        store = single_param_store(1.0)
        state = AdamState.for_store(store)
        for _ in range(100):
            store["theta"].grad = 2.0 * store["theta"].data
            adam_step(store, state, lr=0.1)
        assert abs(store["theta"].data[0]) < 0.05

    def test_missing_gradient_names_parameter(self):
        store = {"enc.weight": Tensor(np.zeros(3), requires_grad=True)}
        state = AdamState.for_store(store)
        with pytest.raises(ContractError, match="enc.weight"):
            adam_step(store, state, lr=1e-3)


class TestTrainConfig:
    def test_requires_exactly_one_budget(self):
        with pytest.raises(ConfigError, match="steps or epochs"):
            TrainConfig()
        with pytest.raises(ConfigError, match="steps or epochs"):
            TrainConfig(steps=5, epochs=2)
        TrainConfig(steps=5)
        TrainConfig(epochs=2)

    def test_positive_lr_and_batch(self):
        with pytest.raises(ConfigError, match="lr"):
            TrainConfig(lr=0.0, steps=1)
        with pytest.raises(ConfigError, match="batch"):
            TrainConfig(batch_size=0, steps=1)

    def test_negative_checkpoint_every_rejected(self):
        with pytest.raises(ConfigError, match="checkpoint_every"):
            TrainConfig(steps=1, checkpoint_every=-2)
        TrainConfig(steps=1, checkpoint_every=0)


def tiny_dataset(n=4, seed=7):
    spec = SynthSpec(height=32, width=32, cell_count_range=(1, 3),
                     radius_range=(3.0, 6.0), seed=seed)
    return [gen_sample(spec, i) for i in range(n)]


def tiny_model_cfg(**kw):
    defaults = dict(in_channels=1, channels=8, input_size=(32, 32), seed=2)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestTrainLoop:
    def test_zero_steps_returns_untrained_parameters(self):
        cfg = tiny_model_cfg()
        result = train(cfg, TrainConfig(steps=0, seed=1), tiny_dataset())
        fresh = init_model_params(cfg)
        for name, t in fresh.items():
            assert result.store[name].data.tobytes() == t.data.tobytes()
        assert result.trace == []

    def test_deterministic_checkpoints(self, tmp_path):
        cfg = tiny_model_cfg()
        tcfg = TrainConfig(steps=4, batch_size=2, seed=5, augment=True)
        dataset = tiny_dataset()
        first = tmp_path / "a.sa2c"
        second = tmp_path / "b.sa2c"
        train(cfg, tcfg, dataset, out_path=first)
        train(cfg, tcfg, dataset, out_path=second)
        assert first.read_bytes() == second.read_bytes()

    def test_trace_logged_to_file(self, tmp_path):
        log = tmp_path / "trace.log"
        result = train(tiny_model_cfg(), TrainConfig(steps=3, seed=1),
                       tiny_dataset(), log_path=log)
        lines = log.read_text().splitlines()
        assert len(lines) == 3 == len(result.trace)
        for line, (step, value) in zip(lines, result.trace):
            step_str, loss_str = line.split("\t")
            assert int(step_str) == step
            assert math.isclose(float(loss_str), value, rel_tol=1e-9)

    def test_epoch_budget(self):
        result = train(tiny_model_cfg(),
                       TrainConfig(epochs=2, batch_size=2, seed=1),
                       tiny_dataset(n=4))
        assert len(result.trace) == 4  # 2 epochs x 2 batches

    def test_nan_loss_aborts_with_step_index(self):
        bad = tiny_dataset(n=2)
        poisoned = Sample(
            image=Tensor(np.full((1, 32, 32), np.nan, dtype=np.float32)),
            mask=bad[0].mask, id=0)
        with pytest.raises(DivergenceError, match="step 0"):
            train(tiny_model_cfg(), TrainConfig(steps=2, seed=1),
                  [poisoned, bad[1]])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ContractError, match="empty"):
            train(tiny_model_cfg(), TrainConfig(steps=1), [])

    def test_periodic_checkpoints_written(self, tmp_path, monkeypatch):
        # the step-2 snapshot is what a run killed in step 3 leaves
        cfg = tiny_model_cfg()
        straight = tmp_path / "two_steps.sa2c"
        train(cfg, TrainConfig(steps=2, seed=1), tiny_dataset(),
              out_path=straight)
        real, calls = sa2net.training.adam_step, []

        def killed_in_third_step(*args):
            calls.append(args)
            if len(calls) == 3:
                raise KeyboardInterrupt
            real(*args)

        monkeypatch.setattr(sa2net.training, "adam_step", killed_in_third_step)
        out = tmp_path / "model.sa2c"
        with pytest.raises(KeyboardInterrupt):
            train(cfg, TrainConfig(steps=4, checkpoint_every=2, seed=1),
                  tiny_dataset(), out_path=out)
        assert out.read_bytes() == straight.read_bytes()

    def test_previous_step_graph_freed_before_next_forward(self, monkeypatch):
        forward = sa2net.training.model_forward
        logits = []  # a weak reference to each step's finest logits array

        def watched(images, store, cfg):
            assert all(ref() is None for ref in logits)
            out = forward(images, store, cfg)
            logits.append(weakref.ref(out.logits[0].data))
            return out

        monkeypatch.setattr(sa2net.training, "model_forward", watched)
        train(tiny_model_cfg(), TrainConfig(steps=3, seed=1), tiny_dataset())
        assert len(logits) == 3


class TestEvaluate:
    def make_checkpoint(self, tmp_path, name="model.sa2c", seed=2):
        cfg = tiny_model_cfg(seed=seed)
        path = tmp_path / name
        save_checkpoint(path, init_model_params(cfg), cfg)
        return path

    def test_ensemble_of_same_checkpoint_matches_single(self, tmp_path):
        # 9 samples: one full batch of EVAL_BATCH and a partial one
        path = self.make_checkpoint(tmp_path)
        dataset = tiny_dataset(n=9)
        single = evaluate([path], dataset)
        tripled = evaluate([path, path, path], dataset)
        assert single.entries == tripled.entries
        model = load_checkpoint(path)[:2]
        by_image = []
        for sample in dataset:
            image = sample.image.data[None]
            prob = infer([model], image)
            assert infer([model] * 3, image).tobytes() == prob.tobytes()
            mask = threshold_mask(prob)[0]
            by_image.append((sample.id, dice_score(mask, sample.mask.data),
                             iou_score(mask, sample.mask.data)))
        assert single.entries == by_image

    def test_incompatible_checkpoints_rejected_before_inference(self, tmp_path):
        a = self.make_checkpoint(tmp_path, "a.sa2c", seed=2)
        cfg_b = tiny_model_cfg(seed=3)
        b = tmp_path / "b.sa2c"
        save_checkpoint(b, init_model_params(cfg_b), cfg_b)
        with pytest.raises(IncompatibleCheckpointError):
            evaluate([a, b], tiny_dataset(n=1))

    def test_perfect_oracle_scores_dice_one(self, tmp_path, monkeypatch):
        path = self.make_checkpoint(tmp_path)
        dataset = tiny_dataset(n=3)
        by_image = {s.image.data.tobytes(): s.mask.data for s in dataset}

        def oracle_forward(images, store, cfg):
            masks = np.stack([by_image[im.tobytes()] for im in images.data])
            logits = Tensor(np.where(masks == 1.0, 200.0, -200.0)
                            .astype(images.dtype))
            return ModelOutput(logits=[logits] * 4)

        monkeypatch.setattr(sa2net.training, "model_forward", oracle_forward)
        report = evaluate([path], dataset)
        assert all(d == 1.0 and i == 1.0 for _, d, i in report.entries)

    def test_report_std_matches_population_formula(self, tmp_path):
        path = self.make_checkpoint(tmp_path)
        report = evaluate([path], tiny_dataset(n=4))
        dices = np.array([d for _, d, _ in report.entries])
        expected = math.sqrt(float(((dices - dices.mean()) ** 2).mean()))
        assert f"dice {dices.mean():.4f} +/- {expected:.4f}\n" \
            in report.to_table()

    def test_no_checkpoints_rejected(self):
        with pytest.raises(ContractError):
            evaluate([], tiny_dataset(n=1))
