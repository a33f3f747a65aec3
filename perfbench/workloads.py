"""The benchmark's three workloads.

Each is a closed loop from one process: the next operation starts when the
previous one ends.  A workload builds its inputs from the benchmark seed in
``setup`` and hands the program only those inputs; ``run`` drives the
program through the public functions of ``sa2net`` and checks every output
it times.  When a span ``Recorder`` is passed, ``run`` also marks each loop
unit (train step, inference round, gradcheck suite) as one request.
"""

from __future__ import annotations

import io
import math
import statistics
import time
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from sa2net import cli, data, gradcheck, model, training
from sa2net import tensor as T
from sa2net.errors import SA2NetError

# ROADMAP's canonical workload and the Tier-1 overfit fixture: default
# architecture (C=64, grayscale, 64x64), model seed 1, Adam 1e-3, batch 4.
MODEL_CFG = model.ModelConfig(seed=1)
TRAIN_CFG = training.TrainConfig(lr=1e-3, batch_size=4, seed=0, steps=8)
SYNTH_SEED = 7          # --seed 0 reproduces SynthSpec(seed=7)
TRAIN_SAMPLES = 8
EVAL_SAMPLES = 16
ENSEMBLE = 3
BATCH = 8
PREDICTS_PER_ROUND = 16
B8_PER_ROUND = 4
GRADCHECK_SEEDS = 5
# B=1 and B=8 probabilities of one image differ only by f32 summation
# order through the network; 1e-5 is about 84 ulp at 1.0.
B1_B8_TOL = 1e-5
CONV_CALLS, CONV_1X1_CALLS, DWCONV_CALLS = 41, 29, 36


@dataclass
class Outcome:
    """What one timed loop measured and checked."""

    unit: str                        # what one loop unit is
    op: str                          # what one op_ms sample is
    item: str                        # what items_per_s counts
    op_ms: list[float] = field(default_factory=list)
    items: int = 0
    busy_s: float = 0.0
    units: int = 0
    attempted: int = 0
    failed: int = 0
    named: dict[str, tuple[str, list[float]]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def sample(self, name: str, unit: str, value: float) -> None:
        self.named.setdefault(name, (unit, []))[1].append(value)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(why)


def closed_loop(seconds: float, body) -> None:
    """Run ``body(i)`` back to back; stop before a run would likely overrun.

    At least one run always happens.
    """
    durations = []
    t0 = time.perf_counter()
    while True:
        s = time.perf_counter()
        body(len(durations))
        durations.append(time.perf_counter() - s)
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return


@contextmanager
def hooked(module, attr: str, make_wrapper):
    """Temporarily replace ``module.attr`` with ``make_wrapper(original)``."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


def _ms(seconds: float) -> float:
    return seconds * 1e3


# ---------------------------------------------------------------------------
# train64
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    dataset: list
    train_cfg: training.TrainConfig
    ckpt: str


class Train64:
    """``training.train`` calls of 8 steps, each ending with a checkpoint."""

    name = "train64"

    def setup(self, seed: int, work: Path) -> TrainState:
        spec = data.SynthSpec(seed=SYNTH_SEED + seed)
        dataset = [data.gen_sample(spec, i) for i in range(TRAIN_SAMPLES)]
        state = TrainState(dataset=dataset,
                           train_cfg=replace(TRAIN_CFG, seed=seed),
                           ckpt=str(work / "train64.sa2c"))
        # warm-up: one step with a checkpoint write, so lazy set-up is done
        training.train(MODEL_CFG, replace(state.train_cfg, steps=1),
                       dataset, out_path=state.ckpt)
        return state

    def run(self, st: TrainState, seconds: float, rec=None) -> Outcome:
        out = Outcome(unit="train step", op="train step",
                      item="training sample")
        step_start = []
        steps = st.train_cfg.steps

        def on_forward(fn):
            def wrapper(*args, **kwargs):
                if rec is not None:
                    rec.request_id = len(step_start)
                step_start.append(time.perf_counter())
                return fn(*args, **kwargs)
            return wrapper

        def on_adam(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                out.op_ms.append(_ms(time.perf_counter() - step_start[-1]))
                return result
            return wrapper

        def one_call(_):
            t0 = time.perf_counter()
            try:
                result = training.train(MODEL_CFG, st.train_cfg, st.dataset,
                                        out_path=st.ckpt)
            except SA2NetError as exc:
                out.attempted += steps
                out.fail(steps, f"train raised {exc!r}")
                return
            dt = time.perf_counter() - t0
            out.busy_s += dt
            samples = steps * st.train_cfg.batch_size
            out.items += samples
            out.attempted += steps
            out.sample("train.samples_per_s", "samples/s", samples / dt)
            losses = [v for _, v in result.trace]
            if len(losses) != steps or not all(map(math.isfinite, losses)):
                out.fail(steps, f"non-finite or missing losses {losses}")
            elif not losses[-1] < losses[0]:
                out.fail(steps, f"loss did not fall: {losses[0]} -> "
                                f"{losses[-1]}")

        with hooked(training, "model_forward", on_forward), \
                hooked(training, "adam_step", on_adam):
            closed_loop(seconds, one_call)
        out.units = len(out.op_ms)
        for v in out.op_ms:
            out.sample("train.step_ms", "ms", v)
        return out

    @staticmethod
    def structure_check(summary, out: Outcome) -> None:
        """Every step records the known op counts, every op attributed."""
        steps = np.arange(out.units)
        counts, unattributed = summary.op_structure(steps)
        zeros = np.zeros(len(steps), dtype=int)
        conv = sum((c for lbl, c in counts.items()
                    if lbl.startswith("conv2d_")), zeros)
        conv1 = counts.get("conv2d_1x1", zeros)
        dw = counts.get("dwconv2d", zeros)
        bad = (conv != CONV_CALLS) | (conv1 != CONV_1X1_CALLS) \
            | (dw != DWCONV_CALLS)
        if bad.any():
            out.fail(int(bad.sum()),
                     f"op counts per step: conv2d {sorted(set(conv))}, "
                     f"1x1 {sorted(set(conv1))}, dwconv2d {sorted(set(dw))}")
        if unattributed:
            out.fail(1, f"{unattributed} op spans outside any block or loss")


# ---------------------------------------------------------------------------
# infer64
# ---------------------------------------------------------------------------


@dataclass
class InferState:
    dataset: list
    images: list[str]
    ckpts: list[str]
    store: object
    cfg: object
    batch: T.Tensor
    work: Path
    first_report: object = None


class Infer64:
    """Rounds of B=1 ``predict`` calls, B=8 forwards and an ensemble eval."""

    name = "infer64"

    def setup(self, seed: int, work: Path) -> InferState:
        spec = data.SynthSpec(seed=SYNTH_SEED + seed)
        eval_dir = work / "eval"
        lines = data.write_dataset(eval_dir, spec, EVAL_SAMPLES)
        images = [str(eval_dir / line.split("\t")[1]) for line in lines]
        ckpts = []
        for k in range(ENSEMBLE):
            # one architecture and seed (so one fingerprint), distinct weights
            store = model.init_model_params(MODEL_CFG)
            rng = T.Rng(T.derive_seed(seed, k))
            for _, p in store.items():
                p.data += rng.normal(p.shape, 0.02, p.dtype)
            path = str(work / f"fold{k}.sa2c")
            model.save_checkpoint(path, store, MODEL_CFG)
            ckpts.append(path)
        dataset = data.load_dataset(eval_dir)
        store, cfg, _ = model.load_checkpoint(ckpts[0])
        batch = T.Tensor(np.stack([s.image.data for s in dataset[:BATCH]]))
        state = InferState(dataset=dataset, images=images, ckpts=ckpts,
                           store=store, cfg=cfg, batch=batch, work=work)
        # warm-up: one request of each kind
        self._predict(state, 0, work / "warm.pgm")
        with T.no_grad():
            model.model_forward(batch, store, cfg)
        return state

    @staticmethod
    def _predict(st: InferState, index: int, path: Path) -> int:
        # the command's one-line confirmation is not the benchmark's output
        with redirect_stdout(io.StringIO()):
            return cli.cli(["predict", "--ckpt", st.ckpts[0],
                            "--image", st.images[index], "--out", str(path)])

    def run(self, st: InferState, seconds: float, rec=None) -> Outcome:
        out = Outcome(unit="round", op="predict request",
                      item="image forward")

        def one_round(r):
            if rec is not None:
                rec.request_id = r
            check = r % BATCH
            pgm = st.work / "pred.pgm"
            for j in range(PREDICTS_PER_ROUND):
                path = pgm if j == 0 else st.work / "pred_other.pgm"
                t0 = time.perf_counter()
                code = self._predict(st, (check + j) % EVAL_SAMPLES, path)
                dt = time.perf_counter() - t0
                out.op_ms.append(_ms(dt))
                out.sample("predict.ms", "ms", _ms(dt))
                out.busy_s += dt
                out.items += 1
                out.attempted += 1
                if code != 0:
                    out.fail(1, f"predict exited {code}")
            for _ in range(B8_PER_ROUND):
                t0 = time.perf_counter()
                with T.no_grad():
                    probs8 = model.model_forward(
                        st.batch, st.store, st.cfg).probability_map().data
                dt = time.perf_counter() - t0
                out.sample("infer.b8_images_per_s", "images/s", BATCH / dt)
                out.busy_s += dt
                out.items += BATCH
                out.attempted += 1
            t0 = time.perf_counter()
            report = training.evaluate(st.ckpts, st.dataset)
            dt = time.perf_counter() - t0
            out.sample("eval.images_per_s", "images/s", len(st.dataset) / dt)
            out.busy_s += dt
            out.items += len(st.dataset) * len(st.ckpts)
            out.attempted += 1
            if rec is not None:
                rec.request_id = -1  # the check's own forward is not the loop's
            self._check(st, out, check, pgm, probs8, report)

        closed_loop(seconds, one_round)
        out.units = len(out.named["eval.images_per_s"][1])
        return out

    @staticmethod
    def _check(st, out, index, pgm, probs8, report) -> None:
        with T.no_grad():
            image = T.Tensor(st.batch.data[index:index + 1])
            prob1 = model.model_forward(
                image, st.store, st.cfg).probability_map().data[0]
        diff = float(np.abs(prob1 - probs8[index]).max())
        if not diff <= B1_B8_TOL:
            out.fail(1, f"B=1 and B=8 probabilities differ by {diff:.3g}")
        written = data.read_pgm(pgm).data
        if not np.array_equal(written, (prob1 >= 0.5).astype(written.dtype)):
            out.fail(1, "predict mask differs from the thresholded B=1 map")
        scores = np.array([(d, i) for _, d, i in report.entries])
        if not ((scores >= 0) & (scores <= 1)).all():
            out.fail(1, "Dice or IoU outside [0, 1]")
        if st.first_report is None:
            st.first_report = report
        elif report.entries != st.first_report.entries:
            out.fail(1, "repeated evaluate reports differ")


# ---------------------------------------------------------------------------
# verify-f64
# ---------------------------------------------------------------------------


class VerifyF64:
    """The finite-difference gradcheck suite, one ``run_suite`` per check.

    The registry fixes its own inputs (check seeds 0-4), which is the
    contract every change is verified against, so the benchmark seed does
    not change this workload.  One operation is one pass over every check.
    """

    name = "verify-f64"

    def setup(self, seed: int, work: Path) -> list[str]:
        # warm-up: every check once, at one seed
        gradcheck.run_suite(seeds=1)
        return list(gradcheck.CHECKS)

    def run(self, names: list[str], seconds: float, rec=None) -> Outcome:
        out = Outcome(unit="suite", op="gradcheck suite (19 checks x 5 seeds)",
                      item="check-seed evaluation")

        def one_suite(u):
            if rec is not None:
                rec.request_id = u
            t0 = time.perf_counter()
            for name in names:
                with (rec.span(f"gradcheck.{name}") if rec is not None
                      else nullcontext()):
                    rows = gradcheck.run_suite([name], seeds=GRADCHECK_SEEDS)
                out.items += GRADCHECK_SEEDS
                out.attempted += 1
                (_, err, limit), = rows
                if not err < limit:
                    out.fail(1, f"gradcheck {name}: max_err {err:.3e} >= "
                                f"limit {limit:.1e}")
            dt = time.perf_counter() - t0
            out.op_ms.append(_ms(dt))
            out.busy_s += dt
            out.sample("verify.suite_s", "s", dt)

        closed_loop(seconds, one_suite)
        out.units = len(out.op_ms)
        return out


WORKLOADS = {w.name: w for w in (Train64(), Infer64(), VerifyF64())}
