"""The three benchmark workloads, built only from peftlab's public API.

Each workload makes its inputs from the run seed in `setup()` (timed as
`setup_s`) and does one fixed-size unit of user-visible work in `unit()`,
which appends its timings to a `Record` and checks its outputs.  The
end-to-end metrics mean, per workload:

  metric      train                     eval-merge                   analyze
  adapted_ms  rlrr fine-tune step       one image, adapter attached  one slot's spectral report
  plain_ms    full fine-tune step       one image, merged backbone   the report's svd of W
  wall_s      train() with validation   load/eval/merge/reload/eval  load checkpoints + report
"""

from __future__ import annotations

import math
import os
from collections import defaultdict

import numpy as np

from peftlab import dataio, peft, spectral, train, vit

from tracer import CallTimes, StepClock, perf

KINDS = ("q", "k", "v", "o", "fc1", "fc2")
LAYER = 0  # the layer `analyze` reports on
# the ROADMAP smoke geometry
VIT = vit.ViTConfig(image_h=8, image_w=8, channels=1, patch=4, dim=64, layers=2, heads=4,
                    classes=8)
BATCH = 16
EPOCHS = 4
STEPS_PER_EPOCH = 3  # 8 classes x 6 images / BATCH
# 3 training images per validation image, as in the default `peftlab train` config
# (24 and 8 per class): 16 validation images per 3 steps
VAL_PER_CLASS = 2
IMAGE_BLOCK = 32  # eval-merge times images in blocks of this many consecutive images
LOGIT_TOL = 1e-4  # attached vs merged logits, relative to the largest logit (f32)
SIGMA_TOL = 1e-8  # Jacobi vs LAPACK singular values, relative to sigma_max


def method_spec(init_scale: float) -> peft.MethodSpec:
    return peft.MethodSpec(
        method="rlrr",
        layer_range=None,
        matrix_slots=KINDS,
        include_layernorm=True,
        rank=4,
        bottleneck=4,
        prompts=4,
        adapter_positions=("mha", "ffn"),
        init="normal",
        init_scale=init_scale,
        scale_left=True,
        scale_right=True,
        residual=True,
    )


def task_spec(seed: int) -> train.SyntheticTaskSpec:
    return train.SyntheticTaskSpec(
        seed=seed,
        classes=VIT.classes,
        images_per_class=BATCH * STEPS_PER_EPOCH // VIT.classes,
        val_per_class=VAL_PER_CLASS,
        test_per_class=48,  # 384 held-out images for eval-merge
        image_h=VIT.image_h,
        image_w=VIT.image_w,
        channels=VIT.channels,
        noise=0.6,
        shift_mix=0.8,
        shift_gain=0.9,
        downstream_noise=0.8,
    )


def training_config(learning_rate: float, seed: int) -> train.TrainingConfig:
    return train.TrainingConfig(
        learning_rate=learning_rate,
        weight_decay=0.0,
        dropout_rate=0.0,
        batch_size=BATCH,
        epochs=EPOCHS,
        warmup_epochs=1,
        seed=seed,
        precision="f32",
        max_steps=EPOCHS * STEPS_PER_EPOCH,
    )


def adapted_keys() -> set[str]:
    return {f"l{layer:02d}.{kind}" for layer in range(VIT.layers) for kind in KINDS}


def model_tensors(model) -> dict[str, np.ndarray]:
    return {name: t.data for name, t in model.named_tensors().items()}


def adapter_tensors(pm) -> dict:
    """What `peftlab train` saves: the method tensors plus the task head."""
    out = dict(pm.method_tensors())
    head = pm.base.slot("head")
    out["head.w"], out["head.b"] = head.w, head.b
    return out


def bind(targets: dict, loaded: dict[str, np.ndarray]) -> None:
    for name, t in targets.items():
        t.data[...] = loaded[name]


def bitwise_equal(a: dict[str, np.ndarray], b: dict[str, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].shape == b[k].shape and a[k].tobytes() == b[k].tobytes()
        for k in a)


class Record:
    """Timings by metric, unit-of-work windows for the trace, and check outcomes.

    `samples[metric]` holds the values the metric is reported from: block
    means of consecutive steps or images, so that garbage collection and
    other periodic costs stay in.  `spans[metric]` holds the (start, end) of
    each sample, which `scaled` uses to scale it to the reference speed (see
    speed.py).  `raw[metric]` holds every step or image.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.spans: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.windows: list[tuple[float, float]] = []
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, metric: str, value: float, start: float, end: float) -> None:
        self.samples[metric].append(value)
        self.spans[metric].append((start, end))

    def add_blocks(self, metric: str, values: list[float], windows: list[tuple[float, float]],
                   size: int) -> None:
        """Block means of `size` consecutive values, each timed over `windows`."""
        self.raw[metric] += values
        for i in range(0, len(values), size):
            last = min(i + size, len(values)) - 1
            self.add(metric, float(np.mean(values[i:last + 1])), windows[i][0], windows[last][1])

    def scaled(self, sampler) -> dict[str, list[float]]:
        return {metric: [v * sampler.factor(a, b) for v, (a, b) in zip(values, self.spans[metric])]
                for metric, values in self.samples.items()}

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Workload:
    name = ""
    setups = 1  # set-ups per unit, each timed as a setup_s sample; the last one is used
    reference = ("rotations", "blocks")  # speed.py kernels that slow as this workload does

    def __init__(self, seed: int, out_dir: str, patcher=None):
        seeds = np.random.SeedSequence(seed).generate_state(4)
        self.task_seed, self.init_seed, self.attach_seed, self.train_seed = map(int, seeds)
        self.out_dir = out_dir
        self.units = 0

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def fresh_path(self, name: str) -> str:
        """The path, with no file there: saving over a file makes ext4 write it back first."""
        path = self.path(name)
        if os.path.exists(path):
            os.remove(path)
        return path


class Train(Workload):
    name = "train"

    def __init__(self, seed, out_dir, patcher):
        super().__init__(seed, out_dir)
        self.clock = StepClock()
        self.clock.install(patcher, train)
        self.pretrain = training_config(0.003, self.train_seed)
        self.finetune = training_config(0.01, self.train_seed)

    def setup(self):
        spec = task_spec(self.task_seed)
        return (train.make_synthetic_task(spec, downstream=False),
                train.make_synthetic_task(spec, downstream=True),
                vit.init_model(VIT, seed=self.init_seed, dtype=np.float32))

    def unit(self, state, rec: Record, trace) -> None:
        pre_task, task, model = state
        steps = self.pretrain.max_steps
        # phase 1: the body of pretrain_backbone, on the task made in setup
        first = len(self.clock.steps)
        self.clock.mark()
        history = train.full_finetune(model, pre_task, self.pretrain)
        model.freeze_all()
        pre = self.clock.steps[first:]
        self._check_history(rec, "phase 1", history, len(pre), steps)

        # phase 2: rlrr on the phase-1 backbone, as `peftlab train` runs it
        pm = peft.attach(method_spec(0.02), model, seed=self.attach_seed)
        if trace is not None:
            trace.attached(pm, adapted_keys())
        frozen = {k: v.copy() for k, v in model_tensors(model).items() if not k.startswith("head.")}
        first = len(self.clock.steps)
        t0 = perf()
        self.clock.mark()
        history = train.train(pm, task, self.finetune)
        wall = perf() - t0
        fine = self.clock.steps[first:]
        self._check_history(rec, "phase 2", history, len(fine), steps)
        after = {k: v for k, v in model_tensors(model).items() if not k.startswith("head.")}
        rec.check(bitwise_equal(frozen, after), "train: frozen backbone changed in phase 2")

        # one block per epoch
        rec.add_blocks("plain_ms", [(b - a) * 1e3 for a, b in pre], pre, STEPS_PER_EPOCH)
        rec.add_blocks("adapted_ms", [(b - a) * 1e3 for a, b in fine], fine, STEPS_PER_EPOCH)
        rec.add("wall_s", wall, t0, t0 + wall)
        rec.raw["validation_pass_ms"] += [(b - a) * 1e3 for a, b in self.clock.evals[-EPOCHS:]]
        rec.windows += pre + fine

    @staticmethod
    def _check_history(rec, phase, history, steps_seen, steps):
        losses = [row["train_loss"] for row in history]
        rec.check(steps_seen == steps, f"train {phase}: {steps_seen} steps, expected {steps}")
        rec.check(bool(losses) and all(math.isfinite(v) for v in losses),
                  f"train {phase}: non-finite loss {losses}")
        rec.check(len(losses) > 1 and losses[-1] < losses[0],
                  f"train {phase}: last epoch loss {losses[-1:]} not below first {losses[:1]}")


class EvalMerge(Workload):
    name = "eval-merge"

    def setup(self):
        rng = np.random.default_rng(self.init_seed)
        model = vit.init_model(VIT, seed=self.init_seed, dtype=np.float32)
        head = model.slot("head")
        head.w.data[...] = rng.normal(0.0, 0.3, head.w.shape)  # init_model zeroes the head
        pm = peft.attach(method_spec(0.2), model, seed=self.attach_seed)
        for t in pm.method_tensors().values():
            t.data += rng.normal(0.0, 0.05, t.shape).astype(t.dtype)
        task = train.make_synthetic_task(task_spec(self.task_seed), downstream=True)
        dataio.save_checkpoint(model_tensors(model), self.fresh_path("backbone.ckpt"))
        dataio.save_checkpoint({k: t.data for k, t in adapter_tensors(pm).items()},
                               self.fresh_path("adapter.ckpt"))
        return task

    @staticmethod
    def _evaluate(forward, task, rec, metric):
        """train.evaluate over the test split; keeps logits and per-image forward times."""
        logits, times, windows = [], [], []

        def timed(x):
            t0 = perf()
            y = forward(x)
            t1 = perf()
            times.append((t1 - t0) * 1e3)
            windows.append((t0, t1))
            logits.append(y.data)
            return y

        t0 = perf()
        train.evaluate(timed, task.test_x, task.test_y)
        rec.raw[metric + ".pass_images_per_s"].append(len(task.test_y) / (perf() - t0))
        rec.add_blocks(metric, times, windows, IMAGE_BLOCK)
        rec.windows += windows
        return np.stack(logits)

    def unit(self, task, rec: Record, trace) -> None:
        t0 = perf()
        model = vit.init_model(VIT, seed=0, dtype=np.float32)
        bind(model.named_tensors(), dataio.load_checkpoint(self.path("backbone.ckpt")))
        pm = peft.attach(method_spec(0.2), model, seed=self.attach_seed)
        bind(adapter_tensors(pm), dataio.load_checkpoint(self.path("adapter.ckpt")))
        if trace is not None:
            trace.attached(pm, adapted_keys())
        attached = self._evaluate(pm.forward, task, rec, "adapted_ms")

        merged = model_tensors(peft.merge_model(pm))
        dataio.save_checkpoint(merged, self.fresh_path("merged.ckpt"))
        reloaded = dataio.load_checkpoint(self.path("merged.ckpt"))
        backbone = vit.init_model(VIT, seed=0, dtype=np.float32)
        bind(backbone.named_tensors(), reloaded)
        plain = self._evaluate(lambda x: vit.forward(x, backbone), task, rec, "plain_ms")
        t1 = perf()
        rec.add("wall_s", t1 - t0, t0, t1)

        rec.check(bitwise_equal(merged, reloaded),
                  "eval-merge: reloaded merged checkpoint differs from the in-memory one")
        flips = int(np.count_nonzero(attached.argmax(axis=1) != plain.argmax(axis=1)))
        rec.check(flips == 0, f"eval-merge: argmax differs on {flips} images")
        gap = float(np.abs(attached - plain).max())
        scale = max(1.0, float(np.abs(attached).max()))
        rec.check(gap <= LOGIT_TOL * scale,
                  f"eval-merge: attached vs merged logits differ by {gap:.3e}")
        rec.raw["logit_gap"].append(gap)


class Analyze(Workload):
    name = "analyze"
    setups = 8  # only two to four units fit in a run
    reference = ("rotations",)  # alone they track the Jacobi svd; see RATIONALE.md

    def __init__(self, seed, out_dir, patcher):
        super().__init__(seed, out_dir)
        self.svd_calls = CallTimes()
        if not self.svd_calls.install(patcher, spectral, "svd"):
            raise SystemExit("error: spectral.svd is gone; plain_ms cannot be taken")

    def setup(self):
        model = vit.init_model(VIT, seed=self.init_seed, dtype=np.float32)
        pm = peft.attach(method_spec(0.2), model, seed=self.attach_seed)
        merged = peft.merge_model(pm)  # W + s_l ⊙ W ⊙ s_r^T on every matrix slot
        dataio.save_checkpoint(model_tensors(model), self.fresh_path("before.ckpt"))
        dataio.save_checkpoint(model_tensors(merged), self.fresh_path("after.ckpt"))

    def unit(self, _, rec: Record, trace) -> None:
        for kind in KINDS:
            self._report(f"l{LAYER:02d}.{kind}.w", rec)

    def _report(self, key: str, rec: Record) -> None:
        """One `analyze` of one slot: load both checkpoints, report, check the spectra."""
        t0 = perf()
        before = dataio.load_checkpoint(self.path("before.ckpt"))
        after = dataio.load_checkpoint(self.path("after.ckpt"))
        w = before[key].astype(np.float64)
        delta = after[key].astype(np.float64) - w
        first = len(self.svd_calls.calls)
        t1 = perf()
        report = spectral.spectral_perturbation_report(w, delta)
        t2 = perf()
        # svd(w) is the report's first outermost call; its nested m<n call finishes first
        _, _, a, b = next(c for c in self.svd_calls.calls[first:] if c[1] == 0)
        rec.add("adapted_ms", (t2 - t1) * 1e3, t1, t2)
        rec.add("plain_ms", (b - a) * 1e3, a, b)
        rec.add("wall_s", t2 - t0, t0, t2)
        rec.windows.append((t1, t2))

        for label, m, sigma in (("W", w, report.spectrum_before),
                                ("W+dW", w + delta, report.spectrum_after)):
            ref = np.linalg.svd(m, compute_uv=False)
            err = float(np.abs(sigma - ref).max() / ref[0])
            rec.check(err <= SIGMA_TOL,
                      f"analyze {key}: Jacobi sigma of {label} off LAPACK by {err:.2e} relative")


WORKLOADS = {w.name: w for w in (Train, EvalMerge, Analyze)}
