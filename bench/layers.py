"""Per-layer figures for the traced run, from calls at the workload geometry.

Every traced run makes the same calls, whatever its workload, so each
per-layer metric is measured on every workload:

- one unit of the `train` workload under a TraceSession gives the per-step
  autodiff, peft and train figures of each phase, split at its StepClock's
  step boundaries;
- isolated calls with plain hooks give the vit figures;
- adapted minus plain `ForwardHooks.linear` on one input gives the cost of
  materializing W + dW per slot;
- one `spectral_perturbation_report` per matrix shape gives the spectral
  figures; one checkpoint save/load of the backbone gives the dataio ones.

A metric whose wrapper target is gone is dropped with a message.
"""

from __future__ import annotations

import os

import numpy as np

from peftlab import autodiff, dataio, peft, spectral, train, vit

import workloads as wl
from stats import median
from tracer import CallTimes, Patcher, TraceSession, perf


def _timed(fn, reps: int) -> list[float]:
    out = []
    for _ in range(reps):
        t0 = perf()
        fn()
        out.append((perf() - t0) * 1e3)
    return out


class Suite:
    def __init__(self, modules: dict, seed: int, out_dir: str):
        self.modules = modules
        self.seed = seed
        self.work = wl.Workload(seed, out_dir, None)
        self.record = wl.Record()  # the checks of the `train` unit run here
        self.metrics: dict[str, tuple[float, str]] = {}
        self.dropped: list[str] = []

    def put(self, name: str, values, unit: str, reduce=median) -> None:
        values = [v for v in values if v is not None]
        if values:
            self.metrics[name] = (float(reduce(values)), unit)
        else:
            self.dropped.append(name)

    def run(self) -> None:
        self.steps()
        self.vit_calls()
        self.peft_calls()
        self.spectral_reports()
        self.dataio_calls()

    # -- autodiff / peft / train: per step, one unit of the `train` workload ----

    def steps(self) -> None:
        spec = wl.task_spec(self.work.task_seed)
        self.put("train.make_task_ms",
                 _timed(lambda: train.make_synthetic_task(spec, downstream=True), 10), "ms")
        patcher = Patcher()
        work = wl.Train(self.seed, self.work.out_dir, patcher)
        state = work.setup()
        session = TraceSession(self.modules)
        session.install()
        try:
            work.unit(state, self.record, session)
        finally:
            session.uninstall()
            patcher.undo()
        # phase 1 then phase 2, equally long; one backward pass per step
        n = work.pretrain.max_steps
        steps, nodes = work.clock.steps, session.tape_nodes
        self._step_metrics("pretrain", session, steps[:n], nodes[:n])
        self._step_metrics("finetune", session, steps[n:], nodes[n:])
        self.put("train.finetune.evaluate_ms",
                 [(b - a) * 1e3 for a, b in work.clock.evals[-wl.EPOCHS:]], "ms")
        for name in sorted(session.missing):
            print(f"trace: {name} is gone; the metrics that need it are dropped")

    def _step_metrics(self, phase: str, session: TraceSession, steps, tape_nodes) -> None:
        spans = session.tracer.spans
        per_step = []
        for a, b in steps:
            inside = [s for s in spans if a <= s[1] <= b]
            total = {}
            for name, t0, t1, _ in inside:
                calls, ms = total.get(name, (0, 0.0))
                total[name] = (calls + 1, ms + (t1 - t0) * 1e3)
            per_step.append(((b - a) * 1e3, total))

        def field(span, i):
            return [total[span][i] if span in total else None for _, total in per_step]

        def loss_fwd(step_ms, total):
            if "autodiff.backward" not in total or "train.adamw_step" not in total:
                return None
            return step_ms - total["autodiff.backward"][1] - total["train.adamw_step"][1]

        self.put(f"autodiff.{phase}.backward_ms", field("autodiff.backward", 1), "ms")
        self.put(f"autodiff.{phase}.tape_nodes", tape_nodes, "count")
        self.put(f"autodiff.{phase}.matmul_calls", field("autodiff.matmul", 0), "count")
        self.put(f"autodiff.{phase}.matmul_ms", field("autodiff.matmul", 1), "ms")
        self.put(f"train.{phase}.adamw_ms", field("train.adamw_step", 1), "ms")
        self.put(f"train.{phase}.loss_fwd_ms", [loss_fwd(*s) for s in per_step], "ms")
        if phase == "finetune":
            self.put("peft.finetune.adapted_linear_calls", field("peft.adapted_linear", 0),
                     "count")
            self.put("peft.finetune.adapted_linear_ms", field("peft.adapted_linear", 1), "ms")

    # -- vit: isolated calls with plain hooks -------------------------------

    def vit_calls(self) -> None:
        rng = np.random.default_rng(self.work.init_seed)
        model = vit.init_model(wl.VIT, seed=self.work.init_seed, dtype=np.float32)
        image = rng.normal(size=(wl.VIT.image_h, wl.VIT.image_w, wl.VIT.channels))
        tokens = rng.normal(size=(wl.VIT.tokens + 1, wl.VIT.dim)).astype(np.float32)
        grad = autodiff.Tensor(rng.normal(size=tokens.shape).astype(np.float32))

        self.put("vit.patch_embed.fwd_ms", _timed(lambda: vit.patch_embed(image, model), 50), "ms")
        for layer in range(wl.VIT.layers):
            for block in ("mha", "ffn"):
                fn = getattr(vit, block)
                fwd, bwd = [], []
                for _ in range(30):
                    x = autodiff.Tensor(tokens, requires_grad=True)
                    t0 = perf()
                    y = fn(x, model, layer)
                    t1 = perf()
                    loss = (y * grad).sum()
                    t2 = perf()
                    loss.backward()
                    t3 = perf()
                    fwd.append((t1 - t0) * 1e3)
                    bwd.append((t3 - t2) * 1e3)
                self.put(f"vit.l{layer:02d}.{block}.fwd_ms", fwd, "ms")
                self.put(f"vit.l{layer:02d}.{block}.bwd_ms", bwd, "ms")
        self.put("vit.forward_ms", _timed(lambda: vit.forward(image, model), 30), "ms")

    # -- peft: materialization, attach, merge ----------------------------

    def peft_calls(self) -> None:
        rng = np.random.default_rng(self.work.init_seed)
        base = vit.init_model(wl.VIT, seed=self.work.init_seed, dtype=np.float32)
        pm = peft.attach(wl.method_spec(0.02), base.copy(), seed=self.work.attach_seed)
        plain = vit.ForwardHooks()
        for kind in wl.KINDS:
            key = f"l{wl.LAYER:02d}.{kind}"
            host = pm.base.slot(key)
            x = autodiff.Tensor(
                rng.normal(size=(wl.VIT.tokens + 1, host.w.shape[0])).astype(np.float32))
            adapted, bare = [], []
            for _ in range(200):
                adapted += _timed(lambda: pm.hooks.linear(key, x, host), 1)
                bare += _timed(lambda: plain.linear(key, x, host), 1)
            self.put(f"peft.materialize.{kind}_us", [1e3 * (median(adapted) - median(bare))], "us")
        models = [base.copy() for _ in range(10)]
        self.put("peft.attach_ms", _timed(
            lambda: peft.attach(wl.method_spec(0.02), models.pop(), seed=self.work.attach_seed),
            10), "ms")
        self.put("peft.merge_ms", _timed(lambda: peft.merge_model(pm), 10), "ms")

    # -- spectral: one report per matrix shape --------------------------

    def spectral_reports(self) -> None:
        model = vit.init_model(wl.VIT, seed=self.work.init_seed, dtype=np.float32)
        pm = peft.attach(wl.method_spec(0.2), model, seed=self.work.attach_seed)
        merged = peft.merge_model(pm)
        patcher = Patcher()
        svd = CallTimes()
        if not svd.install(patcher, spectral, "svd"):
            print("trace: spectral.svd is gone; the spectral metrics are dropped")
            self.dropped.append("spectral.*")
            return
        other = []
        for kind in ("q", "fc1", "fc2"):
            key = f"l{wl.LAYER:02d}.{kind}"
            w = model.slot(key).w.data.astype(np.float64)
            delta = merged.slot(key).w.data.astype(np.float64) - w
            svd.calls.clear()
            t0 = perf()
            spectral.spectral_perturbation_report(w, delta)
            report_ms = (perf() - t0) * 1e3
            label = "x".join(map(str, w.shape))
            heavy = [(b - a) * 1e3 for shape, depth, a, b in svd.calls
                     if depth == 0 and min(shape) > 1]
            self.put(f"spectral.svd_calls.{label}", [len(svd.calls)], "count")
            self.put(f"spectral.svd.{label}_ms", heavy, "ms", reduce=median)
            other.append(report_ms - sum(heavy))
        patcher.undo()
        self.put("spectral.report_other_ms", other, "ms", reduce=median)

    # -- dataio: the backbone checkpoint --------------------------------

    def dataio_calls(self) -> None:
        model = vit.init_model(wl.VIT, seed=self.work.init_seed, dtype=np.float32)
        tensors = wl.model_tensors(model)
        saves = []
        for _ in range(10):
            path = self.work.fresh_path("layers.ckpt")
            saves += _timed(lambda: dataio.save_checkpoint(tensors, path), 1)
        self.put("dataio.save_ms", saves, "ms")
        self.put("dataio.load_ms", _timed(lambda: dataio.load_checkpoint(path), 10), "ms")
        self.put("dataio.ckpt_bytes", [os.path.getsize(path)], "bytes")
