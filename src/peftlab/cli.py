"""Command-line entry point.

Subcommands: pretrain-toy, train, eval, merge, analyze, count-params,
combine, gradcheck, ablate.  The config file is the source of truth;
individual flags override single keys.  Exit codes: 0 success, 1 domain
error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import dataio, peft, spectral, train as training
from .autodiff import Tensor, cross_entropy_logits, finite_diff_check, no_grad
from .dataio import ConfigParseError, ExperimentConfig, parse_config
from .peft import MethodSpec, PeftModel, attach, count_trainable, merge_model
from .train import (
    Dataset,
    SyntheticTaskSpec,
    TrainingConfig,
    evaluate,
    make_synthetic_task,
    pretrain_backbone,
)
from .vit import ConfigError, MATRIX_KINDS, ViTConfig, ViTModel, forward, init_model

__all__ = ["main", "run"]


def _vit_config(cfg: ExperimentConfig) -> ViTConfig:
    return ViTConfig(
        image_h=cfg.image_h,
        image_w=cfg.image_w,
        channels=cfg.channels,
        patch=cfg.patch,
        dim=cfg.dim,
        layers=cfg.layers,
        heads=cfg.heads,
        classes=cfg.classes,
    )


def _method_spec(cfg: ExperimentConfig) -> MethodSpec:
    kwargs = dict(
        method=cfg.method,
        matrix_slots=tuple(s.strip() for s in cfg.matrix_slots.split(",") if s.strip()),
        include_layernorm=cfg.include_layernorm,
        init=cfg.init,
        init_scale=cfg.init_scale,
        scale_left=cfg.scale_left,
        scale_right=cfg.scale_right,
        residual=cfg.residual,
    )
    if cfg.values.get("rank") is not None:
        kwargs["rank"] = cfg.rank
    if cfg.values.get("bottleneck") is not None:
        kwargs["bottleneck"] = cfg.bottleneck
    if cfg.values.get("prompts") is not None:
        kwargs["prompts"] = cfg.prompts
    if cfg.values.get("layer_start") is not None and cfg.values.get("layer_stop") is not None:
        kwargs["layer_range"] = (cfg.layer_start, cfg.layer_stop)
    return MethodSpec(**kwargs)


def _train_config(cfg: ExperimentConfig, seed: int | None = None) -> TrainingConfig:
    return TrainingConfig(
        learning_rate=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        dropout_rate=cfg.dropout_rate,
        batch_size=cfg.batch_size,
        epochs=cfg.epochs,
        warmup_epochs=cfg.warmup_epochs,
        seed=cfg.seed if seed is None else seed,
        precision=cfg.precision,
        max_steps=cfg.values.get("max_steps"),
    )


def _task_spec(cfg: ExperimentConfig) -> SyntheticTaskSpec:
    return SyntheticTaskSpec(
        seed=cfg.task_seed,
        classes=cfg.classes,
        images_per_class=cfg.images_per_class,
        image_h=cfg.image_h,
        image_w=cfg.image_w,
        channels=cfg.channels,
        noise=cfg.noise,
        shift_mix=cfg.shift_mix,
        shift_gain=cfg.shift_gain,
        downstream_noise=cfg.downstream_noise,
    )


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as f:
        return parse_config(f.read())


def _save_model(model: ViTModel, path: str) -> None:
    dataio.save_checkpoint({k: t.data for k, t in model.named_tensors().items()}, path)


def _load_model(cfg: ExperimentConfig, path: str) -> ViTModel:
    model = init_model(_vit_config(cfg), seed=0, dtype=_train_config(cfg).dtype)
    loaded = dataio.load_checkpoint(path)
    dataio.bind_tensors(loaded, model.named_tensors())
    return model


def _metrics_rows(history: list[dict]) -> list[list]:
    return [
        [row["epoch"], row["lr"], row["train_loss"], row["train_acc"], row["val_acc"]]
        for row in history
    ]


_METRICS_HEADER = ["epoch", "lr", "train_loss", "train_acc", "val_acc"]


# -- commands ----------------------------------------------------------


def cmd_pretrain_toy(args) -> int:
    cfg = _load_config(args.config)
    pre_cfg = TrainingConfig(
        learning_rate=cfg.pretrain_lr,
        epochs=cfg.pretrain_epochs,
        warmup_epochs=min(2, cfg.pretrain_epochs - 1),
        batch_size=cfg.batch_size,
        seed=args.seed if args.seed is not None else cfg.seed,
        precision=cfg.precision,
    )
    model = pretrain_backbone(_vit_config(cfg), _task_spec(cfg), pre_cfg, seed=pre_cfg.seed)
    task = make_synthetic_task(_task_spec(cfg), downstream=False)
    acc = evaluate(lambda xs: forward(xs, model), task.val_x, task.val_y, batch=cfg.batch_size)
    _save_model(model, f"{args.out}/backbone.ckpt")
    print(f"pretrained backbone saved; pretrain val accuracy {acc:.4f}")
    return 0


def _attached(cfg: ExperimentConfig, args) -> tuple[PeftModel, Dataset]:
    model = _load_model(cfg, args.backbone)
    spec = _method_spec(cfg)
    seed = args.seed if args.seed is not None else cfg.seed
    pm = attach(spec, model, seed=seed)
    task = make_synthetic_task(_task_spec(cfg), downstream=True)
    return pm, task


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    pm, task = _attached(cfg, args)
    seed = args.seed if args.seed is not None else cfg.seed
    history = training.train(pm, task, _train_config(cfg, seed=seed))
    dataio.write_csv(f"{args.out}/metrics.csv", _METRICS_HEADER, _metrics_rows(history))
    tensors = {k: t.data for k, t in pm.method_tensors().items()}
    head = pm.base.slot("head")
    tensors["head.w"] = head.w.data
    tensors["head.b"] = head.b.data
    dataio.save_checkpoint(tensors, f"{args.out}/adapter.ckpt")
    best = max((r["val_acc"] for r in history), default=float("nan"))
    print(f"trained {cfg.method}; best val accuracy {best:.4f}")
    return 0


def _bind_adapter(pm: PeftModel, path: str) -> None:
    loaded = peft.upgrade_adapter_tensors(dataio.load_checkpoint(path))
    targets = dict(pm.method_tensors())
    head = pm.base.slot("head")
    targets["head.w"] = head.w
    targets["head.b"] = head.b
    dataio.bind_tensors(loaded, targets)


def cmd_eval(args) -> int:
    cfg = _load_config(args.config)
    task = make_synthetic_task(_task_spec(cfg), downstream=True)
    if args.adapter:
        pm, task = _attached(cfg, args)
        _bind_adapter(pm, args.adapter)
        fwd = pm.forward
    else:
        model = _load_model(cfg, args.backbone)
        fwd = lambda xs: forward(xs, model)
    acc = evaluate(fwd, task.test_x, task.test_y, batch=cfg.batch_size)
    with no_grad():
        logits0 = fwd(task.test_x[0]).data
    print(f"test accuracy {acc:.4f}")
    print("first-sample logits:", " ".join(f"{v:.6f}" for v in logits0))
    if args.out:
        dataio.write_csv(f"{args.out}/eval.csv", ["test_acc"], [[acc]])
    return 0


def cmd_merge(args) -> int:
    cfg = _load_config(args.config)
    pm, _ = _attached(cfg, args)
    _bind_adapter(pm, args.adapter)
    merged = merge_model(pm)
    _save_model(merged, f"{args.out}/merged.ckpt")
    print("merged checkpoint written")
    return 0


def cmd_analyze(args) -> int:
    before = dataio.load_checkpoint(args.before)
    after = dataio.load_checkpoint(args.after)
    key = f"{args.slot}.w"
    if key not in before or key not in after:
        raise ConfigError(f"slot {args.slot!r} not present in both checkpoints")
    w = before[key].astype(np.float64)
    delta = after[key].astype(np.float64) - w
    report = spectral.spectral_perturbation_report(w, delta)
    rows = [
        [i, report.spectrum_before[i], report.spectrum_after[i], report.subspace_alignment[i]]
        for i in range(len(report.spectrum_before))
    ]
    print(f"slot {args.slot}: delta effective rank {report.delta_effective_rank}, "
          f"orthogonality defect {report.orthogonality_defect:.3e}")
    print(f"{'idx':>4} {'sigma_before':>14} {'sigma_after':>14} {'alignment':>10}")
    for i, sb, sa, al in rows:
        print(f"{i:>4} {sb:>14.6e} {sa:>14.6e} {al:>10.6f}")
    if args.out:
        dataio.write_csv(
            f"{args.out}/spectral.csv",
            ["index", "sigma_before", "sigma_after", "alignment"],
            rows,
        )
    return 0


def cmd_count_params(args) -> int:
    cfg = _load_config(args.config)
    if args.method:
        cfg.values["method"] = args.method
        for key in ("rank", "bottleneck", "prompts"):
            if key in dataio._METHOD_KEYS and args.method not in dataio._METHOD_KEYS[key]:
                cfg.values[key] = None
    spec = _method_spec(cfg)
    report = count_trainable(spec, _vit_config(cfg))
    print(f"method: {report.method}")
    for key, count in sorted(report.items.items()):
        print(f"  {key:<20} {count}")
    for key, count in sorted(report.ln_items.items()):
        print(f"  {key:<20} {count}  (layernorm)")
    print(f"  backbone total       {report.backbone_total}")
    print(f"  paper-form total     {report.paper_form_total}")
    print(f"  head (per task)      {report.head_params}")
    print(f"  total with head      {report.total_with_head}")
    return 0


def cmd_combine(args) -> int:
    cfg = _load_config(args.config)
    spec = _method_spec(cfg)
    if spec.method not in peft.RESCALING or not (spec.scale_left and spec.scale_right):
        raise ConfigError("combine takes dual-sided rescaling adapters "
                          f"({', '.join(peft.RESCALING)})")
    weights = [float(w) for w in args.weights.split(",")]
    loaded = [peft.upgrade_adapter_tensors(dataio.load_checkpoint(path)) for path in args.adapters]
    if len(weights) != len(loaded):
        raise ConfigError(f"{len(weights)} weights for {len(loaded)} adapter files")

    def entries(name: str) -> list[np.ndarray]:
        missing = [path for path, ckpt in zip(args.adapters, loaded) if name not in ckpt]
        if missing:
            raise dataio.CheckpointFormatError(f"{missing[0]} is missing tensor {name!r}")
        return [ckpt[name] for ckpt in loaded]

    def weighted(name: str) -> np.ndarray:
        return sum(w * arr for w, arr in zip(weights, entries(name)))

    prefix = f"peft.{cfg.method}."
    # sum_of_products yields an ordinary rank-N rescaling adapter
    out_prefix = "peft.rankr_rlrr." if args.mode == "sum_of_products" else prefix
    slot_keys = sorted(
        {name[len(prefix):].rsplit(".", 1)[0] for name in loaded[0] if name.startswith(prefix)}
    )
    combined: dict[str, np.ndarray] = {}
    rank = None
    for slot in slot_keys:
        if f"{prefix}{slot}.S_left" not in loaded[0]:
            # LayerNorm slots carry (s, f) pairs; combine linearly
            for part in ("s", "f"):
                combined[f"{out_prefix}{slot}.{part}"] = weighted(f"{prefix}{slot}.{part}")
            continue
        names = [f"{prefix}{slot}.{k}" for k in ("S_left", "S_right", "f")]
        adapters = [
            peft.RescaleParams(Tensor(sl), Tensor(sr), Tensor(f))
            for sl, sr, f in zip(*map(entries, names))
        ]
        result = peft.combine_rlrr(adapters, weights, mode=args.mode)
        rank = result.S_left.shape[1]
        for name, tensor in result.tensors(f"{out_prefix}{slot}").items():
            combined[name] = tensor.data
    for name in loaded[0]:
        if name.startswith("head."):
            combined[name] = weighted(name)
    dataio.save_checkpoint(combined, f"{args.out}/combined.ckpt")
    print(f"combined {len(loaded)} adapters over {len(slot_keys)} slots ({args.mode})")
    if args.mode == "sum_of_products" and rank is not None:
        print("load it with these config lines:")
        print("method = rankr_rlrr")
        print(f"rank = {rank}")
        if not spec.residual:
            print("residual = false")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args.config)
    vit_cfg = _vit_config(cfg)
    model = init_model(vit_cfg, seed=args.seed or 0, dtype=np.float64)
    model.slot("head").w.data[:] = np.random.default_rng(1).normal(
        0.0, 0.1, model.slot("head").w.shape
    )
    pm = attach(_method_spec(cfg), model, seed=args.seed or 0)
    rng = np.random.default_rng(2)
    for t in pm.method_tensors().values():
        t.data[:] = rng.normal(0.0, 0.1, t.shape)
    image = rng.normal(size=(vit_cfg.image_h, vit_cfg.image_w, vit_cfg.channels))
    params = {k: t for k, t in pm.method_tensors().items() if t.requires_grad}

    def loss():
        return cross_entropy_logits(pm.forward(image), 0)

    # largest supported step: some scale gradients sit near the denominator
    # floor, where roundoff noise (which shrinks as 1/h) dominates
    report = finite_diff_check(loss, params, h=1e-3, tol=1e-4)
    print(report)
    for name, entry in sorted(report.entries.items()):
        print(f"  {name:<44} max_rel_err {entry['max_rel_err']:.3e}")
    return 0 if report.passed else 1


_ABLATION_AXES = ("layers-prefix", "module-subset", "left-only", "right-only", "dual",
                  "residual-on", "residual-off")


def _ablation_cells(cfg: ExperimentConfig, axes: list[str]):
    layers = cfg.layers
    base = dict(method="rlrr")
    if "layers-prefix" in axes:
        for k in range(1, layers + 1):
            yield {**base, "layer_range": (0, k), "label": f"layers_0_{k}"}
    if "module-subset" in axes:
        for subset in (("q", "k", "v", "o"), ("fc1", "fc2"), MATRIX_KINDS):
            yield {**base, "matrix_slots": subset, "label": "mods_" + "-".join(subset)}
    scaling = []
    if "left-only" in axes:
        scaling.append((True, False))
    if "right-only" in axes:
        scaling.append((False, True))
    if "dual" in axes:
        scaling.append((True, True))
    residual_modes = []
    if "residual-on" in axes or not ("residual-off" in axes):
        residual_modes.append(True)
    if "residual-off" in axes:
        residual_modes.append(False)
    for left, right in scaling:
        for residual in residual_modes:
            if not residual and not (left and right):
                continue  # one-sided scaling only exists for the residual form
            label = (
                f"left_{'y' if left else 'n'}_right_{'y' if right else 'n'}"
                f"_res_{'y' if residual else 'n'}"
            )
            cell = {**base, "scale_left": left, "scale_right": right, "label": label}
            if not residual:
                cell["method"] = "rlrr_no_residual"
                cell["rank"] = 1
            yield cell


def cmd_ablate(args) -> int:
    cfg = _load_config(args.config)
    axes = [a.strip() for a in args.axes.split(",") if a.strip()]
    bad = set(axes) - set(_ABLATION_AXES)
    if bad:
        raise ConfigError(f"unknown ablation axes {sorted(bad)}; expected {_ABLATION_AXES}")
    model = _load_model(cfg, args.backbone)
    task = make_synthetic_task(_task_spec(cfg), downstream=True)
    tc = _train_config(cfg, seed=args.seed if args.seed is not None else cfg.seed)
    rows = []
    for cell in _ablation_cells(cfg, axes):
        label = cell.pop("label")
        spec = MethodSpec(**cell)
        pm = attach(spec, model.copy(), seed=tc.seed)
        history = training.train(pm, task, tc)
        best = max((r["val_acc"] for r in history), default=float("nan"))
        trainable = sum(t.numel() for t in pm.trainable().values())
        rows.append([label, spec.scale_left, spec.scale_right, spec.residual, trainable, best])
        print(f"{label:<28} params {trainable:>7}  val_acc {best:.4f}")
    if args.out:
        dataio.write_csv(
            f"{args.out}/ablation.csv",
            ["cell", "left", "right", "residual", "trainable_params", "val_acc"],
            rows,
        )
    return 0


# -- argument parsing --------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="peftlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("pretrain-toy", cmd_pretrain_toy)
    add("train", cmd_train, **{"--backbone": dict(required=True)})
    add("eval", cmd_eval, **{"--backbone": dict(required=True),
                             "--adapter": dict(default=None)})
    add("merge", cmd_merge, **{"--backbone": dict(required=True),
                               "--adapter": dict(required=True)})
    p = sub.add_parser("analyze")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--slot", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_analyze)
    add("count-params", cmd_count_params, **{"--method": dict(default=None)})
    add("combine", cmd_combine, **{
        "--adapters": dict(nargs="+", required=True),
        "--weights": dict(required=True),
        "--mode": dict(default="weighted", choices=["weighted", "sum_of_products"]),
    })
    add("gradcheck", cmd_gradcheck)
    add("ablate", cmd_ablate, **{"--backbone": dict(required=True),
                                 "--axes": dict(default="dual,left-only,right-only")})
    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, ConfigParseError, peft.BindingError,
            dataio.CheckpointFormatError, training.TrainingDiverged, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
