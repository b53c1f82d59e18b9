"""Command-line entry point.

Subcommands: pretrain-toy, train, eval, merge, analyze, count-params,
combine, gradcheck, ablate.  The config file is the source of truth;
individual flags override single keys.  Exit codes: 0 success, 1 domain
error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace

import numpy as np

from . import dataio, peft, spectral, train as training
from .autodiff import cross_entropy_logits, finite_diff_check, no_grad
from .dataio import ConfigParseError, ExperimentConfig, parse_config
from .peft import PeftModel, attach, count_trainable, merge_model
from .train import evaluate, make_synthetic_task, pretrain_backbone
from .vit import ConfigError, MATRIX_KINDS, ViTModel, init_model

__all__ = ["main", "run"]


def _load_config(args) -> ExperimentConfig:
    """The config file with the `--seed` override applied."""
    with open(args.config) as f:
        cfg = parse_config(f.read())
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _save_model(model: ViTModel, path: str) -> None:
    dataio.save_checkpoint({k: t.data for k, t in model.named_tensors().items()}, path)


def _load_model(cfg: ExperimentConfig, path: str) -> ViTModel:
    model = init_model(cfg.vit, seed=0, dtype=cfg.train.dtype)
    loaded = dataio.load_checkpoint(path)
    dataio.bind_tensors(loaded, model.named_tensors())
    return model


def _save_adapter(pm: PeftModel, path: str) -> None:
    dataio.save_checkpoint({k: t.data for k, t in pm.trainable().items()}, path)


def _load_adapter(pm: PeftModel, path: str) -> None:
    loaded = dataio.upgrade_adapter_tensors(dataio.load_checkpoint(path))
    dataio.bind_tensors(loaded, pm.trainable())


def _metrics_rows(history: list[dict]) -> list[list]:
    return [
        [row["epoch"], row["lr"], row["train_loss"], row["train_acc"], row["val_acc"]]
        for row in history
    ]


_METRICS_HEADER = ["epoch", "lr", "train_loss", "train_acc", "val_acc"]


# -- commands ----------------------------------------------------------


def cmd_pretrain_toy(args) -> int:
    cfg = _load_config(args)
    task = make_synthetic_task(cfg.task, downstream=False)
    model = pretrain_backbone(cfg.vit, task, cfg.pretrain)
    acc = evaluate(model.forward, task.val_x, task.val_y, batch=cfg.batch_size)
    _save_model(model, f"{args.out}/backbone.ckpt")
    print(f"pretrained backbone saved; pretrain val accuracy {acc:.4f}")
    return 0


def _attached(cfg: ExperimentConfig, args) -> PeftModel:
    return attach(cfg.spec, _load_model(cfg, args.backbone), seed=cfg.seed)


def cmd_train(args) -> int:
    cfg = _load_config(args)
    pm = _attached(cfg, args)
    task = make_synthetic_task(cfg.task, downstream=True)
    history = training.train(pm, task, cfg.train)
    dataio.write_csv(f"{args.out}/metrics.csv", _METRICS_HEADER, _metrics_rows(history))
    _save_adapter(pm, f"{args.out}/adapter.ckpt")
    best = max((r["val_acc"] for r in history), default=float("nan"))
    print(f"trained {cfg.method}; best val accuracy {best:.4f}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    task = make_synthetic_task(cfg.task, downstream=True)
    if args.adapter:
        model = _attached(cfg, args)
        _load_adapter(model, args.adapter)
    else:
        model = _load_model(cfg, args.backbone)
    acc = evaluate(model.forward, task.test_x, task.test_y, batch=cfg.batch_size)
    with no_grad():
        logits0 = model.forward(task.test_x[0]).data
    print(f"test accuracy {acc:.4f}")
    print("first-sample logits:", " ".join(f"{v:.6f}" for v in logits0))
    if args.out:
        dataio.write_csv(f"{args.out}/eval.csv", ["test_acc"], [[acc]])
    return 0


def cmd_merge(args) -> int:
    cfg = _load_config(args)
    pm = _attached(cfg, args)
    _load_adapter(pm, args.adapter)
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
    w, w_after = before[key], after[key]
    shapes = f"{w.shape} before, {w_after.shape} after"
    if w.shape != w_after.shape:
        raise ConfigError(f"slot {args.slot!r}: shapes differ, {shapes}")
    if not (np.isfinite(w).all() and np.isfinite(w_after).all()):
        raise ConfigError(f"slot {args.slot!r}: non-finite entries, {shapes}")
    w = w.astype(np.float64)
    delta = w_after.astype(np.float64) - w
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
    cfg = _load_config(args)
    if args.method:  # the file's rank, bottleneck and prompts apply where the method reads them
        cfg = replace(cfg, method=args.method)
    report = count_trainable(cfg.spec, cfg.vit)
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
    cfg = _load_config(args)
    try:
        weights = [float(w) for w in args.weights.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--weights {args.weights!r}: {exc}") from None
    if not all(map(math.isfinite, weights)):
        raise ConfigError(f"--weights {args.weights!r}: every weight must be finite")
    if len(weights) != len(args.adapters):
        raise ConfigError(f"{len(weights)} weights for {len(args.adapters)} adapter files")
    pms = []
    for path in args.adapters:
        # shape-only host: the adapter files hold the head, nothing else of it is read
        pms.append(attach(cfg.spec, init_model(cfg.vit, dtype=cfg.train.dtype)))
        _load_adapter(pms[-1], path)
    combined = peft.combine(pms, weights, mode=args.mode)
    _save_adapter(combined, f"{args.out}/combined.ckpt")
    print(f"combined {len(pms)} adapters over {len(combined.params)} slots ({args.mode})")
    if args.mode == "sum_of_products":
        print("load it with these config lines:")
        print("method = rankr_rlrr")
        print(f"rank = {combined.spec.rank}")
        if not combined.spec.residual:
            print("residual = false")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_config(args)
    model = init_model(cfg.vit, seed=cfg.seed, dtype=np.float64)
    model.slot("head").w.data[:] = np.random.default_rng(1).normal(
        0.0, 0.1, model.slot("head").w.shape
    )
    pm = attach(cfg.spec, model, seed=cfg.seed)
    rng = np.random.default_rng(2)
    for t in pm.method_tensors().values():
        t.data[:] = rng.normal(0.0, 0.1, t.shape)
    image = rng.normal(size=(cfg.image_h, cfg.image_w, cfg.channels))

    def loss():
        return cross_entropy_logits(pm.forward(image), 0)

    report = finite_diff_check(loss, pm.method_tensors())
    print(report)
    for name, err in sorted(report.entries.items()):
        print(f"  {name:<44} max_rel_err {err:.3e}")
    return 0 if report.passed else 1


_ABLATION_AXES = ("layers-prefix", "module-subset", "left-only", "right-only", "dual",
                  "residual-on", "residual-off")


def _ablation_cells(cfg: ExperimentConfig, axes: list[str]):
    """(label, spec) per cell.  Each spec is the config's method keys as rlrr
    with the cell's axis set; the scaling cells set both sides and the residual.
    The base is the config as rlrr, not the config's spec: `lora` and
    `rlrr_no_residual` specs force keys that the rlrr cells read from the file."""
    base = replace(cfg, method="rlrr").spec
    if "layers-prefix" in axes:
        for k in range(1, cfg.layers + 1):
            yield f"layers_0_{k}", replace(base, layer_range=(0, k))
    if "module-subset" in axes:
        for subset in (("q", "k", "v", "o"), ("fc1", "fc2"), MATRIX_KINDS):
            yield "mods_" + "-".join(subset), replace(base, matrix_slots=subset)
    sides = {"left-only": (True, False), "right-only": (False, True), "dual": (True, True)}
    scaling = [sides[axis] for axis in sides if axis in axes]
    residual_modes = []
    if "residual-on" in axes or "residual-off" not in axes:
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
            # rank 1 keeps the residual-free cell the same size as rlrr's map
            yield label, replace(base, method="rlrr" if residual else "rlrr_no_residual",
                                 rank=1, scale_left=left, scale_right=right, residual=residual)


def cmd_ablate(args) -> int:
    cfg = _load_config(args)
    axes = [a.strip() for a in args.axes.split(",") if a.strip()]
    bad = set(axes) - set(_ABLATION_AXES)
    if bad:
        raise ConfigError(f"unknown ablation axes {sorted(bad)}; expected {_ABLATION_AXES}")
    cells = list(_ablation_cells(cfg, axes))
    if not cells:
        raise ConfigError(f"--axes {args.axes!r} selects no cell; it needs a scaling axis "
                          "(dual, left-only or right-only; residual-off takes dual)")
    model = _load_model(cfg, args.backbone)
    task = make_synthetic_task(cfg.task, downstream=True)
    tc = cfg.train
    rows = []
    for label, spec in cells:
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
    except (ConfigError, ConfigParseError, dataio.CheckpointFormatError,
            training.TrainingDiverged, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
