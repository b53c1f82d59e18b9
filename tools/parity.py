"""Bitwise parity digests: "every output equal to the parent" as one command.

  python3 tools/parity.py --out digests.json
  python3 tools/parity.py --diff parent.json change.json

`--out` runs a fixed seeded matrix and writes `{name: sha256}`, one entry per
output:
- library: the 8 methods plus full fine-tuning and the rescaling variants
  (left-only, right-only and residual-off `rlrr`, left-only `rankr_rlrr`), in
  float32 and float64, at D=16, and full fine-tuning at the smoke geometry
  (D=64), whose AdamW arena is split into parts (`train.AdamWState`).  Each
  case digests the loss and every
  trainable gradient of a batch and of one image at dropout 0 and 0.1, the
  batch and one-image `no_grad` logits, the merged tensors and logits of a
  mergeable method, and a short `train` history with its final tensors at
  dropout 0 and 0.1;
- CLI: per method, precision and dropout, the chain pretrain-toy, train
  twice, eval of the backbone, the adapter and the merged backbone, merge,
  analyze, count-params, combine in both modes, ablate over every axis and
  gradcheck, at D=16, L=2.  It digests each command's exit code, stdout,
  stderr and written files.  Rejections (a combine of methods that do not
  combine, say) are outputs too.

`--diff` lists the keys whose digests differ or that only one file holds,
and exits 1 if there is any.  Digests are not portable: BLAS results can
differ between machines, so compare two runs on one machine.  To compare with
another commit, check it out next to this one (`git worktree add ../parent
<commit>`), copy this file into its `tools/` and run it there: the script
imports `src/peftlab` of the checkout that holds it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from peftlab import cli  # noqa: E402
from peftlab.autodiff import cross_entropy_logits, gradients, no_grad, zero_grads  # noqa: E402
from peftlab.peft import MERGEABLE, METHODS, MethodSpec, attach, merge_model  # noqa: E402
from peftlab.train import (  # noqa: E402
    SyntheticTaskSpec, TrainingConfig, full_finetune, make_synthetic_task, train,
)
from peftlab.vit import ViTConfig, init_model  # noqa: E402

DTYPES = {"f32": np.float32, "f64": np.float64}
DROPOUTS = (0.0, 0.1)
VIT = ViTConfig(dim=16, layers=2, heads=2, classes=3)
SMOKE_VIT = ViTConfig(classes=3)
TASK = SyntheticTaskSpec(classes=3, images_per_class=4, val_per_class=2, test_per_class=2)
# library case name -> MethodSpec keys; "full" is full fine-tuning of the backbone,
# "full-smoke" of the SMOKE_VIT backbone
CASES = {
    **{m: {"method": m} for m in METHODS},
    "rlrr-left_only": {"method": "rlrr", "scale_right": False},
    "rlrr-right_only": {"method": "rlrr", "scale_left": False},
    "rlrr-residual_off": {"method": "rlrr", "residual": False},
    "rankr_rlrr-left_only": {"method": "rankr_rlrr", "scale_right": False},
    "full": None,
    "full-smoke": None,
}
CLI_CONFIG = """dim = 16
layers = 2
heads = 2
classes = 3
epochs = 2
warmup_epochs = 1
pretrain_epochs = 2
images_per_class = 6
batch_size = 4
learning_rate = 0.02
"""


def digest(value) -> str:
    """sha256 of an array's dtype, shape and bytes, or of a JSON-able value."""
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, bytes):
        h.update(value)
    else:
        h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


def _backbone(dtype, vit=VIT):
    """A seeded backbone with every tensor moved off its init, so biases and
    LayerNorm affines are not zero or one and every path rounds."""
    model = init_model(vit, seed=5, dtype=dtype)
    rng = np.random.default_rng(6)
    for t in model.named_tensors().values():
        t.data += rng.normal(0.0, 0.05, t.shape).astype(dtype)
    return model


def _model(case: str, dtype):
    """The case's model: an attached `PeftModel`, or the whole backbone unfrozen."""
    keys = CASES[case]
    if keys is None:
        model = _backbone(dtype, SMOKE_VIT if case == "full-smoke" else VIT)
        model.unfreeze_all()
        return model
    return attach(MethodSpec(**keys), _backbone(dtype), seed=7)


def library_digests(cases=CASES, precisions=DTYPES) -> dict[str, str]:
    task = make_synthetic_task(TASK, downstream=True)
    xs, ys = task.train_x[:4], task.train_y[:4]
    out = {}
    for case in cases:
        for prec in precisions:
            dtype = DTYPES[prec]
            at = f"lib/{case}/{prec}"
            model = _model(case, dtype)
            params = model.trainable()
            for drop in DROPOUTS:
                for name, (x, y) in {"batch": (xs, ys), "image": (xs[0], ys[0])}.items():
                    zero_grads(params)
                    rng = np.random.default_rng(8)
                    loss = cross_entropy_logits(model.forward(x, drop, rng), y)
                    out[f"{at}/drop{drop}/{name}/loss"] = digest(loss.data)
                    for key, g in gradients(loss, params).items():
                        out[f"{at}/drop{drop}/{name}/grad/{key}"] = digest(g)
            with no_grad():
                out[f"{at}/logits/batch"] = digest(model.forward(xs).data)
                out[f"{at}/logits/image"] = digest(model.forward(xs[0]).data)
            if CASES[case] and CASES[case]["method"] in MERGEABLE:
                merged = merge_model(model)
                for key, t in merged.named_tensors().items():
                    out[f"{at}/merged/{key}"] = digest(t.data)
                with no_grad():
                    out[f"{at}/merged/logits"] = digest(merged.forward(xs).data)
            for drop in DROPOUTS:
                config = TrainingConfig(learning_rate=0.02, dropout_rate=drop, batch_size=4,
                                        epochs=2, warmup_epochs=1, seed=9, precision=prec)
                model = _model(case, dtype)
                history = (full_finetune if CASES[case] is None else train)(model, task, config)
                out[f"{at}/train{drop}/history"] = digest(history)
                for key, t in model.trainable().items():
                    out[f"{at}/train{drop}/{key}"] = digest(t.data)
    return out


def _run(argv: list[str]) -> tuple[int, bytes, bytes]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(argv)
    return code, stdout.getvalue().encode(), stderr.getvalue().encode()


_CFG, _BACKBONE = ["--config", "exp.cfg"], ["--backbone", "backbone.ckpt"]
# (label, argv) of each command of the CLI chain, run in one directory
CHAIN = [
    ("pretrain-toy", ["pretrain-toy", *_CFG, "--out", "."]),
    ("train", ["train", *_CFG, *_BACKBONE, "--out", "."]),
    ("train-seed4", ["train", *_CFG, *_BACKBONE, "--out", "second", "--seed", "4"]),
    ("eval-backbone", ["eval", *_CFG, *_BACKBONE, "--out", "eval-backbone"]),
    ("eval-adapter", ["eval", *_CFG, *_BACKBONE, "--adapter", "adapter.ckpt",
                      "--out", "eval-adapter"]),
    ("merge", ["merge", *_CFG, *_BACKBONE, "--adapter", "adapter.ckpt", "--out", "."]),
    ("eval-merged", ["eval", *_CFG, "--backbone", "merged.ckpt", "--out", "eval-merged"]),
    ("analyze", ["analyze", "--before", "backbone.ckpt", "--after", "merged.ckpt",
                 "--slot", "l00.q", "--out", "analyze"]),
    ("count-params", ["count-params", *_CFG, "--out", "."]),
    *((f"combine-{mode}", ["combine", *_CFG, "--adapters", "adapter.ckpt", "second/adapter.ckpt",
                           "--weights", "0.5,0.5", "--mode", mode, "--out", f"combine-{mode}"])
      for mode in ("weighted", "sum_of_products")),
    ("ablate", ["ablate", *_CFG, *_BACKBONE, "--axes", ",".join(cli._ABLATION_AXES),
                "--out", "ablate"]),
    ("gradcheck", ["gradcheck", *_CFG, "--out", "gradcheck"]),
]


def cli_digests() -> dict[str, str]:
    out, here = {}, os.getcwd()
    for method, precision, drop in itertools.product(METHODS, DTYPES, DROPOUTS):
        at = f"cli/{method}/{precision}/drop{drop}"
        with tempfile.TemporaryDirectory() as d:
            os.chdir(d)
            try:
                with open("exp.cfg", "w") as f:
                    f.write(f"{CLI_CONFIG}method = {method}\nprecision = {precision}\n"
                            f"dropout_rate = {drop}\n")
                for label, argv in CHAIN:
                    os.makedirs(argv[argv.index("--out") + 1], exist_ok=True)
                    code, stdout, stderr = _run(argv)
                    out[f"{at}/{label}/exit"] = digest(code)
                    out[f"{at}/{label}/stdout"] = digest(stdout)
                    out[f"{at}/{label}/stderr"] = digest(stderr)
                for base, _, files in os.walk("."):
                    for name in files:
                        path = os.path.join(base, name)
                        with open(path, "rb") as f:
                            out[f"{at}/file/{os.path.normpath(path)}"] = digest(f.read())
            finally:
                os.chdir(here)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the digests of this checkout to this JSON file")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two digest files")
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(pathlib.Path(p).read_text()) for p in args.diff)
        moved = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        for key in moved:
            side = "only in A" if key not in b else "only in B" if key not in a else "differs"
            print(f"{side}: {key}")
        print(f"{len(moved)} of {len(a.keys() | b.keys())} keys differ")
        return 1 if moved else 0
    digests = {**library_digests(), **cli_digests()}
    with open(args.out, "w") as f:
        json.dump(digests, f, indent=0, sort_keys=True)
    print(f"{len(digests)} digests written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
