"""A mutation catalogue: "this test catches it" as one command.

  python3 tools/mutants.py --out kills.json [--only NAME ...]

Each `MUTANTS` entry `(name, file, anchor, replacement)` is one small defect:
the one occurrence of `anchor` in `file` replaced.  Tier-1, less
`tests/test_mutants.py`, runs once unmutated, then once per mutant, serially,
each in a fresh temporary copy of the checkout without `.git` or caches, on
one BLAS thread with `--hypothesis-seed=0`.  The output is `{mutant: [killing
test ids]}`.  A test that fails unmutated is reported and never counts as a
kill; a run that outlasts four times the unmutated one (120 s at least) is
stopped and counts as a `timeout` kill.  Exits 1 if any mutant survives.  To
run the catalogue on another commit, copy this file into its `tools/` and
pass `--only` the entries whose anchors it holds.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

ROOT = pathlib.Path(__file__).resolve().parent.parent
AD, CLI, IO, PEFT, TRAIN, VIT = (f"src/peftlab/{m}.py"
                                 for m in ("autodiff", "cli", "dataio", "peft", "train", "vit"))

MUTANTS = [
    # the release gates
    ("merge skips f", PEFT, 'b = b + p["f"].data if "f" in p else b', "b = b"),
    ("gradient scaled by 1.001", AD, "gw = rows.T @ flat if weight_grad",
     "gw = 1.001 * (rows.T @ flat) if weight_grad"),
    ("adamw arena keeps frozen tensors", TRAIN,
     "for k in sorted(params) if params[k].requires_grad}", "for k in sorted(params)}"),
    ("training seed moves the golden", TRAIN, "rng = np.random.default_rng(config.seed)",
     "rng = np.random.default_rng(config.seed + 1)"),
    # the fold mutants recorded for b41a94d
    ("stack of images reversed", VIT, "    lead = image.shape[:-3]\n",
     "    lead = image.shape[:-3]\n    image = image[::-1] if lead else image\n"),
    ("stack weight gradient scaled by 1.5", AD, "gw = rows.T @ flat if weight_grad",
     "gw = (1.5 if stack else 1.0) * (rows.T @ flat) if weight_grad"),
    ("count includes frozen factors", PEFT, "shapes.items() if name not in frozen)",
     "shapes.items())"),
    ("rank-r factor product scaled by 1.01", AD, "else left @ right",
     "else 1.01 * (left @ right)"),
    ("trailing bytes accepted", IO, "if offset != len(data):", "if offset > len(data):"),
    ("magic not compared", IO, 'need(0, 8, "magic") != MAGIC', 'need(0, 8, "magic") is None'),
    ("version bound raised to 99", IO, "if version > VERSION:", "if version > 99:"),
    ("read one byte past the end", IO, "if offset + count > len(data):",
     "if offset + count > len(data) + 1:"),
    ("dtype tag not checked", IO, "if tag not in _TAG_DTYPES:", "if False:"),
    # the hand mutants of 6e0d5f9, 006d3ea, 27b8d7d and the one-walk backward
    ("residual product not multiplied by W", AD, "out *= w", "pass"),
    ("no_grad exit restores views first", AD,
     "for a in sorted(frozen, key=lambda a: a.base is not None):", "for a in frozen:"),
    ("0-d op result left a numpy scalar", AD,
     "out.data = data if type(data) is np.ndarray else np.asarray(data)", "out.data = data"),
    ("leaf gradient left a view", AD,
     "leaf.grad = total.copy() if total.base is not None else total", "leaf.grad = total"),
    ("interior gradient kept", AD,
     "node.grad, node._parents, node._backward = None, (), _tape_released",
     "node._parents, node._backward = (), _tape_released"),
    ("parents walked first-first", AD, "stack.append((p, reversed(p._parents)))",
     "stack.append((p, iter(p._parents)))"),
    # one per folded or fold-candidate test
    ("heads left out of the extent check", VIT, "self.layers, self.heads, self.classes) < 1",
     "self.layers, self.classes) < 1"),
    ("rank 0 accepted", PEFT, '("rank", 1), ("bottleneck", 1)',
     '("rank", 0), ("bottleneck", 1)'),
    ("epochs 0 accepted", TRAIN, "if self.epochs < 1:", "if self.epochs < 0:"),
    ("max_steps 0 accepted", TRAIN, "self.max_steps < 1:", "self.max_steps < 0:"),
    ("max_steps 1 rejected", TRAIN, "self.max_steps < 1:", "self.max_steps < 2:"),
    ("warmup equal to epochs accepted", TRAIN, "if self.warmup_epochs >= self.epochs:",
     "if self.warmup_epochs > self.epochs:"),
    ("batch_size 0 accepted", TRAIN, "if self.batch_size < 1:", "if self.batch_size < 0:"),
    ("a rate down to -1 accepted", TRAIN,
     '"dropout_rate"):\n            if getattr(self, key) < 0:',
     '"dropout_rate"):\n            if getattr(self, key) < -1:'),
    ("precision f16 accepted", TRAIN, 'not in ("f32", "f64"):', 'not in ("f32", "f64", "f16"):'),
    ("steps never counted", TRAIN, "steps_done += 1", "steps_done += 0"),
    ("sliced rows' gradient one row low", AD, "full[..., start:stop, :] = grad",
     "full[..., start + 1:stop + 1, :] = grad"),
    ("2-D matmul input gradient doubled", AD, "gx = flat @ weight.T",
     "gx = flat @ weight.T if stack else 2 * (flat @ weight.T)"),
    ("head counted without its bias", PEFT, "head_params=D * config.classes + config.classes",
     "head_params=D * config.classes"),
    ("weighted combine adds onto the init", PEFT,
     "t.data[...] = sum(w * a.data for w, a in zip(weights, parts))",
     "t.data[...] += sum(w * a.data for w, a in zip(weights, parts))"),
    ("rank-1 factor product scaled by 1.01", AD, "return left * right if",
     "return 1.01 * (left * right) if"),
    ("SSF scale starts at 1.001", PEFT, "return np.ones(shape, dtype=dtype)",
     "return np.full(shape, 1.001, dtype=dtype)"),
    ("one-sided S_left starts drawn", PEFT, "return np.zeros_like(drawn)", "return drawn"),
    ("zero-initialised tensors start at 0.01", PEFT, "return np.zeros(shape, dtype=dtype)  #",
     "return np.full(shape, 0.01, dtype=dtype)  #"),
    ("layer_range ignored", PEFT, "if self.layer_range is None:", "if True:"),
    # the checks that turn a bad checkpoint or config file into one error line
    ("a tensor name's bad UTF-8 replaced", IO, 'name = raw_name.decode("utf-8")',
     'name = raw_name.decode("utf-8", "replace")'),
    ("numpy's rank limit not caught", IO, "except ValueError:  # the one reshape error",
     "except KeyError:  # the one reshape error"),
    ("config read as Latin-1", CLI, 'text = raw.decode("utf-8")', 'text = raw.decode("latin-1")'),
    # the block-drawn synthetic task
    ("classes 0 accepted", TRAIN, '("classes", "images_per_class",', '("images_per_class",'),
    ("split noise drawn image-major", TRAIN,
     "rng.normal(0.0, noise, (classes, per_class) + shape)",
     "rng.normal(0.0, noise, (per_class, classes) + shape).swapaxes(0, 1)"),
]


def mutate(text: str, file: str, anchor: str, replacement: str) -> str:
    """`text` of `file` with its one `anchor` replaced; raises if it holds none or several."""
    if text.count(anchor) != 1:
        raise SystemExit(f"{file}: anchor {anchor!r} occurs {text.count(anchor)} times, not once")
    return text.replace(anchor, replacement)


def run_tier1(tree: pathlib.Path, timeout: float | None) -> set[str] | None:
    """The ids of the tests that fail in `tree`, or None on a timeout."""
    report = tree / "junit.xml"
    env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1"}
    # its own process group, so a timeout also stops the bench runs a test started;
    # test_mutants is left out, since it fails on every mutated tree by design
    with subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py",
         f"--junitxml={report}"],
        cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    ) as proc:
        try:
            code = proc.wait(timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return None
    if not report.exists():
        return {f"no test report: pytest exited {code}"}
    failed = set()
    for case in ET.parse(report).iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            module = case.get("classname")
            failed.add(f"{module}::{case.get('name')}" if module else case.get("name"))
    return failed


def copy_checkout(dst: pathlib.Path) -> pathlib.Path:
    tree = dst / "repo"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info", "out"))
    return tree


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write {mutant: [test ids]}")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="run only these mutants")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only is None or m[0] in args.only]
    unknown = set(args.only or ()) - {m[0] for m in chosen}
    if unknown:
        parser.error(f"no mutant named {sorted(unknown)}")
    for name, file, anchor, replacement in chosen:  # every anchor before the first run
        mutate((ROOT / file).read_text(), file, anchor, replacement)
    with tempfile.TemporaryDirectory() as tmp:
        start = time.monotonic()
        broken = run_tier1(copy_checkout(pathlib.Path(tmp)), None)
        seconds = time.monotonic() - start
    print(f"unmutated: {len(broken)} failing {sorted(broken)}, {seconds:.0f} s", flush=True)
    timeout = max(120.0, 4 * seconds)
    kills = {}
    for name, file, anchor, replacement in chosen:
        start = time.monotonic()
        with tempfile.TemporaryDirectory() as tmp:
            tree = copy_checkout(pathlib.Path(tmp))
            path = tree / file
            path.write_text(mutate(path.read_text(), file, anchor, replacement))
            failed = run_tier1(tree, timeout)
        kills[name] = [f"timeout after {timeout:.0f} s"] if failed is None else sorted(
            failed - broken)
        print(f"{name}: {len(kills[name])} killing tests, {time.monotonic() - start:.0f} s",
              flush=True)
    pathlib.Path(args.out).write_text(json.dumps(kills, indent=1) + "\n")
    survivors = [name for name, ids in kills.items() if not ids]
    print(f"{len(survivors)} of {len(kills)} mutants survive{': ' if survivors else ''}"
          + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
