import warnings

import numpy as np
import pytest

from peftlab.cli import run
from peftlab.dataio import load_checkpoint, save_checkpoint

CONFIG = """
dim = 16
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


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "exp.cfg"
    cfg.write_text(CONFIG)
    out = str(d)
    assert run(["pretrain-toy", "--config", str(cfg), "--out", out, "--seed", "3"]) == 0
    assert run([
        "train", "--config", str(cfg), "--backbone", f"{out}/backbone.ckpt",
        "--out", out, "--seed", "3",
    ]) == 0
    return d


def test_pipeline_artifacts_exist(workspace):
    for name in ("backbone.ckpt", "adapter.ckpt", "metrics.csv"):
        assert (workspace / name).exists()
    header = (workspace / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,lr,train_loss,train_acc,val_acc"


def test_eval_command(workspace, capsys):
    cfg = str(workspace / "exp.cfg")
    out = str(workspace)
    assert run([
        "eval", "--config", cfg, "--backbone", f"{out}/backbone.ckpt",
        "--adapter", f"{out}/adapter.ckpt", "--out", out,
    ]) == 0
    assert "test accuracy" in capsys.readouterr().out
    assert (workspace / "eval.csv").exists()


def test_merge_and_analyze(workspace, capsys):
    cfg = str(workspace / "exp.cfg")
    out = str(workspace)
    assert run([
        "merge", "--config", cfg, "--backbone", f"{out}/backbone.ckpt",
        "--adapter", f"{out}/adapter.ckpt", "--out", out,
    ]) == 0
    merged = load_checkpoint(f"{out}/merged.ckpt")
    backbone = load_checkpoint(f"{out}/backbone.ckpt")
    assert set(merged) == set(backbone)

    assert run([
        "analyze", "--before", f"{out}/backbone.ckpt", "--after", f"{out}/merged.ckpt",
        "--slot", "l00.q", "--out", out,
    ]) == 0
    lines = (workspace / "spectral.csv").read_text().splitlines()
    assert lines[0] == "index,sigma_before,sigma_after,alignment"
    assert len(lines) == 17  # header + one row per singular value


def test_count_params_command(workspace, capsys):
    assert run(["count-params", "--config", str(workspace / "exp.cfg")]) == 0
    out = capsys.readouterr().out
    assert "backbone total" in out
    assert "method: rlrr" in out


def test_combine_command(workspace):
    cfg = str(workspace / "exp.cfg")
    out = str(workspace)
    adapter = f"{out}/adapter.ckpt"
    assert run([
        "combine", "--config", cfg, "--adapters", adapter, adapter,
        "--weights", "1.0,0.0", "--mode", "weighted", "--out", out,
    ]) == 0
    combined = load_checkpoint(f"{out}/combined.ckpt")
    original = load_checkpoint(adapter)
    # one-hot weights reproduce the selected adapter exactly
    for name, arr in combined.items():
        assert np.allclose(arr, original[name], atol=0), name


def first_sample_logits(text):
    line = next(l for l in text.splitlines() if l.startswith("first-sample logits:"))
    return np.array([float(v) for v in line.split(":", 1)[1].split()])


def test_combine_sum_of_products_loads_as_rankr(workspace, capsys):
    out = str(workspace)
    backbone = f"{out}/backbone.ckpt"
    trained = workspace / "sum_of_products"
    trained.mkdir()
    cfg = trained / "exp.cfg"
    cfg.write_text(CONFIG + "init = normal\n")  # nonzero scale factors
    adapters = []
    for seed in ("3", "4"):
        d = trained / f"seed{seed}"
        d.mkdir()
        assert run(["train", "--config", str(cfg), "--backbone", backbone,
                    "--out", str(d), "--seed", seed]) == 0
        adapters.append(str(d / "adapter.ckpt"))
    capsys.readouterr()
    assert run(["combine", "--config", str(cfg), "--adapters", *adapters,
                "--weights", "0.5,0.75", "--mode", "sum_of_products",
                "--out", str(trained)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert "method = rankr_rlrr" in printed and "rank = 2" in printed
    combined = load_checkpoint(str(trained / "combined.ckpt"))
    assert combined["peft.rankr_rlrr.l00.q.S_left"].shape == (16, 2)

    rankr = trained / "rankr.cfg"
    rankr.write_text(CONFIG + "method = rankr_rlrr\nrank = 2\n")
    combined_path = str(trained / "combined.ckpt")
    assert run(["eval", "--config", str(rankr), "--backbone", backbone,
                "--adapter", combined_path, "--out", str(trained)]) == 0
    attached = first_sample_logits(capsys.readouterr().out)
    assert run(["merge", "--config", str(rankr), "--backbone", backbone,
                "--adapter", combined_path, "--out", str(trained)]) == 0
    merged_path = str(trained / "merged.ckpt")
    assert not np.array_equal(load_checkpoint(merged_path)["l00.q.w"],
                              load_checkpoint(backbone)["l00.q.w"])
    capsys.readouterr()
    assert run(["eval", "--config", str(rankr), "--backbone", merged_path,
                "--out", str(trained)]) == 0
    merged = first_sample_logits(capsys.readouterr().out)
    assert np.abs(attached - merged).max() <= 2e-6  # printed to 6 decimals


def test_eval_reads_old_rlrr_adapter_layout(workspace, capsys):
    cfg = str(workspace / "exp.cfg")
    out = str(workspace)
    adapter = load_checkpoint(f"{out}/adapter.ckpt")
    old = {}
    for name, arr in adapter.items():
        if name.endswith(".S_left"):
            name, arr = name[: -len("S_left")] + "s_left", arr.reshape(-1)
        elif name.endswith(".S_right"):
            name, arr = name[: -len("S_right")] + "s_right", arr.reshape(-1)
        old[name] = arr
    assert len(old) == len(adapter) and "peft.rlrr.l00.q.s_left" in old
    save_checkpoint(old, f"{out}/old_adapter.ckpt")
    lines = []
    for path in (f"{out}/adapter.ckpt", f"{out}/old_adapter.ckpt"):
        assert run(["eval", "--config", cfg, "--backbone", f"{out}/backbone.ckpt",
                    "--adapter", path, "--out", out]) == 0
        lines.append([l for l in capsys.readouterr().out.splitlines()
                      if l.startswith("first-sample logits:")])
    assert lines[0] == lines[1] and lines[0]


def test_eval_rejects_adapter_with_unused_layers(workspace, capsys):
    # the adapter was trained on both layers; a config that wraps only layer 0
    # must reject it rather than load the part that fits
    narrow = workspace / "layer0.cfg"
    narrow.write_text(CONFIG + "layer_start = 0\nlayer_stop = 1\n")
    out = str(workspace)
    capsys.readouterr()
    assert run(["eval", "--config", str(narrow), "--backbone", f"{out}/backbone.ckpt",
                "--adapter", f"{out}/adapter.ckpt"]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: checkpoint tensor 'peft.rlrr.")
    assert "no slot" in err[0]


def test_combine_rejects_non_rescaling_method(workspace, capsys):
    lora = workspace / "lora.cfg"
    lora.write_text(CONFIG + "method = lora\nrank = 2\n")
    adapter = str(workspace / "adapter.ckpt")
    assert run(["combine", "--config", str(lora), "--adapters", adapter,
                "--weights", "1.0", "--out", str(workspace)]) == 1
    assert "rescaling" in capsys.readouterr().err


def test_gradcheck_command(workspace):
    assert run(["gradcheck", "--config", str(workspace / "exp.cfg"), "--seed", "1"]) == 0


def test_ablate_command(workspace):
    cfg = str(workspace / "exp.cfg")
    out = str(workspace)
    assert run([
        "ablate", "--config", cfg, "--backbone", f"{out}/backbone.ckpt",
        "--axes", "dual,left-only", "--out", out, "--seed", "3",
    ]) == 0
    lines = (workspace / "ablation.csv").read_text().splitlines()
    assert lines[0] == "cell,left,right,residual,trainable_params,val_acc"
    assert len(lines) == 3


def test_train_divergence_exits_with_one_error_line(workspace, tmp_path, capsys):
    diverge = tmp_path / "diverge.cfg"
    diverge.write_text(CONFIG.replace("learning_rate = 0.02", "learning_rate = 1e30"))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["train", "--config", str(diverge), "--backbone",
                    str(workspace / "backbone.ckpt"), "--out", str(tmp_path), "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: non-finite loss")
    # numpy's overflow/invalid warnings would print to stderr ahead of that line
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("batch_size", ["0", "-4"])
def test_pretrain_rejects_batch_size_below_one(tmp_path, capsys, batch_size):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.replace("batch_size = 4", f"batch_size = {batch_size}"))
    assert run(["pretrain-toy", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: batch_size"), lines
    assert not (tmp_path / "backbone.ckpt").exists()


def test_missing_config_gives_io_exit_code(tmp_path):
    assert run(["count-params", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_invalid_config_gives_domain_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dim = not_a_number\n")
    assert run(["count-params", "--config", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def test_unknown_ablation_axis_rejected(workspace, capsys):
    cfg = str(workspace / "exp.cfg")
    out = str(workspace)
    assert run([
        "ablate", "--config", cfg, "--backbone", f"{out}/backbone.ckpt",
        "--axes", "sideways", "--out", out,
    ]) == 1
