import csv
import warnings
from dataclasses import replace

import numpy as np
import pytest

from peftlab.cli import _ablation_cells, run
from peftlab.dataio import load_checkpoint, parse_config, save_checkpoint
from peftlab.peft import METHODS, MethodSpec, attach, count_trainable
from peftlab.vit import MATRIX_KINDS, ViTConfig, init_model

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


@pytest.mark.parametrize("command, builds", [
    ("pretrain-toy", 1), ("train", 1), ("eval", 1), ("eval-adapter", 1), ("merge", 0),
])
def test_each_command_builds_its_task_once(workspace, tmp_path, monkeypatch, command, builds):
    import peftlab.cli
    import peftlab.train

    calls = []
    original = peftlab.train.make_synthetic_task

    def spy(*args, **kwargs):
        calls.append(kwargs.get("downstream"))
        return original(*args, **kwargs)

    for module in (peftlab.cli, peftlab.train):
        monkeypatch.setattr(module, "make_synthetic_task", spy)
    backbone = ["--backbone", str(workspace / "backbone.ckpt")]
    adapter = ["--adapter", str(workspace / "adapter.ckpt")]
    argv = {
        "pretrain-toy": ["pretrain-toy"],
        "train": ["train", *backbone],
        "eval": ["eval", *backbone],
        "eval-adapter": ["eval", *backbone, *adapter],
        "merge": ["merge", *backbone, *adapter],
    }[command]
    assert run([*argv, "--config", str(workspace / "exp.cfg"), "--out", str(tmp_path)]) == 0
    assert len(calls) == builds, calls


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


@pytest.mark.parametrize("config_lines, method", [
    ("", "lora"),
    ("method = lora\nrank = 2\n", "adapter"),
    ("method = adapter\nbottleneck = 2\n", "rankr_rlrr"),
    ("method = vpt_deep\nprompts = 3\n", "rlrr"),
])
def test_count_params_method_override(tmp_path, capsys, config_lines, method):
    # --method prints what a config written for that method prints; keys of
    # the config's own method (rank, bottleneck, prompts) do not leak into it
    given = tmp_path / "given.cfg"
    given.write_text(CONFIG + config_lines)
    written = tmp_path / "written.cfg"
    written.write_text(CONFIG + f"method = {method}\n")
    printed = []
    for argv in (["--config", str(given), "--method", method], ["--config", str(written)]):
        assert run(["count-params", *argv]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    assert f"method: {method}" in printed[0]


@pytest.fixture(scope="module")
def two_adapters(workspace):
    """Two different rlrr adapters, trained with seeds 3 and 4 from nonzero factors."""
    d = workspace / "two_adapters"
    d.mkdir()
    cfg = d / "exp.cfg"
    cfg.write_text(CONFIG + "init = normal\n")
    adapters = []
    for seed in ("3", "4"):
        out = d / f"seed{seed}"
        out.mkdir()
        assert run(["train", "--config", str(cfg), "--backbone", str(workspace / "backbone.ckpt"),
                    "--out", str(out), "--seed", seed]) == 0
        adapters.append(str(out / "adapter.ckpt"))
    return cfg, adapters


def old_layout(adapter: dict) -> dict:
    """An adapter as written before the rank-1 factors became 2-D."""
    old = {}
    for name, arr in adapter.items():
        if name.endswith(".S_left"):
            name, arr = name[: -len("S_left")] + "s_left", arr.reshape(-1)
        elif name.endswith(".S_right"):
            name, arr = name[: -len("S_right")] + "s_right", arr.reshape(-1)
        old[name] = arr
    assert len(old) == len(adapter) and "peft.rlrr.l00.q.s_left" in old
    return old


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


@pytest.mark.parametrize("mode", ["weighted", "sum_of_products"])
def test_combine_mixes_two_adapters(two_adapters, tmp_path, mode):
    cfg, adapters = two_adapters
    weights = (0.5, -1.25)
    assert run(["combine", "--config", str(cfg), "--adapters", *adapters,
                "--weights", ",".join(map(str, weights)), "--mode", mode,
                "--out", str(tmp_path)]) == 0
    inputs = [load_checkpoint(path) for path in adapters]
    combined = load_checkpoint(str(tmp_path / "combined.ckpt"))
    prefix = "peft.rankr_rlrr." if mode == "sum_of_products" else "peft.rlrr."
    assert list(combined) == [n.replace("peft.rlrr.", prefix) for n in inputs[0]]
    assert not np.array_equal(inputs[0]["head.w"], inputs[1]["head.w"])
    for name in inputs[0]:
        arrs = [ckpt[name] for ckpt in inputs]
        got = combined[name.replace("peft.rlrr.", prefix)]
        if mode == "sum_of_products" and name.endswith(".S_left"):
            expected = np.concatenate([w * a for w, a in zip(weights, arrs)], axis=1)
        elif mode == "sum_of_products" and name.endswith(".S_right"):
            expected = np.concatenate(arrs, axis=0)
        else:  # factors (weighted), shifts, LayerNorm pairs and the head
            expected = sum(w * a for w, a in zip(weights, arrs))
        assert got.dtype == arrs[0].dtype and np.array_equal(got, expected), name


def test_combine_rejects_adapters_that_do_not_fit_the_config(two_adapters, tmp_path, capsys):
    # the adapters wrap two layers; a one-layer config must reject them, not
    # write a file that eval and merge would then reject
    cfg, adapters = two_adapters
    narrow = tmp_path / "one_layer.cfg"
    narrow.write_text(cfg.read_text().replace("layers = 2", "layers = 1"))
    capsys.readouterr()
    assert run(["combine", "--config", str(narrow), "--adapters", *adapters,
                "--weights", "0.5,-1.25", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "has no slot in the model" in err[0], err
    assert not (tmp_path / "combined.ckpt").exists()


def test_combine_reads_old_rlrr_adapter_layout(two_adapters, tmp_path):
    cfg, adapters = two_adapters
    old = str(tmp_path / "old_adapter.ckpt")
    save_checkpoint(old_layout(load_checkpoint(adapters[0])), old)
    written = []
    for path in (adapters[0], old):
        out = tmp_path / ("old" if path == old else "new")
        out.mkdir()
        assert run(["combine", "--config", str(cfg), "--adapters", path, adapters[1],
                    "--weights", "0.5,-1.25", "--out", str(out)]) == 0
        written.append((out / "combined.ckpt").read_bytes())
    assert written[0] == written[1]


def test_combine_names_a_bad_weight(workspace, capsys):
    adapter = str(workspace / "adapter.ckpt")
    capsys.readouterr()
    assert run(["combine", "--config", str(workspace / "exp.cfg"), "--adapters", adapter,
                adapter, "--weights", "0.5,abc", "--out", str(workspace)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: --weights") and "'abc'" in err[0], err


def test_combine_sum_of_products_loads_as_rankr(workspace, two_adapters, capsys):
    out = str(workspace)
    backbone = f"{out}/backbone.ckpt"
    cfg, adapters = two_adapters
    trained = workspace / "sum_of_products"
    trained.mkdir()
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


@pytest.fixture(scope="module", params=["rankr_rlrr", "rlrr_no_residual"])
def rank2_adapters(request, workspace):
    """The config keys of a rank-2 method, their file, and two adapters trained under them."""
    keys = {"method": request.param, "rank": "2"}
    d = workspace / f"{request.param}_pair"
    d.mkdir()
    cfg = d / "exp.cfg"
    cfg.write_text(config_with(**keys))
    adapters = []
    for seed in ("3", "4"):
        out = d / f"seed{seed}"
        out.mkdir()
        assert run(["train", "--config", str(cfg), "--backbone", str(workspace / "backbone.ckpt"),
                    "--out", str(out), "--seed", seed]) == 0
        adapters.append(str(out / "adapter.ckpt"))
    return keys, str(cfg), adapters


@pytest.mark.parametrize("mode", ["weighted", "sum_of_products"])
def test_a_combined_adapter_loads_in_eval_and_merge(workspace, rank2_adapters, tmp_path, capsys,
                                                    mode):
    keys, trained_cfg, adapters = rank2_adapters
    backbone = str(workspace / "backbone.ckpt")
    capsys.readouterr()
    assert run(["combine", "--config", trained_cfg, "--adapters", *adapters,
                "--weights", "0.5,0.75", "--mode", mode, "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    if mode == "sum_of_products":  # load under the printed config lines
        lines = printed[printed.index("load it with these config lines:") + 1:]
        expected = ["method = rankr_rlrr", "rank = 4"]
        if keys["method"] == "rlrr_no_residual":
            expected.append("residual = false")
        assert lines == expected
        keys = {**keys, **dict(line.split(" = ") for line in lines)}
    cfg = tmp_path / "combined.cfg"
    cfg.write_text(config_with(**keys))
    combined = str(tmp_path / "combined.ckpt")
    assert run(["eval", "--config", str(cfg), "--backbone", backbone, "--adapter", combined,
                "--out", str(tmp_path)]) == 0
    attached = first_sample_logits(capsys.readouterr().out)
    assert run(["merge", "--config", str(cfg), "--backbone", backbone, "--adapter", combined,
                "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert run(["eval", "--config", str(cfg), "--backbone", str(tmp_path / "merged.ckpt"),
                "--out", str(tmp_path)]) == 0
    merged = first_sample_logits(capsys.readouterr().out)
    assert np.abs(attached - merged).max() <= 2e-6  # printed to 6 decimals


def test_combine_rejects_a_stacked_rank_above_the_slot_dims(workspace, tmp_path, capsys):
    # 17 rank-1 adapters stack to rank 17, which no dim = 16 slot can hold
    adapter = str(workspace / "adapter.ckpt")
    capsys.readouterr()
    assert run(["combine", "--config", str(workspace / "exp.cfg"), "--adapters", *[adapter] * 17,
                "--weights", ",".join(["1"] * 17), "--mode", "sum_of_products",
                "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: rank 17 exceeds min dim of slot l00.q\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("weights", ["0.5,nan", "inf,0.5", "0.5,-inf"])
def test_combine_rejects_a_non_finite_weight(workspace, tmp_path, capsys, weights):
    adapter = str(workspace / "adapter.ckpt")
    capsys.readouterr()
    assert run(["combine", "--config", str(workspace / "exp.cfg"), "--adapters", adapter,
                adapter, "--weights", weights, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: --weights {weights!r}: every weight must be finite"]
    assert not list(tmp_path.iterdir())


def test_eval_reads_old_rlrr_adapter_layout(workspace, capsys):
    cfg = str(workspace / "exp.cfg")
    out = str(workspace)
    save_checkpoint(old_layout(load_checkpoint(f"{out}/adapter.ckpt")), f"{out}/old_adapter.ckpt")
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


def test_combine_rejects_non_rescaling_method(tmp_path, capsys):
    # a LoRA adapter file that fits its config, so the method check is what rejects it
    lora = tmp_path / "lora.cfg"
    lora.write_text(CONFIG + "method = lora\nrank = 2\n")
    cfg = parse_config(lora.read_text())
    adapter = str(tmp_path / "lora.ckpt")
    pm = attach(cfg.spec, init_model(cfg.vit))
    save_checkpoint({name: t.data for name, t in pm.trainable().items()}, adapter)
    capsys.readouterr()
    assert run(["combine", "--config", str(lora), "--adapters", adapter,
                "--weights", "1.0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: combine takes dual-sided rescaling adapters (rlrr, rankr_rlrr, rlrr_no_residual)"]
    assert not (tmp_path / "combined.ckpt").exists()


def test_gradcheck_command(workspace):
    assert run(["gradcheck", "--config", str(workspace / "exp.cfg"), "--seed", "1"]) == 0


def test_gradcheck_reads_the_config_seed(tmp_path, capsys):
    small = CONFIG.replace("layers = 2", "layers = 1") + "matrix_slots = q\n"
    (tmp_path / "seed5.cfg").write_text(small + "seed = 5\n")
    (tmp_path / "exp.cfg").write_text(small)
    printed = []
    for name, flags in (("seed5.cfg", []), ("exp.cfg", ["--seed", "5"]), ("exp.cfg", [])):
        assert run(["gradcheck", "--config", str(tmp_path / name), *flags]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] != printed[2]


def test_gradcheck_passes_on_prompts_behind_attention(tmp_path, capsys):
    # a two-point stencil at a step large enough for the scale gradients'
    # roundoff read 1.0e-2 here on a correct gradient
    (tmp_path / "exp.cfg").write_text("method = vpt_deep\nprompts = 2\ndim = 16\nlayers = 2\n")
    assert run(["gradcheck", "--config", str(tmp_path / "exp.cfg"), "--seed", "1"]) == 0
    assert capsys.readouterr().out.startswith("FiniteDiffReport(PASS")


@pytest.mark.parametrize("method", METHODS)
def test_gradcheck_passes_every_method(tmp_path, method):
    small = CONFIG.replace("layers = 2", "layers = 1") + "matrix_slots = q\n"
    (tmp_path / "exp.cfg").write_text(small + f"method = {method}\n")
    assert run(["gradcheck", "--config", str(tmp_path / "exp.cfg")]) == 0


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


def test_ablate_dual_cell_trains_both_factors(workspace, tmp_path, monkeypatch):
    import peftlab.train

    trained = []
    original = peftlab.train.train

    def spy(pm, *args, **kwargs):
        trained.append(pm)
        return original(pm, *args, **kwargs)

    monkeypatch.setattr(peftlab.train, "train", spy)
    assert run(["ablate", "--config", str(workspace / "exp.cfg"),
                "--backbone", str(workspace / "backbone.ckpt"), "--axes", "dual",
                "--out", str(tmp_path), "--seed", "3"]) == 0
    (pm,) = trained
    factors = {k: t.data for k, t in pm.method_tensors().items()
               if k.endswith((".S_left", ".S_right"))}
    assert len(factors) == 24  # 2 layers x 6 matrix slots x 2 factors
    for name, data in factors.items():  # off the S_left = S_right = 0 saddle
        assert np.all(data != 0), name


def test_ablate_on_a_lora_config_keeps_the_config_residual(workspace, tmp_path):
    # LoRA's spec has no residual, but the rlrr cells read the config's, which is on
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG + "method = lora\nrank = 2\n")
    assert run(["ablate", "--config", str(cfg), "--backbone", str(workspace / "backbone.ckpt"),
                "--axes", "layers-prefix", "--out", str(tmp_path), "--seed", "3"]) == 0
    with open(tmp_path / "ablation.csv") as f:
        rows = list(csv.DictReader(f))
    assert [row["cell"] for row in rows] == ["layers_0_1", "layers_0_2"]
    assert all((row["left"], row["right"], row["residual"]) == ("True",) * 3 for row in rows)


def test_ablation_cells_read_the_file_residual_for_rlrr_no_residual():
    # as for lora: the spec forces the residual off, and the rlrr cells read the file's key
    cfg = parse_config(CONFIG + "method = rlrr_no_residual\nrank = 2\n")
    cells = dict(_ablation_cells(cfg, ["layers-prefix", "module-subset"]))
    assert len(cells) == 5
    assert all(spec.method == "rlrr" and spec.residual for spec in cells.values())


def test_lora_ignores_the_rescaling_keys(workspace, tmp_path, capsys):
    backbone = str(workspace / "backbone.ckpt")
    runs = []
    for name, lines in (("plain", ""),
                        ("keys", "residual = true\nscale_left = false\nscale_right = false\n")):
        d = tmp_path / name
        d.mkdir()
        cfg = str(d / "exp.cfg")
        (d / "exp.cfg").write_text(CONFIG + "method = lora\nrank = 2\n" + lines)
        assert run(["train", "--config", cfg, "--backbone", backbone, "--out", str(d),
                    "--seed", "3"]) == 0
        assert run(["eval", "--config", cfg, "--backbone", backbone,  # prints the logits
                    "--adapter", str(d / "adapter.ckpt"), "--out", str(d)]) == 0
        assert run(["count-params", "--config", cfg]) == 0
        runs.append((capsys.readouterr().out, load_checkpoint(str(d / "adapter.ckpt"))))
    (out, adapter), (ref_out, ref_adapter) = runs
    assert "first-sample logits" in ref_out and out == ref_out
    assert "peft.lora.l00.q.W_down" in ref_adapter and adapter.keys() == ref_adapter.keys()
    for k, v in ref_adapter.items():
        assert adapter[k].tobytes() == v.tobytes(), k


@pytest.fixture(scope="module")
def ablation_rows(workspace):
    """ablation.csv over all seven axes, for a config that narrows the method keys."""
    d = workspace / "ablate_all"
    d.mkdir()
    cfg = d / "exp.cfg"
    cfg.write_text(CONFIG + "matrix_slots = q,v\ninclude_layernorm = false\nresidual = false\n")
    axes = "layers-prefix,module-subset,left-only,right-only,dual,residual-on,residual-off"
    assert run(["ablate", "--config", str(cfg), "--backbone", str(workspace / "backbone.ckpt"),
                "--axes", axes, "--out", str(d), "--seed", "3"]) == 0
    with open(d / "ablation.csv") as f:
        return list(csv.DictReader(f))


def test_ablate_runs_every_axis(ablation_rows):
    assert [row["cell"] for row in ablation_rows] == [
        "layers_0_1", "layers_0_2",
        "mods_q-k-v-o", "mods_fc1-fc2", "mods_q-k-v-o-fc1-fc2",
        "left_y_right_n_res_y", "left_n_right_y_res_y",
        "left_y_right_y_res_y", "left_y_right_y_res_n",
    ]


def test_ablate_cells_start_from_the_config_method_keys(ablation_rows):
    base = MethodSpec(matrix_slots=("q", "v"), include_layernorm=False, residual=False)
    specs = {
        "layers_0_1": replace(base, layer_range=(0, 1)),
        "layers_0_2": replace(base, layer_range=(0, 2)),
        "mods_q-k-v-o": replace(base, matrix_slots=("q", "k", "v", "o")),
        "mods_fc1-fc2": replace(base, matrix_slots=("fc1", "fc2")),
        "mods_q-k-v-o-fc1-fc2": replace(base, matrix_slots=MATRIX_KINDS),
        # the scaling cells set the residual themselves, whatever the config says
        "left_y_right_n_res_y": replace(base, scale_right=False, residual=True),
        "left_n_right_y_res_y": replace(base, scale_left=False, residual=True),
        "left_y_right_y_res_y": replace(base, residual=True),
        "left_y_right_y_res_n": replace(base, method="rlrr_no_residual", rank=1),
    }
    vit_cfg = ViTConfig(image_h=8, image_w=8, channels=1, patch=4,
                        dim=16, layers=2, heads=2, classes=3)
    for row in ablation_rows:
        spec = specs[row["cell"]]
        flags = (row["left"], row["right"], row["residual"])
        assert flags == tuple(str(v) for v in (spec.scale_left, spec.scale_right, spec.residual))
        expected = count_trainable(spec, vit_cfg).total_with_head
        assert int(row["trainable_params"]) == expected, row
    dual = next(row for row in ablation_rows if row["cell"] == "left_y_right_y_res_y")
    assert dual["trainable_params"] == "243"  # what count-params prints for this config


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


def test_pretrain_rejects_pretrain_epochs_below_one(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.replace("pretrain_epochs = 2", "pretrain_epochs = 0"))
    assert run(["pretrain-toy", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: pretrain_epochs"), lines
    assert not (tmp_path / "backbone.ckpt").exists()


@pytest.mark.parametrize("old, new, key", [
    pytest.param("epochs = 2\nwarmup_epochs = 1", "epochs = 0\nwarmup_epochs = 0", "epochs",
                 id="epochs=0"),
    pytest.param("batch_size = 4", "batch_size = 4\nmax_steps = -1", "max_steps",
                 id="max_steps=-1"),
    pytest.param("batch_size = 4", "batch_size = 4\nmax_steps = 0", "max_steps",
                 id="max_steps=0"),
    pytest.param("warmup_epochs = 1", "warmup_epochs = -3", "warmup_epochs",
                 id="warmup_epochs=-3"),
])
def test_train_rejects_a_schedule_that_runs_no_step(workspace, tmp_path, capsys, old, new, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.replace(old, new))
    capsys.readouterr()
    assert run(["train", "--config", str(cfg), "--backbone", str(workspace / "backbone.ckpt"),
                "--out", str(tmp_path), "--seed", "3"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key}"), lines
    assert not (tmp_path / "adapter.ckpt").exists()


@pytest.mark.parametrize("command, line, key", [
    pytest.param("pretrain-toy", "noise = -1", "noise", id="noise"),
    pytest.param("train", "downstream_noise = -1", "downstream_noise", id="downstream_noise"),
    pytest.param("train", "init = normal\ninit_scale = -1", "init_scale", id="init_scale"),
])
def test_negative_scale_names_its_key(workspace, tmp_path, capsys, command, line, key):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG + line + "\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path)]
    if command == "train":
        args += ["--backbone", str(workspace / "backbone.ckpt")]
    capsys.readouterr()
    assert run(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {key} must be non-negative"), lines
    assert not list(tmp_path.glob("*.ckpt"))


@pytest.mark.parametrize("command", ["count-params", "pretrain-toy", "train"])
@pytest.mark.parametrize("config", [
    pytest.param(CONFIG + "patch = 0\n", id="patch=0"),
    pytest.param(CONFIG.replace("heads = 2", "heads = 0"), id="heads=0"),
])
def test_a_zero_extent_exits_with_one_error_line(workspace, tmp_path, capsys, command, config):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config)
    args = [command, "--config", str(cfg), "--out", str(tmp_path)]
    if command == "train":
        args += ["--backbone", str(workspace / "backbone.ckpt")]
    capsys.readouterr()
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert lines == ["error: all config extents must be positive"], lines
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


@pytest.mark.parametrize("command", ["count-params", "train"])
@pytest.mark.parametrize("lines, message", [
    pytest.param("method = lora\nrank = -2", "rank must be at least 1, got -2", id="rank=-2"),
    pytest.param("method = rankr_rlrr\nrank = 0", "rank must be at least 1, got 0", id="rank=0"),
    pytest.param("method = adapter\nbottleneck = 0", "bottleneck must be at least 1, got 0",
                 id="bottleneck=0"),
    pytest.param("method = vpt_deep\nprompts = -1", "prompts must be at least 0, got -1",
                 id="prompts=-1"),
    pytest.param("method = lora\nrank = 16", "lora rank 16 must be below min dim of slot l00.q",
                 id="lora_rank=dim"),
    pytest.param("method = adapter\nbottleneck = 16", "adapter bottleneck 16 must be below dim 16",
                 id="bottleneck=dim"),
])
def test_count_params_rejects_what_train_rejects(workspace, tmp_path, capsys, command, lines,
                                                 message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG + lines + "\n")
    args = [command, "--config", str(cfg), "--out", str(tmp_path)]
    if command == "train":
        args += ["--backbone", str(workspace / "backbone.ckpt")]
    capsys.readouterr()
    assert run(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: {message}"]
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


def config_with(**keys) -> str:
    """CONFIG with `keys` set, each replacing its line if CONFIG has one."""
    kept = [line for line in CONFIG.strip().splitlines() if line.split(" = ")[0] not in keys]
    return "\n".join(kept + [f"{key} = {value}" for key, value in keys.items()]) + "\n"


@pytest.mark.parametrize("keys, message", [
    pytest.param({"epochs": 0}, "epochs must be at least 1, got 0", id="epochs=0"),
    pytest.param({"learning_rate": -1}, "learning_rate must be non-negative, got -1.0",
                 id="learning_rate=-1"),
    pytest.param({"noise": -1}, "noise must be non-negative, got -1.0", id="noise=-1"),
    pytest.param({"pretrain_epochs": 0}, "pretrain_epochs must be at least 1, got 0",
                 id="pretrain_epochs=0"),
    pytest.param({"pretrain_lr": -1}, "pretrain_lr must be non-negative, got -1.0",
                 id="pretrain_lr=-1"),
    pytest.param({"warmup_epochs": 30}, "warmup_epochs 30 must be below epochs 2",
                 id="warmup_epochs=30"),
    pytest.param({"method": "lora", "rank": 16},
                 "lora rank 16 must be below min dim of slot l00.q", id="lora_rank=dim"),
    pytest.param({"layer_start": 1},
                 "layer_start and layer_stop go together; layer_stop is not set",
                 id="start_only"),
    pytest.param({"images_per_class": 0}, "images_per_class must be at least 1, got 0",
                 id="images_per_class=0"),
    pytest.param({"images_per_class": -1}, "images_per_class must be at least 1, got -1",
                 id="images_per_class=-1"),
    pytest.param({"seed": -1}, "seed must be non-negative, got -1", id="seed=-1"),
    pytest.param({"task_seed": -1}, "task_seed must be non-negative, got -1",
                 id="task_seed=-1"),
    pytest.param({"weight_decay": "nan"},
                 "line 11: bad value for 'weight_decay': expected a finite number, got 'nan'",
                 id="weight_decay=nan"),
    pytest.param({"dropout_rate": "nan"},
                 "line 11: bad value for 'dropout_rate': expected a finite number, got 'nan'",
                 id="dropout_rate=nan"),
    pytest.param({"learning_rate": "inf"},
                 "line 10: bad value for 'learning_rate': expected a finite number, got 'inf'",
                 id="learning_rate=inf"),
    pytest.param({"shift_mix": "-inf"},
                 "line 11: bad value for 'shift_mix': expected a finite number, got '-inf'",
                 id="shift_mix=-inf"),
])
def test_every_command_rejects_a_bad_config_alike(workspace, tmp_path, capsys, keys, message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_with(**keys))
    backbone = ["--backbone", str(workspace / "backbone.ckpt")]
    adapter = str(workspace / "adapter.ckpt")
    commands = {
        "count-params": [],
        "pretrain-toy": [],
        "train": backbone,
        "eval": backbone,
        "eval-adapter": [*backbone, "--adapter", adapter],
        "merge": [*backbone, "--adapter", adapter],
        "combine": ["--adapters", adapter, adapter, "--weights", "0.5,0.5"],
        "gradcheck": [],
        "ablate": backbone,
    }
    for name, flags in commands.items():
        out = tmp_path / name
        out.mkdir()
        capsys.readouterr()
        assert run([name.removesuffix("-adapter"), "--config", str(cfg), "--out", str(out),
                    *flags]) == 1, name
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n"), name
        assert not list(out.iterdir()), name


@pytest.mark.parametrize("line, message", [
    pytest.param("weight_decay = -1", "weight_decay must be non-negative, got -1.0",
                 id="weight_decay=-1"),
    pytest.param("dropout_rate = 1", "dropout_rate must be below 1, got 1.0", id="dropout=1"),
    pytest.param("dropout_rate = 1.5", "dropout_rate must be below 1, got 1.5",
                 id="dropout=1.5"),
])
def test_train_names_a_bad_training_key(workspace, tmp_path, capsys, line, message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG + line + "\n")
    capsys.readouterr()
    assert run(["train", "--config", str(cfg), "--backbone", str(workspace / "backbone.ckpt"),
                "--out", str(tmp_path), "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines() == [f"error: {message}"]
    assert [p.name for p in tmp_path.iterdir()] == ["exp.cfg"]


@pytest.mark.parametrize("line, missing", [
    pytest.param("layer_start = 1", "layer_stop", id="start_only"),
    pytest.param("layer_stop = 1", "layer_start", id="stop_only"),
])
def test_half_a_layer_range_names_the_missing_key(tmp_path, capsys, line, missing):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG + line + "\n")
    capsys.readouterr()
    assert run(["count-params", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and missing in lines[0], lines


@pytest.mark.parametrize("method", ["rlrr", "rankr_rlrr", "lora", "ssf", "vpt_deep"])
def test_unknown_init_is_rejected_for_every_method(tmp_path, capsys, method):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG + f"method = {method}\ninit = bogus\n")
    capsys.readouterr()
    assert run(["count-params", "--config", str(cfg)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["error: unknown init 'bogus'; expected one of ('lora', 'normal')"], lines


def test_zero_init_names_the_saddle(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG + "init = zero\n")
    capsys.readouterr()
    assert run(["count-params", "--config", str(cfg)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: init 'zero' is a saddle"), lines


def test_combine_rejects_a_weight_count_that_does_not_match(workspace, tmp_path, capsys):
    adapter = str(workspace / "adapter.ckpt")
    capsys.readouterr()
    assert run(["combine", "--config", str(workspace / "exp.cfg"), "--adapters", adapter,
                adapter, "--weights", "1.0", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: 1 weights for 2 adapter files"]
    assert not (tmp_path / "combined.ckpt").exists()


def test_analyze_rejects_an_absent_slot(workspace, tmp_path, capsys):
    backbone = str(workspace / "backbone.ckpt")
    capsys.readouterr()
    assert run(["analyze", "--before", backbone, "--after", backbone, "--slot", "l09.q",
                "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: slot 'l09.q' not present in both checkpoints"]
    assert not (tmp_path / "spectral.csv").exists()


@pytest.mark.parametrize("after, problem", [
    (np.ones((64, 1)), "shapes differ, (64, 8) before, (64, 1) after"),
    (np.full((64, 8), np.inf), "non-finite entries, (64, 8) before, (64, 8) after"),
], ids=["broadcast-shape", "non-finite"])
def test_analyze_rejects_a_slot_that_changed_shape_or_is_not_finite(tmp_path, capsys, after,
                                                                    problem):
    # (64, 1) broadcasts against (64, 8), so subtracting first would report on it
    save_checkpoint({"head.w": np.ones((64, 8))}, str(tmp_path / "before.ckpt"))
    save_checkpoint({"head.w": after}, str(tmp_path / "after.ckpt"))
    capsys.readouterr()
    assert run(["analyze", "--before", str(tmp_path / "before.ckpt"),
                "--after", str(tmp_path / "after.ckpt"), "--slot", "head",
                "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [f"error: slot 'head': {problem}"]
    assert not (tmp_path / "spectral.csv").exists()


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


@pytest.mark.parametrize("axes", ["residual-off", "left-only,residual-off", ""])
def test_ablate_rejects_axes_that_select_no_cell(workspace, tmp_path, capsys, axes):
    # the backbone path does not exist: the axes are checked before it is read
    capsys.readouterr()
    assert run(["ablate", "--config", str(workspace / "exp.cfg"),
                "--backbone", str(tmp_path / "absent.ckpt"), "--axes", axes,
                "--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: --axes {axes!r} selects no cell"), err
    assert "scaling axis" in err[0]
    assert not list(tmp_path.iterdir())


# the size key each method reads, kept small; rlrr and ssf read none
SIZE_KEYS = {"rankr_rlrr": {"rank": 2}, "rlrr_no_residual": {"rank": 2}, "lora": {"rank": 2},
             "adapter": {"bottleneck": 2}, "vpt_shallow": {"prompts": 2},
             "vpt_deep": {"prompts": 2}}


@pytest.mark.parametrize("precision, tol", [("f32", 1e-5), ("f64", 1e-10)], ids=["f32", "f64"])
@pytest.mark.parametrize("method", METHODS)
def test_each_command_reads_what_the_one_before_it_wrote(tmp_path, capsys, method, precision,
                                                          tol):
    # pretrain-toy -> train -> eval -> count-params; a mergeable method then runs
    # merge -> eval of the merged backbone -> analyze of an adapted slot
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_with(layers=1, epochs=1, warmup_epochs=0, pretrain_epochs=1,
                               method=method, precision=precision, **SIZE_KEYS.get(method, {})))
    d, c = str(tmp_path), ["--config", str(cfg)]
    backbone, adapter = ["--backbone", f"{d}/backbone.ckpt"], ["--adapter", f"{d}/adapter.ckpt"]
    chain = [["pretrain-toy", *c, "--out", d], ["train", *c, *backbone, "--out", d],
             ["eval", *c, *backbone, *adapter, "--out", d], ["count-params", *c]]
    mergeable = method not in ("adapter", "vpt_shallow", "vpt_deep")
    if mergeable:
        chain += [["merge", *c, *backbone, *adapter, "--out", d],
                  ["eval", *c, "--backbone", f"{d}/merged.ckpt", "--out", d],
                  ["analyze", "--before", f"{d}/backbone.ckpt", "--after", f"{d}/merged.ckpt",
                   "--slot", "l00.q"]]
    printed = []
    for argv in chain:
        assert run(argv) == 0, (argv, capsys.readouterr().err)
        printed.append(capsys.readouterr().out)
    assert f"trained {method}" in printed[1] and f"method: {method}" in printed[3]
    if mergeable:
        attached, merged = first_sample_logits(printed[2]), first_sample_logits(printed[5])
        assert np.abs(attached - merged).max() < tol
        assert printed[6].startswith("slot l00.q:")
