import csv
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from peftlab import cli, spectral
from peftlab.cli import _ablation_cells, run
from peftlab.dataio import ExperimentConfig, load_checkpoint, parse_config, save_checkpoint
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
    return trained_pair(workspace, "two_adapters", CONFIG + "init = normal\n")


def trained_pair(workspace, name: str, config: str):
    """`workspace/name/exp.cfg` holding `config`, and two adapters trained under
    it on the workspace backbone with seeds 3 and 4."""
    d = workspace / name
    d.mkdir()
    cfg = d / "exp.cfg"
    cfg.write_text(config)
    adapters = []
    for seed in ("3", "4"):
        out = d / f"seed{seed}"
        out.mkdir()
        assert run(["train", "--config", str(cfg), "--backbone", str(workspace / "backbone.ckpt"),
                    "--out", str(out), "--seed", seed]) == 0
        adapters.append(str(out / "adapter.ckpt"))
    return cfg, adapters


def logits_line(text):
    return next(l for l in text.splitlines() if l.startswith("first-sample logits:"))


def first_sample_logits(text):
    return np.array([float(v) for v in logits_line(text).split(":", 1)[1].split()])


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
    cfg, adapters = trained_pair(workspace, f"{request.param}_pair", config_with(**keys))
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
    assert_rejected(capsys, ["combine", "--config", str(workspace / "exp.cfg"), "--adapters",
                             *[adapter] * 17, "--weights", ",".join(["1"] * 17),
                             "--mode", "sum_of_products", "--out", str(tmp_path)],
                    tmp_path, 1, "error: rank 17 exceeds min dim of slot l00.q")


@pytest.mark.parametrize("weights, message", [
    pytest.param("0.5,abc", "--weights '0.5,abc': could not convert string to float: 'abc'",
                 id="not-a-number"),
    *[pytest.param(weights, f"--weights {weights!r}: every weight must be finite", id=weights)
      for weights in ("0.5,nan", "inf,0.5", "0.5,-inf")],
    pytest.param("1.0", "1 weights for 2 adapter files", id="weight-count"),
])
def test_combine_rejects_bad_weights(workspace, tmp_path, capsys, weights, message):
    adapter = str(workspace / "adapter.ckpt")
    assert_rejected(capsys, ["combine", "--config", str(workspace / "exp.cfg"), "--adapters",
                             adapter, adapter, "--weights", weights, "--out", str(tmp_path)],
                    tmp_path, 1, f"error: {message}")


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


def test_eval_rejects_adapter_with_unused_layers(workspace, tmp_path, capsys):
    # the adapter was trained on both layers; a config that wraps only layer 0
    # must reject it rather than load the part that fits
    narrow = workspace / "layer0.cfg"
    narrow.write_text(CONFIG + "layer_start = 0\nlayer_stop = 1\n")
    assert_rejected(capsys, ["eval", "--config", str(narrow), "--backbone",
                             str(workspace / "backbone.ckpt"), "--adapter",
                             str(workspace / "adapter.ckpt"), "--out", str(tmp_path)], tmp_path,
                    1, "error: checkpoint tensor 'peft.rlrr.final_ln.f' has no slot in the model")


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


@pytest.mark.parametrize("keys", [
    pytest.param({"method": "vpt_deep", "prompts": 0}, id="vpt_deep-prompts=0"),
    pytest.param({"matrix_slots": "", "include_layernorm": "false"}, id="no-slot"),
])
def test_gradcheck_rejects_a_config_that_attaches_no_method_tensor(tmp_path, capsys, keys):
    # a finite-difference check over no tensor would pass on nothing
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_with(layers=1, **keys))
    out = tmp_path / "out"
    out.mkdir()
    assert_rejected(capsys, ["gradcheck", "--config", str(cfg), "--out", str(out)], out, 1,
                    "error: the config attaches no method tensor to check "
                    f"({keys.get('method', 'rlrr')})")


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
    assert ",".join(ablation_rows[0]) == "cell,left,right,residual,trainable_params,val_acc"
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
        "left_y_right_y_res_n": base,
    }
    vit_cfg = ViTConfig(image_h=8, image_w=8, channels=1, patch=4,
                        dim=16, layers=2, heads=2, classes=3)
    for row in ablation_rows:
        spec = specs[row["cell"]]
        flags = (row["left"], row["right"], row["residual"])
        assert flags == tuple(str(v) for v in (spec.scale_left, spec.scale_right, spec.residual))
        expected = count_trainable(spec, vit_cfg).total_with_head
        assert int(row["trainable_params"]) == expected, row
        # what `ablate` prints is what the cell trains
        pm = attach(spec, init_model(vit_cfg))
        assert sum(t.numel() for t in pm.trainable().values()) == expected, row
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


def test_pretrain_rejects_pretrain_epochs_below_one(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.replace("pretrain_epochs = 2", "pretrain_epochs = 0"))
    assert run(["pretrain-toy", "--config", str(cfg), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: pretrain_epochs"), lines
    assert not (tmp_path / "backbone.ckpt").exists()


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


def assert_rejected(capsys, argv, out, code, line):
    """`run(argv)` exits `code` with one stderr line, prints nothing to stdout
    and leaves `out` empty.  `line` is the whole stderr line for exit 1, and
    its start for exit 2, whose errno text varies."""
    capsys.readouterr()
    assert run(argv) == code, argv
    captured = capsys.readouterr()
    assert captured.out == "", argv
    lines = captured.err.splitlines()
    assert len(lines) == 1 and captured.err.endswith("\n"), (argv, lines)
    assert (lines[0] == line if code == 1 else lines[0].startswith(line)), (argv, lines)
    assert not list(out.iterdir()), argv


def config_with(**keys) -> str:
    """CONFIG with `keys` set, each replacing its line if CONFIG has one."""
    kept = [line for line in CONFIG.strip().splitlines() if line.split(" = ")[0] not in keys]
    return "\n".join(kept + [f"{key} = {value}" for key, value in keys.items()]) + "\n"


# One bad config per row: the keys set in CONFIG and the message every command prints.
BAD_CONFIGS = {
    "epochs=0": ({"epochs": 0}, "epochs must be at least 1, got 0"),
    "epochs=-2": ({"epochs": -2}, "epochs must be at least 1, got -2"),
    "precision=f16": ({"precision": "f16"}, "precision must be f32 or f64, got 'f16'"),
    "learning_rate=-1": ({"learning_rate": -1}, "learning_rate must be non-negative, got -1.0"),
    "noise=-1": ({"noise": -1}, "noise must be non-negative, got -1.0"),
    "pretrain_epochs=0": ({"pretrain_epochs": 0}, "pretrain_epochs must be at least 1, got 0"),
    "pretrain_lr=-1": ({"pretrain_lr": -1}, "pretrain_lr must be non-negative, got -1.0"),
    "warmup_epochs=30": ({"warmup_epochs": 30}, "warmup_epochs 30 must be below epochs 2"),
    "warmup_epochs=2": ({"warmup_epochs": 2}, "warmup_epochs 2 must be below epochs 2"),
    "lora_rank=dim": ({"method": "lora", "rank": 16},
                      "lora rank 16 must be below min dim of slot l00.q"),
    "start_only": ({"layer_start": 1},
                   "layer_start and layer_stop go together; layer_stop is not set"),
    # a repeated slot would be counted, and its factors drawn, twice
    "repeated_slot": ({"matrix_slots": "q,v,q"}, "matrix_slots lists 'q' more than once"),
    "images_per_class=0": ({"images_per_class": 0},
                           "images_per_class must be at least 1, got 0"),
    "images_per_class=-1": ({"images_per_class": -1},
                            "images_per_class must be at least 1, got -1"),
    "seed=-1": ({"seed": -1}, "seed must be non-negative, got -1"),
    "task_seed=-1": ({"task_seed": -1}, "task_seed must be non-negative, got -1"),
    "weight_decay=nan": ({"weight_decay": "nan"}, "line 11: bad value for 'weight_decay': "
                         "expected a finite number, got 'nan'"),
    "dropout_rate=nan": ({"dropout_rate": "nan"}, "line 11: bad value for 'dropout_rate': "
                         "expected a finite number, got 'nan'"),
    "learning_rate=inf": ({"learning_rate": "inf"}, "line 10: bad value for 'learning_rate': "
                          "expected a finite number, got 'inf'"),
    "shift_mix=4": ({"shift_mix": 4}, "shift_mix must be in [0, 1], got 4.0"),
    "shift_mix=-inf": ({"shift_mix": "-inf"}, "line 11: bad value for 'shift_mix': "
                       "expected a finite number, got '-inf'"),
    "dim=not_a_number": ({"dim": "not_a_number"}, "line 10: bad value for 'dim': "
                         "invalid literal for int() with base 10: 'not_a_number'"),
    "batch_size=0": ({"batch_size": 0}, "batch_size must be at least 1, got 0"),
    "batch_size=-4": ({"batch_size": -4}, "batch_size must be at least 1, got -4"),
    "max_steps=-1": ({"max_steps": -1}, "max_steps must be at least 1 when set, got -1"),
    "max_steps=0": ({"max_steps": 0}, "max_steps must be at least 1 when set, got 0"),
    "warmup_epochs=-3": ({"warmup_epochs": -3}, "warmup_epochs must be non-negative, got -3"),
    "weight_decay=-1": ({"weight_decay": -1}, "weight_decay must be non-negative, got -1.0"),
    "dropout_rate=1": ({"dropout_rate": 1}, "dropout_rate must be below 1, got 1.0"),
    "dropout_rate=1.5": ({"dropout_rate": 1.5}, "dropout_rate must be below 1, got 1.5"),
    "dropout_rate=-0.5": ({"dropout_rate": -0.5}, "dropout_rate must be non-negative, got -0.5"),
    "patch=0": ({"patch": 0}, "all config extents must be positive"),
    "heads=0": ({"heads": 0}, "all config extents must be positive"),
    "rank=-2": ({"method": "lora", "rank": -2}, "rank must be at least 1, got -2"),
    "rank=0": ({"method": "rankr_rlrr", "rank": 0}, "rank must be at least 1, got 0"),
    "bottleneck=0": ({"method": "adapter", "bottleneck": 0},
                     "bottleneck must be at least 1, got 0"),
    "bottleneck=dim": ({"method": "adapter", "bottleneck": 16},
                       "adapter bottleneck 16 must be below dim 16"),
    "prompts=-1": ({"method": "vpt_deep", "prompts": -1}, "prompts must be at least 0, got -1"),
    **{f"init=bogus-{method}": ({"method": method, "init": "bogus"},
                                "unknown init 'bogus'; expected one of ('lora', 'normal')")
       for method in ("rlrr", "rankr_rlrr", "lora", "ssf", "vpt_deep")},
    "init=zero": ({"init": "zero"}, "init 'zero' is a saddle: with S_left = S_right = 0 neither "
                  "factor gets a gradient; use 'lora', the default"),
}


def assert_config_rejected(workspace, tmp_path, capsys, row, commands):
    """Each of `commands` rejects the config of `BAD_CONFIGS[row]` alike."""
    keys, message = BAD_CONFIGS[row]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config_with(**keys))
    backbone = ["--backbone", str(workspace / "backbone.ckpt")]
    adapter = str(workspace / "adapter.ckpt")
    flags = {
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
    for name in commands or flags:
        out = tmp_path / name
        out.mkdir()
        assert_rejected(capsys, [name.removesuffix("-adapter"), "--config", str(cfg),
                                 "--out", str(out), *flags[name]], out, 1, f"error: {message}")


@pytest.mark.parametrize("row", BAD_CONFIGS)
def test_every_command_rejects_a_bad_config_alike(workspace, tmp_path, capsys, row):
    assert_config_rejected(workspace, tmp_path, capsys, row, commands=None)


@pytest.mark.parametrize("row", ["epochs=0", "max_steps=-1", "max_steps=0", "warmup_epochs=-3"])
def test_train_rejects_a_schedule_that_runs_no_step(workspace, tmp_path, capsys, row):
    assert_config_rejected(workspace, tmp_path, capsys, row, commands=["train"])


@pytest.mark.parametrize("command", ["count-params", "pretrain-toy", "train"])
@pytest.mark.parametrize("row", ["patch=0", "heads=0"])
def test_a_zero_extent_exits_with_one_error_line(workspace, tmp_path, capsys, command, row):
    assert_config_rejected(workspace, tmp_path, capsys, row, commands=[command])


@pytest.mark.parametrize("command", ["count-params", "train"])
@pytest.mark.parametrize("row", ["rank=-2", "rank=0", "bottleneck=0", "prompts=-1",
                                 "lora_rank=dim", "bottleneck=dim"])
def test_count_params_rejects_what_train_rejects(workspace, tmp_path, capsys, command, row):
    assert_config_rejected(workspace, tmp_path, capsys, row, commands=[command])


@pytest.fixture(scope="module")
def one_layer_backbone(tmp_path_factory):
    """A backbone checkpoint that matches `config_with(layers=1)`."""
    path = tmp_path_factory.mktemp("sweep") / "backbone.ckpt"
    cfg = parse_config(config_with(layers=1))
    model = init_model(cfg.vit, seed=0, dtype=cfg.train.dtype)
    save_checkpoint({k: t.data for k, t in model.named_tensors().items()}, str(path))
    return path


@pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig) if f.init])
def test_any_value_of_any_key_exits_cleanly(one_layer_backbone, tmp_path, capsys, key):
    # every command validates the config alike, so count-params plus one command
    # that loads a checkpoint stand for all of them
    for value in ("0", "-1", "2.5", "abc"):
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text(config_with(**{"layers": 1, key: value}))
        for command in (["count-params"], ["eval", "--backbone", str(one_layer_backbone)]):
            out = tmp_path / f"{command[0]}{value}"
            out.mkdir()
            capsys.readouterr()
            code = run([*command, "--config", str(cfg), "--out", str(out)])
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (command, value, code)
            assert "Traceback" not in err, (command, value)
            if code:
                lines = err.splitlines()
                assert len(lines) == 1, (command, value, lines)
                assert lines[0].startswith(("error:", "I/O error:")), (command, value, lines)
                assert not list(out.iterdir()), (command, value)


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


MATRIX = np.ones((64, 8))


@pytest.mark.parametrize("before, after, slot, message", [
    pytest.param({"head.w": MATRIX}, {"head.w": MATRIX}, "l09.q",
                 "slot 'l09.q' not present in both checkpoints", id="absent"),
    # (64, 1) broadcasts against (64, 8), so subtracting first would report on it
    pytest.param({"head.w": MATRIX}, {"head.w": np.ones((64, 1))}, "head",
                 "slot 'head': shapes differ, (64, 8) before, (64, 1) after",
                 id="broadcast-shape"),
    pytest.param({"head.w": MATRIX}, {"head.w": np.full((64, 8), np.inf)}, "head",
                 "slot 'head': non-finite entries, (64, 8) before, (64, 8) after",
                 id="non-finite"),
    pytest.param({"l00.ln1.w": np.ones(16)}, {"l00.ln1.w": np.ones(16)}, "l00.ln1",
                 "slot 'l00.ln1': not a non-empty 2-D matrix, (16,) before, (16,) after",
                 id="1-D"),
    pytest.param({"head.w": np.ones((0, 4))}, {"head.w": np.ones((0, 4))}, "head",
                 "slot 'head': not a non-empty 2-D matrix, (0, 4) before, (0, 4) after",
                 id="empty"),
])
def test_analyze_rejects_a_bad_slot(tmp_path, capsys, before, after, slot, message):
    for name, tensors in (("before", before), ("after", after)):
        save_checkpoint(tensors, str(tmp_path / f"{name}.ckpt"))
    out = tmp_path / "out"
    out.mkdir()
    assert_rejected(capsys, ["analyze", "--before", str(tmp_path / "before.ckpt"),
                             "--after", str(tmp_path / "after.ckpt"), "--slot", slot,
                             "--out", str(out)], out, 1, f"error: {message}")


@pytest.mark.parametrize("argv, prefix", [
    pytest.param(["count-params", "--config", "{tmp}/absent.cfg", "--out", "{out}"],
                 "I/O error: [Errno 2] ", id="config-read"),
    pytest.param(["merge", "--config", "{ws}/exp.cfg", "--backbone", "{tmp}/absent.ckpt",
                  "--adapter", "{ws}/adapter.ckpt", "--out", "{out}"],
                 "I/O error: cannot read checkpoint {tmp}/absent.ckpt: ", id="checkpoint-read"),
    pytest.param(["merge", "--config", "{ws}/exp.cfg", "--backbone", "{ws}/backbone.ckpt",
                  "--adapter", "{ws}/adapter.ckpt", "--out", "{out}/absent"],
                 "I/O error: cannot write checkpoint {out}/absent/merged.ckpt: ",
                 id="checkpoint-write"),
])
def test_an_io_failure_exits_2_with_one_line(workspace, tmp_path, capsys, argv, prefix):
    out = tmp_path / "out"
    out.mkdir()
    paths = {"ws": workspace, "tmp": tmp_path, "out": out}
    assert_rejected(capsys, [a.format(**paths) for a in argv], out, 2, prefix.format(**paths))


def test_a_config_that_is_not_utf8_exits_with_one_line(tmp_path, capsys):
    # one Latin-1 byte in a comment: UTF-8 whatever the locale, and no traceback
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(CONFIG.encode() + b"# caf\xe9\n")
    out = tmp_path / "out"
    out.mkdir()
    assert_rejected(capsys, ["count-params", "--config", str(cfg), "--out", str(out)], out, 1,
                    f"error: {cfg}: line 12: not valid UTF-8")


def test_an_empty_out_writes_into_the_working_directory(workspace, tmp_path, monkeypatch):
    # `--out ""` names the working directory, as `os.path.join` reads it
    monkeypatch.chdir(tmp_path)
    saved = []
    original = cli.dataio.save_checkpoint

    def spy(tensors, path):
        saved.append(path)
        original(tensors, path)

    monkeypatch.setattr(cli.dataio, "save_checkpoint", spy)
    cfg = str(workspace / "exp.cfg")
    assert run(["pretrain-toy", "--config", cfg, "--out", ""]) == 0
    assert run(["eval", "--config", cfg, "--backbone", "backbone.ckpt", "--out", ""]) == 0
    assert saved == ["backbone.ckpt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["backbone.ckpt", "eval.csv"]
    # analyze writes its CSV only when given an --out, and "" is one
    analyze = ["analyze", "--before", "backbone.ckpt", "--after", "backbone.ckpt", "--slot", "l00.q"]
    assert run(analyze) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["backbone.ckpt", "eval.csv"]
    assert run([*analyze, "--out", ""]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["backbone.ckpt", "eval.csv", "spectral.csv"]


def test_a_plain_value_error_is_a_defect_and_propagates(workspace, monkeypatch):
    def broken(*args):
        raise ValueError("not one of peftlab's errors")

    monkeypatch.setattr(cli, "count_trainable", broken)
    with pytest.raises(ValueError, match="^not one of peftlab's errors$"):
        run(["count-params", "--config", str(workspace / "exp.cfg")])


def test_a_lapack_failure_exits_with_one_error_line(workspace, monkeypatch, capsys):
    def unconverged(*args):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(spectral, "spectral_perturbation_report", unconverged)
    backbone = str(workspace / "backbone.ckpt")
    capsys.readouterr()
    assert run(["analyze", "--before", backbone, "--after", backbone, "--slot", "l00.q"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: SVD did not converge\n")


@pytest.mark.parametrize("axes, message", [
    pytest.param("sideways", "unknown ablation axes ['sideways']; expected ('layers-prefix', "
                 "'module-subset', 'left-only', 'right-only', 'dual', 'residual-on', "
                 "'residual-off')", id="sideways"),
    *[pytest.param(axes, f"--axes {axes!r} selects no cell; it needs a scaling axis (dual, "
                   "left-only or right-only; residual-off takes dual)", id=axes)
      for axes in ("residual-off", "left-only,residual-off", "")],
])
def test_ablate_rejects_bad_axes(workspace, tmp_path, capsys, axes, message):
    # the backbone path does not exist: the axes are checked before it is read
    assert_rejected(capsys, ["ablate", "--config", str(workspace / "exp.cfg"),
                             "--backbone", str(tmp_path / "absent.ckpt"), "--axes", axes,
                             "--out", str(tmp_path)], tmp_path, 1, f"error: {message}")


# the size key each method reads, kept small; rlrr and ssf read none
SIZE_KEYS = {"rankr_rlrr": {"rank": 2}, "rlrr_no_residual": {"rank": 2}, "lora": {"rank": 2},
             "adapter": {"bottleneck": 2}, "vpt_shallow": {"prompts": 2},
             "vpt_deep": {"prompts": 2}}


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("method", METHODS)
def test_each_command_reads_what_the_one_before_it_wrote(tmp_path, capsys, method, precision):
    # pretrain-toy -> train -> eval -> count-params; a mergeable method then runs
    # merge -> eval of the merged backbone -> analyze of an adapted slot.  This
    # chain owns each command's smoke check: what it prints and the file it writes
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
                   "--slot", "l00.q", "--out", d]]
    printed = []
    for argv in chain:
        assert run(argv) == 0, (argv, capsys.readouterr().err)
        printed.append(capsys.readouterr().out)
    assert f"trained {method}" in printed[1]
    header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
    assert header == "epoch,lr,train_loss,train_acc,val_acc"
    assert "test accuracy" in printed[2] and (tmp_path / "eval.csv").exists()
    assert f"method: {method}" in printed[3] and "backbone total" in printed[3]
    if mergeable:
        # `eval --adapter` runs the merged backbone too, built by the same merge code
        assert logits_line(printed[2]) == logits_line(printed[5])
        merged, before = (load_checkpoint(f"{d}/{n}.ckpt") for n in ("merged", "backbone"))
        assert merged.keys() == before.keys()
        assert printed[6].startswith("slot l00.q:")
        lines = (tmp_path / "spectral.csv").read_text().splitlines()
        assert lines[0] == "index,sigma_before,sigma_after,alignment"
        assert len(lines) == 17  # header + one row per singular value of a 16 x 16 slot
