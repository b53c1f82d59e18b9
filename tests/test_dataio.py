import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from peftlab.autodiff import Tensor
from peftlab.dataio import (
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigParseError,
    ExperimentConfig,
    bind_tensors,
    format_config,
    load_checkpoint,
    parse_config,
    save_checkpoint,
    upgrade_adapter_tensors,
    write_csv,
)
from peftlab.peft import MethodSpec, count_trainable
from peftlab.train import SyntheticTaskSpec, TrainingConfig
from peftlab.vit import ConfigError, ViTConfig


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "b.w": np.arange(6, dtype=np.float32).reshape(2, 3),
        "a.v": rng.normal(size=4).astype(np.float64),
        "deep.nested.name": rng.normal(size=(2, 2, 2)),
    }


def test_roundtrip_bitwise(tmp_path):
    path = str(tmp_path / "t.ckpt")
    tensors = sample_tensors()
    save_checkpoint(tensors, path)
    loaded = load_checkpoint(path)
    assert list(loaded) == sorted(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        assert loaded[name].shape == arr.shape
        assert arr.tobytes() == loaded[name].tobytes(), name


def test_roundtrip_scalar_and_noncontiguous(tmp_path):
    path = str(tmp_path / "t.ckpt")
    base = np.arange(12.0).reshape(3, 4)
    tensors = {"scalar": np.float64(3.5) * np.ones(()), "strided": base[:, ::2]}
    save_checkpoint(tensors, path)
    loaded = load_checkpoint(path)
    assert loaded["scalar"].shape == ()
    assert np.array_equal(loaded["strided"], base[:, ::2])


def test_save_rejects_integer_dtype(tmp_path):
    with pytest.raises(CheckpointFormatError):
        save_checkpoint({"x": np.arange(3)}, str(tmp_path / "t.ckpt"))


def test_truncation_detected(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(sample_tensors(), path)
    raw = Path(path).read_bytes()
    for cut in (0, 3, 8, 12, 20, len(raw) - 1):
        Path(path).write_bytes(raw[:cut])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


def test_bad_magic(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(sample_tensors(), path)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(b"NOTMYFMT" + raw[8:])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_future_version_rejected(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(sample_tensors(), path)
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:8] + struct.pack("<I", 99) + raw[12:])
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_trailing_garbage_rejected(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(sample_tensors(), path)
    with open(path, "ab") as f:
        f.write(b"\x00")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_bind_tensors_shape_mismatch(tmp_path):
    target = Tensor(np.zeros((2, 2)))
    with pytest.raises(CheckpointFormatError):
        bind_tensors({"x": np.zeros((3, 3))}, {"x": target})


def test_bind_tensors_missing_name():
    with pytest.raises(CheckpointFormatError):
        bind_tensors({}, {"x": Tensor(np.zeros(2))})


def test_bind_tensors_rejects_unused_name():
    target = Tensor(np.zeros(2))
    loaded = {"x": np.ones(2), "l01.q.w": np.ones(2), "l02.q.w": np.ones(2)}
    with pytest.raises(CheckpointFormatError, match="'l01.q.w'"):
        bind_tensors(loaded, {"x": target})
    assert np.array_equal(target.data, np.zeros(2))  # nothing was half-loaded


def test_bind_refuses_silent_narrowing():
    target = Tensor(np.zeros(2, dtype=np.float32))
    wide = np.ones(2, dtype=np.float64)
    with pytest.raises(CheckpointFormatError):
        bind_tensors({"x": wide}, {"x": target})


def test_config_defaults_and_overrides():
    cfg = parse_config("dim = 32\nlearning_rate = 0.5\n")
    assert cfg.dim == 32
    assert cfg.learning_rate == 0.5
    assert cfg.method == "rlrr"  # default


def test_config_comments_and_blank_lines():
    cfg = parse_config("# a comment\n\ndim = 32  # trailing comment\n")
    assert cfg.dim == 32


def test_config_parse_print_parse_fixpoint():
    cfg = parse_config("dim = 48\nmethod = lora\nrank = 2\nscale_left = false\n")
    text = format_config(cfg)
    assert format_config(parse_config(text)) == text


def test_config_collects_all_errors():
    bad = "dim = x\nbogus = 1\ndim = 3\nnot a pair\n"
    with pytest.raises(ConfigParseError) as exc:
        parse_config(bad)
    messages = "\n".join(exc.value.errors)
    assert len(exc.value.errors) == 4
    assert "line 1" in messages and "line 4" in messages
    assert "duplicate key 'dim'" in messages


def test_config_method_key_cross_validation():
    with pytest.raises(ConfigParseError) as exc:
        parse_config("method = ssf\nrank = 4\n")
    assert "rank" in exc.value.errors[0]
    parse_config("method = lora\nrank = 4\n")  # valid pairing


def test_file_defaults_are_the_record_defaults():
    cfg = ExperimentConfig()
    assert parse_config("") == cfg
    assert cfg.vit == ViTConfig()
    assert cfg.spec == MethodSpec()
    assert cfg.train == TrainingConfig()
    assert cfg.task == SyntheticTaskSpec()


@pytest.mark.parametrize("slots, kinds", [
    (None, ("q", "v")),  # LoRA's default attachment
    ("q,k,v,o,fc1,fc2", ("q", "k", "v", "o", "fc1", "fc2")),  # all six, as written
    ("", ()),  # an empty list adapts no matrix
])
def test_lora_matrix_slots_are_the_ones_set(slots, kinds):
    text = "method = lora\nlayers = 1\n" + ("" if slots is None else f"matrix_slots = {slots}\n")
    cfg = parse_config(text)
    assert tuple(count_trainable(cfg.spec, cfg.vit).items) == tuple(f"l00.{k}" for k in kinds)
    assert format_config(parse_config(format_config(cfg))) == format_config(cfg)


def test_replace_builds_and_checks_the_records_again():
    cfg = parse_config("dim = 16\nheads = 2\nmethod = lora\nrank = 2\n")
    assert replace(cfg, seed=5).train.seed == 5
    # the file's rank applies where the new method reads it, and a method that
    # does not read it ignores it instead of failing the parse-time key check
    assert replace(cfg, method="rankr_rlrr").spec.rank == 2
    assert replace(cfg, method="adapter").spec.method == "adapter"
    with pytest.raises(ConfigError, match="^epochs must be at least 1, got 0$"):
        replace(cfg, epochs=0)
    with pytest.raises(ConfigError, match="^lora rank 16 must be below min dim of slot l00.q$"):
        replace(cfg, rank=16)


def test_write_csv(tmp_path):
    path = str(tmp_path / "out.csv")
    write_csv(path, ["a", "b"], [[1, 2.5], ["x", -1]])
    text = Path(path).read_bytes().decode()  # no newline translation
    assert text == "a,b\n1,2.5\nx,-1\n"


def test_upgrade_adapter_tensors_maps_old_rlrr_layout():
    old = {"peft.rlrr.l00.q.s_left": np.arange(3.0), "peft.rlrr.l00.q.s_right": np.arange(2.0),
           "peft.rlrr.l00.q.f": np.zeros(2), "head.b": np.ones(2)}
    new = upgrade_adapter_tensors(old)
    assert sorted(new) == ["head.b", "peft.rlrr.l00.q.S_left", "peft.rlrr.l00.q.S_right",
                           "peft.rlrr.l00.q.f"]
    assert new["peft.rlrr.l00.q.S_left"].shape == (3, 1)
    assert new["peft.rlrr.l00.q.S_right"].shape == (1, 2)
    with pytest.raises(CheckpointFormatError, match="both the old and the new layout"):
        upgrade_adapter_tensors({**old, "peft.rlrr.l00.q.S_left": np.zeros((3, 1))})
