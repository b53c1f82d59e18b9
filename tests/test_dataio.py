import struct

import numpy as np
import pytest

from peftlab.autodiff import Tensor
from peftlab.dataio import (
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigParseError,
    bind_tensors,
    format_config,
    load_checkpoint,
    parse_config,
    save_checkpoint,
    write_csv,
)


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
    raw = open(path, "rb").read()
    for cut in (0, 3, 8, 12, 20, len(raw) - 1):
        open(path, "wb").write(raw[:cut])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)


def test_bad_magic(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(sample_tensors(), path)
    raw = open(path, "rb").read()
    open(path, "wb").write(b"NOTMYFMT" + raw[8:])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_future_version_rejected(tmp_path):
    path = str(tmp_path / "t.ckpt")
    save_checkpoint(sample_tensors(), path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:8] + struct.pack("<I", 99) + raw[12:])
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


def test_write_csv(tmp_path):
    path = str(tmp_path / "out.csv")
    write_csv(path, ["a", "b"], [[1, 2.5], ["x", -1]])
    text = open(path, newline="").read()
    assert text == "a,b\n1,2.5\nx,-1\n"
