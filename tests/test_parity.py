"""`tools/parity.py`: its digests repeat within one process, and `--diff` names what moved."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)


def test_parity_digests_repeat_and_diff_names_what_moved(tmp_path, capsys):
    cases = ("rlrr", "vpt_deep", "full", "full-smoke")
    first = parity.library_digests(cases, ("f32", "f64"))
    assert parity.library_digests(cases, ("f32", "f64")) == first
    for part in ("/batch/loss", "/image/grad/", "/logits/image", "/merged/", "/train0.1/history"):
        assert any(part in key for key in first), part
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(first))
    b.write_text(json.dumps(first))
    assert parity.main(["--diff", str(a), str(b)]) == 0
    assert capsys.readouterr().out == f"0 of {len(first)} keys differ\n"
    moved = sorted(first)[0]
    b.write_text(json.dumps({**first, moved: "0" * 64, "lib/~extra": "0" * 64}))
    assert parity.main(["--diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"differs: {moved}", "only in B: lib/~extra", f"2 of {len(first) + 1} keys differ"]
