"""`tools/mutants.py`: every catalogue entry still applies to this checkout."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_anchor_occurs_once_and_changes_its_file():
    # a refactor that moves an anchor updates its entry in the same change
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for name, file, anchor, replacement in mutants.MUTANTS:
        text = (ROOT / file).read_text()
        assert text.count(anchor) == 1, (name, file, text.count(anchor))
        assert replacement != anchor, name
