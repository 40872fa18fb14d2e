"""scripts/mutants.py runs too long for tier-1; this checks that its list
still applies to the tree, so a refactor that moves a mutated line fails here."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_every_mutant_applies_and_names_live_tests(mutant):
    mutants.check_applies(mutant)
    assert mutant.new != mutant.old and mutant.tests
    for test in mutant.tests:
        path, *names = test.split("::")
        assert f"def {names[-1]}(" in (ROOT / path).read_text(), test


def test_a_mutant_whose_text_is_gone_fails_loudly(tmp_path):
    (tmp_path / "mod.py").write_text("x = 1\nx = 1\n")
    for old in ("y = 2", "x = 1"):  # missing, then repeated
        with pytest.raises(ValueError, match="not once"):
            mutants.check_applies(mutants.Mutant("m", "mod.py", old, "x = 3", ("t",)), tmp_path)


def test_failures_are_read_per_test_and_parameter_case():
    out = "FAILED tests/t.py::test_a[1-2] - AssertionError\nFAILED tests/t.py::test_b\n"
    assert mutants._failed(out, "tests/t.py::test_a")
    assert mutants._failed(out, "tests/t.py::test_b")
    assert not mutants._failed(out, "tests/t.py::test_ab")
    assert not mutants._failed(out, "tests/t.py::test_c")
