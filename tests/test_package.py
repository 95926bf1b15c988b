"""The package surface: one list of public names per module."""

import tgd
from tgd import core, estimate, moments, oracle, sampling
from tgd.cli import main

MODULES = (core, estimate, moments, oracle, sampling)


def test_all_is_the_modules_lists():
    assert tgd.__all__ == [n for m in MODULES for n in m.__all__] + ["__version__"]
    assert len(set(tgd.__all__)) == len(tgd.__all__)


def test_each_name_is_its_modules_object():
    for m in MODULES:
        for name in m.__all__:
            assert getattr(tgd, name) is getattr(m, name), name


def _invalid_choice(names):
    # argparse lists the choices by repr() or, on newer Pythons, by str()
    return {
        f"error: usage: argument --method: invalid choice: 'bogus' (choose from {', '.join(shown)})\n"
        for shown in (map(repr, names), names)
    }


def test_fit_method_choices_in_enum_order(capsys, tmp_path):
    assert main(["fit", "--input", str(tmp_path / "x"), "--method", "bogus"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err in _invalid_choice(("proportions", "quantiles", "moments", "mle"))


def test_sample_method_choices_in_enum_order(capsys):
    argv = ["sample", "--q", "0.5", "--alpha", "0", "--n", "3", "--seed", "1", "--method", "bogus"]
    assert main(argv) == 1
    assert capsys.readouterr().err in _invalid_choice(("inverse", "bridge"))
