"""Smoke tests: every example script runs to completion.

Keeps the documented examples from rotting as the library evolves; each
main() is executed in-process and its stdout sanity-checked.
"""

import importlib.util
import pathlib


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def _run_example(name, capsys):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run_example("quickstart", capsys)
    assert "speedup vs host" in out
    assert "verified: True" in out


def test_smart_camera(capsys):
    out = _run_example("smart_camera", capsys)
    assert "pipeline total" in out
    assert "frames/s" in out
    assert "verified: True" in out


def test_biosignal_classifier(capsys):
    out = _run_example("biosignal_classifier", capsys)
    assert out.count("best at host") == 3


def test_design_space_exploration(capsys):
    out = _run_example("design_space_exploration", capsys)
    assert "power budget sweep" in out
    assert "untying the SPI clock" in out
    assert "cluster size" in out
    assert "Pareto-best cluster" in out


def test_assembly_playground(capsys):
    out = _run_example("assembly_playground", capsys)
    assert "outputs equal = True" in out
    assert "cycles/element" in out


def test_node_designer(capsys):
    out = _run_example("node_designer", capsys)
    assert "library plan" in out
    assert "total" in out
