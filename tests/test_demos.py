"""Smoke tests of the demos: each ``demos/*.py`` ``main()`` runs in this
process through the public API and prints a line the demo states."""

import importlib.util
import tempfile
from pathlib import Path

DEMOS = Path(__file__).parent.parent / "demos"
KINDS = ["zero", "constant", "linear", "reg_linear", "regression"]


def run_demo(name, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}",
                                                  DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out.splitlines()


def test_every_demo_is_tested():
    tested = {"two_routes", "oscillation", "predictor_sweep", "sioux_falls"}
    assert {p.stem for p in DEMOS.glob("*.py")} == tested


def test_two_routes_demo(capsys):
    lines = run_demo("two_routes", capsys)
    assert any("average travel time: 3.000000" in line for line in lines)


def test_oscillation_demo(capsys):
    lines = run_demo("oscillation", capsys)
    assert "short-edge queue at t=1: 1.000000000000" in lines


def test_predictor_sweep_demo(capsys):
    header, first = run_demo("predictor_sweep", capsys)[:2]
    assert header.split() == ["inflow"] + KINDS
    # at inflow 2 no queue forms, so every predictor takes 3
    assert first.split() == ["2.00"] + ["3.0000"] * len(KINDS)


def test_sioux_falls_demo(capsys, monkeypatch, tmp_path):
    # the demo writes its model to a fresh temporary directory
    monkeypatch.setattr(tempfile, "mkdtemp", lambda: str(tmp_path))
    lines = run_demo("sioux_falls", capsys)
    rows = lines[lines.index(f"{'predictor':>12} {'avg travel time':>16}")
                 + 1:]
    assert [row.split()[0] for row in rows] == KINDS
    for row in rows:
        assert float(row.split()[1]) > 0.0
    assert (tmp_path / "sioux_model.json").is_file()

