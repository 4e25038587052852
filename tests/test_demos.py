"""Every script under ``demos/`` runs to its end: in-process, with its
output captured, under the test configuration's ``RuntimeWarning``-as-error
filter."""

import pathlib
import runpy

import pytest

DEMOS = sorted(pathlib.Path(__file__).resolve().parent.parent.joinpath("demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(demo, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # a demo may write a figure where it runs
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
