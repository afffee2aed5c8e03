"""Each demo runs to completion as a script, and README's library example
runs and gives the values its comments state."""

from fractions import Fraction
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_library_block_states_its_values():
    section = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(block, names)
    stated = {
        "report.value": Fraction(92, 47),
        "reports[1, 9] == report": True,
        "min_resistance(9)": (Fraction(442, 987), ((4, 5), (5, 6))),
    }
    for expr, value in stated.items():
        assert expr in block
        assert eval(expr, names) == value
    expr = "render_ranking(rank_nonedges(9))"
    assert expr in block
    assert eval(expr, names).startswith("{3,6} & {4,7}, {2,5} & {5,8}, ")
