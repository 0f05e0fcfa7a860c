"""The paper's claims, checked on every row of the experiment table.

One test per row of ``benchmarks/paper.py``: it asserts each claim,
then that the rendered table equals the committed
``benchmarks/results/<output>.txt`` byte for byte and that EXPERIMENTS.md
carries the row's current block.  Select rows with ``-k``, e.g.
``-k fig7``.  All rows share one memoised runner.
"""

import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
import paper  # noqa: E402


@pytest.fixture(scope="module")
def runner():
    return paper.Runner()


@pytest.mark.parametrize("experiment", paper.EXPERIMENTS, ids=lambda e: e.id)
def test_paper_row(experiment, runner):
    rows = experiment.build(runner)
    assert experiment.violations(rows) == []
    committed = paper.RESULTS / f"{experiment.output}.txt"
    assert experiment.render(rows) == committed.read_text()
    assert experiment.block(rows) in paper.EXPERIMENTS_MD.read_text()
