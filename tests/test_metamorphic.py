"""Metamorphic tests: the same data in another order gives the same report.

Each test runs ``fixtures/csv_config.json``, whose schema declares the
categories of both categorical variables, or a variant that declares
none for ``dev_type``, on the bundled CSV and on a transformed copy of
it, and compares the two reports (metamorphic relations in the sense of
Segura et al., *A Survey on Metamorphic Testing*, IEEE TSE 42(9),
2016).  Structure must match exactly: every key
and its order (so the ANOVA groups), every string, count and flag (so the
selected terms, the Tukey ``group_i``/``group_j`` pairs and their
``significant`` flags), and the model tree's text.  Floats may move by
summation order alone, so they are held to ``REL_BOUND``; the
recalibration's final gradient norm, rounding residue at an exact optimum,
is held to its start's norm instead.  Cross-validation and random splits
draw folds and splits by row position, and provenance names the data file,
so those sections are left out.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from defectcast import pipeline
from defectcast.dataset import listwise_complete
from defectcast.pipeline import load_config, run_pipeline
from defectcast.regression import ols_fit

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CONFIG = FIXTURES / "csv_config.json"
DATA = FIXTURES / "projects.csv"

# A reversed fixture moves no report number by more than a relative 1.7e-13
# (largest seen: resubstitution improvement_pct, a difference of two MMREs)
REL_BOUND = 1e-11
LEFT_OUT = ("cross_validation", "random_splits", "provenance")


def _fixture_rows() -> tuple[list[str], list[list[str]]]:
    with open(DATA, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    return header, rows


def _run(tmp_path: Path, name: str, header, rows, config: Path = CONFIG) -> tuple[dict, str]:
    """The report and tree.txt of a config, the fixture's by default, on the
    given table."""
    data = tmp_path / f"{name}.csv"
    with open(data, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle, lineterminator="\n").writerows([header, *rows])
    cfg = load_config(config, data_override=str(data), out_override=str(tmp_path / name))
    report = run_pipeline(cfg)
    tree = (tmp_path / name / "tree.txt").read_text(encoding="utf-8")
    return {k: v for k, v in report.items() if k not in LEFT_OUT}, tree


def assert_same_report(a, b, where=""):
    """Equal structure and leaves; floats equal to a relative REL_BOUND."""
    assert type(a) is type(b), where
    if isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            assert_same_report(a[key], b[key], f"{where}/{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same_report(x, y, f"{where}[{i}]")
    elif isinstance(a, float) and a != b:
        assert math.isfinite(a) and abs(a - b) <= REL_BOUND * max(abs(a), abs(b)), (
            f"{where}: {a!r} != {b!r}"
        )
    else:
        assert a == b, where


def _structure(report: dict) -> tuple:
    """The parts of a report that must match exactly, named."""
    pairs = {
        name: [(p["group_i"], p["group_j"], p["significant"]) for p in found]
        for name, found in report["group_screening"]["multiple_comparisons"].items()
    }
    terms = [t["variable"] for t in report["regression"]["selected_model"]["terms"]]
    return pairs, terms, report["model_tree"]["text"]


@pytest.fixture(scope="module")
def forward(tmp_path_factory):
    header, rows = _fixture_rows()
    return _run(tmp_path_factory.mktemp("forward"), "forward", header, rows)


def test_fixture_exercises_every_compared_part(forward):
    report, _ = forward
    pairs, terms, _ = _structure(report)
    assert set(pairs) == {"vaf"} and len(pairs["vaf"]) == 10
    assert terms == ["fp", "dev_type", "vaf"]


@pytest.mark.parametrize(
    "order", [[5, 0, 3, 1, 4, 2], [2, 4, 1, 5, 0, 3]], ids=["perm-a", "perm-b"]
)
def test_column_permutation_leaves_the_report(tmp_path, forward, order):
    header, rows = _fixture_rows()
    permuted = _run(
        tmp_path, "columns", [header[i] for i in order], [[r[i] for i in order] for r in rows]
    )
    assert _structure(permuted[0]) == _structure(forward[0])
    assert permuted[1] == forward[1]
    assert_same_report(permuted[0], forward[0])


def test_row_reversal_leaves_the_report(tmp_path, forward):
    # grouping by first appearance listed the vaf pairs in row order and
    # flipped the sign of their mean differences
    header, rows = _fixture_rows()
    reversed_ = _run(tmp_path, "reversed", header, rows[::-1])
    assert _structure(reversed_[0]) == _structure(forward[0])
    assert reversed_[1] == forward[1]
    assert_same_report(reversed_[0], forward[0])


def test_row_reversal_leaves_undeclared_categories(tmp_path):
    # dev_type without declared categories or its merge: its labels load
    # sorted, where first-seen order reordered its Tukey pairs, flipped
    # their mean differences and moved its catreg quantifications
    config = json.loads(CONFIG.read_text(encoding="utf-8"))
    dev_type = next(entry for entry in config["schema"] if entry["name"] == "dev_type")
    del dev_type["categories"], config["merges"]
    path = tmp_path / "undeclared.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    header, rows = _fixture_rows()
    forward = _run(tmp_path, "forward", header, rows, path)
    reversed_ = _run(tmp_path, "reversed", header, rows[::-1], path)
    assert len(_structure(forward[0])[0]["dev_type"]) == 3
    assert _structure(reversed_[0]) == _structure(forward[0])
    assert reversed_[1] == forward[1]
    assert_same_report(reversed_[0], forward[0])


def test_selected_model_is_the_included_set_in_candidate_order(tmp_path):
    cfg = load_config(CONFIG, data_override=str(DATA), out_override=str(tmp_path))
    run = pipeline._Run(cfg)
    fit = pipeline._fit_models(run)
    included = fit.stepwise_section["included"]
    in_order = [name for name in cfg.candidates if name in included]
    assert included != in_order  # the entry path is not the candidate order
    rows = listwise_complete(pipeline._prepared_dataset(run), [cfg.response, *cfg.candidates])
    want = ols_fit(
        rows, cfg.response, in_order, fit.codings,
        response_transform=pipeline._response_transform(run),
    )
    assert fit.selected == want
    assert fit.selected.to_dict() == want.to_dict()
