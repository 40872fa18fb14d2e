import importlib.util
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.25}
HIGHER = {"name": "rate", "better": "higher", "bound": 0.25}
ERR_REF = {"name": "err_ref", "better": "lower", "bound": 0.01}
RSS = {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}


def _side(median, q1, q3):
    return {"median": median, "q1": q1, "q3": q3, "runs": []}


@pytest.mark.parametrize("wins, change, gain", [
    (9, 2.5, True),    # 9 of 10 pairs and 1.0 apart, more than the parent's IQR 0.4
    (8, 2.5, False),   # too few pairs won
    (10, 3.3, False),  # 0.2 apart, inside the parent's IQR
])
def test_gain_needs_nine_wins_and_more_than_the_parents_iqr(wins, change, gain):
    parent = _side(3.5, 3.3, 3.7)
    v = bench_record.verdicts(LOWER, parent, _side(change, change, change), wins)
    assert v == {"gain": gain, "within_bound": True}


def test_a_round_off_move_is_no_gain():
    # BENCH_pr15.json's frozen-battery err_ref: all 10 pairs won, the parent's
    # IQR 0, and the medians 4.4e-13 apart relative
    parent = _side(1.84191581923585, 1.84191581923585, 1.84191581923585)
    change = _side(1.8419158192350313, 1.8419158192350313, 1.8419158192350313)
    assert bench_record.verdicts(ERR_REF, parent, change, 10)["gain"] is False
    # a tenth of the 1% bound is 0.00184 here
    assert bench_record.verdicts(ERR_REF, parent, _side(1.8402, 1.8402, 1.8402), 10)["gain"] is False
    assert bench_record.verdicts(ERR_REF, parent, _side(1.84, 1.84, 1.84), 10)["gain"] is True


def test_an_offset_between_exports_of_one_run_path_is_no_gain():
    # BENCH_pr32.json's frozen-battery peak_rss_mb, whose run path that change
    # did not touch: 10 of 10 pairs won, 0.09 MB apart against a parent IQR of
    # 0.012 MB, but below a tenth of the 5% bound (0.28 MB)
    parent = _side(56.515584000000004, 56.512512, 56.524288)
    change = _side(56.425472, 56.408576, 56.432128000000006)
    assert bench_record.verdicts(RSS, parent, change, 10) == {"gain": False, "within_bound": True}


def test_the_closure_holding_u_at_t_only_is_a_gain():
    # BENCH_pr33.json's mckean-closure peak_rss_mb, when the closure stopped
    # holding the whole mild field: 10 of 10 pairs won, 3.99 MB apart
    parent = _side(54.696960000000004, 54.6944, 54.706688)
    change = _side(50.70643200000001, 50.702848, 50.711552)
    assert bench_record.verdicts(RSS, parent, change, 10) == {"gain": True, "within_bound": True}


@pytest.mark.parametrize("metric, change, within", [
    (LOWER, 5.0, True), (LOWER, 5.01, False),    # bound 25% of the parent's 4.0
    (HIGHER, 3.0, True), (HIGHER, 2.99, False),  # a lower rate is the worse side
])
def test_within_bound_is_relative_to_the_parents_median(metric, change, within):
    v = bench_record.verdicts(metric, _side(4.0, 4.0, 4.0), _side(change, change, change), 0)
    assert v["within_bound"] is within
    assert v["gain"] is False


def test_a_pair_is_won_on_the_better_side_only():
    assert bench_record.better_by(LOWER, 3.0, 2.0) == 1.0
    assert bench_record.better_by(HIGHER, 3.0, 2.0) == -1.0
    assert bench_record.better_by(LOWER, 3.0, 3.0) == 0.0  # a tie wins nothing


def _csv(path, text):
    path.write_text(text)
    return path


def test_csv_diff_is_the_largest_numeric_difference(tmp_path):
    a = _csv(tmp_path / "a.csv", "seed,phi,u\n1,gauss,0.5\n1,x_gauss,-2.0\n")
    b = _csv(tmp_path / "b.csv", "seed,phi,u\n1,gauss,0.5000001\n1,x_gauss,-2.25\n")
    assert bench_record.csv_max_abs_diff(a, b) == 0.25
    assert bench_record.csv_max_abs_diff(a, a) == 0.0


@pytest.mark.parametrize("text", [
    "seed,phi,u\n1,gauss,0.5\n",                    # a row fewer
    "seed,phi,u\n1,gauss,0.5\n1,cos_gauss,-2.0\n",  # another text cell
])
def test_csv_diff_is_none_when_the_files_do_not_line_up(tmp_path, text):
    a = _csv(tmp_path / "a.csv", "seed,phi,u\n1,gauss,0.5\n1,x_gauss,-2.0\n")
    assert bench_record.csv_max_abs_diff(a, _csv(tmp_path / "b.csv", text)) is None


def test_csv_diffs_name_every_artifact(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    _csv(parent / "field.csv", "t,x1,u\n0,1,2\n")
    _csv(change / "field.csv", "t,x1,u\n0,1,2.5\n")
    _csv(change / "extra.csv", "t\n0\n")
    np.save(parent / "field.npy", np.array([[0.0, -1.0], [2.0, 3.0]]))
    np.save(change / "field.npy", np.array([[0.0, -1.25], [2.0, 3.0]]))
    np.save(parent / "mckean_field.npy", np.zeros((2, 2)))
    np.save(change / "mckean_field.npy", np.zeros((3, 2)))  # another shape
    np.save(parent / "gone.npy", np.zeros(1))
    assert bench_record.csv_diffs(parent, change) == {
        "extra.csv": None, "field.csv": 0.5, "field.npy": 0.25, "gone.npy": None,
        "mckean_field.npy": None}
