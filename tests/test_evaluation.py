"""Bipartite boundary matching and the precision/recall/F1 report."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddm.config import EvalConfig
from ddm.errors import ContractError, DataError
from ddm.evaluation import (Report, VideoOutcome, evaluate, format_csv,
                            format_table, match_count, precision_recall_f1)
from oracles import max_matching_ref

# ---------------------------------------------------------------------------
# matching


def test_match_count_inclusive_threshold_edge():
    # |5 - 0| / 100 == 0.05 exactly: the pair is allowed
    assert match_count((5,), (10,), 100, 0.05) == 1
    assert match_count((5,), (11,), 100, 0.05) == 0


def test_match_count_is_one_to_one():
    assert match_count((10, 10, 10), (10,), 100, 0.05) == 1
    assert match_count((10,), (10, 11, 12), 100, 0.05) == 1


def test_match_count_empty_sides():
    assert match_count((), (10,), 100, 0.5) == 0
    assert match_count((10,), (), 100, 0.5) == 0
    assert match_count((), (), 100, 0.5) == 0


def test_optimal_matching_beats_greedy_when_order_matters():
    # nearest-first greedy spends the flexible prediction on the shared
    # boundary and strands the second prediction
    preds, truths = (10, 12), (7, 11)
    assert match_count(preds, truths, 100, 0.04, "optimal") == 2
    assert match_count(preds, truths, 100, 0.04, "greedy") == 1


def test_greedy_matches_nearest_available():
    assert match_count((10, 12), (12, 13), 100, 0.02, "greedy") == 2


def test_match_count_rejects_unknown_method():
    with pytest.raises(ContractError):
        match_count((1,), (1,), 10, 0.5, "magic")
    with pytest.raises(ContractError):
        match_count((), (3,), 10, 0.5, "magic")
    for method in ("optimal", "greedy"):
        for preds, truths in (((1,), (1,)), ((), (1,)), ((), ())):
            with pytest.raises(ContractError):
                match_count(preds, truths, 0, 0.5, method)


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=200, deadline=None)
def test_optimal_match_count_equals_exhaustive_search(case_seed):
    rng = np.random.default_rng(case_seed)
    num_frames = int(rng.integers(20, 120))
    preds = sorted(int(x) for x in
                   rng.integers(0, num_frames, rng.integers(0, 7)))
    truths = sorted(int(x) for x in
                    rng.integers(1, num_frames, rng.integers(0, 7)))
    threshold = float(rng.choice(EvalConfig().thresholds))
    got = match_count(tuple(preds), tuple(truths), num_frames, threshold)
    assert got == max_matching_ref(preds, truths, num_frames, threshold)
    greedy = match_count(tuple(preds), tuple(truths), num_frames, threshold,
                         "greedy")
    assert greedy <= got


@given(st.lists(st.integers(0, 29), max_size=8),
       st.lists(st.integers(0, 29), max_size=8),
       st.sampled_from(EvalConfig().thresholds))
@settings(max_examples=100, deadline=None)
def test_optimal_match_count_unsorted_with_duplicates(preds, truths,
                                                      threshold):
    # positions from a narrow range repeat and arrive in any order
    assert match_count(tuple(preds), tuple(truths), 60, threshold) == \
        max_matching_ref(preds, truths, 60, threshold)


def test_optimal_match_count_scales_to_dense_videos():
    # 10 000 interleaved predictions and boundaries, every pair compatible
    preds = tuple(range(0, 20000, 2))
    truths = tuple(range(1, 20000, 2))
    assert match_count(preds[::-1], truths, 40000, 0.5) == 10000


def test_optimal_match_count_many_predictions_is_fast():
    # 1 500 predictions all compatible with 1 500 boundaries: deep enough
    # to exhaust the interpreter's stack in a recursive augmenting search
    rng = np.random.default_rng(0)
    preds = tuple(int(x) for x in rng.integers(0, 3000, 1500))
    truths = tuple(int(x) for x in rng.integers(0, 3000, 1500))
    start = time.perf_counter()
    assert match_count(preds, truths, 6000, 0.5) == 1500
    assert time.perf_counter() - start < 2.0


# ---------------------------------------------------------------------------
# scores


def test_precision_recall_f1_zero_conventions():
    assert precision_recall_f1(0, 0, 0) == (0.0, 0.0, 0.0)
    assert precision_recall_f1(0, 3, 0) == (0.0, 0.0, 0.0)
    assert precision_recall_f1(0, 0, 3) == (0.0, 0.0, 0.0)
    p, r, f1 = precision_recall_f1(2, 4, 2)
    assert (p, r) == (0.5, 1.0)
    assert f1 == pytest.approx(2 * 0.5 * 1.0 / 1.5)


TWO_VIDEOS = [
    VideoOutcome("a", 100, predictions=(21, 90), boundaries=(20, 60)),
    VideoOutcome("b", 50, predictions=(24,), boundaries=(25,)),
]


def test_evaluate_global_counts():
    report = evaluate(TWO_VIDEOS, EvalConfig())
    row = report.rows[0]
    assert row.threshold == 0.05
    # video a matches one of two, video b matches its only pair
    assert row.precision == pytest.approx(2 / 3)
    assert row.recall == pytest.approx(2 / 3)
    assert row.f1 == pytest.approx(2 / 3)


def test_evaluate_per_video_mean():
    report = evaluate(TWO_VIDEOS, EvalConfig(aggregation="per-video"))
    row = report.rows[0]
    assert row.precision == pytest.approx((0.5 + 1.0) / 2)
    assert row.recall == pytest.approx((0.5 + 1.0) / 2)
    assert row.f1 == pytest.approx((0.5 + 1.0) / 2)


def test_evaluate_average_row():
    report = evaluate(TWO_VIDEOS, EvalConfig())
    assert report.average.f1 == pytest.approx(
        np.mean([row.f1 for row in report.rows]))
    assert report.average.threshold == pytest.approx(
        np.mean(EvalConfig().thresholds))


def test_evaluate_has_ten_grid_rows():
    report = evaluate(TWO_VIDEOS, EvalConfig())
    assert [row.threshold for row in report.rows] == [
        pytest.approx((k + 1) / 20) for k in range(10)]
    assert set(report.f1_by_threshold) == set(EvalConfig().thresholds)


@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["global", "per-video"]),
       st.sampled_from(["optimal", "greedy"]))
@settings(max_examples=60, deadline=None)
def test_f1_never_decreases_with_threshold(case_seed, aggregation, matching):
    rng = np.random.default_rng(case_seed)
    outcomes = []
    for v in range(int(rng.integers(1, 4))):
        num_frames = int(rng.integers(30, 120))
        preds = tuple(sorted(int(x) for x in
                             rng.integers(0, num_frames, rng.integers(0, 6))))
        truths = tuple(sorted(set(
            int(x) for x in rng.integers(1, num_frames, rng.integers(0, 6)))))
        outcomes.append(VideoOutcome(f"v{v}", num_frames, preds, truths))
    report = evaluate(outcomes, EvalConfig(aggregation=aggregation,
                                           matching=matching))
    f1s = [row.f1 for row in report.rows]
    assert all(b >= a - 1e-12 for a, b in zip(f1s, f1s[1:]))


def test_evaluate_validation():
    with pytest.raises(ContractError):
        evaluate([], EvalConfig())
    with pytest.raises(DataError):
        evaluate([TWO_VIDEOS[0], TWO_VIDEOS[0]], EvalConfig())


# ---------------------------------------------------------------------------
# rendering


def test_format_table_layout():
    text = format_table(evaluate(TWO_VIDEOS, EvalConfig()))
    lines = text.strip().split("\n")
    assert len(lines) == 12  # header + 10 thresholds + average
    assert lines[0].split() == ["threshold", "precision", "recall", "f1"]
    assert lines[1].startswith("0.05")
    assert lines[-1].startswith("average")
    assert "0.6667" in lines[1]


def test_format_csv_round_trips_floats():
    report = evaluate(TWO_VIDEOS, EvalConfig())
    lines = format_csv(report).strip().split("\n")
    assert lines[0] == "threshold,precision,recall,f1"
    assert len(lines) == 12
    for line, row in zip(lines[1:], report.rows):
        thr, p, r, f1 = line.split(",")
        assert float(thr) == row.threshold
        assert float(p) == row.precision  # full precision survives the text
        assert float(r) == row.recall
        assert float(f1) == row.f1
    assert lines[-1].split(",")[0] == "average"


def test_report_is_frozen():
    report = evaluate(TWO_VIDEOS, EvalConfig())
    assert isinstance(report, Report)
    with pytest.raises(AttributeError):
        report.rows = ()
