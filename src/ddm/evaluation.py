"""Boundary matching and precision/recall/F1 reporting.

A prediction p may match a ground-truth boundary g of an E-frame video
when their relative distance |p - g| / E is at most the threshold.  True
positives are counted with a maximum one-to-one matching, so no prediction
or boundary is used twice and the count is the best achievable.  The rule
makes the bipartite graph convex: in sorted order each prediction's
compatible boundaries form a contiguous run whose ends only move right as
the prediction grows, so one sorted two-pointer pass finds the maximum
(Glover 1967).  A greedy nearest-first variant is available for
comparison.  Scores are reported on the threshold grid 0.05, 0.10, ...,
0.50 plus their average, either micro-averaged over all videos (counts
pooled, the default) or macro-averaged (per-video scores averaged).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import MATCHINGS, EvalConfig
from .errors import ContractError, DataError

log = logging.getLogger("ddm.evaluation")


def match_count(preds, truths, num_frames: int, threshold: float,
                method: str = "optimal") -> int:
    """Number of matched prediction/boundary pairs; inputs may be unsorted."""
    if method not in MATCHINGS:
        raise ContractError(f"unknown matching method {method!r}")
    if num_frames < 1:
        raise ContractError("video has no frames")
    if method == "greedy":
        p = np.asarray(preds, dtype=np.float64).reshape(-1, 1)
        g = np.asarray(truths, dtype=np.float64).reshape(1, -1)
        gaps = np.abs(p - g)
        ok = gaps / num_frames <= threshold
        taken = np.zeros(g.shape[1], dtype=bool)
        count = 0
        for i in range(p.shape[0]):
            open_js = np.nonzero(ok[i] & ~taken)[0]
            if open_js.size:
                j = open_js[np.argmin(gaps[i, open_js])]
                taken[j] = True
                count += 1
        return count

    # Matching the two smallest unused positions whenever they are
    # compatible is exact; otherwise the smaller one is out of reach of
    # everything after it and is dropped.
    p, g = sorted(preds), sorted(truths)
    i = j = count = 0
    while i < len(p) and j < len(g):
        if abs(p[i] - g[j]) / num_frames <= threshold:
            count += 1
            i += 1
            j += 1
        elif p[i] < g[j]:
            i += 1
        else:
            j += 1
    return count


def precision_recall_f1(tp: int, n_pred: int, n_truth: int):
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_truth if n_truth else 0.0
    denom = precision + recall
    f1 = 2.0 * precision * recall / denom if denom else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class VideoOutcome:
    video_id: str
    num_frames: int
    predictions: tuple[int, ...]
    boundaries: tuple[int, ...]


@dataclass(frozen=True)
class ReportRow:
    threshold: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class Report:
    rows: tuple[ReportRow, ...]
    average: ReportRow  # threshold field holds the grid mean

    @property
    def f1_by_threshold(self) -> dict[float, float]:
        return {row.threshold: row.f1 for row in self.rows}


def evaluate(outcomes: list[VideoOutcome], cfg: EvalConfig) -> Report:
    if not outcomes:
        raise ContractError("nothing to evaluate")
    seen = set()
    for item in outcomes:
        if item.video_id in seen:
            raise DataError(f"duplicate video {item.video_id!r} in evaluation")
        seen.add(item.video_id)

    rows = []
    for threshold in cfg.thresholds:
        if cfg.aggregation == "global":
            tp = n_pred = n_truth = 0
            for item in outcomes:
                tp += match_count(item.predictions, item.boundaries,
                                  item.num_frames, threshold, cfg.matching)
                n_pred += len(item.predictions)
                n_truth += len(item.boundaries)
            p, r, f1 = precision_recall_f1(tp, n_pred, n_truth)
        else:
            per = np.array([
                precision_recall_f1(
                    match_count(item.predictions, item.boundaries,
                                item.num_frames, threshold, cfg.matching),
                    len(item.predictions), len(item.boundaries))
                for item in outcomes])
            p, r, f1 = (float(x) for x in per.mean(axis=0))
        rows.append(ReportRow(threshold, p, r, f1))

    average = ReportRow(
        float(np.mean([row.threshold for row in rows])),
        float(np.mean([row.precision for row in rows])),
        float(np.mean([row.recall for row in rows])),
        float(np.mean([row.f1 for row in rows])),
    )
    return Report(rows=tuple(rows), average=average)


def format_table(report: Report) -> str:
    lines = ["threshold  precision  recall     f1"]
    for row in report.rows:
        lines.append(f"{row.threshold:<9.2f}  {row.precision:<9.4f}  "
                     f"{row.recall:<9.4f}  {row.f1:.4f}")
    row = report.average
    lines.append(f"{'average':<9}  {row.precision:<9.4f}  "
                 f"{row.recall:<9.4f}  {row.f1:.4f}")
    return "\n".join(lines) + "\n"


def format_csv(report: Report) -> str:
    lines = ["threshold,precision,recall,f1"]
    for row in report.rows:
        lines.append(f"{row.threshold:.17g},{row.precision:.17g},"
                     f"{row.recall:.17g},{row.f1:.17g}")
    row = report.average
    lines.append(f"average,{row.precision:.17g},{row.recall:.17g},"
                 f"{row.f1:.17g}")
    return "\n".join(lines) + "\n"
