"""Workload inputs depend on the seed alone; the checks' own references."""

import itertools

import numpy as np
import pytest

import workloads as wl
from ddm import evaluation, synth


def _same_videos(a, b):
    return len(a) == len(b) and all(
        x.video_id == y.video_id and x.boundaries == y.boundaries
        and np.array_equal(x.frames, y.frames) for x, y in zip(a, b))


@pytest.mark.parametrize("make", [wl.desk_config, wl.paper_config])
def test_training_corpus_is_deterministic(make):
    first = synth.generate_dataset(make(5).gen)
    assert len(first) == 64
    assert _same_videos(first, synth.generate_dataset(make(5).gen))
    assert not _same_videos(first, synth.generate_dataset(make(6).gen))


def test_infer_videos_are_deterministic_and_cross_the_batch_edge():
    first = wl.infer_videos(3)
    assert _same_videos(first, wl.infer_videos(3))
    assert not _same_videos(first, wl.infer_videos(4))
    assert [v.num_frames for v in first] == list(wl.INFER_LENGTHS)
    positions = [len(range(0, v.num_frames, 3)) for v in first]
    assert min(positions) <= 64 < max(positions)


def test_dense_outcomes_are_deterministic_and_dense():
    first = wl.dense_outcomes(7)
    assert first == wl.dense_outcomes(7)
    assert first != wl.dense_outcomes(8)
    assert len(first) == wl.DENSE_VIDEOS
    for item in first:
        assert item.num_frames == wl.DENSE_FRAMES
        assert len(item.boundaries) == wl.DENSE_BOUNDARIES
        assert len(item.predictions) == wl.DENSE_PREDICTIONS
        assert list(item.predictions) == sorted(set(item.predictions))


def _brute_force(preds, truths, num_frames, threshold):
    """Largest set of disjoint compatible pairs, by trying every subset."""
    pairs = [(i, j) for i, p in enumerate(preds) for j, g in enumerate(truths)
             if abs(p - g) / num_frames <= threshold]
    for size in range(min(len(preds), len(truths)), 0, -1):
        for chosen in itertools.combinations(pairs, size):
            if len({i for i, _ in chosen}) == len({j for _, j in chosen}) == size:
                return size
    return 0


def test_exact_matcher_agrees_with_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(60):
        preds = sorted(rng.choice(60, rng.integers(0, 6), replace=False))
        truths = sorted(rng.choice(60, rng.integers(0, 6), replace=False))
        threshold = float(rng.choice([0.05, 0.1, 0.3, 1.0]))
        expected = _brute_force(preds, truths, 60, threshold)
        assert wl.exact_match_count(preds, truths, 60, threshold) == expected
        assert evaluation.match_count(preds, truths, 60, threshold) == expected


def test_tail_is_above_the_median():
    values = list(range(1, 41))
    assert wl.tail(values) == (30, 75.0, 40)
    assert wl.tail([3.0, 1.0, 2.0, 4.0]) == (3.0, 75.0, 4)
    assert wl.tail([3.0, 1.0, 2.0]) == (2.0, 200.0 / 3, 3)
