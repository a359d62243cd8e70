"""Difference maps: metric values, invariances, embedding."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddm import tensor as T
from ddm.config import ModelConfig
from ddm.diffmap import DiffMapEmbedding, pairwise_distances, raw_difference_maps
from ddm.errors import ConfigError
from ddm.feature_bank import FeatureExtractor, build_feature_bank

from oracles import check_gradients, pairwise_distances_ref

METRICS = ("euclidean", "manhattan", "chebyshev", "cosine")

TINY = ModelConfig(backbone_widths=(4, 6), width=6, dilations=(1, 2),
                   heads=2, queries=2, intra_layers=1, cross_layers=1)


def _bank(rng, b=1, t=5):
    fx = FeatureExtractor(TINY, rng)
    return build_feature_bank(fx, rng.random((b, t, 8, 8, 3)))


def frame_distance(a, b, metric="euclidean") -> T.Tensor:
    """Distance between two frame vectors, as a (1, 2, C) sequence's map."""
    return pairwise_distances([[a, b]], metric)[0, 0, 1]


def test_three_four_five_triangle():
    assert frame_distance([3.0, 4.0], [0.0, 0.0]).item() == 5.0
    assert frame_distance([3.0, 4.0], [0.0, 0.0], "manhattan").item() == 7.0
    assert frame_distance([3.0, 4.0], [0.0, 0.0], "chebyshev").item() == 4.0


def test_cosine_reference_angles():
    assert frame_distance([1.0, 0.0], [0.0, 2.0], "cosine").item() == pytest.approx(1.0)
    assert frame_distance([1.0, 1.0], [3.0, 3.0], "cosine").item() == pytest.approx(0.0)
    assert frame_distance([1.0, 0.0], [-2.0, 0.0], "cosine").item() == pytest.approx(2.0)


def test_cosine_zero_vector_conventions():
    zero = [0.0, 0.0]
    assert frame_distance(zero, zero, "cosine").item() == 0.0
    assert frame_distance(zero, [1.0, 2.0], "cosine").item() == 1.0
    assert frame_distance([1.0, 2.0], zero, "cosine").item() == 1.0


def test_cosine_zero_vector_gradient_is_zero():
    seq = T.parameter([[[0.0, 0.0], [1.0, 2.0], [3.0, -1.0]]])
    T.backward(pairwise_distances(seq, "cosine").sum())
    assert np.all(seq.grad[0, 0] == 0.0)  # the zero frame gets no gradient
    assert np.all(np.isfinite(seq.grad))
    assert np.any(seq.grad[0, 1:] != 0.0)


@pytest.mark.parametrize("metric", METRICS)
def test_pairwise_matches_loop_reference(metric):
    rng = np.random.default_rng(0)
    seq = rng.standard_normal((2, 6, 5))
    out = pairwise_distances(seq, metric).data
    for b in range(2):
        ref = pairwise_distances_ref(seq[b], metric)
        assert np.max(np.abs(out[b] - ref)) <= 1e-12


@pytest.mark.parametrize("metric", METRICS)
def test_diagonal_and_symmetry(metric):
    rng = np.random.default_rng(1)
    out = pairwise_distances(rng.standard_normal((3, 7, 4)), metric).data
    diag = np.abs(np.diagonal(out, axis1=1, axis2=2))
    sym = np.abs(out - np.transpose(out, (0, 2, 1)))
    if metric == "cosine":
        assert diag.max() <= 1e-9 and sym.max() <= 1e-9
    else:
        assert diag.max() == 0.0 and sym.max() == 0.0


def test_frame_swap_permutes_map_rows_and_columns():
    rng = np.random.default_rng(2)
    seq = rng.standard_normal((1, 6, 4))
    perm = np.array([0, 3, 2, 1, 4, 5])  # swap frames 1 and 3
    a = pairwise_distances(seq).data[0]
    b = pairwise_distances(seq[:, perm]).data[0]
    assert np.array_equal(b, a[np.ix_(perm, perm)])


def test_overlapping_windows_share_pair_values_bitwise():
    rng = np.random.default_rng(3)
    track = rng.standard_normal((1, 12, 5))
    first = pairwise_distances(track[:, 0:8]).data[0]
    second = pairwise_distances(track[:, 3:11]).data[0]
    # frames 3..7 appear in both windows at offsets -3 / 0
    for i in range(3, 8):
        for j in range(3, 8):
            assert first[i, j] == second[i - 3, j - 3]


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["euclidean", "manhattan",
                                                     "chebyshev"]))
def test_triangle_inequality_for_norm_metrics(seed, metric):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 3, 6))
    d = pairwise_distances(x, metric).data[0]
    assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-12


def test_unknown_metric_rejected():
    with pytest.raises(ConfigError, match="unknown metric"):
        pairwise_distances(np.zeros((1, 2, 2)), "hamming")


def test_raw_stack_order_and_shape():
    rng = np.random.default_rng(4)
    bank = _bank(rng)
    raw = raw_difference_maps(bank, "euclidean")
    assert raw.shape == (1, 5, 5, TINY.num_levels)
    for l, level in enumerate(bank.levels):
        expect = pairwise_distances(level.detach(), "euclidean").data
        assert np.array_equal(raw.data[0, ..., l], expect[0])


def test_embedding_shapes_and_channel_halving():
    rng = np.random.default_rng(5)
    emb = DiffMapEmbedding(TINY, rng)
    assert emb.params["embed/0/w"].shape == (3, 3, TINY.num_levels, 3)
    assert emb.params["embed/1/w"].shape == (3, 3, 3, 6)
    raw = T.Tensor(rng.random((2, 5, 5, TINY.num_levels)))
    out = emb.forward(raw)
    assert out.shape == (2, 5, 5, 6)


def test_zero_maps_embed_to_zero():
    rng = np.random.default_rng(6)
    emb = DiffMapEmbedding(TINY, rng)  # biases init to zero
    out = emb.forward(T.Tensor(np.zeros((1, 4, 4, TINY.num_levels))))
    assert np.all(out.data == 0.0)


@pytest.mark.parametrize("metric", METRICS)
def test_pairwise_gradients(metric):
    def make(rng):
        seq = T.parameter(rng.uniform(0.2, 1.0, (1, 4, 3)))
        probe = rng.standard_normal((1, 4, 4))
        return [seq], lambda: (pairwise_distances(seq, metric) * probe).sum()

    check_gradients(make, seeds=range(2))


def test_embedding_gradients():
    def make(rng):
        emb = DiffMapEmbedding(TINY, rng)
        raw = T.parameter(rng.random((1, 4, 4, TINY.num_levels)))
        probe = rng.standard_normal((1, 4, 4, 6))
        params = [raw, *emb.params.values()]
        return params, lambda: (emb.forward(raw) * probe).sum()

    check_gradients(make, seeds=range(2))


def test_pairwise_deterministic():
    rng = np.random.default_rng(7)
    seq = rng.standard_normal((2, 5, 4))
    a = pairwise_distances(seq, "cosine").data
    b = pairwise_distances(seq, "cosine").data
    assert a.tobytes() == b.tobytes()
