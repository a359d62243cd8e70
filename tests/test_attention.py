"""Attention blocks: squeeze exactness, row sums, references, gradients."""

import numpy as np
import pytest

from ddm import tensor as T
from ddm.attention import (CoAttention, DecoderLayer, MapSqueeze,
                           MultiHeadAttention, QueryDecoder,
                           sinusoidal_positions)
from ddm.config import ModelConfig
from ddm.errors import DimensionError

from oracles import check_gradients, layer_norm_ref, mha_ref

CFG = ModelConfig(backbone_widths=(6,), width=6, dilations=(1,), heads=2,
                  queries=3, intra_layers=1, cross_layers=1)
CFG4 = ModelConfig(backbone_widths=(4,), width=4, dilations=(1,), heads=2,
                   queries=2, intra_layers=1, cross_layers=1)


# -- sinusoidal positions ---------------------------------------------------


def test_sinusoidal_first_row_and_range():
    p = sinusoidal_positions(7, 8)
    assert p.shape == (7, 8)
    assert np.array_equal(p[0], np.array([0.0, 1.0] * 4))
    assert np.all(np.abs(p) <= 1.0)


def test_sinusoidal_rows_distinct():
    p = sinusoidal_positions(16, 6)
    assert len({row.tobytes() for row in p}) == 16


# -- map squeeze ------------------------------------------------------------


def test_squeeze_shapes_and_row_sums():
    rng = np.random.default_rng(0)
    sq = MapSqueeze(CFG, rng)
    a = T.Tensor(rng.standard_normal((2, 5, 6)))
    m = T.Tensor(rng.standard_normal((2, 5, 5, 6)))
    collect = []
    out = sq.forward(a, m, collect)
    assert out.shape == (2, 5, 6)
    (gamma,) = collect
    assert gamma.shape == (2, 5, 5)
    assert np.max(np.abs(gamma.sum(axis=-1) - 1.0)) <= 1e-9
    assert np.all(gamma >= 0.0)


def test_zero_squeeze_projection_is_exactly_the_temporal_mean():
    rng = np.random.default_rng(1)
    sq = MapSqueeze(CFG, rng)
    sq.params["squeeze/wmu"].data = np.zeros((6, 1))
    a = T.Tensor(rng.standard_normal((3, 7, 6)))
    m = T.Tensor(rng.standard_normal((3, 7, 7, 6)))
    out = sq.forward(a, m)
    assert np.array_equal(out.data, m.data.mean(axis=2))  # bit-exact


def test_squeeze_single_frame_is_identity_row():
    rng = np.random.default_rng(2)
    sq = MapSqueeze(CFG, rng)
    a = T.Tensor(rng.standard_normal((1, 1, 6)))
    m = T.Tensor(rng.standard_normal((1, 1, 1, 6)))
    out = sq.forward(a, m)
    assert np.array_equal(out.data, m.data[:, :, 0, :])


def test_squeeze_shape_mismatch_rejected():
    rng = np.random.default_rng(3)
    sq = MapSqueeze(CFG, rng)
    with pytest.raises(DimensionError):
        sq.forward(T.Tensor(np.zeros((1, 4, 6))), T.Tensor(np.zeros((1, 5, 5, 6))))


def test_squeeze_gradients():
    def make(rng):
        sq = MapSqueeze(CFG, rng)
        a = T.parameter(rng.standard_normal((1, 4, 6)))
        m = T.parameter(rng.standard_normal((1, 4, 4, 6)))
        probe = rng.standard_normal((1, 4, 6))
        params = [a, m, *sq.params.values()]
        return params, lambda: (sq.forward(a, m) * probe).sum()

    check_gradients(make, seeds=range(2))


# -- multi-head attention ---------------------------------------------------


def test_mha_matches_scalar_reference():
    rng = np.random.default_rng(4)
    mha = MultiHeadAttention("t", CFG, rng)
    q = rng.standard_normal((1, 3, 6))
    k = rng.standard_normal((1, 5, 6))
    v = rng.standard_normal((1, 5, 6))
    out = mha.forward(T.Tensor(q), T.Tensor(k), T.Tensor(v)).data
    ref = mha_ref(q[0], k[0], v[0],
                  mha.params["t/wq"].data, mha.params["t/wk"].data,
                  mha.params["t/wv"].data, mha.params["t/wo"].data, heads=2)
    assert np.max(np.abs(out[0] - ref)) <= 1e-9


def test_mha_attention_rows_sum_to_one():
    rng = np.random.default_rng(5)
    mha = MultiHeadAttention("t", CFG, rng)
    x = T.Tensor(rng.standard_normal((2, 4, 6)))
    collect = []
    mha.forward(x, x, x, collect)
    (attn,) = collect
    assert attn.shape == (2, 2, 4, 4)
    assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) <= 1e-9


def test_mha_single_key_weight_is_exactly_one():
    rng = np.random.default_rng(6)
    mha = MultiHeadAttention("t", CFG, rng)
    q = T.Tensor(rng.standard_normal((1, 3, 6)))
    kv = T.Tensor(rng.standard_normal((1, 1, 6)))
    collect = []
    mha.forward(q, kv, kv, collect)
    assert np.all(collect[0] == 1.0)


def test_mha_broadcast_queries_match_per_batch_evaluation():
    rng = np.random.default_rng(7)
    mha = MultiHeadAttention("t", CFG, rng)
    q = T.Tensor(rng.standard_normal((1, 3, 6)))
    k = T.Tensor(rng.standard_normal((4, 5, 6)))
    batched = mha.forward(q, k, k).data
    for b in range(4):
        single = mha.forward(q, k[b:b + 1], k[b:b + 1]).data
        assert np.max(np.abs(batched[b] - single[0])) <= 1e-12


def test_mha_gradients():
    def make(rng):
        mha = MultiHeadAttention("t", CFG, rng)
        q = T.parameter(rng.standard_normal((1, 2, 6)))
        k = T.parameter(rng.standard_normal((1, 4, 6)))
        v = T.parameter(rng.standard_normal((1, 4, 6)))
        probe = rng.standard_normal((1, 2, 6))
        params = [q, k, v, *mha.params.values()]
        return params, lambda: (mha.forward(q, k, v) * probe).sum()

    check_gradients(make, seeds=range(2))


# -- decoder layer ----------------------------------------------------------


def test_decoder_layer_zero_weights_reduce_to_norm_chain():
    rng = np.random.default_rng(8)
    layer = DecoderLayer("d", CFG, rng)
    layer.self_attn.params["d/self/wo"].data = np.zeros((6, 6))
    layer.cross_attn.params["d/cross/wo"].data = np.zeros((6, 6))
    layer.params["d/ffn/w2"].data = np.zeros((12, 6))
    q = rng.standard_normal((2, 3, 6))
    k = rng.standard_normal((2, 5, 6))
    out = layer.forward(T.Tensor(q), T.Tensor(k), T.Tensor(k)).data
    p = layer.params
    ref = q
    for i in (1, 2, 3):
        ref = layer_norm_ref(ref, p[f"d/ln{i}/g"].data, p[f"d/ln{i}/b"].data,
                             eps=1e-6)
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_decoder_layer_preserves_query_shape():
    rng = np.random.default_rng(9)
    layer = DecoderLayer("d", CFG, rng)
    q = T.Tensor(rng.standard_normal((1, 3, 6)))
    k = T.Tensor(rng.standard_normal((4, 6, 6)))
    assert layer.forward(q, k, k).shape == (4, 3, 6)


def test_decoder_layer_gradients():
    def make(rng):
        layer = DecoderLayer("d", CFG4, rng)
        q = T.parameter(rng.standard_normal((1, 2, 4)))
        k = T.parameter(rng.standard_normal((1, 3, 4)))
        probe = rng.standard_normal((1, 2, 4))
        params = [q, k, *layer.named_params().values()]
        return params, lambda: (layer.forward(q, k, k) * probe).sum()

    check_gradients(make, seeds=range(2))


# -- query decoder ----------------------------------------------------------


def test_query_decoder_output_shape_and_collect_count():
    rng = np.random.default_rng(10)
    dec = QueryDecoder("qa", CFG, rng, layers=2)
    seq = T.Tensor(rng.standard_normal((3, 8, 6)))
    collect = []
    out = dec.forward(seq, collect=collect)
    assert out.shape == (3, CFG.queries, 6)
    assert len(collect) == 4  # self + cross per layer


def test_query_decoder_time_permutation_invariance_without_positions():
    # a decoder layer attends over keys that carry no positions, so
    # reordering the frames leaves its output unchanged
    rng = np.random.default_rng(11)
    layer = DecoderLayer("qa", CFG, rng)
    q = T.Tensor(rng.standard_normal((1, CFG.queries, 6)))
    seq = rng.standard_normal((1, 8, 6))
    perm = rng.permutation(8)
    a = layer.forward(q, T.Tensor(seq), T.Tensor(seq)).data
    b = layer.forward(q, T.Tensor(seq[:, perm]), T.Tensor(seq[:, perm])).data
    assert np.max(np.abs(a - b)) <= 1e-9


def test_query_decoder_positions_break_permutation_invariance():
    rng = np.random.default_rng(12)
    dec = QueryDecoder("qa", CFG, rng, layers=1)
    seq = rng.standard_normal((1, 8, 6))
    perm = np.roll(np.arange(8), 1)
    a = dec.forward(T.Tensor(seq)).data
    b = dec.forward(T.Tensor(seq[:, perm])).data
    assert np.max(np.abs(a - b)) > 1e-6


def test_query_decoder_gradients():
    def make(rng):
        dec = QueryDecoder("qa", CFG4, rng, layers=1)
        seq = T.parameter(rng.standard_normal((1, 3, 4)))
        probe = rng.standard_normal((1, 2, 4))
        params = [seq, *dec.named_params().values()]
        return params, lambda: (dec.forward(seq) * probe).sum()

    check_gradients(make, seeds=range(2))


# -- co-attention -----------------------------------------------------------


def test_co_attention_output_shapes_and_distinct_streams():
    rng = np.random.default_rng(13)
    co = CoAttention(CFG, rng, layers=2)
    qa = T.Tensor(rng.standard_normal((2, 3, 6)))
    qd = T.Tensor(rng.standard_normal((2, 3, 6)))
    a, m = co.forward(qa, qd)
    assert a.shape == m.shape == (2, 3, 6)
    assert np.max(np.abs(a.data - m.data)) > 1e-6


def test_co_attention_single_query_weights_are_one():
    cfg = ModelConfig(backbone_widths=(6,), width=6, dilations=(1,), heads=2,
                      queries=1, intra_layers=1, cross_layers=1)
    rng = np.random.default_rng(14)
    co = CoAttention(cfg, rng, layers=1)
    qa = T.Tensor(rng.standard_normal((1, 1, 6)))
    qd = T.Tensor(rng.standard_normal((1, 1, 6)))
    collect = []
    co.forward(qa, qd, collect)
    assert len(collect) == 4
    for attn in collect:
        assert np.all(attn == 1.0)


def test_co_attention_gradients():
    def make(rng):
        co = CoAttention(CFG4, rng, layers=1)
        qa = T.parameter(rng.standard_normal((1, 2, 4)))
        qd = T.parameter(rng.standard_normal((1, 2, 4)))
        probe = rng.standard_normal((1, 2, 4))
        params = [qa, qd, *co.named_params().values()]

        def forward():
            a, m = co.forward(qa, qd)
            return ((a + m) * probe).sum()

        return params, forward

    check_gradients(make, seeds=range(2))
