"""Composed model: ablation wiring, determinism, gradients."""

import numpy as np
import pytest
from dataclasses import replace

from ddm import tensor as T
from ddm.config import METRICS, ModelConfig
from ddm.model import BoundaryModel

from oracles import check_gradients

TINY = ModelConfig(backbone_widths=(4, 6), width=6, dilations=(1, 2),
                   heads=2, queries=2, intra_layers=1, cross_layers=1)
MINI = ModelConfig(backbone_widths=(4,), width=4, dilations=(1,),
                   heads=2, queries=2, intra_layers=1, cross_layers=1)


def _clips(rng, b=2, t=5, hw=8):
    return rng.random((b, t, hw, hw, 3))


def test_forward_shapes_full_mode():
    rng = np.random.default_rng(0)
    model = BoundaryModel(TINY, seed=1)
    out = model.forward(_clips(rng))
    assert out.fused.shape == out.app.shape == out.map.shape == (2,)
    assert np.all((out.fused.data > 0) & (out.fused.data < 1))
    assert 0.0 < out.alpha < 1.0


def test_forward_is_backbone_then_forward_sequences():
    rng = np.random.default_rng(4)
    clips = _clips(rng)
    model = BoundaryModel(TINY, seed=1)
    whole = model.forward(clips)
    split = model.forward_sequences(model.extractor.spatial_sequences(clips))
    assert whole.fused.data.tobytes() == split.fused.data.tobytes()
    assert whole.app.data.tobytes() == split.app.data.tobytes()
    assert whole.map.data.tobytes() == split.map.data.tobytes()


@pytest.mark.parametrize("mode,has_app,has_map,alpha", [
    ("rgb-only", True, False, 1.0),
    ("ddm-only", False, True, 0.0),
    ("avg-pool", True, True, None),
    ("intra-only", True, True, None),
    ("cross-only", True, True, None),
])
def test_ablation_output_structure(mode, has_app, has_map, alpha):
    rng = np.random.default_rng(1)
    model = BoundaryModel(replace(TINY, ablate=mode), seed=1)
    out = model.forward(_clips(rng))
    assert (out.app is not None) == has_app
    assert (out.map is not None) == has_map
    if alpha is not None:
        assert out.alpha == alpha
    loss = model.loss(out, np.array([1.0, 0.0]))
    assert np.isfinite(loss.item())


def test_rgb_only_ignores_map_branch_parameters():
    rng = np.random.default_rng(2)
    clips = _clips(rng)
    model = BoundaryModel(replace(TINY, ablate="rgb-only"), seed=3)
    before = model.forward(clips).fused.data
    for name, p in model.named_params().items():
        if name.split("/")[0] in ("embed", "squeeze", "intra_map", "co_map",
                                  "co_app") or name.startswith("head/map"):
            p.data = p.data + 7.0  # sabotage everything map-flavoured
    after = model.forward(clips).fused.data
    assert np.array_equal(before, after)


def test_rgb_only_fused_equals_appearance_stream():
    rng = np.random.default_rng(3)
    model = BoundaryModel(replace(TINY, ablate="rgb-only"), seed=3)
    out = model.forward(_clips(rng))
    assert np.array_equal(out.fused.data, out.app.data)


def test_same_seed_same_parameters_any_ablation():
    base = BoundaryModel(TINY, seed=11).state()
    other = BoundaryModel(replace(TINY, ablate="rgb-only"), seed=11).state()
    assert list(base) == list(other)
    for name in base:
        assert base[name].tobytes() == other[name].tobytes()


def test_forward_is_deterministic():
    rng = np.random.default_rng(4)
    clips = _clips(rng)
    model = BoundaryModel(TINY, seed=5)
    a = model.forward(clips).fused.data
    b = model.forward(clips).fused.data
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("metric", METRICS)
def test_full_mode_gradients_reach_every_parameter(metric):
    rng = np.random.default_rng(6)
    model = BoundaryModel(replace(TINY, metric=metric), seed=7)
    out = model.forward(_clips(rng))
    T.backward(model.loss(out, np.array([1.0, 0.0])))
    for name, p in model.named_params().items():
        assert p.grad is not None, f"no gradient reached {name}"
        assert np.all(np.isfinite(p.grad)), f"non-finite gradient at {name}"
        # a temporal bias is shared by every frame, so it cancels in the
        # differences x_i - x_j that the norm metrics see.  The biases stay:
        # deleting them (init stream unchanged) left criteria 5 and 6 as
        # they were but moved criterion 7's cosine F1@avg from 0.969 to
        # 0.897 (spread 0.103 against its 0.05 bar); see ROADMAP "Parked"
        if name.startswith("temporal/") and name.endswith("/b") \
                and metric != "cosine":
            continue
        assert np.max(np.abs(p.grad)) > 1e-10, f"dead parameter {name}"


def test_attention_collection_counts():
    rng = np.random.default_rng(7)
    model = BoundaryModel(TINY, seed=8)
    collect = []
    model.forward(_clips(rng), collect=collect)
    # squeeze + 2 intra decoders (2 each) + 2 co stacks (2 each)
    assert len(collect) == 1 + 4 + 4
    for attn in collect:
        assert np.max(np.abs(attn.sum(axis=-1) - 1.0)) <= 1e-9


def test_loss_decreases_under_a_few_gradient_steps():
    rng = np.random.default_rng(8)
    clips = _clips(rng, b=4, t=3, hw=4)
    labels = np.array([1.0, 0.0, 1.0, 0.0])
    model = BoundaryModel(MINI, seed=9)
    params = model.named_params()
    first = None
    for _ in range(25):
        out = model.forward(clips)
        loss = model.loss(out, labels)
        if first is None:
            first = loss.item()
        T.zero_grad(params.values())
        T.backward(loss)
        for p in params.values():
            if p.grad is not None:
                p.data = p.data - 0.05 * p.grad
    assert loss.item() < first


def test_composed_model_gradients_every_scalar():
    clips_rng = np.random.default_rng(9)
    clips = clips_rng.random((1, 3, 4, 4, 3))
    labels = np.array([1.0])

    def make(rng):
        model = BoundaryModel(MINI, seed=int(rng.integers(1 << 31)))

        def forward():
            return model.loss(model.forward(clips), labels)

        return list(model.named_params().values()), forward

    check_gradients(make, seeds=range(1))
