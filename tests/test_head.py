"""Fusion head and loss: values, clamping, gradients."""

import numpy as np
import pytest

from ddm import tensor as T
from ddm.config import ModelConfig
from ddm.errors import ContractError, DimensionError
from ddm.head import (FusionHead, boundary_probability, complete_loss)

from oracles import check_gradients

CFG = ModelConfig(backbone_widths=(6,), width=6, dilations=(1,), heads=2,
                  queries=3, intra_layers=1, cross_layers=1)


def test_logits_shape_and_query_pooling():
    rng = np.random.default_rng(0)
    head = FusionHead(CFG, rng)
    one = rng.standard_normal((2, 1, 6))
    three = np.repeat(one, 3, axis=1)  # identical query slots
    a = head.logits(T.Tensor(one), "app").data
    b = head.logits(T.Tensor(three), "app").data
    assert a.shape == (2, 2)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_fresh_head_blends_evenly():
    rng = np.random.default_rng(3)
    head = FusionHead(CFG, rng)
    assert head.alpha_value() == 0.5
    l_app = T.Tensor(np.array([[2.0, 0.0]]))
    l_map = T.Tensor(np.array([[0.0, 2.0]]))
    assert np.allclose(head.fuse(l_app, l_map).data, [[1.0, 1.0]])


def test_boundary_probability_midpoint_and_monotonicity():
    p = boundary_probability(T.Tensor([[0.3, 0.3], [0.0, 5.0], [5.0, 0.0]]))
    assert p.data[0] == pytest.approx(0.5)
    assert p.data[1] > 0.99 and p.data[2] < 0.01


def test_chance_predictions_give_three_log_two():
    half = T.Tensor([0.5, 0.5])
    labels = np.array([1.0, 0.0])
    loss = complete_loss(half, labels, app=half, map_=half)
    assert loss.item() == pytest.approx(3.0 * np.log(2.0), abs=1e-12)


def test_perfect_predictions_give_near_zero_loss():
    ones = T.Tensor([1.0, 1.0])
    loss = complete_loss(ones, np.array([1.0, 1.0]), app=ones, map_=ones)
    assert 0.0 < loss.item() <= 1e-6


def test_confident_wrong_predictions_stay_finite():
    zeros = T.Tensor([0.0, 0.0])
    loss = complete_loss(zeros, np.array([1.0, 1.0]))
    assert np.isfinite(loss.item())
    assert loss.item() == pytest.approx(-np.log(1e-7), rel=1e-6)


def test_loss_with_single_stream():
    p = T.Tensor([0.8])
    loss = complete_loss(p, np.array([1.0]))
    assert loss.item() == pytest.approx(-np.log(0.8))


def test_loss_input_validation():
    p = T.Tensor([0.5, 0.5])
    with pytest.raises(DimensionError):
        complete_loss(p, np.array([1.0]))
    with pytest.raises(ContractError):
        complete_loss(T.Tensor(np.zeros(0)), np.zeros(0))
    with pytest.raises(ContractError):
        complete_loss(p, np.array([0.5, 1.0]))


def test_loss_gradients():
    labels = np.array([1.0, 0.0, 1.0])

    def make(rng):
        fused = T.parameter(rng.uniform(0.2, 0.8, 3))
        app = T.parameter(rng.uniform(0.2, 0.8, 3))
        map_ = T.parameter(rng.uniform(0.2, 0.8, 3))
        return [fused, app, map_], lambda: complete_loss(
            fused, labels, app=app, map_=map_)

    check_gradients(make, seeds=range(3))


def test_fuse_gradient_reaches_alpha():
    rng = np.random.default_rng(4)
    head = FusionHead(CFG, rng)
    l_app = T.Tensor(rng.standard_normal((2, 2)))
    l_map = T.Tensor(rng.standard_normal((2, 2)))
    T.backward(head.fuse(l_app, l_map).sum())
    assert head.params["head/alpha"].grad is not None
    assert head.params["head/alpha"].grad.shape == ()
