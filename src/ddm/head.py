"""Classification heads, score fusion, and the training loss.

Each modality stream is mean-pooled over its query slots and passed through
its own affine layer to two logits (non-boundary, boundary).  The fused
logit pair is the convex mix ``alpha * appearance + (1 - alpha) * map``
with ``alpha = sigmoid(raw)`` learned, or frozen by ablations.  A logit
pair becomes a boundary probability through a two-way softmax.

The loss sums binary cross-entropy over the fused and per-modality
probabilities (whichever are present) and averages over the batch;
probabilities are clamped to [1e-7, 1 - 1e-7] before the logs.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import ContractError, DimensionError

PROB_FLOOR = 1e-7


class FusionHead:
    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        c = cfg.width
        self.params = {
            "head/app/w": T.uniform_init(rng, (c, 2), fan_in=c),
            "head/app/b": T.parameter(np.zeros(2)),
            "head/map/w": T.uniform_init(rng, (c, 2), fan_in=c),
            "head/map/b": T.parameter(np.zeros(2)),
            # raw mixing weight; sigmoid(0) starts the blend at one half
            "head/alpha": T.parameter(np.zeros(())),
        }

    def named_params(self) -> dict[str, T.Tensor]:
        return dict(self.params)

    def logits(self, queries: T.Tensor, which: str) -> T.Tensor:
        """(B, S, C) query stream -> (B, 2) class logits."""
        if which not in ("app", "map"):
            raise ContractError(f"unknown head {which!r}")
        if queries.ndim != 3:
            raise DimensionError(
                f"expected (B, S, C) queries, got {queries.shape}")
        pooled = queries.mean(axis=1)
        return pooled @ self.params[f"head/{which}/w"] + self.params[f"head/{which}/b"]

    def alpha_value(self) -> float:
        return float(T.sigmoid(T.Tensor(self.params["head/alpha"].data)).data)

    def fuse(self, l_app: T.Tensor, l_map: T.Tensor) -> T.Tensor:
        """Blend two (B, 2) logit pairs with the learned weight alpha."""
        if l_app.shape != l_map.shape:
            raise DimensionError(
                f"logit shapes differ: {l_app.shape} vs {l_map.shape}")
        alpha = T.sigmoid(self.params["head/alpha"])
        return alpha * l_app + (1.0 - alpha) * l_map


def boundary_probability(logits: T.Tensor) -> T.Tensor:
    """(B, 2) logits -> (B,) probability of the boundary class."""
    if logits.ndim != 2 or logits.shape[-1] != 2:
        raise DimensionError(f"expected (B, 2) logits, got {logits.shape}")
    return T.softmax(logits, axis=-1)[:, 1]


def _bce(p: T.Tensor, labels: np.ndarray) -> T.Tensor:
    pc = T.clip(p, PROB_FLOOR, 1.0 - PROB_FLOOR)
    return -(labels * T.log(pc) + (1.0 - labels) * T.log(1.0 - pc))


def complete_loss(fused: T.Tensor, labels,
                  app: T.Tensor | None = None,
                  map_: T.Tensor | None = None) -> T.Tensor:
    """Mean over the batch of the summed per-stream cross-entropies."""
    labels = np.asarray(labels, dtype=np.float64)
    if labels.shape != fused.shape:
        raise DimensionError(
            f"labels shape {labels.shape} does not match scores {fused.shape}")
    if labels.size == 0:
        raise ContractError("loss over an empty batch")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise ContractError("labels must be 0 or 1")
    total = _bce(fused, labels)
    for extra in (app, map_):
        if extra is not None:
            total = total + _bce(extra, labels)
    return total.mean()
