"""Dense pairwise difference maps and their convolutional embedding.

For each feature-bank level, the T x T map holds the distance between every
pair of frame features in the clip.  Four metrics are supported; Euclidean
is the default, the others are ablation variants.  The cosine metric uses
fixed conventions at degenerate points: distance 0 when both vectors are
zero, 1 when exactly one is, with zero gradient at those entries.

Distances are computed entrywise from broadcast differences (never via a
Gram factorisation), which makes each entry a pure function of its two
frame vectors -- maps are bitwise symmetric for the norm metrics, diagonals
are exactly zero, and an overlapping clip reproduces shared pair values
bit-for-bit.

The L raw maps stack channels-last into (B, T, T, L) and pass through two
3x3 convolutions (L -> C/2 -> C, relu between) to give the embedded map
stack M of shape (B, T, T, C).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import ConfigError, DimensionError
from .feature_bank import FeatureBank


def _pair_views(seq: T.Tensor):
    b, t, c = seq.shape
    xi = seq.reshape(b, t, 1, c)
    xj = seq.reshape(b, 1, t, c)
    return xi, xj


def _euclidean(seq):
    xi, xj = _pair_views(seq)
    return T.sqrt(T.square(xi - xj).sum(axis=-1))


def _manhattan(seq):
    xi, xj = _pair_views(seq)
    return T.absolute(xi - xj).sum(axis=-1)


def _chebyshev(seq):
    xi, xj = _pair_views(seq)
    return T.absolute(xi - xj).max(axis=-1)


def _cosine(seq):
    xi, xj = _pair_views(seq)
    dot = (xi * xj).sum(axis=-1)
    norms = T.sqrt(T.square(seq).sum(axis=-1))  # (B, T)
    b, t = norms.shape
    ni = norms.reshape(b, t, 1)
    nj = norms.reshape(b, 1, t)
    nonzero = (norms.data != 0.0).astype(np.float64)
    regular = nonzero[:, :, None] * nonzero[:, None, :]  # both vectors nonzero
    one_zero = (nonzero[:, :, None] + nonzero[:, None, :] == 1.0).astype(np.float64)
    # masked denominator: 1 wherever a zero norm would make it 0/0
    denom = ni * nj + T.Tensor(1.0 - regular)
    smooth = T.Tensor(regular) * (1.0 - dot / denom)
    return smooth + T.Tensor(one_zero)


_METRIC_FNS = {
    "euclidean": _euclidean,
    "manhattan": _manhattan,
    "chebyshev": _chebyshev,
    "cosine": _cosine,
}


def pairwise_distances(seq, metric: str = "euclidean") -> T.Tensor:
    """T x T distances between all frame pairs of (B, T, C) sequences."""
    seq = seq if isinstance(seq, T.Tensor) else T.Tensor(seq)
    if seq.ndim != 3:
        raise DimensionError(f"expected (B, T, C) sequence, got {seq.shape}")
    try:
        fn = _METRIC_FNS[metric]
    except KeyError:
        raise ConfigError(
            f"unknown metric {metric!r}; pick from {sorted(_METRIC_FNS)}") from None
    return fn(seq)


def raw_difference_maps(bank: FeatureBank, metric: str = "euclidean") -> T.Tensor:
    """Stack per-level maps channels-last: (B, T, T, L)."""
    maps = [pairwise_distances(level, metric) for level in bank.levels]
    b, t, _ = maps[0].shape
    return T.concatenate([m.reshape(b, t, t, 1) for m in maps], axis=-1)


class DiffMapEmbedding:
    """Two 3x3 convolutions lifting L raw maps to C channels."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        levels, width = cfg.num_levels, cfg.width
        half = width // 2
        self.params = {
            "embed/0/w": T.uniform_init(rng, (3, 3, levels, half),
                                        fan_in=9 * levels),
            "embed/0/b": T.parameter(np.zeros(half)),
            "embed/1/w": T.uniform_init(rng, (3, 3, half, width),
                                        fan_in=9 * half),
            "embed/1/b": T.parameter(np.zeros(width)),
        }

    def named_params(self) -> dict[str, T.Tensor]:
        return dict(self.params)

    def forward(self, raw: T.Tensor) -> T.Tensor:
        if raw.ndim != 4 or raw.shape[-1] != self.params["embed/0/w"].shape[2]:
            raise DimensionError(
                f"raw maps must be (B, T, T, L={self.params['embed/0/w'].shape[2]}), "
                f"got {raw.shape}")
        h = T.relu(T.conv2d(raw, self.params["embed/0/w"],
                            self.params["embed/0/b"]))
        return T.conv2d(h, self.params["embed/1/w"], self.params["embed/1/b"])
