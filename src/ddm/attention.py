"""Progressive attention: map squeezing, query decoding, co-attention.

Three pieces, applied in order by the model:

* **Map squeeze** -- collapses the embedded map stack M (B, T, T, C) to one
  vector per frame.  Row i's vectors are averaged under a softmax over j
  whose logit is a learned projection of the map cell (i, j) alone: a term
  in frame i alone would be constant along j and cancel.  The weighted
  average is computed as an explicit exponential-weight ratio so that zero
  squeeze logits reduce *exactly* to the temporal mean (the degenerate
  average-pool case).

* **Intra-modal decoders** -- transformer decoders with a small set of
  learnable queries (content + learned positional part).  Keys are the
  frame sequence plus fixed sinusoidal positions, values the sequence
  itself.  Each layer is: self-attention, cross-attention to the sequence,
  feed-forward, each wrapped in residual + layer norm.

* **Cross-modal co-attention** -- two decoder stacks without any positional
  embeddings.  One uses the appearance queries to attend over the map
  queries (its output is the refined map stream), the other is symmetric.
  The output stream follows the values; the queries act as the guide.

All attention weight matrices are bias-free; feed-forward layers carry
biases.  Passing a list as ``collect`` appends every softmaxed attention
matrix (and squeeze weights), which the tests use to audit row sums.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .config import ModelConfig
from .errors import DimensionError


def sinusoidal_positions(length: int, channels: int) -> np.ndarray:
    """Fixed sin/cos position codes, shape (length, channels)."""
    if channels % 2 != 0:
        raise DimensionError(f"position encoding needs even width, got {channels}")
    pos = np.arange(length)[:, None]
    idx = np.arange(channels // 2)[None, :]
    angles = pos / np.power(10000.0, 2.0 * idx / channels)
    out = np.empty((length, channels))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


class MapSqueeze:
    """Row average of the map stack under ``softmax_j(m_ij @ W_m @ w_mu)``."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        c = cfg.width
        # advance past the c*c draws an appearance projection once took, so
        # every later parameter keeps its initial value for a given seed
        rng.uniform(size=(c, c))
        self.params = {
            "squeeze/wm": T.uniform_init(rng, (c, c), fan_in=c),
            "squeeze/wmu": T.uniform_init(rng, (c, 1), fan_in=c),
        }

    def named_params(self) -> dict[str, T.Tensor]:
        return dict(self.params)

    def forward(self, appearance: T.Tensor, maps: T.Tensor,
                collect: list | None = None) -> T.Tensor:
        """(B, T, T, C) maps -> (B, T, C) sequence.

        ``appearance`` (B, T, C) only fixes the expected map shape: a logit
        term in a_i alone is the same for every j, so the softmax cancels it.
        """
        if appearance.ndim != 3 or maps.ndim != 4:
            raise DimensionError(
                f"expected (B,T,C) and (B,T,T,C), got {appearance.shape} "
                f"and {maps.shape}")
        b, t, c = appearance.shape
        if maps.shape != (b, t, t, c):
            raise DimensionError(
                f"map stack {maps.shape} does not match sequence "
                f"{appearance.shape}")
        mu = ((maps @ self.params["squeeze/wm"])
              @ self.params["squeeze/wmu"]).reshape(b, t, t)
        # explicit exp-weight ratio; subtracting the (detached) row max is a
        # pure shift, so values and gradients match a plain softmax average
        shift = T.Tensor(mu.data.max(axis=-1, keepdims=True))
        w = T.exp(mu - shift)
        denom = w.sum(axis=-1, keepdims=True)                  # (B, T, 1)
        if collect is not None:
            collect.append((w.data / denom.data).copy())
        weighted = (w.reshape(b, t, t, 1) * maps).sum(axis=2)  # (B, T, C)
        return weighted / denom


class MultiHeadAttention:
    """Scaled dot-product attention with bias-free projections."""

    def __init__(self, prefix: str, cfg: ModelConfig, rng: np.random.Generator):
        c = cfg.width
        self.heads = cfg.heads
        self.params = {
            f"{prefix}/wq": T.uniform_init(rng, (c, c), fan_in=c),
            f"{prefix}/wk": T.uniform_init(rng, (c, c), fan_in=c),
            f"{prefix}/wv": T.uniform_init(rng, (c, c), fan_in=c),
            f"{prefix}/wo": T.uniform_init(rng, (c, c), fan_in=c),
        }
        self.prefix = prefix

    def _split(self, x: T.Tensor) -> T.Tensor:
        b, s, c = x.shape
        dk = c // self.heads
        return x.reshape(b, s, self.heads, dk).transpose(0, 2, 1, 3)

    def forward(self, q: T.Tensor, k: T.Tensor, v: T.Tensor,
                collect: list | None = None) -> T.Tensor:
        p = self.params
        qp = self._split(q @ p[f"{self.prefix}/wq"])
        kp = self._split(k @ p[f"{self.prefix}/wk"])
        vp = self._split(v @ p[f"{self.prefix}/wv"])
        dk = qp.shape[-1]
        scores = (qp @ kp.swap_last()) * (1.0 / np.sqrt(dk))
        attn = T.softmax(scores, axis=-1)
        if collect is not None:
            collect.append(attn.data.copy())
        ctx = attn @ vp                          # (B, H, S_q, dk)
        b, _, sq, _ = ctx.shape
        merged = ctx.transpose(0, 2, 1, 3).reshape(b, sq, self.heads * dk)
        return merged @ p[f"{self.prefix}/wo"]


class DecoderLayer:
    """Self-attention, cross-attention, feed-forward; post-norm residuals."""

    def __init__(self, prefix: str, cfg: ModelConfig, rng: np.random.Generator):
        c, f = cfg.width, cfg.ffn_width
        self.self_attn = MultiHeadAttention(f"{prefix}/self", cfg, rng)
        self.cross_attn = MultiHeadAttention(f"{prefix}/cross", cfg, rng)
        self.params = {
            f"{prefix}/ffn/w1": T.uniform_init(rng, (c, f), fan_in=c),
            f"{prefix}/ffn/b1": T.parameter(np.zeros(f)),
            f"{prefix}/ffn/w2": T.uniform_init(rng, (f, c), fan_in=f),
            f"{prefix}/ffn/b2": T.parameter(np.zeros(c)),
        }
        for i in (1, 2, 3):
            self.params[f"{prefix}/ln{i}/g"] = T.parameter(np.ones(c))
            self.params[f"{prefix}/ln{i}/b"] = T.parameter(np.zeros(c))
        self.prefix = prefix

    def named_params(self) -> dict[str, T.Tensor]:
        out = dict(self.self_attn.params)
        out.update(self.cross_attn.params)
        out.update(self.params)
        return out

    def _ln(self, i: int, x: T.Tensor) -> T.Tensor:
        return T.layer_norm(x, self.params[f"{self.prefix}/ln{i}/g"],
                            self.params[f"{self.prefix}/ln{i}/b"])

    def forward(self, q: T.Tensor, k: T.Tensor, v: T.Tensor,
                collect: list | None = None) -> T.Tensor:
        q1 = self._ln(1, q + self.self_attn.forward(q, q, q, collect))
        q2 = self._ln(2, q1 + self.cross_attn.forward(q1, k, v, collect))
        p = self.params
        hidden = T.relu(q2 @ p[f"{self.prefix}/ffn/w1"] + p[f"{self.prefix}/ffn/b1"])
        ffn = hidden @ p[f"{self.prefix}/ffn/w2"] + p[f"{self.prefix}/ffn/b2"]
        return self._ln(3, q2 + ffn)


class QueryDecoder:
    """Intra-modal stack: learnable queries attend over one frame sequence."""

    def __init__(self, prefix: str, cfg: ModelConfig, rng: np.random.Generator,
                 layers: int):
        c = cfg.width
        self.params = {
            f"{prefix}/content": T.parameter(rng.standard_normal((cfg.queries, c))),
            f"{prefix}/pos": T.parameter(rng.standard_normal((cfg.queries, c))),
        }
        self.layers = [DecoderLayer(f"{prefix}/layer{i}", cfg, rng)
                       for i in range(layers)]
        self.queries = cfg.queries
        self.width = c
        self.prefix = prefix

    def named_params(self) -> dict[str, T.Tensor]:
        out = dict(self.params)
        for layer in self.layers:
            out.update(layer.named_params())
        return out

    def forward(self, seq: T.Tensor, collect: list | None = None) -> T.Tensor:
        """(B, T, C) sequence -> (B, queries, C) refined queries."""
        if seq.ndim != 3 or seq.shape[-1] != self.width:
            raise DimensionError(
                f"expected (B, T, {self.width}) sequence, got {seq.shape}")
        b, t, c = seq.shape
        q = (self.params[f"{self.prefix}/content"]
             + self.params[f"{self.prefix}/pos"]).reshape(1, self.queries, c)
        k = seq + T.Tensor(sinusoidal_positions(t, c))
        for layer in self.layers:
            q = layer.forward(q, k, seq, collect)
        return q


class CoAttention:
    """Cross-modal stacks; no positional embeddings on either side."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, layers: int):
        self.map_stack = [DecoderLayer(f"co_map/layer{i}", cfg, rng)
                          for i in range(layers)]
        self.app_stack = [DecoderLayer(f"co_app/layer{i}", cfg, rng)
                          for i in range(layers)]

    def named_params(self) -> dict[str, T.Tensor]:
        out: dict[str, T.Tensor] = {}
        for layer in (*self.map_stack, *self.app_stack):
            out.update(layer.named_params())
        return out

    def forward(self, q_app: T.Tensor, q_map: T.Tensor,
                collect: list | None = None):
        """Returns (refined appearance stream, refined map stream).

        The refined map stream starts from the appearance queries and draws
        its content from the map queries (keys = values = ``q_map``); the
        appearance stream is the mirror image.
        """
        m = q_app
        for layer in self.map_stack:
            m = layer.forward(m, q_map, q_map, collect)
        a = q_map
        for layer in self.app_stack:
            a = layer.forward(a, q_app, q_app, collect)
        return a, m
