"""The composed two-branch boundary classifier.

Forward pipeline for a batch of clips (B, T, H, W, 3):

1. feature bank: backbone sequences per spatial stage, temporal branches on
   each (the deepest spatial sequence doubles as the appearance stream);
   :meth:`BoundaryModel.forward_sequences` enters here with the backbone
   sequences already computed,
2. raw pairwise difference maps per bank level, embedded to C channels,
3. map squeeze to a difference sequence (B, T, C),
4. intra-modal query decoders on both sequences,
5. cross-modal co-attention between the query sets,
6. per-modality heads and fused scoring.

Ablations rewire this graph: ``rgb-only``/``ddm-only`` run a single branch
with the blend frozen at 1/0 (the unused branch is never computed, so its
parameters cannot influence predictions); ``avg-pool`` replaces both query
decoders with temporal means; ``intra-only`` skips co-attention;
``cross-only`` co-attends the raw sequences without query decoders.  All
parameters are created for every mode, in one fixed order from the seed, so
checkpoints stay interchangeable across ablations of the same config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from . import tensor as T
from .attention import CoAttention, MapSqueeze, QueryDecoder
from .config import ModelConfig
from .diffmap import DiffMapEmbedding, raw_difference_maps
from .feature_bank import FeatureExtractor, build_feature_bank, temporal_bank
from .head import FusionHead, boundary_probability, complete_loss


@dataclass
class ModelOutput:
    fused: T.Tensor              # (B,) boundary probability
    app: T.Tensor | None         # per-modality probabilities when computed
    map: T.Tensor | None
    alpha: float                 # blend weight used for the fused logits


class BoundaryModel:
    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        rng = rngmod.stream(seed, rngmod.INIT)
        self.extractor = FeatureExtractor(cfg, rng)
        self.embedding = DiffMapEmbedding(cfg, rng)
        self.squeeze = MapSqueeze(cfg, rng)
        self.intra_app = QueryDecoder("intra_app", cfg, rng, cfg.intra_layers)
        self.intra_map = QueryDecoder("intra_map", cfg, rng, cfg.intra_layers)
        self.co = CoAttention(cfg, rng, cfg.cross_layers)
        self.head = FusionHead(cfg, rng)

    # -- parameter registry -------------------------------------------------

    def named_params(self) -> dict[str, T.Tensor]:
        out: dict[str, T.Tensor] = {}
        for module in (self.extractor, self.embedding, self.squeeze,
                       self.intra_app, self.intra_map, self.co, self.head):
            out.update(module.named_params())
        return out

    def state(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_params().items()}

    # -- forward ------------------------------------------------------------

    def _map_sequence(self, bank, collect):
        raw = raw_difference_maps(bank, self.cfg.metric)
        embedded = self.embedding.forward(raw)
        return self.squeeze.forward(bank.rgb, embedded, collect)

    def forward(self, clips, collect: list | None = None) -> ModelOutput:
        """Scores a clip batch (B, T, H, W, 3)."""
        return self._forward_bank(build_feature_bank(self.extractor, clips),
                                  collect)

    def forward_sequences(self, seqs, collect: list | None = None
                          ) -> ModelOutput:
        """Scores clips from their per-stage backbone sequences.

        ``seqs`` holds one (B, T, C_s) sequence per backbone stage, as
        :meth:`FeatureExtractor.spatial_sequences` returns them;
        ``forward(clips)`` equals ``forward_sequences(
        self.extractor.spatial_sequences(clips))``.
        """
        return self._forward_bank(temporal_bank(self.extractor, seqs), collect)

    def _forward_bank(self, bank, collect) -> ModelOutput:
        mode = self.cfg.ablate
        app_seq = bank.rgb

        if mode == "rgb-only":
            q_app = self.intra_app.forward(app_seq, collect=collect)
            l_app = self.head.logits(q_app, "app")
            p_app = boundary_probability(l_app)
            return ModelOutput(fused=p_app, app=p_app, map=None, alpha=1.0)

        map_seq = self._map_sequence(bank, collect)

        if mode == "ddm-only":
            q_map = self.intra_map.forward(map_seq, collect=collect)
            l_map = self.head.logits(q_map, "map")
            p_map = boundary_probability(l_map)
            return ModelOutput(fused=p_map, app=None, map=p_map, alpha=0.0)

        if mode == "avg-pool":
            b, t, c = app_seq.shape
            a_stream = app_seq.mean(axis=1).reshape(b, 1, c)
            m_stream = map_seq.mean(axis=1).reshape(b, 1, c)
        elif mode == "intra-only":
            a_stream = self.intra_app.forward(app_seq, collect=collect)
            m_stream = self.intra_map.forward(map_seq, collect=collect)
        elif mode == "cross-only":
            a_stream, m_stream = self.co.forward(app_seq, map_seq, collect)
        else:  # the full pipeline
            q_app = self.intra_app.forward(app_seq, collect=collect)
            q_map = self.intra_map.forward(map_seq, collect=collect)
            a_stream, m_stream = self.co.forward(q_app, q_map, collect)

        l_app = self.head.logits(a_stream, "app")
        l_map = self.head.logits(m_stream, "map")
        fused = self.head.fuse(l_app, l_map)
        return ModelOutput(
            fused=boundary_probability(fused),
            app=boundary_probability(l_app),
            map=boundary_probability(l_map),
            alpha=self.head.alpha_value(),
        )

    def loss(self, output: ModelOutput, labels) -> T.Tensor:
        return complete_loss(output.fused, labels, app=output.app,
                             map_=output.map)
