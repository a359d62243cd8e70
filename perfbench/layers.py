"""Layer boundaries of the ``ddm`` package and the per-layer metrics.

Each boundary is a public function or method, wrapped where its caller
looks it up.  Span names are ``<module>.<part>``; the per-layer metrics in
``BENCHMARK.json`` are computed from them by :meth:`DdmLayers.metrics`.

Metrics of the layers that run while a workload sets up (``synth.*`` and
``checkpoint.load_s``) are per set-up.  ``trace.ops``, ``training.steps``
and ``training.clips`` are totals over the traced operations; every other
metric is per traced operation (a training step, a scored video, or an
``evaluate`` call).  A layer that does not run in a workload reads 0.
"""

from __future__ import annotations

import bisect
import os
import statistics

import numpy as np

from ddm import (attention, diffmap, evaluation, feature_bank, head,
                 inference, model, synth, tensor, training)

from tracer import NAME, OP, SETUP, START, Patches, Tracer

FLOAT64_BYTES = 8


def _shape(x) -> tuple[int, ...]:
    return tuple(np.shape(x.data if isinstance(x, tensor.Tensor) else x))


def _count_conv2d(tracer, args, kwargs, out):
    """FLOPs and bytes of one stride-1 'same' convolution, from shapes."""
    x, w = args[0], args[1]
    b = args[2] if len(args) > 2 else kwargs.get("b")
    n, h, wd, _ = _shape(x)
    kh, kw, cin, cout = _shape(w)
    tracer.add("tensor.conv2d_flop", 2.0 * n * h * wd * kh * kw * cin * cout)
    moved = np.prod(_shape(x)) + np.prod(_shape(w)) + np.prod(_shape(out))
    if b is not None:
        moved += np.prod(_shape(b))
    tracer.add("tensor.conv2d_bytes", float(FLOAT64_BYTES * moved))


def _count_file(counter):
    def count(tracer, args, kwargs, result):
        tracer.add(counter, float(os.path.getsize(args[0])))
    return count


def _count_clips(tracer, args, kwargs, out):
    tracer.add("model.clips", float(_shape(args[1])[0]))


def _count_positions(tracer, args, kwargs, result):
    tracer.add("inference.positions", float(len(result[0])))


def _count_compatible(tracer, args, kwargs, result):
    preds, truths, num_frames, threshold = args[:4]
    p = np.asarray(preds, dtype=np.float64).reshape(-1, 1)
    g = np.asarray(truths, dtype=np.float64).reshape(1, -1)
    tracer.add("evaluation.compatible_pairs",
               float(np.count_nonzero(np.abs(p - g) / num_frames <= threshold)))


class DdmLayers:
    """Installs the layer spans on a tracer and turns them into metrics."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patches = Patches()
        self._frames: set[tuple[str, int]] = set()

    def _count_frames(self, tracer, args, kwargs, result):
        """Remembers the (video, frame) pairs a sampled clip reads."""
        video, center, spec = args[:3]
        idx = feature_bank.clip_indices(video.num_frames, center, spec)
        self._frames.update((video.video_id, int(i)) for i in idx)

    def _count_backbone(self, tracer, args, kwargs, result):
        b, t = _shape(args[1])[:2]
        tracer.add("feature_bank.frames_in", float(b * t))

    def end_op(self) -> None:
        """Closes the distinct-frame count of the operation that just ended."""
        self.tracer.add("feature_bank.distinct_frames", float(len(self._frames)))
        self._frames.clear()

    def install(self) -> Patches:
        t, p = self.tracer, self.patches
        targets = [
            (model, "build_feature_bank", "feature_bank.build", None),
            (feature_bank.FeatureExtractor, "spatial_sequences",
             "feature_bank.spatial", self._count_backbone),
            (training, "sample_clip", "feature_bank.sample_clip",
             self._count_frames),
            (inference, "sample_clip", "feature_bank.sample_clip",
             self._count_frames),
            (tensor, "conv2d", "tensor.conv2d", _count_conv2d),
            (tensor, "conv1d", "tensor.conv1d", None),
            (tensor, "matmul", "tensor.matmul", None),
            (training, "backward", "tensor.backward", None),
            (model, "raw_difference_maps", "diffmap.raw", None),
            (diffmap.DiffMapEmbedding, "forward", "diffmap.embed", None),
            (attention.MapSqueeze, "forward", "attention.squeeze", None),
            (attention.QueryDecoder, "forward", "attention.intra", None),
            (attention.CoAttention, "forward", "attention.co", None),
            (head.FusionHead, "logits", "head.fwd", None),
            (head.FusionHead, "fuse", "head.fwd", None),
            (model, "boundary_probability", "head.fwd", None),
            (model, "complete_loss", "head.loss", None),
            (model.BoundaryModel, "forward", "model.forward", _count_clips),
            (training, "adam_step", "training.adam", None),
            (training, "save_checkpoint", "checkpoint.save",
             _count_file("checkpoint.bytes")),
            (training, "load_checkpoint", "checkpoint.load", None),
            (synth, "generate_video", "synth.generate", None),
            (synth, "write_dataset", "synth.write", None),
            (synth, "read_dataset", "synth.read", None),
            (synth, "read_frames", "synth.read_frames",
             _count_file("synth.bytes_read")),
            (inference, "score_video", "inference.score_video",
             _count_positions),
            (inference, "select_peaks", "inference.select_peaks", None),
            (evaluation, "evaluate", "evaluation.evaluate", None),
            (evaluation, "match_count", "evaluation.match", _count_compatible),
        ]
        for owner, attr, name, count in targets:
            t.patch(p, owner, attr, name, count)
        return p

    def metrics(self, ops: list[tuple[float, float]], setups: int,
                untraced_ops: list[float], train: bool) -> dict[str, float]:
        """Per-layer metrics of the traced part of a run.

        ``ops`` holds the (start, end) times of the traced operations;
        ``untraced_ops`` the durations of the operations timed with tracing
        off in the same run, which give the tracing overhead.
        """
        tr = self.tracer
        total, own, calls = tr.totals(lambda s: s[OP] != SETUP)
        setup_total, _, _ = tr.totals(lambda s: s[OP] == SETUP)
        counts = tr.counts
        n_ops = max(len(ops), 1)
        n_setups = max(setups, 1)

        def per_op(value):
            return float(value) / n_ops

        def per_setup(value):
            return float(value) / n_setups

        frames_in = counts["feature_bank.frames_in"]
        durations = [end - start for start, end in ops]
        out = {
            "feature_bank.spatial_fwd_s": per_op(total["feature_bank.spatial"]),
            "feature_bank.temporal_fwd_s": per_op(
                total["feature_bank.build"] - total["feature_bank.spatial"]),
            "feature_bank.frames_in": per_op(frames_in),
            "feature_bank.distinct_frames": per_op(
                counts["feature_bank.distinct_frames"]),
            "feature_bank.useful_ratio": (
                counts["feature_bank.distinct_frames"] / frames_in
                if frames_in else 0.0),
            "tensor.conv2d_fwd_s": per_op(total["tensor.conv2d"]),
            "tensor.conv2d_calls": per_op(calls["tensor.conv2d"]),
            "tensor.conv2d_gflop": per_op(counts["tensor.conv2d_flop"] / 1e9),
            "tensor.conv2d_bytes": per_op(counts["tensor.conv2d_bytes"]),
            "tensor.conv1d_fwd_s": per_op(total["tensor.conv1d"]),
            "tensor.matmul_fwd_s": per_op(total["tensor.matmul"]),
            "tensor.matmul_calls": per_op(calls["tensor.matmul"]),
            "tensor.backward_s": per_op(total["tensor.backward"]),
            "diffmap.raw_fwd_s": per_op(total["diffmap.raw"]),
            "diffmap.embed_fwd_s": per_op(total["diffmap.embed"]),
            "attention.squeeze_fwd_s": per_op(total["attention.squeeze"]),
            "attention.intra_fwd_s": per_op(total["attention.intra"]),
            "attention.co_fwd_s": per_op(total["attention.co"]),
            "head.fwd_s": per_op(total["head.fwd"]),
            "head.loss_s": per_op(total["head.loss"]),
            "model.fwd_s": per_op(total["model.forward"]),
            "model.self_s": per_op(own["model.forward"]),
            "training.batch_s": 0.0,
            "training.fwd_s": 0.0,
            "training.bwd_s": 0.0,
            "training.adam_s": 0.0,
            "training.step_p50_s": 0.0,
            "training.steps": 0.0,
            "training.clips": 0.0,
            "checkpoint.save_s": per_op(total["checkpoint.save"]),
            "checkpoint.load_s": per_setup(setup_total["checkpoint.load"]),
            "checkpoint.bytes": per_op(counts["checkpoint.bytes"]),
            "synth.generate_s": per_setup(setup_total["synth.generate"]),
            "synth.write_s": per_setup(setup_total["synth.write"]),
            "synth.read_s": per_setup(setup_total["synth.read"]),
            "synth.bytes_read": per_setup(counts["synth.bytes_read"]),
            "inference.score_video_p50_s": _median(
                tr.durations("inference.score_video")),
            "inference.select_peaks_s": per_op(total["inference.select_peaks"]),
            "inference.positions": per_op(counts["inference.positions"]),
            "evaluation.evaluate_s": per_op(total["evaluation.evaluate"]),
            "evaluation.match_s": per_op(total["evaluation.match"]),
            "evaluation.match_calls": per_op(calls["evaluation.match"]),
            "evaluation.compatible_pairs": per_op(
                counts["evaluation.compatible_pairs"]),
            "trace.ops": float(len(ops)),
            "trace.overhead_share": (
                _median(durations) / _median(untraced_ops) - 1.0
                if durations and untraced_ops else 0.0),
        }
        if train:
            out.update({
                "training.batch_s": per_op(self._batch_wait(ops)),
                "training.fwd_s": per_op(total["model.forward"]
                                         + total["head.loss"]),
                "training.bwd_s": per_op(total["tensor.backward"]),
                "training.adam_s": per_op(total["training.adam"]),
                "training.step_p50_s": _median(durations),
                "training.steps": float(len(ops)),
                "training.clips": counts["model.clips"],
            })
        return out

    def _batch_wait(self, ops) -> float:
        """Time from the start of each step to its first model forward."""
        starts = sorted(s[START] for s in self.tracer.spans
                        if s[NAME] == "model.forward")
        wait = 0.0
        for start, end in ops:
            i = bisect.bisect_left(starts, start)
            if i < len(starts) and starts[i] <= end:
                wait += starts[i] - start
        return wait


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0
