"""The workloads: inputs made from the seed, the timed loop, output checks.

Every workload is a closed loop in one process: the next operation starts
when the previous one ends.  An operation is a training step, the scoring
of one video, or one ``evaluate`` call.  A traced run (``--trace 1``)
spends the first half of its time untraced and the second half traced, so
the tracing overhead is measured on the same inputs in the same process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from ddm import config, evaluation, inference, synth, training
from ddm.config import EvalConfig, GenSpec, RunConfig
from ddm.evaluation import VideoOutcome
from ddm.feature_bank import sample_clip
from ddm.model import BoundaryModel
from ddm.tensor import no_grad

from tracer import SETUP, Patches

# set-ups timed per run; setup_s is their median
SETUPS = 9
# the fewest operations a timed phase may have
MIN_OPS = 4
# training steps whose mean loss is train_loss_final: the last eight of
# the first twelve, which every run completes, so it repeats exactly
LOSS_WINDOW = (4, 12)
# infer-desk video lengths in frames: desk length up to four times it, so
# score_video's 64-position batches are crossed (it scores every 3rd frame)
INFER_LENGTHS = (100, 150, 200, 250, 300, 400)
# eval-dense: long videos with dense boundaries and 2.5x as many predictions
DENSE_VIDEOS = 8         # all evaluated in one call, as a user scores a split
DENSE_FRAMES = 3000
DENSE_BOUNDARIES = 40
DENSE_PREDICTIONS = 100
# the model infer-desk scores: the desk recipe of acceptance criterion 5,
# two epochs on the seed-0 corpus
MODEL_EPOCHS = 2
MODEL_SEED = 0
SCORE_TOLERANCE = 1e-9


class BudgetSpent(Exception):
    """Raised at an operation boundary once the run's time is spent."""


@dataclass
class Checks:
    """Output checks; ``failed`` names each check that did not hold."""

    attempted: int = 0
    failed: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


class Clock:
    """Times operations and decides when to trace and when to stop.

    Without layers the whole run is untraced.  With layers the run is
    untraced until half its time is spent (and at least ``MIN_OPS``
    operations are done), then traced until the end.
    """

    def __init__(self, seconds: float, layers=None):
        self.layers = layers
        self.seconds = seconds
        self.ops: list[tuple[float, float, bool, int]] = []
        self.start = self._begun = time.perf_counter()
        self.untraced_end = None
        self.tracing = False
        self._set_tracing(False)

    def _set_tracing(self, on: bool) -> None:
        self.tracing = on
        if self.layers is not None:
            self.layers.tracer.enabled = on
            self.layers.tracer.op = None

    def _count(self, traced: bool) -> int:
        return sum(1 for op in self.ops if op[2] == traced)

    def op_start(self) -> None:
        self._begun = time.perf_counter()
        if self.tracing:
            self.layers.tracer.op = self._count(True)

    def op_end(self, items: int) -> None:
        self.ops.append((self._begun, time.perf_counter(), self.tracing, items))
        if self.tracing:
            self.layers.end_op()
            self.layers.tracer.op = None

    def decide(self) -> bool:
        """True when the run should stop; may switch tracing on."""
        now = time.perf_counter()
        elapsed = now - self.start
        if not self.tracing:
            enough = self._count(False) >= MIN_OPS
            if self.layers is None:
                return enough and elapsed >= self.seconds
            if enough and elapsed >= self.seconds / 2:
                self.untraced_end = now
                self._set_tracing(True)
            return False
        return self._count(True) >= MIN_OPS and elapsed >= self.seconds

    def finish(self) -> None:
        if self.untraced_end is None:
            self.untraced_end = time.perf_counter()
        self._set_tracing(False)

    def untraced(self) -> list[tuple[float, float, bool, int]]:
        return [op for op in self.ops if not op[2]]

    def traced(self) -> list[tuple[float, float]]:
        return [(s, e) for s, e, traced, _ in self.ops if traced]


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile that has at least
    ten samples beyond it, but not below the median: never below the upper
    middle value, which it is for 21 samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, n // 2 + 1)
    return ordered[rank - 1], 100.0 * rank / n, n


def end_to_end(clock: Clock, setup_times: list[float]) -> dict:
    ops = clock.untraced()
    durations = [end - start for start, end, _, _ in ops]
    items = sum(op[3] for op in ops)
    tail_value, tail_pct, samples = tail(durations)
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": items / (clock.untraced_end - clock.start),
        "op_p50_s": statistics.median(durations),
        "op_tail_s": tail_value,
        "op_tail_percentile": tail_pct,
        "op_samples": samples,
        "items": items,
    }


def timed_setups(setup, layers):
    """Runs ``setup()`` SETUPS times; returns (times, last result)."""
    if layers is not None:
        layers.tracer.enabled = True
        layers.tracer.op = SETUP
    times = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - t0)
    if layers is not None:
        layers.tracer.enabled = False
        layers.tracer.op = None
    return times, state


# ---------------------------------------------------------------------------
# inputs


def desk_config(seed: int) -> RunConfig:
    cfg = config.desk_preset()
    return dataclasses.replace(
        cfg, gen=GenSpec(train_videos=64, val_videos=0, seed=seed),
        train=dataclasses.replace(cfg.train, seed=seed))


def paper_config(seed: int) -> RunConfig:
    cfg = config.paper_preset()
    return dataclasses.replace(
        cfg, gen=GenSpec(train_videos=64, val_videos=0, seed=seed),
        train=dataclasses.replace(cfg.train, batch_size=4, seed=seed))


def infer_specs() -> list[GenSpec]:
    """Desk videos scaled in length, with events of desk length."""
    return [GenSpec(min_frames=n, max_frames=n, min_events=2 * n // 100,
                    max_events=4 * n // 100) for n in INFER_LENGTHS]


def infer_videos(seed: int) -> list:
    return [synth.generate_video(spec, f"val-{i:04d}", "val", seed=seed)
            for i, spec in enumerate(infer_specs())]


def dense_spec() -> GenSpec:
    """Long videos of tiny frames; only their boundaries are evaluated."""
    return GenSpec(min_frames=DENSE_FRAMES, max_frames=DENSE_FRAMES,
                   min_events=DENSE_BOUNDARIES + 1,
                   max_events=DENSE_BOUNDARIES + 1, height=4, width=4,
                   square_size=2, regimes=("color-shift",))


def dense_predictions(boundaries, num_frames: int, seed: int,
                      video: int) -> tuple[int, ...]:
    """Two noisy detections per boundary plus uniform false alarms."""
    rng = np.random.default_rng([seed, 0xDE, video])
    near = np.repeat(np.asarray(boundaries), 2) + np.rint(
        rng.normal(0.0, 0.02 * num_frames, 2 * len(boundaries)))
    picked = set(int(p) for p in np.clip(near, 0, num_frames - 1))
    while len(picked) < DENSE_PREDICTIONS:
        picked.add(int(rng.integers(num_frames)))
    return tuple(sorted(picked))


def dense_outcomes(seed: int) -> list[VideoOutcome]:
    out = []
    for i in range(DENSE_VIDEOS):
        video = synth.generate_video(dense_spec(), f"dense-{i:03d}", "val",
                                     seed=seed)
        out.append(VideoOutcome(
            video.video_id, video.num_frames,
            dense_predictions(video.boundaries, video.num_frames, seed, i),
            video.boundaries))
    return out


# ---------------------------------------------------------------------------
# the model infer-desk scores, trained once per checkout and source tree


def source_digest(src_dir: str) -> str:
    h = hashlib.sha256(f"epochs={MODEL_EPOCHS} seed={MODEL_SEED}".encode())
    for root, dirs, files in os.walk(src_dir):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                h.update(os.path.relpath(path, src_dir).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def train_desk_model(path: str) -> None:
    """Trains the infer-desk model and writes its final checkpoint."""
    cfg = desk_config(MODEL_SEED)
    cfg = dataclasses.replace(
        cfg, train=dataclasses.replace(cfg.train, epochs=MODEL_EPOCHS))
    videos = synth.generate_dataset(cfg.gen)
    mdl = BoundaryModel(cfg.model, seed=MODEL_SEED)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(path)) as tmp:
        result = training.train(mdl, videos, cfg, out_dir=tmp)
        os.replace(result.final_path, path)


def desk_model_path(build_dir: str, src_dir: str, run_script: str) -> str:
    """The cached model checkpoint, trained in a child process if missing,
    so that the training's memory does not count towards peak_rss_mb."""
    path = os.path.join(build_dir, f"desk-model-{source_digest(src_dir)}.ddmn")
    if not os.path.exists(path):
        os.makedirs(build_dir, exist_ok=True)
        subprocess.run([sys.executable, run_script, "--build-model", path],
                       check=True, timeout=900)
    return path


# ---------------------------------------------------------------------------
# checks


def exact_match_count(preds, truths, num_frames: int, threshold: float) -> int:
    """Maximum matching by Hopcroft-Karp on the compatibility graph."""
    p = np.asarray(preds, dtype=np.float64).reshape(-1, 1)
    g = np.asarray(truths, dtype=np.float64).reshape(1, -1)
    ok = np.abs(p - g) / num_frames <= threshold
    if not ok.any():
        return 0
    matched = maximum_bipartite_matching(csr_matrix(ok), perm_type="column")
    return int(np.count_nonzero(matched >= 0))


def check_report(checks: Checks, outcomes, report, greedy_report,
                 what: str) -> None:
    """Optimal counts equal the exact matcher and are at least greedy's."""
    n_pred = sum(len(o.predictions) for o in outcomes)
    for row, greedy in zip(report.rows, greedy_report.rows):
        exact = sum(exact_match_count(o.predictions, o.boundaries,
                                      o.num_frames, row.threshold)
                    for o in outcomes)
        tp = round(row.precision * n_pred)
        tp_greedy = round(greedy.precision * n_pred)
        checks.expect(tp == exact,
                      f"{what}: optimal matches {tp} != exact {exact} at "
                      f"{row.threshold}")
        checks.expect(tp >= tp_greedy,
                      f"{what}: optimal matches {tp} < greedy {tp_greedy} at "
                      f"{row.threshold}")


def check_params(checks: Checks, mdl: BoundaryModel) -> None:
    bad = [name for name, p in mdl.named_params().items()
           if not np.all(np.isfinite(p.data))]
    checks.expect(not bad, f"non-finite parameters {bad[:3]}")


# ---------------------------------------------------------------------------
# workloads


def _probe(fn, before=None, after=None):
    def probed(*args, **kwargs):
        if before is not None:
            before(*args)
        result = fn(*args, **kwargs)
        if after is not None:
            after()
        return result
    return probed


def run_train(seed: int, seconds: float, layers, paper: bool,
              work_dir: str) -> tuple[dict, Checks, Clock]:
    """``training.train`` until the time is spent; paper model at batch 4
    without checkpoint writes, or the desk model with per-epoch checkpoints
    in a temporary directory."""
    cfg = paper_config(seed) if paper else desk_config(seed)
    cfg = dataclasses.replace(
        cfg, train=dataclasses.replace(cfg.train, epochs=10 ** 6))
    data_dir = os.path.join(work_dir, "data")

    def setup():
        shutil.rmtree(data_dir, ignore_errors=True)
        synth.write_dataset(synth.generate_dataset(cfg.gen), data_dir)
        videos = synth.read_dataset(data_dir, "train")
        return videos, BoundaryModel(cfg.model, seed=seed)

    setup_times, (videos, mdl) = timed_setups(setup, layers)
    checks = Checks()
    losses: list[float] = []
    clips = [0]
    out_dir = None if paper else os.path.join(work_dir, "run")
    clock = Clock(seconds, layers)

    def step_done():
        clock.op_end(clips[0])
        clips[0] = 0
        if len(losses) >= LOSS_WINDOW[1] and clock.decide():
            raise BudgetSpent
        clock.op_start()

    def count_clip(*args):
        clips[0] += 1

    def record_loss(root):
        losses.append(float(root.data))

    with Patches() as probes:
        probes.replace(training, "sample_clip",
                       lambda fn: _probe(fn, before=count_clip))
        probes.replace(training, "backward",
                       lambda fn: _probe(fn, before=record_loss))
        probes.replace(training, "adam_step",
                       lambda fn: _probe(fn, after=step_done))
        clock.op_start()
        try:
            training.train(mdl, videos, cfg, out_dir=out_dir)
        except BudgetSpent:
            pass
    clock.finish()

    for step, value in enumerate(losses):
        checks.expect(bool(np.isfinite(value)), f"loss at step {step} is {value}")
    check_params(checks, mdl)
    if not paper:
        path = os.path.join(work_dir, "roundtrip.ddmn")
        training.save_checkpoint(path, mdl,
                                 training.adam_init(mdl.named_params()), 0, seed)
        loaded = BoundaryModel(cfg.model, seed=seed + 1)
        training.load_checkpoint(path, loaded)
        back = loaded.state()
        same = all(np.array_equal(a, back[name])
                   for name, a in mdl.state().items())
        checks.expect(same, "checkpoint does not load back to the parameters")
    lo, hi = LOSS_WINDOW
    result = end_to_end(clock, setup_times)
    result["train_loss_final"] = float(np.mean(losses[lo:hi]))
    return result, checks, clock


def run_infer(seed: int, seconds: float, layers, work_dir: str,
              model_path: str) -> tuple[dict, Checks, Clock]:
    """``predict_dataset`` then ``evaluate`` over the val split, repeated."""
    cfg = config.desk_preset()
    data_dir = os.path.join(work_dir, "data")

    def setup():
        shutil.rmtree(data_dir, ignore_errors=True)
        synth.write_dataset(infer_videos(seed), data_dir)
        videos = synth.read_dataset(data_dir, "val")
        mdl = BoundaryModel(cfg.model, seed=MODEL_SEED)
        training.load_checkpoint(model_path, mdl)
        return videos, mdl

    setup_times, (videos, mdl) = timed_setups(setup, layers)
    checks = Checks()
    clock = Clock(seconds, layers)
    preds = report = None
    with Patches() as probes:
        probes.replace(inference, "predict_video", lambda fn: _probe(
            fn, before=lambda *a: clock.op_start(),
            after=lambda: clock.op_end(1)))
        while not clock.decide():
            preds = inference.predict_dataset(mdl, videos, cfg)
            outcomes = [VideoOutcome(v.video_id, v.num_frames, p.positions,
                                     v.boundaries)
                        for v, p in zip(videos, preds)]
            report = evaluation.evaluate(outcomes, cfg.eval)
    clock.finish()

    for video, pred in zip(videos, preds):
        checks.expect(all(0.0 <= s <= 1.0 for s in pred.scores),
                      f"{video.video_id}: score outside [0, 1]")
    greedy = evaluation.evaluate(
        outcomes, dataclasses.replace(cfg.eval, matching="greedy"))
    check_report(checks, outcomes, report, greedy, "infer-desk")
    # the shortest video fits one 64-position batch, the longest does not
    for video, pred in ((videos[0], preds[0]), (videos[-1], preds[-1])):
        positions, scores = inference.score_video(mdl, video, cfg)
        checks.expect(bool(np.all((scores >= 0.0) & (scores <= 1.0))),
                      f"{video.video_id}: score outside [0, 1]")
        kept = inference.select_peaks(scores, cfg.post)
        checks.expect(tuple(int(positions[i]) for i in kept) == pred.positions,
                      f"{video.video_id}: predictions differ from its scores")
        for i in sorted({0, min(64, len(positions) - 1), len(positions) - 1}):
            clip = sample_clip(video, int(positions[i]), cfg.clip)
            with no_grad():
                single = mdl.forward(clip[None].astype(np.float64)).fused.data[0]
            checks.expect(abs(single - scores[i]) <= SCORE_TOLERANCE,
                          f"{video.video_id}: batched score {scores[i]!r} != "
                          f"single-clip {single!r} at position {positions[i]}")
    result = end_to_end(clock, setup_times)
    result["f1_avg"] = report.average.f1
    return result, checks, clock


def run_eval(seed: int, seconds: float, layers) -> tuple[dict, Checks, Clock]:
    """``evaluate`` (optimal matching, pooled counts) on dense long videos,
    all of them in one call per operation."""
    eval_cfg = EvalConfig()
    setup_times, outcomes = timed_setups(lambda: dense_outcomes(seed), layers)
    checks = Checks()
    clock = Clock(seconds, layers)
    report = None
    while not clock.decide():
        clock.op_start()
        report = evaluation.evaluate(outcomes, eval_cfg)
        clock.op_end(len(outcomes))
    clock.finish()

    greedy_cfg = dataclasses.replace(eval_cfg, matching="greedy")
    check_report(checks, outcomes, report,
                 evaluation.evaluate(outcomes, greedy_cfg), "eval-dense")
    result = end_to_end(clock, setup_times)
    result["f1_avg"] = report.average.f1
    return result, checks, clock
