"""Label assignment, balanced sampling, Adam, and the training loop.

Scored positions form the grid 0, stride, 2*stride, ... along each video.
A position is positive iff some ground-truth boundary lies in the half-open
interval (position - stride/2, position + stride/2]; the comparison is done
in doubled integers so no float rounding is involved.

Boundaries are rare, so batches are built from *all* positives plus a
thinned negative set: every maximal run of negative positions is cut into
ceil(run/neg_run) contiguous chunks of at most ``neg_run`` and one index is
drawn uniformly per chunk.  All random choices derive from
``(seed, purpose, epoch, video)`` streams, which makes runs reproducible
and lets a resumed run continue bit-exactly: a checkpoint only needs the
parameters, Adam moments, and the (seed, epoch, step) counters.

Adam updates parameters and moments in place: ``p.data`` and the arrays in
:class:`AdamState` are overwritten each step, so code that needs an earlier
value copies it, as ``BoundaryModel.state()`` does.

Checkpoints are record containers laid out by :func:`checkpoint_layout`,
which both saving and loading follow; the loss curve is ``loss.csv`` with
``step,epoch,loss`` rows at full float precision.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .checkpoint import atomic_write_text, load_records, save_records
from .config import RunConfig
from .errors import ContractError, DataError, NumericError
from .feature_bank import sample_clip
from .model import BoundaryModel
from .synth import VideoRecord
from .tensor import backward, zero_grad

log = logging.getLogger("ddm.training")


# ---------------------------------------------------------------------------
# positions and labels


def evaluated_positions(num_frames: int, stride: int) -> np.ndarray:
    """The scored position grid 0, stride, ... (< num_frames)."""
    if num_frames < 1:
        raise ContractError("video has no frames")
    if stride < 1:
        raise ContractError(f"stride must be >= 1, got {stride}")
    return np.arange(0, num_frames, stride)


def assign_labels(boundaries, num_frames: int, stride: int):
    """Returns (positions, labels); labels are 1 near a boundary.

    Position p is positive iff a boundary b satisfies
    ``p - stride/2 < b <= p + stride/2``; each boundary lands on exactly one
    grid position.
    """
    positions = evaluated_positions(num_frames, stride)
    labels = np.zeros(len(positions), dtype=np.int64)
    two_p = 2 * positions
    for b in boundaries:
        if not 0 < b < num_frames:
            raise ContractError(
                f"boundary {b} outside frame range (0, {num_frames})")
        hit = (two_p - stride < 2 * b) & (2 * b <= two_p + stride)
        labels[hit] = 1
    return positions, labels


def balanced_sample(labels: np.ndarray, neg_run: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Indices of all positives plus one draw per negative chunk."""
    if neg_run < 1:
        raise ContractError(f"neg_run must be >= 1, got {neg_run}")
    labels = np.asarray(labels)
    chosen = list(np.nonzero(labels == 1)[0])
    run_start = None
    runs = []
    for i, lab in enumerate(labels):
        if lab == 0 and run_start is None:
            run_start = i
        elif lab == 1 and run_start is not None:
            runs.append((run_start, i))
            run_start = None
    if run_start is not None:
        runs.append((run_start, len(labels)))
    for start, stop in runs:
        for chunk in range(start, stop, neg_run):
            width = min(neg_run, stop - chunk)
            chosen.append(chunk + int(rng.integers(width)))
    return np.sort(np.asarray(chosen, dtype=np.int64))


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def adam_init(params: dict) -> AdamState:
    return AdamState(
        step=0,
        m={name: np.zeros_like(p.data) for name, p in params.items()},
        v={name: np.zeros_like(p.data) for name, p in params.items()},
    )


def adam_step(params: dict, state: AdamState, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One update, in place: each ``p.data`` and its moments in ``state`` are
    overwritten, so a caller that needs an old value copies it first, as
    ``BoundaryModel.state()`` does.  Parameters with no gradient decay their
    moments only.

    Every gradient is checked before anything is written: a gradient whose
    shape is not its parameter's raises ``ContractError``, a non-finite one
    ``NumericError`` naming the first such parameter in ``params`` order, and
    either leaves parameters, moments and ``state.step`` as they were.  On a
    large model the check and the update each run on two threads
    (:func:`_on_halves`); each element is written by one thread in one
    operation order, so the bits do not depend on the split.
    """
    t = state.step + 1
    work = []
    for name, p in params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ContractError(f"gradient for {name!r} has shape {g.shape}, "
                                f"parameter has {p.data.shape}")
        work.append((name, p.data, g, state.m[name], state.v[name]))
    for bad in _on_halves(_first_non_finite, work):
        if bad is not None:
            raise NumericError(f"non-finite gradient for {bad!r} at step {t}")
    state.step = t
    _on_halves(_adam_update, work, lr, beta1, beta2, eps,
               1.0 - beta1 ** t, 1.0 - beta2 ** t)


# Below this many parameter elements the thread costs more than it saves:
# in training, the desk model's 0.50 M take 8.0 ms per update on one thread
# and 10.3 ms on two; alone, the paper model's 20.45 M take about 195 ms on
# one and 105-135 ms on two (2-core Xeon).
_THREADED_ADAM = 1 << 20


def _on_halves(fn, work: list, *args) -> list:
    """``fn(part, *args)`` for each half of ``work`` in order, cut after the
    item where the running element count first reaches half of the total;
    from _THREADED_ADAM elements on, and with more than one usable core, a
    worker thread runs the second half while the caller runs the first."""
    total = sum(g.size for _, _, g, _, _ in work)
    if total >= _THREADED_ADAM and _usable_cores() > 1:
        sizes = np.cumsum([g.size for _, _, g, _, _ in work])
        cut = int(np.searchsorted(sizes, total / 2)) + 1
        if cut < len(work):
            with ThreadPoolExecutor(max_workers=1) as pool:
                other = pool.submit(fn, work[cut:], *args)
                return [fn(work[:cut], *args), other.result()]
    return [fn(work, *args)]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _first_non_finite(work: list) -> str | None:
    return next((name for name, _, g, _, _ in work
                 if not np.all(np.isfinite(g))), None)


def _adam_update(work: list, lr, beta1, beta2, eps, bc1, bc2) -> None:
    """Applies ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g``
    and ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)`` to each (name, parameter
    data, gradient, m, v) in ``work``, in place and in that operation order,
    with two scratch buffers sized for the largest parameter."""
    size = max((g.size for _, _, g, _, _ in work), default=0)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for _, data, g, m, v in work:
        a = scratch_a[:g.size].reshape(g.shape)
        b = scratch_b[:g.size].reshape(g.shape)
        np.multiply(m, beta1, out=m)
        np.multiply(g, 1.0 - beta1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(g, 1.0 - beta2, out=a)
        np.multiply(a, g, out=a)
        np.add(v, a, out=v)
        np.divide(m, bc1, out=a)
        np.multiply(a, lr, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        np.add(b, eps, out=b)
        np.divide(a, b, out=a)
        np.subtract(data, a, out=data)


# ---------------------------------------------------------------------------
# checkpoints


META = {"epoch": -1, "step": 0, "seed": 0}  # lowest values; epochs 0 saves -1


def checkpoint_layout(model: BoundaryModel) -> dict[str, tuple]:
    """Record name -> (group, key, shape) in file order: ``param/<name>``,
    then ``adam/m/<name>`` and ``adam/v/<name>`` in ``named_params()``
    order, then the 0-d ``meta/epoch``, ``meta/step`` and ``meta/seed``."""
    shapes = {name: p.data.shape for name, p in model.named_params().items()}
    layout = {f"{group}/{name}": (group, name, shape)
              for group in ("param", "adam/m", "adam/v")
              for name, shape in shapes.items()}
    return layout | {f"meta/{key}": ("meta", key, ()) for key in META}


def save_checkpoint(path, model: BoundaryModel, state: AdamState,
                    epoch: int, seed: int) -> None:
    groups = {"param": {n: p.data for n, p in model.named_params().items()},
              "adam/m": state.m, "adam/v": state.v,
              "meta": {"epoch": epoch, "step": state.step, "seed": seed}}
    save_records(path, {record: groups[group][key] for record, (group, key, _)
                        in checkpoint_layout(model).items()})


def load_checkpoint(path, model: BoundaryModel) -> tuple[AdamState, dict]:
    """Restore parameters and optimiser state; returns (state, meta).  A
    record that is missing, unexpected, not of its :func:`checkpoint_layout`
    shape, or a meta value that is no integer >= its ``META`` bound raises a
    ``DataError`` naming the file and the record, and the model stays as is."""
    records = load_records(path)
    layout = checkpoint_layout(model)
    for record in records:
        if record not in layout:
            raise DataError(f"{path}: unexpected record {record!r}")
    groups = {group: {} for group, _, _ in layout.values()}
    for record, (group, key, shape) in layout.items():
        if record not in records:
            raise DataError(f"{path}: missing record {record!r}")
        value = records[record]
        if value.shape != shape:
            raise DataError(f"{path}: record {record!r} has shape "
                            f"{value.shape}, expected {shape}")
        # NaN and inf are no integers
        if group == "meta" and not (float(value).is_integer()
                                    and value >= META[key]):
            raise DataError(f"{path}: record {record!r} must be an integer "
                            f">= {META[key]}, got {float(value)}")
        groups[group][key] = value
    meta = {key: int(value) for key, value in groups["meta"].items()}
    for name, p in model.named_params().items():
        p.data = groups["param"][name]
    return AdamState(meta["step"], groups["adam/m"], groups["adam/v"]), meta


# ---------------------------------------------------------------------------
# the loop


@dataclass
class TrainResult:
    loss_rows: list[tuple[int, int, float]]  # (global step, epoch, loss)
    checkpoint_paths: list[str]
    final_path: str | None


def loss_csv_text(rows) -> str:
    lines = ["step,epoch,loss"]
    lines += [f"{step},{epoch},{value:.17g}" for step, epoch, value in rows]
    return "\n".join(lines) + "\n"


def _epoch_items(videos, cfg: RunConfig, epoch: int):
    """(video_index, centre position, label) triples, shuffled."""
    items = []
    for vi, video in enumerate(videos):
        positions, labels = assign_labels(video.boundaries, video.num_frames,
                                          cfg.eval_stride)
        srng = rngmod.stream(cfg.train.seed, rngmod.SAMPLE, epoch, vi)
        for idx in balanced_sample(labels, cfg.train.neg_run, srng):
            items.append((vi, int(positions[idx]), int(labels[idx])))
    order = rngmod.stream(cfg.train.seed, rngmod.SHUFFLE, epoch).permutation(
        len(items))
    return [items[i] for i in order]


def train(model: BoundaryModel, videos: list[VideoRecord], cfg: RunConfig,
          out_dir=None, resume_from=None) -> TrainResult:
    """Train in place; optionally write per-epoch checkpoints and loss.csv."""
    if not videos:
        raise ContractError("no training videos")
    size = videos[0].frames.shape[1:3]
    for video in videos:  # the clips of a batch are stacked into one array
        if video.frames.shape[1:3] != size:
            raise DataError(
                f"training video {video.video_id!r} has frames of size "
                f"{video.frames.shape[1:3]}, but {videos[0].video_id!r} {size}")
    tc = cfg.train
    params = model.named_params()
    state = adam_init(params)
    start_epoch = 0
    if resume_from is not None:
        state, meta = load_checkpoint(resume_from, model)
        if meta["seed"] != tc.seed:
            raise DataError(
                f"checkpoint {os.fspath(resume_from)} was trained with seed "
                f"{meta['seed']}, not {tc.seed}")
        start_epoch = meta["epoch"] + 1
        log.info("resuming from %s at epoch %d", resume_from, start_epoch)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    rows: list[tuple[int, int, float]] = []
    paths: list[str] = []
    step = state.step
    for epoch in range(start_epoch, tc.epochs):
        items = _epoch_items(videos, cfg, epoch)
        for lo in range(0, len(items), tc.batch_size):
            batch = items[lo:lo + tc.batch_size]
            clips = np.stack([
                sample_clip(videos[vi], pos, cfg.clip) for vi, pos, _ in batch])
            labels = np.array([float(lab) for _, _, lab in batch])
            out = model.forward(clips.astype(np.float64))
            loss = model.loss(out, labels)
            value = loss.item()
            if not np.isfinite(value):
                raise NumericError(f"loss diverged at step {step + 1}")
            zero_grad(params.values())
            backward(loss)
            adam_step(params, state, tc.lr, tc.beta1, tc.beta2, tc.eps)
            step = state.step
            rows.append((step, epoch, value))
        epoch_losses = [v for s, e, v in rows if e == epoch]
        log.info("epoch %d: %d steps, mean loss %.5f", epoch,
                 len(epoch_losses), float(np.mean(epoch_losses)))
        if out_dir is not None:
            path = os.path.join(out_dir, f"epoch_{epoch:03d}.ddmn")
            save_checkpoint(path, model, state, epoch, tc.seed)
            paths.append(path)
            atomic_write_text(os.path.join(out_dir, "loss.csv"),
                              loss_csv_text(rows))

    final_path = None
    if out_dir is not None:
        final_path = os.path.join(out_dir, "final.ddmn")
        save_checkpoint(final_path, model, state,
                        max(tc.epochs - 1, start_epoch - 1), tc.seed)
    return TrainResult(loss_rows=rows, checkpoint_paths=paths,
                       final_path=final_path)
