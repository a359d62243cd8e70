"""Synthetic boundary-labelled videos and their on-disk formats.

A video is a sequence of small RGB frames showing a coloured background and
optionally a moving square.  The video is partitioned into events; at every
event change exactly one regime parameter switches -- the background colour
jumps, the square appears/disappears, or the square's velocity turns --
so each ground-truth boundary has a single visual cause.  Colour jumps are
rejection-sampled to stay above a fixed contrast margin, which keeps
jitter-free boundaries trivially recoverable by frame differencing (a
property the tests rely on).

On disk a dataset is a directory with ``manifest.jsonl`` plus one frames
file per video:

    frames file: magic "DDMF", version u32, then E, H, W, C as u32,
                 then float32 little-endian values, frame-major
    manifest line: {"id", "num_frames", "frames_file", "boundaries", "split"}

Generation is deterministic: every video derives its own random stream from
``(seed, GEN, key(video_id))``, so worker counts and generation order can
never change the corpus.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import rng as rngmod
from .checkpoint import atomic_write_bytes, atomic_write_text
from .config import GenSpec
from .errors import ConfigError, ContractError, DataError

FRAMES_MAGIC = b"DDMF"
FRAMES_VERSION = 1

# minimum mean absolute colour difference across a colour-shift boundary
COLOR_MARGIN = 0.3
# minimum direction change (radians) for a velocity-change boundary
ANGLE_MARGIN = np.pi / 3


@dataclasses.dataclass(frozen=True)
class VideoRecord:
    video_id: str
    frames: np.ndarray  # (E, H, W, 3) float32 in [0, 1]
    boundaries: tuple[int, ...]  # index of the first frame of each new event
    split: str

    @property
    def num_frames(self) -> int:
        return int(self.frames.shape[0])


# ---------------------------------------------------------------------------
# generation


def _draw_color(rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.15, 0.85, 3)


def _contrasting_color(rng: np.random.Generator, against: np.ndarray) -> np.ndarray:
    for _ in range(1000):
        c = _draw_color(rng)
        if np.mean(np.abs(c - against)) >= COLOR_MARGIN:
            return c
    raise ContractError("could not draw a contrasting colour")  # pragma: no cover


def _reflect(x: float, limit: float) -> float:
    """Fold a coordinate into [0, limit] by mirroring at the walls."""
    if limit <= 0.0:
        return 0.0
    period = 2.0 * limit
    m = float(np.mod(x, period))
    return m if m <= limit else period - m


def _event_lengths(rng: np.random.Generator, total: int, events: int,
                   min_len: int) -> np.ndarray:
    extra = total - events * min_len
    return min_len + rng.multinomial(extra, np.full(events, 1.0 / events))


def generate_video(spec: GenSpec, video_id: str, split: str = "train",
                   seed: int | None = None) -> VideoRecord:
    """Render one video; fully determined by (spec, video_id, seed)."""
    spec.validate()
    base_seed = spec.seed if seed is None else seed
    rng = rngmod.stream(base_seed, rngmod.GEN, rngmod.string_key(video_id))

    num_frames = int(rng.integers(spec.min_frames, spec.max_frames + 1))
    events = int(rng.integers(spec.min_events, spec.max_events + 1))
    lengths = _event_lengths(rng, num_frames, events, spec.min_event_len)
    starts = np.concatenate([[0], np.cumsum(lengths)[:-1]])
    boundaries = tuple(int(s) for s in starts[1:])

    h, w, size = spec.height, spec.width, spec.square_size
    row_max, col_max = float(h - size), float(w - size)

    # initial regime parameters
    bg = _draw_color(rng)
    square_regimes = {"appear-disappear", "velocity-change"} & set(spec.regimes)
    if "appear-disappear" in spec.regimes:
        present = bool(rng.random() < 0.5)
    else:
        present = bool(square_regimes)  # velocity changes need a square
    sq_color = _contrasting_color(rng, bg)
    pos = np.array([rng.uniform(0.0, row_max), rng.uniform(0.0, col_max)])
    angle = rng.uniform(0.0, 2.0 * np.pi)

    def velocity(a: float) -> np.ndarray:
        return spec.speed * np.array([np.cos(a), np.sin(a)])

    vel = velocity(angle)

    frames = np.empty((num_frames, h, w, 3), dtype=np.float32)
    anchor_t = 0  # pos/vel describe the square's motion since this frame
    next_boundary = 0  # index into boundaries
    for t in range(num_frames):
        if next_boundary < len(boundaries) and t == boundaries[next_boundary]:
            pos, anchor_t = pos + vel * (t - anchor_t), t
            eligible = [k for k in spec.regimes
                        if k != "velocity-change" or present]
            kind = eligible[int(rng.integers(len(eligible)))]
            if kind == "color-shift":
                bg = _contrasting_color(rng, bg)
            elif kind == "appear-disappear":
                present = not present
                if present:
                    sq_color = _contrasting_color(rng, bg)
                    pos = np.array([rng.uniform(0.0, row_max),
                                    rng.uniform(0.0, col_max)])
                    angle = rng.uniform(0.0, 2.0 * np.pi)
                    vel = velocity(angle)
            else:  # velocity-change: same position, new direction
                for _ in range(1000):
                    new_angle = rng.uniform(0.0, 2.0 * np.pi)
                    delta = abs((new_angle - angle + np.pi) % (2 * np.pi) - np.pi)
                    if delta >= ANGLE_MARGIN:
                        break
                angle, vel = new_angle, velocity(new_angle)
            next_boundary += 1

        canvas = np.broadcast_to(bg, (h, w, 3)).copy()
        if present:
            p = pos + vel * (t - anchor_t)
            if spec.jitter > 0.0:
                p = p + rng.normal(0.0, 8.0 * spec.jitter, 2)
            r = int(round(_reflect(p[0], row_max)))
            c = int(round(_reflect(p[1], col_max)))
            canvas[r:r + size, c:c + size] = sq_color
        if spec.jitter > 0.0:
            canvas = canvas + rng.normal(0.0, spec.jitter)
        frames[t] = np.clip(canvas, 0.0, 1.0)

    return VideoRecord(video_id=video_id, frames=frames,
                       boundaries=boundaries, split=split)


def generate_dataset(spec: GenSpec, workers: int = 1) -> list[VideoRecord]:
    """All train and val videos of the corpus, in manifest order."""
    jobs = [(f"train-{i:04d}", "train") for i in range(spec.train_videos)]
    jobs += [(f"val-{i:04d}", "val") for i in range(spec.val_videos)]
    if workers < 1:
        raise ContractError(f"workers must be >= 1, got {workers}")
    if workers == 1:
        return [generate_video(spec, vid, split) for vid, split in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda jv: generate_video(spec, jv[0], jv[1]), jobs))


# ---------------------------------------------------------------------------
# frames file format


def frames_bytes(frames: np.ndarray) -> bytes:
    arr = np.asarray(frames, dtype="<f4")
    if arr.ndim != 4:
        raise DataError(f"frames must be (E,H,W,C), got shape {arr.shape}")
    buf = io.BytesIO()
    buf.write(FRAMES_MAGIC)
    buf.write(struct.pack("<I", FRAMES_VERSION))
    buf.write(struct.pack("<4I", *arr.shape))
    buf.write(arr.tobytes(order="C"))
    return buf.getvalue()


def write_frames(path, frames: np.ndarray) -> None:
    atomic_write_bytes(path, frames_bytes(frames))


def read_frames(path) -> np.ndarray:
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise DataError(f"cannot read frames file {path}: {err}") from err
    if len(blob) < 24 or blob[:4] != FRAMES_MAGIC:
        raise DataError(f"{path}: bad magic {blob[:4]!r}, expected {FRAMES_MAGIC!r}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FRAMES_VERSION:
        raise DataError(f"{path}: unsupported frames version {version}")
    shape = struct.unpack_from("<4I", blob, 8)
    count = int(np.prod(shape))
    expected = 24 + 4 * count
    if len(blob) != expected:
        raise DataError(
            f"{path}: size {len(blob)} does not match header "
            f"(expected {expected} bytes)")
    frames = np.frombuffer(blob, dtype="<f4", count=count, offset=24)
    frames = frames.reshape(shape).astype(np.float32)
    if frames.size and (frames.min() < 0.0 or frames.max() > 1.0):
        raise DataError(f"{path}: frame values outside [0, 1]")
    return frames


# ---------------------------------------------------------------------------
# dataset directory


def write_dataset(records: list[VideoRecord], out_dir) -> str:
    out_dir = os.fspath(out_dir)
    frames_dir = os.path.join(out_dir, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    lines = []
    for rec in records:
        rel = f"frames/{rec.video_id}.ddmf"
        write_frames(os.path.join(out_dir, rel), rec.frames)
        lines.append(json.dumps({
            "id": rec.video_id,
            "num_frames": rec.num_frames,
            "frames_file": rel,
            "boundaries": list(rec.boundaries),
            "split": rec.split,
        }))
    manifest = os.path.join(out_dir, "manifest.jsonl")
    atomic_write_text(manifest, "".join(line + "\n" for line in lines))
    return manifest


def read_manifest(data_dir, split: str | None = None) -> list[dict]:
    """Validated manifest entries, without touching the frame files.

    Each entry has keys id, num_frames, frames_file, boundaries (tuple of
    ints) and split.  Duplicate ids anywhere in the manifest are rejected
    even when a split filter would drop them.
    """
    data_dir = os.fspath(data_dir)
    manifest = os.path.join(data_dir, "manifest.jsonl")
    try:
        with open(manifest, "r", encoding="utf-8") as fh:
            raw_lines = fh.read().splitlines()
    except OSError as err:
        raise DataError(f"cannot read manifest {manifest}: {err}") from err
    entries = []
    seen = set()
    for lineno, line in enumerate(raw_lines, 1):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as err:
            raise DataError(f"{manifest}:{lineno}: bad JSON: {err}") from err
        try:
            vid = entry["id"]
            num_frames = entry["num_frames"]
            rel = entry["frames_file"]
            boundaries = entry["boundaries"]
            vsplit = entry["split"]
        except KeyError as err:
            raise DataError(f"{manifest}:{lineno}: missing key {err}") from err
        if vid in seen:
            raise DataError(f"{manifest}:{lineno}: duplicate video id {vid!r}")
        seen.add(vid)
        bt = tuple(int(b) for b in boundaries)
        if list(bt) != sorted(set(bt)) or any(
                not 0 < b < num_frames for b in bt):
            raise DataError(
                f"{manifest}:{lineno}: boundaries must be strictly increasing "
                f"and inside (0, {num_frames}), got {boundaries}")
        if split is not None and vsplit != split:
            continue
        entries.append({"id": vid, "num_frames": int(num_frames),
                        "frames_file": rel, "boundaries": bt,
                        "split": vsplit})
    if split is not None and not entries:
        raise DataError(f"{manifest}: no videos with split {split!r}")
    return entries


def read_dataset(data_dir, split: str | None = None) -> list[VideoRecord]:
    data_dir = os.fspath(data_dir)
    records = []
    for entry in read_manifest(data_dir, split):
        frames = read_frames(os.path.join(data_dir, entry["frames_file"]))
        if frames.shape[0] != entry["num_frames"]:
            raise DataError(
                f"{data_dir}: manifest says {entry['num_frames']} frames for "
                f"{entry['id']} but {entry['frames_file']} holds "
                f"{frames.shape[0]}")
        records.append(VideoRecord(video_id=entry["id"], frames=frames,
                                   boundaries=entry["boundaries"],
                                   split=entry["split"]))
    return records
