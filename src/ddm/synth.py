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
    manifest line: one ``ManifestEntry`` as a JSON object, its fields as
                   keys, every value strictly typed (see ``config.typed``)

Both are written and read through the file layer in ``checkpoint``.

Generation is deterministic: every video derives its own random stream from
``(seed, GEN, key(video_id))``, so worker counts and generation order can
never change the corpus.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import rng as rngmod
from .checkpoint import atomic_file, check_header, read_file
from .config import GenSpec, read_jsonl, write_jsonl
from .errors import ContractError, DataError

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


@dataclasses.dataclass(frozen=True)
class ManifestEntry:
    """One ``manifest.jsonl`` line; its fields are the line's keys."""

    id: str
    num_frames: int
    frames_file: str  # relative to the dataset directory
    boundaries: tuple[int, ...]
    split: str


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


def write_frames(path, frames: np.ndarray) -> None:
    """The 24-byte header, then the frames as C-ordered ``<f4`` values."""
    arr = np.ascontiguousarray(frames, dtype="<f4")
    if arr.ndim != 4:
        raise DataError(f"frames must be (E,H,W,C), got shape {arr.shape}")
    with atomic_file(path) as fh:
        fh.write(FRAMES_MAGIC)
        fh.write(struct.pack("<5I", FRAMES_VERSION, *arr.shape))
        fh.write(arr)


def read_frames(path) -> np.ndarray:
    blob = read_file(path)
    check_header(path, blob, FRAMES_MAGIC, FRAMES_VERSION, 24, "frames")
    shape = struct.unpack_from("<4I", blob, 8)
    count = math.prod(shape)  # Python ints: four large extents cannot wrap
    expected = 24 + 4 * count
    if len(blob) != expected:
        raise DataError(
            f"{path}: size {len(blob)} does not match header "
            f"(expected {expected} bytes)")
    if shape[3] != 3:
        raise DataError(f"{path}: frames have {shape[3]} channels, expected 3")
    frames = np.frombuffer(blob, dtype="<f4", count=count, offset=24)
    frames = frames.reshape(shape).astype(np.float32)
    # written so that NaN, which fails every comparison, fails the check
    if frames.size and not (frames.min() >= 0.0 and frames.max() <= 1.0):
        raise DataError(f"{path}: frame values outside [0, 1]")
    return frames


# ---------------------------------------------------------------------------
# dataset directory


def write_dataset(records: list[VideoRecord], out_dir) -> str:
    os.makedirs(os.path.join(out_dir, "frames"), exist_ok=True)
    entries = []
    for rec in records:
        entry = ManifestEntry(id=rec.video_id, num_frames=rec.num_frames,
                              frames_file=f"frames/{rec.video_id}.ddmf",
                              boundaries=rec.boundaries, split=rec.split)
        write_frames(os.path.join(out_dir, entry.frames_file), rec.frames)
        entries.append(entry)
    manifest = os.path.join(out_dir, "manifest.jsonl")
    write_jsonl(manifest, entries)
    return manifest


def read_manifest(data_dir, split: str | None = None) -> list[ManifestEntry]:
    """Validated manifest entries, without touching the frame files.

    Duplicate ids anywhere in the manifest are rejected even when a split
    filter would drop them.
    """
    manifest = os.path.join(os.fspath(data_dir), "manifest.jsonl")
    entries = []
    seen = set()
    for lineno, entry in read_jsonl(manifest, ManifestEntry):
        if entry.id in seen:
            raise DataError(
                f"{manifest}:{lineno}: duplicate video id {entry.id!r}")
        seen.add(entry.id)
        if entry.num_frames < 1:
            raise DataError(
                f"{manifest}:{lineno}: num_frames must be >= 1, got "
                f"{entry.num_frames}")
        bt = entry.boundaries
        if list(bt) != sorted(set(bt)) or any(
                not 0 < b < entry.num_frames for b in bt):
            raise DataError(
                f"{manifest}:{lineno}: boundaries must be strictly increasing "
                f"and inside (0, {entry.num_frames}), got {list(bt)}")
        if os.path.isabs(entry.frames_file) or "\0" in entry.frames_file \
                or os.pardir in entry.frames_file.split("/"):
            raise DataError(
                f"{manifest}:{lineno}: frames_file {entry.frames_file!r} "
                f"must be a relative path inside the dataset directory")
        if split is None or entry.split == split:
            entries.append(entry)
    if split is not None and not entries:
        raise DataError(f"{manifest}: no videos with split {split!r}")
    return entries


def read_dataset(data_dir, split: str | None = None) -> list[VideoRecord]:
    records = []
    for entry in read_manifest(data_dir, split):
        frames = read_frames(os.path.join(data_dir, entry.frames_file))
        if frames.shape[0] != entry.num_frames:
            raise DataError(
                f"{data_dir}: manifest says {entry.num_frames} frames for "
                f"{entry.id} but {entry.frames_file} holds {frames.shape[0]}")
        records.append(VideoRecord(video_id=entry.id, frames=frames,
                                   boundaries=entry.boundaries,
                                   split=entry.split))
    return records
