"""Frozen dataclass configuration for every pipeline stage.

A ``RunConfig`` bundles generation, clip sampling, model, training,
post-processing and evaluation settings and serialises to/from JSON so each
run can snapshot the exact configuration it executed with.  Two presets are
provided: ``desk`` (small widths, large learning rate -- minutes on a CPU)
and ``paper`` (full-scale hyperparameters: window 5, clip stride 6, three
spatial and three temporal levels, five queries, six-layer decoders,
learning rate 1e-5).  Every JSON input -- a config, or a line of a
JSON-lines file -- is decoded from UTF-8 by :func:`parse_json`, then into a
config or dataclass record by :func:`typed`.

Each config dataclass checks its values in ``__post_init__``, so an invalid
config cannot be built, whether by its constructor, ``dataclasses.replace``
or :func:`typed`, and code that receives one does not check it again.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing
from dataclasses import dataclass, field

from .checkpoint import atomic_write_text, read_file
from .errors import ConfigError, DataError

METRICS = ("euclidean", "manhattan", "chebyshev", "cosine")
ABLATIONS = ("none", "rgb-only", "ddm-only", "avg-pool", "intra-only",
             "cross-only")
REGIMES = ("color-shift", "appear-disappear", "velocity-change")
MATCHINGS = ("optimal", "greedy")
AGGREGATIONS = ("global", "per-video")


@dataclass(frozen=True)
class ClipSpec:
    """Sliding clip geometry around a candidate position.

    A clip covers offsets ``-half_window*stride .. +half_window*stride`` in
    steps of ``stride``, so its length is ``2*half_window + 1`` frames;
    out-of-range indices clamp to the first/last frame.  ``half_window = 0``
    degenerates to the centre frame alone.
    """

    half_window: int = 5
    stride: int = 6

    @property
    def length(self) -> int:
        return 2 * self.half_window + 1

    def __post_init__(self) -> None:
        if self.half_window < 0:
            raise ConfigError(f"half_window must be >= 0, got {self.half_window}")
        if self.stride < 1:
            raise ConfigError(f"clip stride must be >= 1, got {self.stride}")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of the two-branch boundary classifier.

    ``backbone_widths`` lists the per-stage channel counts of the spatial
    backbone (its length is the number of spatial levels); ``width`` is the
    shared channel count of the difference-map embedding and all attention
    blocks and must equal the deepest backbone width.  ``dilations`` sets
    one temporal branch per entry, applied at every spatial level.
    """

    backbone_widths: tuple[int, ...] = (16, 32, 64)
    width: int = 64
    dilations: tuple[int, ...] = (1, 2, 4)
    temporal_kernel: int = 3
    queries: int = 5
    heads: int = 4
    intra_layers: int = 2
    cross_layers: int = 2
    ffn_hidden: int | None = None
    metric: str = "euclidean"
    ablate: str = "none"

    @property
    def spatial_levels(self) -> int:
        return len(self.backbone_widths)

    @property
    def temporal_levels(self) -> int:
        return len(self.dilations)

    @property
    def num_levels(self) -> int:
        """Total feature-bank sequences: spatial levels x temporal levels."""
        return self.spatial_levels * self.temporal_levels

    @property
    def ffn_width(self) -> int:
        return 2 * self.width if self.ffn_hidden is None else self.ffn_hidden

    def __post_init__(self) -> None:
        if not self.backbone_widths or any(w < 1 for w in self.backbone_widths):
            raise ConfigError(f"bad backbone widths {self.backbone_widths}")
        if self.width != self.backbone_widths[-1]:
            raise ConfigError(
                f"width {self.width} must equal the deepest backbone width "
                f"{self.backbone_widths[-1]}")
        if self.width % 2 != 0:
            raise ConfigError(f"width must be even, got {self.width}")
        if self.width % self.heads != 0:
            raise ConfigError(
                f"width {self.width} not divisible by {self.heads} heads")
        if not self.dilations or any(d < 1 for d in self.dilations):
            raise ConfigError(f"bad dilation schedule {self.dilations}")
        if self.temporal_kernel < 1 or self.temporal_kernel % 2 == 0:
            raise ConfigError(
                f"temporal kernel must be odd and positive, got "
                f"{self.temporal_kernel}")
        if self.queries < 1:
            raise ConfigError(f"need at least one query, got {self.queries}")
        if self.intra_layers < 1 or self.cross_layers < 1:
            raise ConfigError("decoder stacks need at least one layer")
        if self.ffn_width < 1:
            raise ConfigError(f"bad feed-forward width {self.ffn_hidden}")
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}; pick from {METRICS}")
        if self.ablate not in ABLATIONS:
            raise ConfigError(
                f"unknown ablation {self.ablate!r}; pick from {ABLATIONS}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    neg_run: int = 6  # max negative-run chunk length for balanced sampling
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.lr < 0.0:
            raise ConfigError(f"learning rate must be >= 0, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(
                f"moment decays must lie in [0, 1), got {self.beta1}, {self.beta2}")
        if self.eps <= 0.0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.neg_run < 1:
            raise ConfigError(f"neg_run must be >= 1, got {self.neg_run}")
        if self.seed < 0:
            raise ConfigError(f"train seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class PostConfig:
    """Score thresholding and local-maximum selection."""

    theta: float = 0.5
    window: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ConfigError(f"theta must lie in (0, 1), got {self.theta}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")


@dataclass(frozen=True)
class EvalConfig:
    """Relative-distance matching thresholds and aggregation choices."""

    thresholds: tuple[float, ...] = tuple((k + 1) / 20 for k in range(10))
    matching: str = "optimal"
    aggregation: str = "global"

    def __post_init__(self) -> None:
        if not self.thresholds or any(not 0.0 < t <= 1.0 for t in self.thresholds):
            raise ConfigError(f"bad threshold list {self.thresholds}")
        if list(self.thresholds) != sorted(self.thresholds):
            raise ConfigError("thresholds must be sorted ascending")
        if self.matching not in MATCHINGS:
            raise ConfigError(f"unknown matching {self.matching!r}")
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(f"unknown aggregation {self.aggregation!r}")


@dataclass(frozen=True)
class GenSpec:
    """Synthetic video corpus description.

    Videos show a coloured background and optionally a moving square; at
    each boundary exactly one regime parameter changes (background colour,
    square presence, or square velocity, per ``regimes``).  ``jitter`` adds
    per-frame brightness noise and square-position wobble.
    """

    train_videos: int = 64
    val_videos: int = 32
    min_frames: int = 90
    max_frames: int = 110
    min_events: int = 2
    max_events: int = 4
    min_event_len: int = 12
    height: int = 24
    width: int = 24
    square_size: int = 7
    speed: float = 1.5
    jitter: float = 0.0
    regimes: tuple[str, ...] = ("color-shift", "appear-disappear")
    seed: int = 0

    def __post_init__(self) -> None:
        if self.train_videos < 0 or self.val_videos < 0:
            raise ConfigError("video counts must be >= 0")
        if not 1 <= self.min_frames <= self.max_frames:
            raise ConfigError(
                f"bad frame-count range [{self.min_frames}, {self.max_frames}]")
        if not 1 <= self.min_events <= self.max_events:
            raise ConfigError(
                f"bad event-count range [{self.min_events}, {self.max_events}]")
        if self.min_event_len < 2:
            raise ConfigError(
                f"min_event_len must be >= 2, got {self.min_event_len}")
        if self.max_events * self.min_event_len > self.min_frames:
            raise ConfigError(
                f"{self.max_events} events of >= {self.min_event_len} frames "
                f"cannot fit into {self.min_frames} frames")
        if self.height < 4 or self.width < 4:
            raise ConfigError(f"frame size too small: {self.height}x{self.width}")
        if not 1 <= self.square_size <= min(self.height, self.width):
            raise ConfigError(f"bad square size {self.square_size}")
        if self.jitter < 0.0:
            raise ConfigError(f"jitter must be >= 0, got {self.jitter}")
        if not self.regimes:
            raise ConfigError("at least one regime kind is required")
        for r in self.regimes:
            if r not in REGIMES:
                raise ConfigError(f"unknown regime {r!r}; pick from {REGIMES}")
        if self.seed < 0:
            raise ConfigError(f"gen seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class RunConfig:
    gen: GenSpec = field(default_factory=GenSpec)
    clip: ClipSpec = field(default_factory=ClipSpec)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    post: PostConfig = field(default_factory=PostConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)
    eval_stride: int = 3  # spacing of scored positions along a video

    def __post_init__(self) -> None:
        if self.eval_stride < 1:
            raise ConfigError(f"eval_stride must be >= 1, got {self.eval_stride}")


# resolving a class's annotations costs ~100 µs, so each is resolved once;
# every caller shares the returned dict and must not change it
_hints = functools.cache(typing.get_type_hints)


def typed(where: str, hint, value, error=ConfigError):
    """``value`` checked against the annotation ``hint`` of field ``where``.

    A dataclass takes an object holding every field that has no default and
    no other key.  Ints must be ints (not floats, strings or bools), floats
    take ints too but only finite values that fit a float, lists become
    tuples checked item by item, and ``X | None`` takes null.  A mismatch
    raises ``error`` naming the field's path.
    """
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise error(f"{where} must be an object, got {value!r}")
        hints = _hints(hint)
        extra = sorted(value.keys() - hints.keys())
        if extra:
            raise error(f"{where}.{extra[0]}: unknown {hint.__name__} field")
        for f in dataclasses.fields(hint):
            if f.name not in value and f.default is dataclasses.MISSING \
                    and f.default_factory is dataclasses.MISSING:
                raise error(f"{where}.{f.name} is missing")
        return hint(**{key: typed(f"{where}.{key}", hints[key], v, error)
                       for key, v in value.items()})
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = set(args) - {type(None)}
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise error(f"{where} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(typed(f"{where}[{i}]", item, v, error)
                     for i, v in enumerate(value))
    allowed = (int, float) if hint is float else hint
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise error(f"{where} must be {hint.__name__}, got {value!r}")
    # NaN fails the comparison; a Python int compares exactly
    if hint is float and not abs(value) <= sys.float_info.max:
        raise error(f"{where} must be a finite float, got {value!r}")
    return value


def from_dict(payload) -> RunConfig:
    return typed("config", RunConfig, payload)


def parse_json(where: str, raw: bytes, error=ConfigError):
    """The JSON value of the UTF-8 bytes ``raw``; undecodable bytes, bad
    JSON or nesting too deep to decode raise ``error`` naming ``where``."""
    try:
        return json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise error(f"{where}: not UTF-8: {err}") from err
    except (ValueError, RecursionError) as err:  # also huge ints, deep nests
        raise error(f"{where}: bad JSON: {err}") from err


def loads(text: str) -> RunConfig:
    return from_dict(parse_json("config", text.encode("utf-8")))


def dumps(cfg: RunConfig) -> str:
    return json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n"


def load_file(path) -> RunConfig:
    return from_dict(parse_json(path, read_file(path, ConfigError)))


def write_jsonl(path, records) -> None:
    """One JSON object per dataclass record, its fields as keys in order."""
    atomic_write_text(path, "".join(json.dumps(dataclasses.asdict(r)) + "\n"
                                    for r in records))


def read_jsonl(path, cls) -> list[tuple[int, object]]:
    """(line number, ``cls`` record) for each non-blank line of ``path``;
    a malformed line raises a ``DataError`` naming ``path:line.field``.
    Lines end at LF, CR or CRLF only, never at a U+2028 in a string."""
    records = []
    for lineno, line in enumerate(read_file(path).splitlines(), 1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}"
        value = parse_json(where, line, DataError)
        records.append((lineno, typed(where, cls, value, DataError)))
    return records


# ---------------------------------------------------------------------------
# presets


def desk_preset() -> RunConfig:
    """Small configuration that trains in minutes on one CPU core."""
    return RunConfig(
        clip=ClipSpec(half_window=5, stride=3),
        model=ModelConfig(),
        train=TrainConfig(),
    )


def paper_preset() -> RunConfig:
    """Full-scale hyperparameters (slow without accelerators)."""
    return RunConfig(
        clip=ClipSpec(half_window=5, stride=6),
        model=ModelConfig(
            backbone_widths=(64, 128, 256),
            width=256,
            dilations=(1, 2, 4),
            queries=5,
            heads=8,
            intra_layers=6,
            cross_layers=6,
        ),
        train=TrainConfig(lr=1e-5, batch_size=32),
    )


PRESETS = {"desk": desk_preset, "paper": paper_preset}
