"""Configuration validation, serialisation, presets."""

import dataclasses
import re

import pytest

from ddm import config as C
from ddm.errors import ConfigError


def test_defaults_validate():
    C.RunConfig()


@pytest.mark.parametrize("preset", sorted(C.PRESETS))
def test_presets_validate(preset):
    C.PRESETS[preset]()


def test_desk_and_paper_presets_differ_where_expected():
    desk, paper = C.desk_preset(), C.paper_preset()
    assert desk.clip.stride == 3 and paper.clip.stride == 6
    assert desk.clip.half_window == paper.clip.half_window == 5
    assert paper.model.intra_layers == paper.model.cross_layers == 6
    assert paper.model.queries == 5
    assert paper.model.spatial_levels == paper.model.temporal_levels == 3
    assert paper.train.lr == 1e-5 and paper.train.batch_size == 32
    assert desk.train.lr > paper.train.lr
    assert desk.model.width < paper.model.width


@pytest.mark.parametrize("section,field,value", [
    ("clip", "half_window", -1),
    ("clip", "stride", 0),
    ("model", "width", 63),          # odd, and != deepest backbone width
    ("model", "heads", 7),           # does not divide 64
    ("model", "dilations", ()),
    ("model", "temporal_kernel", 4),
    ("model", "queries", 0),
    ("model", "metric", "hamming"),
    ("model", "ablate", "no-op"),
    ("train", "batch_size", 0),
    ("train", "lr", -1.0),
    ("train", "beta1", 1.0),
    ("train", "eps", 0.0),
    ("train", "neg_run", 0),
    ("post", "theta", 0.0),
    ("post", "theta", 1.0),
    ("post", "window", 0),
    ("eval", "thresholds", (0.2, 0.1)),
    ("eval", "matching", "hungarian-ish"),
    ("eval", "aggregation", "macro?"),
    ("gen", "min_event_len", 1),
    ("gen", "regimes", ("color-shift", "teleport")),
    ("gen", "jitter", -0.1),
    ("gen", "square_size", 0),
    ("train", "seed", -1),
    ("gen", "seed", -1),
])
def test_invalid_values_rejected(section, field, value):
    with pytest.raises(ConfigError):
        dataclasses.replace(getattr(C.RunConfig(), section), **{field: value})


def test_eval_stride_must_be_positive():
    with pytest.raises(ConfigError, match="eval_stride"):
        dataclasses.replace(C.RunConfig(), eval_stride=0)


@pytest.mark.parametrize("text", [
    '{"model": {"heads": 7}}',
    '{"eval_stride": 0}',
    '{"gen": {"min_frames": 30, "max_frames": 40}}',
])
def test_decoded_values_are_checked(text):
    with pytest.raises(ConfigError):
        C.loads(text)


def test_config_root_must_be_an_object():
    with pytest.raises(ConfigError, match="config must be an object"):
        C.loads("[]")


def test_event_budget_must_fit_in_shortest_video():
    with pytest.raises(ConfigError):
        C.GenSpec(min_frames=30, max_frames=40, max_events=4,
                  min_event_len=12)


def test_json_round_trip_preserves_everything():
    cfg = C.paper_preset()
    again = C.loads(C.dumps(cfg))
    assert again == cfg


def test_json_round_trip_of_modified_config():
    cfg = dataclasses.replace(
        C.desk_preset(),
        model=dataclasses.replace(C.desk_preset().model, metric="cosine",
                                  ablate="rgb-only"),
        eval_stride=5)
    assert C.loads(C.dumps(cfg)) == cfg


def test_unknown_section_rejected():
    with pytest.raises(ConfigError,
                       match=r"config\.optimizer: unknown RunConfig field"):
        C.loads('{"optimizer": {}}')


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        C.loads('{"train": {"momentum": 0.9}}')


@pytest.mark.parametrize("payload,where", [
    ({"model": {"heads": "4"}}, "model.heads"),
    ({"model": {"heads": True}}, "model.heads"),
    ({"gen": {"seed": 1.5}}, "gen.seed"),
    ({"model": {"backbone_widths": 16}}, "model.backbone_widths"),
    ({"model": {"backbone_widths": [16, 32.0, 64]}}, "model.backbone_widths"),
    ({"model": {"ffn_hidden": 8.5}}, "model.ffn_hidden"),
    ({"model": {"metric": 1}}, "model.metric"),
    ({"post": {"theta": "0.5"}}, "post.theta"),
    ({"post": {"theta": False}}, "post.theta"),
    ({"eval": {"thresholds": [0.1, "0.2"]}}, "eval.thresholds"),
    ({"gen": {"regimes": ["color-shift", 3]}}, "gen.regimes"),
    ({"train": {"batch_size": 2.5}}, "train.batch_size"),
    ({"eval_stride": "3"}, "eval_stride"),
    ({"gen": {"speed": float("nan")}}, "gen.speed"),
    ({"gen": {"jitter": float("inf")}}, "gen.jitter"),
    ({"train": {"eps": -float("inf")}}, "train.eps"),
    ({"train": {"lr": 10 ** 400}}, "train.lr"),
    ({"eval": {"thresholds": [0.1, float("nan")]}}, "eval.thresholds[1]"),
])
def test_wrong_typed_values_rejected_with_their_field(payload, where):
    with pytest.raises(ConfigError, match=re.escape(where)):
        C.from_dict(payload)


def test_typed_values_accepted():
    cfg = C.from_dict({"model": {"ffn_hidden": None},
                       "train": {"lr": 1, "epochs": 3},
                       "eval": {"thresholds": [0.25, 1]},
                       "gen": {"regimes": ["color-shift"]}})
    assert cfg.model.ffn_hidden is None
    assert cfg.train.lr == 1 and cfg.train.epochs == 3
    assert cfg.eval.thresholds == (0.25, 1)
    assert cfg.gen.regimes == ("color-shift",)
    assert C.from_dict({"model": {"ffn_hidden": 8}}).model.ffn_width == 8


def test_malformed_json_rejected():
    with pytest.raises(ConfigError, match="JSON"):
        C.loads("{not json")


def test_threshold_grid_default():
    cfg = C.EvalConfig()
    assert len(cfg.thresholds) == 10
    assert cfg.thresholds[0] == 0.05 and cfg.thresholds[-1] == 0.5


def test_level_counts():
    m = C.ModelConfig()
    assert m.spatial_levels == 3 and m.temporal_levels == 3
    assert m.num_levels == 9
    assert m.ffn_width == 2 * m.width
