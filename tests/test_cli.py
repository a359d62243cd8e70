"""End-to-end command-line pipeline: gen-data -> train -> infer -> eval."""

import json
import os
import re
import shutil
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from ddm import config as configmod
from ddm.cli import entry, read_predictions
from ddm.config import read_jsonl
from ddm.errors import (ConfigError, ContractError, DataError, DDMError,
                        DimensionError, NumericError)
from ddm.inference import Prediction, predict_dataset
from ddm.model import BoundaryModel
from ddm.plot import score_curve_svg
from ddm.synth import read_dataset, read_frames, write_frames
from ddm.training import load_checkpoint
from test_synth import DROP, MANIFEST_CASES
from test_training import CHECKPOINT_CASES, break_checkpoint

TINY = {
    "gen": {"train_videos": 3, "val_videos": 2, "min_frames": 18,
            "max_frames": 20, "min_events": 2, "max_events": 2,
            "min_event_len": 5, "height": 12, "width": 12, "square_size": 5,
            "regimes": ["color-shift"], "seed": 0},
    "clip": {"half_window": 2, "stride": 2},
    "model": {"backbone_widths": [4, 6], "width": 6, "dilations": [1, 2],
              "queries": 2, "heads": 2, "intra_layers": 1, "cross_layers": 1,
              "ffn_hidden": 8},
    "train": {"epochs": 1, "batch_size": 8, "lr": 0.001, "neg_run": 4,
              "seed": 0},
    "post": {"theta": 0.3, "window": 2},
    "eval_stride": 3,
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(TINY))
    data, run, pred = root / "data", root / "run", root / "pred"
    assert entry(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
    assert entry(["train", "--config", str(cfg), "--data", str(data),
                  "--out", str(run)]) == 0
    assert entry(["infer", "--config", str(cfg), "--data", str(data),
                  "--checkpoint", str(run / "final.ddmn"),
                  "--out", str(pred)]) == 0
    return SimpleNamespace(root=root, cfg=cfg, data=data, run=run, pred=pred)


# ---------------------------------------------------------------------------
# happy path


def test_gen_data_artifacts(pipeline):
    assert (pipeline.data / "manifest.jsonl").exists()
    assert (pipeline.data / "config.json").exists()
    records = read_dataset(pipeline.data)
    assert len(records) == 5
    assert {r.split for r in records} == {"train", "val"}


def test_train_artifacts(pipeline):
    for name in ("config.json", "loss.csv", "epoch_000.ddmn", "final.ddmn"):
        assert (pipeline.run / name).exists()
    lines = (pipeline.run / "loss.csv").read_text().strip().split("\n")
    assert lines[0] == "step,epoch,loss"
    assert len(lines) > 1


def test_infer_artifacts(pipeline):
    path = pipeline.pred / "predictions.jsonl"
    assert path.exists()
    parsed = [json.loads(line) for line in path.read_text().splitlines()]
    assert [p["video"] for p in parsed] == ["val-0000", "val-0001"]
    for p in parsed:
        assert sorted(p) == ["positions", "scores", "video"]
        assert len(p["positions"]) == len(p["scores"])
        assert all(isinstance(x, int) for x in p["positions"])


def test_eval_prints_table_and_writes_csv(pipeline, tmp_path, capsys):
    code = entry(["eval", "--data", str(pipeline.data),
                  "--predictions", str(pipeline.pred / "predictions.jsonl"),
                  "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0].split() == ["threshold", "precision", "recall", "f1"]
    assert len(lines) == 12 and lines[-1].startswith("average")
    csv_lines = (tmp_path / "report.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 12
    assert csv_lines[0] == "threshold,precision,recall,f1"


def test_eval_flag_variants(pipeline, capsys):
    for flags in (["--matching", "greedy"], ["--aggregation", "per-video"]):
        assert entry(["eval", "--data", str(pipeline.data), "--predictions",
                      str(pipeline.pred / "predictions.jsonl")] + flags) == 0
        capsys.readouterr()


def test_infer_plot_writes_svg(pipeline, tmp_path):
    out = tmp_path / "plotted"
    assert entry(["infer", "--config", str(pipeline.cfg),
                  "--data", str(pipeline.data),
                  "--checkpoint", str(pipeline.run / "final.ddmn"),
                  "--out", str(out), "--plot"]) == 0
    svg = (out / "plots" / "val-0000.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg
    # the plotted run must produce the very same predictions
    assert (out / "predictions.jsonl").read_bytes() == \
        (pipeline.pred / "predictions.jsonl").read_bytes()


@pytest.mark.parametrize("bad_id", ["../x", "a/b", "a\\b", ".", "..", "",
                                    "a\0b"])
def test_infer_plot_rejects_an_id_that_is_not_a_file_name(pipeline, tmp_path,
                                                          capsys, bad_id):
    data = tmp_path / "data"
    shutil.copytree(pipeline.data, data)
    manifest = data / "manifest.jsonl"
    lines = [json.loads(line) for line in manifest.read_text().splitlines()]
    for line in lines:
        if line["id"] == "val-0000":
            line["id"] = bad_id
    manifest.write_text("".join(json.dumps(line) + "\n" for line in lines))
    out = tmp_path / "run" / "out"
    assert entry(["infer", "--config", str(pipeline.cfg), "--data", str(data),
                  "--checkpoint", str(pipeline.run / "final.ddmn"),
                  "--out", str(out), "--plot"]) == 2
    assert repr(bad_id) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# determinism


def test_gen_data_worker_invariance(pipeline, tmp_path):
    again = tmp_path / "again"
    assert entry(["gen-data", "--config", str(pipeline.cfg),
                  "--out", str(again), "--workers", "3"]) == 0
    assert (again / "manifest.jsonl").read_bytes() == \
        (pipeline.data / "manifest.jsonl").read_bytes()
    for name in sorted(os.listdir(pipeline.data / "frames")):
        assert (again / "frames" / name).read_bytes() == \
            (pipeline.data / "frames" / name).read_bytes()


def test_train_rerun_is_bit_identical(pipeline, tmp_path):
    rerun = tmp_path / "rerun"
    assert entry(["train", "--config", str(pipeline.cfg),
                  "--data", str(pipeline.data), "--out", str(rerun)]) == 0
    assert (rerun / "final.ddmn").read_bytes() == \
        (pipeline.run / "final.ddmn").read_bytes()
    assert (rerun / "loss.csv").read_bytes() == \
        (pipeline.run / "loss.csv").read_bytes()


def test_infer_rerun_and_workers_bit_identical(pipeline, tmp_path):
    for extra in ([], ["--workers", "2"]):
        out = tmp_path / f"w{len(extra)}"
        assert entry(["infer", "--config", str(pipeline.cfg),
                      "--data", str(pipeline.data),
                      "--checkpoint", str(pipeline.run / "final.ddmn"),
                      "--out", str(out)] + extra) == 0
        assert (out / "predictions.jsonl").read_bytes() == \
            (pipeline.pred / "predictions.jsonl").read_bytes()


def test_seed_override_changes_data(pipeline, tmp_path):
    other = tmp_path / "seeded"
    assert entry(["gen-data", "--config", str(pipeline.cfg),
                  "--out", str(other), "--seed", "9"]) == 0
    assert (other / "manifest.jsonl").read_bytes() != \
        (pipeline.data / "manifest.jsonl").read_bytes()
    snapshot = json.loads((other / "config.json").read_text())
    assert snapshot["gen"]["seed"] == 9
    assert snapshot["train"]["seed"] == 9


# ---------------------------------------------------------------------------
# failure modes and exit codes


def test_each_error_class_carries_its_exit_code():
    codes = {cls: cls.exit_code for cls in (DDMError, ConfigError, DataError,
                                            DimensionError, NumericError,
                                            ContractError)}
    assert codes == {DDMError: 1, ConfigError: 1, DataError: 2,
                     DimensionError: 1, NumericError: 3, ContractError: 1}


def test_usage_errors_exit_1(tmp_path):
    assert entry([]) == 1  # no subcommand
    assert entry(["frobnicate"]) == 1
    assert entry(["gen-data"]) == 1  # missing --out
    assert entry(["gen-data", "--out", str(tmp_path), "--bogus"]) == 1
    assert entry(["gen-data", "--preset", "desk", "--out",
                  str(tmp_path / "d"), "--workers", "-3"]) == 1


def test_preset_and_config_conflict(pipeline, tmp_path):
    assert entry(["gen-data", "--config", str(pipeline.cfg),
                  "--preset", "desk", "--out", str(tmp_path)]) == 1


def test_bad_config_json_exits_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert entry(["gen-data", "--config", str(bad),
                  "--out", str(tmp_path / "d")]) == 1
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"mystery": {}}))
    assert entry(["gen-data", "--config", str(unknown),
                  "--out", str(tmp_path / "d")]) == 1
    for payload in ({"model": {"heads": "4"}}, {"gen": {"seed": 1.5}},
                    {"model": {"backbone_widths": 16}},
                    {"post": {"theta": "0.5"}}, {"eval_stride": "3"},
                    {"train": {"batch_size": 2.5}}):
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps(payload))
        assert entry(["gen-data", "--config", str(typed),
                      "--out", str(tmp_path / "d")]) == 1
        assert entry(["train", "--config", str(typed), "--data",
                      str(tmp_path / "d"), "--out", str(tmp_path / "r")]) == 1


def _one_error_line(capsys, start):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(f"error: {start}")


# a file that is not UTF-8, and a JSON value nested 100 000 deep
UNDECODABLE = [pytest.param(b'{"gen": "\xff"}', id="not-utf8"),
               pytest.param(b"[" * 100000 + b"]" * 100000, id="nested")]


@pytest.mark.parametrize("blob", UNDECODABLE)
def test_undecodable_config_exits_1(tmp_path, capsys, blob):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(blob)
    assert entry(["gen-data", "--config", str(cfg),
                  "--out", str(tmp_path / "d")]) == 1
    _one_error_line(capsys, f"{cfg}: ")


@pytest.mark.parametrize("command, text, field", [
    ("gen-data", '{"gen": {"train_videos": 8, "val_videos": 0, '
                 '"speed": NaN}}', "gen.speed"),
    ("gen-data", '{"gen": {"jitter": 1e999}}', "gen.jitter"),
    ("train", '{"train": {"lr": NaN, "eps": Infinity}}', "train.lr"),
    ("train", '{"train": {"lr": 1' + "0" * 400 + '}}', "train.lr"),
], ids=["speed-nan", "jitter-overflow", "lr-nan", "lr-huge-int"])
def test_non_finite_config_float_exits_1(tmp_path, capsys, command, text,
                                         field):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "train":
        args += ["--data", str(tmp_path)]
    assert entry(args) == 1
    _one_error_line(capsys, f"config.{field} must be a finite float")


def test_invalid_override_exits_1(pipeline, tmp_path):
    assert entry(["infer", "--config", str(pipeline.cfg),
                  "--data", str(pipeline.data),
                  "--checkpoint", str(pipeline.run / "final.ddmn"),
                  "--out", str(tmp_path), "--theta", "1.5"]) == 1


def test_missing_data_exits_2(pipeline, tmp_path):
    assert entry(["train", "--config", str(pipeline.cfg),
                  "--data", str(tmp_path / "nowhere"),
                  "--out", str(tmp_path / "run")]) == 2


def test_missing_checkpoint_exits_2(pipeline, tmp_path):
    assert entry(["infer", "--config", str(pipeline.cfg),
                  "--data", str(pipeline.data),
                  "--checkpoint", str(tmp_path / "missing.ddmn"),
                  "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("command, flag", [("train", "--resume"),
                                           ("infer", "--checkpoint")])
@pytest.mark.parametrize("record, value, word", CHECKPOINT_CASES)
def test_checkpoint_that_does_not_fit_the_model_exits_2(
        pipeline, tmp_path, capsys, command, flag, record, value, word):
    bad = tmp_path / "bad.ddmn"
    break_checkpoint(pipeline.run / "final.ddmn", bad, record, value)
    assert entry([command, "--config", str(pipeline.cfg),
                  "--data", str(pipeline.data), "--out", str(tmp_path / "out"),
                  flag, str(bad)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(f"error: {bad}: ")
    assert repr(record) in err and word in err


@pytest.mark.parametrize("change, word", [
    (lambda frames: frames[..., :1], "channels"),
    (lambda frames: frames[:, 1:], "frames"),
], ids=["one-channel", "other-height"])
def test_frames_that_cannot_feed_the_model_exit_2(pipeline, tmp_path, capsys,
                                                  change, word):
    data = tmp_path / "data"
    shutil.copytree(pipeline.data, data)
    path = data / "frames" / "train-0001.ddmf"
    write_frames(path, change(read_frames(path)))
    assert entry(["train", "--config", str(pipeline.cfg), "--data", str(data),
                  "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "train-0001" in err and word in err


def test_unknown_video_in_predictions_exits_2(pipeline, tmp_path):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps(
        {"video": "ghost-0000", "positions": [3], "scores": [0.9]}) + "\n")
    assert entry(["eval", "--data", str(pipeline.data),
                  "--predictions", str(preds)]) == 2


def test_corrupt_predictions_exit_2(pipeline, tmp_path):
    preds = tmp_path / "preds.jsonl"
    preds.write_text("{broken\n")
    assert entry(["eval", "--data", str(pipeline.data),
                  "--predictions", str(preds)]) == 2


@pytest.mark.parametrize("positions, bad", [([-5, 3], -5),
                                           ([3, 1000000000], 1000000000),
                                           ([3, 20], 20)])
def test_out_of_range_predictions_exit_2(pipeline, tmp_path, capsys,
                                         positions, bad):
    # every val video has at most 20 frames, so position 20 is past its end
    preds = tmp_path / "preds.jsonl"
    preds.write_text(json.dumps({"video": "val-0000", "positions": positions,
                                 "scores": [0.9, 0.8]}) + "\n")
    assert entry(["eval", "--data", str(pipeline.data),
                  "--predictions", str(preds)]) == 2
    err = capsys.readouterr().err
    assert str(preds) in err and "val-0000" in err
    assert f"position {bad} outside" in err


def prediction_line(**changes) -> str:
    """A valid prediction line with ``changes`` applied (``DROP`` removes)."""
    pred = {"video": "val-0000", "positions": [5], "scores": [0.9], **changes}
    return json.dumps({k: v for k, v in pred.items() if v is not DROP})


# (bad prediction line, what its error names after "<file>:<line>")
PREDICTION_CASES = [
    pytest.param(prediction_line(positions=[3.7, "5", True]),
                 ".positions[0]", id="position-float"),
    pytest.param(prediction_line(positions=[5, "9"]), ".positions[1]",
                 id="position-string"),
    pytest.param(prediction_line(positions=[5, True]), ".positions[1]",
                 id="position-bool"),
    pytest.param(prediction_line(positions="12"), ".positions",
                 id="positions-string"),
    pytest.param(prediction_line(positions=None), ".positions",
                 id="positions-null"),
    pytest.param(prediction_line(video=7), ".video", id="video-int"),
    pytest.param(prediction_line(scores=["0.9"]), ".scores[0]",
                 id="score-string"),
    pytest.param(prediction_line(label="cut"), ".label", id="unknown-key"),
    pytest.param(prediction_line(positions=DROP), ".positions",
                 id="missing-key"),
    pytest.param("[1, 2]", " must be an object", id="line-not-object"),
    pytest.param(prediction_line(scores=[float("nan")]), ".scores[0]",
                 id="score-nan"),
]


@pytest.mark.parametrize("line, named", PREDICTION_CASES)
def test_read_predictions_rejects_mistyped_lines(tmp_path, line, named):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(prediction_line(video="val-0001") + "\n" + line + "\n")
    with pytest.raises(DataError, match=re.escape(f"{preds}:2{named}")):
        read_predictions(preds)


def _eval_fails_with_one_error_line(capsys, data, preds, where):
    assert entry(["eval", "--data", str(data),
                  "--predictions", str(preds)]) == 2
    _one_error_line(capsys, where)


@pytest.mark.parametrize("line, named", PREDICTION_CASES)
def test_eval_mistyped_predictions_exit_2(pipeline, tmp_path, capsys,
                                          line, named):
    preds = tmp_path / "preds.jsonl"
    preds.write_text(line + "\n")
    _eval_fails_with_one_error_line(capsys, pipeline.data, preds,
                                    f"{preds}:1{named}")


@pytest.mark.parametrize("line, named", MANIFEST_CASES)
def test_eval_mistyped_manifest_exit_2(pipeline, tmp_path, capsys,
                                       line, named):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(
        line + "\n" + (pipeline.data / "manifest.jsonl").read_text())
    _eval_fails_with_one_error_line(
        capsys, tmp_path, pipeline.pred / "predictions.jsonl",
        f"{manifest}:1{named}")


@pytest.mark.parametrize("blob", UNDECODABLE)
def test_eval_undecodable_manifest_exit_2(pipeline, tmp_path, capsys, blob):
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_bytes(
        (pipeline.data / "manifest.jsonl").read_bytes() + blob + b"\n")
    lineno = len(manifest.read_bytes().splitlines())
    _eval_fails_with_one_error_line(
        capsys, tmp_path, pipeline.pred / "predictions.jsonl",
        f"{manifest}:{lineno}: ")


@pytest.mark.parametrize("blob", UNDECODABLE)
def test_eval_undecodable_predictions_exit_2(pipeline, tmp_path, capsys,
                                             blob):
    preds = tmp_path / "preds.jsonl"
    preds.write_bytes(prediction_line().encode() + b"\n" + blob + b"\n")
    _eval_fails_with_one_error_line(capsys, pipeline.data, preds,
                                    f"{preds}:2: ")


def test_predictions_without_scores_evaluate(pipeline, tmp_path, capsys):
    preds = pipeline.pred / "predictions.jsonl"
    bare = tmp_path / "bare.jsonl"
    bare.write_text("".join(
        json.dumps({"video": p.video, "positions": list(p.positions)}) + "\n"
        for _, p in read_jsonl(preds, Prediction)))
    tables = []
    for path in (preds, bare):
        assert entry(["eval", "--data", str(pipeline.data),
                      "--predictions", str(path)]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_diverging_training_exits_3(pipeline, tmp_path):
    wild = dict(TINY, train=dict(TINY["train"], lr=1e150))
    cfg = tmp_path / "wild.json"
    cfg.write_text(json.dumps(wild))
    assert entry(["train", "--config", str(cfg), "--data",
                  str(pipeline.data), "--out", str(tmp_path / "run")]) == 3


def test_bad_log_level_exits_1(monkeypatch, tmp_path):
    monkeypatch.setenv("DDM_LOG_LEVEL", "LOUD")
    assert entry(["gen-data", "--out", str(tmp_path)]) == 1


def test_log_level_applies(monkeypatch, pipeline, tmp_path, capsys):
    monkeypatch.setenv("DDM_LOG_LEVEL", "info")
    assert entry(["gen-data", "--config", str(pipeline.cfg),
                  "--out", str(tmp_path / "d")]) == 0
    assert "generated 5 videos" in capsys.readouterr().err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        entry(["--help"])
    assert info.value.code == 0


# ---------------------------------------------------------------------------
# helpers


def test_read_predictions_round_trip(pipeline):
    path = pipeline.pred / "predictions.jsonl"
    parsed = read_predictions(path)
    assert set(parsed) == {"val-0000", "val-0001"}
    for positions in parsed.values():
        assert all(isinstance(p, int) for p in positions)
    # what infer wrote decodes to the very predictions it made
    cfg = configmod.from_dict(TINY)
    model = BoundaryModel(cfg.model, seed=cfg.train.seed)
    load_checkpoint(pipeline.run / "final.ddmn", model)
    made = predict_dataset(model, read_dataset(pipeline.data, "val"), cfg)
    assert [p for _, p in read_jsonl(path, Prediction)] == made
    assert parsed == {p.video: p.positions for p in made}


def test_svg_is_deterministic_and_validated():
    positions = np.arange(0, 30, 3)
    scores = np.linspace(0.1, 0.9, 10)
    a = score_curve_svg(positions, scores, kept=[9], theta=0.5,
                        boundaries=(12,), title="demo")
    b = score_curve_svg(positions, scores, kept=[9], theta=0.5,
                        boundaries=(12,), title="demo")
    assert a == b
    assert a.startswith("<svg") and a.rstrip().endswith("</svg>")
    assert "circle" in a and "polyline" in a
    with pytest.raises(ContractError):
        score_curve_svg(positions, scores[:-1])


def test_svg_title_is_escaped():
    svg = score_curve_svg(np.arange(3), np.full(3, 0.5), title="cut&run<1>")
    assert ET.fromstring(svg).find("{http://www.w3.org/2000/svg}text").text \
        == "cut&run<1>"
    plain = score_curve_svg(np.arange(3), np.full(3, 0.5), title="val-0000")
    assert 'font-family="monospace">val-0000</text>' in plain


def test_svg_handles_empty_curve():
    text = score_curve_svg(np.zeros(0), np.zeros(0))
    assert text.startswith("<svg")
