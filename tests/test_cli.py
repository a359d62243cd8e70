"""End-to-end command-line pipeline: gen-data -> train -> infer -> eval."""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from ddm.cli import entry, read_predictions
from ddm.errors import ContractError
from ddm.plot import score_curve_svg
from ddm.synth import read_dataset

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
    parsed = read_predictions(pipeline.pred / "predictions.jsonl")
    assert set(parsed) == {"val-0000", "val-0001"}
    for positions in parsed.values():
        assert all(isinstance(p, int) for p in positions)


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


def test_svg_handles_empty_curve():
    text = score_curve_svg(np.zeros(0), np.zeros(0))
    assert text.startswith("<svg")
