"""The tracer restores what it wraps and nests spans correctly."""

import json
import types

import pytest

import layers
import tracer as tr
from ddm import attention, evaluation, model, tensor, training


class FakeClock:
    """Advances one unit per reading, so every span time is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_patches_restore_module_functions_and_methods():
    before_fn = training.adam_step
    before_method = vars(attention.MapSqueeze)["forward"]
    with tr.Patches() as patches:
        assert patches.replace(training, "adam_step", lambda fn: "wrapped")
        assert patches.replace(attention.MapSqueeze, "forward",
                               lambda fn: "wrapped")
        assert training.adam_step == "wrapped"
        assert vars(attention.MapSqueeze)["forward"] == "wrapped"
    assert training.adam_step is before_fn
    assert vars(attention.MapSqueeze)["forward"] is before_method


def test_patches_restore_after_an_exception():
    before = evaluation.match_count
    with pytest.raises(ValueError):
        with tr.Patches() as patches:
            patches.replace(evaluation, "match_count", lambda fn: None)
            raise ValueError
    assert evaluation.match_count is before


def test_missing_target_is_recorded_and_left_alone():
    owner = types.SimpleNamespace(present=1)
    patches = tr.Patches()
    assert not patches.replace(owner, "absent", lambda fn: fn)
    assert patches.missing == ["namespace(present=1).absent"]
    assert not hasattr(owner, "absent")


def test_ddm_layers_restore_every_target():
    watched = [(tensor, "conv2d"), (tensor, "matmul"), (training, "backward"),
               (training, "sample_clip"), (model, "build_feature_bank"),
               (model.BoundaryModel, "forward"), (evaluation, "match_count")]
    before = {(o, a): vars(o)[a] for o, a in watched}
    probe = layers.DdmLayers(tr.Tracer("test"))
    patches = probe.install()
    assert patches.missing == []
    assert all(vars(o)[a] is not before[(o, a)] for o, a in watched)
    patches.restore()
    assert all(vars(o)[a] is before[(o, a)] for o, a in watched)


def test_nesting_and_self_time():
    t = tr.Tracer("run-1", clock=FakeClock())

    def leaf():
        return 7

    traced_leaf = t.wrap("leaf", leaf)

    def middle():
        return traced_leaf() + traced_leaf()

    outer = t.wrap("outer", t.wrap("middle", middle))
    t.op = 3
    assert outer() == 14
    # clock readings: outer 1..8, middle 2..7, leaves 3..4 and 5..6
    names = [s[tr.NAME] for s in t.spans]
    assert names == ["outer", "middle", "leaf", "leaf"]
    parents = [s[tr.PARENT] for s in t.spans]
    assert parents == [None, 0, 1, 1]
    assert all(s[tr.OP] == 3 for s in t.spans)
    durations = [s[tr.END] - s[tr.START] for s in t.spans]
    assert durations == [7.0, 5.0, 1.0, 1.0]
    assert t.self_times() == [2.0, 3.0, 1.0, 1.0]
    total, own, calls = t.totals()
    assert total["leaf"] == 2.0 and own["middle"] == 3.0
    assert calls == {"outer": 1, "middle": 1, "leaf": 2}


def test_span_closed_on_exception_and_counts_after_close():
    t = tr.Tracer("run-2", clock=FakeClock())
    seen = []

    def boom():
        raise KeyError

    def count(tracer, args, kwargs, result):
        seen.append((args, result, len(tracer._open)))
        tracer.add("calls")

    with pytest.raises(KeyError):
        t.wrap("boom", boom)()
    assert t.spans[0][tr.END] is not None and t._open == []
    assert t.wrap("ok", lambda x: x + 1, count)(1) == 2
    assert seen == [((1,), 2, 0)]
    assert t.counts["calls"] == 1


def test_disabled_tracer_records_nothing():
    t = tr.Tracer("run-3")
    t.enabled = False
    assert t.wrap("f", lambda: 5)() == 5
    t.add("n")
    assert t.spans == [] and t.counts == {}


def test_written_spans_carry_run_and_parent(tmp_path):
    t = tr.Tracer("run-4", clock=FakeClock())
    t.wrap("outer", t.wrap("inner", lambda: None))()
    path = tmp_path / "spans.jsonl"
    t.write(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["id"], r["name"], r["parent"], r["run"]) for r in rows] == [
        (0, "outer", None, "run-4"), (1, "inner", 0, "run-4")]
    assert rows[0]["start"] < rows[1]["start"] < rows[1]["end"] < rows[0]["end"]
