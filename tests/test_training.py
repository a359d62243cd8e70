"""Label assignment, balanced sampling, Adam, and the training loop."""

import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddm import rng as rngmod
from ddm import tensor as T
from ddm import training
from ddm.checkpoint import load_records, save_records
from ddm.config import (ClipSpec, GenSpec, ModelConfig, PostConfig, RunConfig,
                        TrainConfig)
from ddm.errors import ContractError, DataError, NumericError
from ddm.model import BoundaryModel
from ddm.synth import generate_video
from ddm.training import (AdamState, adam_init, adam_step, assign_labels,
                          balanced_sample, evaluated_positions,
                          load_checkpoint, loss_csv_text, save_checkpoint,
                          train)
from test_synth import DROP

# ---------------------------------------------------------------------------
# positions and labels


def test_evaluated_positions_grid():
    assert evaluated_positions(10, 3).tolist() == [0, 3, 6, 9]
    assert evaluated_positions(9, 3).tolist() == [0, 3, 6]
    assert evaluated_positions(1, 5).tolist() == [0]


def test_evaluated_positions_rejects_bad_args():
    with pytest.raises(ContractError):
        evaluated_positions(0, 3)
    with pytest.raises(ContractError):
        evaluated_positions(10, 0)


def test_assign_labels_single_boundary():
    positions, labels = assign_labels((9,), 30, 3)
    assert positions.tolist() == list(range(0, 30, 3))
    assert labels.tolist() == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]


def test_assign_labels_off_grid_boundaries():
    # 10 is within 1.5 of position 9; 11 is within 1.5 of position 12
    _, labels = assign_labels((10,), 30, 3)
    assert labels.tolist()[3] == 1 and labels.sum() == 1
    _, labels = assign_labels((11,), 30, 3)
    assert labels.tolist()[4] == 1 and labels.sum() == 1


def test_assign_labels_half_open_interval():
    # with an even stride the midpoint frame belongs to the position on its
    # left: boundary 5 sits at 4 + stride/2 and labels position 4, not 6
    _, labels = assign_labels((5,), 12, 2)
    assert labels.tolist() == [0, 0, 1, 0, 0, 0]


def test_assign_labels_multiple_boundaries_and_collisions():
    _, labels = assign_labels((9, 10), 30, 3)
    assert labels.sum() == 1  # both fall onto position 9
    _, labels = assign_labels((9, 21), 30, 3)
    assert labels.sum() == 2


def test_assign_labels_rejects_out_of_range():
    with pytest.raises(ContractError):
        assign_labels((0,), 30, 3)
    with pytest.raises(ContractError):
        assign_labels((30,), 30, 3)


@given(st.integers(10, 120), st.integers(1, 7),
       st.lists(st.integers(1, 100), min_size=0, max_size=5))
@settings(max_examples=120, deadline=None)
def test_assign_labels_one_position_per_boundary(num_frames, stride, raw):
    boundaries = sorted({b for b in raw if b < num_frames})
    positions, labels = assign_labels(tuple(boundaries), num_frames, stride)
    two_p = 2 * positions
    for b in boundaries:
        hits = ((two_p - stride < 2 * b) & (2 * b <= two_p + stride)).sum()
        covered = 2 * b <= 2 * positions[-1] + stride
        assert hits == (1 if covered else 0)
        if covered:
            assert labels[np.argmax((two_p - stride < 2 * b)
                                    & (2 * b <= two_p + stride))] == 1


# ---------------------------------------------------------------------------
# balanced sampling


def test_balanced_sample_all_negative_chunks():
    labels = np.zeros(13, dtype=np.int64)
    picked = balanced_sample(labels, 6, rngmod.stream(0, rngmod.SAMPLE, 0))
    assert len(picked) == 3
    assert 0 <= picked[0] < 6 and 6 <= picked[1] < 12 and picked[2] == 12


def test_balanced_sample_keeps_every_positive():
    labels = np.ones(5, dtype=np.int64)
    picked = balanced_sample(labels, 3, rngmod.stream(0, rngmod.SAMPLE, 1))
    assert picked.tolist() == [0, 1, 2, 3, 4]


def test_balanced_sample_mixed_runs():
    labels = np.array([0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0])
    picked = balanced_sample(labels, 3, rngmod.stream(0, rngmod.SAMPLE, 2))
    assert len(picked) == 6  # 2 positives + runs of 3, 6, 1 -> 1 + 2 + 1
    assert {3, 10} <= set(picked.tolist())
    assert np.all(np.diff(picked) > 0)
    others = [i for i in picked.tolist() if i not in (3, 10)]
    assert sum(i < 3 for i in others) == 1
    assert sum(4 <= i < 7 for i in others) == 1
    assert sum(7 <= i < 10 for i in others) == 1
    assert sum(i == 11 for i in others) == 1


def test_balanced_sample_empty_and_validation():
    empty = balanced_sample(np.zeros(0, dtype=np.int64), 4,
                            rngmod.stream(0, rngmod.SAMPLE, 3))
    assert empty.size == 0
    with pytest.raises(ContractError):
        balanced_sample(np.zeros(3, dtype=np.int64), 0,
                        rngmod.stream(0, rngmod.SAMPLE, 4))


def test_balanced_sample_deterministic_per_stream():
    labels = np.zeros(40, dtype=np.int64)
    a = balanced_sample(labels, 6, rngmod.stream(7, rngmod.SAMPLE, 0, 0))
    b = balanced_sample(labels, 6, rngmod.stream(7, rngmod.SAMPLE, 0, 0))
    c = balanced_sample(labels, 6, rngmod.stream(7, rngmod.SAMPLE, 0, 1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)  # different stream, different draws


def test_balanced_sample_uniform_within_chunk():
    # two full chunks of six; over many seeds each index should be hit
    # roughly 1/6 of the time
    labels = np.zeros(12, dtype=np.int64)
    counts = np.zeros(12)
    trials = 1000
    for s in range(trials):
        for i in balanced_sample(labels, 6, rngmod.stream(s, rngmod.SAMPLE, 0)):
            counts[i] += 1
    freq = counts / trials
    assert np.all(np.abs(freq - 1.0 / 6.0) < 0.05)


# ---------------------------------------------------------------------------
# Adam


def _adam_reference(values, grads, lr, beta1, beta2, eps):
    m = [np.zeros_like(v) for v in values]
    v = [np.zeros_like(x) for x in values]
    out = [x.copy() for x in values]
    for t in range(1, len(grads[0]) + 1):
        for i in range(len(out)):
            g = grads[i][t - 1]
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            m_hat = m[i] / (1.0 - beta1 ** t)
            v_hat = v[i] / (1.0 - beta2 ** t)
            out[i] = out[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out


def test_adam_matches_reference_updates():
    rng = np.random.default_rng(3)
    shapes = [(3, 2), (4,), ()]
    starts = [rng.standard_normal(s) for s in shapes]
    params = {f"p{i}": T.parameter(v.copy()) for i, v in enumerate(starts)}
    grads = [[rng.standard_normal(s) for _ in range(5)] for s in shapes]
    state = adam_init(params)
    for t in range(5):
        for i, name in enumerate(params):
            params[name].grad = grads[i][t]
        adam_step(params, state, lr=0.05, beta1=0.9, beta2=0.999, eps=1e-8)
    expected = _adam_reference(starts, grads, 0.05, 0.9, 0.999, 1e-8)
    for i, name in enumerate(params):
        assert np.allclose(params[name].data, expected[i], rtol=0, atol=1e-12)
    assert state.step == 5


def test_adam_first_step_magnitude():
    # with a constant unit gradient the first step is almost exactly lr
    p = T.parameter(np.array([1.0]))
    p.grad = np.array([1.0])
    state = adam_init({"p": p})
    adam_step({"p": p}, state, lr=0.1)
    assert np.allclose(p.data, 1.0 - 0.1 / (1.0 + 1e-8), atol=1e-12)


def test_adam_missing_gradient_leaves_fresh_params_unchanged():
    p = T.parameter(np.array([2.0, -1.0]))
    state = adam_init({"p": p})
    before = p.data.copy()
    adam_step({"p": p}, state, lr=0.5)
    assert np.array_equal(p.data, before)
    assert state.step == 1
    assert np.array_equal(state.m["p"], np.zeros(2))


def test_adam_zero_learning_rate_is_identity_on_params():
    p = T.parameter(np.array([2.0, -1.0]))
    p.grad = np.array([1.0, 3.0])
    state = adam_init({"p": p})
    before = p.data.copy()
    adam_step({"p": p}, state, lr=0.0)
    assert np.array_equal(p.data, before)
    assert not np.array_equal(state.m["p"], np.zeros(2))  # moments still move


def test_adam_rejects_non_finite_gradients():
    p = T.parameter(np.array([0.0]))
    p.grad = np.array([np.nan])
    state = adam_init({"p": p})
    with pytest.raises(NumericError):
        adam_step({"p": p}, state, lr=0.1)


# uneven sizes, a 0-d parameter (like head/alpha) and one, p2, with no
# gradient; the cut by element count falls after p0
ADAM_SHAPES = [(300, 7), (), (5,), (1000,), (3, 4)]


def test_adam_halves_match_one_pass_and_the_formula_bitwise(monkeypatch):
    rng = np.random.default_rng(8)
    starts = [rng.standard_normal(s) for s in ADAM_SHAPES]
    grads = [[rng.standard_normal(s) for _ in range(3)] for s in ADAM_SHAPES]
    grads[2] = [np.zeros(ADAM_SHAPES[2])] * 3
    update = training._adam_update
    runs = {}
    # (usable cores, element threshold): only the middle run splits, since
    # these 3118 elements stay below the real threshold
    for cores, least in ((1, 0), (2, 0), (2, training._THREADED_ADAM)):
        threads = set()

        def spy(work, *args):
            threads.add(threading.current_thread() is threading.main_thread())
            update(work, *args)

        monkeypatch.setattr(training, "_usable_cores", lambda c=cores: c)
        monkeypatch.setattr(training, "_THREADED_ADAM", least)
        monkeypatch.setattr(training, "_adam_update", spy)
        params = {f"p{i}": T.parameter(v.copy()) for i, v in enumerate(starts)}
        state = adam_init(params)
        for t in range(3):
            for i, p in enumerate(params.values()):
                p.grad = None if i == 2 else grads[i][t]
            adam_step(params, state, lr=0.05)
        split = cores == 2 and least == 0
        assert threads == ({True, False} if split else {True})
        runs[cores, least] = [a.tobytes() for name, p in params.items()
                              for a in (p.data, state.m[name], state.v[name])]
    first, *others = runs.values()
    assert all(run == first for run in others)
    expected = _adam_reference(starts, grads, 0.05, 0.9, 0.999, 1e-8)
    assert first[::3] == [x.tobytes() for x in expected]


def _snapshot(params, state):
    return (state.step, [a.tobytes() for name, p in params.items()
                         for a in (p.data, state.m[name], state.v[name])])


@pytest.mark.parametrize("cores", [1, 2])
def test_adam_rejects_a_non_finite_gradient_before_any_write(monkeypatch,
                                                             cores):
    monkeypatch.setattr(training, "_usable_cores", lambda: cores)
    monkeypatch.setattr(training, "_THREADED_ADAM", 0)
    rng = np.random.default_rng(9)
    params = {name: T.parameter(rng.standard_normal(n))
              for name, n in (("a", 40), ("b", 3), ("c", 40))}
    state = adam_init(params)
    for p in params.values():
        p.grad = rng.standard_normal(p.shape)
    adam_step(params, state, lr=0.1)
    params["b"].grad = np.array([0.0, np.nan, 1.0])
    params["c"].grad = np.full(40, np.inf)
    before = _snapshot(params, state)
    with pytest.raises(NumericError, match="'b' at step 2"):
        adam_step(params, state, lr=0.1)
    assert _snapshot(params, state) == before


def test_adam_rejects_a_gradient_of_another_shape():
    params = {"a": T.parameter(np.ones(2)), "p": T.parameter(np.zeros(3))}
    params["a"].grad = np.ones(2)
    params["p"].grad = np.ones((2, 3))
    state = adam_init(params)
    before = _snapshot(params, state)
    with pytest.raises(ContractError, match="'p'"):
        adam_step(params, state, lr=0.1)
    assert _snapshot(params, state) == before
    assert params["p"].data.shape == state.m["p"].shape == (3,)


# ---------------------------------------------------------------------------
# the loop

TINY_MODEL = ModelConfig(backbone_widths=(4, 6), width=6, dilations=(1, 2),
                         temporal_kernel=3, queries=2, heads=2,
                         intra_layers=1, cross_layers=1, ffn_hidden=8)
TINY_GEN = GenSpec(train_videos=3, val_videos=1, min_frames=20, max_frames=24,
                   min_events=2, max_events=2, min_event_len=5, height=12,
                   width=12, square_size=5, regimes=("color-shift",), seed=0)


def tiny_run(epochs=2, lr=1e-3, seed=0) -> RunConfig:
    return RunConfig(
        gen=TINY_GEN,
        clip=ClipSpec(half_window=2, stride=2),
        model=TINY_MODEL,
        train=TrainConfig(epochs=epochs, batch_size=8, lr=lr, neg_run=4,
                          seed=seed),
        post=PostConfig(theta=0.5, window=2),
        eval_stride=3,
    )


def tiny_videos(cfg):
    return [generate_video(cfg.gen, f"train-{i:04d}", "train")
            for i in range(cfg.gen.train_videos)]


def test_train_smoke_and_artifacts(tmp_path):
    cfg = tiny_run()
    model = BoundaryModel(cfg.model, seed=cfg.train.seed)
    result = train(model, tiny_videos(cfg), cfg, out_dir=tmp_path)
    steps = [row[0] for row in result.loss_rows]
    assert steps == list(range(1, len(steps) + 1))
    assert {row[1] for row in result.loss_rows} == {0, 1}
    assert all(np.isfinite(row[2]) for row in result.loss_rows)
    assert sorted(os.path.basename(p) for p in result.checkpoint_paths) == [
        "epoch_000.ddmn", "epoch_001.ddmn"]
    assert os.path.basename(result.final_path) == "final.ddmn"
    for p in result.checkpoint_paths + [result.final_path]:
        assert os.path.exists(p)
    text = (tmp_path / "loss.csv").read_text()
    assert text == loss_csv_text(result.loss_rows)
    header, *rows = text.strip().split("\n")
    assert header == "step,epoch,loss"
    assert len(rows) == len(result.loss_rows)
    step, epoch, value = rows[0].split(",")
    assert float(value) == result.loss_rows[0][2]  # 17 digits round-trip


def test_train_is_deterministic():
    cfg = tiny_run()
    videos = tiny_videos(cfg)
    first = BoundaryModel(cfg.model, seed=cfg.train.seed)
    res_a = train(first, videos, cfg)
    second = BoundaryModel(cfg.model, seed=cfg.train.seed)
    res_b = train(second, videos, cfg)
    assert res_a.loss_rows == res_b.loss_rows
    for name, value in first.state().items():
        assert np.array_equal(value, second.state()[name])


def test_train_resume_is_bit_exact(tmp_path):
    cfg2 = tiny_run(epochs=2)
    videos = tiny_videos(cfg2)

    straight = BoundaryModel(cfg2.model, seed=0)
    res_full = train(straight, videos, cfg2, out_dir=tmp_path / "full")

    resumed = BoundaryModel(cfg2.model, seed=0)
    res_first = train(resumed, videos, tiny_run(epochs=1),
                      out_dir=tmp_path / "part")
    res_second = train(resumed, videos, cfg2,
                       resume_from=tmp_path / "part" / "epoch_000.ddmn")

    for name, value in straight.state().items():
        assert np.array_equal(value, resumed.state()[name])
    assert res_full.loss_rows == res_first.loss_rows + res_second.loss_rows


def test_train_resumes_from_a_run_of_no_epochs(tmp_path):
    cfg = tiny_run(epochs=1)
    videos = tiny_videos(cfg)
    straight = BoundaryModel(cfg.model, seed=0)
    expected = train(straight, videos, cfg).loss_rows
    empty = train(BoundaryModel(cfg.model, seed=0), videos,
                  tiny_run(epochs=0), out_dir=tmp_path)
    assert load_records(empty.final_path)["meta/epoch"] == -1.0
    resumed = BoundaryModel(cfg.model, seed=0)
    assert train(resumed, videos, cfg,
                 resume_from=empty.final_path).loss_rows == expected


def test_train_resume_rejects_seed_mismatch(tmp_path):
    cfg = tiny_run(epochs=1)
    videos = tiny_videos(cfg)
    model = BoundaryModel(cfg.model, seed=0)
    train(model, videos, cfg, out_dir=tmp_path)
    other = tiny_run(epochs=2, seed=5)
    with pytest.raises(DataError):
        train(BoundaryModel(other.model, seed=5), videos, other,
              resume_from=tmp_path / "epoch_000.ddmn")


def test_train_requires_videos():
    cfg = tiny_run()
    with pytest.raises(ContractError):
        train(BoundaryModel(cfg.model, seed=0), [], cfg)


def stepped_model(seed=1):
    """A tiny model and its Adam state after one step on random gradients."""
    model = BoundaryModel(TINY_MODEL, seed=seed)
    params = model.named_params()
    state = adam_init(params)
    rng = np.random.default_rng(0)
    for p in params.values():
        p.grad = rng.standard_normal(p.shape)
    adam_step(params, state, lr=1e-3)
    return model, state


def test_checkpoint_state_round_trip(tmp_path):
    model, state = stepped_model()
    params = model.named_params()
    path = tmp_path / "ck.ddmn"
    save_checkpoint(path, model, state, epoch=4, seed=11)

    fresh = BoundaryModel(TINY_MODEL, seed=2)
    restored, meta = load_checkpoint(path, fresh)
    assert meta == {"epoch": 4, "step": 1, "seed": 11}
    assert restored.step == state.step
    for name in params:
        assert np.array_equal(fresh.named_params()[name].data, params[name].data)
        assert np.array_equal(restored.m[name], state.m[name])
        assert np.array_equal(restored.v[name], state.v[name])


def test_adam_steps_on_a_loaded_checkpoint_like_an_unbroken_run(tmp_path):
    # the update writes into the loaded arrays, so they must be writable
    model, state = stepped_model()
    save_checkpoint(tmp_path / "ck.ddmn", model, state, epoch=0, seed=0)
    resumed = BoundaryModel(TINY_MODEL, seed=2)
    restored, _ = load_checkpoint(tmp_path / "ck.ddmn", resumed)
    rng = np.random.default_rng(1)
    grads = {name: rng.standard_normal(p.shape)
             for name, p in model.named_params().items()}
    for net, st in ((model, state), (resumed, restored)):
        params = net.named_params()
        for name, p in params.items():
            p.grad = grads[name]
        adam_step(params, st, lr=1e-3)
    assert _snapshot(resumed.named_params(), restored) == \
        _snapshot(model.named_params(), state)


def test_checkpoint_bytes_are_the_documented_record_order(tmp_path):
    model, state = stepped_model()
    save_checkpoint(tmp_path / "ck.ddmn", model, state, epoch=4, seed=11)
    params = model.named_params()
    records = {f"param/{name}": p.data for name, p in params.items()}
    records |= {f"adam/m/{name}": state.m[name] for name in params}
    records |= {f"adam/v/{name}": state.v[name] for name in params}
    records |= {"meta/epoch": 4.0, "meta/step": 1.0, "meta/seed": 11.0}
    save_records(tmp_path / "documented.ddmn", records)
    assert (tmp_path / "ck.ddmn").read_bytes() == \
        (tmp_path / "documented.ddmn").read_bytes()


def test_checkpoint_round_trip_reproduces_outputs(tmp_path):
    clips = np.random.default_rng(5).random((2, 5, 8, 8, 3))
    src, state = stepped_model(seed=6)
    save_checkpoint(tmp_path / "ck.ddmn", src, state, epoch=0, seed=0)
    dst = BoundaryModel(TINY_MODEL, seed=999)
    load_checkpoint(tmp_path / "ck.ddmn", dst)
    assert np.array_equal(dst.forward(clips).fused.data,
                          src.forward(clips).fused.data)


# (record, the value written in its place -- DROP removes it -- and a word
# of the error); every case holds for any model with a squeeze
CHECKPOINT_CASES = [
    pytest.param("param/squeeze/wm", DROP, "missing", id="missing"),
    pytest.param("retired/w", np.zeros(2), "unexpected", id="unexpected"),
    pytest.param("param/squeeze/wm", np.zeros(3), "shape", id="param-shape"),
    pytest.param("adam/m/squeeze/wm", np.zeros(()), "shape", id="moment-0d"),
    pytest.param("adam/v/squeeze/wmu", np.zeros((1, 6)), "shape",
                 id="moment-shape"),
    pytest.param("meta/epoch", np.nan, "integer", id="meta-nan"),
    pytest.param("meta/seed", np.inf, "integer", id="meta-inf"),
    pytest.param("meta/step", 2.5, "integer", id="meta-fraction"),
    pytest.param("meta/epoch", -2.0, "integer", id="meta-epoch-below-minus-1"),
    pytest.param("meta/seed", -1.0, "integer", id="meta-seed-negative"),
    pytest.param("meta/step", np.zeros(2), "shape", id="meta-vector"),
]


def break_checkpoint(src, dst, record, value) -> None:
    """Copies checkpoint ``src`` to ``dst`` with one record changed."""
    records = load_records(src)
    if value is DROP:
        del records[record]
    else:
        records[record] = value
    save_records(dst, records)


@pytest.mark.parametrize("record, value, word", CHECKPOINT_CASES)
def test_load_checkpoint_rejects_foreign_records(tmp_path, record, value,
                                                 word):
    model, state = stepped_model()
    save_checkpoint(tmp_path / "ck.ddmn", model, state, epoch=0, seed=0)
    bad = tmp_path / "bad.ddmn"
    break_checkpoint(tmp_path / "ck.ddmn", bad, record, value)
    fresh = BoundaryModel(TINY_MODEL, seed=2)
    before = fresh.state()
    with pytest.raises(DataError) as info:
        load_checkpoint(bad, fresh)
    message = str(info.value)
    assert message.startswith(f"{bad}: ")
    assert repr(record) in message and word in message
    for name, data in fresh.state().items():
        assert np.array_equal(data, before[name])
