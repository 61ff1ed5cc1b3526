import json
import math

import numpy as np
import pytest

from hiersum.nn import (
    Adam,
    ParamStore,
    TrainingError,
    affine,
    affine_backward,
    bce,
    bce_grad,
    clamp_prob,
    grad_check,
    init_affine,
    init_lstm,
    load_checkpoint,
    lstm_backward,
    lstm_forward,
    save_checkpoint,
    sigmoid,
    uniform_init,
)
from hiersum.policy import init_policy
from hiersum.seeding import substream
from tests.oracles import replay_lstm


# --- activations and losses --------------------------------------------------


def test_sigmoid_values():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert abs(sigmoid(np.array([2.0]))[0] - 1.0 / (1.0 + math.exp(-2.0))) < 1e-15
    # stable at extremes
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0


def test_clamp_prob_bounds_and_mask():
    p, mask = clamp_prob(np.array([0.0, 0.5, 1.0]))
    assert p.tolist() == [1e-7, 0.5, 1.0 - 1e-7]
    assert mask.tolist() == [False, True, False]


def test_bce_values():
    assert abs(bce(np.array([0.5]), np.array([1.0]))[0] - math.log(2.0)) < 1e-15
    assert bce(np.array([1.0 - 1e-12]), np.array([1.0]))[0] < 1e-11
    with pytest.raises(ValueError):
        bce(np.array([1.0]), np.array([1.0]))


def test_bce_grad_closed_form_and_fd():
    assert bce_grad(np.array([0.8]), np.array([1.0]))[0] == -1.25
    h = 1e-6
    for p, y in [(0.3, 1.0), (0.7, 0.0), (0.2, 0.0)]:
        fd = (bce(np.array([p + h]), np.array([y]))[0] - bce(np.array([p - h]), np.array([y]))[0]) / (2 * h)
        assert abs(bce_grad(np.array([p]), np.array([y]))[0] - fd) < 1e-8


# --- parameter store -------------------------------------------------


def test_scoring_stores_hold_no_gradients(tmp_path):
    fresh = init_policy(5, 4, substream(3, "init"))
    save_checkpoint(tmp_path / "m.ckpt", fresh)
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
    for store in (fresh, loaded):
        assert dict(store.grads) == {}
        store.zero_grads()
        store.zero_grads(["manager.lstm.Wx"])
        assert dict(store.grads) == {}
        # a backward pass makes the gradients it writes, and no others
        hs, cache = lstm_forward([store], "manager.lstm", [np.ones((3, 5))])
        lstm_backward([store], "manager.lstm", cache, [np.ones_like(hs[0])])
        assert sorted(store.grads) == ["manager.lstm.Wh", "manager.lstm.Wx", "manager.lstm.b"]
        assert all(store.grads[name].shape == store[name].shape for name in store.grads)
    # an optimizer lays out every gradient when it is built
    Adam(fresh)
    assert list(fresh.grads) == ["manager.lstm.Wx", "manager.lstm.Wh", "manager.lstm.b"] + [
        name for name in fresh.names() if not name.startswith("manager.lstm.")
    ]
    assert not any(
        fresh.grads[name].any() for name in fresh.names() if not name.startswith("manager.lstm.")
    )


def test_param_store_basics():
    store = ParamStore()
    store.add("a", np.ones((2, 2)))
    store.add("b", np.zeros(3))
    assert store.names() == ["a", "b"]
    assert "a" in store
    store.grads["a"] += 2.0
    store.zero_grads(["a"])
    assert not store.grads["a"].any()
    with pytest.raises(ValueError):
        store.add("a", np.ones(1))
    store.params["b"][0] = np.nan
    with pytest.raises(TrainingError, match="'b'"):
        store.check_finite()


def test_uniform_init_bounds():
    rng = substream(1, "t")
    w = uniform_init(rng, (100, 100), 16)
    assert np.all(np.abs(w) <= 0.25)
    assert w.std() > 0.05


def test_lstm_forget_bias_offset():
    store = ParamStore()
    init_lstm(store, "m", 3, 4, substream(2, "t"))
    b = store["m.b"]
    assert np.all(b[4:8] > 0.5)  # forget slice shifted by +1
    assert np.all(np.abs(np.concatenate([b[:4], b[8:]])) <= 0.5)


# --- LSTM ---------------------------------------------------------------------


def test_lstm_zero_params_zero_output():
    store = ParamStore()
    init_lstm(store, "m", 3, 4, substream(3, "t"))
    for name in store.names():
        store.params[name].fill(0.0)
    (hs,), _ = lstm_forward([store], "m", [np.array([[1.0, -2.0, 0.5], [0.3, 0.0, -1.0]])])
    assert not hs.any()


def test_lstm_state_matters():
    store = ParamStore()
    init_lstm(store, "m", 3, 4, substream(4, "t"))
    x = np.array([0.3, -0.2, 0.9])
    (hs,), _ = lstm_forward([store], "m", [np.stack([x, x])])
    assert not np.allclose(hs[0], hs[1])


def test_lstm_shape_error():
    store = ParamStore()
    init_lstm(store, "m", 3, 4, substream(5, "t"))
    with pytest.raises(ValueError, match="input dim"):
        lstm_forward([store], "m", [np.zeros((2, 5))])


def test_lstm_forward_matches_per_step_loop():
    store = ParamStore()
    init_lstm(store, "m", 3, 4, substream(7, "t"))
    xs = substream(7, "d").normal(size=(9, 3)) * 3.0
    (hs,), _ = lstm_forward([store], "m", [xs])
    assert np.max(np.abs(hs - replay_lstm(store, "m", xs))) < 1e-12


def test_lstm_lanes_of_one_store_match_single_sequences():
    store = ParamStore()
    init_lstm(store, "m", 3, 4, substream(9, "t"))
    rng = substream(9, "d")
    seqs = [rng.normal(size=(t, 3)) * 3.0 for t in (5, 1, 12, 7)]
    hs, _ = lstm_forward([store] * len(seqs), "m", seqs)
    assert [h.shape for h in hs] == [(t, 4) for t in (5, 1, 12, 7)]
    for lane_hs, xs in zip(hs, seqs):
        (one_hs,), _ = lstm_forward([store], "m", [xs])
        assert np.max(np.abs(lane_hs - one_hs)) < 1e-12
    with pytest.raises(ValueError, match="input dim"):
        lstm_forward([store, store], "m", [seqs[0], np.zeros((2, 5))])


def test_lanes_of_two_stores_match_each_store_alone_bit_for_bit():
    # [a, b, a, b] steps as (2, 2, H) @ (2, H, 4H), each store alone as (1, 2, H) @ (1, H, 4H)
    a, b = ParamStore(), ParamStore()
    init_lstm(a, "m", 3, 4, substream(13, "t", 0))
    init_lstm(b, "m", 3, 4, substream(13, "t", 1))
    rng = substream(13, "d")
    seqs = [rng.normal(size=(t, 3)) * 3.0 for t in (6, 11, 9, 4)]
    mixed, _ = lstm_forward([a, b, a, b], "m", seqs)
    (a0, a2), _ = lstm_forward([a, a], "m", seqs[0::2])
    (b1, b3), _ = lstm_forward([b, b], "m", seqs[1::2])
    for lane_hs, alone in zip(mixed, (a0, b1, a2, b3)):
        assert lane_hs.tobytes() == alone.tobytes()


def test_lstm_backward_rejects_lanes_sharing_a_store():
    store = ParamStore()
    init_lstm(store, "m", 3, 4, substream(14, "t"))
    seqs = [substream(14, "d", v).normal(size=(5, 3)) for v in range(2)]
    hs, cache = lstm_forward([store, store], "m", seqs)
    with pytest.raises(ValueError, match="share a store"):
        lstm_backward([store, store], "m", cache, [np.ones_like(h) for h in hs])


def test_stacked_folds_match_one_fold_at_a_time_bit_for_bit():
    # two folds with their own weights; the shorter sequence is padded in the
    # stacked forward and carries zeros in the stacked backward until its last step
    stores, seqs, dhs = [], [], []
    for k, steps in enumerate((17, 9)):
        store = ParamStore()
        init_lstm(store, "m", 3, 4, substream(12, "t", k))
        rng = substream(12, "d", k)
        stores.append(store)
        seqs.append(rng.normal(size=(steps, 3)))
        dhs.append(rng.normal(size=(steps, 4)))
    alone = [ParamStore() for _ in stores]
    for one, store in zip(alone, stores):
        for name in store.names():
            one.add(name, store[name])

    hs, cache = lstm_forward(stores, "m", seqs)
    assert [h.shape for h in hs] == [(17, 4), (9, 4)]
    forward = [h.copy() for h in hs]
    lstm_backward(stores, "m", cache, dhs)
    for k, xs in enumerate(seqs):
        (one_hs,), one_cache = lstm_forward([alone[k]], "m", [xs])
        assert forward[k].tobytes() == one_hs.tobytes()
        lstm_backward([alone[k]], "m", one_cache, [dhs[k]])
        for name in stores[k].names():
            assert stores[k].grads[name].tobytes() == alone[k].grads[name].tobytes(), name
    # a fold with no gradient on its states gets exact zeros, and the other its own bits
    for store in stores + alone:
        store.zero_grads()
    lstm_backward(stores, "m", lstm_forward(stores, "m", seqs)[1], [None, dhs[1]])
    lstm_backward([alone[1]], "m", lstm_forward([alone[1]], "m", [seqs[1]])[1], [dhs[1]])
    assert all(not stores[0].grads[name].any() for name in stores[0].names())
    for name in stores[1].names():
        assert stores[1].grads[name].tobytes() == alone[1].grads[name].tobytes(), name


def test_lstm_gradients_match_finite_differences():
    store = ParamStore()
    init_lstm(store, "m", 3, 4, substream(6, "t"))
    rng = substream(6, "data")
    xs = rng.normal(size=(5, 3))
    weights = rng.normal(size=(5, 4))  # random projection makes the loss scalar

    def loss_fn():
        (hs,), cache = lstm_forward([store], "m", [xs])
        lstm_backward([store], "m", cache, [weights])
        return float(np.sum(weights * hs))

    report = grad_check(loss_fn, store, step=1e-5, tolerance=1e-5)
    assert report["ok"], report


# --- affine -------------------------------------------------------------------


def test_affine_gradcheck():
    store = ParamStore()
    init_affine(store, "a", 3, 4, substream(8, "t"))
    x = substream(8, "d").normal(size=(2, 4))
    w = substream(8, "w").normal(size=(2, 3))

    def loss_fn():
        out = affine(store, "a", x)
        affine_backward(store, "a", x, w)
        return float(np.sum(w * out))

    report = grad_check(loss_fn, store, step=1e-5, tolerance=1e-5)
    assert report["ok"], report


def test_grad_check_identity_closure():
    store = ParamStore()
    store.add("p", np.array([0.37]))

    def loss_fn():
        store.grads["p"] += 1.0
        return float(store["p"][0])

    store.zero_grads()
    loss_fn()
    assert store.grads["p"][0] == 1.0
    report = grad_check(loss_fn, store)
    assert report["ok"] and report["max_rel_error"] < 1e-9


# --- Adam ---------------------------------------------------------------------


def test_adam_zero_grads_no_change():
    store = ParamStore()
    store.add("p", np.array([1.0, -2.0]))
    opt = Adam(store, lr=0.1)
    opt.step()
    assert store["p"].tolist() == [1.0, -2.0]


def test_adam_first_step_magnitude():
    store = ParamStore()
    store.add("p", np.array([5.0]))
    opt = Adam(store, lr=0.1)
    store.grads["p"][0] = 1.0
    opt.step()
    # first step moves by ~lr regardless of gradient scale
    assert abs(store["p"][0] - 4.9) < 1e-8
    assert store.grads["p"][0] == 0.0  # gradients cleared after the step


def test_adam_converges_on_quadratic():
    store = ParamStore()
    store.add("x", np.array([8.0]))
    opt = Adam(store, lr=0.05)
    for _ in range(3000):
        store.grads["x"][0] = 2.0 * (store["x"][0] - 3.0)
        opt.step()
    assert abs(store["x"][0] - 3.0) < 1e-3


def test_adam_nonfinite_gradient_names_param():
    store = ParamStore()
    store.add("w", np.zeros(2))
    opt = Adam(store)
    store.grads["w"][0] = np.inf
    with pytest.raises(TrainingError, match="'w'"):
        opt.step()


def test_adam_group_isolation():
    store = ParamStore()
    store.add("a", np.array([1.0]))
    store.add("b", np.array([1.0]))
    opt = Adam(store, lr=0.1)
    store.grads["a"][0] = 1.0
    store.grads["b"][0] = 1.0
    opt.step(["a"])
    assert store["a"][0] != 1.0
    assert store["b"][0] == 1.0  # untouched parameter keeps value and pending grad
    assert store.grads["b"][0] == 1.0
    assert opt.t["a"] == 1 and opt.t["b"] == 0


# --- checkpoints --------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    store = ParamStore()
    rng = substream(9, "t")
    store.add("w", rng.normal(size=(3, 2)))
    store.add("b", rng.normal(size=4))
    store.add("s", np.array(2.5))
    meta = {"feature_dim": 2, "hidden": 3, "seed": 9}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, store, meta)
    back, back_meta = load_checkpoint(path)
    assert back_meta == meta
    assert back.names() == ["w", "b", "s"]
    for name in store.names():
        assert np.array_equal(back[name], store[name])
        assert back[name].flags.writeable  # a copy, not a view of the read bytes
    assert not (tmp_path / "model.ckpt.tmp").exists()
    # saving the loaded store reproduces the file byte for byte
    save_checkpoint(tmp_path / "again.ckpt", back, back_meta)
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_errors(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b'{"format": "other"}\n')
    with pytest.raises(ValueError, match="format"):
        load_checkpoint(path)
    store = ParamStore()
    store.add("w", np.ones(4))
    save_checkpoint(path, store, {})
    data = path.read_bytes()
    (tmp_path / "trunc.ckpt").write_bytes(data[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(tmp_path / "trunc.ckpt")
    (tmp_path / "trail.ckpt").write_bytes(data + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(tmp_path / "trail.ckpt")
    # zero elements, so no payload to read, but a shape numpy cannot hold
    header = json.loads(data.partition(b"\n")[0])
    header["params"][0]["shape"] = [0, 2**62]
    (tmp_path / "huge.ckpt").write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(ValueError, match=r"huge\.ckpt: parameter 'w' shape \[0, \d+\]"):
        load_checkpoint(tmp_path / "huge.ckpt")
