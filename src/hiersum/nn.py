"""Plain numpy neural primitives with hand-written backward passes.

Everything runs in float64 on one thread. The pieces are deliberately small:
a named parameter store, a whole-sequence LSTM forward and backward, an
affine layer over row matrices, stable sigmoid / binary cross-entropy, Adam,
a checkpoint format, and a central finite-difference gradient checker. The
LSTM forward returns a cache of the whole sequence, and its backward
propagates through every step with no truncation.

The one LSTM recurrence, lstm_forward_batch, steps a batch of B sequences
together, with one (B, H) @ (H, 4H) product per step; `evaluate` uses it to
score a fold's videos at once, and lstm_forward (training, `summarize`) is
its batch of one. Its zero-padded gates take T_max * B * 4H * 8 bytes.
"""

from __future__ import annotations

import json
import os

import numpy as np

PROB_CLAMP = 1e-7  # probabilities are clipped to [PROB_CLAMP, 1 - PROB_CLAMP] before any log


class TrainingError(RuntimeError):
    """Optimization produced a non-finite quantity."""


def sigmoid(z):
    """Logistic function, elementwise; the tanh form cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=np.float64)))


def clamp_prob(p):
    """Clip probabilities away from {0, 1} so logs stay finite.

    Returns (clamped, pass_mask); the gradient through the clamp is zero
    wherever the clip binds, which keeps analytic gradients consistent with
    finite differences.
    """
    p = np.asarray(p, dtype=np.float64)
    clamped = np.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP)
    return clamped, (p > PROB_CLAMP) & (p < 1.0 - PROB_CLAMP)


def bce(p, y):
    """Binary cross-entropy -[y log p + (1-y) log(1-p)], elementwise.

    Callers clamp p first; p must lie strictly inside (0, 1).
    """
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("bce requires probabilities strictly inside (0, 1)")
    return -(y * np.log(p) + (1.0 - y) * np.log1p(-p))


def bce_grad(p, y):
    """d bce / d p, elementwise; -1/p at y=1, 1/(1-p) at y=0."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return -y / p + (1.0 - y) / (1.0 - p)


class ParamStore:
    """Named float64 parameter arrays with same-shape gradient accumulators."""

    def __init__(self):
        self.params = {}
        self.grads = {}

    def add(self, name, value):
        if name in self.params:
            raise ValueError(f"parameter '{name}' already registered")
        arr = np.array(value, dtype=np.float64)
        self.params[name] = arr
        self.grads[name] = np.zeros_like(arr)
        return arr

    def names(self):
        return list(self.params)

    def __getitem__(self, name):
        return self.params[name]

    def __contains__(self, name):
        return name in self.params

    def grad(self, name):
        return self.grads[name]

    def zero_grads(self, names=None):
        for name in names if names is not None else self.params:
            self.grads[name].fill(0.0)

    def check_finite(self):
        for name, value in self.params.items():
            if not np.all(np.isfinite(value)):
                raise TrainingError(f"parameter '{name}' is non-finite")


def uniform_init(rng, shape, fan_in):
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, shape)


# ---------------------------------------------------------------------------
# LSTM
#
# Parameters under a prefix: Wx (D, 4H), Wh (H, 4H), b (4H,). Gate order along
# the 4H axis is input, forget, output, candidate.


def init_lstm(store, prefix, input_dim, hidden, rng):
    store.add(f"{prefix}.Wx", uniform_init(rng, (input_dim, 4 * hidden), input_dim))
    store.add(f"{prefix}.Wh", uniform_init(rng, (hidden, 4 * hidden), hidden))
    b = uniform_init(rng, 4 * hidden, hidden)
    b[hidden : 2 * hidden] += 1.0  # forget-gate bias offset
    store.add(f"{prefix}.b", b)


def lstm_forward(store, prefix, xs):
    """Run the LSTM over a (T, D) sequence from a zero state; returns (hs, cache).

    hs is (T, H). This is lstm_forward_batch on a batch of one: the input
    projection xs @ Wx + b is one matrix product over the whole sequence, and
    only h @ Wh stays inside the recurrence.
    """
    hs, cs, gates = lstm_forward_batch(store, prefix, [xs])
    hs, cs, gates = hs[:, 0], cs[:, 0], gates[:, 0]
    return hs, (xs, hs, cs, gates)


def lstm_forward_batch(store, prefix, seqs):
    """Run the LSTM over B sequences of any lengths at once, each from a zero state.

    Returns (hs, cs, gates), shaped (T_max, B, H), (T_max, B, H) and
    (T_max, B, 4H), where T_max is the longest length; gates holds the gate
    activations. Column v is sequence v up to its own length; the rows after
    it run on from a zero input and must be ignored. Each sequence's input
    projection xs @ Wx + b is one matrix product written into the zero-padded
    gates, so the inputs themselves are never padded or copied; each step
    then does one (B, H) @ (H, 4H) product. The gates take T_max * B * 4H * 8
    bytes, so callers bound B.
    """
    wx, wh = store[f"{prefix}.Wx"], store[f"{prefix}.Wh"]
    for xs in seqs:
        if xs.shape[1] != wx.shape[0]:
            raise ValueError(
                f"lstm '{prefix}': input dim {xs.shape[1]} does not match weights {wx.shape[0]}"
            )
    steps, hidden = max(xs.shape[0] for xs in seqs), wh.shape[0]
    gates = np.zeros((steps, len(seqs), 4 * hidden))  # pre-activations, turned into gates in place
    for v, xs in enumerate(seqs):
        gates[: xs.shape[0], v] = xs @ wx + store[f"{prefix}.b"]
    # sigmoid(z) = 0.5 * (1 + tanh(z / 2)): halving the i/f/o pre-activations and
    # their Wh columns up front is exact, so each step takes one tanh over all 4H
    gates[:, :, : 3 * hidden] *= 0.5
    wh = wh.copy()
    wh[:, : 3 * hidden] *= 0.5
    hs = np.empty((steps, len(seqs), hidden))
    cs = np.empty((steps, len(seqs), hidden))
    h = np.zeros((len(seqs), hidden))
    c = np.zeros((len(seqs), hidden))
    for t in range(steps):
        z = gates[t]
        z += h @ wh
        np.tanh(z, out=z)
        ifo = z[:, : 3 * hidden]
        ifo += 1.0
        ifo *= 0.5
        c = z[:, hidden : 2 * hidden] * c + z[:, :hidden] * z[:, 3 * hidden :]
        h = z[:, 2 * hidden : 3 * hidden] * np.tanh(c)
        hs[t] = h
        cs[t] = c
    return hs, cs, gates


def lstm_backward(store, prefix, cache, dhs):
    """Backpropagate through a whole sequence, with no truncation.

    dhs[t] is the loss gradient on hs[t]; the recurrent gradient is carried
    backward internally. Parameter gradients are accumulated once per
    sequence from the stacked pre-activation gradients.
    """
    xs, hs, cs, gates = cache
    wh = store[f"{prefix}.Wh"]
    steps, hidden = hs.shape
    gi, gf, go, gg = np.moveaxis(gates.reshape(steps, 4, hidden), 1, 0)
    h_prev = np.vstack([np.zeros((1, hidden)), hs[:-1]])
    c_prev = np.vstack([np.zeros((1, hidden)), cs[:-1]])
    tanh_c = np.tanh(cs)
    dc_dh = go * (1.0 - tanh_c * tanh_c)
    # d(pre-activation) / dc for the i, f and g gates; the o slot is filled from dh
    dz_dc = np.stack(
        [gg * gi * (1.0 - gi), c_prev * gf * (1.0 - gf), np.zeros_like(go), gi * (1.0 - gg * gg)],
        axis=1,
    )
    dz_dh_o = tanh_c * go * (1.0 - go)
    dz = np.empty((steps, 4, hidden))
    dh = np.zeros(hidden)
    dc = np.zeros(hidden)
    for t in range(steps - 1, -1, -1):
        dh = dh + dhs[t]
        dc = dc + dh * dc_dh[t]
        dz[t] = dc * dz_dc[t]
        dz[t, 2] = dh * dz_dh_o[t]
        dh = wh @ dz[t].reshape(-1)
        dc = dc * gf[t]
    dz = dz.reshape(steps, 4 * hidden)
    store.grads[f"{prefix}.Wx"] += xs.T @ dz
    store.grads[f"{prefix}.Wh"] += h_prev.T @ dz
    store.grads[f"{prefix}.b"] += dz.sum(axis=0)


# ---------------------------------------------------------------------------
# affine layer: W (out, in), b (out,), applied to (N, in) row matrices


def init_affine(store, prefix, out_dim, in_dim, rng):
    store.add(f"{prefix}.W", uniform_init(rng, (out_dim, in_dim), in_dim))
    store.add(f"{prefix}.b", uniform_init(rng, out_dim, in_dim))


def affine(store, prefix, x):
    return x @ store[f"{prefix}.W"].T + store[f"{prefix}.b"]


def affine_backward(store, prefix, x, dout):
    store.grads[f"{prefix}.W"] += dout.T @ x
    store.grads[f"{prefix}.b"] += dout.sum(axis=0)
    return dout @ store[f"{prefix}.W"]


# ---------------------------------------------------------------------------
# optimizer


class Adam:
    """Adam with per-parameter step counts so disjoint groups update independently."""

    def __init__(self, store, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {name: np.zeros_like(p) for name, p in store.params.items()}
        self.v = {name: np.zeros_like(p) for name, p in store.params.items()}
        self.t = {name: 0 for name in store.params}

    def step(self, names=None):
        """Apply one update to the named parameters (all by default), then zero their grads."""
        for name in names if names is not None else self.store.names():
            grad = self.store.grads[name]
            if not np.all(np.isfinite(grad)):
                raise TrainingError(f"non-finite gradient for parameter '{name}'")
            self.t[name] += 1
            t = self.t[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            self.store.params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            grad.fill(0.0)


# ---------------------------------------------------------------------------
# checkpoint: one JSON header line, then raw little-endian float64 payloads
# per named parameter in header order.

CHECKPOINT_FORMAT = "hiersum-checkpoint-v1"


def save_checkpoint(path, store, meta=None):
    header = {
        "format": CHECKPOINT_FORMAT,
        "meta": meta or {},
        "params": [{"name": n, "shape": list(store[n].shape)} for n in store.names()],
    }
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for name in store.names():
            fh.write(store[name].astype("<f8").tobytes(order="C"))
    os.replace(tmp, path)  # atomic on POSIX: readers never see a partial file


def load_checkpoint(path):
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: invalid checkpoint header ({exc})") from exc
        found = header.get("format") if isinstance(header, dict) else None
        if found != CHECKPOINT_FORMAT:
            raise ValueError(f"{path}: unsupported checkpoint format {found!r}")
        try:
            meta = dict(header["meta"])
            specs = [(str(e["name"]), tuple(int(n) for n in e["shape"])) for e in header["params"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from exc
        store = ParamStore()
        for name, shape in specs:
            if any(n < 0 for n in shape):
                raise ValueError(f"{path}: parameter '{name}' has negative shape {list(shape)}")
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * count)
            if len(raw) != 8 * count:
                raise ValueError(f"{path}: truncated payload for '{name}'")
            store.add(name, np.frombuffer(raw, dtype="<f8").reshape(shape).copy())
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after last parameter")
    return store, meta


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(loss_fn, store, names=None, step=1e-5, tolerance=1e-5, floor=1e-4):
    """Compare analytic gradients with central finite differences.

    loss_fn() must deterministically recompute the scalar loss from the
    current parameter values and leave fresh gradients in the store. The
    relative error divides by max(|analytic|, |fd|, floor): a central
    difference carries rounding noise of about eps * |loss| / step, so
    entries much smaller than the floor cannot be resolved relatively and
    are held to the absolute bound tolerance * floor instead.
    """
    names = list(names) if names is not None else store.names()
    store.zero_grads()
    loss_fn()
    analytic = {name: store.grads[name].copy() for name in names}
    per_param = {}
    for name in names:
        param = store.params[name]
        flat = param.reshape(-1)
        ana = analytic[name].reshape(-1)
        worst = 0.0
        for idx in range(flat.size):
            saved = flat[idx]
            flat[idx] = saved + step
            store.zero_grads()
            loss_plus = loss_fn()
            flat[idx] = saved - step
            store.zero_grads()
            loss_minus = loss_fn()
            flat[idx] = saved
            fd = (loss_plus - loss_minus) / (2.0 * step)
            scale = max(abs(ana[idx]), abs(fd), floor)
            worst = max(worst, abs(ana[idx] - fd) / scale)
        per_param[name] = worst
    store.zero_grads()
    loss_fn()  # leave gradients consistent with the unperturbed parameters
    max_err = max(per_param.values()) if per_param else 0.0
    return {"max_rel_error": max_err, "per_param": per_param, "ok": max_err < tolerance}
