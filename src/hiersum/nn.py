"""Plain numpy neural primitives with hand-written backward passes.

Everything runs in float64 on one thread. The pieces are deliberately small:
a named parameter store, a whole-sequence LSTM forward and backward, an
affine layer over row matrices, stable sigmoid / binary cross-entropy, Adam,
a checkpoint format, and a central finite-difference gradient checker. The
LSTM forward returns a cache of the whole sequence, and its backward
propagates through every step with no truncation.

The one LSTM recurrence, lstm_forward, runs lanes, one sequence each,
under each lane's own store of weights. Lanes of the same store share one
row of the stacked recurrent weights, so each step is one (K, B, H) @
(K, H, 4H) product for K distinct stores with up to B lanes each; its
zero-padded gates take T_max * K * B * 4H * 8 bytes. Training steps the K
cross-validation folds together, one video and one store each, and
lstm_backward walks them back together. Scoring (`evaluate`, `summarize`
and the frozen Manager pass of each Worker epoch) runs a batch of videos
as lanes of one store. The stacked product multiplies each row's block on
its own, so a lane's bits do not depend on the lanes of other stores.

Sequences may be float32, as data.Video holds features: they widen exactly
inside the LSTM's products, so no caller keeps a float64 copy for it.
"""

from __future__ import annotations

import json
import math
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


class _Grads(dict):
    """Gradients by parameter name; a name's first lookup makes it, zero-filled."""

    def __init__(self, params):
        super().__init__()
        self.params = params

    def __missing__(self, name):
        grad = self[name] = np.zeros_like(self.params[name])
        return grad


class ParamStore:
    """Named float64 parameter arrays with same-shape gradient accumulators.

    add allocates no gradient: a parameter's gradient is made, zero, when
    a backward pass (or anything else) first looks it up in grads, and
    Adam makes all of them when it is built. So a store that is only
    scored, as load_checkpoint and init_policy give it, holds its
    parameters and nothing more.
    """

    def __init__(self):
        self.params = {}
        self.grads = _Grads(self.params)

    def add(self, name, value):
        if name in self.params:
            raise ValueError(f"parameter '{name}' already registered")
        arr = np.array(value, dtype=np.float64)
        self.params[name] = arr
        return arr

    def names(self):
        return list(self.params)

    def __getitem__(self, name):
        return self.params[name]

    def __contains__(self, name):
        return name in self.params

    def zero_grads(self, names=None):
        """Zero the named gradients (all by default); one not yet made is left unmade."""
        for name in names if names is not None else self.params:
            grad = self.grads.get(name)
            if grad is not None:
                grad.fill(0.0)

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


def lstm_forward(stores, prefix, seqs):
    """Run lane i's LSTM, stores[i], over its sequence seqs[i], every lane in one recurrence.

    Returns (hs, cache): hs[i] is lane i's (T_i, H) hidden states, from a
    zero state, and cache is what lstm_backward takes, opaque to callers.

    Lanes that are the same store object share one row of the stacked Wh,
    so K distinct stores with B lanes at most each step as one np.matmul of
    h (K, B, H) with Wh (K, H, 4H) per step: training's K folds, one video
    each, as (K, 1, H), and a scoring batch of one store as (1, B, H). The
    product multiplies each row's block on its own, so a lane's values do
    not depend on the stores of other lanes. Each lane's input projection
    xs @ Wx + b is one matrix product written into the zero-padded gates,
    so the inputs themselves are never padded or copied; the gates take
    T_max * K * B * 4H * 8 bytes, so callers bound K * B. A lane's rows
    after its own length run on from a zero input and are not returned.

    Sequences may be float32 (data.Video holds features as read): the product
    with the float64 Wx widens one sequence at a time, exactly, so the result
    is the same as for the sequence's float64 copy.
    """
    distinct = list({id(store): store for store in stores}.values())
    # lane i's (row, column) in the stacked state: its store's row of Wh, and its
    # place among that store's lanes
    lanes = [(distinct.index(store), stores[:i].count(store)) for i, store in enumerate(stores)]
    hidden = stores[0][f"{prefix}.Wh"].shape[0]
    steps = max(xs.shape[0] for xs in seqs)
    folds, batch = len(distinct), 1 + max(v for _, v in lanes)
    # pre-activations, turned into gates in place, gate-major so that each
    # step's elementwise work runs on contiguous blocks
    gates = np.zeros((steps, 4, folds, batch, hidden))
    for store, (k, v), xs in zip(stores, lanes, seqs):
        wx = store[f"{prefix}.Wx"]
        if xs.shape[1] != wx.shape[0]:
            raise ValueError(
                f"lstm '{prefix}': input dim {xs.shape[1]} does not match weights {wx.shape[0]}"
            )
        gates[: xs.shape[0], :, k, v] = (xs @ wx + store[f"{prefix}.b"]).reshape(-1, 4, hidden)
    # sigmoid(z) = 0.5 * (1 + tanh(z / 2)): halving the i/f/o pre-activations and
    # their Wh columns up front is exact, so each step takes one tanh over all 4H
    gates[:, :3] *= 0.5
    wh = np.stack([store[f"{prefix}.Wh"] for store in distinct])
    wh[..., : 3 * hidden] *= 0.5
    hs = np.empty((steps, folds, batch, hidden))
    cs = np.empty_like(hs)
    h = np.zeros(hs.shape[1:])
    c = np.zeros(hs.shape[1:])
    for t in range(steps):
        z = gates[t]
        z += (h @ wh).reshape(folds, batch, 4, hidden).transpose(2, 0, 1, 3)
        np.tanh(z, out=z)
        ifo = z[:3]
        ifo += 1.0
        ifo *= 0.5
        # c = f * c + i * g and h = o * tanh(c), written straight into this step's rows
        c = np.multiply(z[1], c, out=cs[t])
        c += z[0] * z[3]
        h = np.tanh(c, out=hs[t])
        h *= z[2]
    return [hs[: xs.shape[0], k, v] for (k, v), xs in zip(lanes, seqs)], (seqs, hs, cs, gates)


def lstm_backward(stores, prefix, cache, dhs):
    """Backpropagate every lane of a cache in one walk, with no truncation.

    cache comes from lstm_forward on the same stores, one lane per store:
    a cache whose lanes share a store raises ValueError. dhs[i] is the
    (T_i, H) loss gradient on lane i's hidden states, or None for none, and
    stores[i] gets lane i's gradients. The recurrent gradient is carried
    backward internally, one np.matmul of the stacked Wh (K, H, 4H) with the
    K pre-activation gradients per step. A shorter sequence's gradient is
    zero until its own last step, and stays exactly zero through its padded
    steps, whose gates are finite. A lane's parameter gradients come from its
    own T_i rows of the stacked pre-activation gradients, so they are the
    bits it would get alone; a lane with no gradient adds exact zeros to its
    parameters' gradients. A float32 sequence widens exactly inside its
    product with those rows, as in the forward's input projection.

    The walk consumes the cache: the gates are turned into the
    pre-activation gradients in place and cs into d(h)/d(c), so a forward
    pass serves one backward pass, and the walk holds one (T_max, K, H)
    array beyond the forward's own and the stacked dhs.
    """
    seqs, hs, cs, gates = cache
    if hs.shape[2] != 1:
        raise ValueError(f"lstm '{prefix}': cannot backpropagate lanes that share a store")
    hs, cs, gates = hs[:, :, 0], cs[:, :, 0], gates[..., 0, :]
    steps, folds, hidden = hs.shape
    stacked_dhs = np.zeros_like(hs)
    for k, dh in enumerate(dhs):
        if dh is not None:
            stacked_dhs[: seqs[k].shape[0], k] = dh
    gi, gf, go, gg = gates.transpose(1, 0, 2, 3)
    forget = gf.copy()
    # each gate's rows become d(pre-activation)/dc for the i, f and g gates, and
    # d(pre-activation)/dh for the o gate
    gf *= np.concatenate([np.zeros((1, folds, hidden)), cs[:-1]])
    gf *= 1.0 - forget
    tanh_c = np.tanh(cs)
    dc_dh = np.multiply(tanh_c, tanh_c, out=cs)  # 1 - tanh(c)^2 times o, in cs's place
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= go
    tanh_c *= go
    tanh_c *= 1.0 - go
    go[...] = tanh_c
    del tanh_c
    dz_dc_i = gg * gi * (1.0 - gi)
    gg *= gg
    np.subtract(1.0, gg, out=gg)
    gg *= gi
    gi[...] = dz_dc_i
    del dz_dc_i
    wh = np.stack([store[f"{prefix}.Wh"] for store in stores])
    dz_rows = np.empty((folds, 4, hidden))  # one step's gradients, fold-major for the product
    dh = np.zeros((folds, hidden))
    dc = np.zeros((folds, hidden))
    for t in range(steps - 1, -1, -1):
        dh += stacked_dhs[t]
        dc += dh * dc_dh[t]
        dz = gates[t]
        dz[2] *= dh
        dz[:2] *= dc
        dz[3] *= dc
        dz_rows[...] = dz.transpose(1, 0, 2)
        dh = (wh @ dz_rows.reshape(folds, 4 * hidden, 1))[..., 0]
        dc *= forget[t]
    for k, (store, xs) in enumerate(zip(stores, seqs)):
        n = xs.shape[0]
        fold_dz = gates[:n, :, k].reshape(n, 4 * hidden)  # a copy, gate-major like Wx's columns
        h_prev = np.vstack([np.zeros((1, hidden)), hs[: n - 1, k]])
        store.grads[f"{prefix}.Wx"] += xs.T @ fold_dz
        store.grads[f"{prefix}.Wh"] += h_prev.T @ fold_dz
        store.grads[f"{prefix}.b"] += fold_dz.sum(axis=0)


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
    """Adam at a given learning rate, with the usual constant beta1, beta2 and eps.

    Step counts are per parameter, so disjoint groups update independently.
    Building one makes the store's gradients and both moments, three
    float64 copies of every parameter, up front, so a training run lays out
    its state before the first step. A step holds one temporary the size of
    a parameter: it works in that and, once the moments are updated, in the
    gradient itself, with the operations of the textbook update in the same
    order.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, store, lr=1e-3):
        self.store = store
        self.lr = lr
        for name in store.params:
            store.grads[name]  # made on first lookup
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
            scratch = np.empty_like(grad)
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=scratch)  # (1 - beta1) * grad
            v *= self.beta2
            v += np.multiply(np.multiply(grad, 1.0 - self.beta2, out=scratch), grad, out=scratch)
            # lr * m_hat / (sqrt(v_hat) + eps), the step built in the gradient's buffer
            denom = np.sqrt(np.divide(v, 1.0 - self.beta2**t, out=scratch), out=scratch)
            denom += self.eps
            step = np.multiply(np.divide(m, 1.0 - self.beta1**t, out=grad), self.lr, out=grad)
            step /= denom
            self.store.params[name] -= step
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
            specs = [(str(e["name"]), tuple(e["shape"])) for e in header["params"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed checkpoint header ({exc!r})") from exc
        store = ParamStore()
        file_size = os.fstat(fh.fileno()).st_size
        for name, shape in specs:
            if not all(type(n) is int for n in shape):  # rejects 16.0, "16" and true
                raise ValueError(f"{path}: parameter '{name}' has non-integer shape {list(shape)}")
            if any(n < 0 for n in shape):
                raise ValueError(f"{path}: parameter '{name}' has negative shape {list(shape)}")
            if name in store:
                raise ValueError(f"{path}: parameter '{name}' is listed twice")
            nbytes = 8 * math.prod(shape)  # Python ints, which cannot wrap around
            if nbytes > file_size - fh.tell():
                raise ValueError(f"{path}: truncated payload for '{name}' of shape {list(shape)}")
            try:  # a shape with no elements can still be too large for numpy
                value = np.frombuffer(fh.read(nbytes), dtype="<f8").reshape(shape)
            except ValueError as exc:
                raise ValueError(f"{path}: parameter '{name}' shape {list(shape)}: {exc}") from None
            store.add(name, value)  # copies the read-only buffer
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
