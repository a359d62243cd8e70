"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, obvious way (python
loops, direct formula transcription) and never imports model code beyond
the tensor primitives under test, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from ddm import tensor as T


# ---------------------------------------------------------------------------
# finite differences


def finite_difference(f, arrays, eps: float = 1e-5):
    """Central-difference gradient of scalar ``f()`` w.r.t. each array.

    The arrays are perturbed in place one element at a time; ``f`` must
    recompute from their current contents on every call.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = f()
            flat[i] = orig - eps
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Max elementwise |a-b| / max(1, |a|, |b|)."""
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_gradients(make, seeds=range(3), eps: float = 1e-5,
                    tol: float = 1e-4) -> None:
    """Analytic vs central-difference gradients for a builder.

    ``make(rng)`` returns ``(params, forward)`` where ``forward()`` yields a
    scalar Tensor recomputed from the params' current data.
    """
    for seed in seeds:
        rng = np.random.default_rng(seed)
        params, forward = make(rng)
        T.backward(forward())
        analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                    for p in params]
        with T.no_grad():
            fd = finite_difference(lambda: forward().item(),
                                   [p.data for p in params], eps)
        for name_idx, (a, f) in enumerate(zip(analytic, fd)):
            err = rel_err(a, f)
            assert err <= tol, (
                f"seed {seed}, param {name_idx}: gradient error {err:.3e}")


# ---------------------------------------------------------------------------
# scalar reference math


def softmax_rows(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    for idx in np.ndindex(x.shape[:-1]):
        row = x[idx]
        e = np.exp(row - row.max())
        out[idx] = e / e.sum()
    return out


def layer_norm_ref(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                   eps: float) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def attention_ref(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Single-head scaled dot-product attention, one (S_q, d) query block."""
    dk = q.shape[-1]
    scores = q @ k.T / np.sqrt(dk)
    return softmax_rows(scores) @ v


def mha_ref(q, k, v, wq, wk, wv, wo, heads: int) -> np.ndarray:
    """Multi-head attention recomputed per head with plain numpy.

    Head ``h`` uses the column block ``[h*dk:(h+1)*dk]`` of each projection,
    matching the implementation's reshape convention.
    """
    c = wq.shape[0]
    dk = c // heads
    blocks = []
    for h in range(heads):
        sl = slice(h * dk, (h + 1) * dk)
        blocks.append(attention_ref(q @ wq[:, sl], k @ wk[:, sl], v @ wv[:, sl]))
    return np.concatenate(blocks, axis=-1) @ wo


def conv2d_ref(x, w, b, dilation: int, pad_mode: str, probe):
    """Stride-1 "same" convolution as a direct sum over output cells and
    kernel taps (vectorised over frames only), with the gradients of
    ``sum(probe * y)``.

    A tap that falls outside the frame reads zero (``"zero"``) or the
    nearest edge cell (``"edge"``), so under edge padding a border cell
    collects the gradient of every tap clamped onto it.  Returns
    ``(y, gx, gw, gb)``.
    """
    n, h, wd, _ = x.shape
    kh, kw, _, cout = w.shape
    y = np.zeros((n, h, wd, cout))
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for r in range(h):
        for c in range(wd):
            for i in range(kh):
                for j in range(kw):
                    sr = r + (i - kh // 2) * dilation
                    sc = c + (j - kw // 2) * dilation
                    if not (0 <= sr < h and 0 <= sc < wd):
                        if pad_mode == "zero":
                            continue
                        sr, sc = min(max(sr, 0), h - 1), min(max(sc, 0), wd - 1)
                    y[:, r, c] += x[:, sr, sc] @ w[i, j]
                    gx[:, sr, sc] += probe[:, r, c] @ w[i, j].T
                    gw[i, j] += x[:, sr, sc].T @ probe[:, r, c]
    return y + b, gx, gw, probe.sum(axis=(0, 1, 2))


def pairwise_distances_ref(seq: np.ndarray, metric: str) -> np.ndarray:
    """T x T frame distances by explicit double loop."""
    t = seq.shape[0]
    out = np.zeros((t, t))
    for i in range(t):
        for j in range(t):
            a, b = seq[i], seq[j]
            if metric == "euclidean":
                out[i, j] = np.sqrt(np.sum((a - b) ** 2))
            elif metric == "manhattan":
                out[i, j] = np.sum(np.abs(a - b))
            elif metric == "chebyshev":
                out[i, j] = np.max(np.abs(a - b))
            elif metric == "cosine":
                na, nb = np.sqrt(a @ a), np.sqrt(b @ b)
                if na == 0.0 and nb == 0.0:
                    out[i, j] = 0.0
                elif na == 0.0 or nb == 0.0:
                    out[i, j] = 1.0
                else:
                    out[i, j] = 1.0 - (a @ b) / (na * nb)
            else:
                raise ValueError(metric)
    return out


# ---------------------------------------------------------------------------
# decision procedures


def select_peaks_ref(scores, theta: float, window: int) -> list[int]:
    """Exhaustive scan form of the peak rule: at least theta, strictly above
    every score in the preceding window, at least every score in the
    following window (so plateaus resolve to their left-most index)."""
    picked = []
    n = len(scores)
    for i in range(n):
        if scores[i] < theta:
            continue
        ok = True
        for j in range(max(0, i - window), i):
            if not scores[i] > scores[j]:
                ok = False
                break
        if ok:
            for j in range(i + 1, min(n, i + window + 1)):
                if not scores[i] >= scores[j]:
                    ok = False
                    break
        if ok:
            picked.append(i)
    return picked


def max_matching_ref(preds, gts, num_frames: int, threshold: float) -> int:
    """Maximum one-to-one matching size by exhaustive assignment search.

    ``best(i, used)`` is the largest matching of predictions i.. onto the
    truths outside the bitmask ``used``; memoising it visits each of the
    at most len(preds) * 2**len(gts) states once.
    """
    edges = [[abs(p - g) / num_frames <= threshold for g in gts] for p in preds]

    @functools.lru_cache(maxsize=None)
    def best(i: int, used: int) -> int:
        if i == len(preds):
            return 0
        top = best(i + 1, used)
        for j in range(len(gts)):
            if edges[i][j] and not used & (1 << j):
                top = max(top, 1 + best(i + 1, used | (1 << j)))
        return top

    return best(0, 0)


# ---------------------------------------------------------------------------
# file formats


def encode_frames_ref(frames) -> bytes:
    """A frames file written field by field: magic, version 1, the four
    extents, then each value rounded to a float32, in C order."""
    arr = np.asarray(frames, dtype=np.float64)
    out = [b"DDMF", struct.pack("<I", 1)]
    out += [struct.pack("<I", extent) for extent in arr.shape]
    out += [struct.pack("<f", x) for x in arr.reshape(-1).tolist()]
    return b"".join(out)


def encode_records_ref(records: dict) -> bytes:
    """The checkpoint container written field by field: magic, version 1,
    then per record its name, rank, extents and each value in C order."""
    out = [b"DDMN", struct.pack("<I", 1)]
    for name, value in records.items():
        arr = np.asarray(value, dtype=np.float64)
        key = name.encode("utf-8")
        out += [struct.pack("<I", len(key)), key, struct.pack("<I", arr.ndim)]
        out += [struct.pack("<Q", extent) for extent in arr.shape]
        out += [struct.pack("<d", x) for x in arr.reshape(-1).tolist()]
    return b"".join(out)
