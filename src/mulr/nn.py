"""Numeric kernels with hand-written backward passes.

All kernels take batches only: every input has a leading batch axis,
even for one example, and every output keeps it. Each layer has one
forward pass, ``forward(..., train=True)``. With ``train`` set it caches
what its backward pass needs; with ``train=False``, the scoring pass, it
computes the same bits and drops any cache it held, so a scored layer
keeps nothing for backward. Backward reads the cache of the last training
forward; it overwrites the parameter gradients in ``.grads``, writing into
the arrays the layer allocated at construction, and returns the gradient
with respect to the layer input, so a second backward after one forward
gives the same gradients again.
Parameters initialize uniformly in [-0.05, 0.05] from the caller's
generator.

Dtype policy: ``init_uniform`` returns ``DTYPE`` (float32, the single
precision word2vec and fastText compute in), rounding the same draws, so
the random stream does not depend on it. Every layer computes in the dtype
of its own parameters: inputs are cast to it at the layer's boundary, and
caches, gradients, AdaGrad accumulators and scratch buffers follow it. A
layer built from float64 arrays (or with ``DTYPE`` set to float64) is the
float64 reference the gradient checks run on. ``bce_loss`` and ``sigmoid``
of float64 logits stay in float64; the typer lifts its logits there. The
policy covers SGNS too: ``embeddings`` trains ``w_in``/``w_out`` and holds
every store in ``DTYPE``, reading it when training starts or a store is
built, so setting it to float64 gives the float64 reference there as well.
``scatter_add`` sums in float64 and adds into the table's own dtype.

``SparseLinear`` maps binary feature rows, given as CSR id lists, through a
table of shape (features, out), summing each row's table rows. Its gradient
covers only the table rows the batch touched, and ``AdaGrad.step_rows``
updates only those rows, block by block, which is exact: AdaGrad leaves an
entry whose gradient is zero as it was.

No gradient clipping anywhere; the LSTM has no peephole connections; the
rectifier's subgradient at zero is zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

BCE_EPS = 1e-7
INIT_SCALE = 0.05
DTYPE = np.float32
# Gradient bytes per ``AdaGrad.step_rows`` block: 163 rows at 400 float32
# columns. On the typer's feature table (7,651 of 14,329 rows x 400 float32
# per step) a sweep on a Xeon with 2 MiB of L2 per core read 13.3 ms
# unblocked and 7.9 / 6.9 / 7.3 / 10.4 / 12.2 ms at 64 / 128 / 256 / 512 /
# 1,024 rows per block; 163 rows read 6.9 ms.
STEP_BLOCK_BYTES = 1 << 18


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def bce_loss(p: np.ndarray, m: np.ndarray) -> float:
    """Binary cross entropy summed over all components, inputs clamped."""
    p = np.asarray(p, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if p.shape != m.shape:
        raise NumericError(f"bce shape mismatch: {p.shape} vs {m.shape}")
    q = np.clip(p, BCE_EPS, 1.0 - BCE_EPS)
    return float(-np.sum(m * np.log(q) + (1.0 - m) * np.log(1.0 - q)))


def scatter_add(table: np.ndarray, rows: np.ndarray,
                vals: np.ndarray) -> None:
    """``table[rows] += vals`` with the updates of repeated rows summed.

    Time and memory grow with the batch, not with the table.
    """
    dim = table.shape[1]
    uniq, inv = np.unique(rows, return_inverse=True)
    flat = (inv[:, None] * dim + np.arange(dim)).ravel()
    sums = np.bincount(flat, weights=vals.ravel(), minlength=uniq.size * dim)
    table[uniq] += sums.reshape(-1, dim)


def init_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape).astype(DTYPE)


def _floats(a) -> np.ndarray:
    """``a`` as an array of its own floating dtype, or of ``DTYPE``."""
    a = np.asarray(a)
    return a if np.issubdtype(a.dtype, np.floating) else a.astype(DTYPE)


class Dense:
    """Affine map y = x W^T + b with W of shape (out, in)."""

    def __init__(self, W: np.ndarray, b: np.ndarray):
        W = _floats(W)
        b = np.asarray(b, dtype=W.dtype)
        if W.ndim != 2 or b.shape != (W.shape[0],):
            raise NumericError(f"inconsistent dense shapes {W.shape}, {b.shape}")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise NumericError("non-finite dense parameters")
        self.W = W
        self.b = b
        self.grads = {"W": np.zeros_like(W), "b": np.zeros_like(b)}
        self._x = None

    @classmethod
    def initialize(cls, in_dim: int, out_dim: int, rng: np.random.Generator):
        return cls(init_uniform(rng, (out_dim, in_dim)),
                   init_uniform(rng, (out_dim,)))

    @property
    def in_dim(self) -> int:
        return self.W.shape[1]

    @property
    def out_dim(self) -> int:
        return self.W.shape[0]

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        x = np.asarray(x, dtype=self.W.dtype)
        if x.shape[-1] != self.in_dim:
            raise NumericError(f"dense expected input dim {self.in_dim}, "
                               f"got {x.shape[-1]}")
        self._x = x if train else None
        return x @ self.W.T + self.b

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dy = np.asarray(dy, dtype=self.W.dtype)
        np.matmul(dy.T, self._x, out=self.grads["W"])
        np.sum(dy, axis=0, out=self.grads["b"])
        return dy @ self.W


def csr_take(indptr: np.ndarray, indices: np.ndarray,
             rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of the CSR rows (indptr, indices), in that order."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    out_ptr = np.concatenate([[0], np.cumsum(counts)])
    picks = np.repeat(starts - out_ptr[:-1], counts) + np.arange(out_ptr[-1])
    return out_ptr, indices[picks]


class SparseLinear:
    """Linear map of binary feature rows: row b maps to the sum of the
    table rows ``W[j]`` over its feature ids j; ``W`` has shape
    (features, out).

    Rows come as CSR id lists (``indptr``, ``indices``), and the ids of one
    row must be distinct, as ``levels.Assembler.feature_rows`` gives them:
    forward counts an id as often as the row lists it, while backward's
    scatter adds each row's gradient once per distinct id.

    Forward sums each row's table rows, ``W.take(ids, axis=0).sum(axis=0)``
    into a preallocated output, one row at a time, so a row's ~150 table
    rows stay in cache; training, it caches only the CSR arrays it was
    given.
    Backward sets the gradient of the batch's distinct features U only:
    ``rows`` holds U, sorted, and ``grad`` one gradient row per entry, into
    which each row's output gradient is added at its ids.
    """

    def __init__(self, W: np.ndarray):
        W = np.ascontiguousarray(_floats(W))
        if W.ndim != 2:
            raise NumericError(f"sparse table must be 2-D, got {W.shape}")
        if not np.all(np.isfinite(W)):
            raise NumericError("non-finite sparse table")
        self.W = W
        self.rows = np.zeros(0, dtype=np.int64)
        self.grad = np.zeros((0, W.shape[1]), dtype=W.dtype)
        self._indptr = None
        self._indices = None

    def forward(self, indptr: np.ndarray, indices: np.ndarray,
                train: bool = True) -> np.ndarray:
        indices = np.asarray(indices)
        if indices.size and (indices.min() < 0
                             or indices.max() >= self.W.shape[0]):
            raise NumericError(f"feature id outside the {self.W.shape[0]}-row "
                               f"table")
        bounds = np.asarray(indptr).tolist()
        out = np.empty((len(bounds) - 1, self.W.shape[1]), dtype=self.W.dtype)
        for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            self.W.take(indices[lo:hi], axis=0).sum(axis=0, out=out[b])
        self._indptr, self._indices = ((indptr, indices) if train
                                       else (None, None))
        return out

    def backward(self, dy: np.ndarray) -> None:
        dy = np.asarray(dy, dtype=self.W.dtype)
        U, col = np.unique(self._indices, return_inverse=True)
        grad = np.zeros((U.size, self.W.shape[1]), dtype=self.W.dtype)
        bounds = np.asarray(self._indptr).tolist()
        for b, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            # distinct ids, so fancy-index += adds dy[b] to each of them
            grad[col[lo:hi]] += dy[b]
        self.rows, self.grad = U, grad


class ConvMaxPool:
    """Narrow 1-D convolution over a character matrix, max-pooled per filter.

    ``widths`` maps window width w to a filter count; each width w keeps
    filters of shape (count, w, d) applied to every length-w slice of the
    (length, d) input, followed by the rectifier and a max over positions.
    Outputs are concatenated in the declared width order, giving one value
    per filter.

    Only each example's distinct windows are computed. Its last distinct
    row r is the first row of its trailing run of equal rows (a name's
    padding), found by comparing adjacent rows. A window at p > r lies in
    that run, so it equals window r, and the max over positions and the
    first position holding it are those over the windows at p <= r:
    ``min(r, l - w) + 1`` windows of width w instead of ``l - w + 1``.
    The windows are laid out position-major, with the examples sorted
    stably by descending r, so the examples that have a window at p are a
    prefix of the batch. Per width one GEMM gives every window's
    preactivation; an in-place ``np.maximum`` per position folds that
    position's block into the running max of its prefix; the bias is
    added after the max, which is exact, since float rounding of
    ``x + b`` is monotone in ``x``: ``max_p fl(pre_p + b) =
    fl(max_p pre_p + b)``. The output is put back in the input's order.

    Training, ``forward`` also keeps per (example, filter) the first
    position holding the max: a later position replaces it only if its
    preactivation is strictly greater. It caches per width what backward
    reads: the window columns, where each position's block of them starts,
    the argmax and whether the rectifier passes the pooled value. Scoring
    (``train=False``) finds no argmax and caches nothing; it drops each
    width's windows before the next width's are built. The argmax does not
    touch the running max, so both give the same bits in any dtype.
    """

    def __init__(self, widths: list[tuple[int, int]], d_in: int,
                 rng: np.random.Generator):
        for w, count in widths:
            if not (1 <= w <= 10):
                raise NumericError(f"filter width {w} outside [1, 10]")
            if count < 1:
                raise NumericError("filter count must be positive")
        self.widths = list(widths)
        self.d_in = d_in
        self.filters = {w: init_uniform(rng, (count, w, d_in))
                        for w, count in widths}
        self.biases = {w: init_uniform(rng, (count,)) for w, count in widths}
        self.grads = {k: np.zeros_like(p) for k, p in self.params().items()}
        self._cache = None

    @property
    def out_dim(self) -> int:
        return sum(count for _, count in self.widths)

    @property
    def dtype(self) -> np.dtype:
        return self.filters[self.widths[0][0]].dtype

    @property
    def max_width(self) -> int:
        return max(w for w, _ in self.widths)

    def params(self) -> dict[str, np.ndarray]:
        out = {}
        for w, _ in self.widths:
            out[f"H{w}"] = self.filters[w]
            out[f"b{w}"] = self.biases[w]
        return out

    def forward(self, C: np.ndarray, train: bool = True) -> np.ndarray:
        C = self._checked(C)
        order, last = self._order(C)
        B = C.shape[0]
        out = np.empty((B, self.out_dim), dtype=self.dtype)
        per_width = {}
        col = 0
        for w, count in self.widths:
            arg = np.zeros((B, count), dtype=np.int32) if train else None
            starts, cols, top = self._max_preactivations(C, order, last, w,
                                                         arg)
            out[order, col:col + count] = relu(top)
            col += count
            if train:
                # backward reads the preactivation only at the argmax, and
                # only its sign: the rectifier's gate there
                per_width[w] = (starts, cols, arg, top > 0.0)
            del starts, cols, top
        self._cache = ({"C_shape": C.shape, "order": order,
                        "per_width": per_width} if train else None)
        return out

    def _checked(self, C: np.ndarray) -> np.ndarray:
        C = np.ascontiguousarray(C, dtype=self.dtype)
        _, l, d = C.shape
        if l < self.max_width:
            raise NumericError(f"input length {l} shorter than "
                               f"widest filter {self.max_width}")
        if d != self.d_in:
            raise NumericError(f"expected row size {self.d_in}, got {d}")
        return C

    @staticmethod
    def _order(C: np.ndarray):
        """The examples sorted stably by descending last distinct row, and
        that row of each in this order."""
        B, l, _ = C.shape
        # same[:, i]: row i equals row i - 1; row 0 starts a run
        same = np.zeros((B, l), dtype=bool)
        np.all(C[:, 1:] == C[:, :-1], axis=2, out=same[:, 1:])
        last = l - 1 - same[:, ::-1].argmin(axis=1)
        order = np.argsort(-last, kind="stable")
        return order, last[order]

    def _max_preactivations(self, C: np.ndarray, order: np.ndarray,
                            last: np.ndarray, w: int,
                            arg: np.ndarray | None = None):
        """Per example in ``order`` and filter of width ``w``, the largest
        preactivation plus the bias, and the windows it was taken over:
        where each position's block of windows starts, and the windows'
        (rows, w * d) columns. ``arg``, if given, receives the first
        position holding each max."""
        B, l, d = C.shape
        windows = np.minimum(last, l - w) + 1  # descending
        # at[p]: how many examples, a prefix, have a window at position p
        at = np.searchsorted(-windows, -np.arange(windows.max(initial=0)))
        starts = np.zeros(at.size + 1, dtype=np.intp)
        np.cumsum(at, out=starts[1:])
        positions = np.arange(at.size, dtype=np.int32)
        rank = np.arange(starts[-1]) - np.repeat(starts[:-1], at)
        src = order[rank] * l + np.repeat(positions, at)
        cols = np.take(C.reshape(B * l, d), src[:, None] + np.arange(w),
                       axis=0).reshape(-1, w * d)
        count = self.filters[w].shape[0]
        pre = cols @ self.filters[w].reshape(count, w * d).T
        top = pre[:B]
        for p in positions[1:]:
            block = pre[starts[p]:starts[p + 1]]
            head = top[:at[p]]
            if arg is not None:
                # p exceeds every earlier position, so this sets the
                # argmax to p exactly where block beats the running max
                np.maximum(arg[:at[p]], (block > head) * p, out=arg[:at[p]])
            np.maximum(head, block, out=head)
        top += self.biases[w]
        return starts, cols, top

    def backward(self, dout: np.ndarray) -> np.ndarray:
        cache = self._cache
        B, l, d = cache["C_shape"]
        order = cache["order"]
        # examples in the order forward sorted them
        dout = np.asarray(dout, dtype=self.dtype)[order]
        # position-major, like the windows: dC_t[j, b] is row j of example b
        dC_t = np.zeros((l, B, d), dtype=self.dtype)
        col = 0
        for w, count in self.widths:
            starts, cols, arg, gate = cache["per_width"][w]
            g = dout[:, col:col + count] * gate
            col += count
            # the pooled gradient lands on each filter's argmax window: the
            # example's row in that position's block
            G = np.zeros((count, cols.shape[0]), dtype=self.dtype)
            np.put_along_axis(G, (starts[arg] + np.arange(B)[:, None]).T,
                              g.T, axis=1)
            H = self.filters[w].reshape(count, w * d)
            np.matmul(G, cols, out=self.grads[f"H{w}"].reshape(count, w * d))
            np.sum(g, axis=0, out=self.grads[f"b{w}"])
            dcols = (G.T @ H).reshape(-1, w, d)
            for p in range(starts.size - 1):
                # window p of each example in the block covers rows p..p+w-1
                block = dcols[starts[p]:starts[p + 1]]
                dC_t[p:p + w, :block.shape[0]] += block.swapaxes(0, 1)
        dC = np.empty((B, l, d), dtype=self.dtype)
        dC[order] = dC_t.swapaxes(0, 1)
        return dC


class Lstm:
    """Plain LSTM over a padded sequence; gate order is i, f, o, g."""

    def __init__(self, Wx: np.ndarray, Wh: np.ndarray, b: np.ndarray):
        hidden = Wh.shape[1]
        if Wx.shape[0] != 4 * hidden or Wh.shape != (4 * hidden, hidden) \
                or b.shape != (4 * hidden,):
            raise NumericError("inconsistent LSTM gate shapes")
        self.Wx = _floats(Wx)
        self.Wh = np.asarray(Wh, dtype=self.Wx.dtype)
        self.b = np.asarray(b, dtype=self.Wx.dtype)
        self.hidden = hidden
        self.grads = {"Wx": np.zeros_like(self.Wx),
                      "Wh": np.zeros_like(self.Wh),
                      "b": np.zeros_like(self.b)}
        self._cache = None

    @classmethod
    def initialize(cls, in_dim: int, hidden: int, rng: np.random.Generator):
        return cls(init_uniform(rng, (4 * hidden, in_dim)),
                   init_uniform(rng, (4 * hidden, hidden)),
                   init_uniform(rng, (4 * hidden,)))

    @property
    def in_dim(self) -> int:
        return self.Wx.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {"Wx": self.Wx, "Wh": self.Wh, "b": self.b}

    def forward(self, xs: np.ndarray, h0: np.ndarray | None = None,
                train: bool = True):
        """Run the recurrence; returns the last state, (batch, hidden).

        ``xs`` has shape (batch, steps, in_dim). The cell state starts at
        zero. Training, each step's inputs, states and gates are cached.
        """
        dtype = self.Wx.dtype
        xs = np.asarray(xs, dtype=dtype)
        B, steps, d = xs.shape
        if steps == 0:
            raise NumericError("empty input sequence")
        if d != self.in_dim:
            raise NumericError(f"lstm expected input dim {self.in_dim}, got {d}")
        h = (np.zeros((B, self.hidden), dtype=dtype) if h0 is None
             else np.array(h0, dtype=dtype))
        c = np.zeros((B, self.hidden), dtype=dtype)
        cache = []
        H = self.hidden
        for t in range(steps):
            z = xs[:, t] @ self.Wx.T + h @ self.Wh.T + self.b
            i = sigmoid(z[:, :H])
            f = sigmoid(z[:, H:2 * H])
            o = sigmoid(z[:, 2 * H:3 * H])
            g = np.tanh(z[:, 3 * H:])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h_new = o * tanh_c
            if train:
                cache.append((xs[:, t], h, c, i, f, o, g, tanh_c))
            h, c = h_new, c_new
        self._cache = cache if train else None
        return h

    def backward(self, dh_last: np.ndarray):
        """Backpropagate from the last state.

        Returns (dxs, dh0): gradients for the inputs and the initial hidden
        state, the latter feeding the coupled bidirectional variant.
        """
        cache = self._cache
        steps = len(cache)
        B = dh_last.shape[0]
        H = self.hidden
        dtype = self.Wx.dtype
        dxs = np.zeros((B, steps, self.in_dim), dtype=dtype)
        dh = np.array(dh_last, dtype=dtype)
        dc = np.zeros((B, H), dtype=dtype)
        # the steps' gradients are summed into the arrays from zero
        for grad in self.grads.values():
            grad[...] = 0.0
        for t in range(steps - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, o, g, tanh_c = cache[t]
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c ** 2)
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc = dc * f
            dz = np.concatenate([di * i * (1.0 - i),
                                 df * f * (1.0 - f),
                                 do * o * (1.0 - o),
                                 dg * (1.0 - g ** 2)], axis=1)
            self.grads["Wx"] += dz.T @ x_t
            self.grads["Wh"] += dz.T @ h_prev
            self.grads["b"] += dz.sum(axis=0)
            dxs[:, t] = dz @ self.Wx
            dh = dz @ self.Wh
        return dxs, dh


class AdaGrad:
    """Per-coordinate adaptive step: acc += g^2; p -= lr * g / (sqrt(acc) + eps).

    ``step`` and ``step_rows`` run the formula's IEEE operations in its
    order, so they agree bit for bit. Both work in the parameter's dtype,
    casting the gradient to it, and in two scratch buffers of that dtype
    kept across calls, since a fresh gradient-sized temporary that large is
    mapped and page-faulted anew on every call. ``step_rows`` runs that
    sequence over blocks of ``STEP_BLOCK_BYTES`` of gradient rows, so a
    block's gradient, scratch and gathered rows stay in L2 from one
    operation to the next; every operation is elementwise and the rows are
    distinct, so the blocked step is bit-identical to the unblocked one.
    """

    def __init__(self, learning_rate: float = 0.01, eps: float = 1e-8):
        self.learning_rate = learning_rate
        self.eps = eps
        self.acc: dict[str, np.ndarray] = {}
        self._scratch = np.empty(0, dtype=DTYPE)

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            g = np.asarray(grads[name], dtype=p.dtype)
            if g.shape != p.shape:
                raise NumericError(f"gradient shape mismatch for {name!r}")
            acc = self._acc(name, p)
            buf, den = self._buffers(g.shape, p.dtype)
            np.multiply(g, g, out=buf)
            acc += buf
            np.sqrt(acc, out=den)
            p -= self._scaled(g, den, buf)

    def step_rows(self, name: str, p: np.ndarray, rows: np.ndarray,
                  g: np.ndarray) -> None:
        """``step`` on the distinct rows ``rows`` of ``p`` only; ``g`` has
        one gradient row per entry of ``rows``."""
        g = np.asarray(g, dtype=p.dtype)
        if g.shape != (len(rows),) + p.shape[1:]:
            raise NumericError(f"gradient shape mismatch for {name!r}")
        acc = self._acc(name, p)
        row_bytes = math.prod(p.shape[1:]) * p.itemsize
        block = max(1, STEP_BLOCK_BYTES // max(1, row_bytes))
        bufs, pickeds = self._buffers((min(block, len(rows)),) + p.shape[1:],
                                      p.dtype)
        for lo in range(0, len(rows), block):
            r, gb = rows[lo:lo + block], g[lo:lo + block]
            buf, picked = bufs[:len(r)], pickeds[:len(r)]
            np.multiply(gb, gb, out=buf)
            np.take(acc, r, axis=0, out=picked, mode="clip")
            picked += buf
            acc[r] = picked
            np.sqrt(picked, out=picked)
            self._scaled(gb, picked, buf)
            np.take(p, r, axis=0, out=picked, mode="clip")
            picked -= buf
            p[r] = picked

    def _acc(self, name: str, p: np.ndarray) -> np.ndarray:
        if name not in self.acc:
            self.acc[name] = np.zeros_like(p)
        return self.acc[name]

    def _buffers(self, shape, dtype) -> tuple[np.ndarray, np.ndarray]:
        n = math.prod(shape)
        if self._scratch.size < 2 * n or self._scratch.dtype != dtype:
            self._scratch = np.empty(2 * n, dtype=dtype)
        return (self._scratch[:n].reshape(shape),
                self._scratch[n:2 * n].reshape(shape))

    def _scaled(self, g: np.ndarray, den: np.ndarray,
                out: np.ndarray) -> np.ndarray:
        """lr * g / (den + eps) into ``out``, with ``den`` = sqrt(acc)
        overwritten."""
        den += self.eps
        np.multiply(self.learning_rate, g, out=out)
        out /= den
        return out
