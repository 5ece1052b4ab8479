import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from numpy.lib.stride_tricks import sliding_window_view

from mulr import nn
from mulr.errors import NumericError
from mulr.levels import MAX_WIDTH, CharVocab, ClrEncoder, LevelSpec
from mulr.nn import (AdaGrad, ConvMaxPool, Dense, Lstm, SparseLinear,
                     bce_loss, csr_take, relu, sigmoid)

from gradcheck import grad_check


def float64_twin(build, layer_dtype):
    """The layer ``build()`` makes in ``nn.DTYPE`` (float32), and a float64
    twin holding the same parameter values: the reference it is held to."""
    layer_dtype(np.float64)
    ref = build()
    layer_dtype(np.float32)
    layer = build()
    for name, value in ref.params().items():
        value[...] = layer.params()[name]
    return layer, ref


class TestDense:
    def test_identity(self):
        layer = Dense(np.eye(3), np.zeros(3))
        x = np.array([[1.0, -2.0, 3.0]])
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_zero_weights_bias_only(self):
        layer = Dense(np.zeros((2, 3)), np.array([5.0, -1.0]))
        np.testing.assert_array_equal(layer.forward(np.ones((1, 3))),
                                      [[5.0, -1.0]])

    def test_hand_multiplication(self):
        layer = Dense(np.array([[1.0, 2.0], [3.0, 4.0]]), np.zeros(2))
        np.testing.assert_array_equal(layer.forward(np.array([[1.0, 1.0]])),
                                      [[3.0, 7.0]])

    def test_shape_mismatch(self):
        layer = Dense(np.eye(3), np.zeros(3))
        with pytest.raises(NumericError):
            layer.forward(np.ones((1, 4)))


SPARSE_FEATURES = 10
# CSR rows over a table of SPARSE_FEATURES rows, with distinct ids per row
SPARSE_CASES = {
    "shared ids": ([0, 3, 5, 8], [0, 4, 9, 4, 0, 9, 2, 4]),
    "empty row": ([0, 2, 2, 4], [9, 1, 1, 0]),
    "every row empty": ([0, 0, 0, 0], []),
    "no rows": ([0], []),
    "first and last id only": ([0, 1, 2, 4], [0, 9, 9, 0]),
    "random": None,
}


def sparse_case(case: str, rng: np.random.Generator):
    """The (indptr, indices) of ``SPARSE_CASES[case]``; "random" draws 40
    rows of 0 to 6 distinct ids each."""
    if SPARSE_CASES[case] is not None:
        return tuple(np.array(a, dtype=np.int64) for a in SPARSE_CASES[case])
    rows = [rng.choice(SPARSE_FEATURES, size=k, replace=False)
            for k in rng.integers(0, 7, size=40)]
    indptr = np.concatenate([[0], np.cumsum([r.size for r in rows])])
    return indptr, np.concatenate(rows).astype(np.int64)


def one_hot(indptr: np.ndarray, indices: np.ndarray,
            features: int) -> np.ndarray:
    """The dense float64 0/1 matrix of CSR rows."""
    X = np.zeros((indptr.size - 1, features))
    X[np.repeat(np.arange(indptr.size - 1), np.diff(indptr)), indices] = 1.0
    return X


def assert_close_in(dtype, got: np.ndarray, want: np.ndarray) -> None:
    """``got`` within 1e-12 of the float64 ``want``, or within 1e-6 times
    its scale when ``got`` is float32."""
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    atol = 1e-12 if dtype == np.float64 else 1e-6 * scale
    np.testing.assert_allclose(got, want, rtol=0, atol=atol)


class TestSparseLinear:
    def test_rows_sum_table_rows(self):
        W = np.arange(12.0).reshape(4, 3)
        layer = SparseLinear(W)
        out = layer.forward(np.array([0, 2, 2, 3]), np.array([0, 2, 2]))
        np.testing.assert_array_equal(out, [W[0] + W[2], np.zeros(3), W[2]])

    def test_backward_leaves_touched_rows_only(self):
        """A feature shared by rows gets the sum of their gradients, once."""
        layer = SparseLinear(np.zeros((6, 2)))
        layer.forward(np.array([0, 2, 4]), np.array([4, 1, 1, 3]))
        dy = np.array([[1.0, 2.0], [10.0, 20.0]])
        layer.backward(dy)
        assert layer.rows.tolist() == [1, 3, 4]
        np.testing.assert_array_equal(layer.grad,
                                      [dy[0] + dy[1], dy[1], dy[0]])

    def test_empty_batch(self):
        layer = SparseLinear(np.ones((3, 2)))
        assert layer.forward(np.array([0]), np.zeros(0, int)).shape == (0, 2)
        layer.backward(np.zeros((0, 2)))
        assert layer.rows.size == 0 and layer.grad.shape == (0, 2)

    def test_id_outside_table(self):
        layer = SparseLinear(np.ones((3, 2)))
        with pytest.raises(NumericError):
            layer.forward(np.array([0, 1]), np.array([3]))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", SPARSE_CASES)
    def test_matches_dense_one_hot(self, case, dtype):
        """Forward is ``X @ W`` and backward ``X.T @ dy`` on the touched
        rows, for the dense 0/1 matrix X of the rows: to 1e-12 in float64
        and 1e-6 times the scale in float32."""
        rng = np.random.default_rng(15)
        indptr, indices = sparse_case(case, rng)
        W = rng.normal(size=(SPARSE_FEATURES, 5)).astype(dtype)
        dy = rng.normal(size=(indptr.size - 1, 5)).astype(dtype)
        layer = SparseLinear(W)
        out = layer.forward(indptr, indices)
        layer.backward(dy)
        X = one_hot(indptr, indices, SPARSE_FEATURES)
        touched = np.unique(indices)
        assert out.dtype == layer.grad.dtype == dtype
        assert_close_in(dtype, out, X @ W.astype(np.float64))
        np.testing.assert_array_equal(layer.rows, touched)
        assert_close_in(dtype, layer.grad,
                        (X.T @ dy.astype(np.float64))[touched])

    def test_csr_take_matches_row_loop(self):
        rng = np.random.default_rng(0)
        lengths = rng.integers(0, 4, size=9)
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        indices = rng.integers(0, 20, size=indptr[-1])
        rows = rng.permutation(9)[:6]
        out_ptr, out_idx = csr_take(indptr, indices, rows)
        expected = [indices[indptr[r]:indptr[r + 1]].tolist() for r in rows]
        assert [out_idx[a:b].tolist() for a, b
                in zip(out_ptr[:-1], out_ptr[1:])] == expected


class TestConvMaxPool:
    def test_feature_map_length(self):
        rng = np.random.default_rng(0)
        net = ConvMaxPool([(3, 2)], d_in=4, rng=rng)
        C = rng.normal(size=(1, 10, 4))
        out = net.forward(C)
        pre = conv_preactivations(net, C)[3]
        assert pre.shape == (1, 8, 2)  # l - w + 1
        # the layer's im2col columns hold one row per position, and it
        # pools over all of them
        assert net._cache["per_width"][3][1].shape[0] == 8
        np.testing.assert_allclose(out, relu(pre.max(axis=1)), rtol=0,
                                   atol=1e-6)

    def test_equal_trailing_rows_leave_r_plus_one_windows(self):
        """Rows equal from row r on: each width computes only the r + 1
        windows that start at or before r, and pools as over all of them."""
        rng = np.random.default_rng(0)
        net = ConvMaxPool([(1, 2), (3, 2), (5, 2)], d_in=4, rng=rng)
        C = rng.normal(size=(1, 10, 4))
        C[0, 4:] = C[0, 4]  # r = 4
        out = net.forward(C)
        for w in (1, 3, 5):
            assert net._cache["per_width"][w][1].shape[0] == 5
        pre = conv_preactivations(net, C)
        expected = np.concatenate([relu(pre[w].max(axis=1))
                                   for w in (1, 3, 5)], axis=1)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-6)
        np.testing.assert_array_equal(net.forward(C, train=False), out)

    def test_zero_filter_zero_bias(self):
        rng = np.random.default_rng(0)
        net = ConvMaxPool([(2, 1)], d_in=3, rng=rng)
        net.filters[2][...] = 0.0
        net.biases[2][...] = 0.0
        out = net.forward(np.ones((1, 5, 3)))
        np.testing.assert_array_equal(out, [[0.0]])

    def test_translation_invariance_of_detected_pattern(self):
        # one filter matching a unique column pattern; everywhere else the
        # constant padding column, so shifting the pattern never changes
        # the pooled maximum
        d = 3
        pattern = np.array([[1.0, -1.0, 2.0], [0.5, 0.25, -0.5]])  # w=2
        pad_col = np.zeros(d)
        rng = np.random.default_rng(1)
        net = ConvMaxPool([(2, 1)], d_in=d, rng=rng)
        net.filters[2][0] = pattern
        net.biases[2][...] = 0.1
        outputs = []
        for pos in range(0, 7):
            C = np.tile(pad_col, (8, 1))
            C[pos:pos + 2] = pattern
            outputs.append(net.forward(C[None])[0, 0])
        assert all(o == outputs[0] for o in outputs)
        assert outputs[0] > 0

    def test_width_bounds_enforced(self):
        rng = np.random.default_rng(0)
        with pytest.raises(NumericError):
            ConvMaxPool([(11, 1)], d_in=2, rng=rng)

    def test_input_shorter_than_widest_filter(self):
        rng = np.random.default_rng(0)
        net = ConvMaxPool([(4, 1)], d_in=2, rng=rng)
        with pytest.raises(NumericError, match="shorter"):
            net.forward(np.ones((1, 3, 2)))
        with pytest.raises(NumericError, match="shorter"):
            net.forward(np.ones((1, 3, 2)), train=False)


ENCODER_OPTIONS = {"padded_len": 6, "char_dim": 3, "hidden_dim": 4,
                   "widths": (1, 2), "feature_maps": 2}
LAYERS = ["dense", "sparse", "conv", "lstm", "clr-forward", "clr-cnn",
          "clr-lstm", "clr-bilstm"]


def built_layer(name: str, rng: np.random.Generator):
    """Layer ``name`` and a function that runs its forward pass over a
    batch of 3, with ``train`` as given, and returns the output backward
    takes the gradient of."""
    if name == "dense":
        layer = Dense.initialize(5, 4, rng)
        x = rng.normal(size=(3, 5))
        return layer, lambda train: layer.forward(x, train)
    if name == "sparse":
        layer = SparseLinear(rng.normal(size=(6, 4)))
        rows = np.array([0, 2, 2, 5]), np.array([1, 4, 0, 4, 5])
        return layer, lambda train: layer.forward(*rows, train)
    if name == "conv":
        layer = ConvMaxPool([(2, 3), (3, 2)], d_in=4, rng=rng)
        C = rng.normal(size=(3, 6, 4))
        return layer, lambda train: layer.forward(C, train)
    if name == "lstm":
        layer = Lstm.initialize(3, 4, rng)
        xs = rng.normal(size=(3, 5, 3))
        return layer, lambda train: layer.forward(xs, train=train)
    layer = ClrEncoder(LevelSpec(kind=name, options=ENCODER_OPTIONS),
                       CharVocab(chars=tuple("abcdef")), rng)
    ids = layer.ids_for(["abc", "fed", "a"])
    return layer, lambda train: layer.forward(ids, train)


def forwarded_layer(name: str, rng: np.random.Generator):
    """Layer ``name`` after one training forward over a batch of 3, and an
    output gradient to pass back."""
    layer, run = built_layer(name, rng)
    return layer, rng.normal(size=run(True).shape)


def layer_caches(layer) -> list:
    """Everything ``layer`` holds for its backward pass, an encoder's
    networks' caches included."""
    if isinstance(layer, ClrEncoder):
        nets = [layer.net, getattr(layer, "net_back", None)]
        return [layer._ids] + [cache for net in nets if net is not None
                               for cache in layer_caches(net)]
    names = {Dense: ("_x",), SparseLinear: ("_indptr", "_indices"),
             ConvMaxPool: ("_cache",), Lstm: ("_cache",)}[type(layer)]
    return [getattr(layer, n) for n in names]


@pytest.mark.parametrize("name", LAYERS)
def test_scoring_forward_gives_the_training_bits_and_keeps_no_cache(name):
    """``train=False`` computes what the training pass computes, bit for
    bit, and drops every cache the training pass left."""
    layer, run = built_layer(name, np.random.default_rng(0))
    trained = run(True)
    assert all(cache is not None for cache in layer_caches(layer))
    np.testing.assert_array_equal(run(False), trained)
    assert all(cache is None for cache in layer_caches(layer))


def layer_grads(layer) -> dict[str, np.ndarray]:
    if isinstance(layer, SparseLinear):
        return {"rows": layer.rows, "grad": layer.grad}
    if isinstance(layer, ClrEncoder):
        return layer.grad_dict()
    return layer.grads


@pytest.mark.parametrize("name", LAYERS)
def test_backward_overwrites_the_gradients(name):
    """Two backward passes after one forward give the gradients of one,
    not their sum. A layer with full gradients writes them into the arrays
    it allocated at construction; ``SparseLinear`` sets fresh row
    gradients."""
    layer, dy = forwarded_layer(name, np.random.default_rng(0))
    allocated = dict(layer_grads(layer))
    layer.backward(dy)
    once = {k: g.copy() for k, g in layer_grads(layer).items()}
    assert all(g.any() for g in once.values())
    layer.backward(dy)
    twice = layer_grads(layer)
    assert twice.keys() == once.keys()
    for k, g in twice.items():
        np.testing.assert_array_equal(g, once[k], err_msg=k)
        if not isinstance(layer, SparseLinear):
            assert g is allocated[k], k


def conv_preactivations(net: ConvMaxPool, C: np.ndarray) -> dict:
    """Per width, the (batch, positions, filters) preactivations of
    ``net`` on ``C``, by einsum over the windows."""
    out = {}
    for w, _ in net.widths:
        # windows[b, p, d, k] = C[b, p + k, d]
        windows = sliding_window_view(C, w, axis=1)
        out[w] = (np.einsum("bpdk,fkd->bpf", windows, net.filters[w])
                  + net.biases[w])
    return out


def conv_reference(net: ConvMaxPool, C: np.ndarray, dout: np.ndarray):
    """The einsum forward and the einsum / ``np.add.at`` backward that the
    im2col kernel replaced: (output, parameter gradients, input gradient)."""
    B, l, d = C.shape
    pooled, grads = [], {}
    dC = np.zeros_like(C)
    col = 0
    rows = np.arange(B)[:, None]
    preactivations = conv_preactivations(net, C)
    for w, count in net.widths:
        windows = sliding_window_view(C, w, axis=1)
        pre = preactivations[w]
        act = relu(pre)
        arg = act.argmax(axis=1)
        pooled.append(np.take_along_axis(act, arg[:, None, :], axis=1)[:, 0, :])
        g = dout[:, col:col + count]
        col += count
        picked = np.take_along_axis(pre, arg[:, None, :], axis=1)[:, 0, :]
        g = g * (picked > 0.0)
        sel = windows[rows, arg]                      # (B, F, d, w)
        grads[f"H{w}"] = np.einsum("bf,bfdk->fkd", g, sel)
        grads[f"b{w}"] = g.sum(axis=0)
        contrib = g[:, :, None, None] * net.filters[w][None]  # (B,F,w,d)
        row_idx = arg[:, :, None] + np.arange(w)[None, None, :]
        np.add.at(dC, (np.arange(B)[:, None, None], row_idx), contrib)
    return np.concatenate(pooled, axis=1), grads, dC


# where each of the oracle cases' six names starts its padding: no padding
# (9, the input length), all padding (0), and a name of one row (1)
ORACLE_PADS = (5, 9, 1, 0, 7, 3)


def pad_names(C: np.ndarray, row: np.ndarray,
              pads: tuple[int, ...] = ORACLE_PADS) -> None:
    """Set every row of name b from ``pads[b]`` on to ``row``."""
    for name, pad in zip(C, pads):
        name[pad:] = row


class TestConvMaxPoolReference:
    @pytest.mark.usefixtures("float64_layers")
    @pytest.mark.parametrize("case", ["random", "padded", "repeated",
                                      "dead filters"])
    def test_forward_and_backward_match_einsum_oracle(self, case):
        rng = np.random.default_rng(21)
        net = ConvMaxPool([(1, 3), (2, 4), (3, 2), (5, 3)], d_in=4, rng=rng)
        C = rng.normal(size=(6, 9, 4))
        if case == "padded":
            pad_names(C, C[0, 0])  # identical trailing rows tie positions
        if case == "repeated":
            # equal rows inside each name: the tied windows before the
            # padding are computed, and the first of them takes the gradient
            C[:, 2:4] = C[:, 1:2]
            pad_names(C, C[0, 0])
        if case == "dead filters":
            for w, _ in net.widths:
                net.biases[w][0] = -50.0  # no positive preactivation
        dout = rng.normal(size=(6, net.out_dim))
        ref_out, ref_grads, ref_dC = conv_reference(net, C, dout)
        out = net.forward(C)
        dC = net.backward(dout)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dC, ref_dC, rtol=0, atol=1e-12)
        for name, g in ref_grads.items():
            np.testing.assert_allclose(net.grads[name], g, rtol=0,
                                       atol=1e-12)


    # float32 against the float64 oracle on the same parameter values and
    # input: outputs and gradients within 1e-6 (measured under 2e-7)
    @pytest.mark.parametrize("case", ["random", "padded", "repeated",
                                      "dead filters"])
    def test_float32_matches_float64_oracle(self, case, layer_dtype):
        rng = np.random.default_rng(21)
        C = rng.normal(size=(6, 9, 4))
        if case == "padded":
            pad_names(C, C[0, 0])
        if case == "repeated":
            C[:, 2:4] = C[:, 1:2]
            pad_names(C, C[0, 0])
        net, ref = float64_twin(
            lambda: ConvMaxPool([(1, 3), (2, 4), (3, 2), (5, 3)], d_in=4,
                                rng=np.random.default_rng(21)), layer_dtype)
        if case == "dead filters":
            for w, _ in net.widths:
                net.biases[w][0] = ref.biases[w][0] = -50.0
        C = C.astype(np.float32).astype(np.float64)
        dout = rng.normal(size=(6, net.out_dim))
        ref_out, ref_grads, ref_dC = conv_reference(ref, C, dout)
        out = net.forward(C)
        dC = net.backward(dout)
        assert out.dtype == dC.dtype == np.float32
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-6)
        np.testing.assert_allclose(dC, ref_dC, rtol=0, atol=1e-6)
        for name, g in ref_grads.items():
            assert net.grads[name].dtype == np.float32
            np.testing.assert_allclose(net.grads[name], g, rtol=0, atol=1e-6)


@st.composite
def conv_inputs(draw):
    """The shape of a ``ConvMaxPool`` and of its input batch, and the seed
    that draws both: 1-300 names of the widest filter's length to 45, the
    rows of each from its own ``pads`` entry on (0: all, the length: none)
    one shared padding row (so the windows there tie), and whether every
    preactivation is negative."""
    widths = draw(st.lists(st.integers(1, MAX_WIDTH), min_size=1,
                           max_size=4, unique=True))
    maps = draw(st.integers(1, 100))
    length = draw(st.integers(max(widths), 45))
    return dict(widths=[(w, maps) for w in widths],
                pads=draw(st.lists(st.integers(0, length), min_size=1,
                                   max_size=300)),
                length=length, d=draw(st.integers(1, 12)),
                negative=draw(st.booleans()),
                seed=draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=conv_inputs(), dtype=st.sampled_from([np.float32, np.float64]))
@example(case=dict(widths=[(1, 3)], pads=[1, 0, 1], length=1, d=2,
                   negative=False, seed=0), dtype=np.float32)
def test_scoring_conv_equals_training_conv(case, dtype, layer_dtype):
    """The scoring pass against the training pass, bit for bit."""
    layer_dtype(dtype)
    rng = np.random.default_rng(case["seed"])
    net = ConvMaxPool(case["widths"], d_in=case["d"], rng=rng)
    C = rng.normal(size=(len(case["pads"]), case["length"], case["d"]))
    pad_names(C, rng.normal(size=case["d"]), case["pads"])
    if case["negative"]:
        for w, _ in net.widths:
            net.biases[w][...] = -50.0
    pooled = net.forward(C, train=False)
    assert pooled.dtype == dtype
    assert net._cache is None
    np.testing.assert_array_equal(pooled, net.forward(C))
    if case["negative"]:
        assert not pooled.any()


class TestLstm:
    def test_gated_off_cell_is_silent(self):
        h = 4
        Wx = np.zeros((4 * h, 3))
        Wh = np.zeros((4 * h, h))
        b = np.zeros(4 * h)
        b[:h] = -40.0  # input gate shut
        cell = Lstm(Wx, Wh, b)
        for steps in range(1, 7):
            last = cell.forward(np.ones((2, steps, 3)))
            np.testing.assert_array_equal(last, np.zeros((2, h)))

    def test_single_step_last_state(self):
        """One step from zero states is ``o * tanh(i * g)``."""
        rng = np.random.default_rng(2)
        cell = Lstm.initialize(3, 5, rng)
        x = rng.normal(size=(1, 1, 3))
        last = cell.forward(x)
        z = cell.Wx @ x[0, 0] + cell.b
        i, _, o, g = np.split(z, 4)
        expected = np.tanh(np.tanh(g) / (1 + np.exp(-i))) / (1 + np.exp(-o))
        assert last.shape == (1, 5)
        np.testing.assert_allclose(last[0], expected, rtol=1e-5)

    def test_empty_sequence_errors(self):
        rng = np.random.default_rng(2)
        cell = Lstm.initialize(3, 5, rng)
        with pytest.raises(NumericError, match="empty"):
            cell.forward(np.zeros((1, 0, 3)))

    @pytest.mark.usefixtures("float64_layers")
    def test_forward_matches_straight_line_oracle(self):
        rng = np.random.default_rng(3)
        d, h, steps = 4, 3, 6
        cell = Lstm.initialize(d, h, rng)
        xs = rng.normal(size=(steps, d))
        last = cell.forward(xs[None])

        # independent re-implementation of the recurrence
        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))
        hh = np.zeros(h)
        cc = np.zeros(h)
        for t in range(steps):
            z = cell.Wx @ xs[t] + cell.Wh @ hh + cell.b
            i, f, o, g = z[:h], z[h:2 * h], z[2 * h:3 * h], z[3 * h:]
            cc = sig(f) * cc + sig(i) * np.tanh(g)
            hh = sig(o) * np.tanh(cc)
        np.testing.assert_allclose(last[0], hh, atol=1e-12)


    def test_float32_forward_matches_float64(self, layer_dtype):
        """A float32 cell tracks its float64 twin within 1e-6 over six
        steps (measured under 1e-8)."""
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(2, 6, 4))
        cell, ref = float64_twin(
            lambda: Lstm.initialize(4, 3, np.random.default_rng(3)),
            layer_dtype)
        for steps in range(1, 7):
            last = cell.forward(xs[:, :steps])
            ref_last = ref.forward(xs[:, :steps])
            assert last.dtype == np.float32
            np.testing.assert_allclose(last, ref_last, rtol=0, atol=1e-6)


class TestBce:
    def test_perfect_prediction_is_tiny(self):
        m = np.array([1.0, 0.0, 1.0])
        loss = bce_loss(m, m)
        assert loss == pytest.approx(3 * -math.log(1.0 - 1e-7), rel=1e-6)

    def test_uninformative_is_log2_each(self):
        p = np.full(7, 0.5)
        m = np.array([1, 0, 1, 1, 0, 0, 1], dtype=float)
        assert bce_loss(p, m) == pytest.approx(7 * math.log(2), rel=1e-12)

    def test_hand_arithmetic(self):
        loss = bce_loss(np.array([0.9, 0.1]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(-2 * math.log(0.9), rel=1e-9)
        assert loss == pytest.approx(0.2107, abs=5e-5)

    def test_nonnegative_and_log2_only_at_half(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            p = rng.uniform(0.01, 0.99, size=n)
            m = (rng.random(n) < 0.5).astype(float)
            loss = bce_loss(p, m)
            assert loss >= 0.0
            if not np.allclose(p, 0.5):
                p_half = np.full(n, 0.5)
                assert bce_loss(p_half, m) == pytest.approx(n * math.log(2))


class TestAdaGrad:
    def test_first_step(self):
        p = {"w": np.array([1.0])}
        g = {"w": np.array([1.0])}
        opt = AdaGrad(learning_rate=0.1, eps=1e-8)
        opt.step(p, g)
        assert p["w"][0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    def test_gradient_of_zeros_no_change(self):
        p = {"w": np.array([2.0])}
        opt = AdaGrad(learning_rate=0.1)
        opt.step(p, {"w": np.array([0.0])})
        assert p["w"][0] == 2.0

    def test_second_step_shrinks_by_sqrt2(self):
        p = {"w": np.array([0.0])}
        opt = AdaGrad(learning_rate=0.1, eps=1e-8)
        opt.step(p, {"w": np.array([1.0])})
        first = -p["w"][0]
        opt.step(p, {"w": np.array([1.0])})
        second = -p["w"][0] - first
        assert second == pytest.approx(0.1 / math.sqrt(2), rel=1e-6)

    def test_step_equals_one_line_formula(self):
        rng = np.random.default_rng(1)
        params = {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=5)}
        ref = {k: v.copy() for k, v in params.items()}
        ref_acc = {k: rng.random(v.shape) for k, v in params.items()}
        opt = AdaGrad(learning_rate=0.3)
        opt.acc = {k: v.copy() for k, v in ref_acc.items()}
        for _ in range(3):
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            opt.step(params, grads)
            for k, g in grads.items():
                ref_acc[k] += g * g
                ref[k] -= 0.3 * g / (np.sqrt(ref_acc[k]) + 1e-8)
        for k in params:
            assert np.array_equal(params[k], ref[k])
            assert np.array_equal(opt.acc[k], ref_acc[k])

    def test_step_rows_equals_step(self):
        """Given a gradient that is zero outside ``rows``, updating only
        those rows is the full step, bit for bit."""
        rng = np.random.default_rng(2)
        p_full = rng.normal(size=(10, 4))
        p_rows = p_full.copy()
        full, sparse = AdaGrad(learning_rate=0.2), AdaGrad(learning_rate=0.2)
        acc = rng.random((10, 4))
        full.acc["t"], sparse.acc["t"] = acc.copy(), acc.copy()
        for _ in range(3):
            rows = np.sort(rng.choice(10, size=4, replace=False))
            g = rng.normal(size=(4, 4))
            g_full = np.zeros((10, 4))
            g_full[rows] = g
            full.step({"t": p_full}, {"t": g_full})
            sparse.step_rows("t", p_rows, rows, g)
            assert np.array_equal(p_rows, p_full)
            assert np.array_equal(sparse.acc["t"], full.acc["t"])

    def test_step_rows_equals_step_in_float32(self):
        """The same agreement on a float32 table, whose accumulator and
        scratch buffers are float32 too."""
        rng = np.random.default_rng(2)
        p_full = rng.normal(size=(10, 4)).astype(np.float32)
        p_rows = p_full.copy()
        full, sparse = AdaGrad(learning_rate=0.2), AdaGrad(learning_rate=0.2)
        for _ in range(3):
            rows = np.sort(rng.choice(10, size=4, replace=False))
            g = rng.normal(size=(4, 4)).astype(np.float32)
            g_full = np.zeros((10, 4), dtype=np.float32)
            g_full[rows] = g
            full.step({"t": p_full}, {"t": g_full})
            sparse.step_rows("t", p_rows, rows, g)
            assert np.array_equal(p_rows, p_full)
            assert np.array_equal(sparse.acc["t"], full.acc["t"])
        for opt in (full, sparse):
            assert opt.acc["t"].dtype == opt._scratch.dtype == np.float32
        assert p_rows.dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_step_rows_equals_step_across_blocks(self, dtype):
        """Rows filling three ``STEP_BLOCK_BYTES`` blocks and part of a
        fourth: the blocked row step is the full step, bit for bit."""
        cols = 8
        block = nn.STEP_BLOCK_BYTES // (cols * np.dtype(dtype).itemsize)
        n_rows = 3 * block + block // 3
        rng = np.random.default_rng(3)
        p_full = rng.normal(size=(2 * n_rows, cols)).astype(dtype)
        p_rows = p_full.copy()
        full, sparse = AdaGrad(learning_rate=0.2), AdaGrad(learning_rate=0.2)
        acc = rng.random(p_full.shape).astype(dtype)
        full.acc["t"], sparse.acc["t"] = acc.copy(), acc.copy()
        for _ in range(2):
            rows = np.sort(rng.choice(2 * n_rows, size=n_rows, replace=False))
            g = rng.normal(size=(n_rows, cols)).astype(dtype)
            g_full = np.zeros_like(p_full)
            g_full[rows] = g
            full.step({"t": p_full}, {"t": g_full})
            sparse.step_rows("t", p_rows, rows, g)
            assert np.array_equal(p_rows, p_full)
            assert np.array_equal(sparse.acc["t"], full.acc["t"])
        assert p_rows.dtype == sparse.acc["t"].dtype == dtype

    def test_steps_non_increasing_for_constant_gradient(self):
        p = {"w": np.array([0.0])}
        opt = AdaGrad(learning_rate=0.05)
        prev = None
        last_value = 0.0
        for _ in range(20):
            opt.step(p, {"w": np.array([2.0])})
            delta = abs(p["w"][0] - last_value)
            last_value = p["w"][0]
            if prev is not None:
                assert delta <= prev + 1e-15
            prev = delta


def _away_from_kinks(x: np.ndarray, margin: float = 1e-3) -> bool:
    return bool(np.all(np.abs(x) > margin))


def _pool_margins_ok(net: ConvMaxPool, C: np.ndarray,
                     margin: float = 1e-3) -> bool:
    for pre in conv_preactivations(net, C).values():
        act = relu(pre)
        top2 = np.sort(act, axis=1)[:, -2:, :]
        if np.any(top2[:, 1, :] - top2[:, 0, :] < margin):
            return False
        picked = act.max(axis=1)
        if np.any(np.abs(picked) < margin):
            return False
    return True


@pytest.mark.usefixtures("float64_layers")
class TestGradCheck:
    def test_dense_sigmoid_bce(self):
        rng = np.random.default_rng(10)
        for trial in range(5):
            layer = Dense.initialize(6, 4, rng)
            x = rng.normal(size=(1, 6))
            m = (rng.random((1, 4)) < 0.5).astype(float)

            def loss_fn():
                return bce_loss(sigmoid(layer.forward(x)), m)

            p = sigmoid(layer.forward(x))
            layer.backward(p - m)
            err = grad_check(loss_fn, layer.params(), layer.grads, rng=rng)
            assert err < 1e-4

    def test_sparse_linear(self):
        rng = np.random.default_rng(12)
        layer = SparseLinear(rng.normal(size=(7, 3)))
        indptr, indices = np.array([0, 3, 3, 5]), np.array([0, 4, 6, 4, 2])
        m = (rng.random((3, 3)) < 0.5).astype(float)

        def loss_fn():
            return bce_loss(sigmoid(layer.forward(indptr, indices)), m)

        p = sigmoid(layer.forward(indptr, indices))
        layer.backward(p - m)
        analytic = np.zeros_like(layer.W)
        analytic[layer.rows] = layer.grad
        err = grad_check(loss_fn, {"W": layer.W}, {"W": analytic}, rng=rng,
                         max_samples_per_param=21)
        assert err < 1e-4

    def test_conv_maxpool(self):
        rng = np.random.default_rng(11)
        done = 0
        while done < 5:
            net = ConvMaxPool([(2, 3), (3, 2)], d_in=4, rng=rng)
            C = rng.normal(size=(2, 7, 4))
            weights = rng.normal(size=(2, 5))
            net.forward(C)
            if not _pool_margins_ok(net, C):
                continue  # resample away from pooling ties
            done += 1

            params = dict(net.params())
            params["C"] = C

            def loss_fn():
                return float(np.sum(net.forward(C) * weights))

            dC = net.backward(weights)
            grads = dict(net.grads)
            grads["C"] = dC
            err = grad_check(loss_fn, params, grads, rng=rng)
            assert err < 1e-4

    def test_lstm_unrolled(self):
        rng = np.random.default_rng(12)
        for trial in range(3):
            cell = Lstm.initialize(3, 4, rng)
            xs = rng.normal(size=(2, 5, 3))
            weights = rng.normal(size=(2, 4))

            params = dict(cell.params())
            params["xs"] = xs

            def loss_fn():
                last = cell.forward(xs)
                return float(np.sum(last * weights))

            loss_fn()
            dxs, _ = cell.backward(weights)
            grads = dict(cell.grads)
            grads["xs"] = dxs
            err = grad_check(loss_fn, params, grads, rng=rng)
            assert err < 1e-4

    def test_bilstm_coupling(self):
        # backward chain initialized from the forward chain's last state
        rng = np.random.default_rng(13)
        fwd = Lstm.initialize(3, 4, rng)
        bwd = Lstm.initialize(3, 4, rng)
        xs = rng.normal(size=(2, 5, 3))
        weights = rng.normal(size=(2, 8))

        def loss_fn():
            h_f = fwd.forward(xs)
            h_b = bwd.forward(xs[:, ::-1], h0=h_f)
            return float(np.sum(np.concatenate([h_f, h_b], axis=1) * weights))

        loss_fn()
        dxs_rev, dh0 = bwd.backward(weights[:, 4:])
        dxs_f, _ = fwd.backward(weights[:, :4] + dh0)
        dxs = dxs_rev[:, ::-1] + dxs_f
        params = {**{f"f.{k}": v for k, v in fwd.params().items()},
                  **{f"b.{k}": v for k, v in bwd.params().items()},
                  "xs": xs}
        grads = {**{f"f.{k}": v for k, v in fwd.grads.items()},
                 **{f"b.{k}": v for k, v in bwd.grads.items()},
                 "xs": dxs}
        err = grad_check(loss_fn, params, grads, rng=rng)
        assert err < 1e-4


def _layer_grads(layer, x, dy) -> dict[str, np.ndarray]:
    """Forward ``x`` and backward ``dy``: the parameter gradients and, as
    ``input``, the input gradient."""
    layer.forward(x)
    dx = layer.backward(dy)
    return dict(layer.grads, input=dx[0] if isinstance(layer, Lstm) else dx)


# float32 layer -> (builder, input shape, output width)
TWINS = {
    "dense": (lambda rng: Dense.initialize(6, 4, rng), (3, 6), 4),
    "conv": (lambda rng: ConvMaxPool([(2, 3), (3, 2)], d_in=4, rng=rng),
             (3, 7, 4), 5),
    "lstm": (lambda rng: Lstm.initialize(3, 4, rng), (3, 5, 3), 4),
}


class TestFloat32Gradients:
    """Each layer's float32 backward against its float64 twin on the same
    parameters, inputs and output gradient: every gradient within 1e-6 of
    the reference, relative to the reference's largest entry (measured
    under 2e-7)."""

    @pytest.mark.parametrize("kind", sorted(TWINS))
    def test_matches_float64(self, kind, layer_dtype):
        make, in_shape, out_dim = TWINS[kind]
        layer, ref = float64_twin(lambda: make(np.random.default_rng(1)),
                                  layer_dtype)
        rng = np.random.default_rng(14)
        x = rng.normal(size=in_shape)
        dy = rng.normal(size=(in_shape[0], out_dim))
        got, expected = _layer_grads(layer, x, dy), _layer_grads(ref, x, dy)
        for name, g in expected.items():
            assert got[name].dtype == np.float32, name
            scale = max(1.0, float(np.abs(g).max()))
            np.testing.assert_allclose(got[name], g, rtol=0,
                                       atol=1e-6 * scale, err_msg=name)

    def test_sparse_linear_matches_float64(self):
        rng = np.random.default_rng(14)
        W = rng.normal(size=(7, 3)).astype(np.float32)
        layer, ref = SparseLinear(W), SparseLinear(W.astype(np.float64))
        rows = (np.array([0, 3, 3, 5]), np.array([0, 4, 6, 4, 2]))
        dy = rng.normal(size=(3, 3))
        for net in (layer, ref):
            net.forward(*rows)
            net.backward(dy)
        assert layer.grad.dtype == np.float32
        np.testing.assert_array_equal(layer.rows, ref.rows)
        np.testing.assert_allclose(layer.grad, ref.grad, rtol=0, atol=1e-6)
