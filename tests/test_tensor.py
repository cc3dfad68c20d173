"""Autodiff engine checks: forward semantics against brute-force oracles,
gradients against central finite differences."""

import gc
import warnings
import weakref

import numpy as np
import pytest

from icnet import tensor as T
from icnet.cli import MNIST_NET, SYNTH_NET

from helpers import channel_last, gradient_check


def brute_force_conv(x, k, b, stride, pad):
    """Direct nested-loop convolution, written independently of the engine."""
    n, c, h, w = x.shape
    co, ci, kh, kw = k.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, co, oh, ow))
    for ni in range(n):
        for oc in range(co):
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ic in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                ri = oi * stride + ki - pad
                                rj = oj * stride + kj - pad
                                if 0 <= ri < h and 0 <= rj < w:
                                    acc += x[ni, ic, ri, rj] * k[oc, ic, ki, kj]
                    out[ni, oc, oi, oj] = acc + b[oc]
    return out


def brute_force_conv_adjoint(x, k, g, stride, pad):
    """Input, kernel and bias gradients of sum(g * conv(x, k, b)), by direct
    nested loops over every (output pixel, kernel tap) pair."""
    n, c, h, w = x.shape
    co, ci, kh, kw = k.shape
    _, _, oh, ow = g.shape
    dx = np.zeros_like(x)
    dk = np.zeros_like(k)
    for ni in range(n):
        for oc in range(co):
            for oi in range(oh):
                for oj in range(ow):
                    for ic in range(c):
                        for ki in range(kh):
                            for kj in range(kw):
                                ri = oi * stride + ki - pad
                                rj = oj * stride + kj - pad
                                if 0 <= ri < h and 0 <= rj < w:
                                    dx[ni, ic, ri, rj] += g[ni, oc, oi, oj] * k[oc, ic, ki, kj]
                                    dk[oc, ic, ki, kj] += g[ni, oc, oi, oj] * x[ni, ic, ri, rj]
    return dx, dk, g.sum(axis=(0, 2, 3))


def conv_backward(x, k, b, g, stride, pad):
    """Engine gradients of sum(g * conv(x, k, b)) w.r.t. x, k and b."""
    rec = T.ComputationRecord()
    xn = rec.leaf(x, kind="input")
    kn = rec.leaf(k, kind="param")
    bn = rec.leaf(b, kind="param")
    out = rec.conv2d(xn, kn, bn, stride=stride, pad=pad)
    rec.backward(rec.sum(rec.mul_const(out, g)))
    return xn.grad, kn.grad, bn.grad


def patch_spy(monkeypatch):
    """Wrap the conv's patch builder; returns the list of weak references
    to every patch matrix it builds."""
    built = []
    patches = T._patches

    def spy(*args):
        mat = patches(*args)
        built.append(weakref.ref(mat))
        return mat

    monkeypatch.setattr(T, "_patches", spy)
    return built


def patch_elements(x_shape, k_shape, stride, pad):
    """Size of the full im2col patch matrix of one conv call."""
    n, c, h, w = x_shape
    _, _, kh, kw = k_shape
    oh, ow = (T.conv_output_size(d, kd, stride, pad) for d, kd in ((h, kh), (w, kw)))
    return n * oh * ow * kh * kw * c


def tape_arrays(rec):
    """Every array a record reaches: node values and gradients, the arrays
    and nodes their backward rules close over (the layer ops' through their
    one-op GradPass), and the bases of views."""
    arrays, seen, stack = [], set(), list(rec.nodes)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            stack.append(obj.base)
        elif isinstance(obj, T.Node):
            stack += [obj.value, obj.grad, obj._backward]
        elif isinstance(obj, (list, tuple)):
            stack += obj
        elif isinstance(obj, T.GradPass):
            stack += list(vars(obj).values())
        elif callable(obj):
            stack += [cell.cell_contents for cell in getattr(obj, "__closure__", None) or ()]
    return arrays


CONV_ADJOINT_CASES = [(stride, pad, hw) for stride in (1, 2) for pad in (0, 2)
                      for hw in ((7, 7), (8, 8), (9, 6))]
# Inputs so small that whole kernel rows land in the padding of every
# output row, kernel rows that reach no output row at all, a pad as wide as
# the kernel (an output row sees nothing but padding), and pad 0; each with
# one input channel (rows padded, one GEMM) and with three.
CONV_EDGE_CASES = [(stride, pad, hw, c) for stride, pad, hw in (
    (2, 2, (3, 3)), (2, 2, (4, 4)), (2, 2, (1, 2)), (1, 2, (9, 6)), (1, 2, (2, 3)),
    (2, 5, (3, 3)), (2, 0, (5, 6)), (1, 0, (9, 6))) for c in (1, 3)]
EDGE_IDS = [f"s{s}-p{p}-{h}x{w}-c{c}" for s, p, (h, w), c in CONV_EDGE_CASES]


class TestForward:
    def test_identity_affine(self):
        spec = [T.dense(2, 2)]
        params = [np.eye(2), np.zeros(2)]
        x = np.array([[3.0, -1.5]])
        feats = T.forward_features(params, spec, x)
        np.testing.assert_array_equal(feats, x)

    def test_leaky_negative_input(self):
        spec = [T.leaky(slope=0.2)]
        feats = T.forward_features([], spec, np.array([[-1.0]]))
        assert feats[0, 0] == -0.2

    def test_leaky_subgradient_at_zero_is_one(self):
        rec = T.ComputationRecord()
        x = rec.leaf(np.array([[0.0]]), kind="input")
        loss = rec.sum(rec.leaky(x, 0.2))
        g = T.input_gradient(rec, loss)
        assert g[0, 0] == 1.0

    def test_conv_all_ones_window_sums(self):
        # 4x4 ones, pad 2, stride 2, all-ones 5x5 kernel: outputs are the
        # counts of in-bounds cells under each window, worked out by hand
        x = np.ones((1, 1, 4, 4))
        k = np.ones((1, 1, 5, 5))
        b = np.zeros(1)
        out = T.conv2d_value(x, k, b, stride=2, pad=2)
        np.testing.assert_array_equal(out[0, 0], [[9.0, 12.0], [12.0, 16.0]])

    def test_conv_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for pad in (0, 2):
            x = rng.standard_normal((2, 3, 8, 8))
            k = rng.standard_normal((4, 3, 5, 5))
            b = rng.standard_normal(4)
            got = T.conv2d_value(x, k, b, stride=2, pad=pad)
            want = brute_force_conv(x, k, b, stride=2, pad=pad)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_mnist_stack_spatial_sizes(self):
        spec = [T.conv(1, 4), T.leaky(), T.conv(4, 8), T.leaky(),
                T.conv(8, 16), T.leaky(), T.conv(16, 32), T.leaky(), T.flatten()]
        params = T.init_layer_params(spec, np.random.default_rng(0))
        x = np.zeros((1, 1, 28, 28))
        # 28 -> 14 -> 7 -> 4 -> 2 with pad 2
        feats = T.forward_features(params, spec, x)
        assert feats.shape == (1, 32 * 2 * 2)

    def test_shape_mismatch_names_layer(self):
        spec = [T.dense(3, 2), T.leaky(), T.dense(5, 1)]
        params = [np.zeros((3, 2)), np.zeros(2), np.zeros((5, 1)), np.zeros(1)]
        with pytest.raises(T.ShapeMismatchError, match="layer 2"):
            T.forward_features(params, spec, np.zeros((1, 3)))

    def test_forward_determinism(self):
        spec = [T.conv(1, 3), T.leaky(), T.flatten(), T.dense(3 * 4 * 4, 2)]
        rng = np.random.default_rng(11)
        params = T.init_layer_params(spec, rng)
        x = rng.standard_normal((2, 1, 7, 7))
        a = T.forward_features(params, spec, x)
        b = T.forward_features(params, spec, x)
        assert np.array_equal(a, b)

    def test_taped_and_untaped_stacks_agree_bitwise(self):
        spec = [T.conv(1, 3), T.leaky(), T.conv(3, 2, pad=0), T.leaky(), T.flatten(), T.dense(2, 2)]
        rng = np.random.default_rng(12)
        params = T.init_layer_params(spec, rng)
        x = rng.standard_normal((3, 1, 12, 12))
        rec = T.ComputationRecord()
        taped = T.feature_stack(rec, spec, [rec.leaf(p, "param") for p in params],
                                rec.leaf(x, "input"))
        assert taped.value.tobytes() == T.forward_features(params, spec, x).tobytes()

    @pytest.mark.parametrize("taped", [True, False])
    def test_unknown_layer_kind_rejected(self, taped):
        # before: the untaped pass skipped the layer silently
        spec = [T.dense(2, 2), T.LayerSpec("leakx")]
        params, x = [np.eye(2), np.zeros(2)], np.array([[-1.0, 1.0]])
        with pytest.raises(T.ShapeMismatchError, match="layer 1 \\(leakx\\): unknown layer kind"):
            if taped:
                rec = T.ComputationRecord()
                T.feature_stack(rec, spec, [rec.leaf(p) for p in params], rec.leaf(x))
            else:
                T.forward_features(params, spec, x)

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0])
    def test_leaky_bitwise_equals_where_form(self, slope):
        """max(x, slope x) and g * max(mask, slope) are the np.where forms,
        bit for bit, signed zeros and subnormals included, in the same
        memory layout: channel-last values stay channel-last."""
        tiny = np.finfo(np.float64).smallest_subnormal
        special = [0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny, 1e-308, -1e-308, 1.0, -1.0]
        gen = np.random.default_rng(13)
        x = gen.standard_normal((3, 4, 5, 6))
        x.flat[:len(special)] = special
        x = channel_last(x)
        g = channel_last(gen.standard_normal(x.shape))
        g.flat[:len(special)] = special[::-1]
        rec = T.ComputationRecord()
        xn = rec.leaf(x, kind="input")
        out = rec.leaky(xn, slope)
        out._backward(g)  # the rule alone, fed a channel-last gradient
        want_out = np.where(x >= 0.0, x, slope * x)
        want_grad = np.where(x >= 0.0, g, slope * g)
        for got, want in ((out.value, want_out), (T.leaky_value(x, slope), want_out),
                          (xn.grad, want_grad)):
            assert got.tobytes() == want.tobytes() and got.strides == want.strides
        assert out.value.transpose(0, 2, 3, 1).flags.c_contiguous

    @pytest.mark.parametrize("slope", [float("nan"), float("inf"), 5.0, -0.1])
    def test_leaky_slope_outside_unit_interval_rejected(self, slope):
        with pytest.raises(ValueError, match=r"slope must be finite and lie in \[0, 1\]"):
            T.leaky(slope)

    def test_nonfinite_rejected(self):
        with pytest.raises(T.NonFiniteError):
            T.as_tensor(np.array([1.0, np.nan]))

    def test_sigmoid_bitwise_equals_masked_form(self):
        """The whole-array sigmoid gives the boolean-mask form's bits and
        warns no more than it, on signed zeros, subnormals, saturating and
        non-finite inputs."""
        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        x = np.array([0.0, -0.0, 1e-320, -1e-320, 40.0, -40.0, 745.0, -745.0,
                      np.inf, -np.inf, np.nan])
        results = []
        for fn in (masked, T.sigmoid_value):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                results.append(fn(x))
            results.append(sorted(str(w.message) for w in caught))
        want, want_warnings, got, got_warnings = results
        assert got.tobytes() == want.tobytes()
        assert got_warnings == want_warnings == []


class TestAllFinite:
    @pytest.mark.parametrize("values, finite", [
        (np.array([[0.5, -2.0], [1e-320, 3.0]]), True),
        (np.full(4, 1e308), True),  # its sum overflows
        (np.array([-1e308, -1e308, 1.0]), True),
        (np.array([1.0, np.inf]), False),
        (np.array([-np.inf, 1.0]), False),
        (np.array([1.0, np.nan]), False),
        (np.array([np.inf, -np.inf]), False),
        (np.zeros((0,)), True),
        (np.zeros((3, 0)), True),
        (np.array(2.5), True),
        (np.array(np.nan), False),
        (np.array(-np.inf), False),
        # non-contiguous views: a channel-last conv kernel, strided slices
        (T.flat_views(np.arange(24.0), [np.empty((2, 3, 2, 2))])[0], True),
        (np.array([1.0, 2.0, np.inf, 4.0])[::2], False),
        (np.array([[1.0, np.nan, 2.0], [3.0, 4.0, 5.0]])[:, ::2], True),
    ])
    def test_table_without_warnings(self, values, finite):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert T.all_finite(values) is finite


class TestUnscannedOps:
    """A pass does not scan the outputs of `leaky` and `reshape`: neither
    can make a non-finite value from a finite input."""

    @pytest.mark.parametrize("slope", [0.0, 0.01, 0.2, 1.0])
    @pytest.mark.parametrize("input_grad", [True, False])
    def test_leaky_gives_finite_bitwise_values(self, slope, input_grad):
        big, tiny = np.finfo(np.float64).max, np.finfo(np.float64).smallest_subnormal
        x = np.random.default_rng(22941).standard_normal((3, 4, 5))
        x.flat[:6] = [big, -big, tiny, -tiny, 0.0, -0.0]
        grad_pass = T.GradPass(input_grad=input_grad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = grad_pass.reshape(grad_pass.leaky(x, slope), (3, 20))
        assert T.all_finite(out)
        assert out.tobytes() == np.maximum(x, slope * x).tobytes()
        g = np.random.default_rng(22942).standard_normal(out.shape)
        got = T.input_gradient(grad_pass, g)
        if input_grad:
            assert got.tobytes() == (g.reshape(x.shape) * np.maximum(x >= 0, slope)).tobytes()
        else:
            assert got is g  # neither op kept a rule

    @pytest.mark.parametrize("spec, shape", [(SYNTH_NET, (2,)), (MNIST_NET, (1, 28, 28))],
                             ids=["SYNTH_NET", "MNIST_NET"])
    def test_inference_pass_over_the_run_stacks_keeps_no_rule(self, spec, shape):
        params = T.init_layer_params(spec, np.random.default_rng(22943))
        grad_pass = T.GradPass(input_grad=False)
        out = T.feature_stack(grad_pass, spec, params,
                              np.random.default_rng(22944).standard_normal((2,) + shape))
        seed = np.ones_like(out)
        assert T.input_gradient(grad_pass, seed) is seed

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_head_overflow_after_leaky_names_affine(self, input_grad):
        # the stack's output, 2e300, is finite and unscanned by the leaky;
        # the head's product overflows and its scan names it
        spec = [T.dense(2, 4), T.leaky()]
        params = [np.full((2, 4), 1e300), np.zeros(4)]
        grad_pass = T.GradPass(input_grad=input_grad)
        feats = T.feature_stack(grad_pass, spec, params, np.ones((3, 2)))
        assert feats.max() == 2e300
        with np.errstate(over="ignore"), pytest.raises(
                T.NonFiniteError, match="non-finite values produced by affine"):
            grad_pass.affine(feats, np.full((4, 1), 1e10), np.zeros(1))


    def test_taped_layer_ops_scan_their_output_once(self, monkeypatch):
        # the one-op pass scans an affine or conv2d output, and the node
        # enters the record unscanned; leaky and reshape are not scanned
        spec = [T.conv(1, 2), T.leaky(), T.flatten(), T.dense(18, 3), T.leaky()]
        gen = np.random.default_rng(23933)
        params = T.init_layer_params(spec, gen)
        x = gen.standard_normal((2, 1, 6, 6))
        rec = T.ComputationRecord()
        nodes, xn = [rec.leaf(p, "param") for p in params], rec.leaf(x, "input")
        scanned, scan = [], T.all_finite
        monkeypatch.setattr(T, "all_finite", lambda a: scanned.append(a.shape) or scan(a))
        out = T.feature_stack(rec, spec, nodes, xn)
        assert scanned == [(2, 2, 3, 3), (2, 3)]
        assert out.value.tobytes() == T.forward_features(params, spec, x).tobytes()
        with np.errstate(over="ignore"), pytest.raises(
                T.NonFiniteError, match="non-finite values produced by affine"):
            rec.affine(out, rec.leaf(np.full((3, 1), 1e308), "param"), rec.leaf(np.zeros(1)))

class TestFeatureWidth:
    @pytest.mark.parametrize("spec, input_shape", [
        ([T.dense(3, 5), T.leaky(), T.dense(5, 4)], (3,)),
        ([T.conv(2, 3), T.leaky(), T.conv(3, 4, pad=0)], (2, 13, 11)),
        ([T.conv(1, 3), T.leaky(), T.flatten(), T.dense(3 * 4 * 4, 6), T.leaky()], (1, 7, 7)),
    ], ids=["dense", "conv", "conv_flatten_dense"])
    def test_equals_forward_width(self, spec, input_shape):
        params = T.init_layer_params(spec, np.random.default_rng(0))
        feats = T.forward_features(params, spec, np.zeros((2,) + input_shape))
        assert T.feature_width(spec, input_shape) == feats.shape[1]

    @pytest.mark.parametrize("spec, input_shape, match", [
        ([T.dense(3, 2), T.leaky(), T.dense(5, 1)], (3,), "layer 2"),
        ([T.conv(2, 3)], (1, 7, 7), "layer 0"),
        ([T.conv(1, 3, pad=0)], (1, 3, 3), "empty"),
        ([T.flatten(), T.conv(1, 3)], (1, 7, 7), "layer 1"),
    ])
    def test_mismatch_raises_like_forward(self, spec, input_shape, match):
        with pytest.raises(T.ShapeMismatchError, match=match):
            T.feature_width(spec, input_shape)

    def test_draws_no_init(self, monkeypatch):
        def no_init(*args):
            raise AssertionError("feature_width drew an init")

        monkeypatch.setattr(T, "init_layer_params", no_init)
        assert T.feature_width([T.conv(1, 4), T.flatten()], (1, 28, 28)) == 4 * 14 * 14


class TestParamGradients:
    def test_sum_of_params_gives_ones(self):
        rec = T.ComputationRecord()
        p = rec.leaf(np.array([1.0, 2.0, 3.0]), kind="param")
        loss = rec.sum(p)
        grads = T.param_gradients(rec, loss)
        np.testing.assert_array_equal(grads[0], np.ones(3))

    def test_zero_scale_gives_zeros(self):
        rec = T.ComputationRecord()
        p = rec.leaf(np.array([[4.0, -2.0]]), kind="param")
        loss = rec.scale(rec.sum(rec.square(p)), 0.0)
        grads = T.param_gradients(rec, loss)
        np.testing.assert_array_equal(grads[0], np.zeros((1, 2)))

    def test_two_layer_net_finite_differences(self):
        spec = [T.dense(6, 5), T.leaky(), T.dense(5, 1)]
        report = gradient_check(spec, seed=123, input_shape=(6,), head="sigmoid")
        assert report.coords_checked >= 20
        assert report.max_rel_err_params < 1e-4

    def test_non_scalar_loss_rejected(self):
        rec = T.ComputationRecord()
        p = rec.leaf(np.ones(3), kind="param")
        doubled = rec.scale(p, 2.0)
        with pytest.raises(T.GraphError):
            rec.backward(doubled)


class TestAccumulate:
    def test_add_gives_each_operand_its_own_gradient(self):
        rec = T.ComputationRecord()
        a = rec.leaf(np.array([1.0, 2.0]), kind="param")
        b = rec.leaf(np.array([3.0, 4.0]), kind="param")
        total = rec.add(rec.add(a, b), a)
        rec.backward(rec.sum(rec.square(total)))
        np.testing.assert_array_equal(a.grad, [20.0, 32.0])
        np.testing.assert_array_equal(b.grad, [10.0, 16.0])
        assert not np.shares_memory(a.grad, b.grad)


class TestInputGradient:
    def test_sum_gives_ones(self):
        rec = T.ComputationRecord()
        x = rec.leaf(np.array([[1.0, -2.0], [0.5, 3.0]]), kind="input")
        g = T.input_gradient(rec, rec.sum(x))
        np.testing.assert_array_equal(g, np.ones((2, 2)))

    def test_half_square_gives_x(self):
        rec = T.ComputationRecord()
        val = np.array([[1.5, -0.25, 2.0]])
        x = rec.leaf(val, kind="input")
        loss = rec.scale(rec.sum(rec.square(x)), 0.5)
        g = T.input_gradient(rec, loss)
        np.testing.assert_allclose(g, val, rtol=1e-15)

    def test_conv_logit_finite_differences(self):
        spec = [T.conv(1, 3), T.leaky(), T.conv(3, 4), T.leaky(), T.flatten()]
        report = gradient_check(spec, seed=42, input_shape=(1, 8, 8), head="sigmoid")
        assert report.max_rel_err_input < 1e-4

    def test_dropped_record_freed_without_cycle_collection(self):
        gc.disable()
        try:
            rec = T.ComputationRecord()
            x = rec.leaf(np.ones((2, 3)), kind="input")
            loss = rec.sum(rec.square(x))
            rec.backward(loss)
            alive = weakref.ref(rec)
            del rec, x, loss
            assert alive() is None
        finally:
            gc.enable()

    def test_unregistered_input_rejected(self):
        rec = T.ComputationRecord()
        p = rec.leaf(np.ones(2), kind="param")
        loss = rec.sum(p)
        with pytest.raises(T.GraphError):
            T.input_gradient(rec, loss)

    def test_pass_asked_for_no_gradient_keeps_no_rule(self):
        # the inference pass: no op keeps a rule (and the activations it
        # would hold), so the sweep has nothing to run
        spec = [T.conv(1, 2), T.leaky(), T.flatten(), T.dense(2 * 4 * 4, 3), T.leaky()]
        params = T.init_layer_params(spec, np.random.default_rng(13))
        grad_pass = T.GradPass(input_grad=False)
        out = T.feature_stack(grad_pass, spec, params, np.ones((2, 1, 8, 8)))
        seed = np.ones_like(out)
        assert T.input_gradient(grad_pass, seed) is seed


class TestConvBackward:
    @pytest.mark.parametrize("stride,pad,hw", CONV_ADJOINT_CASES)
    def test_matches_brute_force_adjoint(self, stride, pad, hw):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 3) + hw)
        k = rng.standard_normal((4, 3, 5, 5))
        b = rng.standard_normal(4)
        out = T.conv2d_value(x, k, b, stride, pad)
        g = rng.standard_normal(out.shape)
        got = conv_backward(x, k, b, g, stride, pad)
        want = brute_force_conv_adjoint(x, k, g, stride, pad)
        for name, a, e in zip(("input", "kernel", "bias"), got, want):
            assert a.shape == e.shape, name
            np.testing.assert_allclose(a, e, rtol=1e-12, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("stride,pad,hw,c", CONV_EDGE_CASES, ids=EDGE_IDS)
    def test_edge_shapes_match_brute_force(self, stride, pad, hw, c):
        rng = np.random.default_rng(35)
        x = rng.standard_normal((2, c) + hw)
        k = rng.standard_normal((4, c, 5, 5))
        b = rng.standard_normal(4)
        out = T.conv2d_value(x, k, b, stride, pad)
        np.testing.assert_allclose(out, brute_force_conv(x, k, b, stride, pad),
                                   rtol=1e-12, atol=1e-12)
        g = rng.standard_normal(out.shape)
        got = conv_backward(x, k, b, g, stride, pad)
        want = brute_force_conv_adjoint(x, k, g, stride, pad)
        for name, a, e in zip(("input", "kernel", "bias"), got, want):
            assert a.shape == e.shape, name
            np.testing.assert_allclose(a, e, rtol=1e-12, atol=1e-12, err_msg=name)

    def test_same_input_twice_is_bitwise_equal(self):
        rng = np.random.default_rng(32)
        x = rng.standard_normal((3, 8, 9, 9))
        k = rng.standard_normal((6, 8, 5, 5))
        b = rng.standard_normal(6)
        g = rng.standard_normal(T.conv2d_value(x, k, b, 2, 2).shape)
        first = conv_backward(x, k, b, g, 2, 2)
        second = conv_backward(x, k, b, g, 2, 2)
        for a, e in zip(first, second):
            assert np.array_equal(a, e) and np.array_equal(np.signbit(a), np.signbit(e))

    def test_no_patch_matrix_reachable_after_forward(self, monkeypatch):
        """Neither a const nor a param kernel keeps a patch matrix for
        backward: each is freed by its GEMM's end, without cycle collection,
        and nothing patch-sized hangs on the tape."""
        built = patch_spy(monkeypatch)
        rng = np.random.default_rng(33)
        gc.disable()
        try:
            rec = T.ComputationRecord()
            x = rec.leaf(rng.standard_normal((4, 2, 8, 8)), kind="input")
            const_k = rec.leaf(rng.standard_normal((3, 2, 5, 5)))
            param_k = rec.leaf(rng.standard_normal((3, 2, 5, 5)), kind="param")
            b = rec.leaf(np.zeros(3))
            rec.conv2d(x, const_k, b)
            rec.conv2d(x, param_k, b)
            assert len(built) >= 2 and all(m() is None for m in built)
        finally:
            gc.enable()
        assert max(a.size for a in tape_arrays(rec)) < patch_elements(x.shape, (3, 2, 5, 5), 2, 2)


class TestSweptTape:
    def two_conv_loss(self):
        rng = np.random.default_rng(34)
        spec = [T.conv(2, 3), T.leaky(), T.conv(3, 4), T.leaky(), T.flatten()]
        rec = T.ComputationRecord()
        x = rec.leaf(rng.standard_normal((4, 2, 8, 8)), kind="input")
        params = [rec.leaf(p, kind="param") for p in T.init_layer_params(spec, rng)]
        loss = rec.sum(rec.square(T.feature_stack(rec, spec, params, x)))
        return rec, loss

    def test_backward_frees_patch_matrices_and_op_grads(self, monkeypatch):
        built = patch_spy(monkeypatch)
        gc.disable()
        try:
            rec, loss = self.two_conv_loss()
            forward = len(built)
            assert forward >= 2 and all(m() is None for m in built)
            smallest = patch_elements((4, 3, 4, 4), (4, 3, 5, 5), 2, 2)
            assert max(a.size for a in tape_arrays(rec)) < smallest
            grads = T.param_gradients(rec, loss)
            # the kernel gradients rebuild their patches row by row and free
            # each one at once, with the record still alive
            assert len(built) > forward and all(m() is None for m in built)
        finally:
            gc.enable()
        ops = [n for n in rec.nodes if n.kind == "op"]
        assert ops and all(n.grad is None and n._backward is None for n in ops)
        # leaf gradients stay
        assert [g.shape for g in grads] == [n.shape for n in rec.param_nodes()]
        assert all(n.grad is not None for n in rec.param_nodes() + [rec.input_node()])

    def test_second_backward_raises(self):
        rec, loss = self.two_conv_loss()
        first = [g.copy() for g in T.param_gradients(rec, loss)]
        with pytest.raises(T.GraphError, match="already swept"):
            T.param_gradients(rec, loss)
        with pytest.raises(T.GraphError, match="already swept"):
            T.input_gradient(rec, loss)
        # the failed calls leave the first sweep's gradients as they were
        for g, n in zip(first, rec.param_nodes()):
            np.testing.assert_array_equal(g, n.grad)


class TestGradientCheck:
    def test_linear_quadratic_is_exact(self):
        spec = [T.dense(5, 4)]
        report = gradient_check(spec, seed=3, input_shape=(5,),
                                  head="quadratic", h=1e-3)
        assert report.max_rel_err_params < 1e-9
        assert report.max_rel_err_input < 1e-9

    def test_conv_leaky_under_1e4(self):
        spec = [T.conv(1, 2), T.leaky(), T.flatten(), T.dense(2 * 4 * 4, 3)]
        report = gradient_check(spec, seed=9, input_shape=(1, 7, 7), head="softmax")
        assert report.max_rel_err_params < 1e-4
        assert report.max_rel_err_input < 1e-4

    def test_multichannel_conv_under_1e4(self):
        # kernels with several input channels are channel-last, so not
        # C-contiguous: the check must perturb them in place, not a copy
        spec = [T.conv(2, 3), T.leaky(), T.conv(3, 2), T.leaky(), T.flatten(),
                T.dense(2 * 2 * 2, 3)]
        report = gradient_check(spec, seed=10, input_shape=(2, 7, 7), head="softmax",
                                  n_coords=60)
        assert report.max_rel_err_params < 1e-4
        assert report.max_rel_err_input < 1e-4

    def test_same_seed_same_report(self):
        spec = [T.dense(4, 3), T.leaky(), T.dense(3, 1)]
        a = gradient_check(spec, seed=77, input_shape=(4,))
        b = gradient_check(spec, seed=77, input_shape=(4,))
        assert a == b


class TestBackwardLinearity:
    def test_sum_of_losses_equals_sum_of_gradients(self):
        rng = np.random.default_rng(5)
        spec = [T.dense(4, 4), T.leaky(), T.dense(4, 2)]
        params = T.init_layer_params(spec, rng)
        x = rng.standard_normal((3, 4))

        def build():
            rec = T.ComputationRecord()
            xn = rec.leaf(x, kind="input")
            pn = [rec.leaf(p, kind="param") for p in params]
            feats = T.feature_stack(rec, spec, pn, xn)
            la = rec.sum(rec.sigmoid(feats))
            lb = rec.scale(rec.sum(rec.square(feats)), 0.25)
            return rec, la, lb

        rec, la, lb = build()
        joint = T.param_gradients(rec, rec.add(rec.reshape(la, ()), rec.reshape(lb, ())))
        # fresh records per term: backward resets accumulated grads
        rec_a, la2, _ = build()
        ga = T.param_gradients(rec_a, la2)
        rec_b, _, lb2 = build()
        gb = T.param_gradients(rec_b, lb2)
        for j, a, b in zip(joint, ga, gb):
            np.testing.assert_allclose(j, a + b, rtol=1e-12, atol=1e-12)
