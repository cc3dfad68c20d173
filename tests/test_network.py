"""Head semantics and model file round-trips."""

import re
import struct

import numpy as np
import pytest

from icnet import cli as C
from icnet import network as N
from icnet import sampler as S
from icnet import tensor as T
from icnet import trainer as TR
from icnet.seeding import rng

from helpers import rel_err

SPEC_2D = [T.dense(2, 16), T.leaky(), T.dense(16, 16), T.leaky()]


def make_binary(seed=0):
    return N.init_binary(SPEC_2D, (2,), rng(seed, 1))


def make_multiclass(seed=0, k=3):
    return N.init_multiclass(SPEC_2D, (2,), k, rng(seed, 1))


class TestBinaryLogit:
    def test_zero_head_gives_zero_logit(self):
        c = make_binary()
        c.head_w[...] = 0.0
        c.head_b[...] = 0.0
        x = rng(1, 6).standard_normal((5, 2))
        np.testing.assert_array_equal(N.logit_binary(c, x), np.zeros(5))

    def test_exp_logit_is_probability_ratio(self):
        c = make_binary(3)
        x = rng(3, 6).standard_normal((8, 2))
        p = T.sigmoid_value(N.logit_binary(c, x))
        ratio = p / (1.0 - p)
        np.testing.assert_allclose(np.exp(N.logit_binary(c, x)), ratio, rtol=1e-12)

    def test_logit_matches_independent_dot_product(self):
        c = make_binary(4)
        x = rng(4, 6).standard_normal((6, 2))
        feats = T.forward_features(c.feature_params, c.spec, x)
        want = feats @ c.head_w[:, 0] + c.head_b[0]
        np.testing.assert_allclose(N.logit_binary(c, x), want, rtol=1e-13)


class TestProbPositive:
    def test_zero_logit_is_half(self):
        c = make_binary()
        c.head_w[...] = 0.0
        x = np.zeros((3, 2))
        np.testing.assert_array_equal(T.sigmoid_value(N.logit_binary(c, x)), 0.5 * np.ones(3))

    def test_monotone_and_saturating(self):
        c = make_binary(5)
        x = rng(5, 6).standard_normal((1, 2))
        probs = []
        base_w = c.head_w.copy()
        for scale in (1.0, 5.0, 25.0, 125.0):
            c.head_w[...] = base_w * scale
            probs.append(float(T.sigmoid_value(N.logit_binary(c, x))[0]))
        logit_sign = np.sign(float(N.logit_binary(c, x)[0]))
        diffs = np.diff(probs) * logit_sign
        assert np.all(diffs >= 0)
        assert probs[-1] > 0.999 or probs[-1] < 0.001

    def test_flipped_head_complements(self):
        c = make_binary(6)
        x = rng(6, 6).standard_normal((7, 2))
        p = T.sigmoid_value(N.logit_binary(c, x))
        c.head_w[...] = -c.head_w
        c.head_b[...] = -c.head_b
        q = T.sigmoid_value(N.logit_binary(c, x))
        np.testing.assert_allclose(p, 1.0 - q, atol=1e-12)

    def test_complement_sums_to_one_exactly(self):
        c = make_binary(7)
        x = rng(7, 6).standard_normal((9, 2))
        p = T.sigmoid_value(N.logit_binary(c, x))
        assert np.all((0 < p) & (p < 1))
        np.testing.assert_array_equal(p + (1.0 - p), np.ones(9))


class TestSoftmaxHead:
    def test_identical_heads_give_uniform(self):
        c = make_multiclass(8, k=4)
        c.head_w[...] = np.tile(c.head_w[:, :1], (1, 4))
        c.head_b[...] = np.full(4, 0.3)
        probs = T.softmax_value(N.class_logits(c, rng(8, 6).standard_normal((5, 2))))
        np.testing.assert_allclose(probs, 0.25, rtol=1e-12)

    def test_shift_invariance(self):
        c = make_multiclass(9)
        x = rng(9, 6).standard_normal((4, 2))
        before = T.softmax_value(N.class_logits(c, x))
        c.head_b += 13.7
        np.testing.assert_allclose(T.softmax_value(N.class_logits(c, x)), before, atol=1e-12)

    def test_matches_explicit_normalization(self):
        c = make_multiclass(10)
        x = rng(10, 6).standard_normal((6, 2))
        logits = N.class_logits(c, x)
        e = np.exp(logits)
        np.testing.assert_allclose(T.softmax_value(N.class_logits(c, x)),
                                   e / e.sum(axis=1, keepdims=True), rtol=1e-12)

    def test_probs_positive_and_normalized(self):
        c = make_multiclass(11, k=5)
        probs = T.softmax_value(N.class_logits(c, rng(11, 6).standard_normal((8, 2))))
        assert np.all(probs > 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)


class TestPredictLabel:
    def test_dominant_head_wins(self):
        c = make_multiclass(12)
        c.head_w[:, 2] = 0.0
        c.head_b[...] = np.array([0.0, 0.0, 50.0])
        labels = N.predict_label(c, rng(12, 6).standard_normal((6, 2)))
        np.testing.assert_array_equal(labels, np.full(6, 2))

    def test_argmax_exp_equals_argmax_logits(self):
        c = make_multiclass(13, k=4)
        x = rng(13, 6).standard_normal((10, 2))
        logits = N.class_logits(c, x)
        np.testing.assert_array_equal(N.predict_label(c, x),
                                      np.argmax(np.exp(logits), axis=1))

    def test_tie_breaks_to_lowest_index(self):
        c = make_multiclass(14)
        c.head_w[...] = 0.0
        c.head_b[...] = np.array([1.0, 1.0, 1.0])
        labels = N.predict_label(c, rng(14, 6).standard_normal((4, 2)))
        np.testing.assert_array_equal(labels, np.zeros(4))

    def test_invariant_under_increasing_transform(self):
        c = make_multiclass(15, k=4)
        x = rng(15, 6).standard_normal((12, 2))
        before = N.predict_label(c, x)
        c.head_w *= 3.0
        c.head_b[...] = 3.0 * c.head_b + 0.9  # affine with positive slope
        np.testing.assert_array_equal(N.predict_label(c, x), before)

    def test_one_vs_all_uses_member_features(self):
        e = N.OneVsAllEnsemble([make_binary(20), make_binary(21), make_binary(22)])
        x = rng(20, 6).standard_normal((5, 2))
        scores = np.stack([N.logit_binary(m, x) for m in e.members], axis=1)
        np.testing.assert_array_equal(N.predict_label(e, x),
                                      np.argmax(scores, axis=1))


CONV_SPEC = [T.conv(1, 2), T.leaky(), T.conv(2, 3), T.leaky(), T.flatten()]
STACKS = pytest.mark.parametrize("spec, shape", [(SPEC_2D, (2,)), (CONV_SPEC, (1, 8, 8))],
                                 ids=["dense", "conv"])


class TestLogitSumGraph:
    @staticmethod
    def stack(name, k, seed):
        """A classifier and a batch of 6 inputs on the dense 2D or the conv stack."""
        spec, shape = (SPEC_2D, (2,)) if name == "dense" else (CONV_SPEC, (1, 8, 8))
        c = N.init_multiclass(spec, shape, k, rng(seed, 1))
        c.head_b += 0.1 * rng(seed, 2).standard_normal(k)
        return c, rng(seed, 6).standard_normal((6,) + shape)

    @pytest.mark.parametrize("name", ["dense", "conv"])
    @pytest.mark.parametrize("k", [1, 3], ids=["binary", "multiclass"])
    def test_matches_taped_graph_bitwise(self, name, k):
        c, x = self.stack(name, k, 30)
        classes = np.array([2, 0, 1, 0, 2, 1]) if k == 3 else np.zeros(6, dtype=int)
        record = T.ComputationRecord()
        x_node = record.leaf(x, "input")
        p_nodes = [record.leaf(p, "const", checked=True) for p in c.all_params()]
        feats = T.feature_stack(record, c.spec, p_nodes[:-2], x_node)
        logits = record.select(record.affine(feats, p_nodes[-2], p_nodes[-1]), classes)
        want_grad = T.input_gradient(record, record.sum(logits))
        grad_pass, seed, got = N.logit_sum_graph(c, x, classes)
        assert got.tobytes() == logits.value.tobytes()
        grad = T.input_gradient(grad_pass, seed)
        assert grad.shape == x.shape and grad.tobytes() == want_grad.tobytes()
        # the taped graph's constant parameters get no gradient either
        assert record.param_nodes() == [] and all(n.grad is None for n in p_nodes)

    @pytest.mark.parametrize("name, op", [("dense", "affine"), ("conv", "conv2d")])
    def test_intermediate_overflow_names_the_op(self, name, op):
        c, x = self.stack(name, 1, 31)
        c.feature_params[0] *= 1e300  # finite; the products are not
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(T.NonFiniteError, match=f"produced by {op}$"):
            N.logit_sum_graph(c, 1e10 * x, np.zeros(len(x), dtype=int))

    def test_binary_seed_is_ones_and_logits_match(self):
        c = make_binary(30)
        x = rng(30, 6).standard_normal((6, 2))
        _, seed, logits = N.logit_sum_graph(c, x, np.zeros(6, dtype=int))
        np.testing.assert_array_equal(seed, np.ones((6, 1)))
        np.testing.assert_allclose(logits, N.logit_binary(c, x), rtol=1e-13)

    def test_multiclass_column_selection(self):
        c = make_multiclass(32)
        x = rng(32, 6).standard_normal((4, 2))
        _, _, logits = N.logit_sum_graph(c, x, np.full(4, 1))
        np.testing.assert_allclose(logits, N.class_logits(c, x)[:, 1], rtol=1e-13)

    def test_multiclass_per_row_class_index(self):
        c = make_multiclass(34)
        x = rng(34, 6).standard_normal((5, 2))
        classes = np.array([2, 0, 1, 0, 2])
        grad_pass, seed, logits = N.logit_sum_graph(c, x, classes)
        np.testing.assert_allclose(logits, N.class_logits(c, x)[np.arange(5), classes],
                                   rtol=1e-13)
        # each row's input gradient is that row's own head's gradient alone
        grad = T.input_gradient(grad_pass, seed)
        for j, cls in enumerate(classes):
            r1, s1, _ = N.logit_sum_graph(c, x[j:j + 1], classes[j:j + 1])
            np.testing.assert_allclose(grad[j:j + 1], T.input_gradient(r1, s1),
                                       rtol=0, atol=1e-13)


def mixed_batch(k, gen, n_s=5, n_pn=4, shape=(2,)):
    """A batch of n_s labeled rows, then n_pn pseudo-negatives: (x, labels,
    negative), with the tags -1 on a binary head as the store keeps them."""
    x = gen.standard_normal((n_s + n_pn,) + shape)
    tags = np.full(n_pn, -1) if k == 1 else gen.integers(0, k, size=n_pn)
    labels = np.concatenate([gen.integers(0, max(k, 2), size=n_s), tags])
    return x, labels, np.arange(n_s + n_pn) >= n_s


class TestHeadGraphGradients:
    """The loss SGD minimizes and its gradient pass, checked against central
    differences at every coordinate: the labeled and pseudo-negative rows of
    a binary and of a 3-class head, over the dense stack and over the conv
    stack (conv, leaky and flatten rules; input, kernel and bias sides).
    These rules are the tape's too, so the bitwise pass-against-tape tests
    do not check them."""

    @STACKS
    @pytest.mark.parametrize("k", [1, 3], ids=["binary", "multiclass"])
    def test_param_and_input_gradients_match_central_differences(self, spec, shape, k):
        c = N.init_multiclass(spec, shape, k, rng(50, 1))
        c.head_b[...] += 0.1 * rng(50, 2).standard_normal(k)
        x, labels, negative = mixed_batch(k, rng(50, 6), shape=shape)
        grads = [np.zeros_like(p) for p in c.all_params()]
        grad_pass, logits = N.head_pass(c, x, grads)
        _, seed = N.head_loss(logits, labels, negative, 0.3)
        analytic = grads + [T.input_gradient(grad_pass, seed)]

        def loss():
            return N.head_loss(N.class_logits(c, x), labels, negative, 0.3)[0]

        h, worst = 1e-5, 0.0
        for arr, grad in zip(c.all_params() + [x], analytic):
            for at in np.ndindex(arr.shape):
                orig = arr[at]
                arr[at] = orig + h
                up = loss()
                arr[at] = orig - h
                down = loss()
                arr[at] = orig
                worst = max(worst, rel_err(grad[at], (up - down) / (2 * h)))
        assert worst < 1e-4


def pass_loss_and_grads(c, x, labels, negative, alpha):
    """The head loss of one batch and its parameter gradients, from one pass."""
    grads = [np.zeros_like(p) for p in c.all_params()]
    grad_pass, logits = N.head_pass(c, x, grads, input_grad=False)
    total, seed = N.head_loss(logits, labels, negative, alpha)
    return total, T.param_gradients(grad_pass, seed)


class TestHeadGraphOnePass:
    """A mixed batch runs the stack once, and its loss and gradients are
    those of one pass per kind of row, summed."""

    @STACKS
    @pytest.mark.parametrize("k", [1, 3], ids=["binary", "multiclass"])
    def test_mixed_batch_record_holds_one_stack(self, spec, shape, k, monkeypatch):
        # one SGD step's pass runs each layer op once, on all rows together
        calls = []

        def count(name):
            kernel = getattr(T, name)

            def spy(*args, **kwargs):
                calls.append(name)
                return kernel(*args, **kwargs)
            monkeypatch.setattr(T, name, spy)

        for name in ("affine_value", "conv2d_value", "conv2d_kernel_grad", "conv2d_input_grad"):
            count(name)
        c = N.init_multiclass(spec, shape, k, rng(51, 1))
        x, labels, negative = mixed_batch(k, rng(51, 6), shape=shape)
        flat, velocity, grad = TR._pack(c)
        TR._sgd_step(c, x, labels, negative, 0.1, flat, velocity, grad, 0.01, 0.9)
        kinds = [layer.kind for layer in spec]
        assert calls.count("affine_value") == kinds.count("dense") + 1  # the head
        assert calls.count("conv2d_value") == kinds.count("conv")
        assert calls.count("conv2d_kernel_grad") == kinds.count("conv")
        # as on the tape, the batch itself gets no gradient
        assert calls.count("conv2d_input_grad") == max(kinds.count("conv") - 1, 0)

    @STACKS
    @pytest.mark.parametrize("k", [1, 3], ids=["binary", "multiclass"])
    def test_loss_and_gradients_equal_two_per_kind_passes(self, spec, shape, k):
        c = N.init_multiclass(spec, shape, k, rng(52, 1))
        x, labels, negative = mixed_batch(k, rng(52, 6), n_s=6, n_pn=5, shape=shape)
        total, grads = pass_loss_and_grads(c, x, labels, negative, 0.3)
        want_loss, want_grads = 0.0, [np.zeros_like(p) for p in c.all_params()]
        for rows in (~negative, negative):
            part_total, part_grads = pass_loss_and_grads(c, x[rows], labels[rows],
                                                         negative[rows], 0.3)
            want_loss += part_total
            for w, g in zip(want_grads, part_grads):
                w += g
        np.testing.assert_allclose(total, want_loss, rtol=1e-12)
        for g, w in zip(grads, want_grads):
            np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-15)


class TestFinitenessChecks:
    """Parameters are checked for NaN/Inf where they are written, so the
    graphs built over them scan only their inputs and op outputs."""

    @pytest.fixture
    def scanned(self, monkeypatch):
        """ids of the arrays handed to np.isfinite while the test runs."""
        ids, isfinite = [], np.isfinite

        def spy(a, *args, **kwargs):
            ids.append(id(a))
            return isfinite(a, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", spy)
        return ids

    def test_synthesis_scans_no_parameter(self, scanned):
        c = N.init_binary(C.SYNTH_NET, (2,), rng(40, 1))
        scanned.clear()  # the checks at init are not the sampler's
        config = S.SamplerConfig(stopping="option2", max_steps=20, step_size=0.5)
        _, traces = S.synthesize_pseudo_negatives(c, config, np.zeros(8, int), rng(40, 3), (2,))
        assert max(t.steps for t in traces) > 1
        assert scanned  # op outputs were checked
        assert not {id(p) for p in c.all_params()} & set(scanned)

    def test_mnist_logit_graph_scans_its_input_but_no_parameter(self, scanned):
        c = N.init_multiclass(C.MNIST_NET, (1, 28, 28), 10, rng(41, 1))
        x = rng(41, 6).standard_normal((2, 1, 28, 28))
        scanned.clear()  # the checks at init are not the graph's
        N.logit_sum_graph(c, x, np.full(2, 3))
        assert id(x) in scanned
        assert not {id(p) for p in c.all_params()} & set(scanned)

    @pytest.mark.parametrize("name, at, op", [
        ("dense", "stack", "affine"), ("conv", "stack", "conv2d"), ("dense", "head", "affine")])
    def test_class_logits_overflow_names_the_op(self, name, at, op):
        # inference checks each op's output, the head's too, as the
        # gradient passes do; before, it returned inf or NaN logits
        c, x = TestLogitSumGraph.stack(name, 1, 31)
        # finite; the products are not
        (c.feature_params[0] if at == "stack" else c.head_w)[...] *= 1e300
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(T.NonFiniteError, match=f"produced by {op}$"):
            N.class_logits(c, 1e10 * x)

    def test_non_finite_input_still_raises(self):
        c = make_binary(42)
        x = np.array([[0.5, np.nan]])
        with pytest.raises(T.NonFiniteError):
            N.logit_sum_graph(c, x, np.zeros(1, dtype=int))
        with pytest.raises(T.NonFiniteError):
            N.head_pass(c, x)


class TestSerialization:
    def test_binary_roundtrip_bitwise(self, tmp_path):
        c = make_binary(40)
        path = tmp_path / "bin.icnet"
        N.save_model(path, c)
        back = N.load_model(path)
        assert back.spec == c.spec
        for a, b in zip(c.all_params(), back.all_params()):
            assert a.tobytes() == b.tobytes()

    def test_multiclass_roundtrip_bitwise(self, tmp_path):
        c = make_multiclass(41, k=4)
        path = tmp_path / "multi.icnet"
        N.save_model(path, c)
        back = N.load_model(path)
        assert back.n_classes == 4
        for a, b in zip(c.all_params(), back.all_params()):
            assert a.tobytes() == b.tobytes()

    def test_ensemble_roundtrip_bitwise(self, tmp_path):
        e = N.OneVsAllEnsemble([make_binary(42), make_binary(43)])
        path = tmp_path / "ova.icnet"
        N.save_model(path, e)
        back = N.load_model(path)
        assert back.n_classes == 2
        for m_a, m_b in zip(e.members, back.members):
            for a, b in zip(m_a.all_params(), m_b.all_params()):
                assert a.tobytes() == b.tobytes()

    def test_roundtrip_preserves_predictions(self, tmp_path):
        c = make_multiclass(44)
        path = tmp_path / "pred.icnet"
        N.save_model(path, c)
        back = N.load_model(path)
        x = rng(44, 6).standard_normal((10, 2))
        np.testing.assert_array_equal(N.predict_label(back, x), N.predict_label(c, x))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.icnet"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 32)
        with pytest.raises(N.ModelFormatError, match="magic"):
            N.load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        c = make_binary(45)
        path = tmp_path / "trunc.icnet"
        N.save_model(path, c)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(N.ModelFormatError, match="truncated"):
            N.load_model(path)


class TestTruncatedModelFiles:
    """Every proper prefix of a model file fails with ModelFormatError."""

    @pytest.mark.parametrize("model", [
        lambda: N.init_binary([T.dense(2, 2), T.leaky()], (2,), rng(60, 1)),
        lambda: N.init_multiclass([T.dense(2, 2), T.leaky()], (2,), 3, rng(61, 1)),
        lambda: N.OneVsAllEnsemble([N.init_binary([T.dense(2, 2)], (2,), rng(62 + k, 1))
                                    for k in range(2)]),
    ], ids=["binary", "multiclass", "one_vs_all"])
    def test_every_truncation_raises_typed(self, tmp_path, model):
        path = tmp_path / "m.icnet"
        N.save_model(path, model())
        data = path.read_bytes()
        N.load_model(path)
        cut = tmp_path / "cut.icnet"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(N.ModelFormatError):
                N.load_model(cut)

    def test_every_error_names_the_file(self, tmp_path):
        path = tmp_path / "m.icnet"
        N.save_model(path, N.init_binary([T.dense(2, 2), T.leaky()], (2,), rng(63, 1)))
        data = path.read_bytes()
        cut = tmp_path / "cut-model.icnet"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(N.ModelFormatError) as info:
                N.load_model(cut)
            assert str(cut) in str(info.value)

    def test_tensor_header_and_data_cuts_name_the_file(self, tmp_path):
        path = tmp_path / "m.icnet"
        N.save_model(path, N.init_binary([T.dense(2, 2), T.leaky()], (2,), rng(64, 1)))
        data = path.read_bytes()
        first_tensor = data.index(b"\n", len(N.MODEL_MAGIC)) + 1
        cut = tmp_path / "cut-model.icnet"
        for n, what in ((first_tensor + 4, "tensor header"),
                        (first_tensor + 8 + 2 * 8 + 8, "tensor data")):
            cut.write_bytes(data[:n])
            with pytest.raises(N.ModelFormatError, match=f"truncated {what}") as info:
                N.load_model(cut)
            assert str(info.value).startswith(f"{cut}: ")


class TestLoadValidation:
    """load_model checks what it reads against the header; each defect is a
    ModelFormatError that starts with the path."""

    def edited(self, tmp_path, model, old=b"", new=b"", tail=b""):
        path = tmp_path / "m.icnet"
        N.save_model(path, model)
        data = path.read_bytes()
        assert old in data
        path.write_bytes(data.replace(old, new, 1) + tail)
        return path

    def assert_rejected(self, path, match):
        with pytest.raises(N.ModelFormatError, match=match) as info:
            N.load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_unknown_layer_kind(self, tmp_path):
        path = self.edited(tmp_path, make_binary(70), b'"leaky"', b'"leakx"')
        self.assert_rejected(path, "unknown layer kind 'leakx'")

    def test_weight_shape_differs_from_header(self, tmp_path):
        c = N.init_binary([T.dense(2, 3), T.leaky()], (2,), rng(71, 1))
        path = self.edited(tmp_path, c, b'["dense", 2, 3,', b'["dense", 2, 4,', b"\x00" * 12)
        self.assert_rejected(path, r"shape \(2, 3\) where the header implies \(2, 4\)")

    def test_head_columns_differ_from_kind(self, tmp_path):
        path = self.edited(tmp_path, make_multiclass(72, k=3), b'"classes": 3, "kind": "multiclass"',
                           b'"kind": "binary"')
        self.assert_rejected(path, r"shape \(16, 3\) where the header implies \(None, 1\)")

    def test_head_columns_differ_from_class_count(self, tmp_path):
        path = self.edited(tmp_path, make_multiclass(73, k=3), b'"classes": 3', b'"classes": 4')
        self.assert_rejected(path, r"shape \(16, 3\) where the header implies \(None, 4\)")

    def test_multiclass_needs_two_classes(self, tmp_path):
        path = self.edited(tmp_path, make_binary(74), b'"kind": "binary"',
                           b'"classes": 1, "kind": "multiclass"')
        self.assert_rejected(path, "multiclass model with 1 classes")

    @pytest.mark.parametrize("model", [make_binary, make_multiclass,
                                       lambda seed: N.OneVsAllEnsemble([make_binary(seed)] * 2)],
                             ids=["binary", "multiclass", "one_vs_all"])
    def test_bytes_after_last_tensor(self, tmp_path, model):
        path = self.edited(tmp_path, model(75), tail=b"\x00")
        self.assert_rejected(path, "bytes after the last tensor")

    def defective(self, tmp_path, defect):
        """A binary model file with one NaN weight, a head width field of
        2**58 or one bad leaky slope in its header; returns the path and the
        error it must raise."""
        c = make_binary(77)
        if defect == "nan-weight":
            c.head_w[3, 0] = np.nan
            return self.edited(tmp_path, c), r"tensor of shape \(16, 1\) holds NaN or Inf"
        if defect == "huge-width":
            # the header leaves the head width open; before, reading this
            # tensor raised MemoryError
            path = self.edited(tmp_path, c, struct.pack("<3q", 2, 16, 1),
                               struct.pack("<3q", 2, 2 ** 58, 1))
            return path, r"truncated tensor data of shape \(288230376151711744, 1\): needs"
        slope = {"nan-slope": b"NaN", "slope-5": b"5.0"}[defect]
        path = self.edited(tmp_path, c, b'["leaky", 0, 0, 0.2, 2]', b'["leaky", 0, 0, ' + slope + b', 2]')
        return path, r"slope must be finite and lie in \[0, 1\]"

    @pytest.mark.parametrize("defect", ["nan-weight", "huge-width", "nan-slope", "slope-5"])
    def test_non_finite_value_or_bad_slope(self, tmp_path, defect):
        # before: each loaded, and every prediction was -1 (NaN logits)
        path, match = self.defective(tmp_path, defect)
        self.assert_rejected(path, match)

    @pytest.mark.parametrize("defect", ["nan-weight", "huge-width", "nan-slope", "slope-5"])
    def test_adversarial_exits_1_on_non_finite_value_or_bad_slope(self, tmp_path, capsys, defect):
        from icnet import cli as C
        good = tmp_path / "good.icnet"
        N.save_model(good, make_binary(76))
        bad, match = self.defective(tmp_path, defect)
        assert C.main(["adversarial", "--model-a", str(good), "--model-b", str(bad),
                       "--config", str(tmp_path / "unused.ini")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and re.search(match, err)

    def test_adversarial_exits_1_naming_the_file(self, tmp_path, capsys):
        from icnet import cli as C
        good = tmp_path / "good.icnet"
        N.save_model(good, make_binary(76))
        bad = self.edited(tmp_path, make_binary(76), tail=b"junk")
        assert C.main(["adversarial", "--model-a", str(good), "--model-b", str(bad),
                       "--config", str(tmp_path / "unused.ini")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: bytes after the last tensor")
