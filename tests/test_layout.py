"""Channel-last memory behind logical NCHW shapes: the conv kernels see no
per-call relayout, and model files and seeded inits are unchanged."""

from pathlib import Path

import numpy as np

from icnet import data as D
from icnet import network as N
from icnet import robustness as R
from icnet import sampler as S
from icnet import tensor as T
from icnet import trainer as TR
from icnet.seeding import rng

from helpers import channel_last

# Written by the code as it was before activations and kernels went
# channel-last: `N.init_multiclass(FIXTURE_SPEC, (1, 8, 8), 3, rng(70, 1))`.
FIXTURE = Path(__file__).parent / "data" / "multiclass_conv_model.bin"
FIXTURE_SPEC = [T.conv(1, 2), T.leaky(), T.conv(2, 3), T.leaky(), T.flatten(),
                T.dense(12, 4), T.leaky()]
# Its class logits on rng(70, 6).standard_normal((4, 1, 8, 8)), from that code.
FIXTURE_LOGITS = [float.fromhex(h) for h in (
    "-0x1.e0fe9f4b59354p-3", "-0x1.1c9226e49bafdp-1", "-0x1.b082e9d4c1932p-3",
    "-0x1.55adbc77f8f4cp-5", "-0x1.0328cef5d2086p+0", "-0x1.26915cbfc34d0p-2",
    "0x1.ab471324ea9e9p-2", "0x1.5bf38cde83443p-4", "0x1.434b9eb645f22p-3",
    "0x1.1aef9c5e95ce2p-5", "0x1.f10e5ad2344d1p-5", "0x1.9e40feddd9ee1p-4")]


def is_channel_last(a):
    return a.transpose(0, 2, 3, 1).flags.c_contiguous


class TestChannelLast:
    def test_keeps_values_and_shape(self):
        a = rng(1, 6).standard_normal((3, 4, 5, 6))
        b = channel_last(a)
        assert b.shape == a.shape and is_channel_last(b)
        np.testing.assert_array_equal(a, b)

    def test_no_copy_when_already_channel_last(self):
        a = channel_last(rng(2, 6).standard_normal((3, 4, 5, 6)))
        assert channel_last(a) is a

    def test_other_ranks_unchanged(self):
        a = np.zeros((3, 4))
        assert channel_last(a) is a


class TestLayoutGuard:
    def test_softmax_run_pays_no_per_call_relayout(self, monkeypatch, tmp_path):
        """SGD, synthesis, FGSM and a save/load: every conv call reads a
        channel-last kernel, every conv forward a channel-last input, and
        every kernel gradient is written channel-last into SGD's flat
        gradient buffer."""
        seen = []
        conv_value, input_grad = T.conv2d_value, T.conv2d_input_grad
        kernel_grad = T.conv2d_kernel_grad

        def spy_value(x, k, b, stride, pad):
            seen.append(("value", is_channel_last(x) and is_channel_last(k)))
            return conv_value(x, k, b, stride, pad)

        def spy_input_grad(dout, k, x_shape, stride, pad):
            seen.append(("input_grad", is_channel_last(k)))
            return input_grad(dout, k, x_shape, stride, pad)

        def spy_kernel_grad(dout, x, k_shape, stride, pad, out):
            seen.append(("kernel_grad", is_channel_last(x) and is_channel_last(out)
                         and out.base is not None and out.base.ndim == 1))
            return kernel_grad(dout, x, k_shape, stride, pad, out=out)

        monkeypatch.setattr(T, "conv2d_value", spy_value)
        monkeypatch.setattr(T, "conv2d_input_grad", spy_input_grad)
        monkeypatch.setattr(T, "conv2d_kernel_grad", spy_kernel_grad)

        spec = [T.conv(1, 4), T.leaky(), T.conv(4, 6), T.leaky(), T.flatten()]
        gen = rng(80, 6)
        ds = D.LabeledDataset(gen.uniform(-1, 1, (24, 1, 8, 8)), np.arange(24) % 3, 3)
        cfg = TR.TrainConfig(rounds=1, pseudo_per_round=2, epochs_per_round=1,
                             init_epochs=1, batch_size=8, val_fraction=0.0,
                             patience=99, seed=80)
        scfg = S.SamplerConfig(stopping="option3", fixed_steps=2, max_steps=2)
        run = TR.run_reclassification_by_synthesis(ds, spec, cfg, scfg, "multiclass")
        path = tmp_path / "m.icnet"
        N.save_model(path, run.selected)
        model = N.load_model(path)
        R.fool_direction(run.selected, model, ds.samples, ds.labels, 0.125, (-1.0, 1.0))

        kinds = {kind for kind, _ in seen}
        assert kinds == {"value", "input_grad", "kernel_grad"}
        assert all(ok for _, ok in seen)
        assert all(is_channel_last(p) for p in model.feature_params if p.ndim == 4)
        # the trained classifier holds views of one flat array, kernels channel-last
        kernels = [p for p in run.classifier.feature_params if p.ndim == 4]
        assert all(is_channel_last(p) and p.base is not None and p.base.ndim == 1
                   for p in kernels)
        assert len({id(p.base) for p in run.classifier.all_params()}) == 1


class TestCompatibility:
    def test_saved_kernel_bytes_are_logical_c_order(self, tmp_path):
        c = N.init_multiclass(FIXTURE_SPEC, (1, 8, 8), 3, rng(71, 1))
        path = tmp_path / "m.icnet"
        N.save_model(path, c)
        data = path.read_bytes()
        kernels = [p for p in c.feature_params if p.ndim == 4]
        assert all(is_channel_last(k) for k in kernels)
        assert not kernels[1].flags.c_contiguous  # (3, 2, 5, 5): 2 input channels
        for k in kernels:
            assert np.ascontiguousarray(k).tobytes() in data

    def test_init_bitwise_unchanged(self, tmp_path):
        """Same seed, same file bytes as the fixture: `init_layer_params` and
        the head draw the same values, and the writer emits the same order."""
        c = N.init_multiclass(FIXTURE_SPEC, (1, 8, 8), 3, rng(70, 1))
        path = tmp_path / "m.icnet"
        N.save_model(path, c)
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_old_file_loads_with_same_logits(self):
        model = N.load_model(FIXTURE)
        assert all(is_channel_last(p) for p in model.feature_params if p.ndim == 4)
        x = rng(70, 6).standard_normal((4, 1, 8, 8))
        np.testing.assert_allclose(N.class_logits(model, x).ravel(), FIXTURE_LOGITS,
                                   rtol=0, atol=1e-12)


def test_conv_values_do_not_depend_on_layout():
    """A C-ordered kernel or input costs a copy, not a different result."""
    gen = rng(81, 6)
    x = gen.standard_normal((3, 4, 9, 9))
    k = gen.standard_normal((5, 4, 5, 5))
    b = gen.standard_normal(5)
    got = T.conv2d_value(x, k, b, 2, 2)
    want = T.conv2d_value(channel_last(x), channel_last(k), b, 2, 2)
    np.testing.assert_array_equal(got, want)
