"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single CRITERION line (PASS/FAIL/SKIP with the measured
value and its tolerance) to the real stdout so the verdicts are visible in
any pytest run. The two MNIST criteria need the real IDX files and skip with
an explicit message when the files are absent; they are never faked.
"""

import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from icnet import cli as C
from icnet import data as D
from icnet import network as N
from icnet import oracle as O
from icnet import robustness as R
from icnet import sampler as S
from icnet import tensor as T
from icnet import trainer as TR
from icnet.seeding import STREAM_EPOCH, STREAM_INIT, rng

from helpers import cell_mass_at, gradient_check

SPEC_2D = [T.dense(2, 16), T.leaky(), T.dense(16, 16), T.leaky()]

README = Path(__file__).resolve().parent.parent / "README.md"

MNIST_MISSING = ("MNIST IDX files not found: set ICNET_MNIST_DIR or place "
                 "the four files under data/mnist (see README, 'Getting "
                 "MNIST'). This criterion needs the real dataset and is "
                 "skipped rather than simulated.")


def report(criterion, verdict, detail):
    print(f"CRITERION {criterion}: {verdict} - {detail}",
          file=sys.__stdout__, flush=True)


def check(criterion, ok, detail):
    report(criterion, "PASS" if ok else "FAIL", detail)
    assert ok, f"criterion {criterion}: {detail}"


def skip(criterion, reason):
    report(criterion, "SKIP", reason)
    pytest.skip(reason)


# ---------------------------------------------------------------------------
# criterion 1: gradients vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    cases = [
        ([T.dense(2, 16), T.leaky(), T.dense(16, 8), T.leaky()], (2,), "sigmoid"),
        ([T.dense(3, 12), T.leaky()], (3,), "softmax"),
        ([T.dense(5, 10), T.leaky(), T.dense(10, 10), T.leaky()], (5,), "softmax"),
        ([T.dense(4, 6)], (4,), "sigmoid"),
        ([T.conv(1, 3), T.leaky(), T.flatten()], (1, 8, 8), "sigmoid"),
        ([T.conv(1, 4), T.leaky(), T.conv(4, 6), T.leaky(), T.flatten()],
         (1, 12, 12), "softmax"),
        ([T.conv(2, 4), T.leaky(), T.flatten()], (2, 8, 8), "sigmoid"),
        ([T.conv(1, 4), T.leaky(), T.flatten(), T.dense(64, 16), T.leaky()],
         (1, 8, 8), "softmax"),
        ([T.conv(1, 2), T.flatten()], (1, 8, 8), "softmax"),
        ([T.dense(6, 20), T.leaky(), T.dense(20, 12), T.leaky(),
          T.dense(12, 4), T.leaky()], (6,), "sigmoid"),
    ]
    start = time.perf_counter()
    worst = 0.0
    for i, (spec, shape, head) in enumerate(cases):
        rep = gradient_check(spec, seed=i, input_shape=shape, head=head)
        worst = max(worst, rep.max_rel_err_params, rep.max_rel_err_input)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    check(1, ok, f"10 networks, max rel grad err {worst:.3e} (< 1e-4), "
                 f"{elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# criterion 2: exact KL bookkeeping identity on the grid
# ---------------------------------------------------------------------------

def test_criterion_02_kl_identity_on_grid():
    start = time.perf_counter()
    res = (128, 128)
    prior = O.reference_grid(resolution=res)
    spec = D.default_benchmark_spec()
    p_plus_density = D.MixtureDensity(spec.positive_means, spec.positive_covs,
                                      (1, 1))
    p_plus = O.build_grid(O.DEFAULT_BOUNDS, res, p_plus_density.log_pdf)
    worst = 0.0
    for i in range(20):
        c_t = N.init_binary(SPEC_2D, (2,), rng(2, 4, i, 0))
        c_next = N.init_binary(SPEC_2D, (2,), rng(2, 4, i, 1))
        left, right = O.update_identity_sides(p_plus, prior, c_t, c_next)
        worst = max(worst, abs(left - right))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 60.0
    check(2, ok, f"20 classifier pairs on the 128x128 grid, max identity gap "
                 f"{worst:.3e} (< 1e-9), {elapsed:.1f}s (< 60s)")


# ---------------------------------------------------------------------------
# criterion 3: KL to the positive density shrinks over rounds
# ---------------------------------------------------------------------------

def exact_sampler_run(seed=0, rounds=10):
    """The run, and KL[p+ || p_t-] of each round's classifier, taken as the
    round ends."""
    spec = D.default_benchmark_spec(200, 200)
    ds, p_plus = D.gen_synthetic_2d(spec, rng(seed, 6)), D.positive_density(spec)
    prior = O.reference_grid(0.3, resolution=(128, 128))
    pos_grid = O.build_grid(O.DEFAULT_BOUNDS, (128, 128), p_plus.log_pdf)
    cfg = TR.TrainConfig(rounds=rounds, pseudo_per_round=100,
                         epochs_per_round=15, init_epochs=40, batch_size=64,
                         learning_rate=0.01, lr_drop_round=3, momentum=0.9,
                         alpha=0.1, val_fraction=0.0, patience=99, seed=seed)
    kls = []

    def on_round(m, c, store):
        p_t, _ = O.density_update(prior, c)
        kls.append(O.kl_divergence(pos_grid, p_t))

    run = TR.run_reclassification_by_synthesis(
        ds, SPEC_2D, cfg, None, "binary",
        synthesize=O.exact_synthesizer(prior), on_round=on_round)
    return run, kls


def test_criterion_03_kl_descent_with_exact_sampler():
    start = time.perf_counter()
    run, kls = exact_sampler_run(seed=0, rounds=10)
    non_increasing = sum(1 for a, b in zip(kls, kls[1:]) if b <= a + 1e-12)
    elapsed = time.perf_counter() - start
    ok = kls[-1] < kls[0] and non_increasing >= 8 and elapsed < 600.0
    check(3, ok, f"KL {kls[0]:.3f} -> {kls[-1]:.3f} over 10 rounds, "
                 f"non-increasing in {non_increasing}/10 steps (>= 8), "
                 f"{elapsed:.1f}s (< 600s)")


# ---------------------------------------------------------------------------
# criterion 4: synthesis stopping and landing contracts
# ---------------------------------------------------------------------------

def test_criterion_04_sampler_contract():
    ds = D.gen_synthetic_2d(D.default_benchmark_spec(200, 200), rng(0, 6))
    prior = O.reference_grid(0.3, resolution=(128, 128))
    base_cfg = TR.TrainConfig(rounds=0, pseudo_per_round=0, epochs_per_round=5,
                              init_epochs=40, batch_size=64, learning_rate=0.01,
                              momentum=0.9, alpha=0.1, val_fraction=0.0,
                              patience=99, seed=0)
    c0 = TR.run_reclassification_by_synthesis(ds, SPEC_2D, base_cfg, mode="binary").classifier
    icn_run, _ = exact_sampler_run(seed=0, rounds=4)
    scfg = S.SamplerConfig(stopping="option2", max_steps=300, step_size=0.02)

    threshold_total = 0
    threshold_ok = 0
    landing_fracs = []
    for key, model in (("round0", c0), ("round4", icn_run.classifier)):
        samples, traces = S.synthesize_pseudo_negatives(
            model, scfg, np.zeros(200, int), rng(0, 3, 0 if key == "round0" else 1), (2,))
        probs = T.sigmoid_value(N.logit_binary(model, samples))
        for i, tr in enumerate(traces):
            if tr.stop_reason == S.STOP_THRESHOLD:
                threshold_total += 1
                threshold_ok += probs[i] >= 0.95 - 1e-12
        p_t, _ = O.density_update(prior, model)
        masses = cell_mass_at(p_t, samples)
        landing_fracs.append(float((masses >= np.median(p_t.mass)).mean()))

    all_above = threshold_ok == threshold_total and threshold_total > 0
    landing = min(landing_fracs)
    ok = all_above and landing >= 0.9
    check(4, ok, f"{threshold_ok}/{threshold_total} threshold-stopped chains "
                 f"at prob >= 0.95 (need 100% of a nonempty set); "
                 f"above-median landing fraction {landing:.3f} (>= 0.9)")


# ---------------------------------------------------------------------------
# criterion 5: store bookkeeping and the mixture fraction
# ---------------------------------------------------------------------------

def test_criterion_05_bookkeeping_exact():
    ds = D.gen_synthetic_2d(D.default_benchmark_spec(40, 24), rng(5, 6))
    scfg = S.SamplerConfig(stopping="option3", fixed_steps=10, max_steps=20)
    cfg = TR.TrainConfig(rounds=4, pseudo_per_round=7, epochs_per_round=2,
                         init_epochs=6, batch_size=32, learning_rate=0.05,
                         momentum=0.9, alpha=0.1, val_fraction=0.0,
                         patience=99, seed=5)
    run = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, scfg, "binary")
    n_neg = int((ds.labels == 0).sum())
    binary_ok = len(run.store) == 4 * 7
    frac_ok = (Fraction(len(run.store), n_neg + len(run.store))
               == Fraction(4 * 7, n_neg + 4 * 7))

    gen = rng(5, 6, 1)
    x3 = gen.standard_normal((36, 2))
    ds3 = D.LabeledDataset(x3, np.arange(36) % 3, 3)
    multi_ok = True
    for alpha in (0.05, 0.1, 0.25):
        mcfg = TR.TrainConfig(rounds=2, pseudo_per_round=5, epochs_per_round=2,
                              init_epochs=4, batch_size=32, learning_rate=0.05,
                              momentum=0.9, alpha=alpha, val_fraction=0.0,
                              patience=99, seed=5)
        mrun = TR.run_reclassification_by_synthesis(ds3, SPEC_2D, mcfg, scfg,
                                                    "multiclass")
        multi_ok = multi_ok and len(mrun.store) == 2 * 3 * 5
    ok = binary_ok and frac_ok and multi_ok
    check(5, ok, f"binary store 4*7={len(run.store)}, multiclass store "
                 f"t*K*l exact for alpha in {{0.05, 0.1, 0.25}}, mixture "
                 f"fraction Tl/(n-+Tl) exact with n-={n_neg}")


# ---------------------------------------------------------------------------
# criteria 6 and 8: MNIST-gated directional results
# ---------------------------------------------------------------------------

_mnist_cache = {}


def mnist_models(seed, subset_size, rounds, pseudo_per_round):
    key = (seed, subset_size, rounds, pseudo_per_round)
    if key in _mnist_cache:
        return _mnist_cache[key]
    train_full, test_full = (D.normalize(D.load_idx(*D.mnist_files(D.default_mnist_dir(), split)))
                             for split in ("train", "test"))
    train_ds = D.stratified_subset(train_full, subset_size, seed)
    test_ds = D.stratified_subset(test_full, 2000, seed)
    cfg = TR.TrainConfig(rounds=rounds, pseudo_per_round=pseudo_per_round,
                         epochs_per_round=5, init_epochs=10, batch_size=64,
                         learning_rate=0.025, lr_drop_round=25, momentum=0.9,
                         alpha=0.1, val_fraction=0.1, patience=3, seed=seed)
    scfg = S.SamplerConfig(stopping="option2", max_steps=100, step_size=0.02,
                           clamp=(-1.0, 1.0))
    icn = TR.run_reclassification_by_synthesis(train_ds, C.MNIST_NET, cfg,
                                               scfg, "multiclass")
    base = TR.run_reclassification_by_synthesis(train_ds, C.MNIST_NET, replace(cfg, rounds=0),
                                                mode="multiclass")
    out = (icn.selected, base.selected, test_ds)
    _mnist_cache[key] = out
    return out


def test_criterion_06_small_training_set_improvement():
    if not D.mnist_available():
        skip(6, MNIST_MISSING)
    start = time.perf_counter()
    icn_errs, base_errs = [], []
    for seed in (0, 1, 2):
        icn, base, test_ds = mnist_models(seed, 500, rounds=6,
                                          pseudo_per_round=50)
        icn_errs.append(TR.error_rate(icn, test_ds.samples,
                                      test_ds.labels))
        base_errs.append(TR.error_rate(base, test_ds.samples,
                                       test_ds.labels))
    elapsed = time.perf_counter() - start
    icn_mean, base_mean = np.mean(icn_errs), np.mean(base_errs)
    ok = icn_mean <= base_mean and elapsed < 7200.0
    check(6, ok, f"n=500, 3 seeds: ICN test error {icn_mean:.4f} <= baseline "
                 f"{base_mean:.4f}, {elapsed:.0f}s (< 7200s)")


def test_criterion_07_headline_numbers_documented_not_asserted():
    if not README.is_file():
        check(7, False, "README.md missing; the long-run recipe must be "
                        "documented there")
    text = README.read_text()
    has_recipe = "long-run" in text.lower() and "mnist-full" in text
    check(7, has_recipe,
          "full-scale error rates are documented as a long-run recipe in "
          "README.md and intentionally not asserted at desk scale")


def test_criterion_08_adversarial_two_way_direction():
    if not D.mnist_available():
        skip(8, MNIST_MISSING)
    start = time.perf_counter()
    base_to_icn, icn_to_base = [], []
    for seed in (0, 1, 2):
        icn, base, test_ds = mnist_models(seed, 2000, rounds=4,
                                          pseudo_per_round=50)
        ab, ba = R.two_way_fool_experiment(base, icn, test_ds, 0.125, (-1.0, 1.0))
        base_to_icn.append(ab.cross_fool_fraction)
        icn_to_base.append(ba.cross_fool_fraction)
    elapsed = time.perf_counter() - start
    mean_ab, mean_ba = np.mean(base_to_icn), np.mean(icn_to_base)
    ok = mean_ab < 1.0 and mean_ab < mean_ba
    check(8, ok, f"n=2000, eps=0.125, 3 seeds: baseline->ICN cross-fool "
                 f"fraction {mean_ab:.4f} < 1 and < ICN->baseline "
                 f"{mean_ba:.4f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 9: bitwise-deterministic metrics
# ---------------------------------------------------------------------------

def test_criterion_09_bitwise_deterministic_metrics(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text(f"""\
[experiment]
task = synthetic2d
mode = binary
out = {tmp_path / 'a'}
seed = 3
n_positive = 20
n_negative = 14
test_positive = 50
test_negative = 50
grid_resolution = 48

[train]
rounds = 2
pseudo_per_round = 5
init_epochs = 6
epochs_per_round = 2
val_fraction = 0.25

[sampler]
stopping = option3
fixed_steps = 5
max_steps = 10
""")
    assert C.main(["train", "--config", str(ini)]) == 0
    assert C.main(["train", "--config", str(ini),
                   "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "metrics.csv").read_bytes()
    b = (tmp_path / "b" / "metrics.csv").read_bytes()
    ok = a == b and len(a) > 0
    check(9, ok, f"rerun with identical config and seed: metrics.csv "
                 f"bitwise-identical ({len(a)} bytes)")


# ---------------------------------------------------------------------------
# criterion 10: equivalence regressions
# ---------------------------------------------------------------------------

def _plain_softmax_sgd(c, x, y, lr, epochs, batch_size, momentum, gen):
    """Independently coded plain softmax trainer: same record ops, no
    pseudo-negative machinery and no balance weighting anywhere."""
    params = c.all_params()
    velocity = [np.zeros_like(p) for p in params]
    losses = []
    n = x.shape[0]
    for _ in range(epochs):
        order = gen.permutation(n)
        epoch_sum = 0.0
        for at in range(0, n, batch_size):
            rows = order[at:at + batch_size]
            record = T.ComputationRecord()
            p_nodes = [record.leaf(p, "param") for p in params]
            feats = T.feature_stack(record, c.spec, p_nodes[:-2],
                                    record.leaf(x[rows], "const"))
            logits = record.affine(feats, p_nodes[-2], p_nodes[-1])
            picked = record.select(record.log_softmax(logits), y[rows])
            loss = record.scale(record.scale(record.sum(picked), -1.0),
                                1.0 / rows.size)
            grads = T.param_gradients(record, loss)
            epoch_sum += float(loss.value) * rows.size
            for p, g, v in zip(params, grads, velocity):
                v *= momentum
                v -= lr * g
                p += v
        losses.append(epoch_sum / n)
    return losses


def test_criterion_10_equivalence_regressions():
    gen = rng(10, 6)
    x = gen.standard_normal((45, 2))
    y = np.arange(45) % 3
    ds = D.LabeledDataset(x, y, 3)
    cfg = TR.TrainConfig(rounds=0, pseudo_per_round=0, epochs_per_round=2,
                         init_epochs=8, batch_size=16, learning_rate=0.05,
                         momentum=0.9, alpha=0.0, val_fraction=0.0,
                         patience=99, seed=10)
    via_loop = TR.run_reclassification_by_synthesis(ds, SPEC_2D, cfg, mode="multiclass")
    trace_a = via_loop.metrics[0].epoch_losses

    c = N.init_multiclass(SPEC_2D, (2,), 3, rng(10, STREAM_INIT))
    trace_b = _plain_softmax_sgd(c, x, y, 0.05, 8, 16, 0.9,
                                 rng(10, STREAM_EPOCH, 0))
    trace_gap = max(abs(a - b) for a, b in zip(trace_a, trace_b))
    params_equal = all(
        p.tobytes() == q.tobytes()
        for p, q in zip(via_loop.classifier.all_params(), c.all_params()))

    ds_bin = D.gen_synthetic_2d(D.default_benchmark_spec(30, 20), rng(10, 6, 1))
    bcfg = TR.TrainConfig(rounds=0, pseudo_per_round=4, epochs_per_round=2,
                          init_epochs=5, batch_size=32, learning_rate=0.05,
                          momentum=0.9, alpha=0.1, val_fraction=0.2,
                          patience=99, seed=11)
    scfg = S.SamplerConfig(stopping="option3", fixed_steps=3, max_steps=5)
    t0_run = TR.run_reclassification_by_synthesis(ds_bin, SPEC_2D, bcfg, scfg,
                                                  "binary")
    base_run = TR.run_reclassification_by_synthesis(ds_bin, SPEC_2D, bcfg, mode="binary")
    t0_equal = all(
        p.tobytes() == q.tobytes()
        for p, q in zip(t0_run.classifier.all_params(),
                        base_run.classifier.all_params()))

    ok = (len(trace_a) == len(trace_b) == 8 and trace_gap <= 1e-12
          and params_equal and t0_equal)
    check(10, ok, f"alpha=0 empty-store loss trace matches an independent "
                  f"plain softmax trainer (max gap {trace_gap:.1e} <= 1e-12, "
                  f"final params bitwise-equal); T=0 run equals baseline "
                  f"bitwise")
