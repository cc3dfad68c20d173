"""The benchmark (bench/worker.py) wraps package attributes by name, and a
missing one crashes the benchmarked run. These tests install every probe it
builds over the package modules, then take them out again."""

import importlib.util
from pathlib import Path

import numpy as np

from icnet import cli as C
from icnet import data as D
from icnet import network as N
from icnet import oracle as O
from icnet import robustness as R
from icnet import sampler as S
from icnet import tensor as T
from icnet import trainer as TR

WORKER_PATH = Path(__file__).resolve().parents[1] / "bench" / "worker.py"


def load_worker():
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER_PATH)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def all_probes(worker):
    layer_probes, conv_layers = worker.layer_probes(T, N, D, TR, O, R, C)
    assert conv_layers == ["c1", "c2", "c3", "c4"]
    return worker.coarse_probes(TR, S, N, O, R) + layer_probes


def test_every_probe_installs_and_uninstalls():
    worker = load_worker()
    probes = all_probes(worker)
    originals = [getattr(p.owner, p.attr) for p in probes]
    uninstall = worker.install(worker.Tracer(), probes)
    try:
        for p, original in zip(probes, originals):
            assert getattr(p.owner, p.attr) is not original, p.attr
    finally:
        uninstall()
    for p, original in zip(probes, originals):
        assert getattr(p.owner, p.attr) is original, p.attr


def test_untraced_probes_read_sgd_arguments_and_snapshots():
    # the coarse probes read _sgd_epochs' x_s, x_pn and epochs by position
    # and sum the bytes of RunResult.snapshots, which no run fills any more
    worker = load_worker()
    tracer = worker.Tracer()
    gen = np.random.default_rng(5)
    ds = D.LabeledDataset(gen.standard_normal((10, 2)), np.where(np.arange(10) < 5, 1, 0), 2)
    config = TR.TrainConfig(rounds=1, pseudo_per_round=2, init_epochs=2, epochs_per_round=1,
                            val_fraction=0.0)
    uninstall = worker.install(tracer, worker.coarse_probes(TR, S, N, O, R))
    try:
        result = TR.run_reclassification_by_synthesis(
            ds, [T.dense(2, 4), T.leaky()], config, S.SamplerConfig(max_steps=2))
    finally:
        uninstall()
    # 2 initial epochs over 10 samples, then 1 epoch over 10 + 2 pseudo-negatives
    assert tracer.counts["trainer.sgd_samples"] == 2 * 10 + 1 * 12
    assert result.snapshots == []
    # the snapshot probe ran (a Counter key appears on its first +=) and found nothing
    assert "cli.snapshot_bytes" in tracer.counts
    assert tracer.counts["cli.snapshot_bytes"] == 0
