"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Runs every workload end to end at `--scale tiny` (traced and untraced) and
feeds each output check a wrong output.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402
from spans import Probe, Tracer, install  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(W.WORKLOADS))
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
    report = "\n".join(lines[:-1])
    names = ([m["name"] for m in DECLARED["per_layer"]] if trace
             else ["wall_ref_s", "wall_s", "setup_s", "setup_raw_s", "work_per_s", "cal_s",
                   "peak_rss_mb", "error_rate"])
    for name in names:
        assert f"\n{name} " in report, name
    assert "median of" in report


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = run_bench("synth2d-icn", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_wrong_output_is_counted_as_failed(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "icnet" / "cli.py"
    text = cli.read_text()
    emitted = "str(r.store_size), format_float(r.kl_to_positive),\n                format_float(r.wall_time)"
    assert text.count(emitted) == 1    # the metrics.csv writer
    cli.write_text(text.replace(emitted, emitted.replace("r.store_size", "r.store_size + 1")))
    proc = run_bench("synth2d-icn", 0, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] >= 2 and result["failed"] <= result["attempted"]
    assert "store_size" in proc.stdout


def test_idx_files_load_and_depend_on_the_seed(tmp_path):
    from icnet import data as D
    for seed in (0, 1):
        (train_x, train_y), _ = W.mnist_shaped(seed, 30, 10)
        W.write_idx_pair(tmp_path / f"i{seed}", tmp_path / f"l{seed}", train_x, train_y)
        head = (tmp_path / f"i{seed}").read_bytes()[:16]
        assert head == bytes.fromhex("00000803") + (30).to_bytes(4, "big") + bytes.fromhex(
            "0000001c0000001c")
        ds = D.load_idx(tmp_path / f"i{seed}", tmp_path / f"l{seed}")
        assert ds.samples.shape == (30, 1, 28, 28)
        assert np.array_equal(ds.samples[:, 0], train_x) and np.array_equal(ds.labels, train_y)
        assert sorted(set(ds.labels.tolist())) == list(range(10))
    assert (tmp_path / "i0").read_bytes() != (tmp_path / "i1").read_bytes()
    again, _ = W.mnist_shaped(0, 30, 10)
    assert (tmp_path / "i0").read_bytes()[16:] == again[0].tobytes()


METRICS_HEADER = "round,train_loss,val_error,test_error,store_size,kl_to_positive,wall_time\r\n"


def write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="")
    return path


def test_metrics_csv_check(tmp_path):
    good = write(tmp_path / "good.csv", METRICS_HEADER
                 + "0,0.5,0.1,0.2,0,1.5,\r\n1,0.4,0.1,0.2,4,1.2,\r\n")
    assert W.check_metrics_csv(good, 1, 4, ("train_loss", "kl_to_positive")) == []
    wrong_store = write(tmp_path / "store.csv", METRICS_HEADER
                        + "0,0.5,0.1,0.2,0,1.5,\r\n1,0.4,0.1,0.2,5,1.2,\r\n")
    assert W.check_metrics_csv(wrong_store, 1, 4, ("train_loss",))
    missing_round = write(tmp_path / "rounds.csv", METRICS_HEADER + "0,0.5,0.1,0.2,0,1.5,\r\n")
    assert W.check_metrics_csv(missing_round, 1, 4, ("train_loss",))
    not_finite = write(tmp_path / "nan.csv", METRICS_HEADER
                       + "0,nan,0.1,0.2,0,1.5,\r\n1,0.4,0.1,0.2,4,,\r\n")
    assert len(W.check_metrics_csv(not_finite, 1, 4, ("train_loss", "kl_to_positive"))) == 2
    assert W.check_metrics_csv(tmp_path / "absent.csv", 1, 4, ())
    garbled = write(tmp_path / "garbled.csv", "x,y\r\n1,2\r\n")
    assert W.check_metrics_csv(garbled, 1, 4, ("train_loss",))


def test_oracle_check(tmp_path):
    gaps = write(tmp_path / "gaps.csv", "pair,identity_gap\r\n0,1e-16\r\n1,3e-17\r\n")
    passed = "oracle-verify: 2 pairs on a 16x16 grid, max identity gap 1.0e-16 -> PASS\n"
    assert W.check_oracle(passed, gaps, 2) == []
    assert W.check_oracle(passed.replace("PASS", "FAIL"), gaps, 2)
    assert W.check_oracle(passed, gaps, 3)
    big = write(tmp_path / "big.csv", "pair,identity_gap\r\n0,1e-16\r\n1,2e-9\r\n")
    assert W.check_oracle(passed, big, 2)
    garbled = write(tmp_path / "garbled.csv", "pair,gap\r\n0,1e-16\r\n1,3e-17\r\n")
    assert W.check_oracle(passed, garbled, 2)


def test_fooling_check(tmp_path):
    header = "direction,eligible,adversarial,cross_fool,epsilon\r\n"
    good = write(tmp_path / "good.csv", header + "a_to_b,10,4,2,0.125\r\nb_to_a,9,3,3,0.125\r\n")
    assert W.check_fooling(good) == []
    nesting = write(tmp_path / "nest.csv", header + "a_to_b,10,4,5,0.125\r\nb_to_a,9,3,3,0.125\r\n")
    assert W.check_fooling(nesting)
    none_eligible = write(tmp_path / "zero.csv", header + "a_to_b,0,0,0,0.125\r\nb_to_a,9,3,3,0.125\r\n")
    assert W.check_fooling(none_eligible)
    one_way = write(tmp_path / "one.csv", header + "a_to_b,10,4,2,0.125\r\n")
    assert W.check_fooling(one_way)


def test_determinism_and_finiteness_checks(tmp_path):
    for name in ("a", "b"):
        write(tmp_path / name / "metrics.csv", METRICS_HEADER)
        (tmp_path / name / "model_final.bin").write_bytes(b"model")
    first = W.deterministic_outputs(W.SYNTH2D, tmp_path / "a")
    assert W.compare_digests(first, W.deterministic_outputs(W.SYNTH2D, tmp_path / "b")) == []
    (tmp_path / "b" / "model_final.bin").write_bytes(b"modem")
    assert W.compare_digests(first, W.deterministic_outputs(W.SYNTH2D, tmp_path / "b"))
    (tmp_path / "b" / "model_final.bin").unlink()
    assert W.compare_digests(first, W.deterministic_outputs(W.SYNTH2D, tmp_path / "b"))
    assert W.check_metrics_finite({"wall_s": 1.0}) == []
    assert W.check_metrics_finite({"wall_s": float("nan"), "x": float("inf")})


def test_self_time_excludes_children():
    class Module:
        @staticmethod
        def inner():
            return 1

        @staticmethod
        def outer():
            return Module.inner() + Module.inner()

    tracer = Tracer()
    undo = install(tracer, [Probe(Module, "outer", "outer"), Probe(Module, "inner", "inner")])
    try:
        assert Module.outer() == 2
    finally:
        undo()
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    table = tracer.by_name()
    outer_calls, outer_total, outer_self = table["outer"]
    assert outer_calls == 1 and table["inner"][0] == 2
    assert outer_self == pytest.approx(outer_total - table["inner"][1], abs=1e-12)
    assert tracer.top_level_time() == pytest.approx(outer_total)
    assert not hasattr(Module.outer, "__wrapped__")
