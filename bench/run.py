"""icnet benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload synth2d-icn --seed 0 --seconds 55 --trace 0

Run it from the root of a source checkout (it imports `src/icnet`). Load is
a closed loop with one client: each repetition runs the workload's `icnet`
commands one after another in one fresh worker process (bench/worker.py),
and the next starts when it ends, until `--seconds` have passed (at least
two repetitions, so same-seed outputs can be compared bitwise). Before the
repetitions, a few set-up-only workers measure `setup_s` on their own.
This process and its workers share one vCPU, and a fixed calibration kernel
is timed on it between workers, so that the gated timings can be given at
a reference speed (see bench/README.md, "Reference speed").

With `--trace 0` the metrics are the end-to-end figures; with `--trace 1`
repetitions alternate untraced and traced, the per-layer figures come from
the traced ones, and the difference in `wall_s` is the tracing overhead.

Every figure is printed by name with its unit, median and sample count. The
last stdout line is one JSON object: correct, attempted, failed, and the
metrics that BENCHMARK.json names for this mode. A full record (inputs'
seed, environment, every sample, every per-layer metric) goes to
bench/_results/, and the spans of the last traced repetition beside it.
"""

import argparse
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

# One BLAS thread, in the workers and in this process, whose calibration
# kernel must run like them. On a machine of a few shared cores, a second
# thread per worker mostly measures the scheduler and the other tenants; only
# mnist-shaped's conv GEMMs are large enough to gain from it (bench/README.md).
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = BLAS_THREADS

import numpy as np  # noqa: E402
import workloads as W  # noqa: E402
from spans import clock, quantile  # noqa: E402

SETUP_PROBES = 7
MIN_REPETITIONS = 2
WORKER_TIMEOUT_S = 150

# The unit of reference speed: timings at reference speed are scaled by
# CAL_REF_S / cal_s, where cal_s is what calibrate() took around the worker.
# On a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31) calibrate()
# takes 0.08 s when the machine is quiet and up to 0.15 s when it is busy.
CAL_REF_S = 0.1

# The end-to-end figures, with units. `work_per_s` is the
# workload's own throughput (Workload.work_metric) under one name, so that
# every workload reports the same set. `wall_ref_s`, `setup_s` and
# `work_ref_per_s` are at reference speed; the rest are as measured.
E2E_UNITS = {
    "wall_ref_s": "s", "setup_s": "s", "work_ref_per_s": "1/s",
    "wall_s": "s", "setup_raw_s": "s", "work_per_s": "1/s", "cal_s": "s",
    "train_samples_per_s": "1/s", "synth_chain_steps_per_s": "1/s",
    "oracle_pairs_per_s": "1/s", "fgsm_samples_per_s": "1/s",
    "peak_rss_mb": "MB", "artifact_mb": "MB", "error_rate": "ratio",
}


def unit_of(name):
    """Unit of an end-to-end or per-layer metric, from its name."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    name = re.sub(r"\.c\d+$", "", name)   # per conv layer: tensor.conv_fwd_s.c1
    for suffix, unit in (("_s", "s"), ("_s_p50", "s"), ("_s_p90", "s"), ("_mb", "MB"),
                         ("_bytes", "B"), ("_written", "B"), ("_ratio", "ratio"),
                         ("_coverage", "ratio"), ("_max", "abs")):
        if name.endswith(suffix):
            return unit
    return "count"


def calibrate():
    """Seconds this process takes for a fixed piece of numpy and Python work:
    many small ops, like the tape at batch 32, then dense algebra over 4096
    rows, like the grid forwards. Shared machines change speed by up to 2x
    for tens of seconds at a time; timed on the workers' vCPU just before
    and after a worker, this measures the speed the worker ran at."""
    gen = np.random.default_rng(0)
    grid = gen.standard_normal((4096, 16))
    weights = gen.standard_normal((16, 16)) / 4
    batch = grid[:32]
    started = clock()
    total = 0.0
    for _ in range(4000):
        hidden = np.maximum(batch @ weights, 0.0)
        if np.all(np.isfinite(hidden)):
            total += float(hidden.sum())
    for _ in range(25):
        hidden = np.tanh(grid @ weights)
        total += float(np.logaddexp(hidden @ weights, 0.0).sum())
    elapsed = clock() - started
    if not math.isfinite(total):
        raise RuntimeError("calibration kernel produced a non-finite sum")
    return elapsed


def environment(seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": BLAS_THREADS, "OMP_NUM_THREADS": BLAS_THREADS,
            "machine": platform.machine(), "seed": seed}


def worker_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec, work, env, root):
    """Start one worker, wait for it; returns (result or None, error)."""
    spec_path, result_path = work / "spec.json", work / "result.json"
    result_path.unlink(missing_ok=True)
    spec["result_path"] = str(result_path)
    spec["t_spawn"] = clock()
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"), str(spec_path)],
                            cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {WORKER_TIMEOUT_S} s"
    finally:
        if proc.poll() is None:   # timed out, or this process is being stopped
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or not result_path.is_file():
        return None, f"worker exited {proc.returncode}: {err.strip()[-400:]}"
    return json.loads(result_path.read_text()), None


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


class Run:
    """The state of one benchmark run: inputs, reference digests, samples."""

    def __init__(self, workload, seed, scale, work, root):
        self.workload, self.seed, self.scale = workload, seed, scale
        self.work, self.root = work, root
        self.env = worker_env(root)
        self.ini = W.prepare(workload, work / "inputs", seed, scale)
        self.reference = None
        self.attempted = 0
        self.failures = []
        self.setup_samples = []   # (as measured, at reference speed)
        self.untraced, self.traced = [], []
        self.cal_s = calibrate()

    def worker(self, spec):
        """run_worker between two calibrations; their mean is the worker's
        cal_s."""
        result, error = run_worker(spec, self.work, self.env, self.root)
        before, self.cal_s = self.cal_s, calibrate()
        return result, error, (before + self.cal_s) / 2

    def _spec(self, commands, trace, setup_only):
        return {"commands": commands, "src": str(self.root / "src"), "trace": trace,
                "setup_only": setup_only,
                "spans_path": str(BENCH_DIR / "_results" /
                                  f"{self.workload.name}-seed{self.seed}.spans.json")}

    def setup_probe(self):
        run_dir = self.work / "run"
        commands = W.commands(self.workload, self.ini, run_dir, self.seed, self.scale)
        self.attempted += 1
        result, error, cal_s = self.worker(self._spec(commands, 0, True))
        shutil.rmtree(run_dir, ignore_errors=True)
        if error or result.get("setup_s") is None or any(s != 0 for s in result["statuses"]):
            self.failures.append(f"setup probe: {error or result['errors'] or result['statuses']}")
            return
        self.setup_samples.append((result["setup_s"], result["setup_s"] * CAL_REF_S / cal_s))

    def repetition(self, trace):
        run_dir = self.work / "run"
        commands = W.commands(self.workload, self.ini, run_dir, self.seed, self.scale)
        self.attempted += 1
        result, error, cal_s = self.worker(self._spec(commands, trace, False))
        failures = [error] if error else []
        if result is not None:
            failures += [f"`icnet {argv[0]}` exited {status}: {'; '.join(result['errors'])}"
                         for argv, status in zip(commands, result["statuses"]) if status != 0]
            if not failures and len(result["statuses"]) != len(commands):
                failures.append("not every command ran")
        if not failures:
            # the timings of a repetition whose commands all ran are kept even
            # if an output check fails; the failure still counts
            sample = dict(result["end_to_end"], peak_rss_mb=result["peak_rss_mb"],
                          artifact_mb=dir_bytes(run_dir) / 1e6)
            sample["work_per_s"] = sample.get(self.workload.work_metric, float("nan"))
            sample["cal_s"] = cal_s
            sample["wall_ref_s"] = sample["wall_s"] * CAL_REF_S / cal_s
            sample["work_ref_per_s"] = sample["work_per_s"] * cal_s / CAL_REF_S
            if "setup_s" in sample:
                sample["setup_raw_s"] = sample["setup_s"]
                sample["setup_s"] *= CAL_REF_S / cal_s
            layers = result.get("layers")
            not_finite = W.check_metrics_finite({**sample, **(layers or {})})
            if not not_finite:
                (self.traced if trace else self.untraced).append((sample, layers))
            failures += not_finite
            failures += W.check_outputs(self.workload, run_dir, result["stdouts"], self.scale)
            digests = W.deterministic_outputs(self.workload, run_dir)
            if self.reference is None:
                self.reference = digests
            failures += W.compare_digests(self.reference, digests)
        shutil.rmtree(run_dir, ignore_errors=True)
        if failures:
            self.failures.append(f"repetition {self.attempted}: " + " | ".join(failures))


def summarize(samples):
    """{name: (median, q1, q3, n)} over a list of per-repetition dicts."""
    names = sorted({k for s in samples for k in s})
    out = {}
    for name in names:
        values = [s[name] for s in samples if name in s]
        out[name] = (statistics.median(values), quantile(values, 0.25),
                     quantile(values, 0.75), len(values))
    return out


def report_line(name, unit, stats):
    median, q1, q3, n = stats
    return f"{name:34s} {median:14.6g} {unit:6s} median of {n} (q1 {q1:.6g}, q3 {q3:.6g})"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the benchmark's self-test")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running worker is killed
    # and waited for, and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "icnet" / "cli.py").is_file():
        print(f"error: no icnet source tree under {root}/src; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    workload = W.WORKLOADS[args.workload]
    env = environment(args.seed)
    # This process and its workers share one vCPU: the vCPUs of a shared
    # machine change speed independently, and the calibration must time the
    # one the workers run on.
    env["cpu"] = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {env["cpu"]})

    (BENCH_DIR / "_work").mkdir(exist_ok=True)
    (BENCH_DIR / "_results").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=BENCH_DIR / "_work"))
    try:
        deadline = clock() + args.seconds
        run = Run(workload, args.seed, args.scale, work, root)
        for _ in range(SETUP_PROBES):
            run.setup_probe()
        reps, last = 0, 0.0
        # start another repetition only if at least half of it fits
        while reps < MIN_REPETITIONS or clock() + last / 2 < deadline:
            started = clock()
            # traced runs alternate untraced and traced repetitions
            run.repetition(trace=args.trace and reps % 2 == 1)
            reps, last = reps + 1, clock() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = summarize([s for s, _ in run.untraced])
    setup = run.setup_samples + [(s["setup_raw_s"], s["setup_s"])
                                 for s, _ in run.untraced if "setup_s" in s]
    for name, values in (("setup_raw_s", [raw for raw, _ in setup]),
                         ("setup_s", [ref for _, ref in setup])):
        if values:
            e2e[name] = (statistics.median(values), quantile(values, 0.25),
                         quantile(values, 0.75), len(values))
    failed = len(run.failures)
    e2e["error_rate"] = (failed / run.attempted, 0.0, 0.0, run.attempted)

    lines = [f"# icnet benchmark: workload {workload.name}, seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}, scale {args.scale}",
             "# environment: " + ", ".join(f"{k} {v}" for k, v in env.items()),
             "# end to end (untraced repetitions):"]
    lines += [report_line(n, unit_of(n), e2e[n]) for n in E2E_UNITS if n in e2e]
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale, "environment": env,
              "attempted": run.attempted, "failures": run.failures,
              "end_to_end": {n: dict(zip(("median", "q1", "q3", "n"), v)) for n, v in e2e.items()},
              "samples": {"setup_raw_s": [raw for raw, _ in setup],
                          "setup_s": [ref for _, ref in setup], "untraced": [s for s, _ in run.untraced]}}
    medians = {n: v[0] for n, v in e2e.items()}
    if args.trace:
        layers = summarize([l for _, l in run.traced])
        traced_wall = summarize([s for s, _ in run.traced]).get("wall_s")
        lines.append("# per layer (traced repetitions; 0 where the workload does not reach the layer):")
        lines += [report_line(n, unit_of(n), v) for n, v in layers.items()]
        if traced_wall and "wall_s" in e2e:
            overhead = traced_wall[0] - e2e["wall_s"][0]
            lines.append(f"# tracing overhead: traced wall_s {traced_wall[0]:.6g} s - untraced "
                         f"{e2e['wall_s'][0]:.6g} s = {overhead:.6g} s")
            record["tracing_overhead_s"] = overhead
        record["per_layer"] = {n: dict(zip(("median", "q1", "q3", "n"), v))
                               for n, v in layers.items()}
        record["samples"]["traced"] = [{**s, **l} for s, l in run.traced]
        medians = {n: v[0] for n, v in layers.items()}
    for failure in run.failures:
        lines.append(f"# FAILED {failure}")
    (BENCH_DIR / "_results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    print("\n".join(lines))

    missing = [name for name in wanted if name not in medians]
    if missing:
        print(f"error: no successful repetition measured {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0, "attempted": run.attempted, "failed": failed,
        "metrics": {name: {"value": medians[name], "unit": unit_of(name)} for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
