"""The benchmark's workloads: generated inputs, command sequences, checks.

The program sees only what is generated here from the workload seed: an
ini file, MNIST-shaped IDX files and `--seed`. Why each workload exists is
written down in bench/README.md.

Every check returns a list of failure messages; an empty list is a pass.
"""

import csv
import hashlib
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
MNIST_CLASSES = 10
ORACLE_TOLERANCE = 1e-9


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def write_idx_pair(images_path, labels_path, images, labels):
    """Write uint8 images (n, rows, cols) and labels (n,) in the IDX layout:
    big-endian magic 0x803 / 0x801, big-endian dimensions, raw bytes."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        fh.write(labels.tobytes())


def mnist_shaped(seed, n_train, n_test):
    """Seeded class-template images: each class is a smooth random field
    (7x7 blown up to 28x28) plus per-image pixel noise, so a few SGD steps
    separate the classes and FGSM finds correctly classified inputs.
    Returns ((train_images, train_labels), (test_images, test_labels))."""
    gen = np.random.default_rng([seed, 0x1D8])
    coarse = gen.standard_normal((MNIST_CLASSES, 7, 7))
    templates = np.kron(coarse, np.ones((4, 4)))
    low = templates.min(axis=(1, 2), keepdims=True)
    templates = (templates - low) / np.ptp(templates, axis=(1, 2), keepdims=True)

    def draw(n):
        labels = np.arange(n) % MNIST_CLASSES
        gen.shuffle(labels)
        pixels = templates[labels] * 255.0 + gen.normal(0.0, 40.0, (n,) + templates.shape[1:])
        return np.clip(np.rint(pixels), 0, 255).astype(np.uint8), labels.astype(np.uint8)

    return draw(n_train), draw(n_test)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sizes:
    """Knobs one workload turns; `full` is what the benchmark measures and
    `tiny` is what the self-test runs."""
    rounds: int = 0
    pseudo: int = 0
    init_epochs: int = 0
    epochs: int = 0
    max_steps: int = 0
    grid: int = 128
    train_images: int = 0
    test_images: int = 0
    subset: int = 0
    test_subset: int = 0
    pairs: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    work_metric: str      # the end-to-end throughput reported as work_per_s
    full: Sizes
    tiny: Sizes

    def sizes(self, scale):
        return self.full if scale == "full" else self.tiny


SYNTH2D = Workload(
    "synth2d-icn", "synth_chain_steps_per_s",
    full=Sizes(rounds=10, pseudo=50, init_epochs=30, epochs=5, max_steps=200, grid=128),
    tiny=Sizes(rounds=2, pseudo=4, init_epochs=2, epochs=1, max_steps=5, grid=16))

MNIST = Workload(
    "mnist-shaped", "train_samples_per_s",
    full=Sizes(rounds=2, pseudo=2, init_epochs=1, epochs=1, max_steps=2,
               train_images=200, test_images=100, subset=64, test_subset=40),
    tiny=Sizes(rounds=2, pseudo=1, init_epochs=1, epochs=1, max_steps=1,
               train_images=40, test_images=20, subset=20, test_subset=10))

ORACLE = Workload(
    "oracle-verify", "oracle_pairs_per_s",
    full=Sizes(pairs=40, grid=128),
    tiny=Sizes(pairs=2, grid=16))

WORKLOADS = {w.name: w for w in (SYNTH2D, MNIST, ORACLE)}


def prepare(workload, inputs_dir, seed, scale="full"):
    """Write the workload's inputs under inputs_dir; returns the ini path
    (None for oracle-verify, which takes flags only)."""
    z = workload.sizes(scale)
    inputs_dir = Path(inputs_dir)
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if workload is ORACLE:
        return None
    ini = inputs_dir / "experiment.ini"
    if workload is SYNTH2D:
        # patience >= rounds, so every round runs
        ini.write_text(f"""\
[experiment]
task = synthetic2d
mode = binary
out = run
grid_resolution = {z.grid}

[train]
rounds = {z.rounds}
pseudo_per_round = {z.pseudo}
epochs_per_round = {z.epochs}
init_epochs = {z.init_epochs}
patience = {z.rounds}

[sampler]
method = plain-gradient
stopping = option2
max_steps = {z.max_steps}
""")
        return ini
    idx_dir = inputs_dir / "idx"
    idx_dir.mkdir(exist_ok=True)
    (train_x, train_y), (test_x, test_y) = mnist_shaped(seed, z.train_images, z.test_images)
    write_idx_pair(idx_dir / "train-images-idx3-ubyte", idx_dir / "train-labels-idx1-ubyte",
                   train_x, train_y)
    write_idx_pair(idx_dir / "t10k-images-idx3-ubyte", idx_dir / "t10k-labels-idx1-ubyte",
                   test_x, test_y)
    # val_fraction = 0 selects the last round, so model_final differs from
    # the round-0 baseline that `adversarial` attacks it against.
    ini.write_text(f"""\
[experiment]
task = mnist-subset
mode = softmax
out = run
mnist_dir = {idx_dir.resolve()}
subset_size = {z.subset}
test_subset = {z.test_subset}

[train]
rounds = {z.rounds}
pseudo_per_round = {z.pseudo}
epochs_per_round = {z.epochs}
init_epochs = {z.init_epochs}
batch_size = 64
val_fraction = 0
patience = {z.rounds}

[sampler]
stopping = option3
fixed_steps = {z.max_steps}
max_steps = {z.max_steps}
""")
    return ini


def commands(workload, ini, run_dir, seed, scale="full"):
    """The `icnet` argv lists one repetition runs, in order."""
    run_dir = str(run_dir)
    if workload is ORACLE:
        z = workload.sizes(scale)
        return [["oracle-verify", "--pairs", str(z.pairs), "--resolution", str(z.grid),
                 "--seed", str(seed), "--tolerance", repr(ORACLE_TOLERANCE),
                 "--out", run_dir]]
    train = ["train", "--config", str(ini), "--seed", str(seed), "--out", run_dir]
    if workload is SYNTH2D:
        return [train]
    return [train, ["adversarial",
                    "--model-a", f"{run_dir}/checkpoints/model_round_00.bin",
                    "--model-b", f"{run_dir}/model_final.bin",
                    "--config", str(ini), "--out", f"{run_dir}/adversarial"]]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def deterministic_outputs(workload, run_dir):
    """{relative path: sha256} of the files two same-seed repetitions must
    reproduce bitwise."""
    names = (["oracle_verify.csv"] if workload is ORACLE
             else ["metrics.csv", "model_final.bin"])
    if workload is MNIST:
        names.append("adversarial/fooling.csv")
    run_dir = Path(run_dir)
    return {n: hashlib.sha256((run_dir / n).read_bytes()).hexdigest()
            for n in names if (run_dir / n).is_file()}


def compare_digests(reference, digests):
    """Failures unless a repetition reproduced the reference bitwise."""
    changed = sorted(k for k in set(reference) | set(digests)
                     if reference.get(k) != digests.get(k))
    return [f"same-seed outputs differ bitwise: {changed}"] if changed else []


def _finite_cell(cell):
    try:
        return math.isfinite(float(cell))
    except (TypeError, ValueError):
        return False


def check_metrics_csv(path, rounds, per_round, required):
    """One row per round 0..rounds, store_size = round * per_round, and a
    finite number in every `required` column."""
    failures = []
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"metrics.csv unreadable: {exc}"]
    if [r.get("round") for r in rows] != [str(t) for t in range(rounds + 1)]:
        failures.append(f"metrics.csv rounds {[r.get('round') for r in rows]}, "
                        f"expected 0..{rounds}")
    for r in rows:
        try:
            expected = int(r["round"]) * per_round
        except (KeyError, TypeError, ValueError):
            continue  # reported by the round check above
        if r.get("store_size") != str(expected):
            failures.append(f"round {r['round']}: store_size {r.get('store_size')}, "
                            f"expected {expected}")
        for col in required:
            if not _finite_cell(r.get(col) or ""):
                failures.append(f"round {r.get('round')}: {col} {r.get(col)!r} not finite")
    return failures


def check_oracle(stdout, csv_path, pairs):
    """PASS printed, one finite gap per pair, every gap under the tolerance."""
    failures = []
    if not re.search(r"-> PASS\s*$", stdout):
        failures.append(f"oracle-verify did not print PASS: {stdout.strip()!r}")
    try:
        with open(csv_path, newline="") as fh:
            gaps = [row.get("identity_gap") for row in csv.DictReader(fh)]
    except OSError as exc:
        return failures + [f"oracle_verify.csv unreadable: {exc}"]
    if len(gaps) != pairs:
        failures.append(f"{len(gaps)} identity gaps, expected {pairs}")
    bad = [g for g in gaps if not _finite_cell(g) or not float(g) < ORACLE_TOLERANCE]
    if bad:
        failures.append(f"identity gaps not below {ORACLE_TOLERANCE:g}: {bad[:3]}")
    return failures


def check_fooling(csv_path):
    """Both directions present with 0 <= cross <= adversarial <= eligible
    and at least one eligible input."""
    failures = []
    try:
        with open(csv_path, newline="") as fh:
            rows = {row.get("direction"): row for row in csv.DictReader(fh)}
    except OSError as exc:
        return [f"fooling.csv unreadable: {exc}"]
    for direction in ("a_to_b", "b_to_a"):
        row = rows.get(direction)
        if row is None:
            failures.append(f"fooling.csv lacks {direction}")
            continue
        try:
            elig, adv, cross = (int(row[k]) for k in ("eligible", "adversarial", "cross_fool"))
        except (KeyError, ValueError):
            failures.append(f"{direction}: malformed counts {row}")
            continue
        if not 0 <= cross <= adv <= elig or elig == 0:
            failures.append(f"{direction}: nesting violated (cross {cross}, "
                            f"adversarial {adv}, eligible {elig})")
        if not _finite_cell(row.get("epsilon") or ""):
            failures.append(f"{direction}: epsilon {row.get('epsilon')!r} not finite")
    return failures


def check_outputs(workload, run_dir, stdouts, scale="full"):
    """Every output check of one repetition whose commands all exited 0."""
    z = workload.sizes(scale)
    run_dir = Path(run_dir)
    if workload is ORACLE:
        return check_oracle(stdouts[0], run_dir / "oracle_verify.csv", z.pairs)
    if workload is SYNTH2D:
        return check_metrics_csv(run_dir / "metrics.csv", z.rounds, z.pseudo,
                                 ("train_loss", "val_error", "test_error", "kl_to_positive"))
    return (check_metrics_csv(run_dir / "metrics.csv", z.rounds, z.pseudo * MNIST_CLASSES,
                              ("train_loss", "test_error"))
            + check_fooling(run_dir / "adversarial" / "fooling.csv"))


def check_metrics_finite(values):
    """Every number the benchmark reports must be finite."""
    return [f"metric {name} = {v!r} is not finite"
            for name, v in values.items() if not math.isfinite(v)]
