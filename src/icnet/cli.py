"""Experiment orchestration: config parsing, the train/oracle-verify/
adversarial/report subcommands, metrics CSV emission, and PGM image dumps.

Run directories are reproducible: metrics.csv is bitwise-identical across
reruns of the same config and seed. Wall-clock timings therefore live in a
separate timing.csv; the wall_time column of metrics.csv stays empty.
"""

import argparse
import configparser
import csv
import hashlib
import os
import sys
import time
import traceback
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import data as D
from . import network as N
from . import oracle as O
from . import robustness as R
from . import sampler as S
from . import tensor as T
from . import trainer as TR
from .seeding import STREAM_DATA, STREAM_ORACLE, rng

TASKS = ("synthetic2d", "mnist-subset", "mnist-full")
MODES = ("binary", "one-vs-all", "softmax", "icn-noise", "baseline")


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# network specs per task
# ---------------------------------------------------------------------------

SYNTH_NET = [T.dense(2, 16), T.leaky(), T.dense(16, 16), T.leaky()]

MNIST_NET = [T.conv(1, 64), T.leaky(), T.conv(64, 128), T.leaky(),
             T.conv(128, 256), T.leaky(), T.conv(256, 512), T.leaky(),
             T.flatten()]


# ---------------------------------------------------------------------------
# experiment config
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    mode: str
    out: str
    seed: int = 0
    n_positive: int = 40
    n_negative: int = 12
    test_positive: int = 400
    test_negative: int = 400
    subset_size: int = 500
    test_subset: int = 2000
    mnist_dir: str = ""
    grid_resolution: int = 128
    train: TR.TrainConfig = None
    sampler: S.SamplerConfig = None

    def __post_init__(self):
        if self.task not in TASKS:
            raise CliError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.mode not in MODES:
            raise CliError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.task != "synthetic2d" and self.mode == "binary":
            raise CliError("binary mode applies to the synthetic2d task only")
        # numpy seeds are nonnegative; every mode trains on both synthetic
        # classes; the grid oracle needs 2 cells per axis
        for key, low in (("seed", 0), ("n_positive", 1), ("n_negative", 1),
                         ("test_positive", 0), ("test_negative", 0), ("subset_size", 1),
                         ("test_subset", 0), ("grid_resolution", 2)):
            if getattr(self, key) < low:
                raise CliError(f"experiment.{key} must be at least {low}, "
                               f"got {getattr(self, key)}")
        if self.test_positive + self.test_negative < 1:
            raise CliError("experiment.test_positive + test_negative must be at least 1")
        # a binary inner model on synthetic2d has each round's p_t- computed on the exact grid
        if self.sampler and self.sampler.reference_sigma <= 0 and _inner_mode(self) == "binary":
            raise CliError("sampler.reference_sigma must be above 0 for the grid oracle of "
                           f"synthetic2d mode {self.mode}, got {self.sampler.reference_sigma}")
        # every round synthesizes, except in baseline, which trains no round
        if (self.train and self.train.rounds and self.mode != "baseline"
                and self.train.pseudo_per_round < 1):
            raise CliError(f"train.pseudo_per_round must be at least 1 for mode {self.mode} "
                           f"with rounds = {self.train.rounds}, got {self.train.pseudo_per_round}")


# Each section's ini keys are its config's fields, in field order, less those
# set another way: the sub-configs, TrainConfig.seed ([experiment] sets it)
# and SamplerConfig.clamp (it follows from the task).
_INI_FIELDS = {
    section: [f for f in fields(cls) if f.name not in skipped]
    for section, cls, skipped in (("experiment", ExperimentConfig, ("train", "sampler")),
                                  ("train", TR.TrainConfig, ("seed",)),
                                  ("sampler", S.SamplerConfig, ("clamp",)))}


def _cast(annotation, raw):
    """One ini value as a field of type `annotation`; ValueError if it is not
    one. `int | None` reads an empty value or the snapshot's `None` as unset."""
    if annotation == int | None:
        return None if raw in ("", "None") else int(raw)
    return annotation(raw)


def _cast_section(cp, section):
    """The section's values, each cast by its config field's annotation."""
    types = {f.name: f.type for f in _INI_FIELDS[section]}
    values = {}
    if not cp.has_section(section):
        return values
    for key, raw in cp.items(section):
        if key not in types:
            raise CliError(f"unknown key {key!r} in section [{section}]")
        try:
            values[key] = _cast(types[key], raw)
        except ValueError as exc:
            raise CliError(f"bad value for {section}.{key}: {raw!r}") from exc
    return values


def parse_config(path, seed_override=None, out_override=None):
    """Parse the line-oriented `key = value` config with [experiment],
    [train], and [sampler] sections into an ExperimentConfig. Every error
    but a missing file names the file."""
    path = Path(path)
    if not path.is_file():
        raise CliError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(path.read_text())
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise CliError(f"config parse error in {path}: {exc}") from exc
    try:
        for section in cp.sections():
            if section not in _INI_FIELDS:
                raise CliError(f"unknown section [{section}]")
        if not cp.has_section("experiment"):
            raise CliError("config must have an [experiment] section")
        exp = _cast_section(cp, "experiment")
        for required in ("task", "mode", "out"):
            if required not in exp:
                raise CliError(f"experiment.{required} is required")
        if seed_override is not None:
            exp["seed"] = seed_override
        if out_override is not None:
            exp["out"] = out_override

        batch_default = 32 if exp["task"] == "synthetic2d" else 64
        train = replace(TR.TrainConfig(batch_size=batch_default, seed=exp.get("seed", 0)),
                        **_cast_section(cp, "train"))
        sampler = replace(S.SamplerConfig(), **_cast_section(cp, "sampler"))
        if exp["task"] != "synthetic2d":
            # synthesized pixels must stay inside the normalized image range
            sampler = replace(sampler, clamp=(-1.0, 1.0))
        return ExperimentConfig(train=train, sampler=sampler, **exp)
    except (CliError, TR.TrainerError, S.SamplerError) as exc:
        raise CliError(f"{path}: {exc}") from exc


def config_snapshot_text(config):
    """Normalized, fully explicit config rendering; stable across reruns."""
    lines = []
    for section, values in (("experiment", config), ("train", config.train),
                            ("sampler", config.sampler)):
        lines.append(f"[{section}]")
        lines += [f"{f.name} = {getattr(values, f.name)}" for f in _INI_FIELDS[section]]
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# metrics CSV
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricsRow:
    """One metrics.csv row; its fields are the file's columns, in order."""
    round: int
    train_loss: float = None
    val_error: float = None
    test_error: float = None
    store_size: int = 0
    kl_to_positive: float = None
    wall_time: float = None

    def cells(self):
        """The row's cells, in field order: counts as written, the rest by
        `format_float`. bench/test_bench.py edits these lines by their text."""
        r = self
        return [str(r.round), format_float(r.train_loss),
                format_float(r.val_error), format_float(r.test_error),
                str(r.store_size), format_float(r.kl_to_positive),
                format_float(r.wall_time)]


METRICS_HEADER = tuple(f.name for f in fields(MetricsRow))


def format_float(x):
    """Nine significant digits; empty cell for missing values."""
    if x is None or (isinstance(x, float) and not np.isfinite(x)):
        return ""
    return "%.9g" % x


def write_csv(path, header, rows):
    """A CSV table with CRLF line ends: the format of every table a command
    writes."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def emit_metrics(rows, path):
    write_csv(path, METRICS_HEADER, (r.cells() for r in rows))


def parse_metrics(path):
    """The rows of a metrics.csv; a malformed file, a cell that is not a
    number or bytes that are not UTF-8 raise CliError naming the file."""
    cast = lambda f, s: int(s) if f.type is int else None if s == "" else float(s)
    with open(path, "r", newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader, None)
            if header is None:
                raise CliError(f"{path}: empty metrics file")
            if tuple(header) != METRICS_HEADER:
                raise CliError(f"{path}: unexpected header {tuple(header)}")
            rows = []
            for cells in reader:
                if len(cells) != len(METRICS_HEADER):
                    raise CliError(f"{path}: bad row {cells}")
                rows.append(MetricsRow(*map(cast, fields(MetricsRow), cells)))
        except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
            raise CliError(f"{path}: malformed metrics file: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# PGM image dumps
# ---------------------------------------------------------------------------

def write_pgm(gray, path):
    """A 2-D uint8 array as binary PGM (P5), maxval 255."""
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


def dump_images(samples, path):
    """Tile (n, 1, h, w) samples into a grayscale grid and write it as binary PGM.

    Values are mapped back to [0, 255] by `data.denormalize`, clamped, and
    rounded half-up (so a normalized all-zero image lands on 128).
    """
    vals = np.clip(D.denormalize(samples[:, 0]), 0.0, 255.0)
    pixels = np.clip(np.floor(vals + 0.5), 0, 255).astype(np.uint8)
    n, h, w = pixels.shape
    cols = int(np.ceil(np.sqrt(n)))
    rows = int(np.ceil(n / cols))
    canvas = np.zeros((rows * h, cols * w), dtype=np.uint8)
    for i in range(n):
        r, c = divmod(i, cols)
        canvas[r * h:(r + 1) * h, c * w:(c + 1) * w] = pixels[i]
    write_pgm(canvas, path)


# ---------------------------------------------------------------------------
# run directory artifacts
# ---------------------------------------------------------------------------

def write_manifest(out_dir, config, input_files):
    """The seed and the sha256 of the config and each input file, then numpy's
    version, the BLAS it was built with and the BLAS thread variables as set."""
    lines = [f"seed = {config.seed}"]
    for p in [out_dir / "config.ini", *map(Path, input_files)]:
        lines.append(f"sha256 {hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}")
    try:  # numpy < 1.26 reports no build dict
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    lines += [f"numpy = {np.__version__}", f"blas = {blas}"] + [
        f"{v} = {os.environ.get(v, 'unset')}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
    (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# experiment driver
# ---------------------------------------------------------------------------

def _image_set(config, split, size_key):
    """The normalized "train" or "test" IDX set, on mnist-subset drawn to the
    size `size_key` names (0 keeps it whole), and its two input files."""
    root = Path(config.mnist_dir) if config.mnist_dir else D.default_mnist_dir()
    files = D.mnist_files(root, split)
    ds = D.load_idx(*files)
    if split == "test" and not len(ds):
        raise D.DataError(f"{files[0]}: no test images")
    size = getattr(config, size_key)
    # subsets the raw pixels, so only the rows kept are made float64
    if config.task == "mnist-subset" and size:
        if size > len(ds):
            raise CliError(f"experiment.{size_key} = {size} exceeds the {len(ds)} "
                           f"samples of {files[0]}")
        ds = D.stratified_subset(ds, size, config.seed)
    return D.normalize(ds), files


def _load_test_set(config):
    """The test set a run scores and `adversarial` attacks, and its input files."""
    if config.task == "synthetic2d":
        spec = D.default_benchmark_spec(config.test_positive, config.test_negative)
        return D.gen_synthetic_2d(spec, rng(config.seed, STREAM_DATA, 1)), []
    return _image_set(config, "test", "test_subset")


def _load_task_data(config):
    """Returns (train_ds, test_ds, p_plus_density_or_None, input_files)."""
    if config.task == "synthetic2d":
        spec = D.default_benchmark_spec(config.n_positive, config.n_negative)
        train_ds = D.gen_synthetic_2d(spec, rng(config.seed, STREAM_DATA))
        return train_ds, _load_test_set(config)[0], D.positive_density(spec), []
    train_ds, train_files = _image_set(config, "train", "subset_size")
    test_ds, test_files = _load_test_set(config)
    return train_ds, test_ds, None, train_files + test_files


def _inner_mode(config):
    """The trainer a run uses: "binary", "multiclass" or "one-vs-all".
    Image tasks are multi-class."""
    if config.mode == "one-vs-all":
        return "one-vs-all"
    if config.task == "synthetic2d" and config.mode != "softmax":
        return "binary"
    return "multiclass"


def _test_error(model, test_ds):
    """The test error, in a function of its own so bench/worker.py can time it."""
    return TR.error_rate(model, test_ds.samples, test_ds.labels)


def _run_experiment_inner(config, out_dir):
    """Trains and writes each round's artifacts as the round ends: metrics
    row, model and store checkpoints, heatmap or images, and a progress
    line on stderr. A failure mid-run keeps every finished round."""
    timings = [("setup", time.perf_counter())]
    train_ds, test_ds, p_plus, input_files = _load_task_data(config)
    write_manifest(out_dir, config, input_files)

    timings.append(("train", time.perf_counter()))
    ckpt_dir = out_dir / "checkpoints"
    ckpt_dir.mkdir(exist_ok=True)
    inner_mode = _inner_mode(config)
    synthetic_binary = inner_mode == "binary"  # the grid oracle runs
    if synthetic_binary:
        res = (config.grid_resolution, config.grid_resolution)
        prior = O.reference_grid(config.sampler.reference_sigma, resolution=res)
        pos_grid = O.build_grid(O.DEFAULT_BOUNDS, res, p_plus.log_pdf)
        heat_dir = out_dir / "heatmaps"
        heat_dir.mkdir(exist_ok=True)
    image_task = config.task != "synthetic2d"
    if image_task:
        img_dir = out_dir / "images"
        img_dir.mkdir(exist_ok=True)

    rows = []
    started = timings[-1][1]

    def on_round(m, model_t, store_t):
        t = m.round
        kl = None
        if synthetic_binary:
            p_t, _ = O.density_update(prior, model_t)
            kl = O.kl_divergence(pos_grid, p_t)
            if t >= 1:
                write_pgm(O.heatmap_gray(p_t), heat_dir / f"heatmap_round_{t:02d}.pgm")
        row = MetricsRow(round=t, train_loss=m.train_loss, val_error=m.val_error,
                         test_error=_test_error(model_t, test_ds),
                         store_size=m.store_size, kl_to_positive=kl)
        N.save_model(ckpt_dir / f"model_round_{t:02d}.bin", model_t)
        # this round's rows only: the whole store is store_final.bin
        made = store_t.rounds == t
        round_store = D.PseudoNegativeStore(store_t.samples[made], store_t.rounds[made],
                                            store_t.tags[made])
        D.save_store(round_store, ckpt_dir / f"store_round_{t:02d}.bin")
        if image_task and t >= 1:
            dump_images(round_store.samples[:64], img_dir / f"pseudo_round_{t:02d}.pgm")
        rows.append(row)
        emit_metrics(rows, out_dir / "metrics.csv")
        stops, bad = m.stop_reasons, m.stop_reasons[S.STOP_NON_FINITE]
        shown = ", ".join(f"{reason} {stops[reason]}" for reason in sorted(stops))
        print(f"round {t}: train_loss {format_float(row.train_loss)}  "
              f"test_error {format_float(row.test_error)}  store_size {row.store_size}  "
              + (f"stops {shown}  " if shown else "")
              + f"elapsed {time.perf_counter() - started:.1f} s", file=sys.stderr)
        if 2 * bad > stops.total():
            print(f"warning: round {t}: {bad} of {stops.total()} chains ended "
                  f"{S.STOP_NON_FINITE}", file=sys.stderr)

    # baseline trains no round; icn-noise's chains take no step, so its
    # pseudo-negatives are the chains' reference draws
    train, sampler = config.train, config.sampler
    if config.mode == "baseline":
        train = replace(train, rounds=0)
    if config.mode == "icn-noise":
        sampler = replace(sampler, stopping="option3", fixed_steps=0)
    spec = SYNTH_NET if config.task == "synthetic2d" else MNIST_NET
    result = TR.run_reclassification_by_synthesis(train_ds, spec, train, sampler, inner_mode,
                                                  on_round=on_round)

    timings.append(("artifacts", time.perf_counter()))
    N.save_model(out_dir / "model_final.bin", result.selected)
    D.save_store(result.store, out_dir / "store_final.bin")

    timings.append(("done", time.perf_counter()))
    write_csv(out_dir / "timing.csv", ("phase", "seconds"),
              [(name, "%.3f" % (end - start))
               for (name, start), (_, end) in zip(timings, timings[1:])])
    return 0


def run_experiment(config):
    """Run one experiment into a directory that holds no run yet; returns a process
    exit status. A mid-run failure leaves partial artifacts plus an error.txt record."""
    out_dir = Path(config.out)
    if (out_dir / "config.ini").exists():
        raise CliError(f"{out_dir} already holds a run (config.ini); choose another --out")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.ini").write_text(config_snapshot_text(config))
    try:
        return _run_experiment_inner(config, out_dir)
    except Exception as exc:
        (out_dir / "error.txt").write_text(
            f"{type(exc).__name__}: {exc}\n\n{traceback.format_exc()}")
        print(f"error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args):
    config = parse_config(args.config, seed_override=args.seed,
                          out_override=args.out)
    return run_experiment(config)


def cmd_oracle_verify(args):
    """Check the round-ratio identity for random classifier pairs on the
    exact grid; the gap must sit at numerical-noise level."""
    for flag, low in (("pairs", 1), ("resolution", 2), ("seed", 0)):
        if getattr(args, flag) < low:
            raise CliError(f"--{flag} must be at least {low}, got {getattr(args, flag)}")
    if not 0 < args.tolerance < np.inf:  # NaN too
        raise CliError(f"--tolerance must be finite and above 0, got {args.tolerance}")
    res = (args.resolution, args.resolution)
    prior = O.reference_grid(resolution=res)
    p_plus_density = D.positive_density(D.default_benchmark_spec())
    p_plus = O.build_grid(O.DEFAULT_BOUNDS, res, p_plus_density.log_pdf)
    gaps = []
    for i in range(args.pairs):
        c_t = N.init_binary(SYNTH_NET, (2,), rng(args.seed, STREAM_ORACLE, i, 0))
        c_next = N.init_binary(SYNTH_NET, (2,), rng(args.seed, STREAM_ORACLE, i, 1))
        left, right = O.update_identity_sides(p_plus, prior, c_t, c_next)
        gaps.append(abs(left - right))
    worst = max(gaps)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "oracle_verify.csv", ("pair", "identity_gap"),
                  [(i, "%.9g" % gap) for i, gap in enumerate(gaps)])
    ok = worst < args.tolerance
    print(f"oracle-verify: {args.pairs} pairs on a {args.resolution}x"
          f"{args.resolution} grid, max identity gap {worst:.3e} "
          f"(tolerance {args.tolerance:g}) -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_adversarial(args):
    model_a = N.load_model(args.model_a)
    model_b = N.load_model(args.model_b)
    config = parse_config(args.config)
    test_ds, _ = _load_test_set(config)
    shape = test_ds.samples.shape[1:]
    top = int(test_ds.labels.max(initial=0))
    for path, model in ((args.model_a, model_a), (args.model_b, model_b)):
        if isinstance(model, N.OneVsAllEnsemble):
            raise CliError(f"{path}: a one-vs-all ensemble has no FGSM loss; "
                           "adversarial takes binary or softmax models")
        try:
            fits = T.feature_width(model.spec, shape) == model.width
        except T.ShapeMismatchError:
            fits = False
        if not fits or top >= max(model.n_classes, 2):
            raise CliError(f"{path}: does not fit the config's test set: samples of "
                           f"shape {shape}, labels up to {top}")
    # the run's own input box: none on synthetic2d, the pixel range on images
    ab, ba = R.two_way_fool_experiment(model_a, model_b, test_ds, args.eps,
                                       config.sampler.clamp)
    path_a, path_b = Path(args.model_a), Path(args.model_b)
    name_a, name_b = path_a.stem, path_b.stem
    if name_a == name_b:
        # run directories disambiguate the usual model_final.bin pairs
        name_a = f"{path_a.parent.name}/{name_a}"
        name_b = f"{path_b.parent.name}/{name_b}"
    text = R.summarize_two_way(ab, ba, name_a, name_b)
    print(text)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_csv(out_dir / "fooling.csv",
                  ("direction", "eligible", "adversarial", "cross_fool", "epsilon"),
                  [(name, rep.eligible_count, rep.adversarial_count, rep.cross_fool_count,
                    "%.9g" % rep.epsilon) for name, rep in (("a_to_b", ab), ("b_to_a", ba))])
        (out_dir / "fooling_summary.txt").write_text(text + "\n")
    return 0


def cmd_report(args):
    run_dir = Path(args.run)
    metrics_path = run_dir / "metrics.csv"
    if not metrics_path.is_file():
        raise CliError(f"no metrics.csv under {run_dir}")
    rows = parse_metrics(metrics_path)
    # every column but wall_time, which metrics.csv leaves empty
    table = [METRICS_HEADER[:-1]] + [r.cells()[:-1] for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="icnet",
        description="Introspective convolutional net experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run a training experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
    p_train.add_argument("--out", default=None,
                         help="override the config output directory")
    p_train.set_defaults(fn=cmd_train)

    p_oracle = sub.add_parser("oracle-verify",
                              help="check the grid-density update identity")
    p_oracle.add_argument("--pairs", type=int, default=20)
    p_oracle.add_argument("--resolution", type=int, default=128)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--tolerance", type=float, default=1e-9)
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(fn=cmd_oracle_verify)

    p_adv = sub.add_parser("adversarial",
                           help="two-way cross-model fooling experiment")
    p_adv.add_argument("--model-a", required=True)
    p_adv.add_argument("--model-b", required=True)
    p_adv.add_argument("--config", required=True,
                       help="experiment config naming the task/test set")
    p_adv.add_argument("--eps", type=float, default=R.DEFAULT_EPSILON)
    p_adv.add_argument("--out", default=None)
    p_adv.set_defaults(fn=cmd_adversarial)

    p_report = sub.add_parser("report", help="print a run's metrics table")
    p_report.add_argument("--run", required=True)
    p_report.set_defaults(fn=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an op whose output overflows raises a TensorError and a file that
        # cannot be opened or made an OSError, each reported below in one
        # line; numpy's warnings would only precede it
        with np.errstate(over="ignore", invalid="ignore"):
            return args.fn(args)
    except (CliError, D.DataError, N.ModelFormatError, R.RobustnessError, T.TensorError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
