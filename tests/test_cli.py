"""Config grammar, CSV/PGM format contracts, and end-to-end run artifacts."""

import gzip
import hashlib
import inspect
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from icnet import cli as C
from icnet import data as D
from icnet import network as N
from icnet import robustness as R
from icnet import sampler as S
from icnet import tensor as T
from icnet import trainer as TR
from icnet.seeding import STREAM_SYNTH, rng

from helpers import read_pgm


def config_text(out, task="synthetic2d", mode="binary", seed=0, rounds=3,
                pseudo=4, extra_experiment="", extra_train=""):
    return f"""\
[experiment]
task = {task}
mode = {mode}
out = {out}
seed = {seed}
n_positive = 16
n_negative = 12
test_positive = 40
test_negative = 40
grid_resolution = 48
{extra_experiment}

[train]
rounds = {rounds}
pseudo_per_round = {pseudo}
init_epochs = 6
epochs_per_round = 2
val_fraction = 0.25
patience = 99
{extra_train}

[sampler]
stopping = option3
fixed_steps = 5
max_steps = 10
"""


def write_config(tmp_path, name="exp.ini", **kw):
    out = kw.pop("out", str(tmp_path / "run"))
    path = tmp_path / name
    path.write_text(config_text(out, **kw))
    return path


def zero_reference_sigma(path):
    path.write_text(path.read_text().replace("[sampler]\n", "[sampler]\nreference_sigma = 0\n"))


def write_idx_pair(root, prefix, images):
    """`prefix`-images and -labels IDX files of (n, 28, 28) uint8 images,
    labeled 0..9 in turn."""
    n = len(images)
    (root / f"{prefix}-images-idx3-ubyte").write_bytes(
        struct.pack(">IIII", 0x00000803, n, 28, 28) + images.tobytes())
    (root / f"{prefix}-labels-idx1-ubyte").write_bytes(
        struct.pack(">II", 0x00000801, n) + (np.arange(n) % 10).astype(np.uint8).tobytes())


def write_mnist_ini(tmp_path, n=20, **kw):
    """An mnist-subset softmax config over n seeded 28x28 images of the ten
    digits, written as the four MNIST files (big-endian IDX headers, then
    raw bytes), train and test alike; `kw` goes to `write_config`."""
    root = tmp_path / "mnist"
    root.mkdir()
    images = rng(60, 6).integers(0, 256, size=(n, 28, 28)).astype(np.uint8)
    for prefix in ("train", "t10k"):
        write_idx_pair(root, prefix, images)
    return write_config(tmp_path, name="mnist.ini", task="mnist-subset", mode="softmax",
                        extra_experiment=f"mnist_dir = {root}\nsubset_size = 10\ntest_subset = 10",
                        **kw)


class TestMetricsCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "metrics.csv"
        C.emit_metrics([], path)
        content = path.read_bytes()
        assert content == (",".join(C.METRICS_HEADER) + "\r\n").encode()

    def test_column_order_fixed(self):
        assert C.METRICS_HEADER == ("round", "train_loss", "val_error",
                                    "test_error", "store_size",
                                    "kl_to_positive", "wall_time")

    def test_nine_significant_digits(self):
        assert C.format_float(3.141592653589793) == "3.14159265"
        assert C.format_float(1.0 / 3.0) == "0.333333333"
        assert C.format_float(None) == ""
        assert C.format_float(float("nan")) == ""

    def test_roundtrip_is_bitwise_idempotent(self, tmp_path):
        rows = [
            C.MetricsRow(0, train_loss=1.0 / 3.0, val_error=0.25,
                         test_error=None, store_size=0,
                         kl_to_positive=2.718281828459045),
            C.MetricsRow(1, train_loss=None, val_error=None,
                         test_error=0.0625, store_size=50,
                         kl_to_positive=None),
        ]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        C.emit_metrics(rows, p1)
        C.emit_metrics(C.parse_metrics(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parse_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\r\n1,2\r\n")
        with pytest.raises(C.CliError, match="header"):
            C.parse_metrics(path)


class TestPgm:
    def test_header_format_exact(self, tmp_path):
        path = tmp_path / "t.pgm"
        C.write_pgm(np.arange(6, dtype=np.uint8).reshape(2, 3), path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n3 2\n255\n")
        assert data[len(b"P5\n3 2\n255\n"):] == bytes(range(6))

    def test_all_zero_sample_is_mid_gray_128(self, tmp_path):
        path = tmp_path / "zero.pgm"
        C.dump_images(np.zeros((1, 1, 4, 4)), path)
        img = read_pgm(path)
        assert img.shape == (4, 4)
        assert np.all(img == 128)

    def test_roundtrip_with_independent_reader(self, tmp_path):
        gen = np.random.default_rng(7)
        samples = gen.uniform(-1, 1, size=(5, 1, 4, 4))
        path = tmp_path / "grid.pgm"
        C.dump_images(samples, path)
        # independent parse: split the three header fields by hand
        raw = path.read_bytes()
        magic, dims, maxval, payload = raw.split(b"\n", 3)
        assert magic == b"P5" and maxval == b"255"
        w, h = map(int, dims.split())
        got = np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
        # recompute expected bytes: clamp, round half up, 3x2 grid of 4x4
        vals = np.clip((samples + 1.0) * 127.5, 0, 255)
        pix = np.clip(np.floor(vals + 0.5), 0, 255).astype(np.uint8)
        assert (h, w) == (2 * 4, 3 * 4)
        for i in range(5):
            r, c = divmod(i, 3)
            tile = got[r * 4:(r + 1) * 4, c * 4:(c + 1) * 4]
            assert np.array_equal(tile, pix[i, 0])
        assert np.all(got[4:8, 8:12] == 0)  # unfilled cell stays black


# one non-default legal value per ini key, in the config's field order
NON_DEFAULT = {
    "experiment": {"task": "mnist-full", "mode": "baseline", "out": "elsewhere", "seed": "5",
                   "n_positive": "7", "n_negative": "8", "test_positive": "9",
                   "test_negative": "10", "subset_size": "11", "test_subset": "12",
                   "mnist_dir": "digits", "grid_resolution": "16"},
    "train": {"rounds": "2", "pseudo_per_round": "3", "epochs_per_round": "4",
              "init_epochs": "6", "batch_size": "8", "learning_rate": "0.125",
              "lr_drop_round": "3", "momentum": "0.5", "alpha": "0.25",
              "val_fraction": "0.2", "patience": "5"},
    "sampler": {"method": "langevin", "stopping": "option1", "step_size": "0.5",
                "anneal": "0.5", "max_steps": "9", "confidence_threshold": "0.75",
                "fixed_steps": "3", "reference_sigma": "0.5"},
}


class TestParseConfig:
    def test_minimal_config_and_defaults(self, tmp_path):
        path = write_config(tmp_path)
        cfg = C.parse_config(path)
        assert cfg.task == "synthetic2d" and cfg.mode == "binary"
        assert cfg.train.rounds == 3
        assert cfg.train.batch_size == 32  # synthetic2d default
        assert cfg.train.seed == cfg.seed == 0
        assert cfg.sampler.stopping == "option3"

    def test_seed_and_out_overrides(self, tmp_path):
        path = write_config(tmp_path)
        cfg = C.parse_config(path, seed_override=9,
                             out_override=str(tmp_path / "other"))
        assert cfg.seed == 9 and cfg.train.seed == 9
        assert cfg.out.endswith("other")

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, extra_experiment="bogus = 1")
        with pytest.raises(C.CliError, match="bogus"):
            C.parse_config(path)

    def test_train_seed_key_rejected(self, tmp_path):
        path = write_config(tmp_path, extra_train="seed = 3")
        with pytest.raises(C.CliError, match="seed"):
            C.parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text(config_text(str(tmp_path / "r")) + "\n[mystery]\nk = v\n")
        with pytest.raises(C.CliError, match="mystery"):
            C.parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, rounds="many")
        with pytest.raises(C.CliError, match="rounds"):
            C.parse_config(path)

    @pytest.mark.parametrize("key, value", [
        ("grid_resolution", 0), ("grid_resolution", 1), ("test_positive", -3),
        ("test_negative", -1), ("n_positive", 0), ("n_negative", -1),
        ("subset_size", 0), ("test_subset", -1), ("seed", -1)])
    def test_out_of_range_size_rejected(self, tmp_path, key, value):
        with pytest.raises(C.CliError, match=f"experiment.{key} must be at least"):
            C.ExperimentConfig("synthetic2d", "binary", str(tmp_path), **{key: value})

    def test_empty_synthetic_test_set_rejected(self, tmp_path):
        with pytest.raises(C.CliError, match="test_positive \\+ test_negative"):
            C.ExperimentConfig("synthetic2d", "binary", str(tmp_path),
                               test_positive=0, test_negative=0)

    def test_sizes_checked_before_any_work(self, tmp_path):
        # before: the whole run trained, then the grid oracle failed
        path = write_config(tmp_path)
        path.write_text(path.read_text().replace("grid_resolution = 48", "grid_resolution = 0"))
        assert C.main(["train", "--config", str(path)]) == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, line, match", [
        ("sampler", "method = foo", "unknown method 'foo'"),
        # removed keys, which config.ini snapshots of older runs still carry
        ("sampler", "noise = false", "unknown key 'noise' in section"),
        ("train", "reinit_each_round = False", "unknown key 'reinit_each_round' in section"),
        ("train", "alpha = 2", "alpha must lie in"),
        ("train", "momentum = nan", "momentum must lie in"),
        ("train", "patience = 0", "patience must be at least 1"),
        ("train", "lr_drop_round = -3", "lr_drop_round must be at least 0"),
        ("train", "val_fraction = 1.5", "val_fraction must lie in"),
        ("train", "rounds = -1", "rounds and pseudo_per_round must be nonnegative"),
        ("experiment", "seed = -1", "experiment.seed must be at least 0"),
        ("experiment", "task = mnist", "unknown task 'mnist'"),
        ("experiment", "mode = gan", "unknown mode 'gan'"),
        ("experiment", "out", "experiment.out is required"),
        ("experiment", None, "config must have an \\[experiment\\] section")])
    def test_invalid_value_exits_1_naming_the_file(self, tmp_path, capsys, section, line, match):
        path = write_config(tmp_path)
        text = path.read_text()
        if line is None:  # the whole section goes
            text = re.sub(f"^\\[{section}\\]\n(.+\n)*", "", text, flags=re.M)
        else:
            # the line replaces the config's own value for its key, if it
            # has one; a bare key is only deleted
            text = re.sub(f"^{line.split(' = ')[0]} = .*\n", "", text, flags=re.M)
            if " = " in line:
                text = text.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
        path.write_text(text)
        with pytest.raises(C.CliError, match=f"^{re.escape(str(path))}: {match}"):
            C.parse_config(path)
        assert C.main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert re.match(f"error: {re.escape(str(path))}: {match}", err) and err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(C.CliError, match="not found"):
            C.parse_config(tmp_path / "nope.ini")

    def test_binary_mode_requires_synthetic_task(self, tmp_path):
        path = write_config(tmp_path, task="mnist-subset", mode="binary",
                            extra_experiment=f"mnist_dir = {tmp_path}")
        with pytest.raises(C.CliError, match="binary"):
            C.parse_config(path)

    @pytest.mark.parametrize("mode", ["binary", "icn-noise", "baseline"])
    def test_zero_reference_sigma_rejected_where_the_grid_oracle_runs(self, tmp_path, capsys,
                                                                       mode):
        # before: setup ran, numpy warned twice, and the run ended in
        # "grid carries no mass", naming no key
        path = write_config(tmp_path, mode=mode)
        zero_reference_sigma(path)
        assert C.main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: sampler.reference_sigma must be above 0")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mode", ["binary", "softmax", "one-vs-all", "icn-noise"])
    def test_zero_pseudo_per_round_rejected_where_rounds_synthesize(self, tmp_path, capsys,
                                                                    mode):
        # before: round 0 ran and wrote its artifacts, then round 1 ended in
        # "need at least one draw", naming no key
        path = write_config(tmp_path, mode=mode, pseudo=0)
        assert C.main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: train.pseudo_per_round must be at least 1")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("mode, rounds", [("baseline", 3), ("binary", 0)])
    def test_zero_pseudo_per_round_accepted_without_synthesis(self, tmp_path, mode, rounds):
        path = write_config(tmp_path, mode=mode, rounds=rounds, pseudo=0)
        assert C.parse_config(path).train.pseudo_per_round == 0

    @pytest.mark.parametrize("task, mode", [("synthetic2d", "softmax"),
                                            ("synthetic2d", "one-vs-all"),
                                            ("mnist-subset", "softmax")])
    def test_zero_reference_sigma_accepted_without_grid_oracle(self, tmp_path, task, mode):
        path = write_config(tmp_path, task=task, mode=mode,
                            extra_experiment=f"mnist_dir = {tmp_path}")
        zero_reference_sigma(path)
        assert C.parse_config(path).sampler.reference_sigma == 0.0

    def test_mnist_task_gets_pixel_clamp(self, tmp_path):
        path = write_config(tmp_path, task="mnist-subset", mode="softmax",
                            extra_experiment=f"mnist_dir = {tmp_path}")
        cfg = C.parse_config(path)
        assert cfg.sampler.clamp == (-1.0, 1.0)
        assert cfg.train.batch_size == 64

    def test_snapshot_text_stable(self, tmp_path):
        path = write_config(tmp_path)
        a = C.config_snapshot_text(C.parse_config(path))
        b = C.config_snapshot_text(C.parse_config(path))
        assert a == b and "[experiment]" in a

    @pytest.mark.parametrize("stopping", ["option2", "option3"])
    def test_snapshot_round_trips(self, tmp_path, stopping):
        sampler = "" if stopping == "option2" else "stopping = option3\nfixed_steps = 7\n"
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\ntask = synthetic2d\nmode = binary\n"
                        f"out = {tmp_path / 'run'}\n\n[sampler]\n{sampler}")
        cfg = C.parse_config(path)
        assert cfg.sampler.fixed_steps == (None if stopping == "option2" else 7)
        snap = tmp_path / "config.ini"
        snap.write_text(C.config_snapshot_text(cfg))
        assert C.parse_config(snap) == cfg

    def test_readme_config_blocks_parse(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
        assert blocks
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.ini"
            path.write_text(block)
            C.parse_config(path)

    @staticmethod
    def readme_snippet(marker):
        """The one README timing recipe whose text holds `marker`."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        (snippet,) = [s for s in re.findall(r"python3 - <<'PY'\n(.*?)\nPY\n", readme, re.S)
                      if marker in s]
        return snippet

    def test_readme_sgd_step_snippet_runs(self, capsys):
        # the README's timing recipe, run once at batch 2 so it cannot rot
        snippet = self.readme_snippet("batch = 64\n")
        exec(snippet.replace("batch = 64\n", "batch = 2\n"), {})
        assert "SGD step at batch 2: median" in capsys.readouterr().out

    def test_readme_sampler_step_snippet_runs(self, capsys):
        # the sampler timing recipe, at 2 chains x 3 steps
        snippet = self.readme_snippet("chains, steps = 50, 200\n")
        exec(snippet.replace("chains, steps = 50, 200\n", "chains, steps = 2, 3\n"), {})
        assert "sampler call of 2 chains x 3 steps: median" in capsys.readouterr().out

    def test_schema_is_the_config_fields(self):
        # adding a config field means adding its non-default value below
        assert {s: list(keys) for s, keys in NON_DEFAULT.items()} == {
            s: [f.name for f in fields] for s, fields in C._INI_FIELDS.items()}
        assert sum(map(len, NON_DEFAULT.values())) == 31

    @staticmethod
    def sections(tmp_path):
        """The smallest ini's {section: {key: value}}: a 2D softmax run."""
        return {"experiment": {"task": "synthetic2d", "mode": "softmax",
                               "out": str(tmp_path / "run")}, "train": {}, "sampler": {}}

    @staticmethod
    def write_sections(path, sections):
        path.write_text("".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in kv.items())
                                for s, kv in sections.items()))
        return path

    @classmethod
    def parse_sections(cls, path, sections):
        return C.parse_config(cls.write_sections(path, sections))

    @pytest.mark.parametrize("section, key", [(s, k) for s, keys in NON_DEFAULT.items()
                                              for k in keys])
    def test_every_key_round_trips(self, tmp_path, section, key):
        sections = self.sections(tmp_path)

        def parse(name):
            cfg = self.parse_sections(tmp_path / name, sections)
            return cfg, (cfg if section == "experiment" else getattr(cfg, section))

        _, default = parse("default.ini")
        sections[section][key] = NON_DEFAULT[section][key]
        cfg, values = parse("edited.ini")
        assert getattr(values, key) != getattr(default, key)
        snap = tmp_path / "config.ini"
        snap.write_text(C.config_snapshot_text(cfg))
        assert C.parse_config(snap) == cfg

    @pytest.mark.parametrize("section, key", [(s, f.name) for s, keys in C._INI_FIELDS.items()
                                              for f in keys])
    def test_fuzzed_value_parses_back_or_is_rejected(self, tmp_path, section, key):
        # every value either makes a config whose snapshot parses back to
        # it or raises CliError; nothing trains, so no huge value runs
        for value in ("0", "-1", "1", str(2 ** 31), "1e308", "nan", "inf", "-inf", "", "word"):
            sections = self.sections(tmp_path)
            sections[section][key] = value
            try:
                cfg = self.parse_sections(tmp_path / "fuzz.ini", sections)
            except C.CliError:
                continue
            snap = tmp_path / "config.ini"
            snap.write_text(C.config_snapshot_text(cfg))
            assert C.parse_config(snap) == cfg, value

    @pytest.mark.parametrize("section, key", [(s, f.name) for s, keys in C._INI_FIELDS.items()
                                              for f in keys if f.name != "out"])
    def test_fuzzed_value_runs_or_fails_in_one_line(self, tmp_path, capsys, section, key):
        # the same values through `icnet train` on a tiny run, in every
        # mode: each exits 0, or 1 with one `error:` line, and none warns;
        # a run that fails midway records an exception of the program's own
        # (2**31 and 1e308 stay parse-only: no huge value runs)
        own = {name for module, m in sys.modules.items() if module.startswith("icnet")
               for name, obj in vars(m).items()
               if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == module}
        out, path, failures = tmp_path / "run", tmp_path / "fuzz.ini", []
        for mode in C.MODES:
            for value in ("0", "-1", "1", "2", "0.5", "0.99", "nan", "inf", "-inf", "", "word"):
                sections = {
                    "experiment": {"task": "synthetic2d", "mode": mode, "out": out,
                                   "n_positive": 3, "n_negative": 3, "test_positive": 3,
                                   "test_negative": 3, "grid_resolution": 4},
                    "train": {"rounds": 1, "pseudo_per_round": 2}, "sampler": {"max_steps": 2}}
                sections[section][key] = value
                self.write_sections(path, sections)
                shutil.rmtree(out, ignore_errors=True)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    status = C.main(["train", "--config", str(path)])
                err = capsys.readouterr().err
                errors = [line for line in err.splitlines() if line.startswith("error:")]
                record = out / "error.txt"
                raised = record.read_text().split(":")[0] if record.exists() else None
                if ((status, len(errors)) not in ((0, 0), (1, 1)) or caught
                        or raised not in own | {None}):
                    failures.append((mode, value, status, errors, raised,
                                     [str(w.message) for w in caught]))
        assert failures == []

    @pytest.mark.parametrize("raw", ["", "None"])
    def test_unset_fixed_steps(self, tmp_path, raw):
        path = tmp_path / "exp.ini"
        path.write_text(f"[experiment]\ntask = synthetic2d\nmode = binary\n"
                        f"out = {tmp_path / 'run'}\n\n[sampler]\n"
                        f"fixed_steps = {raw}  # required for option3\n")
        assert C.parse_config(path).sampler.fixed_steps is None


class TestRunExperiment:
    def test_baseline_has_exactly_one_row(self, tmp_path):
        out = tmp_path / "run"
        cfg = C.parse_config(write_config(tmp_path, mode="baseline"))
        assert C.run_experiment(cfg) == 0
        rows = C.parse_metrics(out / "metrics.csv")
        assert len(rows) == 1 and rows[0].round == 0
        assert rows[0].store_size == 0
        assert rows[0].kl_to_positive is not None  # synthetic task fills KL
        assert rows[0].wall_time is None  # timings live in timing.csv
        assert (out / "model_final.bin").is_file()
        assert (out / "timing.csv").is_file()
        assert not list((out / "heatmaps").glob("*.pgm"))

    @pytest.mark.parametrize("mode, trainer_mode", [
        ("binary", "binary"), ("softmax", "multiclass"), ("one-vs-all", "one-vs-all"),
        ("icn-noise", "binary"), ("baseline", "binary")])
    def test_every_mode_trains_through_one_entry_call(self, tmp_path, monkeypatch,
                                                      mode, trainer_mode):
        # the one training entry point; its first call also ends the
        # benchmark's set-up phase
        real = TR.run_reclassification_by_synthesis
        modes = []

        def spy(*args, **kwargs):
            bound = inspect.signature(real).bind(*args, **kwargs)
            bound.apply_defaults()
            modes.append(bound.arguments["mode"])
            return real(*args, **kwargs)

        monkeypatch.setattr(TR, "run_reclassification_by_synthesis", spy)
        cfg = C.parse_config(write_config(tmp_path, mode=mode, rounds=1))
        assert C.run_experiment(cfg) == 0
        assert modes == [trainer_mode]

    def test_icn_run_artifacts_and_counts(self, tmp_path):
        out = tmp_path / "run"
        cfg = C.parse_config(write_config(tmp_path, rounds=3, pseudo=4))
        assert C.run_experiment(cfg) == 0
        rows = C.parse_metrics(out / "metrics.csv")
        assert len(rows) == 4
        assert [r.store_size for r in rows] == [0, 4, 8, 12]
        heatmaps = sorted((out / "heatmaps").glob("heatmap_round_*.pgm"))
        assert [p.name for p in heatmaps] == [
            "heatmap_round_01.pgm", "heatmap_round_02.pgm",
            "heatmap_round_03.pgm"]
        img = read_pgm(heatmaps[0])
        assert img.shape == (48, 48) and img.max() == 255
        for t in range(4):
            assert (out / "checkpoints" / f"model_round_{t:02d}.bin").is_file()
            # each store checkpoint holds its own round's rows only
            store_t = D.load_store(out / "checkpoints" / f"store_round_{t:02d}.bin")
            assert len(store_t) == (4 if t else 0)
            assert set(store_t.rounds.tolist()) == ({t} if t else set())
        model = N.load_model(out / "model_final.bin")
        assert isinstance(model, N.Classifier) and model.binary
        final_store = D.load_store(out / "store_final.bin")
        assert len(final_store) == 12

    def test_manifest_hash_matches_config(self, tmp_path):
        out = tmp_path / "run"
        cfg = C.parse_config(write_config(tmp_path, mode="baseline"))
        C.run_experiment(cfg)
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[0] == "seed = 0"
        digest = hashlib.sha256((out / "config.ini").read_bytes()).hexdigest()
        assert manifest[1] == f"sha256 {digest}  config.ini"

    def test_manifest_records_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        C.run_experiment(C.parse_config(write_config(tmp_path, mode="baseline")))
        manifest = (tmp_path / "run" / "manifest.txt").read_text().splitlines()
        # after the seed and the config's hash
        assert manifest[2:] == [f"numpy = {np.__version__}", manifest[3],
                                "OPENBLAS_NUM_THREADS = 3", "OMP_NUM_THREADS = unset"]
        assert re.fullmatch(r"blas = (\S+ \S+|unknown)", manifest[3]), manifest[3]

    def test_rerun_bitwise_identical_metrics(self, tmp_path):
        cfg_a = C.parse_config(write_config(tmp_path),
                               out_override=str(tmp_path / "a"))
        cfg_b = C.parse_config(write_config(tmp_path),
                               out_override=str(tmp_path / "b"))
        assert C.run_experiment(cfg_a) == 0
        assert C.run_experiment(cfg_b) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
        assert (a / "model_final.bin").read_bytes() == (b / "model_final.bin").read_bytes()
        assert (a / "store_final.bin").read_bytes() == (b / "store_final.bin").read_bytes()

    def test_icn_noise_rounds_store_their_reference_draws(self, tmp_path, capsys):
        # icn-noise is zero-step chains: a round's rows are the reference
        # draws of its synthesis stream, bit for bit, and every chain stops
        # at its fixed step count
        path = write_config(tmp_path, mode="icn-noise", rounds=2, pseudo=4)
        assert C.main(["train", "--config", str(path)]) == 0
        cfg = C.parse_config(path)
        for t in (1, 2):
            store = D.load_store(tmp_path / "run" / "checkpoints" / f"store_round_{t:02d}.bin")
            want = S.draw_reference(4, (2,), cfg.sampler.reference_sigma,
                                    rng(cfg.seed, STREAM_SYNTH, t))
            assert store.samples.tobytes() == want.tobytes()
        lines = capsys.readouterr().err.splitlines()
        assert [re.findall(r"stops [^ ]+ \d+", line) for line in lines] == [
            [], ["stops fixed_steps 4"], ["stops fixed_steps 4"]]

    @staticmethod
    def two_row_config(tmp_path, **edits):
        """The test config on one positive and one negative training row,
        with each key = value line of `edits` swapped in."""
        path = write_config(tmp_path)
        text = path.read_text().replace("n_positive = 16", "n_positive = 1")
        text = text.replace("n_negative = 12", "n_negative = 1")
        for key, value in edits.items():
            text = re.sub(f"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        path.write_text(text)
        return path

    def test_validation_split_of_every_row_exits_1_naming_the_key(self, tmp_path, capsys):
        # before: the run ended in "float division by zero", naming no key
        path = self.two_row_config(tmp_path, val_fraction=0.75)
        assert C.main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: train.val_fraction = 0.75")
        assert "2 of the 2 rows" in err
        assert (tmp_path / "run" / "error.txt").read_text().startswith("TrainerError")
        assert not (tmp_path / "run" / "metrics.csv").exists()  # no round trained

    @pytest.mark.filterwarnings("error")
    def test_one_positive_trains_without_warning(self, tmp_path):
        # one positive leaves the second positive component weight 0; its
        # density took log(0) and warned before the first round
        path = self.two_row_config(tmp_path, val_fraction=0, rounds=1)
        assert C.main(["train", "--config", str(path)]) == 0

    def test_midrun_failure_leaves_error_record(self, tmp_path):
        empty = tmp_path / "nodata"
        empty.mkdir()
        path = write_config(tmp_path, task="mnist-subset", mode="softmax",
                            extra_experiment=f"mnist_dir = {empty}")
        cfg = C.parse_config(path)
        out = Path(cfg.out)
        assert C.run_experiment(cfg) == 1
        assert (out / "error.txt").read_text().startswith("DataError")
        assert (out / "config.ini").is_file()  # partial artifacts remain

    def test_huge_idx_header_exits_1_naming_the_file(self, tmp_path, capsys):
        # 2**31 images of 2**15 x 2**15 pixels claimed by a 48-byte file
        ini = write_mnist_ini(tmp_path)
        images = tmp_path / "mnist" / "train-images-idx3-ubyte"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 2 ** 31, 2 ** 15, 2 ** 15) + bytes(32))
        assert C.main(["train", "--config", str(ini)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {images}: truncated pixels: needs {2 ** 61} bytes, 32 left\n"

    def test_cut_gzip_idx_exits_1_naming_the_file(self, tmp_path, capsys):
        ini = write_mnist_ini(tmp_path)
        images = tmp_path / "mnist" / "train-images-idx3-ubyte"
        packed = gzip.compress(images.read_bytes(), mtime=0)
        images.write_bytes(packed[:len(packed) // 2])
        assert C.main(["train", "--config", str(ini)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {images}: truncated") and err.count("\n") == 1

    def test_empty_test_set_exits_1_before_training(self, tmp_path, capsys, monkeypatch):
        ini = write_mnist_ini(tmp_path)
        ini.write_text(ini.read_text().replace("mode = softmax", "mode = baseline")
                       .replace("test_subset = 10", "test_subset = 0"))
        images = tmp_path / "mnist" / "t10k-images-idx3-ubyte"
        images.write_bytes(struct.pack(">IIII", 0x00000803, 0, 28, 28))
        (tmp_path / "mnist" / "t10k-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 0x00000801, 0))
        monkeypatch.setattr(TR, "_sgd_epochs", lambda *a: pytest.fail("training ran"))
        assert C.main(["train", "--config", str(ini)]) == 1
        assert capsys.readouterr().err == f"error: {images}: no test images\n"

    def test_image_run_dumps_each_rounds_pseudo_negatives(self, tmp_path):
        # one softmax round on 10 training images: 10 classes x 1 chain
        # tile a 3 x 4 grid of 28 x 28 cells
        path = write_mnist_ini(tmp_path, rounds=1, pseudo=1)
        path.write_text(path.read_text().replace("init_epochs = 6", "init_epochs = 1")
                        .replace("epochs_per_round = 2", "epochs_per_round = 1")
                        .replace("fixed_steps = 5", "fixed_steps = 1"))
        assert C.main(["train", "--config", str(path)]) == 0
        pgm = tmp_path / "run" / "images" / "pseudo_round_01.pgm"
        assert pgm.read_bytes().startswith(b"P5\n112 84\n255\n")
        assert pgm.stat().st_size == len(b"P5\n112 84\n255\n") + 112 * 84
        assert read_pgm(pgm).shape == (84, 112)
        assert sorted(p.name for p in (tmp_path / "run" / "images").iterdir()) == [
            "pseudo_round_01.pgm"]

    def test_softmax_mode_on_synthetic(self, tmp_path):
        out = tmp_path / "run"
        cfg = C.parse_config(write_config(tmp_path, mode="softmax", rounds=1))
        assert C.run_experiment(cfg) == 0
        rows = C.parse_metrics(out / "metrics.csv")
        assert len(rows) == 2
        assert rows[1].store_size == 2 * 4  # K=2 classes, l=4
        assert rows[0].kl_to_positive is None  # KL tracks binary runs only
        model = N.load_model(out / "model_final.bin")
        assert isinstance(model, N.Classifier) and not model.binary

    def test_one_vs_all_mode_on_synthetic(self, tmp_path):
        out = tmp_path / "run"
        cfg = C.parse_config(write_config(tmp_path, mode="one-vs-all",
                                          rounds=1))
        assert C.run_experiment(cfg) == 0
        rows = C.parse_metrics(out / "metrics.csv")
        assert len(rows) == 2
        assert rows[1].store_size == 2 * 4
        model = N.load_model(out / "model_final.bin")
        assert isinstance(model, N.OneVsAllEnsemble)


class TestLoadTaskData:
    @pytest.mark.parametrize("task, test_subset", [
        ("mnist-subset", 10), ("mnist-subset", 0), ("mnist-full", 10)])
    def test_sets_equal_normalize_then_subset_bitwise(self, tmp_path, task, test_subset):
        path = write_mnist_ini(tmp_path, n=60)
        path.write_text(path.read_text().replace("mnist-subset", task)
                        .replace("test_subset = 10", f"test_subset = {test_subset}"))
        cfg = C.parse_config(path)
        train_ds, test_ds, _, _ = C._load_task_data(cfg)
        train_full, test_full = (D.normalize(D.load_idx(*D.mnist_files(tmp_path / "mnist", split)))
                                 for split in ("train", "test"))
        if task == "mnist-subset":
            train_full = D.stratified_subset(train_full, 10, 0)
            if test_subset:
                test_full = D.stratified_subset(test_full, test_subset, 0)
        for got, want in ((train_ds, train_full), (test_ds, test_full)):
            assert got.samples.tobytes() == want.samples.tobytes()
            assert got.labels.tobytes() == want.labels.tobytes()
            assert got.class_count == want.class_count

    @pytest.mark.parametrize("task, sets", [("mnist-subset", 0.2), ("mnist-full", 2.2)])
    def test_load_peak_in_float64_sets(self, tmp_path, task, sets):
        # one float64 set of 2000 images is 2000 x 784 x 8 bytes, its raw
        # pixels an eighth of that. mnist-subset keeps 10 rows of each set
        # and makes only those float64: 0.13 sets. mnist-full holds the
        # float64 training set while it loads the test set: 2.13 sets.
        # Converting all pixels on load peaked at 2.1 and 3.1 sets
        path = write_mnist_ini(tmp_path, n=2000)
        path.write_text(path.read_text().replace("mnist-subset", task))
        cfg = C.parse_config(path)
        tracemalloc.start()
        try:
            C._load_task_data(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sets * (2000 * 784 * 8)

    def test_test_set_load_peak_is_one_float64_set(self, tmp_path):
        # 20k training and 5k test images on mnist-full: the test set alone
        # is loaded, one float64 copy of 5000 x 784 pixels beside their
        # 3.9 MB of raw bytes. Loading both sets peaked at 282.4 MB
        root = tmp_path / "mnist"
        root.mkdir()
        for prefix, n in (("train", 20000), ("t10k", 5000)):
            write_idx_pair(root, prefix, rng(27, 6).integers(0, 256, (n, 28, 28), np.uint8))
        cfg = C.parse_config(write_config(tmp_path, task="mnist-full", mode="softmax",
                                          extra_experiment=f"mnist_dir = {root}"))
        tracemalloc.start()
        try:
            test_ds, _ = C._load_test_set(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(test_ds) == 5000
        assert peak < 1.02 * (5000 * 784 * 9)

    def test_adversarial_reads_only_the_test_pair(self, tmp_path, monkeypatch):
        path = write_mnist_ini(tmp_path)
        model = tmp_path / "model.bin"
        N.save_model(model, N.init_multiclass(TestAdversarialFit.CONV, (1, 28, 28), 10,
                                              rng(27, 1)))
        read = []
        real = D.load_idx
        monkeypatch.setattr(D, "load_idx", lambda *paths: read.append(paths) or real(*paths))
        assert C.main(["adversarial", "--model-a", str(model), "--model-b", str(model),
                       "--config", str(path)]) == 0
        root = tmp_path / "mnist"
        assert read == [(root / "t10k-images-idx3-ubyte", root / "t10k-labels-idx1-ubyte")]

    @pytest.mark.parametrize("key, stem", [("subset_size", "train"), ("test_subset", "t10k")])
    def test_subset_above_the_file_names_key_and_file(self, tmp_path, capsys, key, stem):
        path = write_mnist_ini(tmp_path)
        path.write_text(path.read_text().replace(f"{key} = 10", f"{key} = 30"))
        assert C.main(["train", "--config", str(path)]) == 1
        images = tmp_path / "mnist" / f"{stem}-images-idx3-ubyte"
        assert capsys.readouterr().err == (
            f"error: experiment.{key} = 30 exceeds the 20 samples of {images}\n")


class TestTestError:
    # five 2D test points labeled as the task labels them, positives 1 and
    # negatives 0; every model below predicts class 1 exactly where x0 > 0,
    # so rows 1 (-1, labeled 1) and 4 (3, labeled 0) are wrong: 2 of 5
    X = np.array([[-2.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    Y = np.array([0, 1, 1, 1, 0])

    @staticmethod
    def linear(head_w):
        head_w = np.array(head_w, dtype=np.float64)
        return N.Classifier([], [], head_w, np.zeros(head_w.shape[1]))

    @pytest.mark.parametrize("kind", ["binary", "multiclass", "one-vs-all"])
    def test_hand_counted_error_on_class_labels(self, kind):
        model = {"binary": self.linear([[1.0], [0.0]]),
                 "multiclass": self.linear([[-1.0, 1.0], [0.0, 0.0]]),
                 "one-vs-all": N.OneVsAllEnsemble([self.linear([[-1.0], [0.0]]),
                                                   self.linear([[1.0], [0.0]])])}[kind]
        test_ds = D.LabeledDataset(self.X, self.Y, 2)
        assert C._test_error(model, test_ds) == 2 / 5


class TestStreamingRounds:
    # a one-vs-all round synthesizes once per member, members in class order
    @pytest.mark.parametrize("mode, calls_per_round", [("binary", 1), ("one-vs-all", 2)],
                             ids=["binary", "one-vs-all"])
    def test_failure_in_round_2_keeps_finished_rounds(self, tmp_path, monkeypatch,
                                                      mode, calls_per_round):
        whole = C.parse_config(write_config(tmp_path, mode=mode, rounds=3),
                               out_override=str(tmp_path / "whole"))
        assert C.run_experiment(whole) == 0
        real = S.synthesize_pseudo_negatives
        calls = []

        def fails_in_round_2(*args, **kwargs):
            calls.append(1)
            if len(calls) == calls_per_round + 1:
                raise S.SamplerError("synthesis failed in round 2")
            return real(*args, **kwargs)

        monkeypatch.setattr(S, "synthesize_pseudo_negatives", fails_in_round_2)
        out = tmp_path / "run"
        cfg = C.parse_config(write_config(tmp_path, mode=mode, rounds=3))
        assert C.run_experiment(cfg) == 1
        assert (out / "error.txt").read_text().startswith("SamplerError")
        assert sorted(p.name for p in (out / "checkpoints").iterdir()) == [
            "model_round_00.bin", "model_round_01.bin",
            "store_round_00.bin", "store_round_01.bin"]
        assert [r.round for r in C.parse_metrics(out / "metrics.csv")] == [0, 1]
        assert not (out / "model_final.bin").exists()
        # the finished rounds are the uninterrupted run's, byte for byte
        for name in ("model_round_00.bin", "model_round_01.bin",
                     "store_round_00.bin", "store_round_01.bin"):
            assert ((out / "checkpoints" / name).read_bytes()
                    == (tmp_path / "whole" / "checkpoints" / name).read_bytes())
        rows = (out / "metrics.csv").read_bytes().split(b"\r\n")
        assert rows[:3] == (tmp_path / "whole" / "metrics.csv").read_bytes().split(b"\r\n")[:3]
        if mode == "binary":
            assert (out / "heatmaps" / "heatmap_round_01.pgm").is_file()

    @pytest.mark.parametrize("mode", ["binary", "softmax"])
    def test_no_parameter_copies_without_validation(self, tmp_path, monkeypatch, mode):
        path = write_config(tmp_path, mode=mode, rounds=2)
        path.write_text(path.read_text().replace("val_fraction = 0.25", "val_fraction = 0"))
        copies = []
        real = TR._snapshot
        monkeypatch.setattr(TR, "_snapshot", lambda c: copies.append(1) or real(c))
        assert C.run_experiment(C.parse_config(path)) == 0
        assert len(C.parse_metrics(tmp_path / "run" / "metrics.csv")) == 3
        assert copies == []

    def test_progress_line_per_round_on_stderr(self, tmp_path, capsys):
        assert C.main(["train", "--config", str(write_config(tmp_path, rounds=2))]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        rows = C.parse_metrics(tmp_path / "run" / "metrics.csv")
        assert len(lines) == len(rows) == 3
        for line, row in zip(lines, rows):
            # option3 at 4 chains a round: every chain stops at fixed_steps
            stops = "stops fixed_steps 4  " if row.round else ""
            assert re.fullmatch(
                rf"round {row.round}: train_loss {C.format_float(row.train_loss)}  "
                rf"test_error {C.format_float(row.test_error)}  "
                rf"store_size {row.store_size}  {stops}elapsed \d+\.\d s", line), line


def readme_demo(tmp_path, *edits):
    """The README quick 2D demo's ini, out under tmp_path, with each
    (old, new) edit applied; returns its path."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (text,) = [b for b in re.findall(r"```ini\n(.*?)```", readme, re.S) if "rounds = 6" in b]
    for old, new in (("out = runs/2d", f"out = {tmp_path / 'run'}"),) + edits:
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "demo.ini"
    path.write_text(text)
    return path


class TestSynthesisReport:
    """What a run's stderr says about its chains."""

    # the CI smoke demo: the README demo cut to two rounds
    SMOKE = (("rounds = 6", "rounds = 2"),)

    def test_overflowing_synthesis_warns_once_a_round(self, tmp_path, capsys):
        # a step of 1e308 overflows every chain's first forward after its
        # first update: all 30 chains of each round end non_finite at step 0
        path = readme_demo(tmp_path, *self.SMOKE, ("[sampler]", "[sampler]\nstep_size = 1e308"))
        assert C.main(["train", "--config", str(path), "--seed", "0"]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert [line for line in lines if line.startswith("warning:")] == [
            f"warning: round {t}: 30 of 30 chains ended non_finite" for t in (1, 2)]
        assert lines[2] == "warning: round 1: 30 of 30 chains ended non_finite"
        assert "  stops non_finite 30  " in lines[1]

    def test_plain_demo_prints_no_warning(self, tmp_path, capsys):
        path = readme_demo(tmp_path, *self.SMOKE)
        assert C.main(["train", "--config", str(path), "--seed", "0"]) == 0
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 3 and "warning" not in err

    def test_no_sweep_of_a_graph_whose_every_chain_stops(self, tmp_path, monkeypatch):
        # at this seed, a sampler that sweeps every graph before the limit
        # step makes 59 input-gradient calls over 445 rows; 3 graphs' chains
        # all stop at one step
        calls = []
        real_gradient, real_synthesize = T.input_gradient, S.synthesize_pseudo_negatives
        inside = []

        def gradient(grad_pass, seed):
            g = real_gradient(grad_pass, seed)
            if inside:
                calls.append(len(g))
            return g

        def synthesize(*args, **kwargs):
            inside.append(1)
            try:
                return real_synthesize(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(T, "input_gradient", gradient)
        monkeypatch.setattr(S, "synthesize_pseudo_negatives", synthesize)
        path = readme_demo(tmp_path, ("stopping = option2", "stopping = option1"))
        assert C.main(["train", "--config", str(path), "--seed", "23941"]) == 0
        assert (len(calls), sum(calls)) == (56, 413)


@pytest.fixture(scope="module")
def runs_2d(tmp_path_factory):
    """One-round 2D runs in binary, softmax and one-vs-all mode: {mode: (ini, run dir)}."""
    root = tmp_path_factory.mktemp("runs_2d")
    runs = {}
    for mode in ("binary", "softmax", "one-vs-all"):
        ini = write_config(root, name=f"{mode}.ini", mode=mode, rounds=1,
                           out=str(root / mode))
        assert C.run_experiment(C.parse_config(ini)) == 0
        runs[mode] = (ini, root / mode)
    return runs


class TestAdversarialInputs:
    @pytest.mark.parametrize("model_a, model_b", [
        ("one-vs-all/model_final.bin", "one-vs-all/checkpoints/model_round_00.bin"),
        ("softmax/model_final.bin", "one-vs-all/model_final.bin"),
    ], ids=["model_a", "model_b"])
    def test_one_vs_all_model_rejected(self, runs_2d, capsys, model_a, model_b):
        ini, run_dir = runs_2d["one-vs-all"]
        root = run_dir.parent
        status = C.main(["adversarial", "--model-a", str(root / model_a),
                         "--model-b", str(root / model_b), "--config", str(ini)])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        ova = root / (model_a if model_a.startswith("one-vs-all") else model_b)
        assert captured.err.startswith(f"error: {ova}: a one-vs-all ensemble")
        assert captured.err.count("\n") == 1

    def test_overflowing_finite_model_exits_1_with_one_error_line(self, runs_2d, tmp_path,
                                                                  capsys):
        # the weights are finite, so the file loads; its forward overflows.
        # Before, the NonFiniteError ended the command in a traceback
        ini, run_dir = runs_2d["binary"]
        huge = N.init_binary(C.SYNTH_NET, (2,), rng(64, 1))
        huge.feature_params[0][...] *= 1e200
        huge.feature_params[2][...] *= 1e200
        path = tmp_path / "huge.bin"
        N.save_model(path, huge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow warnings too
            status = C.main(["adversarial", "--model-a", str(path),
                             "--model-b", str(run_dir / "model_final.bin"), "--config", str(ini)])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert captured.err == "error: non-finite values produced by affine\n"

    def test_binary_and_softmax_pair_attacked(self, runs_2d, tmp_path):
        # both predict the same class indices, so each is scored on the same labels
        ini, run_dir = runs_2d["binary"]
        status = C.main(["adversarial", "--model-a", str(run_dir / "model_final.bin"),
                         "--model-b", str(runs_2d["softmax"][1] / "model_final.bin"),
                         "--config", str(ini), "--out", str(tmp_path / "adv")])
        assert status == 0
        rows = (tmp_path / "adv" / "fooling.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["a_to_b", "b_to_a"]
        assert all(int(row.split(",")[1]) > 0 for row in rows)

    def test_softmax_2d_pair_attacks_both_classes(self, runs_2d, tmp_path, monkeypatch):
        ini, run_dir = runs_2d["softmax"]
        seen = []
        real = R.two_way_fool_experiment

        def spy(model_a, model_b, test_set, epsilon, clamp):
            seen.append(test_set.labels)
            return real(model_a, model_b, test_set, epsilon, clamp)

        monkeypatch.setattr(R, "two_way_fool_experiment", spy)
        status = C.main(["adversarial",
                         "--model-a", str(run_dir / "checkpoints" / "model_round_00.bin"),
                         "--model-b", str(run_dir / "model_final.bin"),
                         "--config", str(ini), "--out", str(tmp_path / "adv")])
        assert status == 0
        (labels,) = seen
        assert sorted(set(labels.tolist())) == [0, 1]
        rows = (tmp_path / "adv" / "fooling.csv").read_text().splitlines()[1:]
        # more eligible rows than positives means negative-class rows
        # count too
        for row in rows:
            assert int(row.split(",")[1]) > int((labels == 1).sum())


    def test_2d_attack_moves_no_coordinate_beyond_eps(self, runs_2d, monkeypatch):
        # synthetic2d inputs have no box: clamping them into the image range
        # [-1, 1] would move every point that lies outside it
        ini, run_dir = runs_2d["binary"]
        moved, outside = [], []
        real = R.fgsm_perturb

        def spy(model, x, *args, **kwargs):
            adv, pred = real(model, x, *args, **kwargs)
            moved.append(np.abs(adv - x).max())
            outside.append(np.abs(x).max() > 1.0)
            return adv, pred

        monkeypatch.setattr(R, "fgsm_perturb", spy)
        status = C.main(["adversarial", "--eps", "0.125",
                         "--model-a", str(run_dir / "checkpoints" / "model_round_00.bin"),
                         "--model-b", str(run_dir / "model_final.bin"), "--config", str(ini)])
        assert status == 0 and any(outside)
        assert max(moved) <= 0.125 + 1e-12


class TestAdversarialFit:
    """A model that does not take the config's test samples, or has no class
    for some test label, is rejected before any attack."""

    CONV = [T.conv(1, 2), T.leaky(), T.flatten()]

    @pytest.mark.parametrize("model_a, model_b, task, rejected", [
        ("softmax-2d", "conv-10", "mnist", "a"),
        ("conv-10", "conv-10", "2d", "a"),
        ("conv-10", "conv-3", "mnist", "b"),
    ], ids=["2d-model-on-images", "image-model-on-2d", "too-few-classes"])
    def test_misfit_model_exits_1_naming_it(self, tmp_path, capsys, model_a, model_b,
                                            task, rejected):
        models = {"softmax-2d": N.init_multiclass(C.SYNTH_NET, (2,), 2, rng(61, 1)),
                  "conv-10": N.init_multiclass(self.CONV, (1, 28, 28), 10, rng(62, 1)),
                  "conv-3": N.init_multiclass(self.CONV, (1, 28, 28), 3, rng(63, 1))}
        paths = {}
        for side, name in (("a", model_a), ("b", model_b)):
            paths[side] = tmp_path / f"{side}-{name}.bin"
            N.save_model(paths[side], models[name])
        ini = write_mnist_ini(tmp_path) if task == "mnist" else write_config(tmp_path)
        status = C.main(["adversarial", "--model-a", str(paths["a"]),
                         "--model-b", str(paths["b"]), "--config", str(ini)])
        captured = capsys.readouterr()
        assert status == 1 and captured.out == ""
        assert captured.err.startswith(f"error: {paths[rejected]}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


class TestSubcommands:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            C.main(["frobnicate"])
        assert err.value.code == 2

    def test_train_missing_config_returns_1(self, tmp_path, capsys):
        status = C.main(["train", "--config", str(tmp_path / "none.ini")])
        assert status == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["adversarial-missing", "adversarial-directory",
                                         "train-out-file", "oracle-verify-out-file"])
    def test_os_error_exits_1_with_one_error_line(self, runs_2d, tmp_path, capsys, command):
        # before: each ended in a FileNotFoundError, IsADirectoryError or
        # FileExistsError traceback
        ini, run_dir = runs_2d["binary"]
        model, in_the_way = str(run_dir / "model_final.bin"), tmp_path / "file"
        in_the_way.write_text("")
        argv = {"adversarial-missing": ["adversarial", "--model-a", str(tmp_path / "none.bin")],
                "adversarial-directory": ["adversarial", "--model-a", str(tmp_path)],
                "train-out-file": ["train", "--config", str(ini), "--out", str(in_the_way)],
                "oracle-verify-out-file": ["oracle-verify", "--pairs", "1", "--resolution",
                                           "4", "--out", str(in_the_way)]}[command]
        if argv[0] == "adversarial":
            argv += ["--model-b", model, "--config", str(ini)]
        assert C.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert (str(tmp_path / "none.bin") if command == "adversarial-missing"
                else str(tmp_path)) in captured.err

    def test_no_run_imports_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma, 12-14 ms by -X importtime; class counts
        # come from np.bincount instead
        path = write_config(tmp_path, rounds=1)
        code = f"""import sys
import numpy as np
from icnet import cli, data as D
assert cli.main(["train", "--config", {str(path)!r}]) == 0
ds = D.LabeledDataset(np.zeros((6, 2)), np.array([0, 2, 2, 0, 2, 0]), 3)
assert sorted(D.stratified_subset(ds, 4, 0).labels) == [0, 0, 2, 2]
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
"""
        paths = [str(Path(C.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr

    def test_oracle_verify_passes(self, tmp_path, capsys):
        status = C.main(["oracle-verify", "--pairs", "5", "--resolution", "64",
                         "--out", str(tmp_path)])
        assert status == 0
        assert "PASS" in capsys.readouterr().out
        lines = (tmp_path / "oracle_verify.csv").read_bytes().split(b"\r\n")
        assert lines[0] == b"pair,identity_gap"
        gaps = [float(l.split(b",")[1]) for l in lines[1:] if l]
        assert len(gaps) == 5 and max(gaps) < 1e-9

    @pytest.mark.parametrize("argv, match", [
        (["oracle-verify", "--seed", "-1"], "--seed must be at least 0"),
        (["oracle-verify", "--pairs", "0"], "--pairs must be at least 1"),
        (["oracle-verify", "--resolution", "1"], "--resolution must be at least 2"),
        (["adversarial", "--eps", "-1"], "epsilon must be >= 0"),
        (["adversarial", "--eps", "nan"], "epsilon must be >= 0"),
        (["adversarial", "--eps", "inf"], "epsilon must be >= 0 and finite, got inf"),
        (["oracle-verify", "--tolerance", "inf"], "--tolerance must be finite and above 0, got inf"),
        (["oracle-verify", "--tolerance", "nan"], "--tolerance must be finite and above 0, got nan"),
        (["oracle-verify", "--tolerance", "0"], "--tolerance must be finite and above 0, got 0.0"),
        (["oracle-verify", "--tolerance", "-1"], "--tolerance must be finite and above 0, got -1.0")],
        ids=["seed", "pairs", "resolution", "eps", "eps-nan", "eps-inf", "tolerance-inf",
             "tolerance-nan", "tolerance-0", "tolerance-negative"])
    def test_out_of_range_flag_exits_1_with_one_error_line(self, runs_2d, capsys, monkeypatch,
                                                           argv, match):
        # before: each ended in a traceback, --eps inf in an error naming
        # neither flag nor value, and --tolerance inf passed any gap
        if argv[0] == "adversarial":
            ini, run_dir = runs_2d["binary"]
            model = str(run_dir / "model_final.bin")
            argv = argv + ["--model-a", model, "--model-b", model, "--config", str(ini)]
        else:  # no oracle pair is drawn
            monkeypatch.setattr(C, "rng", None)
        assert C.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {match}") and captured.err.count("\n") == 1

    def test_adversarial_and_report(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, rounds=1,
                                out=str(tmp_path / "icn"))
        assert C.main(["train", "--config", str(cfg_path)]) == 0
        base_path = write_config(tmp_path, name="base.ini", mode="baseline",
                                 out=str(tmp_path / "base"))
        assert C.main(["train", "--config", str(base_path)]) == 0
        capsys.readouterr()
        status = C.main([
            "adversarial",
            "--model-a", str(tmp_path / "base" / "model_final.bin"),
            "--model-b", str(tmp_path / "icn" / "model_final.bin"),
            "--config", str(cfg_path), "--eps", "0.125",
            "--out", str(tmp_path / "adv")])
        assert status == 0
        out_text = capsys.readouterr().out
        assert "->" in out_text and "eligible" in out_text
        rows = (tmp_path / "adv" / "fooling.csv").read_bytes().split(b"\r\n")
        assert rows[0] == b"direction,eligible,adversarial,cross_fool,epsilon"
        for line in rows[1:3]:
            cells = line.split(b",")
            eligible, adv, cross = int(cells[1]), int(cells[2]), int(cells[3])
            assert cross <= adv <= eligible
        assert C.main(["report", "--run", str(tmp_path / "icn")]) == 0
        report = capsys.readouterr().out
        assert "round" in report and "store_size" in report
