"""One fuzzer over every binary format the package reads: model files,
pseudo-negative stores and IDX image and label files, plain and gzipped.

Each file is cut at every offset, has each of its first 120 bytes set to
0x00 and 0xFF and flipped in bit 0 and bit 7, and has each header integer
set to 0, 1, 2**31 - 1 and 2**32 - 1 (and its type's extremes). A model
header also has each JSON number (class count, layer widths, slope, pad)
set to 0, -1, 1e999, NaN, Infinity and 2**63. Every case must load or
raise that format's typed error naming the file; a cut must say what it
cut short."""

import gzip
import json
import math
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from icnet import cli as C
from icnet import data as D
from icnet import network as N
from icnet import tensor as T
from icnet.seeding import rng

INT_VALUES = (0, 1, 2 ** 31 - 1, 2 ** 32 - 1)
EXTRA_INT_VALUES = {"<q": (-1, 2 ** 63 - 1), "<Q": (2 ** 64 - 1,)}
JSON_TOKENS = ("0", "-1", "1e999", "NaN", "Infinity", str(2 ** 63))
MODEL_CUTS = ("bad magic", "malformed header", "truncated tensor header",
              "truncated tensor shape", "truncated tensor data")


@dataclass
class Target:
    """One file to rewrite, as its format's loader reads it."""

    path: Path
    load: Callable
    error: type          # the format's typed error
    cut_error: type      # the error every cut must raise
    cut_kinds: tuple     # what the cuts, between them, say was cut short
    int_fields: list     # (offset, struct format) of each header integer
    gzipped: bool = False
    raw: bytes = b""     # the file's bytes, before any gzip

    def __post_init__(self):
        self.raw = self.path.read_bytes()
        if self.gzipped:
            self.path.write_bytes(self.pack(self.raw))

    def pack(self, raw):
        return gzip.compress(bytes(raw), mtime=0) if self.gzipped else bytes(raw)


def tensor_int_fields(data):
    """The rank and shape fields of every tensor in a model file."""
    at = data.index(b"\n", len(N.MODEL_MAGIC)) + 1
    fields = []
    while at < len(data):
        ndim = struct.unpack_from("<q", data, at)[0]
        shape = struct.unpack_from(f"<{ndim}q", data, at + 8)
        fields += [(at + 8 * i, "<q") for i in range(ndim + 1)]
        at += 8 + 8 * ndim + 8 * math.prod(shape)
    return fields


def model_target(tmp_path, model):
    path = tmp_path / "m.icnet"
    N.save_model(path, model)
    return Target(path, lambda: N.load_model(path), N.ModelFormatError, N.ModelFormatError,
                  MODEL_CUTS, tensor_int_fields(path.read_bytes()))


CONV_SPEC = [T.conv(1, 2), T.leaky(), T.flatten(), T.dense(18, 3), T.leaky()]
MODELS = {
    "binary": lambda: N.init_binary([T.dense(2, 2), T.leaky()], (2,), rng(60, 1)),
    "multiclass": lambda: N.init_multiclass([T.dense(2, 2), T.leaky()], (2,), 3, rng(61, 1)),
    "one_vs_all": lambda: N.OneVsAllEnsemble([N.init_binary([T.dense(2, 2)], (2,), rng(62 + k, 1))
                                              for k in range(2)]),
    "conv": lambda: N.init_multiclass(CONV_SPEC, (1, 5, 5), 3, rng(65, 1)),
}


def store_target(tmp_path):
    store = D.PseudoNegativeStore()
    store.add_batch(1, 0, rng(10, 6).standard_normal((2, 1, 2, 2)))
    store.add_batch(2, 1, rng(11, 6).standard_normal((1, 1, 2, 2)))
    path = tmp_path / "s.pn"
    D.save_store(store, path)
    # version, row count, sample rank, then the three shape fields
    fields = [(7, "<I"), (11, "<Q"), (19, "<I"), (23, "<I"), (27, "<I"), (31, "<I")]
    return Target(path, lambda: D.load_store(path), D.StoreFormatError, D.StoreFormatError,
                  ("bad magic", "truncated store header", "truncated sample shape",
                   "truncated rounds", "truncated tags", "truncated samples"), fields)


def write_idx(root, pixels, labels):
    """Independent IDX writer: big-endian headers, then raw unsigned bytes,
    under the MNIST training file names; returns (images, labels) paths."""
    images_path = root / "train-images-idx3-ubyte"
    labels_path = root / "train-labels-idx1-ubyte"
    arr = np.asarray(pixels, dtype=np.uint8)
    images_path.write_bytes(struct.pack(">IIII", 0x00000803, *arr.shape) + arr.tobytes())
    lab = np.asarray(labels, dtype=np.uint8)
    labels_path.write_bytes(struct.pack(">II", 0x00000801, lab.size) + lab.tobytes())
    return images_path, labels_path


def idx_target(tmp_path, which, gzipped):
    """Three seeded 28x28 images and their labels; `which` file is the one
    rewritten, its partner stays plain and valid."""
    images, labels = write_idx(tmp_path, rng(8, 7).integers(0, 256, size=(3, 28, 28)), [0, 1, 2])
    if which == "images":
        path, kinds = images, ("truncated image header", "truncated pixels")
        fields = [(0, ">I"), (4, ">I"), (8, ">I"), (12, ">I")]
    else:
        path, kinds = labels, ("truncated label header", "truncated labels")
        fields = [(0, ">I"), (4, ">I")]
    return Target(path, lambda: D.load_idx(images, labels), D.IdxFormatError,
                  D.IdxTruncatedError, kinds, fields, gzipped)


TARGETS = {
    **{f"model-{name}": (lambda tmp, make=make: model_target(tmp, make()))
       for name, make in MODELS.items()},
    "store": store_target,
    "idx-images": lambda tmp: idx_target(tmp, "images", False),
    "idx-labels": lambda tmp: idx_target(tmp, "labels", False),
    "idx-images-gzip": lambda tmp: idx_target(tmp, "images", True),
    "idx-labels-gzip": lambda tmp: idx_target(tmp, "labels", True),
}


def json_cases(t):
    """The model header with each of its JSON numbers replaced by each of
    JSON_TOKENS, written as raw text (1e999, NaN and 2**63 have no float
    spelling json.dumps would keep)."""
    head = len(N.MODEL_MAGIC)
    end = t.raw.index(b"\n", head)
    header = json.loads(t.raw[head:end])
    slots = [(header, "classes")] if "classes" in header else []
    slots += [(layer, i) for layer in header["spec"] for i in range(1, 5)]
    for holder, key in slots:
        kept, holder[key] = holder[key], "@"
        text = json.dumps(header, sort_keys=True)
        holder[key] = kept
        for token in JSON_TOKENS:
            edited = text.replace('"@"', token).encode()
            yield f"header {key} = {token}", t.raw[:head] + edited + t.raw[end:], False


def cases(t):
    """(name, file bytes, is a cut) for every case of target t."""
    data = t.path.read_bytes()
    for n in range(len(data)):
        yield f"cut at {n}", data[:n], True
    for i in range(min(120, len(data))):
        for value in (0x00, 0xFF, data[i] ^ 0x01, data[i] ^ 0x80):
            yield f"byte {i} = {value:#04x}", data[:i] + bytes([value]) + data[i + 1:], False
    for offset, fmt in t.int_fields:
        for value in INT_VALUES + EXTRA_INT_VALUES.get(fmt, ()):
            raw = bytearray(t.raw)
            struct.pack_into(fmt, raw, offset, value)
            yield f"{fmt} at {offset} = {value}", t.pack(raw), False
    if t.error is N.ModelFormatError:
        yield from json_cases(t)


def outcome(t, blob, cut):
    """(fault, kind): what went wrong, or None if the bytes load or raise the
    format's typed error naming the file; and, for a cut, what its message
    says was cut short."""
    t.path.write_bytes(blob)
    try:
        t.load()
    except t.error as exc:
        message = str(exc)
        if str(t.path) not in message:
            return f"{type(exc).__name__} does not name the file: {message}", None
        if not cut:
            return None, None
        kinds = "|".join(map(re.escape, t.cut_kinds))
        said = re.match(f"{re.escape(str(t.path))}: ({kinds})", message)
        if isinstance(exc, t.cut_error) and said:
            return None, said.group(1)
        return f"unexpected {type(exc).__name__} for a cut: {message}", None
    except Exception as exc:  # the failure this test exists to find
        return f"untyped {type(exc).__name__}: {exc}", None
    return ("loaded" if cut else None), None


@pytest.mark.parametrize("target", TARGETS)
def test_every_case_loads_or_raises_the_typed_error(tmp_path, target):
    t = TARGETS[target](tmp_path)
    t.load()
    faults, said = [], set()
    for name, blob, cut in cases(t):
        fault, kind = outcome(t, blob, cut)
        if fault:
            faults.append(f"{name}: {fault}")
        if kind:
            said.add(kind)
    assert not faults, f"{len(faults)} faults, first: {faults[:5]}"
    assert said == set(t.cut_kinds)


def test_conv_pad_and_widths_below_range_rejected():
    # before: a conv with pad -3 loaded, then its first forward pass raised
    # an untyped ValueError from a failed broadcast
    for bad in (dict(pad=-3), dict(in_width=0), dict(out_width=-1)):
        with pytest.raises(ValueError, match="must be at least"):
            T.LayerSpec("conv", **{"in_width": 1, "out_width": 2, **bad})
    with pytest.raises(ValueError, match="dense widths must be at least 1"):
        T.dense(0, 3)
    assert T.conv(1, 2, pad=0).pad == 0


@pytest.mark.parametrize("case", ["model-cut", "model-classes-1e999", "idx-huge-count",
                                  "idx-gzip-cut"])
def test_cli_exits_1_with_one_error_line(tmp_path, capsys, case):
    """A bad file fed to the command that reads it: exit 1 and one line,
    `error: <path>: ...`, with no traceback."""
    if case.startswith("model"):
        t = model_target(tmp_path, MODELS["binary" if case == "model-cut" else "multiclass"]())
        blob = (t.raw[:len(t.raw) // 2] if case == "model-cut" else
                next(b for name, b, _ in json_cases(t) if name == "header classes = 1e999"))
        good = tmp_path / "good.icnet"
        N.save_model(good, MODELS["binary"]())
        # the models are read before the config
        argv = ["adversarial", "--model-a", str(good), "--model-b", str(t.path),
                "--config", str(tmp_path / "unused.ini")]
    else:
        mnist = tmp_path / "mnist"
        mnist.mkdir()
        t = idx_target(mnist, "images", case == "idx-gzip-cut")
        for kind in ("images-idx3", "labels-idx1"):
            (mnist / f"t10k-{kind}-ubyte").write_bytes((mnist / f"train-{kind}-ubyte").read_bytes())
        packed = t.path.read_bytes()
        blob = (t.raw[:4] + struct.pack(">I", 2 ** 31) + t.raw[8:] if case == "idx-huge-count"
                else packed[:len(packed) // 2])
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[experiment]\ntask = mnist-subset\nmode = softmax\n"
                       f"out = {tmp_path / 'run'}\nmnist_dir = {mnist}\n")
        argv = ["train", "--config", str(ini)]
    t.path.write_bytes(blob)
    assert C.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {t.path}: ") and err.count("\n") == 1
    assert "Traceback" not in err


TEXT_CASES = ["ini-not-utf8-train", "ini-not-utf8-adversarial", "metrics-cell-abc",
              "metrics-round-x", "metrics-not-utf8", "metrics-empty", "metrics-short-row",
              "metrics-missing"]


@pytest.mark.parametrize("case", TEXT_CASES)
def test_cli_text_file_exits_1_with_one_error_line(tmp_path, capsys, case):
    """A config ini or metrics.csv that cannot be read as what it is, or a
    run directory without metrics.csv: exit 1 and one `error:` line naming
    the file or directory, with no traceback."""
    ini = tmp_path / "exp.ini"
    ini.write_text(f"[experiment]\ntask = synthetic2d\nmode = binary\nout = {tmp_path / 'run'}\n")
    run = tmp_path / "report"
    run.mkdir()
    C.emit_metrics([C.MetricsRow(round=0, train_loss=0.5, store_size=0)], run / "metrics.csv")
    argv = ["report", "--run", str(run)]
    if case.startswith("ini"):
        bad = ini
        bad.write_bytes(bad.read_bytes().replace(b"binary", b"bin\xffary"))
        argv = ["train", "--config", str(ini)]
        if case.endswith("adversarial"):
            models = [tmp_path / f"{name}.icnet" for name in ("a", "b")]
            for path in models:
                N.save_model(path, MODELS["binary"]())
            argv = ["adversarial", "--model-a", str(models[0]), "--model-b", str(models[1]),
                    "--config", str(ini)]
    elif case == "metrics-missing":
        bad = run
        (run / "metrics.csv").unlink()
    else:
        bad = run / "metrics.csv"
        edits = {"metrics-cell-abc": (b"0.5", b"abc"), "metrics-round-x": (b"\n0,", b"\nx,"),
                 "metrics-not-utf8": (b"0.5", b"0.\xff5"),
                 "metrics-short-row": (b",\r\n", b"\r\n")}
        bad.write_bytes(b"" if case == "metrics-empty" else bad.read_bytes().replace(*edits[case]))
    assert C.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err and err.count("\n") == 1
    assert "Traceback" not in err
