"""One repetition of a workload, in a fresh process.

    python3 bench/worker.py SPEC.json

SPEC names the commands to hand to `icnet.cli.main`, the source tree to
import the program from, the parent's clock reading at spawn, whether to
trace, and where to write the result. The parent (bench/run.py) starts one
worker per repetition and waits for it.

Untraced, the worker wraps only the coarse phase boundaries: a few dozen
calls per repetition. Traced, it also wraps the functions of every package
module and derives the per-layer metrics from the spans.
"""

import contextlib
import io
import json
import os
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Probe, Tracer, clock, install, quantile  # noqa: E402


class SetupReached(BaseException):
    """Raised at the first trainer or oracle-pair call of a setup-only
    worker. A BaseException, so the CLI's `except Exception` lets it by."""


# Span names that end set-up: the first trainer call of `train`, and the
# first classifier init of the `oracle-verify` pair loop.
SETUP_MARKERS = ("trainer.run", "network.init_binary")
ARTIFACT_SPANS = ("cli.write", "network.save_model", "data.save_store")


def _add(key, amount):
    def on_return(tracer, args, kwargs, result):
        tracer.counts[key] += amount(args, result)
    return on_return


def _snapshot_bytes(tracer, args, kwargs, result):
    tracer.counts["cli.snapshot_bytes"] += sum(
        p.nbytes for snap in result.snapshots for p in snap)


def _synthesis(tracer, args, kwargs, result):
    traces = result[1]
    tracer.counts["sampler.chains"] += len(traces)
    tracer.counts["sampler.chain_steps"] += sum(t.steps for t in traces)
    for t in traces:
        tracer.counts["sampler.stop." + t.stop_reason] += 1


def _identity_gap(tracer, args, kwargs, result):
    left, right = result
    tracer.values["oracle.identity_gap"].append(abs(left - right))


def _eligible(tracer, args, kwargs, result):
    tracer.counts["robustness.eligible"] += sum(r.eligible_count for r in result)


def coarse_probes(TR, S, N, O, R):
    return [
        Probe(TR, "run_reclassification_by_synthesis", "trainer.run", _snapshot_bytes),
        Probe(TR, "_sgd_epochs", "trainer.sgd_epochs", _add(
            "trainer.sgd_samples",
            lambda a, r: a[7] * (len(a[1]) + (0 if a[3] is None else len(a[3]))))),
        Probe(S, "synthesize_pseudo_negatives", "sampler.synthesize", _synthesis),
        Probe(N, "init_binary", "network.init_binary"),
        Probe(O, "update_identity_sides", "oracle.update_identity_sides", _identity_gap),
        Probe(R, "two_way_fool_experiment", "robustness.two_way", _eligible),
    ]


TAPE_OPS = ("leaf", "affine", "leaky", "sigmoid", "softmax", "log_softmax", "log",
            "softplus", "square", "sum", "add", "scale", "mul_const", "select", "reshape")


def layer_probes(T, N, D, TR, O, R, C):
    """Every per-layer probe; conv spans are named after the MNIST_NET layer
    (c1..c4) that their input-channel count identifies."""
    conv_in = [layer.in_width for layer in C.MNIST_NET if layer.kind == "conv"]
    label = {c: f"c{i + 1}" for i, c in enumerate(conv_in)}

    def conv_name(kind, channels):
        return f"tensor.{kind}.{label.get(channels, f'in{channels}')}"

    def wrap_conv_backward(tracer, args, kwargs, node):
        if node._backward is not None:
            node._backward = tracer.wrap(node._backward,
                                         conv_name("conv_bwd", args[1].shape[1]))

    def grad_rows(tracer, args, kwargs, result):
        if tracer.current() == "sampler.synthesize":
            tracer.counts["sampler.grad_rows"] += len(result)

    probes = [
        Probe(T, "conv2d_value", lambda a, k: conv_name("conv_fwd", a[0].shape[1])),
        Probe(T, "conv2d_input_grad", lambda a, k: conv_name("conv_input_grad", a[1].shape[1])),
        Probe(T.ComputationRecord, "conv2d", "tensor.tape_op", wrap_conv_backward),
        Probe(T.ComputationRecord, "_push", count_only="tensor.tape_ops"),
        Probe(T.ComputationRecord, "backward", "tensor.backward"),
        Probe(T, "forward_features", "tensor.infer",
              _add("tensor.infer_rows", lambda a, r: len(r))),
        Probe(T, "param_gradients", "tensor.param_gradients"),
        Probe(T, "input_gradient", "tensor.input_gradient", grad_rows),
        Probe(N, "logit_sum_graph", "network.logit_sum_graph"),
        Probe(N, "save_model", "network.save_model",
              _add("network.model_bytes_written", lambda a, r: os.path.getsize(a[0]))),
        Probe(N, "load_model", "network.load_model"),
        Probe(D, "load_idx", "data.load_idx",
              _add("data.idx_bytes", lambda a, r: os.path.getsize(a[0]) + os.path.getsize(a[1]))),
        Probe(D, "save_store", "data.save_store",
              _add("data.store_bytes_written", lambda a, r: os.path.getsize(a[1]))),
        Probe(D.PseudoNegativeStore, "samples_for", "data.samples_for"),
        Probe(TR, "reclassification_step", "trainer.retrain"),
        Probe(TR, "_val_stats", "trainer.val"),
        Probe(O, "density_update", "oracle.density_update"),
        Probe(O, "kl_divergence", "oracle.kl"),
        Probe(O, "build_grid", "oracle.build_grid"),
        Probe(O, "_grid_logits", count_only="oracle.grid_forwards"),
        Probe(R, "fgsm_perturb", "robustness.fgsm"),
        Probe(R, "predict", "robustness.predict"),
        Probe(C, "_test_error", "cli.eval"),
    ]
    probes += [Probe(T.ComputationRecord, op, "tensor.tape_op") for op in TAPE_OPS]
    probes += [Probe(C, fn, "cli.write")
               for fn in ("write_manifest", "emit_metrics", "write_pgm", "dump_images")]
    return probes, [label[c] for c in conv_in]


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(tracer, t_spawn, t_end):
    """The end-to-end figures one repetition yields; work a workload does
    not do is absent."""
    table = tracer.by_name()
    counts = tracer.counts
    out = {"wall_s": t_end - t_spawn}
    setup_end = tracer.first_start(SETUP_MARKERS)
    if setup_end is not None:
        out["setup_s"] = setup_end - t_spawn
    if table["trainer.sgd_epochs"][1] > 0:
        out["train_samples_per_s"] = counts["trainer.sgd_samples"] / table["trainer.sgd_epochs"][1]
    if table["sampler.synthesize"][1] > 0 and counts["sampler.chain_steps"]:
        out["synth_chain_steps_per_s"] = counts["sampler.chain_steps"] / table["sampler.synthesize"][1]
    pairs = table["oracle.update_identity_sides"][0]
    if pairs:
        loop = (tracer.last_end(("oracle.update_identity_sides",))
                - tracer.first_start(("network.init_binary",)))
        out["oracle_pairs_per_s"] = pairs / loop
    if table["cli.main:adversarial"][1] > 0:
        out["fgsm_samples_per_s"] = counts["robustness.eligible"] / table["cli.main:adversarial"][1]
    return out


def per_layer(tracer, conv_layers, wall_s):
    """Every per-layer metric of the traced repetition, by name."""
    table = tracer.by_name()
    counts = tracer.counts
    m = {}
    for c in conv_layers:
        m[f"tensor.conv_fwd_s.{c}"] = table[f"tensor.conv_fwd.{c}"][1]
        m[f"tensor.conv_input_grad_s.{c}"] = table[f"tensor.conv_input_grad.{c}"][1]
        # conv backward minus its input-grad child: the kernel and bias grads
        m[f"tensor.conv_kernel_grad_s.{c}"] = table[f"tensor.conv_bwd.{c}"][2]
        m[f"tensor.conv_calls.{c}"] = table[f"tensor.conv_fwd.{c}"][0]
    m["tensor.tape_ops"] = counts["tensor.tape_ops"]
    m["tensor.tape_fwd_s"] = table["tensor.tape_op"][1]
    m["tensor.backward_s"] = table["tensor.backward"][1]
    m["tensor.backward_self_s"] = table["tensor.backward"][2]
    m["tensor.infer_s"] = table["tensor.infer"][1]
    m["tensor.infer_rows"] = counts["tensor.infer_rows"]

    pairs = table["oracle.update_identity_sides"][0]
    m["network.logit_sum_graph_calls"] = table["network.logit_sum_graph"][0]
    m["network.logit_sum_graph_s"] = table["network.logit_sum_graph"][1]
    m["network.grid_forwards_per_pair"] = _ratio(counts["oracle.grid_forwards"], pairs)
    m["network.save_model_s"] = table["network.save_model"][1]
    m["network.model_bytes_written"] = counts["network.model_bytes_written"]
    m["network.load_model_s"] = table["network.load_model"][1]

    m["data.load_idx_s"] = table["data.load_idx"][1]
    m["data.idx_bytes"] = counts["data.idx_bytes"]
    m["data.save_store_s"] = table["data.save_store"][1]
    m["data.store_bytes_written"] = counts["data.store_bytes_written"]
    m["data.samples_for_s"] = table["data.samples_for"][1]

    chains = counts["sampler.chains"]
    m["sampler.chains"] = chains
    m["sampler.chain_steps"] = counts["sampler.chain_steps"]
    m["sampler.synth_s"] = table["sampler.synthesize"][1]
    m["sampler.self_s"] = table["sampler.synthesize"][2]
    m["sampler.grad_rows"] = counts["sampler.grad_rows"]
    m["sampler.grad_rows_useful_ratio"] = _ratio(counts["sampler.chain_steps"],
                                                 counts["sampler.grad_rows"])
    m["sampler.stop_threshold_ratio"] = _ratio(counts["sampler.stop.threshold"], chains)
    m["sampler.stop_max_ratio"] = _ratio(counts["sampler.stop.max_steps"], chains)
    m["sampler.non_finite_ratio"] = _ratio(counts["sampler.stop.non_finite"], chains)

    backward = tracer.durations("tensor.param_gradients")
    names = [s[0] for s in tracer.spans]
    m["trainer.sgd_steps"] = len(backward)
    m["trainer.sgd_samples"] = counts["trainer.sgd_samples"]
    m["trainer.init_s"] = sum(end - start for name, start, end, parent in tracer.spans
                              if name == "trainer.sgd_epochs"
                              and (parent < 0 or names[parent] != "trainer.retrain"))
    m["trainer.retrain_s"] = table["trainer.retrain"][1]
    m["trainer.val_s"] = table["trainer.val"][1]
    m["trainer.backward_s_p50"] = quantile(backward, 0.5) if backward else 0.0
    m["trainer.backward_s_p90"] = quantile(backward, 0.9) if backward else 0.0

    m["oracle.density_update_calls"] = table["oracle.density_update"][0]
    m["oracle.density_update_s"] = table["oracle.density_update"][1]
    m["oracle.kl_s"] = table["oracle.kl"][1]
    m["oracle.build_grid_s"] = table["oracle.build_grid"][1]
    gaps = tracer.values["oracle.identity_gap"]
    m["oracle.identity_gap_max"] = max(gaps) if gaps else 0.0

    m["robustness.fgsm_calls"] = table["robustness.fgsm"][0]
    m["robustness.fgsm_s"] = table["robustness.fgsm"][1]
    m["robustness.predict_s"] = table["robustness.predict"][1]
    m["robustness.eligible"] = counts["robustness.eligible"]

    m["cli.eval_s"] = table["cli.eval"][1]
    m["cli.artifacts_s"] = sum(end - start for name, start, end, parent in tracer.spans
                               if name in ARTIFACT_SPANS
                               and (parent < 0 or names[parent] not in ARTIFACT_SPANS))
    m["cli.snapshots_held_mb"] = counts["cli.snapshot_bytes"] / 1e6
    m["trace.top_level_coverage"] = tracer.top_level_time() / wall_s
    return m


# ---------------------------------------------------------------------------
# the repetition
# ---------------------------------------------------------------------------

def run(spec):
    t_spawn = spec["t_spawn"]
    tracer = Tracer()
    # interpreter start-up, from the parent's spawn to this line
    tracer.record("worker.start", t_spawn, clock())
    sys.path.insert(0, spec["src"])
    index = tracer.open("worker.import")
    from icnet import cli as C
    from icnet import data as D
    from icnet import network as N
    from icnet import oracle as O
    from icnet import robustness as R
    from icnet import sampler as S
    from icnet import tensor as T
    from icnet import trainer as TR
    tracer.close(index)

    result = {"statuses": [], "stdouts": [], "errors": []}
    setup_at = []
    if spec["setup_only"]:
        def reached(*args, **kwargs):
            setup_at.append(clock())
            raise SetupReached()
        TR.run_reclassification_by_synthesis = reached
        N.init_binary = reached
    else:
        install(tracer, coarse_probes(TR, S, N, O, R))
        if spec["trace"]:
            probes, conv_layers = layer_probes(T, N, D, TR, O, R, C)
            install(tracer, probes)

    for argv in spec["commands"]:
        out = io.StringIO()
        index = tracer.open(f"cli.main:{argv[0]}")
        try:
            with contextlib.redirect_stdout(out):
                status = C.main(argv)
        except SetupReached:
            status = 0
        except Exception as exc:  # a crash is a failed operation, not a bench error
            status = "exception"
            result["errors"].append(f"{argv[0]}: {type(exc).__name__}: {exc}")
        finally:
            tracer.close(index)
        result["statuses"].append(status)
        result["stdouts"].append(out.getvalue())
        if status != 0 or setup_at:
            break
    t_end = clock()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if spec["setup_only"]:
        result["setup_s"] = setup_at[0] - t_spawn if setup_at else None
        return result
    result["end_to_end"] = end_to_end(tracer, t_spawn, t_end)
    if spec["trace"]:
        result["layers"] = per_layer(tracer, conv_layers, t_end - t_spawn)
        tracer.dump(spec["spans_path"])
    return result


def main():
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = run(spec)
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
