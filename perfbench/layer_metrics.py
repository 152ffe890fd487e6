"""Per-layer metrics derived from one traced pass.

Every name in ``PER_LAYER`` is reported on every workload.  A time is 0 and
a count is 0 where the workload never calls that layer.  "Per forward" means
per outermost ``Model.forward`` or ``csec_correct`` span; "per unit" means
per unit of the workload's throughput (training sample, evaluated image,
training pair, oracle pass).
"""

from tracer import LAYERS, SpanTable

TENSOR_OPS = ("matmul", "linear", "layer_norm", "softmax", "cross_entropy", "conv2d",
              "upsample_nearest", "add")
CSEC_FNS = ("offset_conv", "cose_forward", "como_fuse", "sym_norm", "decode")
SUITES = ("tensor", "rope", "csec", "segnet")

PER_LAYER = (
    [("tensor.backward_ms", "ms"), ("tensor.op_calls_per_forward", "count")]
    + [(f"tensor.{op}_ms", "ms") for op in TENSOR_OPS]
    + [("rope.attention_ms", "ms"), ("rope.attention_calls_per_forward", "count"),
       ("segnet.forward_self_ms", "ms"), ("segnet.predict_ms", "ms"), ("segnet.score_ms", "ms"),
       ("optim.step_ms", "ms"), ("optim.steps", "count")]
    + [(f"csec.{fn}_ms", "ms") for fn in CSEC_FNS]
    + [("csec.offset_conv_calls", "count"),
       ("denoise.pixel_error_rate_ms", "ms"), ("denoise.filter_ms", "ms"),
       ("denoise.drop_precision", "ratio"), ("denoise.drop_recall", "ratio"),
       ("metrics.update_ms", "ms"),
       ("dataio.read_pnm_ms", "ms"), ("dataio.read_bytes", "B"), ("dataio.load_manifest_ms", "ms"),
       ("checkpoint.load_ms", "ms"), ("cli.eval_self_ms", "ms")]
    + [(f"gradcheck.suite_s.{s}", "s") for s in SUITES]
    + [("gradcheck.loss_evals", "count"), ("gradcheck.forward_ms", "ms")]
    + [(f"module_self_s.{layer}", "s") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
       ("trace.overhead_share", "ratio"), ("trace.coverage", "ratio"), ("trace.spans", "count")]
)

# spans a gradient-oracle loss evaluation runs directly under, and the calls
# that end one (every suite's loss lambda returns one of these)
_ORACLE_PARENTS = ("gradcheck.run_suite", "gradcheck.check_function", "tensor.finite_diff_grad")
_LOSS_CALLS = ("tensor.tsum", "tensor.cross_entropy", "csec.mse_loss")
_NOT_FORWARD = _ORACLE_PARENTS + ("tensor.Tensor.backward", "tensor.rel_error",
                                  "segnet.build_model", "csec.init_csec", "rope.freq_table")


def derive(tracer, units, extra, untraced_wall_s, traced_wall_s):
    """Every PER_LAYER metric as name -> (value, unit).

    ``tracer`` holds the last traced pass; the wall times are medians over the
    alternating untraced and traced passes of the same work.
    """
    t = SpanTable(tracer)
    fwd = t.outermost(t.mask("segnet.Model.forward", "csec.csec_correct"))

    def per_forward(mask):
        return t.inside(mask, fwd) / len(fwd) if len(fwd) else 0.0

    def per_unit(x):
        return x / units if units else 0.0

    v = {
        "tensor.backward_ms": t.incl_ms("tensor.Tensor.backward"),
        "tensor.op_calls_per_forward": per_forward(
            t.mask_layer("tensor") & ~t.mask("tensor.Tensor.backward")),
    }
    for op in TENSOR_OPS:
        v[f"tensor.{op}_ms"] = t.self_ms(f"tensor.{op}")
    scored = int((t.children_of(t.mask("segnet.score_samples")) & t.mask("segnet.predict")).sum())
    v.update({
        "rope.attention_ms": t.self_ms("rope.rope_attention"),
        "rope.attention_calls_per_forward": per_forward(t.mask("rope.rope_attention")),
        "segnet.forward_self_ms": t.self_ms("segnet.Model.forward"),
        "segnet.predict_ms": t.incl_ms("segnet.predict"),
        "segnet.score_ms": 1e3 * t.total_s("segnet.score_samples") / scored if scored else 0.0,
        "optim.step_ms": t.incl_ms("optim.Adam.step"),
        "optim.steps": per_unit(t.count("optim.Adam.step")),
    })
    for fn in CSEC_FNS:
        v[f"csec.{fn}_ms"] = t.self_ms(f"csec.{fn}")
    v.update({
        "csec.offset_conv_calls": per_forward(t.mask("csec.offset_conv")),
        "denoise.pixel_error_rate_ms": t.incl_ms("denoise.pixel_error_rate"),
        "denoise.filter_ms": t.incl_ms("denoise.filter_dataset"),
        "denoise.drop_precision": extra.get("drop_precision", 0.0),
        "denoise.drop_recall": extra.get("drop_recall", 0.0),
        "metrics.update_ms": t.incl_ms("metrics.ConfusionMatrix.update"),
        "dataio.read_pnm_ms": t.incl_ms("dataio.read_pnm"),
        "dataio.read_bytes": per_unit(tracer.read_bytes),
        "dataio.load_manifest_ms": t.incl_ms("dataio.load_manifest"),
        "checkpoint.load_ms": t.incl_ms("checkpoint.load_checkpoint"),
        "cli.eval_self_ms": t.self_ms("cli.cmd_eval"),
    })
    for s in SUITES:
        v[f"gradcheck.suite_s.{s}"] = t.total_s(f"bench.suite.{s}")
    under_oracle = t.children_of(t.mask(*_ORACLE_PARENTS))
    loss_evals = int((under_oracle & t.mask(*_LOSS_CALLS)).sum())
    forward_s = float(t.dur[under_oracle & ~t.mask(*_NOT_FORWARD)].sum())
    v["gradcheck.loss_evals"] = loss_evals
    v["gradcheck.forward_ms"] = 1e3 * forward_s / loss_evals if loss_evals else 0.0

    covered = 0.0
    for layer in LAYERS:
        v[f"module_self_s.{layer}"] = t.layer_self_s(layer)
        covered += v[f"module_self_s.{layer}"]
    overhead = traced_wall_s - untraced_wall_s
    v.update({
        "trace.wall_s": traced_wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / untraced_wall_s,
        "trace.coverage": covered / t.total_s("bench.pass"),
        "trace.spans": len(t),
    })
    return {name: (float(v[name]), unit) for name, unit in PER_LAYER}
