"""Per-layer metrics computed from a Tracer's spans.

Names are ``<module>.<function>[.<kernel kind>].<statistic>``. A statistic
of a function the workload never calls is 0, so every traced run reports
the same set of metrics. ``computed_*`` figures are work counts derived
from array shapes, not measurements.
"""

from __future__ import annotations

from workloads import median

DUR, SELF = "dur", "self"


def per_layer(tracer, kinds, overhead_pct: float) -> dict:
    spans = tracer.by_name()

    def values(name, what=DUR, scale=1e3):
        rows = spans.get(name, [])
        return [((s[4] - s[3]) if what == DUR else s[5]) * scale for s in rows]

    def med(name, what=DUR, scale=1e3):
        vals = values(name, what, scale)
        return median(vals) if vals else 0.0

    def info(name, key):
        return [s[6][key] for s in spans.get(name, []) if s[6]]

    m = {}
    m["data.generate_zipf.s"] = (med("data.generate_zipf", scale=1.0), "s")
    m["data.prepare_corpus.s"] = (med("data.prepare_corpus", scale=1.0), "s")
    calls = len(spans.get("data.make_examples", []))
    inputs = len(set(info("data.make_examples", "input")))
    m["data.make_examples.calls"] = (calls, "count")
    m["data.make_examples.calls_per_input"] = (calls / inputs if inputs else 0.0, "ratio")
    m["data.make_examples.ms"] = (med("data.make_examples"), "ms")
    per_gen = {}
    for s in spans.get("data.batch_windows", []):
        per_gen[s[6]["gen"]] = per_gen.get(s[6]["gen"], 0.0) + (s[4] - s[3]) * 1e3
    m["data.batch_windows.ms"] = (median(per_gen.values()) if per_gen else 0.0, "ms")

    m["encoder.encode.ms_p50"] = (med("encoder.encode"), "ms")
    m["encoder.encode_backward.ms_p50"] = (med("encoder.encode_backward"), "ms")

    for kind in kinds:
        fwd = f"kernels.forward_logits.{kind}"
        m[f"{fwd}.ms_p50"] = (med(fwd), "ms")
        m[f"kernels.backward_logits.{kind}.ms_p50"] = (
            med(f"kernels.backward_logits.{kind}"), "ms")
        flops = info(fwd, "flops")
        logit_bytes = info(fwd, "logit_bytes")
        m[f"{fwd}.computed_mflop_per_call"] = (
            median(flops) / 1e6 if flops else 0.0, "MFLOP")
        m[f"{fwd}.computed_logit_mb_per_call"] = (
            median(logit_bytes) / 1e6 if logit_bytes else 0.0, "MB")

    lsm_bytes = info("output_layer._forward", "lsm_bytes")
    m["output_layer._forward.computed_lsm_mb_per_call"] = (
        median(lsm_bytes) / 1e6 if lsm_bytes else 0.0, "MB")
    m["output_layer._forward.self_ms_p50"] = (med("output_layer._forward", SELF), "ms")
    m["output_layer.loss.self_ms_p50"] = (med("output_layer.loss", SELF), "ms")
    m["output_layer.backward.self_ms_p50"] = (med("output_layer.backward", SELF), "ms")

    m["training.train_step.self_ms_p50"] = (med("training.train_step", SELF), "ms")
    m["training.clip_gradients.ms_p50"] = (med("training.clip_gradients"), "ms")
    m["training.save_checkpoint.ms"] = (med("training.save_checkpoint"), "ms")
    ckpt_bytes = info("training.save_checkpoint", "bytes")
    m["training.save_checkpoint.bytes"] = (median(ckpt_bytes) if ckpt_bytes else 0, "bytes")
    m["training.load_checkpoint.ms"] = (med("training.load_checkpoint"), "ms")

    m["eval.mean_nll_and_pi.self_ms"] = (med("eval.mean_nll_and_pi", SELF), "ms")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    return m
