"""In-memory span tracer that wraps ksoftmax module attributes.

Every call that crosses a module boundary inside ksoftmax looks the callee
up as a module attribute at call time (``encoder_mod.encode``,
``kernels.forward_logits``, ...), and calls inside one module look it up in
the module's globals, which are the same dict. Replacing those attributes
with timing wrappers therefore records every such call without touching
package code. Results pass through unchanged, so a traced run computes the
same bits as an untraced one.

A span is (id, parent id, name, start, end, self seconds, info). Self time
is the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []  # [span id, seconds covered by children]
        self._next_id = 0
        self._patches = []

    # -- span bookkeeping ---------------------------------------------------

    def _begin(self):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, 0.0])
        return span_id, time.perf_counter()

    def _end(self, span_id, t0, t1, name, info):
        _, child = self._stack.pop()
        dur = t1 - t0
        parent = -1
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][1] += dur
        self.spans.append((span_id, parent, name, t0, t1, dur - child, info))

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, fn, name, info_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            span_id, t0 = self._begin()
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter()
                info = info_of(args, kwargs, result) if info_of and done else None
                self._end(span_id, t0, t1, label, info)
        return traced

    def _wrap_generator(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen_id = self._next_id
            self._next_id += 1
            inner = fn(*args, **kwargs)
            while True:
                span_id, t0 = self._begin()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._end(span_id, t0, time.perf_counter(), name,
                              {"gen": gen_id})
                yield item
        return traced

    def patch(self, module, attr, name=None, info_of=None, generator=False):
        original = getattr(module, attr)
        label = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if generator:
            wrapper = self._wrap_generator(original, label)
        else:
            wrapper = self._wrap_call(original, label, info_of)
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def unpatch(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # -- queries ------------------------------------------------------------

    def by_name(self):
        out = {}
        for span in self.spans:
            out.setdefault(span[2], []).append(span)
        return out

    def write(self, path):
        """One JSON array per line: id, parent, name, start, end, self, info."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def install(tracer):
    """Wrap every layer boundary the workloads cross. Returns the tracer."""
    from ksoftmax import data, encoder, eval as eval_mod, kernels
    from ksoftmax import output_layer, training

    def kernel_name(fn):
        return lambda args: f"kernels.{fn}.{args[0].kind}"

    def gemm_work(args, kwargs, result):
        W, H = args[1], args[2]
        d, V = W.shape
        B = H.shape[0]
        return {"flops": 2 * B * d * V, "logit_bytes": 8 * B * V}

    def lsm_work(args, kwargs, result):
        config, H = args[0], args[2]
        return {"lsm_bytes": 8 * config.K * len(H) * config.V}

    def examples_input(args, kwargs, result):
        return {"input": id(args[0])}

    def checkpoint_bytes(args, kwargs, result):
        return {"bytes": os.path.getsize(args[1])}

    tracer.patch(data, "generate_zipf")
    tracer.patch(data, "prepare_corpus")
    tracer.patch(data, "make_examples", info_of=examples_input)
    tracer.patch(data, "batch_windows", generator=True)
    tracer.patch(encoder, "encode")
    tracer.patch(encoder, "encode_backward")
    tracer.patch(kernels, "forward_logits", name=kernel_name("forward_logits"),
                 info_of=gemm_work)
    tracer.patch(kernels, "backward_logits", name=kernel_name("backward_logits"))
    tracer.patch(output_layer, "_forward", info_of=lsm_work)
    tracer.patch(output_layer, "loss")
    tracer.patch(output_layer, "backward")
    tracer.patch(training, "init_state")
    tracer.patch(training, "train")
    tracer.patch(training, "train_step")
    tracer.patch(training, "clip_gradients")
    tracer.patch(training, "save_checkpoint", info_of=checkpoint_bytes)
    tracer.patch(training, "load_checkpoint")
    tracer.patch(eval_mod, "mean_nll_and_pi")
    tracer.patch(eval_mod, "perplexity")
    return tracer
