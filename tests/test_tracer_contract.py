"""The benchmark's span tracer wraps package functions by attribute name.

perfbench/spans.py patches module attributes such as training.train_step
and output_layer.backward; a renamed or deleted function breaks the
benchmark. This loads the tracer from its file and checks that every
attribute it patches exists and is restored by unpatch().
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_unpatch_restores_every_attribute():
    spans = load_spans()
    tracer = spans.install(spans.Tracer())
    patched = list(tracer._patches)
    assert patched
    for module, attr, original in patched:
        assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    tracer.unpatch()
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
