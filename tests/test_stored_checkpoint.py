"""A stored checkpoint scores a stored split to a stored perplexity.

``stored/sgd_v202.ckpt`` is a small SGD model (V = 202, d = 32, ``pow
log``) and ``stored/sgd_v202.json`` the dev split it is scored on, the
perplexity ``eval.perplexity`` gave when the file was written, and the
numpy and OpenBLAS versions that gave it. The test requires that
perplexity exactly, so a change to the checkpoint format, to the load,
or to the bits of a scoring pass fails it. Its 512-row batches run over
``kernels.row_chunks``, so it holds the chunked product's bits too,
whatever the chunk height. The bits depend on numpy and OpenBLAS, and a
failure names both versions.

To write both files again, from the tree whose numbers they should hold:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_stored_checkpoint.py
"""

import json
import os
import subprocess
import sys

import numpy as np

from ksoftmax import data, kernels, training
from ksoftmax.kernels import KernelSpec

STORED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "stored")
CHECKPOINT = os.path.join(STORED, "sgd_v202.ckpt")
RECORD = os.path.join(STORED, "sgd_v202.json")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the child: load, score, print the perplexity's repr
SCORE = ("import json, sys\n"
         "from ksoftmax import eval, training\n"
         "state = training.load_checkpoint(sys.argv[1])\n"
         "with open(sys.argv[2]) as f:\n"
         "    print(repr(eval.perplexity(state, json.load(f)['sentences'])))\n")


def versions() -> dict:
    """The numpy and OpenBLAS versions of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = blas["version"] if "openblas" in blas["name"] else "none"
    except (TypeError, KeyError):  # numpy before 1.26 has no config dicts
        openblas = "unknown"
    return {"numpy": np.__version__, "openblas": openblas}


def score() -> str:
    """The repr of the stored checkpoint's perplexity over the stored
    split, from a child with BLAS on one thread, as the ksoftmax programs
    run it."""
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCORE, CHECKPOINT, RECORD], capture_output=True,
        text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=path, **dict.fromkeys(BLAS_THREADS, "1")))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_the_stored_checkpoint_scores_the_stored_perplexity():
    with open(RECORD) as f:
        record = json.load(f)
    here = versions()
    assert score() == record["ppl"], (
        f"stored with numpy {record['numpy']} and OpenBLAS {record['openblas']}; "
        f"this run has numpy {here['numpy']} and OpenBLAS {here['openblas']}")


def write():
    """Train 100 SGD steps on a Zipf corpus of 200 types and store the
    model, its dev split and the perplexity it scores there."""
    vocab, split = data.prepare_corpus(data.generate_zipf(200, 20_000, seed=0),
                                       max_size=202, seed=0)
    config = training.TrainConfig(components=(KernelSpec("pow"), KernelSpec("log")),
                                  optimizer="sgd", learning_rate=0.5, seed=0)
    state = training.init_state(config, vocab.V)
    training.train_steps(state, split, 100)
    os.makedirs(STORED, exist_ok=True)
    training.save_checkpoint(state, CHECKPOINT)
    with open(RECORD, "w") as f:
        json.dump({"sentences": split.dev}, f)
    record = {"ppl": score(), **versions(), "sentences": split.dev}
    with open(RECORD, "w") as f:
        json.dump(record, f, separators=(",", ":"))
        f.write("\n")
    print(f"{CHECKPOINT}: V {vocab.V}, {os.path.getsize(CHECKPOINT):,} bytes; "
          f"dev ppl {record['ppl']}")


if __name__ == "__main__":
    write()
