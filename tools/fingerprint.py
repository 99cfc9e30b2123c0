"""Identity fingerprint of a fixed set of small ksoftmax runs.

Runs library training (with resumes), a mid-epoch `train_steps`
checkpoint, K=1 steps of each kernel-ordering kind, a mixture large
enough for the kernels to run its components on parallel lanes and to
score in row tiles, a model large enough for the update to run in
several chunks on the lanes, and a handful of CLI calls in a temporary
directory, then prints one `name digest` line per artifact.
Each CLI call also prints its exit code, a digest of its stdout and its
first stderr line. The timestamped `# started` line of `run.log` is
dropped and the temporary root is replaced by `<tmp>`, so two runs of the
same code print the same lines. BLAS runs on one thread whatever the
environment says, since trained bits depend on the thread count.
Comparing two trees:

    diff <(PYTHONPATH=<other>/src python tools/fingerprint.py) \\
         <(PYTHONPATH=src python tools/fingerprint.py)
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import os
import sys
import tempfile

# before numpy loads, which reads the thread count once
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np

from ksoftmax import cli, data, training
from ksoftmax import eval as eval_mod
from ksoftmax.cli import parse_kernel_list

PLACEHOLDER = b"<tmp>"

LIB_KERNELS = ("lin", "lin pow ssg hpb", "mog rbf wav log pol")
FAST = ["--n", "2", "--d", "4", "--batch-size", "16", "--max-epochs", "2",
        "--vocab-size", "20", "--seed", "0"]


def _digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


class Fingerprint:
    def __init__(self, root: str):
        self.root = root
        self.lines = []

    def _clean(self, blob: bytes) -> bytes:
        return blob.replace(os.fsencode(self.root), PLACEHOLDER)

    def files(self, name: str, directory: str):
        """One line per file under ``directory``, in sorted path order."""
        for dirpath, dirnames, filenames in os.walk(directory):
            dirnames.sort()
            for fname in sorted(filenames):
                path = os.path.join(dirpath, fname)
                with open(path, "rb") as f:
                    blob = f.read()
                if fname == "run.log":
                    blob = b"".join(line for line in blob.splitlines(True)
                                    if not line.startswith(b"# started"))
                rel = os.path.relpath(path, directory).replace(os.sep, "/")
                self.lines.append(f"{name}/{rel} {_digest(self._clean(blob))}")

    def cli(self, name: str, argv: list):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        first = (err.getvalue().splitlines() or [""])[0]
        first = self._clean(first.encode()).decode()
        self.lines.append(f"cli.{name} exit {code} stdout "
                          f"{_digest(self._clean(out.getvalue().encode()))}"
                          f" stderr {first}".rstrip())


def library_runs(fp: Fingerprint, split, V: int):
    for kinds in LIB_KERNELS:
        for optimizer in ("adam", "sgd"):
            config = training.TrainConfig(
                components=parse_kernel_list(kinds), n=2, d=4, batch_size=16,
                max_epochs=2, optimizer=optimizer, rho=0.1, seed=3)
            name = f"lib.{kinds.replace(' ', '_')}.{optimizer}"
            out = os.path.join(fp.root, name)
            training.train(config, split, V, out_dir=out)
            state = training.load_checkpoint(os.path.join(out, "last.ckpt"))
            training.train(config, split, V, out_dir=out, state=state,
                           max_epochs=3)
            fp.files(name, out)

    config = training.TrainConfig(components=parse_kernel_list("lin pow"),
                                  n=2, d=4, batch_size=16, seed=1)
    state = training.init_state(config, V)
    batches = data.num_batches(split.train, config.batch_size)
    training.train_steps(state, split, batches + batches // 2)
    out = os.path.join(fp.root, "lib.train_steps")
    os.makedirs(out)
    training.save_checkpoint(state, os.path.join(out, "mid.ckpt"))
    resumed = training.load_checkpoint(os.path.join(out, "mid.ckpt"))
    training.train_steps(resumed, split, batches)
    training.save_checkpoint(resumed, os.path.join(out, "resumed.ckpt"))
    fp.files("lib.train_steps", out)


def k1_runs(fp: Fingerprint, split, V: int):
    """Steps of each kind the kernel-ordering test trains as the only
    softmax (K = 1), then a checkpoint and a dev perplexity, whose scoring
    pass mixes at the targets."""
    out = os.path.join(fp.root, "lib.k1")
    os.makedirs(out)
    for kind in ("pow", "log", "rbf", "wav"):
        config = training.TrainConfig(components=parse_kernel_list(kind),
                                      n=2, d=8, batch_size=16, seed=5)
        state = training.init_state(config, V)
        training.train_steps(state, split, 40)
        training.save_checkpoint(state, os.path.join(out, f"{kind}.ckpt"))
        fp.lines.append(f"lib.k1.{kind}.dev_ppl "
                        f"{eval_mod.perplexity(state, split.dev).hex()}")
    fp.files("lib.k1", out)


def lane_run(fp: Fingerprint):
    """K=4 steps with B x V = 64 x 1,026 elements per component, enough for
    lanes, and a dev evaluation at B = 512, whose scoring pass runs each
    component over 9 row tiles a batch: the lines must not change when
    the process is pinned to one CPU, which leaves one lane."""
    vocab, split = data.prepare_corpus(data.generate_zipf(1200, 20000, seed=1),
                                       max_size=1026, seed=0)
    config = training.TrainConfig(components=parse_kernel_list("lin pow ssg hpb"),
                                  n=2, d=8, batch_size=64, rho=0.1, seed=2)
    state = training.init_state(config, vocab.V)
    training.train_steps(state, split, 12)
    out = os.path.join(fp.root, "lib.lanes")
    os.makedirs(out)
    training.save_checkpoint(state, os.path.join(out, "steps.ckpt"))
    fp.files("lib.lanes", out)
    fp.lines.append(f"lib.lanes.dev_ppl {eval_mod.perplexity(state, split.dev).hex()}")


def chunk_run(fp: Fingerprint):
    """K=4 steps of a model with 136,851 parameters (V = 4,098 and d = 16,
    so E and W hold 65,568 elements each): the update runs over three
    chunks, clipping squares the tensors on the lanes, and every step
    clips. Under Adam and SGD, each then resumed from its checkpoint, with
    a deep copy of the resumed state trained alongside it. The lines must
    not change when the process is pinned to one CPU, which leaves one
    lane."""
    vocab, split = data.prepare_corpus(data.generate_zipf(8000, 60000, seed=2),
                                       max_size=4098, seed=0)
    out = os.path.join(fp.root, "lib.chunks")
    os.makedirs(out)
    for optimizer in ("adam", "sgd"):
        config = training.TrainConfig(components=parse_kernel_list("lin pow ssg hpb"),
                                      n=2, d=16, clip_norm=0.05, optimizer=optimizer,
                                      rho=0.1, seed=4)
        state = training.init_state(config, vocab.V)
        training.train_steps(state, split, 4)
        path = os.path.join(out, f"{optimizer}.ckpt")
        training.save_checkpoint(state, path)
        resumed = training.load_checkpoint(path)
        for name, run in (("resumed", resumed), ("copied", copy.deepcopy(resumed))):
            training.train_steps(run, split, 3)
            training.save_checkpoint(run, os.path.join(out, f"{optimizer}.{name}.ckpt"))
    fp.files("lib.chunks", out)


def cli_runs(fp: Fingerprint):
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal
    fp.cli("train-help", ["train", "--help"])
    fp.cli("train", ["train", "--corpus", "corpus.txt", "--out", "run",
                     "--kernels", "lin pow"] + FAST)
    fp.files("cli.train", os.path.join(fp.root, "run"))
    fp.cli("eval-test", ["eval", "--checkpoint", "run/best.ckpt"])
    fp.cli("eval-dev", ["eval", "--checkpoint", "run/last.ckpt",
                        "--split", "dev"])
    fp.cli("grid", ["grid", "--corpus", "corpus.txt", "--out", "grid",
                    "--kernels", "lin pow", "--grid", "rho=0.01,0.1;d=4,6"]
           + FAST)
    fp.files("cli.grid", os.path.join(fp.root, "grid"))
    fp.cli("diverge", ["train", "--corpus", "corpus.txt", "--out", "diverge",
                       "--kernels", "pol(p=3)", "--optimizer", "sgd",
                       "--learning-rate", "1e8", "--clip-norm", "1e300"] + FAST)
    fp.files("cli.diverge", os.path.join(fp.root, "diverge"))
    fp.cli("gradcheck", ["gradcheck", "--kernel", "lin,rbf,mog", "--dims", "2,3",
                         "--trials", "3", "--seed", "0"])
    fp.cli("gradcheck-bad-kind", ["gradcheck", "--kernel", "lin,xyz",
                                  "--dims", "2", "--trials", "2"])
    fp.cli("bad-config-d-e", ["train", "--corpus", "corpus.txt", "--out", "bad",
                              "--d-e", "0"] + FAST)
    fp.cli("bad-config-kernel", ["train", "--corpus", "corpus.txt", "--out", "bad",
                                 "--kernels", "rbf(a=2)"] + FAST)
    fp.cli("bad-config-rho", ["train", "--corpus", "corpus.txt",
                              "--out", "bad", "--rho", "-1"] + FAST)
    fp.cli("bad-grid-value", ["grid", "--corpus", "corpus.txt", "--out", "bad",
                              "--grid", "rho=abc"] + FAST)
    fp.cli("bad-grid-field", ["grid", "--corpus", "corpus.txt", "--out", "bad",
                              "--grid", "de=3"] + FAST)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.realpath(tmp)
        fp = Fingerprint(root)
        lines = data.generate_zipf(15, 800, seed=0)
        data.save_lines(lines, os.path.join(root, "corpus.txt"))
        vocab, split = data.prepare_corpus(lines, max_size=20, seed=0)
        cwd = os.getcwd()
        os.chdir(root)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                library_runs(fp, split, vocab.V)
                k1_runs(fp, split, vocab.V)
                lane_run(fp)
                chunk_run(fp)
                cli_runs(fp)
        finally:
            os.chdir(cwd)
    sys.stdout.write("".join(line + "\n" for line in fp.lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
