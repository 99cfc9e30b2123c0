"""Identity fingerprint of a fixed set of small ksoftmax runs.

Digests the bundled corpus generators and `prepare_corpus`'s splits over
a grid of parameters, then runs library training (with resumes, an
`ssg mog` mixture and `reg_across_data`), a mid-epoch `train_steps`
checkpoint, K=1 steps of each kernel-ordering kind, a mixture large
enough for the kernels to run its components on parallel lanes and to
score in row tiles, a model large enough for the update to run in
several chunks on the lanes, and a handful of CLI calls (`probe` and
`curves` over the nine kinds among them) in a temporary directory, then
prints one `name digest` line per artifact, and for each checkpoint one
`name save-of-load identical|differs` line: whether saving the loaded
checkpoint reproduces its bytes.
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
from ksoftmax.kernels import KINDS

PLACEHOLDER = b"<tmp>"

# (vocab_size, n_tokens, s, seed, copy_prob): the first few tokens, the
# benchmark's 100k, one type, never and always copying, s < 0
ZIPF_GRID = ([(200, n, 1.1, 0, 0.5) for n in range(5)]
             + [(200, 100_000, 1.1, seed, 0.5) for seed in (0, 1, 2)]
             + [(10_000, 100_000, 1.1, 0, 0.5), (1, 50, 1.1, 0, 0.5),
                (50, 3000, 1.1, 3, 0.0), (50, 3000, 1.1, 3, 1.0),
                (50, 3000, -0.5, 4, 0.5), (3, 20, -3.0, 5, 0.5)])
# prepare_corpus keyword arguments: lowercase on and off, min_count 2, a
# truncating max_size and other split fractions
PREPARE_GRID = {"default": {}, "cased": {"lowercase": False},
                "min-count-2": {"min_count": 2}, "max-size-8": {"max_size": 8},
                "fractions": {"fractions": (0.5, 0.25, 0.25), "seed": 3}}

LIB_KERNELS = ("lin", "lin pow ssg hpb", "mog rbf wav log pol")
# ssg beside mog reads column 0 of the word variances they share
MIXTURE_RUNS = {"ssg_mog": dict(components=parse_kernel_list("ssg mog")),
                "across_data": dict(components=parse_kernel_list("lin pow ssg"),
                                    reg_across_data=True)}
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
                if fname.endswith(".ckpt"):
                    self.lines.append(f"{name}/{rel} save-of-load "
                                      f"{self._round_trip(path, blob)}")

    def _round_trip(self, path: str, blob: bytes) -> str:
        """Whether saving the loaded checkpoint at ``path`` gives its bytes."""
        copy_path = os.path.join(self.root, "round-trip.ckpt")
        training.save_checkpoint(training.load_checkpoint(path), copy_path)
        with open(copy_path, "rb") as f:
            same = f.read() == blob
        os.remove(copy_path)
        return "identical" if same else "differs"

    def cli(self, name: str, argv: list):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        first = (err.getvalue().splitlines() or [""])[0]
        first = self._clean(first.encode()).decode()
        self.lines.append(f"cli.{name} exit {code} stdout "
                          f"{_digest(self._clean(out.getvalue().encode()))}"
                          f" stderr {first}".rstrip())


def corpus_runs(fp: Fingerprint):
    """The corpus generators and prepare_corpus's vocabulary and splits,
    through the same public functions in any tree."""
    for V, n, s, seed, copy_prob in ZIPF_GRID:
        text = "\n".join(data.generate_zipf(V, n, s=s, seed=seed, copy_prob=copy_prob))
        fp.lines.append(f"lib.corpus.zipf.{V}.{n}.{s}.{seed}.{copy_prob} "
                        f"{_digest(text.encode())}")
    for n, seed in ((0, 0), (20_000, 0), (3000, 7)):
        text = "\n".join(data.generate_english(n, seed=seed))
        fp.lines.append(f"lib.corpus.english.{n}.{seed} {_digest(text.encode())}")
    # mixed case, repeated and tied counts, and empty lines among the zipf
    lines = (data.generate_zipf(40, 3000, seed=6)
             + ["", "  ", "The the THE a A b", "x y z", "\t", "B b c C"])
    for name, kwargs in PREPARE_GRID.items():
        vocab, split = data.prepare_corpus(lines, **{"max_size": 100, **kwargs})
        blob = repr((vocab.id_to_token, split.train, split.dev, split.test))
        fp.lines.append(f"lib.corpus.prepare.{name} {_digest(blob.encode())}")


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

    for name, fields in MIXTURE_RUNS.items():
        config = training.TrainConfig(n=2, d=4, batch_size=16, max_epochs=2,
                                      rho=0.1, seed=6, **fields)
        training.train(config, split, V, out_dir=os.path.join(fp.root, f"lib.{name}"))
        fp.files(f"lib.{name}", os.path.join(fp.root, f"lib.{name}"))

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
    os.makedirs("synth")
    fp.cli("synth-zipf", ["synth", "--vocab", "300", "--tokens", "5000",
                          "--copy-prob", "0.3", "--seed", "4", "--out", "synth/zipf.txt"])
    fp.cli("synth-english", ["synth", "--kind", "english", "--tokens", "2000",
                             "--seed", "4", "--out", "synth/english.txt"])
    fp.files("cli.synth", os.path.join(fp.root, "synth"))
    fp.cli("train-help", ["train", "--help"])
    fp.cli("train", ["train", "--corpus", "corpus.txt", "--out", "run",
                     "--kernels", "lin pow"] + FAST)
    fp.files("cli.train", os.path.join(fp.root, "run"))
    fp.cli("eval-test", ["eval", "--checkpoint", "run/best.ckpt"])
    fp.cli("eval-dev", ["eval", "--checkpoint", "run/last.ckpt",
                        "--split", "dev"])
    probe = ["probe", "--checkpoint", "run/best.ckpt", "--vocab", "run/vocab.txt",
             "--tokens", "w000,w003,w011", "--contexts", "w000 w001;w005;w013 w002",
             "--top-m", "4"]
    fp.cli("probe-stdout", probe)
    fp.cli("probe-out", probe + ["--out", "probe"])
    fp.files("cli.probe", os.path.join(fp.root, "probe"))
    fp.cli("curves", ["curves", "--kernels", ",".join(KINDS), "--xmax", "6",
                      "--steps", "50", "--out", "curves"])
    fp.files("cli.curves", os.path.join(fp.root, "curves"))
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
                corpus_runs(fp)
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
