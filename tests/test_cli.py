import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksoftmax import cli, data, training
from ksoftmax import eval as eval_mod
from ksoftmax.cli import parse_kernel_list
from ksoftmax.errors import CorruptCheckpoint, KsoftmaxError
from ksoftmax.kernels import KERNELS, KINDS, KernelSpec


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "toy.txt"
    data.save_lines(data.generate_zipf(15, 800, seed=0), path)
    return str(path)


FAST = ["--n", "2", "--d", "4", "--batch-size", "16", "--max-epochs", "2",
        "--vocab-size", "20", "--seed", "0"]


def run_python(args, unset=(), **env):
    """``python args`` in a new process, with this package's source first
    on its path, the variables ``unset`` removed from its environment and
    ``env`` added to it."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = dict(os.environ, PYTHONPATH=path, **env)
    for name in unset:
        child.pop(name, None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, env=child)


def run_process(argv, python_flags=()):
    """``python -m ksoftmax argv`` in a new process, as run_python."""
    return run_python([*python_flags, "-m", "ksoftmax", *argv])


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBlasThreads:
    # the module behind ``python -m ksoftmax`` and the ``ksoftmax`` script
    # sets BLAS to one thread before numpy loads, unless the environment
    # sets a count; importing the cli leaves the environment alone
    PROBE = ("import os, sys, ksoftmax\n"
             "assert 'numpy' not in sys.modules\n"
             "import ksoftmax.{}\n"
             "print(*(os.environ.get(n) for n in {}))")

    @pytest.mark.parametrize("module, preset, expected", [
        ("__main__", None, "1"), ("__main__", "2", "2"), ("cli", None, "None"),
    ], ids=["unset", "user-set", "cli-import"])
    def test_thread_counts_in_a_new_process(self, module, preset, expected):
        env = dict.fromkeys(BLAS_THREADS, preset) if preset else {}
        proc = run_python(["-c", self.PROBE.format(module, BLAS_THREADS)],
                          unset=() if preset else BLAS_THREADS, **env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [expected] * 3

    def test_the_script_runs_the_entry_point(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
        with open(path, encoding="utf-8") as f:
            assert 'ksoftmax = "ksoftmax.__main__:main"' in f.read()


class TestKernelListParsing:
    def test_plain_and_repeated_and_parameterized(self):
        specs = parse_kernel_list("lin 3*pow(p=2) rbf(gamma=0.5)")
        assert len(specs) == 5
        assert specs[0] == KernelSpec("lin")
        assert specs[1] == specs[2] == specs[3] == KernelSpec("pow", p=2.0)
        assert specs[4] == KernelSpec("rbf", gamma=0.5)

    def test_multiple_fields(self):
        (spec,) = parse_kernel_list("wav(a=2,b=3)")
        assert spec.a == 2.0 and spec.b == 3.0

    @pytest.mark.parametrize("text", ["rbf,wav(a=2, b=3)", "rbf,wav(a=2,b=3)",
                                      " rbf ,\twav( a=2 , b=3 ) "])
    def test_commas_outside_parentheses_separate_kernels(self, text):
        assert parse_kernel_list(text) == (KernelSpec("rbf"), KernelSpec("wav", a=2.0, b=3.0))

    @pytest.mark.parametrize("bad", [
        "", "xyz", "pow(q=1)", "2*", "pow(p=oops)", "lin()extra",
        "ssg(learn_variances=false)", "rbf(a=2)", "ssg(num_gauss=4)",
        "mog(mog_log_of_sum=ture)", "lin 0*pow", "0*lin", "00*rbf",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(KsoftmaxError):
            parse_kernel_list(bad)


class TestTrainEvalPipeline:
    def test_train_then_eval(self, tmp_path, corpus_file, capsys):
        out = str(tmp_path / "run")
        code = cli.run(["train", "--corpus", corpus_file, "--out", out] + FAST)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "best dev ppl" in captured.out
        for name in ("metrics.csv", "best.ckpt", "last.ckpt", "vocab.txt",
                     "effective_config.ini", "run.log"):
            assert os.path.exists(os.path.join(out, name)), name

        code = cli.run(["eval", "--checkpoint", os.path.join(out, "best.ckpt"),
                        "--split", "test"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        lines = [l for l in captured.out.splitlines() if l.strip()]
        assert len(lines) == 1
        assert lines[0].startswith("test ppl ")
        float(lines[0].rsplit(" ", 1)[1])  # parses as a number

    def test_train_takes_a_kernel_list_with_commas(self, tmp_path, corpus_file, capsys):
        out = tmp_path / "run"
        assert cli.run(["train", "--corpus", corpus_file, "--out", str(out),
                        "--kernels", "rbf,wav(a=2, b=3)"] + FAST) == 0, capsys.readouterr().err
        config = training.load_checkpoint(out / "best.ckpt").config
        assert config.components == (KernelSpec("rbf"), KernelSpec("wav", a=2.0, b=3.0))

    def test_config_file_with_flag_override(self, tmp_path, corpus_file,
                                            capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[mixture]\nkernels = lin pow\nrho = 0.1\n"
            "[training]\nn = 2\nd = 4\nmax_epochs = 1\nbatch_size = 16\n"
            f"seed = 0\n[data]\ncorpus = {corpus_file}\nvocab_size = 20\n")
        out = str(tmp_path / "run")
        code = cli.run(["train", "--config", str(cfg), "--out", out,
                        "--max-epochs", "2"])
        assert code == 0, capsys.readouterr().err
        echoed = (tmp_path / "run" / "effective_config.ini").read_text()
        assert "max_epochs = 2" in echoed  # flag wins over file
        assert "kernels = lin pow" in echoed
        metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("epoch,") and "pi_mean_2" in metrics[0]

    def test_identical_invocations_are_byte_identical(self, tmp_path,
                                                      corpus_file, capsys):
        args = ["train", "--corpus", corpus_file] + FAST
        assert cli.run(args + ["--out", str(tmp_path / "a")]) == 0
        assert cli.run(args + ["--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        for name in ("metrics.csv", "best.ckpt", "vocab.txt"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_divergence_exit_code(self, tmp_path, corpus_file, capsys):
        import numpy as np
        with np.errstate(over="ignore"):
            code = cli.run(["train", "--corpus", corpus_file,
                            "--out", str(tmp_path / "run"),
                            "--kernels", "pol(p=3)", "--optimizer", "sgd",
                            "--learning-rate", "1e8", "--clip-norm", "1e300"]
                           + FAST)
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    def test_run_with_no_finite_dev_ppl_exits_2(self, tmp_path, capsys):
        # every epoch's dev perplexity overflows to inf while loss and
        # gradients stay finite
        corpus = str(tmp_path / "corpus.txt")
        assert cli.run(["synth", "--vocab", "30", "--tokens", "800", "--seed", "1",
                        "--out", corpus]) == 0
        code = cli.run(["train", "--corpus", corpus, "--out", str(tmp_path / "run"),
                        "--kernels", "pol(p=3,c=5)", "--learning-rate", "50",
                        "--max-epochs", "6"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert err.startswith("diverged:")
        assert (tmp_path / "run" / "last.ckpt").exists()
        assert not (tmp_path / "run" / "best.ckpt").exists()


def _set_header(field, value):
    return lambda lines, body: (
        [field + b" " + value if l.startswith(field + b" ") else l for l in lines],
        body)


# each corruption maps (header lines before "end", body) to a malformed pair
CHECKPOINT_CORRUPTIONS = {
    "missing-tensor-line": lambda lines, body: (
        [l for l in lines if not l.startswith(b"tensor out.W ")], body),
    "missing-header-field": lambda lines, body: (
        [l for l in lines if not l.startswith(b"epoch ")], body),
    "one-token-magic-line": lambda lines, body: ([b"ksoftmax-checkpoint"] + lines[1:], body),
    "trailing-bytes": lambda lines, body: (lines, body + bytes(8)),
    "wrong-tensor-shape": lambda lines, body: (
        [b"tensor out.W 1" if l.startswith(b"tensor out.W ") else l for l in lines], body),
    "truncated-body": lambda lines, body: (lines, body[:-8]),
    "negative-epoch": _set_header(b"epoch", b"-1"),
    "negative-step": _set_header(b"step", b"-1"),
    "negative-step-in-epoch": _set_header(b"step_in_epoch", b"-3"),
    "nan-best-dev-ppl": _set_header(b"best_dev_ppl", b"nan"),
    "zero-best-dev-ppl": _set_header(b"best_dev_ppl", b"0.0"),
    "adam-t-disagrees-with-step": _set_header(b"adam_t", b"0"),
    "unread-kernel-field": lambda lines, body: (
        [l.replace(b'"a": 1.0', b'"a": 2.0') for l in lines], body),
    # lin's entry made pol's, whose p and c must be finite
    "infinite-pol-p": lambda lines, body: (
        [l.replace(b'"lin"', b'"pol"').replace(b'"p": 2.0', b'"p": Infinity')
         for l in lines], body),
    "nan-pol-c": lambda lines, body: (
        [l.replace(b'"lin"', b'"pol"').replace(b'"c": 1.0', b'"c": NaN') for l in lines],
        body),
}
# what a corruption's error must say about the field it broke
CORRUPT_FIELDS = {
    "negative-epoch": "epoch -1", "negative-step": "step -1",
    "negative-step-in-epoch": "step_in_epoch -3",
    "nan-best-dev-ppl": "best_dev_ppl nan", "zero-best-dev-ppl": "best_dev_ppl 0.0",
    "adam-t-disagrees-with-step": "adam_t 0", "unread-kernel-field": "kernel field",
    "infinite-pol-p": "p must be finite, got inf", "nan-pol-c": "c must be finite, got nan",
}


@pytest.fixture(scope="module")
def trained(tmp_path_factory, corpus_file):
    out = tmp_path_factory.mktemp("trained")
    assert cli.run(["train", "--corpus", corpus_file, "--out", str(out)]
                   + FAST) == 0
    return out


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("corruption", sorted(CHECKPOINT_CORRUPTIONS))
    def test_eval_rejects_with_exit_1(self, trained, corruption, capsys):
        head, body = (trained / "best.ckpt").read_bytes().split(b"\nend\n", 1)
        lines, body = CHECKPOINT_CORRUPTIONS[corruption](head.split(b"\n"), body)
        path = trained / f"{corruption}.ckpt"
        path.write_bytes(b"\n".join(lines) + b"\nend\n" + body)
        capsys.readouterr()
        assert cli.run(["eval", "--checkpoint", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and corruption in captured.err
        if corruption in CORRUPT_FIELDS:
            message = captured.err.split(".ckpt: ", 1)[1]
            assert CORRUPT_FIELDS[corruption] in message


# a child that caps its own address space, so that a load that allocates
# what a header promises fails fast instead of paging the host
CAPPED = ("import resource, runpy, sys\n"
          "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n")


class TestOversizedHeader:
    # a header whose V or d promises gigabytes of tensors that the body
    # does not hold
    PROMISES = {"V": (rb"\nV \d+\n", b"\nV 10000000000\n"),
                "d": (rb'"d": \d+,', b'"d": 100000000,')}

    @pytest.fixture(params=[(f, s) for f in PROMISES for s in ("as-saved", "promised")],
                    ids="-".join)
    def oversized(self, request, trained, tmp_path):
        """A copy of a trained checkpoint whose header promises more. Its
        tensor lines are as saved, or the shapes the header promises, so
        that only the body's length disagrees."""
        field, shapes = request.param
        head, body = (trained / "best.ckpt").read_bytes().split(b"\nend\n", 1)
        head, count = re.subn(*self.PROMISES[field], head)
        assert count == 1
        lines = head.split(b"\n")
        if shapes == "promised":
            config = training.TrainConfig.from_dict(json.loads(lines[1].split(b" ", 1)[1]))
            V = int(next(l for l in lines if l.startswith(b"V "))[2:])
            lines = [l for l in lines if not l.startswith(b"tensor ")] + [
                f"tensor {name} {' '.join(map(str, shape))}".encode()
                for name, shape in training._checkpoint_shapes(config, V)]
        path = tmp_path / "oversized.ckpt"
        path.write_bytes(b"\n".join(lines) + b"\nend\n" + body)
        return path

    def test_load_raises_corrupt_checkpoint(self, oversized):
        proc = run_python(["-c", CAPPED + (
            "from ksoftmax import training\n"
            "try:\n"
            "    training.load_checkpoint(sys.argv[1])\n"
            "except Exception as e:\n"
            "    print(type(e).__name__)\n"), str(oversized)])
        assert proc.stdout.strip() == "CorruptCheckpoint", proc.stderr

    def test_eval_exits_1_without_a_traceback(self, oversized):
        proc = run_python(["-c", CAPPED + (
            "sys.argv[1:] = ['eval', '--checkpoint', sys.argv[1]]\n"
            "runpy.run_module('ksoftmax', run_name='__main__')\n"), str(oversized)])
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr


class TestOversizedRun:
    # a model or profile asked for by flags that the capped child cannot
    # hold, or whose size a mapping cannot represent
    @pytest.mark.parametrize("argv, message", [
        (["curves", "--kernels", "mog(num_gauss=100000)", "--steps", "3"],
         "error: Unable to allocate"),
        (["train", "--d", "100000000"], "error: cannot map "),
        (["train", "--d", "10000000000"], "error: cannot map "),
        (["grid", "--grid", "d=100000000"], "error: cannot map "),
    ], ids=["curves-mog", "train-d-1e8", "train-d-1e10", "grid-d-1e8"])
    def test_exits_1_before_writing(self, tmp_path, corpus_file, argv, message):
        out = tmp_path / "o"
        if argv[0] in ("train", "grid"):
            argv = [argv[0], "--corpus", corpus_file] + FAST + argv[1:]
        proc = run_python(["-c", CAPPED + "runpy.run_module('ksoftmax', run_name='__main__')\n",
                           *argv, "--out", str(out)])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(message), proc.stderr
        assert "Traceback" not in proc.stderr
        if argv[0] in ("train", "grid"):
            assert re.match(r"error: cannot map [\d,]+ bytes: ", proc.stderr), proc.stderr
        assert not out.exists()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


def mutated_checkpoints_load_or_fail_cleanly(path, max_examples):
    """Check copies of the checkpoint at ``path``, each truncated, with
    bytes appended, with one header byte overwritten, or with one header
    line's value or one config entry replaced: each loads or raises
    CorruptCheckpoint (a truncated or extended one always raises), and
    ``eval`` of it exits 1 with an error. Run in a capped child (see
    CAPPED); the copies go beside ``path``, in a directory without a run's
    config, so no copy evaluates."""
    with open(path, "rb") as f:
        blob = f.read()
    header = blob[:blob.index(b"\nend\n") + len(b"\nend\n")]
    lines = header.split(b"\n")[:-2]
    config = json.loads(lines[1].split(b" ", 1)[1])

    def with_line(i, value):
        key = lines[i].split(b" ", 1)[0]
        new = lines[:i] + [key + b" " + value] + lines[i + 1:]
        return b"\n".join(new) + blob[len(b"\n".join(lines)):]

    def with_config(key, value):
        changed = dict(config, **{key: value})
        return with_line(1, json.dumps(changed).encode())

    # (copy, whether it must fail to load)
    mutations = st.one_of(
        st.integers(0, len(blob) - 1).map(lambda n: (blob[:n], True)),
        st.binary(min_size=1, max_size=64).map(lambda extra: (blob + extra, True)),
        st.tuples(st.builds(lambda i, b: blob[:i] + bytes([b]) + blob[i + 1:],
                            st.integers(0, len(header) - 1), st.integers(0, 255)),
                  st.just(False)),
        st.tuples(st.builds(with_line, st.integers(1, len(lines) - 1),
                            st.one_of(st.integers(-2 ** 70, 2 ** 70).map(str),
                                      st.floats().map(repr), st.text()).map(
                                lambda s: s.encode("utf-8", "surrogatepass"))),
                  st.just(False)),
        st.tuples(st.builds(with_config, st.sampled_from(sorted(config)), JSON_VALUES),
                  st.just(False)))
    target = os.path.join(os.path.dirname(path), "mutated.ckpt")

    @settings(max_examples=max_examples, derandomize=True, database=None, deadline=None)
    @given(mutations)
    def check(case):
        mutated, corrupt = case
        with open(target, "wb") as f:
            f.write(mutated)
        try:
            training.load_checkpoint(target)
            assert not corrupt, "a truncated or extended copy loads"
        except CorruptCheckpoint:
            pass
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(["eval", "--checkpoint", target])
        assert code == 1 and err.getvalue().startswith("error:"), err.getvalue()

    check()


class TestMutatedCheckpoint:
    def test_every_mutation_loads_or_fails_cleanly(self, tmp_path):
        vocab, split = data.prepare_corpus(data.generate_zipf(15, 800, seed=0),
                                           max_size=20, seed=0)
        config = training.TrainConfig(components=parse_kernel_list("ssg mog"), n=2, d=4,
                                      batch_size=16, seed=0)
        state = training.init_state(config, vocab.V)
        training.train_steps(state, split, 3)
        path = tmp_path / "fuzz" / "valid.ckpt"
        path.parent.mkdir()
        training.save_checkpoint(state, path)
        tests = os.path.dirname(os.path.abspath(__file__))
        proc = run_python(["-c", CAPPED + (
            "sys.path.insert(0, sys.argv[2])\n"
            "import test_cli\n"
            "test_cli.mutated_checkpoints_load_or_fail_cleanly(sys.argv[1], 400)\n"
            "print('ok')\n"), str(path), tests])
        assert proc.stdout.strip() == "ok", proc.stderr


# text for the CLI's parsers: kernel lists, --grid strings and INI config
# files, made of their own parts, of each part's near misses and of any text
FLOAT_TEXT = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e400", "-1e400", "Infinity", "0", "-1"]),
    st.floats().map(repr), st.integers(-3, 4).map(str), st.text(max_size=4))
# mog's curve holds steps x G x G doubles: G stays small
NUM_GAUSS_TEXT = st.integers(-1, 4).map(str) | st.sampled_from(["inf", "nan", "1e400", "2.0"])


def kernel_item(kind):
    """Text for one item of a kernel list of ``kind``, with or without
    fields of its kind."""
    field = st.sampled_from(KERNELS[kind].fields).flatmap(lambda name: (
        NUM_GAUSS_TEXT if name == "num_gauss" else FLOAT_TEXT).map(f"{name}={{}}".format))
    return st.builds(
        lambda count, fields: count + kind + ("" if fields is None else f"({','.join(fields)})"),
        st.sampled_from(["", "", "", "2*", "01*", "0*"]),
        (st.none() | st.lists(field, min_size=1, max_size=2)) if KERNELS[kind].fields
        else st.none())


KERNEL_TEXT = (st.lists(st.sampled_from(KINDS).flatmap(kernel_item),
                        min_size=1, max_size=3).map(" ".join) | st.text(max_size=12))


def value_text(key):
    """Text for the value of config key ``key``: mostly of its type."""
    if key == "kernels":
        return KERNEL_TEXT
    typ = cli._CONFIG_KEYS[key][1] if key in cli._CONFIG_KEYS else float
    return st.text(max_size=4) | {
        int: st.integers(-1, 40).map(str), float: FLOAT_TEXT,
        bool: st.sampled_from(["true", "no", "flase"]),
        str: st.sampled_from(["adam", "sgd", "0.8,0.1,0.1"])}[typ]


GRID_TEXT = st.lists(st.sampled_from(sorted(cli._TRAIN_FIELDS) + ["de"]).flatmap(
    lambda name: (st.lists(KERNEL_TEXT, min_size=1, max_size=2).map("|".join)
                  if name == "components" else
                  st.lists(value_text(name), min_size=1, max_size=3).map(",".join)
                  ).map(f"{name}={{}}".format)), min_size=1, max_size=3).map(";".join)


def _config_text(entries) -> str:
    """An INI file of the (section, key, value) entries, by section."""
    sections = {}
    for section, key, value in entries:
        sections.setdefault(section, []).append(f"{key} = {value}\n")
    return "".join(f"[{name}]\n" + "".join(lines) for name, lines in sections.items())


CONFIG_TEXT = st.lists(st.sampled_from(sorted(set(cli._CONFIG_KEYS) - {"corpus"})).flatmap(
    lambda key: st.tuples(
        st.sampled_from([cli._CONFIG_KEYS[key][0]] * 4 + ["training", "DEFAULT", "x"]),
        st.just(key), value_text(key))),
    max_size=5).map(_config_text) | st.text(max_size=20)


def cli_parser_exits_cleanly(parser, root, max_examples) -> int:
    """Run the CLI on texts for one of its parsers, under ``root``:
    ``kernels`` through ``curves --kernels``, ``grid`` through ``grid
    --grid`` and ``config`` through ``train --config``, the last two
    without a corpus, so that no run trains. Every run returns 0 (curves
    only) or 1 with an error and no ``--out``, and raises nothing.
    Returns how many texts parsed whole: curves that returned 0, and
    grids and configs that failed only for want of a corpus."""
    out, config = os.path.join(root, "out"), os.path.join(root, "run.ini")

    def write_config(text):
        with open(config, "wb") as f:
            f.write(text.encode("utf-8", "surrogatepass"))
        return ["train", "--config", config, "--out", out]

    texts, argv = {
        "kernels": (KERNEL_TEXT, lambda text: [
            "curves", f"--kernels={text}", "--steps", "3", "--out", out]),
        "grid": (GRID_TEXT, lambda text: ["grid", f"--grid={text}", "--out", out]),
        "config": (CONFIG_TEXT, write_config),
    }[parser]
    parsed = []

    @settings(max_examples=max_examples, derandomize=True, database=None, deadline=None)
    @given(texts)
    def check(text):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(argv(text))
        assert code in ((0, 1) if parser == "kernels" else (1,)), (code, err.getvalue())
        if code == 1:
            assert err.getvalue().startswith("error:"), err.getvalue()
            assert not os.path.exists(out)
        parsed.append(code == 0 or "no corpus given" in err.getvalue())
        shutil.rmtree(out, ignore_errors=True)

    check()
    return sum(parsed)


class TestParserProperties:
    def test_every_text_exits_0_or_1_without_a_traceback(self, tmp_path):
        tests = os.path.dirname(os.path.abspath(__file__))
        proc = run_python(["-c", CAPPED + (
            "sys.path.insert(0, sys.argv[2])\n"
            "import test_cli\n"
            "for parser in ('kernels', 'grid', 'config'):\n"
            "    print(parser, test_cli.cli_parser_exits_cleanly(parser, sys.argv[1], 100))\n"),
            str(tmp_path), tests])
        assert proc.returncode == 0, proc.stderr
        parsed = dict(line.split() for line in proc.stdout.splitlines())
        # some texts of each parser reach its end
        assert list(parsed) == ["kernels", "grid", "config"]
        assert all(int(count) > 0 for count in parsed.values()), parsed


# text for the files a run reads, vocab.txt and a corpus: a run's own file
# with a few lines replaced, dropped or added, lines of its own and of near
# misses, or any bytes
def line_text(lines):
    return (st.sampled_from(lines) | st.text(max_size=6) | st.sampled_from(
        ["", " ", "\t", "\r", "<bos>", "<unk>", lines[0].upper(), f"{lines[0]} {lines[-1]}"]))


def file_bytes(lines):
    def edit(changes):
        edited = list(lines)
        for at, new in changes:  # a line replaced by none, one or two lines
            at %= len(edited) + 1
            edited[at:at + 1] = new
        return edited

    text = st.one_of(
        st.lists(st.tuples(st.integers(0, len(lines)),
                           st.lists(line_text(lines), max_size=2)), max_size=3).map(edit),
        st.lists(line_text(lines), max_size=12))
    return text.map(lambda ls: "".join(l + "\n" for l in ls).encode(
        "utf-8", "surrogatepass")) | st.binary(max_size=32)


def run_files_exit_cleanly(run, root, max_examples) -> dict:
    """Run the CLI on files like those the trained run ``run`` reads, under
    ``root``: a vocab.txt through ``probe`` and ``eval`` of a copy of the
    run, and a corpus through ``eval --corpus`` of that copy and through
    ``train`` (one epoch, then ``eval`` of what it trained). Every run
    returns 0, 1 or 2, and an exit 1 prints an error (and, of ``train``,
    leaves no ``--out``). Returns how many runs of each command returned
    0."""
    copy = os.path.join(root, "run")
    os.makedirs(copy)
    for name in ("best.ckpt", "effective_config.ini", "vocab.txt"):
        shutil.copy(os.path.join(run, name), copy)
    ckpt, vocab_path = os.path.join(copy, "best.ckpt"), os.path.join(copy, "vocab.txt")
    corpus, out = os.path.join(root, "corpus.txt"), os.path.join(root, "out")
    vocab = data.Vocabulary.load(vocab_path)
    token = vocab.id_to_token[2]
    config = cli._read_config_file(os.path.join(run, "effective_config.ini"))
    zeros = dict.fromkeys(["probe", "eval vocab", "eval corpus", "train", "eval trained"], 0)

    def run_cli(name, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 1, 2), (name, code, err.getvalue())
        assert err.getvalue().startswith({0: "", 1: "error:", 2: "diverged:"}[code]), \
            (name, err.getvalue())
        zeros[name] += code == 0
        return code

    def write(path, blob):
        with open(path, "wb") as f:
            f.write(blob)

    @settings(max_examples=max_examples, derandomize=True, database=None, deadline=None)
    @given(file_bytes(vocab.id_to_token[2:]))
    def check_vocab(blob):
        write(vocab_path, blob)
        run_cli("probe", ["probe", "--checkpoint", ckpt, "--vocab", vocab_path,
                          "--tokens", token, "--contexts", f"{token};<unk> {token}"])
        run_cli("eval vocab", ["eval", "--checkpoint", ckpt])

    @settings(max_examples=max_examples, derandomize=True, database=None, deadline=None)
    @given(file_bytes(data.load_lines(config["corpus"])))
    def check_corpus(blob):
        write(corpus, blob)
        run_cli("eval corpus", ["eval", "--checkpoint", ckpt, "--corpus", corpus])
        code = run_cli("train", ["train", "--corpus", corpus, "--out", out] + FAST
                       + ["--max-epochs", "1"])
        assert code != 1 or not os.path.exists(out)
        if code == 0:
            run_cli("eval trained", ["eval", "--checkpoint", os.path.join(out, "best.ckpt")])
        shutil.rmtree(out, ignore_errors=True)

    check_vocab()
    shutil.copy(os.path.join(run, "vocab.txt"), copy)
    check_corpus()
    return zeros


class TestRunFileProperties:
    def test_every_file_exits_0_1_or_2_without_a_traceback(self, trained, tmp_path):
        tests = os.path.dirname(os.path.abspath(__file__))
        proc = run_python(["-c", CAPPED + (
            "sys.path.insert(0, sys.argv[3])\n"
            "import json, test_cli\n"
            "print(json.dumps(test_cli.run_files_exit_cleanly(sys.argv[1], sys.argv[2], 100)))\n"),
            str(trained), str(tmp_path), tests])
        assert proc.returncode == 0, proc.stderr
        zeros = json.loads(proc.stdout)
        # some files of each command are read whole
        assert all(zeros.values()), zeros


# synth's parameters: mostly in range, with their edges, and floats of any
# value. Each is passed as --flag=value, so a negative one stays a value.
SYNTH_ARGS = st.tuples(
    st.sampled_from(["zipf", "zipf", "english"]),
    st.integers(-1, 300) | st.sampled_from([1, 2, 1 << 31, 1 << 62]),
    st.integers(-1, 2000) | st.sampled_from([0, 1, 4, 5]),
    st.floats(-3.0, 3.0) | st.floats(),
    st.floats(0.0, 1.0) | st.floats())


def synth_runs_exit_cleanly(root, max_examples) -> dict:
    """Run ``synth`` on parameters drawn from SYNTH_ARGS, under ``root``, and
    ``train`` (one epoch) on what it wrote. Every run returns 0, 1 with an
    error or 2 with a divergence, and a ``train`` that exits 1 leaves no
    ``--out``. Returns how many runs of each command returned 0."""
    corpus, out = os.path.join(root, "corpus.txt"), os.path.join(root, "out")
    zeros = {"synth": 0, "train": 0}

    def run_cli(name, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        assert code in (0, 1, 2), (argv, code, err.getvalue())
        assert err.getvalue().startswith({0: "", 1: "error:", 2: "diverged:"}[code]), \
            (argv, err.getvalue())
        zeros[name] += code == 0
        return code

    @settings(max_examples=max_examples, derandomize=True, database=None, deadline=None)
    @given(SYNTH_ARGS)
    def check(args):
        kind, vocab, tokens, zipf_s, copy_prob = args
        if run_cli("synth", ["synth", f"--kind={kind}", f"--vocab={vocab}",
                             f"--tokens={tokens}", f"--zipf-s={zipf_s!r}",
                             f"--copy-prob={copy_prob!r}", "--seed=0", f"--out={corpus}"]):
            return
        code = run_cli("train", ["train", "--corpus", corpus, "--out", out] + FAST
                       + ["--max-epochs", "1"])
        assert code != 1 or not os.path.exists(out)
        shutil.rmtree(out, ignore_errors=True)

    check()
    return zeros


class TestSynthProperties:
    def test_every_corpus_synth_writes_trains_or_fails_cleanly(self, tmp_path):
        tests = os.path.dirname(os.path.abspath(__file__))
        proc = run_python(["-c", CAPPED + (
            "sys.path.insert(0, sys.argv[2])\n"
            "import json, test_cli\n"
            "print(json.dumps(test_cli.synth_runs_exit_cleanly(sys.argv[1], 100)))\n"),
            str(tmp_path), tests])
        assert proc.returncode == 0, proc.stderr
        zeros = json.loads(proc.stdout)
        # some corpora are written, and some of them train
        assert all(zeros.values()), zeros


class TestLoadMemory:
    def test_a_load_holds_the_model_once(self, tmp_path):
        # V = 8,000 and d = 32 under Adam: 1.5 million doubles, a 12 MB file
        config = training.TrainConfig(components=parse_kernel_list("lin"), n=2, d=32)
        path = tmp_path / "large.ckpt"
        training.save_checkpoint(training.init_state(config, 8000), path)
        size = path.stat().st_size
        assert size >= 8 << 20
        # a process's ru_maxrss starts at the resident size of the process
        # that starts it, here the test's: the load runs in a grandchild,
        # started by a bare interpreter
        load = ("import resource, sys\n"
                "from ksoftmax import training\n"
                "def peak():\n"
                "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
                "before = peak()\n"
                "training.load_checkpoint(sys.argv[1])\n"
                "print(peak() - before)\n")
        proc = run_python(["-c", (
            "import subprocess, sys\n"
            "sys.exit(subprocess.run([sys.executable, '-c', *sys.argv[1:]]).returncode)\n"),
            load, str(path)])
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) <= 1.25 * size, f"{int(proc.stdout)} for {size}"


class TestVocabularyMismatch:
    @pytest.mark.parametrize("corpus", [
        lambda lines: data.generate_zipf(5, 800, seed=0),
        lambda lines: [line.replace("w0", "x0") for line in lines],
    ], ids=["smaller-V", "same-V-other-tokens"])
    def test_eval_rejects_a_corpus_of_another_vocabulary(
            self, trained, corpus_file, tmp_path, corpus, capsys):
        other = tmp_path / "other.txt"
        data.save_lines(corpus(data.load_lines(corpus_file)), other)
        capsys.readouterr()
        assert cli.run(["eval", "--checkpoint", str(trained / "best.ckpt"),
                        "--corpus", str(other)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

    def test_probe_rejects_a_larger_vocabulary(self, trained, tmp_path, capsys):
        vocab = data.Vocabulary.load(trained / "vocab.txt")
        extra = data.Vocabulary(vocab.id_to_token + ["zz1", "zz2"])
        extra.save(tmp_path / "vocab.txt")
        capsys.readouterr()
        assert cli.run(["probe", "--checkpoint", str(trained / "best.ckpt"),
                        "--vocab", str(tmp_path / "vocab.txt"),
                        "--tokens", "zz2", "--contexts", "zz1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err


class TestValidationErrors:
    def test_missing_corpus(self, capsys):
        assert cli.run(["train", "--out", "/tmp/x"] + FAST) == 1
        assert "corpus" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[training]\nbogus = 1\n")
        assert cli.run(["train", "--config", str(cfg), "--out",
                        str(tmp_path / "o")]) == 1
        assert "bogus" in capsys.readouterr().err

    def test_key_in_wrong_section(self, tmp_path, capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[data]\nrho = 0.1\n")
        assert cli.run(["train", "--config", str(cfg), "--out",
                        str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "rho" in err and "mixture" in err

    def test_unknown_bool_spelling_in_config_file(self, tmp_path, corpus_file,
                                                  capsys):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[mixture]\nreg_across_data = flase\n")
        assert cli.run(["train", "--config", str(cfg), "--corpus", corpus_file,
                        "--out", str(tmp_path / "o")] + FAST) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "reg_across_data" in err

    @pytest.mark.parametrize("text", [
        "kernels = lin\n",
        "[mixture]\nrho = 0.1\n[training]\nn = 2\n[mixture]\nkernels = lin\n",
        "[mixture]\nkernels = pow(p=50%)\n",
        "[data]\ncorpus = a\xff\n",
    ], ids=["no-section-header", "section-twice", "percent", "not-utf-8"])
    def test_bad_config_file_exits_1_without_a_traceback(self, tmp_path, corpus_file,
                                                         capsys, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(text.encode("latin-1"))
        assert cli.run(["train", "--config", str(cfg), "--corpus", corpus_file,
                        "--out", str(tmp_path / "o")] + FAST) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "50%" in err if "%" in text else str(cfg) in err
        assert not (tmp_path / "o").exists()

    def test_bad_kernel_flag(self, tmp_path, corpus_file, capsys):
        code = cli.run(["train", "--corpus", corpus_file, "--out",
                        str(tmp_path / "o"), "--kernels", "nosuch"] + FAST)
        assert code == 1

    @pytest.mark.parametrize("flags", [["--fractions", "0.5,0.5"],
                                       ["--vocab-size", "2"]])
    def test_bad_split_parameters_exit_1_before_training(
            self, tmp_path, corpus_file, capsys, flags):
        out = tmp_path / "o"
        assert cli.run(["train", "--corpus", corpus_file, "--out", str(out)]
                       + FAST + flags) == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--d-e", "0"), ("--d-e", "-2"), ("--clip-norm", "nan"),
        ("--learning-rate", "nan"), ("--rho", "nan"), ("--clip-norm", "inf"),
    ])
    def test_bad_training_field_exits_1_naming_it(
            self, tmp_path, corpus_file, capsys, flag, value):
        out = tmp_path / "o"
        assert cli.run(["train", "--corpus", corpus_file, "--out", str(out)]
                       + FAST + [flag, value]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and flag[2:].replace("-", "_") in err
        assert not out.exists()

    def test_mog_components_with_different_num_gauss_exit_1_before_training(
            self, tmp_path, corpus_file, capsys):
        out = tmp_path / "o"
        assert cli.run(["train", "--corpus", corpus_file, "--out", str(out),
                        "--kernels", "mog(num_gauss=2) mog(num_gauss=3)"]
                       + FAST) == 1
        assert "num_gauss" in capsys.readouterr().err
        assert not out.exists()

    def test_probe_top_m_below_one_exits_1(self, trained, capsys):
        token = data.Vocabulary.load(trained / "vocab.txt").id_to_token[2]
        assert cli.run(["probe", "--checkpoint", str(trained / "best.ckpt"),
                        "--vocab", str(trained / "vocab.txt"),
                        "--tokens", token, "--top-m", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "top_m" in captured.err

    def test_zero_repeat_count_exits_1_before_training(self, tmp_path, corpus_file,
                                                        capsys):
        out = tmp_path / "o"
        assert cli.run(["train", "--corpus", corpus_file, "--out", str(out),
                        "--kernels", "lin 0*pow"] + FAST) == 1
        assert "error: repeat count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kernels", ["pol(p=inf)", "pow(p=nan)", "pol(alpha=-inf)",
                                         "pol(c=1e400)", "rbf(gamma=inf)", "wav(b=inf)"])
    def test_curves_non_finite_kernel_field_exits_1(self, tmp_path, capsys, kernels):
        out = tmp_path / "c"
        assert cli.run(["curves", "--kernels", kernels, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("xmax", ["nan", "inf", "-inf"])
    def test_curves_non_finite_xmax_exits_1(self, tmp_path, capsys, xmax):
        out = tmp_path / "c"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(["curves", "--kernels", "lin,rbf", f"--xmax={xmax}",
                            "--out", str(out)]) == 1
        assert "error: x_max must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_curves_negative_xmax_exits_1_for_a_squared_distance(
            self, tmp_path, capsys):
        assert cli.run(["curves", "--kernels", "rbf", "--xmax", "-3",
                        "--out", str(tmp_path / "c")]) == 1
        assert "error: rbf" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--vocab", "0"], ["--zipf-s", "nan"],
                                       ["--zipf-s", "inf"], ["--copy-prob", "1.5"],
                                       ["--copy-prob", "-0.1"],
                                       ["--vocab", "50", "--zipf-s", "-1000"]],
                             ids=["vocab-0", "s-nan", "s-inf", "copy-1.5", "copy-neg",
                                  "s-overflows"])
    def test_synth_bad_zipf_parameter_exits_1(self, tmp_path, capsys, flags):
        out = tmp_path / "corpus.txt"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.run(["synth", "--tokens", "100", "--out", str(out)] + flags) == 1
        assert not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["zipf", "english"])
    def test_synth_negative_token_count_exits_1(self, tmp_path, capsys, kind):
        out = tmp_path / "corpus.txt"
        assert cli.run(["synth", "--kind", kind, "--tokens", "-5", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: n_tokens must be >= 0")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_grid_jobs_below_one_exits_1_before_writing(self, tmp_path, corpus_file,
                                                        capsys, jobs):
        out = tmp_path / "grid"
        assert cli.run(["grid", "--corpus", corpus_file, "--out", str(out),
                        "--grid", "rho=0.1", "--jobs", jobs] + FAST) == 1
        assert "error: --jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag(self, capsys):
        assert cli.run(["train", "--nonsense"]) == 1

    def test_missing_checkpoint_exits_1_as_a_process(self, tmp_path):
        proc = run_process(["eval", "--checkpoint", str(tmp_path / "missing.ckpt")])
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "missing.ckpt" in proc.stderr

    @pytest.mark.parametrize("command", [["train"], ["grid", "--grid", "rho=0.1"]],
                             ids=["train", "grid"])
    def test_empty_dev_split_exits_1_before_training(self, tmp_path, command):
        # five lines split 4/0/1 under the default fractions
        corpus = tmp_path / "five.txt"
        data.save_lines([f"w{i} w{i + 1} w{i + 2}" for i in range(5)], corpus)
        out = tmp_path / "o"
        proc = run_process(command + ["--corpus", str(corpus), "--out", str(out)]
                           + FAST, python_flags=("-X", "dev"))
        assert proc.returncode == 1, proc.stderr
        assert "error: empty dev split" in proc.stderr
        assert "ResourceWarning" not in proc.stderr
        assert not out.exists()

    def test_eval_finds_the_corpus_from_another_directory(
            self, tmp_path, corpus_file, capsys, monkeypatch):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        shutil.copy(corpus_file, tmp_path / "a" / "corpus.txt")
        monkeypatch.chdir(tmp_path / "a")
        assert cli.run(["train", "--corpus", "corpus.txt", "--out", "run"] + FAST) == 0
        assert cli.run(["eval", "--checkpoint", "run/best.ckpt"]) == 0
        from_a = capsys.readouterr().out.splitlines()[-1]
        monkeypatch.chdir(tmp_path / "b")
        assert cli.run(["eval", "--checkpoint", "../a/run/best.ckpt"]) == 0
        assert capsys.readouterr().out.splitlines() == [from_a]

    def test_a_corpus_under_a_percent_directory_trains_and_evaluates(
            self, tmp_path, corpus_file, capsys):
        # a % in a config value is read as itself, in the given file and
        # in the echoed one that eval reads
        corpus = tmp_path / "p%x" / "corpus.txt"
        corpus.parent.mkdir()
        shutil.copy(corpus_file, corpus)
        cfg = tmp_path / "p%x" / "run.ini"
        cfg.write_text(f"[data]\ncorpus = {corpus}\n")
        run = tmp_path / "p%x" / "run"
        assert cli.run(["train", "--config", str(cfg), "--out", str(run)] + FAST) == 0, \
            capsys.readouterr().err
        assert f"corpus = {corpus}\n" in (run / "effective_config.ini").read_text()
        assert cli.run(["eval", "--checkpoint", str(run / "best.ckpt")]) == 0, \
            capsys.readouterr().err
        assert capsys.readouterr().out.splitlines()[-1].startswith("test ppl ")


class TestGrid:
    @pytest.mark.parametrize("grid, code, points", [
        ("reg_across_data=false,true", 0,
         [{"reg_across_data": False}, {"reg_across_data": True}]),
        ("d_e=3", 0, [{"d_e": 3}]),
        ("rho=abc", 1, []),
        ("de=3", 1, []),
        ("reg_across_data=flase", 1, []),
        ("rho=0.01,0.1;rho=0.5", 1, []),
        ("rho=nan", 1, []),
        ("d=0", 1, []),
    ], ids=["bool", "int-unset-in-base", "bad-float", "not-a-field", "bad-bool",
            "field-twice", "out-of-range-float", "out-of-range-int"])
    def test_values_take_the_config_key_type(self, tmp_path, corpus_file,
                                             capsys, grid, code, points):
        out = tmp_path / "grid"
        assert cli.run(["grid", "--corpus", corpus_file, "--out", str(out),
                        "--kernels", "lin pow", "--grid", grid] + FAST) == code
        err = capsys.readouterr().err
        if code:
            assert "error:" in err and grid.split("=")[0] in err
            assert not out.exists()
        for i, fields in enumerate(points):
            config = training.load_checkpoint(out / f"point_{i:03d}" / "best.ckpt").config
            for name, value in fields.items():
                got = getattr(config, name)
                assert got == value and type(got) is type(value), (name, got)


    def test_a_point_can_be_probed_and_evaluated(self, tmp_path, corpus_file,
                                                 capsys):
        out = tmp_path / "grid"
        assert cli.run(["grid", "--corpus", corpus_file, "--out", str(out),
                        "--kernels", "lin pow", "--grid", "rho=0.1"] + FAST) == 0
        token = data.Vocabulary.load(out / "vocab.txt").id_to_token[2]
        ckpt = str(out / "point_000" / "best.ckpt")
        assert cli.run(["probe", "--checkpoint", ckpt, "--vocab",
                        str(out / "vocab.txt"), "--tokens", token,
                        "--contexts", token]) == 0
        assert f"query: {token}" in capsys.readouterr().out
        assert cli.run(["eval", "--checkpoint", ckpt, "--config",
                        str(out / "effective_config.ini")]) == 0
        with_config = capsys.readouterr().out
        assert with_config.startswith("test ppl ")
        # without --config, eval reads the grid's files above the point
        assert cli.run(["eval", "--checkpoint", ckpt]) == 0
        assert capsys.readouterr().out == with_config


class TestOtherSubcommands:
    def test_gradcheck_pass(self, capsys):
        code = cli.run(["gradcheck", "--kernel", "lin,rbf,ssg,mog", "--dims", "2,4",
                        "--trials", "5", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        for kind in ("lin", "rbf", "ssg", "mog"):
            assert f"gradcheck {kind}: pass" in out

    @pytest.mark.parametrize("flags", [["--dims", "0"], ["--trials", "0"]],
                             ids=["dims-0", "trials-0"])
    def test_gradcheck_that_checks_nothing_exits_1(self, capsys, flags):
        assert cli.run(["gradcheck", "--kernel", "hpb"] + flags) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "pass" not in captured.out

    def test_gradcheck_unknown_kernel(self, capsys):
        assert cli.run(["gradcheck", "--kernel", "nope"]) == 1

    def test_curves(self, tmp_path, capsys):
        out = str(tmp_path / "curves")
        code = cli.run(["curves", "--kernels", "rbf,wav", "--steps", "200",
                        "--out", out])
        assert code == 0
        for kind in ("rbf", "wav"):
            with open(os.path.join(out, f"curve_{kind}.csv")) as f:
                rows = f.readlines()
            assert len(rows) == 201
            assert rows[0].strip() == "x,score,dscore_dx"

    def test_curves_takes_a_kernel_with_two_fields(self, tmp_path, capsys):
        out = tmp_path / "curves"
        assert cli.run(["curves", "--kernels", "wav(a=2,b=3)", "--out", str(out)]) == 0
        (path,) = eval_mod.emit_kernel_curves([KernelSpec("wav", a=2.0, b=3.0)], 10.0, 200,
                                              tmp_path / "library")
        assert (out / "curve_wav.csv").read_text() == open(path).read()

    def test_curves_keeps_each_spec_of_a_kind(self, tmp_path, capsys):
        # a second spec of one kind gets a file of its own
        out = tmp_path / "curves"
        assert cli.run(["curves", "--kernels", "rbf rbf(gamma=2) wav", "--steps", "5",
                        "--out", str(out)]) == 0
        names = ["curve_rbf.csv", "curve_rbf_2.csv", "curve_wav.csv"]
        assert capsys.readouterr().out.split() == [str(out / n) for n in names]
        assert sorted(os.listdir(out)) == sorted(names)
        for name, spec in zip(names, [KernelSpec("rbf"), KernelSpec("rbf", gamma=2.0),
                                      KernelSpec("wav")]):
            (path,) = eval_mod.emit_kernel_curves([spec], 10.0, 5, tmp_path / name)
            assert (out / name).read_text() == open(path).read()

    def test_synth(self, tmp_path, capsys):
        out = str(tmp_path / "corpus.txt")
        code = cli.run(["synth", "--kind", "zipf", "--vocab", "10",
                        "--tokens", "500", "--seed", "1", "--out", out])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        tokens = [t for l in data.load_lines(out) for t in l.split()]
        assert len(tokens) >= 500

    def test_probe(self, tmp_path, corpus_file, capsys):
        out = str(tmp_path / "run")
        assert cli.run(["train", "--corpus", corpus_file, "--out", out,
                        "--kernels", "lin pow"] + FAST) == 0
        vocab = data.Vocabulary.load(os.path.join(out, "vocab.txt"))
        token = vocab.id_to_token[2]
        code = cli.run(["probe", "--checkpoint", os.path.join(out, "best.ckpt"),
                        "--vocab", os.path.join(out, "vocab.txt"),
                        "--tokens", token, "--contexts", token,
                        "--out", str(tmp_path / "probe")])
        assert code == 0
        text = (tmp_path / "probe" / "probe.txt").read_text()
        assert f"query: {token}" in text
        assert (tmp_path / "probe" / "probe.tsv").exists()

    def test_seed_env_fallback(self, tmp_path, corpus_file, capsys,
                               monkeypatch):
        monkeypatch.setenv("KSOFTMAX_SEED", "7")
        args = ["train", "--corpus", corpus_file, "--n", "2", "--d", "4",
                "--batch-size", "16", "--max-epochs", "1",
                "--vocab-size", "20"]
        assert cli.run(args + ["--out", str(tmp_path / "env")]) == 0
        capsys.readouterr()
        echoed = (tmp_path / "env" / "effective_config.ini").read_text()
        assert "seed = 7" in echoed

    def test_eval_falls_back_to_checkpoint_seed(self, tmp_path, corpus_file,
                                                capsys, monkeypatch):
        # a config without a seed must give eval the split the checkpoint
        # was trained on, not seed 0's
        monkeypatch.setenv("KSOFTMAX_SEED", "7")
        cfg = tmp_path / "my.ini"
        cfg.write_text("[training]\nn = 2\nd = 4\nmax_epochs = 1\n"
                       f"batch_size = 16\n[data]\ncorpus = {corpus_file}\n"
                       "vocab_size = 20\n")
        out = tmp_path / "run"
        assert cli.run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = str(out / "best.ckpt")
        capsys.readouterr()
        assert cli.run(["eval", "--checkpoint", ckpt]) == 0
        with_echo = capsys.readouterr().out
        monkeypatch.delenv("KSOFTMAX_SEED")
        assert cli.run(["eval", "--checkpoint", ckpt, "--config", str(cfg)]) == 0
        assert capsys.readouterr().out == with_echo


def cli_output(capsys, argv):
    """(exit code, stdout, stderr) of ``cli.run(argv)``."""
    code = cli.run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListRule:
    # every list a command reads in program syntax splits as a kernel list
    # does: at whitespace or at commas outside parentheses
    @pytest.mark.parametrize("kinds", ["pow wav", "pow, wav", " pow,,wav "])
    def test_gradcheck_kinds(self, capsys, kinds):
        argv = ["gradcheck", "--dims", "2", "--trials", "2", "--seed", "0", "--kernel"]
        code, out, err = cli_output(capsys, argv + ["pow,wav"])
        assert code == 0 and out == "gradcheck pow: pass\ngradcheck wav: pass\n", err
        assert cli_output(capsys, argv + [kinds]) == (0, out, "")

    def test_gradcheck_dims(self, capsys):
        argv = ["gradcheck", "--kernel", "rbf", "--trials", "2", "--seed", "0", "--dims"]
        code, out, err = cli_output(capsys, argv + ["2,8"])
        assert code == 0 and out == "gradcheck rbf: pass\n", err
        assert cli_output(capsys, argv + ["2 8"]) == (0, out, "")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_train_fractions(self, tmp_path, corpus_file, capsys, source):
        def train(fractions, out):
            if source == "flag":
                return cli.run(["train", "--corpus", corpus_file, "--out", str(out),
                                "--fractions", fractions] + FAST)
            cfg = tmp_path / f"{out.name}.ini"
            cfg.write_text(f"[data]\nfractions = {fractions}\n")
            return cli.run(["train", "--config", str(cfg), "--corpus", corpus_file,
                            "--out", str(out)] + FAST)

        assert train("0.8,0.1,0.1", tmp_path / "commas") == 0, capsys.readouterr().err
        assert train("0.8 0.1 0.1", tmp_path / "spaces") == 0, capsys.readouterr().err
        for name in ("metrics.csv", "best.ckpt", "last.ckpt"):
            assert ((tmp_path / "commas" / name).read_bytes()
                    == (tmp_path / "spaces" / name).read_bytes()), name

    def test_grid_values(self, tmp_path, corpus_file, capsys):
        def grid(spec):
            return cli_output(capsys, ["grid", "--corpus", corpus_file, "--out",
                                       str(tmp_path / spec), "--kernels", "lin pow",
                                       "--grid", spec] + FAST)

        code, out, err = grid("rho=0.1,1")
        assert code == 0 and len(out.splitlines()) == 2, err
        assert grid("rho=0.1 1") == (0, out, "")

    def test_probe_tokens(self, trained, capsys):
        tokens = data.Vocabulary.load(trained / "vocab.txt").id_to_token[2:4]
        argv = ["probe", "--checkpoint", str(trained / "best.ckpt"),
                "--vocab", str(trained / "vocab.txt"), "--tokens"]
        code, out, err = cli_output(capsys, argv + [",".join(tokens)])
        assert code == 0 and all(f"query: {t}" in out for t in tokens), err
        assert cli_output(capsys, argv + [", ".join(tokens)]) == (0, out, "")

    @pytest.mark.parametrize("argv", [
        ["gradcheck", "--kernel", ""],
        ["gradcheck", "--kernel", " , "],
        ["gradcheck", "--kernel", "pow, nope"],
        ["gradcheck", "--kernel", "pow", "--dims", ","],
        ["train", "--fractions", " "],
        ["grid", "--kernels", "lin pow", "--grid", "rho="],
        ["grid", "--kernels", "lin pow", "--grid", "d=4;rho=, "],
    ], ids=["no-kind", "commas-only", "unknown-kind", "no-dim", "no-fraction",
            "no-grid-value", "no-second-grid-value"])
    def test_an_empty_list_or_unknown_kind_exits_1_before_any_work(
            self, tmp_path, corpus_file, capsys, argv):
        out = tmp_path / "out"
        if argv[0] != "gradcheck":
            argv = argv + ["--corpus", corpus_file, "--out", str(out)] + FAST
        code, stdout, err = cli_output(capsys, argv)
        assert code == 1 and stdout == "" and not out.exists()
        assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "empty" in err or "unknown kernel kind 'nope'" in err, err
