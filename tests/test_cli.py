import os
import shutil
import subprocess
import sys
import warnings

import pytest

from ksoftmax import cli, data, training
from ksoftmax.cli import parse_kernel_list
from ksoftmax.errors import KsoftmaxError
from ksoftmax.kernels import KernelSpec


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
}
# what a corruption's error must say about the field it broke
CORRUPT_FIELDS = {
    "negative-epoch": "epoch -1", "negative-step": "step -1",
    "negative-step-in-epoch": "step_in_epoch -3",
    "nan-best-dev-ppl": "best_dev_ppl nan", "zero-best-dev-ppl": "best_dev_ppl 0.0",
    "adam-t-disagrees-with-step": "adam_t 0", "unread-kernel-field": "kernel field",
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


class TestGrid:
    @pytest.mark.parametrize("grid, code, points", [
        ("reg_across_data=false,true", 0,
         [{"reg_across_data": False}, {"reg_across_data": True}]),
        ("d_e=3", 0, [{"d_e": 3}]),
        ("rho=abc", 1, []),
        ("de=3", 1, []),
        ("reg_across_data=flase", 1, []),
        ("rho=0.01,0.1;rho=0.5", 1, []),
    ], ids=["bool", "int-unset-in-base", "bad-float", "not-a-field", "bad-bool",
            "field-twice"])
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
