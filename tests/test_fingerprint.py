import importlib.util
import os
import subprocess
import sys

import ksoftmax

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools")
TOOL = os.path.join(TOOLS, "fingerprint.py")


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fingerprint(preexec_fn=None, **env) -> str:
    src = os.path.dirname(os.path.dirname(ksoftmax.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, TOOL], capture_output=True, text=True,
                          timeout=300, env=dict(os.environ, PYTHONPATH=path, **env),
                          preexec_fn=preexec_fn)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_two_runs_print_the_same_fingerprint():
    # the tool pins BLAS to one thread whatever the environment asks for
    first = fingerprint()
    assert first == fingerprint(OPENBLAS_NUM_THREADS="2")
    if len(os.sched_getaffinity(0)) > 1:
        # one CPU leaves one lane: the bits do not depend on the lane count
        assert first == fingerprint(preexec_fn=pin_to_one_cpu)
    lines = first.splitlines()
    assert len(lines) > 40 and all(len(line.split()) >= 2 for line in lines)
    assert "cli.diverge exit 2 stdout" in first and "lib.lanes.dev_ppl" in first
    assert "lib.chunks/adam.copied.ckpt" in first and "lib.chunks/sgd.resumed.ckpt" in first
    assert "lib.ssg_mog/best.ckpt" in first and "lib.across_data/best.ckpt" in first
    assert "cli.probe/probe.tsv" in first and "cli.curves/curve_wav.csv" in first


SNIPPET = '''"""A module docstring
over two lines."""

import os  # a comment after code


# a comment alone
def f(x):
    """A function docstring."""
    s = """a string that is
    no docstring"""
    return (x +
            1)


class C:
    """A class docstring."""
    y = 2
'''


def test_identity_counts_the_lines_that_hold_code():
    spec = importlib.util.spec_from_file_location(
        "identity", os.path.join(TOOLS, "identity.py"))
    identity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(identity)
    # import, def, the two lines of s, the two of the return, class, y
    assert identity.code_lines(SNIPPET) == 8


def identity(*args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(TOOLS, "identity.py"), *args],
                          capture_output=True, text=True, timeout=60)


def test_identity_prints_its_usage_for_help():
    for flag in ("-h", "--help"):
        proc = identity(flag)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: ") and "Exit codes: 0" in proc.stdout


def test_identity_reports_a_ref_git_cannot_archive_on_one_line():
    # no traceback: git's message on one line, and exit code 2
    proc = identity("no-such-ref-0c3f")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("identity.py: git archive no-such-ref-0c3f: ")
    assert proc.stderr.count("\n") == 1, proc.stderr
