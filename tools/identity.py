"""Same-behaviour check of this tree against a git ref, and the size of both.

    python tools/identity.py <ref>

Extracts ``src`` at ``<ref>`` (``git archive``) into a temporary directory
and compares the two ``src`` trees, running this tree's tools and tests on
each:

- the output of ``tools/fingerprint.py`` (metrics, checkpoints and other
  artifact digests), run plainly;
- the same, pinned to one CPU (which leaves one lane);
- the ``ACCEPTANCE`` lines of ``pytest -q -s tests/test_acceptance.py``,
  the knowingly failing ``kernel-ordering`` line included (a few minutes
  per tree).

Any difference is printed as a unified diff. Then prints, for each
``src/ksoftmax/*.py`` of either tree, its line count (as ``wc -l``) and its
code lines: lines that are not blank, not only a comment and not part of
a docstring.

Exit codes: 0 when all three are identical, 1 when any differs, and 2
when no comparison could be made: after a usage error (with the usage), a
ref that ``git archive`` cannot extract (with one line on stderr carrying
git's message), a fingerprint run that fails (with its stderr) or an
acceptance run that ends other than passed or failed, or prints no
``ACCEPTANCE`` line (with its output). ``-h`` or ``--help`` prints this
text and exits 0.
"""

from __future__ import annotations

import argparse
import ast
import difflib
import glob
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINT = os.path.join(ROOT, "tools", "fingerprint.py")
ACCEPTANCE = os.path.join(ROOT, "tests", "test_acceptance.py")
# a report line; under -q pytest's progress dot may come before it
ACCEPTANCE_LINE = re.compile(r"ACCEPTANCE [\w-]+: .*")
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` holding code: not blank, not only a comment, and
    not in a docstring (a string opening a module, class or function)."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - doc)


def sizes(src: str) -> dict:
    """{file name: (lines, code lines)} for ``src``/ksoftmax/*.py."""
    out = {}
    for path in sorted(glob.glob(os.path.join(src, "ksoftmax", "*.py"))):
        with open(path, encoding="utf-8") as f:
            text = f.read()
        out[os.path.basename(path)] = (text.count("\n"), code_lines(text))
    return out


def pin_to_one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fingerprint(src: str, preexec_fn=None) -> list:
    proc = subprocess.run([sys.executable, FINGERPRINT], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          preexec_fn=preexec_fn, check=False)
    if proc.returncode != 0:
        fail(f"fingerprint.py failed on {src}:\n{proc.stderr}")
    return proc.stdout.splitlines(True)


def acceptance_lines(output: str) -> list:
    """The ``ACCEPTANCE <name>: ...`` lines in a pytest run's ``output``, in
    order, from the word ACCEPTANCE to the end of the line."""
    return [m.group() + "\n" for m in ACCEPTANCE_LINE.finditer(output)]


def acceptance(src: str) -> list:
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
                           ACCEPTANCE], capture_output=True, text=True, cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=src), check=False)
    lines = acceptance_lines(proc.stdout)
    if proc.returncode not in (0, 1) or not lines:  # 1: a test failed
        fail(f"the acceptance suite did not run on {src}:\n{proc.stdout}{proc.stderr}")
    return lines


def fail(message: str):
    print(f"identity.py: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="tools/identity.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("ref")
    ref = parser.parse_args(argv).ref  # exits 0 after --help, 2 on a usage error
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref, "src"],
                              capture_output=True, check=False)
        if proc.returncode != 0:  # git's message, on one line
            fail(f"git archive {ref}: {' '.join(proc.stderr.decode().split())}")
        with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
            tar.extractall(tmp)
        trees = {ref: os.path.join(tmp, "src"), "this tree": os.path.join(ROOT, "src")}
        differs = False
        for name, run in (("fingerprint (plain)", fingerprint),
                          ("fingerprint (one CPU)", lambda src: fingerprint(src, pin_to_one_cpu)),
                          ("acceptance", acceptance)):
            before, after = (run(src) for src in trees.values())
            diff = list(difflib.unified_diff(before, after, f"{ref}: {name}",
                                             f"this tree: {name}"))
            differs = differs or bool(diff)
            sys.stdout.write("".join(diff) or f"{name}: identical, {len(after)} lines\n")
        counts = {name: sizes(src) for name, src in trees.items()}
    print(f"\n{'':<16}" + "".join(f"{name[:15]:>16}" for name in counts))
    print(f"{'file':<16}" + f"{'lines':>8}{'code':>8}" * len(counts))
    for name in sorted(set().union(*counts.values())) + ["total"]:
        cells = [map(sum, zip(*tree.values())) if name == "total"
                 else tree.get(name, (0, 0)) for tree in counts.values()]
        print(f"{name:<16}" + "".join(f"{lines:>8}{code:>8}" for lines, code in cells))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
