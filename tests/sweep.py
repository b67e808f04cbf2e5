"""Run every benchmark job of the given seeds in-process and report what
ran of the program.

    python3 tests/sweep.py              # seeds 1-3, 4 rounds a seed
    python3 tests/sweep.py 1 2 3 --rounds 4

The jobs are those perfbench/workloads.py builds for its three
workloads, written into a scratch directory that is named relatively, so
no output depends on where it lies.  Each job runs through
multicomplex.cli.main as perfbench/run.py runs it, under a line tracer
that records only frames of src/multicomplex.  The report is one line
per job (workload, seed, job number, kind, exit code, sha256 of stdout,
sha256 of stderr), one sha256 over all those lines, and then, for each
function of src/multicomplex that some job called, every statement that
no job ran, as "module:line function: statement".  Two trees give
byte-identical outputs when their job lines match, and the statement
list shows which routes through a function the jobs take.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "multicomplex")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from multicomplex import cli  # noqa: E402

import workloads  # noqa: E402


def run_traced(argv, lines: set, calls: set):
    """(exit code, stdout, stderr) of cli.main(argv), adding the (file,
    line) of every line event and the (file, first line) of every call in
    the package to lines and calls."""
    def local(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(PACKAGE):
            return None
        calls.add((code.co_filename, code.co_firstlineno))
        return local

    out, err = io.StringIO(), io.StringIO()
    sys.settrace(tracer)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash, named without the paths of a tree
        code = -1
        err.write("%s: %s\n" % (type(exc).__name__, exc))
    finally:
        sys.settrace(None)
    return code, out.getvalue(), err.getvalue()


def _functions(tree):
    """(qualified name, node) of every function in the module, nested
    ones included."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = prefix + child.name
                yield name, child
                yield from walk(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    yield from walk(tree, "")


def _statements(func):
    """(first line, last line of its own text) of every statement
    of func, not of the functions and classes nested in it; a compound
    statement's own text is its header."""
    body = func.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]  # the docstring runs no code
    stack = list(reversed(body))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Global,
                             ast.Nonlocal)):
            continue
        children = [c for field in ("body", "orelse", "finalbody",
                                    "handlers")
                    for c in getattr(node, field, ())]
        inner = [s for c in children
                 for s in (c.body if isinstance(c, ast.ExceptHandler)
                           else [c])]
        if isinstance(node, ast.Try):
            yield node.lineno, node.end_lineno  # ran if any of it ran
        elif inner:
            yield node.lineno, min(s.lineno for s in inner) - 1
        else:
            yield node.lineno, node.end_lineno
        stack.extend(reversed(inner))


def unrun(lines: set, calls: set):
    """'module:line function: statement' for every statement that did not
    run in a function that was called."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        ran = {line for f, line in lines if f == path}
        for qual, func in _functions(ast.parse(source)):
            first = min([func.lineno] + [d.lineno
                                         for d in func.decorator_list])
            if (path, first) not in calls:
                continue
            for start, stop in _statements(func):
                if not ran.intersection(range(start, stop + 1)):
                    out.append("%s:%d %s: %s" % (name, start, qual,
                                                 text[start - 1].strip()))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 2, 3])
    parser.add_argument("--rounds", type=int, default=4)
    args = parser.parse_args(argv)
    lines, calls = set(), set()
    digest = hashlib.sha256()
    count = 0
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for workload in workloads.WORKLOADS:
                for seed in args.seeds:
                    work_dir = os.path.join("work", workload, str(seed))
                    os.makedirs(work_dir)
                    rounds = workloads.build(workload, seed, work_dir,
                                             args.rounds)
                    jobs = [job for rnd in rounds for job in rnd]
                    for i, job in enumerate(jobs):
                        code, out, err = run_traced(job.argv, lines, calls)
                        row = "%s %d %d %s %s %s %s" % (
                            workload, seed, i, job.kind, code,
                            hashlib.sha256(out.encode()).hexdigest(),
                            hashlib.sha256(err.encode()).hexdigest())
                        print(row, flush=True)
                        digest.update(row.encode() + b"\n")
                        count += 1
        finally:
            os.chdir(home)
    print("all %d jobs: %s" % (count, digest.hexdigest()))
    for row in unrun(lines, calls):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
