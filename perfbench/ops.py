"""Running one operation in process, as a CLI user would see it, and judging it.

A CLI operation calls ``polycomp.cli.main(argv)`` with stdout and stderr
captured.  A library operation reads its input file with polycomp's own JSON
readers, calls the function and prints the result as JSON;
``all_pulling_unimodular`` reads a graph and searches its cut polytope.  Functions are
looked up at call time, so the tracer's wrappers are seen when installed.
An operation that raises, or outlives its time limit, has no exit code: run
as a CLI it would have printed a traceback.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import signal
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass


class OpTimeout(Exception):
    """Raised inside an operation by SIGALRM when its time limit passes."""


@dataclass(frozen=True)
class Outcome:
    exit: int | None  # None when the operation raised or timed out
    stdout: str
    stderr: str
    error: str | None  # exception class name, or "timeout"
    wall: float
    cpu: float

    @property
    def digest(self):
        return hashlib.sha256(self.stdout.encode()).hexdigest()[:16]


def write_input(workdir, op):
    text = op.payload if isinstance(op.payload, str) else json.dumps(op.payload)
    path = workdir / (op.key.replace("/", "__") + ".json")
    path.write_text(text, encoding="utf-8")
    return path


def _module(name):
    return importlib.import_module(f"polycomp.{name}")


def _library_call(name, path, args):
    jsonio = _module("jsonio")
    data = jsonio.load_json(path)
    if name == "all_pulling_unimodular":  # on the cut polytope of the input graph
        polytope = _module("cutpoly").cut_polytope(jsonio.graph_from_json(data))
        return _module("triangulate").all_pulling_unimodular(polytope)
    if name == "transitive_symmetry_shortcut":
        polytope = jsonio.polytope_from_json(data)
        return _module("triangulate").transitive_symmetry_shortcut(polytope)
    if name == "pull_first_unimodular":
        return _module("bounds").pull_first_unimodular(jsonio.matrix_from_json(data), *args)
    raise ValueError(f"unknown library operation {name!r}")


def _call(op, path):
    if op.command.startswith("lib:"):
        print(json.dumps(_library_call(op.command[4:], path, op.args)))
        return 0
    return _module("cli").main([op.command, op.flag, str(path), *op.args])


def _alarm(signum, frame):
    raise OpTimeout()


def execute(op, path, time_limit):
    """Run one operation under a wall-clock limit and capture what it printed."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    code = error = None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, time_limit)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = _call(op, path)
    except OpTimeout:
        error = "timeout"
    except Exception as exc:  # the CLI would die with a traceback here
        error = type(exc).__name__
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        signal.signal(signal.SIGALRM, previous)
    return Outcome(code, out.getvalue(), err.getvalue(), error, wall, cpu)


def judge_probe(outcome, expect):
    """'conforms' when the CLI contract holds with the expected answer,
    'violates' when the contract is broken (traceback, time-out, vacuous
    result), 'wrong' when a contract-shaped answer is the wrong one."""
    if outcome.error is not None:
        return "violates"
    one_line_error = (
        outcome.exit == 2 and not outcome.stdout and len(outcome.stderr.strip().splitlines()) == 1
    )
    if expect == "error":
        return "conforms" if one_line_error else "violates"
    code, field, value = expect
    if outcome.exit not in (0, 1):
        return "violates"
    # lift the int-string limit only while reading: the operations themselves
    # must run under the interpreter's default, as a CLI user's would
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        answer = json.loads(outcome.stdout).get(field)
    except (ValueError, AttributeError):
        return "violates"
    finally:
        sys.set_int_max_str_digits(limit)
    return "conforms" if (outcome.exit, answer) == (code, value) else "wrong"
