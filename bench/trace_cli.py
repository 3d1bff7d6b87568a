"""Run one granulens CLI command with a span recorded around each layer call.

Usage: python3 bench/trace_cli.py SPANS_JSON <granulens arguments...>

Callers import library functions by name (``from .table import
partition_by``), so each traced function is replaced on every granulens
module attribute that refers to it; the package source is not modified.
Spans carry name, parent, thread, start and end. A span opened on a pool
worker thread has no parent on its own thread, so it is adopted by the span
open on the main thread at that moment (the enclosing ``sweep``). The spans
are written as JSON after the command; the exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

TRACED = {
    "table": ["load_table", "discretize", "partition_by", "factorize"],
    "rough": ["region_fractions"],
    "entropy": ["granular_entropy", "conditional"],
    "sweep": ["sweep", "_point_at"],
    "reduction": ["greedy_reduct", "entropy_rank"],
    "harness": ["load_run", "evaluate_run", "compare_runs"],
    "curvefile": ["write_curve"],
    "svg": ["emit_svg"],
    "cli": ["run_cli"],
}

# span name -> (count key, count from the call's result)
COUNTERS = {
    "table.load_table": ("cells", lambda t: t.n * len(t.attributes)),
    "table.partition_by": ("blocks", lambda p: p.block_count),
    "sweep.sweep": ("levels", lambda c: len(c.points)),
    "harness.load_run": ("rows", lambda r: len(r.predicted)),
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            adopted = not stack and stack is not self._main_stack
            parent = stack[-1] if stack else (
                self._main_stack[-1] if adopted and self._main_stack else None)
            span = {"name": name, "parent": parent, "adopted": adopted,
                    "thread": threading.get_ident(), "counts": {}}
            with self._lock:
                sid = len(self.spans)
                self.spans.append(span)
            stack.append(sid)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counter:
                span["counts"][counter[0]] = counter[1](result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Replace each traced function on every granulens module name bound to it.

    Modules or functions that do not exist are skipped, so the tracer keeps
    working on code that has dropped one of them.
    """
    import granulens.cli  # noqa: F401  imports every module

    modules = [m for k, m in sys.modules.items()
               if k == "granulens" or k.startswith("granulens.")]
    for short, names in TRACED.items():
        # the package re-exports ``sweep`` the function; take the module itself
        mod = sys.modules.get(f"granulens.{short}")
        for fname in names:
            orig = getattr(mod, fname, None)
            if orig is None:
                continue
            wrapped = tracer.wrap(orig, f"{short}.{fname}")
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    rc = sys.modules["granulens.cli"].run_cli(cli_args)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
