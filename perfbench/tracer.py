"""Span recorder for the traced benchmark run.

Usage: ``PERFBENCH_SPANS=spans.json python3 perfbench/tracer.py <cltbounds args>``
with ``src`` on ``PYTHONPATH``.  It imports the CLI, replaces each public
function named in ``LAYERS`` by a timing wrapper wherever a ``cltbounds``
module holds it as an attribute (so ``from .samplers import sample`` call
sites are covered too), runs ``cltbounds.cli.main`` and writes every span as
JSON when the process ends.  Spans stay in memory until then.

A span records its function, layer, thread, parent span, wall-clock start
and end, and the thread's CPU clock at start and end.  Self busy time is the
CPU the span's thread spent in it minus what its child spans spent, so a
thread blocked on a pool or the interpreter lock is not counted as busy.

Known limit: only public names are wrapped.  Time spent in private helpers
(for example the Kolmogorov sorts inside ``estimate_Ank`` or the CLI's
``_certify_one_spec``) stays in the self time of the enclosing span, or is
unattributed on a worker thread that has none.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

# "module:function" -> layer; every bounds.bound_* function joins bounds.eval
LAYERS = {
    "samplers:calibrate_isotropic": "samplers.calibrate",
    "samplers:sample": "samplers.sample",
    "core:summarize": "core.summarize",
    "empirical:project": "empirical.project",
    "empirical:kolmogorov_vs_normal": "empirical.ks",
    "empirical:tv_vs_normal_histogram": "empirical.hist",
    "bounds:exact_tv_vs_normal": "bounds.quad",
    "frames:simplex_geometry": "frames.geometry",
    "subspaces:estimate_Ank": "subspaces.ank",
    "subspaces:haar_orthogonal": "subspaces.haar",
    "subspaces:reflection_pair_diagnostics": "subspaces.reflection",
    "subspaces:rotation_pair_diagnostics": "subspaces.rotation",
    "certify:certify_cell": "certify.cell",
    "certify:reports_to_json": "certify.write",
    "certify:reports_to_csv": "certify.write",
    "certify:version_string": "certify.version",
    "cli:main": "cli",
}

IMPORT_SPAN = "cli:<import>"


def _work(fn: str, result) -> dict:
    """Work counts read off a call's result (sizes are computed, not measured)."""
    if fn == "samplers:sample":
        return {"rows": result.N, "bytes": result.data.nbytes}
    if fn == "core:summarize":
        return {"flop": 2 * result.count * result.n**2}
    if fn == "empirical:kolmogorov_vs_normal":
        return {"points": result.n_samples}
    if fn == "subspaces:estimate_Ank":
        return {"subspaces": result.n_subspaces}
    return {}


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, fn: str, layer: str, target, args, kwargs):
        stack = self._stack()
        span = {
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "thread": threading.get_ident(),
            "fn": fn,
            "layer": layer,
            "start": time.perf_counter(),
            "cpu_start": time.thread_time(),
        }
        stack.append(span["id"])
        try:
            result = target(*args, **kwargs)
            span.update(_work(fn, result))
            return result
        finally:
            span["cpu_end"] = time.thread_time()
            span["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def wrap(self, fn: str, layer: str, target):
        @functools.wraps(target)
        def traced(*args, **kwargs):
            return self.call(fn, layer, target, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded cltbounds module that holds it."""
        targets = {}
        bounds = importlib.import_module("cltbounds.bounds")
        names = dict(LAYERS)
        names.update({f"bounds:{a}": "bounds.eval" for a in vars(bounds) if a.startswith("bound_")})
        for fn, layer in names.items():
            module, attr = fn.split(":")
            original = getattr(importlib.import_module(f"cltbounds.{module}"), attr)
            targets[id(original)] = self.wrap(fn, layer, original)
        for name, module in list(sys.modules.items()):
            if name == "cltbounds" or name.startswith("cltbounds."):
                for attr, value in list(vars(module).items()):
                    if id(value) in targets:
                        setattr(module, attr, targets[id(value)])


def main(argv: list[str]) -> int:
    out = os.environ["PERFBENCH_SPANS"]
    recorder = Recorder()
    code = 0
    try:
        recorder.call(IMPORT_SPAN, "cli", importlib.import_module, ("cltbounds.cli",), {})
        recorder.install()
        code = sys.modules["cltbounds.cli"].main(argv)
    except SystemExit as exc:  # argparse exits for --version and bad arguments
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out, "w") as fh:
            json.dump({"argv": argv, "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
