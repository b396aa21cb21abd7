"""Spans recorded from outside the program, for the traced run.

The tracer replaces public functions at the module attribute their caller
looks them up through (``netimprove.oracle.solve_equilibrium`` is what
``grid_search`` calls, ``netimprove.fptas.run_dp`` what ``solve_fptas``
calls) with a wrapper that records a span, and puts the originals back on
``uninstall``.  No file of the program changes.

A span is ``[name, start, end, parent, job, info]``: ``parent`` is the index
of the enclosing span or -1, ``job`` the job id (``None`` during set-up) and
``info`` the counters read from the call's result, or the name of the
exception it raised.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time

from netimprove.seriesparallel import Parallel, Series, postorder


def _copt_info(args, kwargs, res):
    return {"iterations": res.iterations, "gap": res.duality_gap,
            "capped": res.iterations >= kwargs["fw_iters"]}


def _equilibrium_info(args, kwargs, res):
    return {"iterations": res.iterations,
            "frank_wolfe": res.flow.paths is None}


def _grid_info(args, kwargs, res):
    return {"evaluations": res.evaluations}


def _run_dp_info(args, kwargs, res):
    tree = args[1] if len(args) > 1 else kwargs["tree"]
    return {"K": res.K, "ops": dp_ops(tree, res.K)}


def dp_ops(tree, K):
    """Operations of the table fill, counted from the tree: (K+1)^4/4 per
    non-root parallel node and (K+1)^3/2 per non-root series node (the root
    entry alone is evaluated lazily and is not counted)."""
    ops = 0.0
    for node in postorder(tree)[:-1]:
        if isinstance(node, Parallel):
            ops += (K + 1) ** 4 / 4
        elif isinstance(node, Series):
            ops += (K + 1) ** 3 / 2
    return ops


# (module, attribute, span name, counters read from the result)
TARGETS = (
    ("netimprove.core", "parse_instance", "core.parse_instance", None),
    ("netimprove.gadgets", "build_2ddp_instance",
     "gadgets.build_2ddp_instance", None),
    ("netimprove.copt", "solve_copt", "copt.solve_copt", _copt_info),
    ("netimprove.parallelpaths", "solve_parallel_paths",
     "parallelpaths.solve_parallel_paths", None),
    ("netimprove.oracle", "grid_search", "oracle.grid_search", _grid_info),
    ("netimprove.oracle", "evaluate_delay", "oracle.evaluate_delay", None),
    ("netimprove.oracle", "solve_equilibrium",
     "equilibrium.solve_equilibrium", _equilibrium_info),
    ("netimprove.fptas", "solve_fptas", "fptas.solve_fptas", None),
    ("netimprove.fptas", "run_dp", "fptas.run_dp", _run_dp_info),
    ("netimprove.fptas", "solve_equilibrium",
     "equilibrium.solve_equilibrium", _equilibrium_info),
    ("netimprove.seriesparallel", "decompose_series_parallel",
     "seriesparallel.decompose_series_parallel", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._originals)

    def install(self):
        import importlib

        if self._originals:
            return
        for modname, attr, name, info in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, info))

    def uninstall(self):
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def _wrap(self, fn, name, info):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)
        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, args=(), kwargs=None, info=None):
        """Run ``fn`` inside a span named ``name``."""
        kwargs = kwargs or {}
        spans, stack = self.spans, self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
        stack.append(len(spans))
        spans.append(span)
        span[1] = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
        except Exception as exc:
            span[2] = time.perf_counter()
            span[5] = {"error": type(exc).__name__}
            raise
        finally:
            stack.pop()
        span[2] = time.perf_counter()
        if info is not None:
            span[5] = info(args, kwargs, res)
        return res

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover (the
        program is single-threaded, so children never overlap)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job",
                                  "info"], "spans": self.spans}, fh)
