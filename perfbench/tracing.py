"""Span tracing of funcbreak's layers from outside the package.

``Tracer.install`` replaces each traced public function with a wrapper in
the namespace of every ``funcbreak`` module that holds it by name, so calls
through ``funcbreak.simlab.simulate_xi`` are seen as well as calls through
``funcbreak.dating.simulate_xi``. Spans (layer, start, end, parent, work
counts) stay in memory until ``dump``. Nothing under ``src/`` changes.
"""

import functools
import inspect
import json
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

# (layer, defining module, public function); a layer may span several functions
LAYERS = (
    ("cli.ingest", "funcbreak.cli", "ingest"),
    ("basis.fit_curve", "funcbreak.basis", "fit_curve"),
    ("detect.cusum", "funcbreak.detect", "cusum_norm_sq"),
    ("detect.cusum", "funcbreak.detect", "cusum_paths"),
    ("longrun.estimate", "funcbreak.longrun", "estimate_longrun"),
    ("basis.eigen", "funcbreak.basis", "eigen_decompose"),
    ("detect.null_limit", "funcbreak.detect", "simulate_null_limit"),
    ("dating.xi", "funcbreak.dating", "simulate_xi"),
    ("detect.test", "funcbreak.detect", "test"),
    ("dating.date_break", "funcbreak.dating", "date_break"),
    ("fpca.fit", "funcbreak.fpca", "fit_fpca"),
    ("fpca.aligned", "funcbreak.fpca", "aligned_statistic"),
    ("simlab.gen_errors", "funcbreak.simlab", "gen_errors"),
)
# simlab calls the null-limit simulation only for its cached fPCA/aligned
# critical values, so calls through that namespace form their own layer
NAMESPACE_LAYERS = {("funcbreak.simlab", "simulate_null_limit"): "simlab.critical_value"}
LAYER_NAMES = tuple(dict.fromkeys(
    [name for name, _, _ in LAYERS] + list(NAMESPACE_LAYERS.values())))
ROOT = "op"


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span, -1 for none
    op: int  # index of the operation the span belongs to
    work: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _null_limit_work(args, result) -> dict:
    lam = np.clip(np.asarray(args["eigenvalues"], dtype=float).ravel(), 0.0, None)
    return {"normals": int(args["reps"]) * int(np.count_nonzero(lam > 0))
            * int(args["grid"])}


def _xi_work(args, result) -> dict:
    from funcbreak.dating import LimitProcessConfig

    cfg = args["cfg"] or LimitProcessConfig()
    if args["sigma2"] == 0.0:
        return {"normals": 0, "draws": cfg.reps, "edge_draws": 0}
    half, step = cfg.resolve(args["theta"], args["sigma2"])
    m = int(round(half / step))
    # the grid ends at +-m*step; an argmax there means the grid was too short
    edge = int(np.count_nonzero(np.abs(result.draws) >= (m - 0.5) * step))
    return {"normals": cfg.reps * 2 * m, "draws": cfg.reps, "edge_draws": edge}


def _gen_errors_work(args, result) -> dict:
    series = result[0] if isinstance(result, tuple) else result
    return {"curves": series.n}


class Tracer:
    """Collects spans of the wrapped layers; one instance per traced process."""

    def __init__(self, rows_by_path=None):
        self.spans: list = []
        self._stack: list = []
        self.op = -1
        rows_by_path = dict(rows_by_path or {})
        self._work = {
            "cli.ingest": lambda args, result: {
                "rows": rows_by_path.get(str(args["source"]), 0)},
            "detect.null_limit": _null_limit_work,
            "simlab.critical_value": _null_limit_work,
            "dating.xi": _xi_work,
            "simlab.gen_errors": _gen_errors_work,
        }

    def wrap(self, name: str, fn):
        work = self._work.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = Span(name, time.perf_counter_ns(), 0, parent, self.op)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = work(bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a funcbreak module holds it by name."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "funcbreak" or name.startswith("funcbreak.")]
        for layer, module_name, attr in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        name = NAMESPACE_LAYERS.get((module.__name__, key), layer)
                        setattr(module, key, self.wrap(name, original))

    def run_op(self, index: int, fn, *args, **kwargs):
        """Run one operation under a root span that its layer spans nest in."""
        self.op = index
        try:
            return self.wrap(ROOT, fn)(*args, **kwargs)
        finally:
            self.op = -1

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def layer_totals(spans) -> dict:
    """Per layer: outermost calls, total and self seconds, and summed work counts.

    A span's self time is its duration minus that of its direct children. A
    call nested in a span of the same layer (cusum_paths inside cusum_norm_sq)
    adds self time but no call and no total time.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_s[span.parent] += span.seconds
    totals = {}
    for i, span in enumerate(spans):
        agg = totals.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["self_s"] += span.seconds - child_s[i]
        if span.parent < 0 or spans[span.parent].name != span.name:
            agg["calls"] += 1
            agg["total_s"] += span.seconds
        for key, value in span.work.items():
            agg[key] = agg.get(key, 0) + value
    return totals
