"""Span recording for the traced benchmark run.

The spans are recorded from the benchmark's side, around public calls into
``klstab``: each wrapped callable is replaced on the module (or class) where
its caller looks it up, so ``analyzer.analyze`` sees the wrapped
``validate``, ``reduce_boundary`` and the others it binds at import time.
Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional

from klstab import analyzer, cli, simulator
from klstab.errors import OriginOnCurve

# (owner, attribute, span name). Each owner is where the caller looks the name up.
WRAPPED = (
    (analyzer, "analyze", "analyzer.analyze"),
    (analyzer, "validate", "scheme.validate"),
    (analyzer, "reduce_boundary", "kl.reduce_boundary"),
    (analyzer, "exterior_zero_count_direct", "kl.exterior_zero_count_direct"),
    (analyzer, "sample_kl_curve", "winding.sample_kl_curve"),
    (analyzer, "winding_number", "winding.winding_number"),
    (analyzer, "classify_boundary_zero", "analyzer.classify_boundary_zero"),
    (analyzer, "bisect_stability_edge", "analyzer.bisect_stability_edge"),
    (cli, "sweep", "analyzer.sweep"),
    (analyzer.StabilityMap, "to_csv", "cli.to_csv"),
    (cli, "run_cli", "cli.run_cli"),
    (simulator, "sigma_scan", "simulator.sigma_scan"),
    (simulator, "run_ibvp", "simulator.run_ibvp"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    info: dict = field(default_factory=dict)


def _winding_info(result, exc) -> dict:
    if isinstance(exc, OriginOnCurve) and exc.result is not None:
        return {"samples": exc.result.samples_used, "origin_on_curve": True}
    if result is not None:
        return {"samples": result.samples_used, "origin_on_curve": False}
    return {}


def _ibvp_info(args, result) -> dict:
    if result is None:
        return {}
    run = args[2]
    steps = round(float(result.times[-1]) / run.dt)
    return {
        "cell_updates": run.J * steps,
        "blowup": result.blowup_step is not None,
        "fd_fallback": bool(result.fd_derivative_fallback),
    }


INFO: Dict[str, Callable] = {
    "winding.winding_number": lambda args, result, exc: _winding_info(result, exc),
    "simulator.run_ibvp": lambda args, result, exc: _ibvp_info(args, result),
}


class Tracer:
    """Installs span-recording wrappers; ``close`` puts the originals back."""

    def __init__(self):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._originals = []

    def install(self) -> "Tracer":
        for owner, attr, name in WRAPPED:
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def close(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, func: Callable, name: str) -> Callable:
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = Span(name, perf_counter(), 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            result, error = None, None
            try:
                result = func(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if info is not None:
                    span.info = info(args, result, error)

        wrapper.__wrapped__ = func
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.info] for s in self.spans], fh)


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_stats(spans: List[Span]) -> Dict[str, LayerStats]:
    """Calls, total and self time per span name (self = duration minus child spans)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    stats: Dict[str, LayerStats] = defaultdict(LayerStats)
    for span, children in zip(spans, child_time):
        entry = stats[span.name]
        entry.calls += 1
        entry.total_s += span.end - span.start
        entry.self_s += span.end - span.start - children
    return stats
