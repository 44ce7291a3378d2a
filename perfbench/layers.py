"""Per-layer tracing for the traced benchmark sample, installed from outside.

Nothing here touches ``src/``: :func:`install` wraps public functions of each
layer (class attributes and the module attributes their callers look up)
with a span recorder, and :func:`uninstall` restores the originals.  Timed
samples never import this module.

A span is opened around every wrapped call.  Spans nest per thread (the
atlas runs two service workers), every span knows its parent, and the self
time of a span is its duration minus the durations of its direct children.
Counts are taken from the call arguments and results on the benchmark side;
:meth:`Recorder.cross_check` compares them with the program's own counters.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Layer of every span name; self times are summed per layer.
SPAN_LAYER = {
    "transport.gather": "transport.gather",
    "transport.plan": "transport.plan",
    "transport.solve": "transport.solve",
    "transport.deformation": "transport.deformation",
    "spectral.fft": "spectral.fft",
    "core.problem.objective": "core.problem",
    "core.problem.linearize": "core.problem",
    "core.problem.matvec": "core.problem",
    "core.optim.newton": "core.optim",
    "core.optim.pcg": "core.optim",
    "core.optim.linesearch": "core.optim",
    "parallel.transport": "parallel",
    "parallel.scatter": "parallel",
    "parallel.ghost": "parallel",
    "service.submit": "service",
    "service.journal": "service",
}


class _Frame:
    __slots__ = ("span_id", "parent_id", "name", "start", "child_s", "bucket", "matvec",
                 "sweeps", "nested")

    def __init__(self, span_id: int, parent: Optional["_Frame"], name: str,
                 bucket: Optional[str], matvec: Optional["_Frame"], nested: bool) -> None:
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else None
        self.name = name
        #: an enclosing span has the same name (inclusive time counted there)
        self.nested = nested
        self.start = time.perf_counter()
        self.child_s = 0.0
        self.bucket = bucket
        #: the enclosing Hessian mat-vec span (``None`` outside mat-vecs)
        self.matvec = matvec
        #: gather sweeps under this span (kept for mat-vec spans)
        self.sweeps = 0


class Recorder:
    """Thread-safe span and count aggregation for one traced sample."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self.origin = time.perf_counter()
        #: finished spans: (id, parent id, name, thread, start, duration, self time)
        self.spans: List[Tuple[int, Optional[int], str, str, float, float, float]] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: inclusive time of the outermost span of each name
        self.outer_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        # program-side counters: instance -> value at first sight
        self._fft_seen: Dict[int, Tuple[Any, int]] = {}
        self._interp_seen: Dict[int, Tuple[Any, int]] = {}
        self._ledgers: Dict[int, Tuple[Any, Tuple[int, int]]] = {}

    # ------------------------------------------------------------------ #
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self, name: str, bucket: Optional[str] = None) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if bucket is None and parent is not None:
            bucket = parent.bucket
        matvec = parent.matvec if parent is not None else None
        frame = _Frame(next(self._ids), parent, name, bucket, matvec,
                       any(f.name == name for f in stack))
        if name == "core.problem.matvec":
            frame.matvec = frame
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> float:
        duration = time.perf_counter() - frame.start
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_s += duration
        with self._lock:
            self.calls[frame.name] += 1
            self.self_s[frame.name] += duration - frame.child_s
            if not frame.nested:
                self.outer_s[frame.name] += duration
            self.spans.append((frame.span_id, frame.parent_id, frame.name,
                               threading.current_thread().name,
                               frame.start - self.origin, duration, duration - frame.child_s))
        return duration

    def add(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[key] += amount

    def _first_sight(self, table: Dict[int, Any], obj: Any, snapshot: Callable[[Any], Any]) -> None:
        key = id(obj)
        if key not in table:
            with self._lock:
                if key not in table:
                    # hold the instance so its id stays unique for the sample
                    table[key] = (obj, snapshot(obj))

    def write_spans(self, path) -> None:
        """Write every finished span (with its parent link) as JSON."""
        fields = ["id", "parent", "name", "thread", "start_s", "duration_s", "self_s"]
        with open(path, "w") as handle:
            json.dump({"fields": fields, "spans": self.spans}, handle)

    # ------------------------------------------------------------------ #
    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, value in self.self_s.items():
            out[SPAN_LAYER[name]] += value
        return dict(out)

    def cross_check(self, extra: Dict[str, Tuple[float, float]]) -> List[str]:
        """Benchmark-side counts against the program's counters.

        Returns one line per mismatch (empty when every pair agrees).
        """
        pairs = dict(extra)
        pairs["spectral.fft.transforms"] = (
            self.counts["fft.transforms"],
            sum(obj.counters.total - base for obj, base in self._fft_seen.values()),
        )
        pairs["transport.gather.points"] = (
            self.counts["gather.points"],
            sum(obj.points_interpolated - base for obj, base in self._interp_seen.values()),
        )
        for kind in ("general", "divfree"):
            pairs[f"core.matvec.{kind}_sweeps"] = (
                self.counts[f"matvec.{kind}_sweeps"],
                self.counts[f"matvec.{kind}_expected_sweeps"],
            )
        pairs["core.problem.matvecs"] = (
            self.calls["core.problem.matvec"],
            self.counts["problem.matvec_counter"],
        )
        pairs["parallel.comm.messages"] = (
            self.counts["comm.messages"],
            sum(obj.messages() - base[0] for obj, base in self._ledgers.values()),
        )
        pairs["parallel.comm.bytes"] = (
            self.counts["comm.bytes"],
            sum(obj.bytes() - base[1] for obj, base in self._ledgers.values()),
        )
        return [
            f"{name}: benchmark side {ours} != program side {theirs}"
            for name, (ours, theirs) in sorted(pairs.items())
            if ours != theirs
        ]


# ---------------------------------------------------------------------- #
# installation
# ---------------------------------------------------------------------- #
_PATCHED: List[Tuple[Any, str, Any]] = []


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    wrapper = functools.wraps(original)(make(original))
    setattr(owner, attr, wrapper)
    _PATCHED.append((owner, attr, original))


def _spanned(rec: Recorder, name: str, bucket: Optional[str] = None,
             before: Optional[Callable] = None, after: Optional[Callable] = None):
    """Wrapper factory: a span around the call plus optional count hooks."""

    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            context = before(args, kwargs) if before is not None else None
            frame = rec.enter(name, bucket)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = rec.exit(frame)
            if after is not None:
                after(args, kwargs, result, context, frame, duration)
            return result

        return wrapper

    return make


def _counted(rec: Recorder, after: Callable):
    """Wrapper factory without a span (pure counting)."""

    def make(original: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    return make


def _batch_of(fields: Any) -> int:
    if hasattr(fields, "num_fields"):
        return int(fields.num_fields)
    return int(np.shape(fields)[0])


def install(rec: Recorder) -> None:
    """Wrap every layer's public functions; idempotent per process."""
    if _PATCHED:
        raise RuntimeError("layer wrappers are already installed")
    from repro.core.optim import gauss_newton
    from repro.core.optim.line_search import ArmijoLineSearch
    from repro.core.problem import RegistrationProblem
    from repro.parallel import scatter as scatter_module
    from repro.parallel.comm import CommunicationLedger
    from repro.parallel.scatter import ScatterInterpolationPlan
    from repro.parallel.transport import DistributedTransportSolver
    from repro.runtime.plan_pool import PlanPool
    from repro.service.journal import JobJournal
    from repro.service.workers import RegistrationService
    from repro.spectral.fft import FourierTransform
    from repro.transport.deformation import DeformationMap
    from repro.transport.interpolation import PeriodicInterpolator
    from repro.transport.solvers import TransportSolver

    # -- repro.transport: gather -------------------------------------------------
    def gather_before(args, kwargs):
        interp = args[0]
        rec._first_sight(rec._interp_seen, interp, lambda o: o.points_interpolated)
        return None

    def gather_after(batched: bool, planned: bool):
        def after(args, kwargs, result, context, frame, duration):
            batch = _batch_of(args[1]) if batched else 1
            if planned:
                points = int(args[2].num_points)
            else:
                points = int(np.prod(np.shape(args[2])[1:], dtype=np.int64))
            rec.add("gather.sweeps", batch)
            rec.add("gather.points", batch * points)
            rec.add("gather.bucket." + (frame.bucket or "other"), duration)
            if frame.matvec is not None:
                frame.matvec.sweeps += batch

        return after

    for attr, batched, planned in (
        ("__call__", False, False),
        ("interpolate_planned", False, True),
        ("interpolate_many", True, False),
        ("interpolate_many_planned", True, True),
    ):
        _patch(PeriodicInterpolator, attr, _spanned(
            rec, "transport.gather", before=gather_before, after=gather_after(batched, planned)))

    # -- repro.transport: plan, solves, deformation map --------------------------
    _patch(TransportSolver, "plan", _spanned(rec, "transport.plan", bucket="plan"))
    for attr, bucket in (
        ("solve_state", "state"),
        ("solve_state_final", "state_final"),
        ("solve_adjoint", "adjoint"),
        ("solve_incremental_state", "incstate"),
        ("solve_incremental_adjoint", "incadjoint"),
    ):
        _patch(TransportSolver, attr, _spanned(rec, "transport.solve", bucket=bucket))
    for attr in ("displacement", "determinant", "warp"):
        _patch(DeformationMap, attr, _spanned(rec, "transport.deformation", bucket="deformation"))

    # -- repro.spectral ----------------------------------------------------------
    def fft_before(args, kwargs):
        rec._first_sight(rec._fft_seen, args[0], lambda o: o.counters.total)
        return None

    def fft_after(batched: bool):
        def after(args, kwargs, result, context, frame, duration):
            count = int(np.prod(np.shape(args[1])[:-3], dtype=np.int64)) if batched else 1
            rec.add("fft.transforms", count)
            if frame.matvec is not None:
                rec.add("fft.matvec_transforms", count)

        return after

    for attr, batched in (("forward", False), ("backward", False),
                          ("forward_batch", True), ("backward_batch", True)):
        _patch(FourierTransform, attr, _spanned(
            rec, "spectral.fft", before=fft_before, after=fft_after(batched)))
    # the vector methods delegate to the batch methods, which do the counting
    for attr in ("forward_vector", "inverse_vector"):
        _patch(FourierTransform, attr, _spanned(rec, "spectral.fft"))

    # -- repro.runtime -----------------------------------------------------------
    _patch(PlanPool, "get", _counted(rec, lambda args, kwargs, result: rec.add("pool.gets")))

    # -- repro.core --------------------------------------------------------------
    _patch(RegistrationProblem, "evaluate_objective", _spanned(rec, "core.problem.objective"))
    _patch(RegistrationProblem, "linearize", _spanned(rec, "core.problem.linearize"))

    def matvec_before(args, kwargs):
        return args[0].hessian_matvec_count

    def matvec_after(args, kwargs, result, context, frame, duration):
        rec.add("problem.matvec_counter", args[0].hessian_matvec_count - context)
        # the paper's model: 4 nt sweeps per mat-vec, 3 nt at a
        # divergence-free iterate (the zero initial velocity)
        plan = args[1].plan
        kind = "divfree" if plan.is_divergence_free else "general"
        expected = (3 if plan.is_divergence_free else 4) * plan.num_time_steps
        rec.add(f"matvec.{kind}", 1)
        rec.add(f"matvec.{kind}_sweeps", frame.sweeps)
        rec.add(f"matvec.{kind}_expected_sweeps", expected)

    _patch(RegistrationProblem, "hessian_matvec", _spanned(
        rec, "core.problem.matvec", before=matvec_before, after=matvec_after))

    def newton_after(args, kwargs, result, context, frame, duration):
        rec.add("optim.newton_iterations", result.num_iterations)
        rec.add("optim.program_pcg_iterations", result.total_pcg_iterations)
        rec.add("optim.program_matvecs", result.total_hessian_matvecs)

    _patch(gauss_newton.GaussNewtonKrylov, "solve", _spanned(
        rec, "core.optim.newton", after=newton_after))

    def pcg_after(args, kwargs, result, context, frame, duration):
        rec.add("optim.pcg_iterations", result.iterations)

    # the Newton driver calls the name bound in its own module
    _patch(gauss_newton, "pcg", _spanned(rec, "core.optim.pcg", after=pcg_after))

    def search_after(args, kwargs, result, context, frame, duration):
        rec.add("optim.linesearch_evals", result.evaluations)
        rec.add("optim.linesearch_accepted", 1 if result.success else 0)

    _patch(ArmijoLineSearch, "search", _spanned(rec, "core.optim.linesearch", after=search_after))

    # -- repro.parallel ----------------------------------------------------------
    _patch(DistributedTransportSolver, "solve_state_many", _spanned(rec, "parallel.transport"))
    _patch(ScatterInterpolationPlan, "interpolate_many", _spanned(rec, "parallel.scatter"))
    _patch(scatter_module, "exchange_ghost_layers_batched", _spanned(
        rec, "parallel.ghost",
        after=lambda args, kwargs, result, context, frame, duration: rec.add("ghost.rounds")))

    def ledger_record(original: Callable) -> Callable:
        def wrapper(self, category, messages, payload_bytes):
            rec._first_sight(rec._ledgers, self, lambda o: (o.messages(), o.bytes()))
            result = original(self, category, messages, payload_bytes)
            rec.add("comm.messages", int(messages))
            rec.add("comm.bytes", int(payload_bytes))
            return result

        return wrapper

    _patch(CommunicationLedger, "record", ledger_record)

    # -- repro.service -----------------------------------------------------------
    for attr in ("submit_registration", "submit_transport"):
        _patch(RegistrationService, attr, _spanned(rec, "service.submit"))
    def commit_after(args, kwargs, result, context, frame, duration):
        rec.add("journal.commits")

    for attr in ("record_submitted", "record_terminal"):
        _patch(JobJournal, attr, _spanned(rec, "service.journal", after=commit_after))


def uninstall() -> None:
    """Restore every wrapped attribute."""
    while _PATCHED:
        owner, attr, original = _PATCHED.pop()
        setattr(owner, attr, original)
