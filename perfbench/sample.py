"""One benchmark sample in a fresh process: set up, run one operation, report.

Run by ``perfbench/run.py`` with ``PYTHONPATH=src``; never run by hand in a
loop, because the point of a fresh process is that no timed sample sees a
plan or gradient stack pooled by an earlier one.  The last line of standard
output is one JSON document describing the sample.

Workloads (default config: numpy FFT, scipy ``cubic_bspline``, nt = 4,
beta = 1e-2, gtol = 1e-2):

* ``synthetic-40`` -- the Fig. 5 synthetic problem at 40^3, one ``register``;
* ``brain-32``     -- the brain-phantom pair at NIREP aspect 32x38x32, one
  ``register``;
* ``atlas-32``     -- a 4-subject 32^3 atlas burst plus 8 interactive
  distributed transport jobs through ``RegistrationService``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List

BRAIN_PAIR_SEED = 42
ATLAS_NEWTON_CAP = 10
ATLAS_KRYLOV_CAP = 50


def _digest(array) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _registration_op(result) -> Dict[str, Any]:
    import numpy as np

    det_min = float(result.det_grad_stats["min"])
    finite = bool(
        np.isfinite(result.velocity).all()
        and np.isfinite(result.deformed_template).all()
        and np.isfinite(result.relative_residual)
        and np.isfinite(det_min)
    )
    return {
        "kind": "register",
        "status": "done",
        "finite": finite,
        "det_min": det_min,
        "converged": bool(result.converged),
        "termination_reason": result.optimization.termination_reason,
        "newton_iterations": result.num_newton_iterations,
        "hessian_matvecs": result.num_hessian_matvecs,
        "linesearch_evals": sum(
            r.line_search_evaluations for r in result.optimization.iterations),
        "relative_residual": float(result.relative_residual),
        "digest": _digest(result.velocity),
    }


# ---------------------------------------------------------------------- #
# workloads: setup() builds inputs (timed as set-up), run() is timed
# ---------------------------------------------------------------------- #
class SolveWorkload:
    """One ``repro.register`` call on a fixed image pair."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name = name

    def setup(self) -> None:
        if self.name == "synthetic-40":
            from repro.data.synthetic import synthetic_registration_problem

            pair = synthetic_registration_problem(40)
        else:
            from repro.data.brain import brain_registration_pair

            pair = brain_registration_pair(32, seed=BRAIN_PAIR_SEED)
        self.template, self.reference = pair.template, pair.reference

    def run(self) -> Dict[str, Any]:
        import repro

        start = time.perf_counter()
        result = repro.register(self.template, self.reference)
        wall = time.perf_counter() - start
        return {
            "time_to_solution_s": wall,
            "makespan_s": wall,
            "busy_s": wall,
            "ops": [_registration_op(result)],
        }

    def close(self) -> None:
        pass


class AtlasWorkload:
    """An atlas burst plus interactive transport jobs through the service."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        import repro
        from repro.data.synthetic import synthetic_population, synthetic_velocity

        self.population = synthetic_population(32)
        velocity = synthetic_velocity(self.population.grid, 1.0)
        fields = list(self.population.subjects) + [
            subject - self.population.atlas for subject in self.population.subjects
        ]
        self.transport_order = list(range(len(fields)))
        random.Random(self.seed).shuffle(self.transport_order)
        self.velocity, self.fields = velocity, fields
        self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=self.work)
        self.service = repro.RegistrationService(
            num_workers=2, max_batch=4, journal_dir=self.journal_dir, journal_fsync=True
        )

    def run(self) -> Dict[str, Any]:
        import numpy as np
        from repro import SolverOptions
        from repro.service.atlas import submit_atlas
        from repro.service.jobs import JobStatus, TransportJobSpec

        options = SolverOptions(
            max_newton_iterations=ATLAS_NEWTON_CAP, max_krylov_iterations=ATLAS_KRYLOV_CAP
        )
        start = time.perf_counter()
        registrations = submit_atlas(
            self.service, self.population.atlas, self.population.subjects, options=options
        )
        transports = {
            index: self.service.submit_transport(
                TransportJobSpec(velocity=self.velocity, moving=self.fields[index], num_tasks=4)
            )
            for index in self.transport_order
        }
        submit_s = time.perf_counter() - start
        for job in registrations + list(transports.values()):
            job.wait()
        makespan = time.perf_counter() - start

        ops: List[Dict[str, Any]] = []
        for job in registrations:
            if job.status is JobStatus.DONE:
                op = _registration_op(job.result())
            else:
                op = {"kind": "register", "status": job.status.value, "error": job.record.error}
            ops.append(op)
        for index in range(len(self.fields)):
            job = transports[index]
            if job.status is JobStatus.DONE:
                out = job.result()
                ops.append({
                    "kind": "transport",
                    "status": "done",
                    "finite": bool(np.isfinite(out).all()),
                    "digest": _digest(out),
                })
            else:
                ops.append({"kind": "transport", "status": job.status.value,
                            "error": job.record.error})

        records = [job.record for job in registrations + list(transports.values())]
        latencies = [r.finished_at - r.submitted_at for r in (j.record for j in registrations)]
        # the client's submit loop plus one busy interval per executed batch
        # (riders share started_at)
        batches: Dict[float, float] = {}
        for r in records:
            run_s = r.finished_at - r.started_at
            batches[r.started_at] = max(batches.get(r.started_at, 0.0), run_s)
        stats = self.service.service_stats()
        waits: Dict[str, List[float]] = {}
        for r in records:
            waits.setdefault(r.job_class, []).append(r.started_at - r.submitted_at)
        return {
            "time_to_solution_s": float(np.median(latencies)),
            "makespan_s": makespan,
            "busy_s": submit_s + sum(batches.values()),
            "ops": ops,
            "service": {
                "queue_wait_s": {k: float(np.median(v)) for k, v in waits.items()},
                "job_run_s": float(np.median([r.finished_at - r.started_at for r in records])),
                "batches": stats["batches_executed"],
                "jobs": len(records),
                "batch_sizes": sorted(r.batch_size for r in records),
            },
        }

    def close(self) -> None:
        self.service.shutdown()
        shutil.rmtree(self.journal_dir, ignore_errors=True)


WORKLOADS = {
    "synthetic-40": SolveWorkload,
    "brain-32": SolveWorkload,
    "atlas-32": AtlasWorkload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after set-up (an extra set-up time sample)")
    args = parser.parse_args(argv)

    import numpy as np
    import scipy

    import repro
    from repro.runtime.plan_pool import get_plan_pool

    inputs_start = time.perf_counter()
    workload = WORKLOADS[args.workload](args.workload, args.seed, args.work)
    workload.setup()
    setup_done = time.monotonic()
    inputs_s = time.perf_counter() - inputs_start
    if args.setup_only:
        workload.close()
        print(json.dumps({"setup_done_monotonic": setup_done}))
        return 0

    recorder = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import layers

        recorder = layers.Recorder()
        layers.install(recorder)
    pool = get_plan_pool()
    pool_before = pool.stats
    try:
        outcome = workload.run()
    finally:
        if recorder is not None:
            layers.uninstall()
        workload.close()
    pool_after = pool.stats
    delta = pool_after - pool_before

    doc: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_done_monotonic": setup_done,
        "inputs_s": inputs_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pool": {
            "hits": delta.hits,
            "misses": delta.misses,
            "evictions": delta.evictions,
            "peak_bytes": pool_after.peak_bytes,
        },
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "repro": repro.__version__,
        },
        **outcome,
    }
    if recorder is not None:
        spans_path = args.work / f"spans-{args.workload}-seed{args.seed}.json"
        recorder.write_spans(spans_path)
        doc["trace"] = {
            "spans_file": str(spans_path),
            "calls": dict(recorder.calls),
            "outer_s": dict(recorder.outer_s),
            "self_s": dict(recorder.self_s),
            "layer_self_s": recorder.layer_self_s(),
            "counts": dict(recorder.counts),
            "mismatches": recorder.cross_check({
                "runtime.pool.lookups": (recorder.counts["pool.gets"], delta.hits + delta.misses),
                "core.optim.pcg_iterations": (
                    recorder.counts["optim.pcg_iterations"],
                    recorder.counts["optim.program_pcg_iterations"],
                ),
                "core.problem.matvecs_in_results": (
                    recorder.calls["core.problem.matvec"],
                    recorder.counts["optim.program_matvecs"],
                ),
            }),
        }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
