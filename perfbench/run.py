"""Repository benchmark: time to solution of default-config registrations.

Usage (from the repository root)::

    python3 perfbench/run.py --workload brain-32 --seed 1 --seconds 38 --trace 0

Every sample runs in a fresh child process (``perfbench/sample.py``), so no
timed sample sees plans or gradient stacks pooled by an earlier one, and each
reports its own set-up time and peak RSS.  Untraced runs (``--trace 0``)
repeat samples for about ``--seconds`` seconds and report the end-to-end
metrics as medians.  Traced runs (``--trace 1``) take one untraced and one
traced sample and report the per-layer split; the traced sample wraps each
layer's public functions from outside (``perfbench/layers.py``).  Every
sample's outputs are checked; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench-work"
#: workload -> operations one sample performs (atlas: 4 registrations + 8 transports)
WORKLOADS = {"synthetic-40": 1, "brain-32": 1, "atlas-32": 12}
#: relative tolerance of the relative-residual check against reference.json
RESIDUAL_RTOL = 1e-6
#: a run never starts a sample that could end past this many seconds
RUN_DEADLINE_S = 165.0
#: untraced runs add set-up-only samples until set-up was timed this often
MIN_SETUPS = 3
#: transport-level callers a gather is attributed to (the nearest enclosing one)
GATHER_BUCKETS = ("plan", "state", "state_final", "adjoint", "incstate", "incadjoint",
                  "deformation")
#: traced self time is summed over these layers for trace.attributed_fraction
LAYERS = ("transport.gather", "transport.plan", "transport.solve", "transport.deformation",
          "spectral.fft", "core.problem", "core.optim", "parallel", "service")


def fail(message: str) -> "None":
    print(f"perfbench: error: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------- #
# provenance
# ---------------------------------------------------------------------- #
def source_digest() -> str:
    """Content hash of ``src/`` -- identifies the program when git cannot."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT.resolve():
            return "unknown"
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # timed samples run with the program's own tracing off
    for name in ("REPRO_TRACE", "REPRO_TRACE_OUT"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(WORK)
    return env


# ---------------------------------------------------------------------- #
# samples
# ---------------------------------------------------------------------- #
def run_sample(workload: str, seed: int, trace: bool, deadline: float,
               setup_only: bool = False) -> Tuple[Optional[dict], float, str]:
    """One child sample: (document or None, seconds it took, error text)."""
    command = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(int(trace)), "--work", str(WORK)]
    if setup_only:
        command.append("--setup-only")
    start = time.monotonic()
    proc = subprocess.Popen(command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, time.monotonic() - start, "sample timed out"
    took = time.monotonic() - start
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, took, f"sample exited with code {proc.returncode}"
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, took, "sample printed no result document"
    doc["setup_s"] = doc["setup_done_monotonic"] - start
    return doc, took, ""


def check_sample(doc: dict, reference: dict, digests: dict) -> None:
    """Output checks of one sample: sets ``op["problems"]`` on every operation."""
    residuals = iter(reference["relative_residual"])
    known = reference.get("known_failures", {})
    for index, op in enumerate(doc["ops"]):
        label = f"{op['kind']} #{index}"
        problems = op["problems"] = []
        expected = next(residuals) if op["kind"] == "register" else None
        if op["status"] != "done":
            problems.append(f"{label}: job ended {op['status']}: {op.get('error')}")
            continue
        if not op["finite"]:
            problems.append(f"{label}: non-finite output")
        if expected is not None:
            if str(index) in known:
                # recorded outcome of a known defect: it still has to
                # reproduce bit for bit, and it counts against success_fraction
                op["known_failure"] = known[str(index)]
            elif not op["det_min"] > 0.0:
                problems.append(f"{label}: det(grad y) min {op['det_min']} <= 0")
            if abs(op["relative_residual"] - expected) > RESIDUAL_RTOL * abs(expected):
                problems.append(f"{label}: relative residual {op['relative_residual']!r} "
                                f"!= reference {expected!r}")
        recorded = digests.setdefault(str(index), op["digest"])
        if op["digest"] != recorded:
            problems.append(f"{label}: output digest {op['digest'][:16]} differs from the "
                            f"digest {recorded[:16]} of an earlier run of this program")
    # cold start: every sample starts from an empty plan pool, so its lookups
    # repeat exactly from sample to sample and run to run
    pool = [doc["pool"]["hits"], doc["pool"]["misses"]]
    recorded_pool = digests.setdefault("pool", pool)
    if pool != recorded_pool:
        doc["ops"][0]["problems"].append(
            f"plan pool hits/misses {pool} differ from {recorded_pool} of an earlier sample")


def succeeded(op: dict) -> bool:
    """Done, passing every output check, and for a registration converged
    with ``det(grad y) > 0`` (known failures never succeed)."""
    return (op["status"] == "done" and not op["problems"] and op.get("converged", True)
            and op.get("det_min", 1.0) > 0.0)


def load_digests(workload: str) -> Tuple[dict, dict]:
    """Output digests recorded by earlier runs of the same source tree."""
    path = WORK / "digests.json"
    try:
        table = json.loads(path.read_text())
    except (OSError, ValueError):
        table = {}
    key = source_digest()
    return table, table.setdefault(key, {}).setdefault(workload, {})


def save_digests(table: dict) -> None:
    path = WORK / "digests.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(table))
    os.replace(tmp, path)


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
def residual_means(samples: List[dict]) -> List[float]:
    """Per sample, the mean relative residual of its finished registrations."""
    per_sample = ([op["relative_residual"] for op in doc["ops"] if "relative_residual" in op]
                  for doc in samples)
    return [statistics.fmean(values) for values in per_sample if values]


def end_to_end(samples: List[dict], setups: List[float],
               crashed_ops: int) -> Dict[str, Tuple[float, str]]:
    ops = [op for doc in samples for op in doc["ops"]]
    med = lambda key: statistics.median(doc[key] for doc in samples)  # noqa: E731
    return {
        "time_to_solution_s": (med("time_to_solution_s"), "s"),
        "makespan_s": (med("makespan_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "relative_residual": (statistics.median(residual_means(samples)), "ratio"),
        "success_fraction": (
            sum(map(succeeded, ops)) / (len(ops) + crashed_ops), "fraction"),
    }


def per_layer(traced: dict, untraced_wall: float) -> Dict[str, Tuple[float, str]]:
    t = traced["trace"]
    calls, counts, self_s, outer_s = t["calls"], t["counts"], t["self_s"], t["outer_s"]
    layer_self = t["layer_self_s"]
    c = lambda key: float(counts.get(key, 0.0))  # noqa: E731
    ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
    sweeps = c("gather.sweeps")
    matvecs = float(calls.get("core.problem.matvec", 0))
    pool = traced["pool"]
    service = traced.get("service", {})
    waits = service.get("queue_wait_s", {})
    m: Dict[str, Tuple[float, str]] = {
        "transport.gather.sweeps": (sweeps, "count"),
        "transport.gather.points": (c("gather.points"), "count"),
        "transport.gather.self_s": (self_s.get("transport.gather", 0.0), "s"),
        "transport.gather.s_per_sweep": (ratio(self_s.get("transport.gather", 0.0), sweeps), "s"),
    }
    for bucket in GATHER_BUCKETS + ("other",):
        m[f"transport.gather.{bucket}_s"] = (c(f"gather.bucket.{bucket}"), "s")
    m.update({
        "transport.plan.calls": (float(calls.get("transport.plan", 0)), "count"),
        "transport.plan.self_s": (self_s.get("transport.plan", 0.0), "s"),
        "transport.solve.calls": (float(calls.get("transport.solve", 0)), "count"),
        "transport.solve.self_s": (self_s.get("transport.solve", 0.0), "s"),
        "transport.deformation_s": (outer_s.get("transport.deformation", 0.0), "s"),
        "spectral.fft.transforms": (c("fft.transforms"), "count"),
        "spectral.fft.self_s": (self_s.get("spectral.fft", 0.0), "s"),
        "runtime.pool.hits": (float(pool["hits"]), "count"),
        "runtime.pool.misses": (float(pool["misses"]), "count"),
        "runtime.pool.hit_ratio": (ratio(pool["hits"], pool["hits"] + pool["misses"]), "ratio"),
        "runtime.pool.peak_bytes": (float(pool["peak_bytes"]), "bytes"),
        "runtime.pool.evictions": (float(pool["evictions"]), "count"),
        "core.problem.objective_evals": (float(calls.get("core.problem.objective", 0)), "count"),
        "core.problem.linearizations": (float(calls.get("core.problem.linearize", 0)), "count"),
        "core.problem.matvecs": (matvecs, "count"),
        "core.problem.matvec_s": (ratio(outer_s.get("core.problem.matvec", 0.0), matvecs), "s"),
        "core.problem.self_s": (layer_self.get("core.problem", 0.0), "s"),
        "core.optim.newton_iterations": (c("optim.newton_iterations"), "count"),
        "core.optim.pcg_iterations": (c("optim.pcg_iterations"), "count"),
        "core.optim.linesearch_evals": (c("optim.linesearch_evals"), "count"),
        "core.optim.linesearch_accept_ratio": (
            ratio(c("optim.linesearch_accepted"), c("optim.linesearch_evals")), "ratio"),
        "core.optim.self_s": (layer_self.get("core.optim", 0.0), "s"),
        "core.matvec.sweeps_per_matvec": (
            ratio(c("matvec.general_sweeps"), c("matvec.general")), "count"),
        "core.matvec.ffts_per_matvec": (ratio(c("fft.matvec_transforms"), matvecs), "count"),
        "parallel.comm.messages": (c("comm.messages"), "count"),
        "parallel.comm.bytes": (c("comm.bytes"), "bytes"),
        "parallel.ghost.rounds": (c("ghost.rounds"), "count"),
        "parallel.scatter_s": (outer_s.get("parallel.scatter", 0.0), "s"),
        "parallel.self_s": (layer_self.get("parallel", 0.0), "s"),
        "service.queue_wait_s.interactive": (waits.get("interactive", 0.0), "s"),
        "service.queue_wait_s.atlas-burst": (waits.get("atlas-burst", 0.0), "s"),
        "service.job_run_s": (service.get("job_run_s", 0.0), "s"),
        "service.batches": (float(service.get("batches", 0)), "count"),
        "service.jobs_per_batch": (
            ratio(service.get("jobs", 0), service.get("batches", 0)), "ratio"),
        "service.journal.commits": (c("journal.commits"), "count"),
        "service.journal.commit_s": (outer_s.get("service.journal", 0.0), "s"),
        "service.self_s": (layer_self.get("service", 0.0), "s"),
        "data.inputs_s": (traced["inputs_s"], "s"),
        "trace.overhead_s": (traced["makespan_s"] - untraced_wall, "s"),
        "trace.attributed_fraction": (
            ratio(sum(layer_self.get(layer, 0.0) for layer in LAYERS), traced["busy_s"]), "ratio"),
        "trace.crosscheck_mismatches": (float(len(t["mismatches"])), "count"),
    })
    return m


# ---------------------------------------------------------------------- #
def describe(doc: dict, traced: bool) -> None:
    kind = "traced" if traced else "timed"
    print(f"sample ({kind}): setup {doc['setup_s']:.3f} s, "
          f"time-to-solution {doc['time_to_solution_s']:.3f} s, "
          f"makespan {doc['makespan_s']:.3f} s, "
          f"peak RSS {doc['peak_rss_mb']:.1f} MB, plan pool {doc['pool']['hits']} hits / "
          f"{doc['pool']['misses']} misses")
    for op in doc["ops"]:
        if op.get("known_failure"):
            print(f"  KNOWN FAILURE: {op['known_failure']}")
        if op["kind"] == "register" and op["status"] == "done":
            print(f"  register: converged={op['converged']} reason={op['termination_reason']} "
                  f"newton={op['newton_iterations']} matvecs={op['hessian_matvecs']} "
                  f"linesearch_evals={op['linesearch_evals']} "
                  f"relative_residual={op['relative_residual']!r} det_min={op['det_min']:.4f} "
                  f"digest={op['digest'][:16]}")
        elif op["status"] == "done":
            print(f"  {op['kind']}: done digest={op['digest'][:16]}")
        else:
            print(f"  {op['kind']}: {op['status']} ({op.get('error')})")
    if "service" in doc:
        print(f"  service: {json.dumps(doc['service'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing "
             "(run from the repository root)")
    reference = json.loads((HERE / "reference.json").read_text())[args.workload]

    run_start = time.monotonic()
    deadline = run_start + RUN_DEADLINE_S
    if WORK.exists():
        for stale in WORK.glob("journal-*"):
            shutil.rmtree(stale, ignore_errors=True)
    WORK.mkdir(exist_ok=True)
    table, digests = load_digests(args.workload)

    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    samples: List[dict] = []
    traced_doc: Optional[dict] = None
    problems: List[str] = []
    attempted = failed = crashed = 0
    per_sample_ops = WORKLOADS[args.workload]

    def take(traced: bool) -> Tuple[Optional[dict], float]:
        nonlocal attempted, failed, crashed
        doc, took, error = run_sample(args.workload, args.seed, traced, deadline)
        if doc is None:
            attempted += per_sample_ops
            failed += per_sample_ops
            crashed += 0 if traced else per_sample_ops
            problems.append(error)
            print(f"sample: FAILED: {error}")
            return None, took
        check_sample(doc, reference, digests)
        describe(doc, traced)
        attempted += len(doc["ops"])
        failed += sum(1 for op in doc["ops"] if op["problems"])
        problems.extend(line for op in doc["ops"] for line in op["problems"])
        return doc, took

    # timed samples: repeat while another one fits into --seconds
    while True:
        doc, took = take(traced=False)
        if doc is not None:
            samples.append(doc)
        elapsed = time.monotonic() - run_start
        if args.trace or elapsed + took > args.seconds or time.monotonic() + 1.3 * took > deadline:
            break
    setups = [doc["setup_s"] for doc in samples]
    while not args.trace and samples and len(setups) < MIN_SETUPS:
        if time.monotonic() + 3 * max(setups) > deadline:
            break
        doc, _, error = run_sample(args.workload, args.seed, False, deadline, setup_only=True)
        if doc is None:
            problems.append("set-up sample: " + error)
            break
        setups.append(doc["setup_s"])
    if args.trace and samples and time.monotonic() + 1.5 * took < deadline:
        traced_doc, _ = take(traced=True)
        if traced_doc is not None:
            attempted += 1  # the counter cross-check is one more checked operation
            mismatches = traced_doc["trace"]["mismatches"]
            if mismatches:
                failed += 1
                problems.extend("counter cross-check: " + line for line in mismatches)
            else:
                print("counter cross-check: every benchmark-side count equals "
                      "the program's counter")
            print("spans (with parent links): "
                  + os.path.relpath(traced_doc["trace"]["spans_file"], ROOT))
    save_digests(table)

    provenance = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "versions": samples[0]["versions"] if samples else {},
        "repro_env": {k: v for k, v in sorted(child_env().items()) if k.startswith("REPRO_")},
        "seed": args.seed,
    }
    print("provenance: " + json.dumps(provenance))
    for line in problems:
        print("CHECK FAILED: " + line)
    if not residual_means(samples) or (args.trace and traced_doc is None):
        print("perfbench: no sample finished a registration, no metrics", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(traced_doc, statistics.median(d["makespan_s"] for d in samples))
        print("per-layer metrics of one traced sample:")
    else:
        metrics = end_to_end(samples, setups, crashed)
        print(f"end-to-end metrics: median of {len(samples)} samples; setup_s: median of "
              f"{len(setups)} set-ups ({', '.join(f'{s:.3f}' for s in setups)} s); "
              f"success_fraction: over all {len(samples) * per_sample_ops + crashed} operations")
    all_ops = [op for doc in samples + [traced_doc] if doc for op in doc["ops"]]
    unsuccessful = len(all_ops) - sum(map(succeeded, all_ops)) + crashed
    print(f"operations: {attempted} attempted, {failed} failed an output check; "
          f"failed_fraction (failed checks, crashes or not converged) "
          f"{unsuccessful / (len(all_ops) + crashed):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
