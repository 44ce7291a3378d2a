"""Crash recovery: kill -9 a serving process, restart, lose zero jobs.

The acceptance test of the durable journal: a worker process is SIGKILLed
mid-solve with a batch of journaled jobs in flight; a fresh service over
the same journal directory re-queues every unfinished job, finishes them
with *bitwise identical* results, and the artifact directory ends up with
exactly one document per submitted job (original ids — no duplicates, no
orphans).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.parallel.pencil import PencilDecomposition
from repro.parallel.transport import DistributedTransportSolver
from repro.service import RegistrationService, TransportJobSpec
from repro.service.journal import JobJournal
from repro.spectral.grid import Grid

SHAPE = (8, 8, 8)
FAST_STEPS = 2
SLOW_STEPS = 1000  # ~2.5 s per solve: a wide window for the SIGKILL

#: The serving child: submit fast jobs then slow ones, journal everything,
#: report the ids once the fast jobs finished, then hang until killed.
_CHILD_SCRIPT = """
import json, os, sys, threading, time
from repro.service import RegistrationService, TransportJobSpec
sys.path.insert(0, {repo_root!r})
from tests.service.test_recovery import _spec

journal_dir, artifacts_dir, marker_path, num_fast, num_slow = sys.argv[1:6]
service = RegistrationService(
    num_workers=1,
    max_batch=1,
    journal_dir=journal_dir,
    artifacts_dir=artifacts_dir,
)
fast = [service.submit_transport(_spec(i, fast=True)) for i in range(int(num_fast))]
slow = [
    service.submit_transport(_spec(int(num_fast) + i, fast=False))
    for i in range(int(num_slow))
]
for job in fast:
    job.wait(timeout=300)
    # wait() fires on completion, a hair before the worker persists the
    # terminal record + artifact; wait those out so the kill cannot race
    # this test's "finished before the crash" premise
    path = os.path.join(artifacts_dir, "job-%s.json" % job.job_id)
    deadline = time.monotonic() + 60
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.005)
# publish the marker atomically: the parent polls for its existence, so
# it must never see a created-but-still-empty document
tmp_path = marker_path + ".tmp"
with open(tmp_path, "w") as handle:
    json.dump({{"job_ids": [job.job_id for job in fast + slow]}}, handle)
    handle.flush()
    os.fsync(handle.fileno())
os.replace(tmp_path, marker_path)
threading.Event().wait()  # hold every claimed solve open until SIGKILL
"""


def _spec(index: int, fast: bool) -> TransportJobSpec:
    """Deterministic spec #*index* — parent and child build identical jobs."""
    velocity = 0.1 * np.random.default_rng(1000 + index).standard_normal((3, *SHAPE))
    moving = np.random.default_rng(2000 + index).standard_normal(SHAPE)
    return TransportJobSpec(
        velocity=velocity,
        moving=moving,
        num_time_steps=FAST_STEPS if fast else SLOW_STEPS,
        num_tasks=2,
    )


def _expected(spec: TransportJobSpec) -> np.ndarray:
    grid = Grid(SHAPE)
    decomposition = PencilDecomposition.from_num_tasks(grid.shape, spec.num_tasks)
    solver = DistributedTransportSolver(
        grid, decomposition, num_time_steps=spec.num_time_steps
    )
    return solver.solve_state(spec.velocity, spec.moving)


def _run_and_kill(tmp_path: Path, num_fast: int, num_slow: int):
    """Serve *num_fast* + *num_slow* jobs in a child; SIGKILL it mid-solve."""
    journal_dir = tmp_path / "journal"
    artifacts_dir = tmp_path / "artifacts"
    marker = tmp_path / "submitted.json"
    repo_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repo_root) / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    child = subprocess.Popen(
        [
            sys.executable,
            "-c",
            _CHILD_SCRIPT.format(repo_root=repo_root),
            str(journal_dir),
            str(artifacts_dir),
            str(marker),
            str(num_fast),
            str(num_slow),
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 120
        while not marker.exists():
            if child.poll() is not None:
                raise AssertionError(
                    f"child exited early:\n{child.stderr.read().decode()}"
                )
            if time.monotonic() > deadline:
                raise AssertionError("child never reported its submissions")
            time.sleep(0.01)
        # the marker is fsync-ordered AFTER every submission's journal
        # record, so all jobs are durable; the first slow solve is running
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:  # pragma: no cover - cleanup on assertion
            child.kill()
            child.wait(timeout=30)
    job_ids = json.loads(marker.read_text())["job_ids"]
    assert len(job_ids) == num_fast + num_slow
    return journal_dir, artifacts_dir, job_ids


@pytest.mark.slow
class TestKillAndRestart:
    def test_sigkill_mid_batch_loses_zero_jobs(self, tmp_path):
        """Four in-flight jobs, kill -9, restart: all four DONE, bitwise."""
        num_jobs = 4
        journal_dir, artifacts_dir, job_ids = _run_and_kill(
            tmp_path, num_fast=0, num_slow=num_jobs
        )
        with RegistrationService(
            num_workers=2,
            max_batch=1,
            journal_dir=journal_dir,
            artifacts_dir=artifacts_dir,
        ) as service:
            recovered = service.recovered_jobs
            assert [job.job_id for job in recovered] == job_ids
            results = service.gather(recovered, timeout=600)
            assert service.service_stats()["jobs_recovered"] == num_jobs

        for index, (job, result) in enumerate(zip(recovered, results)):
            assert job.status.value == "done"
            np.testing.assert_array_equal(
                result,
                _expected(_spec(index, fast=False)),
                err_msg=f"recovered job {job.job_id} diverged from a direct solve",
            )

        artifacts = sorted(artifacts_dir.glob("job-*.json"))
        assert [path.name for path in artifacts] == sorted(
            f"job-{job_id}.json" for job_id in job_ids
        ), "exactly one artifact per submitted job, original ids, no duplicates"
        assert JobJournal(journal_dir).replay() == [], "nothing left to recover"

    def test_finished_jobs_are_not_rerun(self, tmp_path):
        """Jobs that completed before the kill stay done; only the rest rerun."""
        journal_dir, artifacts_dir, job_ids = _run_and_kill(
            tmp_path, num_fast=2, num_slow=2
        )
        fast_ids, slow_ids = job_ids[:2], job_ids[2:]
        # the child already wrote the fast jobs' artifacts
        for job_id in fast_ids:
            doc = json.loads((artifacts_dir / f"job-{job_id}.json").read_text())
            assert doc["job"]["status"] == "done"

        with RegistrationService(
            num_workers=2,
            max_batch=1,
            journal_dir=journal_dir,
            artifacts_dir=artifacts_dir,
        ) as service:
            recovered_ids = [job.job_id for job in service.recovered_jobs]
            assert set(recovered_ids).issubset(set(slow_ids)), (
                "finished jobs must never be re-queued"
            )
            assert set(recovered_ids) >= set(slow_ids[1:]), (
                "jobs the child never started must be re-queued"
            )
            service.gather(service.recovered_jobs, timeout=600)

        artifacts = {path.name for path in artifacts_dir.glob("job-*.json")}
        assert artifacts == {f"job-{job_id}.json" for job_id in job_ids}
        assert JobJournal(journal_dir).replay() == []

    def test_second_restart_recovers_nothing(self, tmp_path):
        journal_dir, artifacts_dir, job_ids = _run_and_kill(
            tmp_path, num_fast=0, num_slow=2
        )
        with RegistrationService(
            num_workers=2, max_batch=1, journal_dir=journal_dir
        ) as service:
            assert len(service.recovered_jobs) == 2
            service.gather(service.recovered_jobs, timeout=600)
        with RegistrationService(
            num_workers=1, max_batch=1, journal_dir=journal_dir
        ) as service:
            assert service.recovered_jobs == []
