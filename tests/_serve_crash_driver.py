"""Subprocess driver for the scheduler SIGKILL-and-recover test.

Run as ``python tests/_serve_crash_driver.py PHASE --checkpoint-dir D``:

* ``phase1`` starts a supervised scheduler, submits a burst of
  checkpointed lockstep jobs, touches ``--ready-file`` once snapshots
  exist on disk, and then runs until the parent test SIGKILLs it —
  there is no clean exit path on purpose.
* ``phase2`` starts a fresh scheduler over the same directory, lets
  ledger recovery re-admit the orphaned jobs, drains them, and prints
  one JSON object (fronts, counters, the ledger audit) on stdout for
  the parent to compare against the sequential oracle.

Both phases must build *identical* jobs; the constants here are
mirrored by ``tests/test_crash_resume.py``.
"""

import argparse
import asyncio
import json
import sys

from pathlib import Path

from repro.parallel.pool import PoolParams
from repro.serve import JobSpec, SolveScheduler
from repro.serve.ledger import LEDGER_FILENAME, JobLedger
from repro.tabu.params import TSMOParams
from repro.vrptw.generator import generate_instance

FAST = PoolParams(
    heartbeat_interval=0.05,
    heartbeat_timeout=10.0,
    task_deadline=10.0,
    backoff_base=0.01,
)

PARAMS = TSMOParams(max_evaluations=240, neighborhood_size=16)
N_JOBS = 4
SEED_BASE = 90
CHECKPOINT_EVERY = 32


def make_instance():
    return generate_instance("R1", 20, seed=55)


def make_specs(resume: bool = False) -> list[JobSpec]:
    return [
        JobSpec(
            job_id=f"kr-{i}",
            seed=SEED_BASE + i,
            params=PARAMS,
            checkpoint_every=CHECKPOINT_EVERY,
            resume=resume,
        )
        for i in range(N_JOBS)
    ]


async def phase1(checkpoint_dir: Path, ready_file: Path) -> None:
    scheduler = SolveScheduler(
        make_instance(),
        n_workers=1,
        pool_params=FAST,
        checkpoint_dir=checkpoint_dir,
    )
    scheduler.start()
    jobs = [scheduler.submit(spec) for spec in make_specs()]
    signalled = False
    while True:
        await asyncio.sleep(0.02)
        if not signalled and any(checkpoint_dir.glob("serve_kr-*.ckpt")):
            # Real progress is durably on disk: tell the parent it may
            # SIGKILL us whenever it likes.
            ready_file.write_text("ready")
            signalled = True
        if all(job.done() for job in jobs):  # pragma: no cover - parent
            # kills us long before the burst drains; never exit cleanly.
            await asyncio.sleep(3600)


async def phase2(checkpoint_dir: Path) -> dict:
    scheduler = SolveScheduler(
        make_instance(),
        n_workers=1,
        pool_params=FAST,
        checkpoint_dir=checkpoint_dir,
    )
    async with scheduler:
        jobs = list(scheduler._jobs.values())  # ledger-recovered handles
        results = await asyncio.gather(*(job.wait() for job in jobs))
        report = scheduler.report()
    audit = JobLedger(checkpoint_dir / LEDGER_FILENAME).audit()
    return {
        "recovered": report["recovered_jobs"],
        "completed": report["completed"],
        "audit": audit,
        "fronts": {
            job.job_id: result.front().tolist()
            for job, result in zip(jobs, results)
        },
        "evaluations": {
            job.job_id: result.evaluations
            for job, result in zip(jobs, results)
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("phase1", "phase2"))
    parser.add_argument("--checkpoint-dir", required=True)
    parser.add_argument("--ready-file", default=None)
    args = parser.parse_args()
    checkpoint_dir = Path(args.checkpoint_dir)
    if args.phase == "phase1":
        asyncio.run(phase1(checkpoint_dir, Path(args.ready_file)))
        return 1  # pragma: no cover - phase1 only ends by SIGKILL
    payload = asyncio.run(phase2(checkpoint_dir))
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
