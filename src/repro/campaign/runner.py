"""Campaign runner: async job queue + worker pool + result cache.

The coordinator expands the sweep spec into jobs, then drains them
through an asyncio queue with a bounded worker pool:

* ``workers=0`` runs every job in-process (serial, deterministic order);
* ``workers>0`` dispatches jobs to a ``ProcessPoolExecutor`` — each
  worker process keeps a long-lived :class:`~repro.assembly.plan
  .PlanCache`, so consecutive jobs with identical mesh topology adopt
  each other's captured assembly plans (setup sharing).

Before dispatching, each job's digest is looked up in the
content-addressed :class:`~repro.campaign.store.ResultStore`; a hit
serves the stored canonical result without running anything
(``campaign.cache_hits``).  Completion, failure, and cache status are
recorded per job in the durable ``repro.campaign/1`` manifest, making a
killed campaign re-entrant: ``done`` jobs are never re-run, and
interrupted jobs resume from their per-job checkpoint ring when the spec
enables checkpointing.

Job results are deterministic (see ``canonical_result``), so a 2-worker
sweep produces byte-identical stored documents to a serial one —
``benchmarks/check_campaign_determinism.py`` gates exactly that.

Passing a :class:`~repro.campaign.supervisor.SupervisorPolicy` switches
execution to the supervised path (:class:`~repro.campaign.supervisor
.Supervisor`): long-lived worker processes with job leases, heartbeat
hang detection, taxonomy-classified retry with backoff, poison-job
quarantine, and a failure-rate breaker.  The job-execution core lives in
:mod:`repro.campaign.supervisor` and is shared by both paths.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any

from repro.assembly.plan import PlanCache
from repro.campaign import supervisor as _sup
from repro.campaign.job import CampaignSpec, JobSpec
from repro.campaign.manifest import CampaignManifest
from repro.campaign.store import ResultStore
from repro.campaign.supervisor import (
    Supervisor,
    SupervisorPolicy,
    execute_job_payload,
    lease_is_live,
    new_nonce,
    read_lease,
    release_lease,
    write_lease,
)
from repro.obs.hooks import ObserverHub
from repro.obs.metrics import MetricsRegistry
from repro.resilience.injection import FaultInjector

#: Pool-picklable aliases — the execution core moved to the supervisor
#: module; the ``ProcessPoolExecutor`` path submits these by reference.
_execute_job = execute_job_payload
_init_worker = _sup._init_worker


class Campaign:
    """One campaign run (or resume) over a campaign directory.

    Attributes:
        spec: the sweep specification.
        root: campaign directory (manifest, result store, per-job
            checkpoint rings).
        workers: pool size; 0 runs jobs in-process serially.
        hub: observer hub receiving ``campaign_*`` progress events.
        metrics: registry carrying the ``campaign.*`` counters.
        store_dir: result-store directory (default ``<root>/store``).
            Pointing several campaigns at one store lets them share
            results: a job identical to one any prior campaign completed
            is served from the store instead of re-running.
        policy: when set, jobs run under the
            :class:`~repro.campaign.supervisor.Supervisor` (fault
            domains, retry/backoff, hang detection, quarantine) instead
            of the plain pool.  Supervised execution always uses worker
            processes (fault isolation needs a separate process), so
            ``workers=0`` behaves as one worker.
        chaos: optional seeded fault injector driving process-level
            chaos (``worker_crash``/``worker_hang`` specs and store
            ``io_fail`` windows) for the chaos gate and tests.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        root: str,
        workers: int = 0,
        hub: ObserverHub | None = None,
        metrics: MetricsRegistry | None = None,
        store_dir: str | None = None,
        policy: SupervisorPolicy | None = None,
        chaos: FaultInjector | None = None,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.spec = spec
        self.root = root
        self.workers = workers
        self.hub = hub or ObserverHub()
        self.metrics = metrics or MetricsRegistry()
        self.policy = policy
        self.chaos = chaos
        self.jobs = spec.expand()
        self.store = ResultStore(
            store_dir or os.path.join(root, "store"), injector=chaos
        )
        self.manifest = CampaignManifest(root, spec)
        if os.path.exists(self.manifest.path):
            self.manifest = CampaignManifest.load(root)
            self.manifest.spec = spec
        self.manifest.register(self.jobs)
        self._plan_cache = PlanCache()  # in-process mode's shared cache

    @classmethod
    def resume(
        cls,
        root: str,
        workers: int = 0,
        hub: ObserverHub | None = None,
        metrics: MetricsRegistry | None = None,
        store_dir: str | None = None,
        policy: SupervisorPolicy | None = None,
        chaos: FaultInjector | None = None,
    ) -> "Campaign":
        """Re-open an existing campaign directory from its manifest."""
        manifest = CampaignManifest.load(root)
        return cls(
            manifest.spec,
            root,
            workers=workers,
            hub=hub,
            metrics=metrics,
            store_dir=store_dir,
            policy=policy,
            chaos=chaos,
        )

    # -- helpers -------------------------------------------------------------

    def _job_dir(self, job: JobSpec) -> str:
        return os.path.join(self.root, "jobs", job.job_id)

    def _ckpt_dir(self, job: JobSpec) -> str:
        return os.path.join(self._job_dir(job), "checkpoints")

    def _payload(self, job: JobSpec, try_resume: bool) -> dict:
        return {
            "job": job.to_dict(),
            "checkpoint_every": self.spec.checkpoint_every,
            "checkpoint_keep": self.spec.checkpoint_keep,
            "checkpoint_dir": (
                self._ckpt_dir(job) if self.spec.checkpoint_every else ""
            ),
            "try_resume": try_resume,
        }

    def _emit(self, event: str, **kw: Any) -> None:
        self.hub.emit(event, **kw)

    # -- dry run -------------------------------------------------------------

    def plan(self) -> list[dict]:
        """The expanded job table without running anything (dry run)."""
        rows = []
        for job in self.jobs:
            digest = job.digest()
            entry = self.manifest.jobs.get(digest, {})
            rows.append(
                {
                    "job_id": job.job_id,
                    "digest": digest,
                    "workload": job.workload,
                    "steps": job.steps,
                    "seed": job.seed,
                    "overrides": job.overrides,
                    "status": entry.get("status", "pending"),
                    "cached": digest in self.store,
                }
            )
        return rows

    # -- execution -----------------------------------------------------------

    def run(
        self, max_jobs: int | None = None, dry_run: bool = False
    ) -> dict:
        """Drain the campaign; returns the summary document.

        ``max_jobs`` bounds the number of jobs *executed* this
        invocation (cache hits are free); remaining jobs stay
        ``pending``/``running`` in the manifest for a later resume.
        """
        if dry_run:
            rows = self.plan()
            self.manifest.save()
            return {
                "format": "repro.campaign.summary/1",
                "name": self.spec.name,
                "dry_run": True,
                "total_jobs": len(rows),
                "jobs": rows,
            }
        start = time.perf_counter()
        self.manifest.save()
        self._emit(
            "campaign_start",
            name=self.spec.name,
            total=len(self.jobs),
            workers=self.workers,
            supervised=self.policy is not None,
        )
        if self.policy is not None:
            Supervisor(self, self.policy, chaos=self.chaos).run(max_jobs)
        else:
            asyncio.run(self._drain(max_jobs))
        counts = self.manifest.status_counts()
        m = self.metrics
        summary = {
            "format": "repro.campaign.summary/1",
            "name": self.spec.name,
            "root": self.root,
            "workers": self.workers,
            "supervised": self.policy is not None,
            "total_jobs": len(self.jobs),
            "status_counts": counts,
            "cache_hits": int(m.counter_total("campaign.cache_hits")),
            "cache_misses": int(m.counter_total("campaign.cache_misses")),
            "jobs_run": int(m.counter_total("campaign.jobs_run")),
            "jobs_failed": int(m.counter_total("campaign.jobs_failed")),
            "jobs_resumed": int(m.counter_total("campaign.jobs_resumed")),
            "retries": int(m.counter_total("campaign.retries")),
            "requeues": int(m.counter_total("campaign.requeues")),
            "quarantined": int(m.counter_total("campaign.quarantined")),
            "lease_expired": int(m.counter_total("campaign.lease_expired")),
            "breaker_trips": int(m.counter_total("campaign.breaker_trips")),
            "store_retries": int(m.counter_total("campaign.store_retries")),
            "plan_shared": int(m.counter_total("assembly.plan_shared")),
            "wall_s": time.perf_counter() - start,
            "jobs": {
                digest: {
                    "status": entry["status"],
                    **{
                        k: entry[k]
                        for k in (
                            "result",
                            "error",
                            "error_type",
                            "taxonomy",
                            "cached",
                            "wall_s",
                        )
                        if k in entry
                    },
                    **(
                        {"attempts": len(entry["attempts"])}
                        if entry.get("attempts")
                        else {}
                    ),
                }
                for digest, entry in sorted(self.manifest.jobs.items())
            },
        }
        self._emit("campaign_end", summary=summary)
        return summary

    async def _drain(self, max_jobs: int | None) -> None:
        queue: asyncio.Queue[tuple[JobSpec, str, bool]] = asyncio.Queue()
        budget = {"left": max_jobs if max_jobs is not None else len(self.jobs)}
        for job in self.jobs:
            digest = job.digest()
            entry = self.manifest.jobs[digest]
            if entry["status"] in ("done", "quarantined"):
                continue
            was_running = entry["status"] == "running"
            if was_running:
                # A ``running`` entry is ambiguous: the previous
                # coordinator may have died — or may still be live.
                # Its lease disambiguates; only a stale lease (dead
                # owner) is taken over.
                lease = read_lease(self._job_dir(job))
                if lease_is_live(lease):
                    self._emit(
                        "campaign_job",
                        job_id=job.job_id,
                        digest=digest,
                        status="leased",
                        pid=lease["pid"],
                    )
                    continue
                if lease is not None:
                    self.metrics.counter("campaign.lease_expired").inc()
                    self._emit(
                        "lease_takeover",
                        job_id=job.job_id,
                        digest=digest,
                        pid=lease.get("pid"),
                        nonce=lease.get("nonce"),
                    )
                    release_lease(self._job_dir(job))
            queue.put_nowait((job, digest, was_running))
        loop = asyncio.get_running_loop()
        pool: ProcessPoolExecutor | None = None
        if self.workers > 0:
            pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker
            )
        try:
            async def consume() -> None:
                while True:
                    try:
                        job, digest, was_running = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        return
                    await self._run_one(
                        loop, pool, job, digest, was_running, budget
                    )

            n_consumers = max(1, self.workers)
            await asyncio.gather(*(consume() for _ in range(n_consumers)))
        finally:
            if pool is not None:
                pool.shutdown(wait=True)

    async def _run_one(
        self,
        loop: asyncio.AbstractEventLoop,
        pool: ProcessPoolExecutor | None,
        job: JobSpec,
        digest: str,
        was_running: bool,
        budget: dict,
    ) -> None:
        cached = self.store.get(digest)
        if cached is not None:
            self.metrics.counter("campaign.cache_hits").inc()
            self.manifest.mark(
                digest,
                "done",
                cached=True,
                result=os.path.relpath(self.store.path(digest), self.root),
            )
            self._emit(
                "campaign_job",
                job_id=job.job_id,
                digest=digest,
                status="cached",
            )
            return
        self.metrics.counter("campaign.cache_misses").inc()
        if budget["left"] <= 0:
            # Out of this invocation's execution budget: leave the job
            # for a later resume (status untouched).
            self._emit(
                "campaign_job",
                job_id=job.job_id,
                digest=digest,
                status="deferred",
            )
            return
        budget["left"] -= 1
        nonce = new_nonce()
        write_lease(self._job_dir(job), nonce)
        self.manifest.mark(
            digest, "running", lease={"pid": os.getpid(), "nonce": nonce}
        )
        self._emit(
            "campaign_job",
            job_id=job.job_id,
            digest=digest,
            status="running",
            resume=was_running,
        )
        payload = self._payload(job, try_resume=was_running)
        if pool is None:
            # In-process serial mode: share one plan cache directly.
            _sup._PLAN_CACHE = self._plan_cache
            outcome = _execute_job(payload)
        else:
            outcome = await loop.run_in_executor(
                pool, _execute_job, payload
            )
        release_lease(self._job_dir(job))
        if not outcome.get("ok"):
            self.metrics.counter("campaign.jobs_failed").inc()
            self.manifest.mark(
                digest,
                "failed",
                error=outcome.get("error", "unknown"),
                error_type=outcome.get("error_type", ""),
                taxonomy=outcome.get("taxonomy", ""),
                traceback=outcome.get("traceback", ""),
                attempts=[
                    {
                        "attempt": 0,
                        "taxonomy": outcome.get("taxonomy", ""),
                        "error_type": outcome.get("error_type", ""),
                        "error": outcome.get("error", "unknown"),
                        "traceback": outcome.get("traceback", ""),
                        "wall_s": outcome.get("wall_s"),
                    }
                ],
                wall_s=outcome.get("wall_s"),
            )
            self._emit(
                "campaign_job",
                job_id=job.job_id,
                digest=digest,
                status="failed",
                error=outcome.get("error", "unknown"),
                taxonomy=outcome.get("taxonomy", ""),
            )
            return
        self.metrics.counter("campaign.jobs_run").inc()
        if outcome.get("resumed"):
            self.metrics.counter("campaign.jobs_resumed").inc()
        self.metrics.counter("assembly.plan_shared").inc(
            outcome.get("plan_shared", 0.0)
        )
        path = self.store.put(digest, outcome["doc"])
        self.manifest.mark(
            digest,
            "done",
            cached=False,
            result=os.path.relpath(path, self.root),
            wall_s=outcome.get("wall_s"),
        )
        self._emit(
            "campaign_job",
            job_id=job.job_id,
            digest=digest,
            status="done",
            wall_s=outcome.get("wall_s"),
            resumed=bool(outcome.get("resumed")),
        )
