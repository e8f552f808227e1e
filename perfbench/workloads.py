"""The benchmark workloads: ``turbine_low`` at 6 and 1 ranks, a campaign sweep.

Every operation (a time step, a campaign job) is checked before its time
counts; a failed check marks the operation failed and the run goes on.
Each workload returns an :class:`Outcome`: its end-to-end metrics, or with
``trace`` its per-layer metrics, plus the exact counts that must repeat
bit for bit across runs of one seed and between traced and untraced runs.
End-to-end times are wall times rescaled by the host-speed probe
(``probe.py``); per-layer times are raw wall times.
"""

from __future__ import annotations

import contextlib
import gc
import glob
import hashlib
import itertools
import json
import math
import os
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.campaign import Campaign, CampaignSpec
from repro.campaign import runner
from repro.campaign.job import JobSpec, canonical_result
from repro.core.config import SimulationConfig
from repro.core.simulation import NaluWindSimulation, SimulationReport
from repro.harness.scaling import nli_step_times
from repro.perf.machines import get_machine
from repro.serialize import canonical_json

from probe import SpeedProbe
from spans import CAMPAIGN_LAYERS, SIM_LAYERS, SpanLog, traced

#: Relative divergence bound of a passing step (observed ~1e-8).
DIVERGENCE_BOUND = 1e-6
#: Machine that prices the modelled NLI time.
MODEL_MACHINE = "summit-gpu"
#: Simulations built per run, each stepped once; set-up time and first
#: step time are means over them (one cold step alone spread ~0.22
#: between runs, and a third build would leave low_r6 one warm step).
BUILDS = 2
#: Steps every pass makes (one cold, the rest warm); exact counts cover
#: exactly these, whatever else the run adds to fill its time.
COUNTED_STEPS = 2
#: Fresh campaigns per sweep run, at least (more while time remains).
MIN_ROUNDS = 2
#: The sweep: seeds x dt values, one 1-step turbine_tiny job each.
SWEEP_SEEDS = 4
SWEEP_DTS = (0.05, 0.025)
SWEEP_WORKERS = 2
#: In-process constructions of the sweep's first job behind its setup_s.
SWEEP_SETUPS = 5


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``failed`` counts failed operations; ``problems`` also holds failed
    run-level checks (exact-count mismatches), which fail no operation but
    make the run incorrect.
    """

    metrics: dict[str, float] = field(default_factory=dict)
    counts: dict[str, object] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Timing samples behind ``step_s``.
    samples: int = 0
    #: Reference over measured host speed, over the whole run.
    factor: float = 1.0
    problems: list[str] = field(default_factory=list)
    spans: SpanLog | None = None

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def compare_counts(self, other: dict[str, object], what: str) -> None:
        """Require ``other`` to equal this run's exact counts bit for bit."""
        for key in sorted(set(self.counts) | set(other)):
            a, b = self.counts.get(key), other.get(key)
            if a != b:
                self.problems.append(f"{key}: {a!r} != {b!r} ({what})")


def peak_rss_mb(children: bool = False) -> float:
    """Largest peak resident set of this process (or of its children)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _fits(walls: list[float], start: float, seconds: float) -> bool:
    """Whether one more operation of the usual length ends within
    ``seconds`` of ``start``."""
    done = [w for w in walls if not math.isnan(w)]
    usual = statistics.median(done) if done else 0.0
    return perf_counter() - start + usual <= seconds


def _scaled(probe: SpeedProbe | None, mark: int, wall: float) -> float:
    return wall * probe.factor(mark) if probe else wall


def _operation(log: SpanLog | None, kind: str, label: str):
    return log.operation(kind, label) if log else contextlib.nullcontext()


def _per_op(totals: dict, layer: str, n: int) -> tuple[float, float]:
    calls, self_s = totals.get(layer, (0, 0.0))
    return calls / n, self_s / n


# -- turbine_low -------------------------------------------------------------


def _step_problems(sim: NaluWindSimulation, solves: dict, events: int) -> list[str]:
    """Checks of one completed step: solves, divergence, fields, recovery."""
    problems = []
    for eq in sim.systems:
        for rec in eq.solve_records[solves[eq.name]:]:
            if not rec.converged:
                problems.append(f"{eq.name} solve did not converge")
    div = sim.divergence_norms[-1]
    if not (math.isfinite(div) and div < DIVERGENCE_BOUND):
        problems.append(f"divergence norm {div:.3g} >= {DIVERGENCE_BOUND:g}")
    for name in ("velocity", "pressure_field", "scalar_field"):
        if not np.isfinite(getattr(sim, name)).all():
            problems.append(f"non-finite {name}")
    if len(sim.recovery_events) > events:
        problems.append("recovery event fired")
    return problems


COUNTED_TOTALS = (
    "comm.p2p_messages", "comm.p2p_bytes", "comm.collectives",
    "perf.flops", "perf.bytes",
)


def _totals(sim: NaluWindSimulation) -> np.ndarray:
    """Cumulative traffic (TrafficLog) and computed work (OpRecorder)."""
    t, tally = sim.world.traffic, sim.world.ops.total()
    return np.array(
        [t.message_count(), t.message_bytes(), t.collective_count(),
         tally.flops, tally.bytes],
        dtype=float,
    )


def _exact_counts(sim: NaluWindSimulation, base: np.ndarray) -> dict[str, float]:
    """Per-step counts since ``base``, iterations, AMG shape, model NLI time."""
    steps = len(sim.step_snapshots)
    counts = dict(zip(COUNTED_TOTALS, ((_totals(sim) - base) / steps).tolist()))
    for eq in sim.systems:
        counts[f"krylov.iters.{eq.name}"] = float(
            np.mean([r.iterations for r in eq.solve_records])
        )
    counts["amg.levels"] = float(np.mean([s.num_levels for s in sim.amg_setups]))
    counts["amg.operator_complexity"] = float(
        np.mean([s.operator_complexity for s in sim.amg_setups])
    )
    report = SimulationReport(
        config=sim.config,
        workload=sim.workload_name,
        total_nodes=sim.comp.n,
        n_steps=steps,
        step_snapshots=list(sim.step_snapshots),
        solve_iterations={},
        peak_alloc_bytes=sim.world.ops.peak_alloc(),
        wall_times={},
    )
    counts["model_nli_s"] = float(
        np.mean(nli_step_times(report, get_machine(MODEL_MACHINE)))
    )
    return counts


@dataclass
class SimPass:
    """Times of one pass, rescaled when it ran under a probe."""

    setup_s: list[float]
    #: Seconds of each build's first step, NaN where checks failed.
    cold_s: list[float]
    #: Seconds of the last build's steps (index 0 cold), NaN likewise.
    step_s: list[float]
    counts: dict[str, float]
    sim: NaluWindSimulation | None


def _step(out: Outcome, sim: NaluWindSimulation, log: SpanLog | None,
          label: str, probe: SpeedProbe | None) -> tuple[float, float] | None:
    """One checked step: its wall seconds and its rescaled seconds, the
    latter NaN when it failed its checks; None when it raised (the
    simulation cannot go on)."""
    solves = {eq.name: len(eq.solve_records) for eq in sim.systems}
    events = len(sim.recovery_events)
    out.attempted += 1
    try:
        with _operation(log, "step", label):
            mark = probe.mark() if probe else 0
            t0 = perf_counter()
            sim.step()
            wall = perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a failed step is a result
        out.fail(f"{label} raised {exc!r}")
        return None
    problems = _step_problems(sim, solves, events)
    if problems:
        out.fail(f"{label}: " + "; ".join(problems))
        return wall, math.nan
    return wall, _scaled(probe, mark, wall)


def _sim_pass(
    out: Outcome, ranks: int, seed: int, builds: int, seconds: float,
    log: SpanLog | None = None, probe: SpeedProbe | None = None,
) -> SimPass:
    """Build the simulation ``builds`` times and step each build once;
    step the last build on, COUNTED_STEPS at least, while another step
    fits in ``seconds`` from the start."""
    start = perf_counter()
    setup_s: list[float] = []
    cold_s: list[float] = []
    sim = None
    for i in range(builds):
        sim = None
        gc.collect()
        with _operation(log, "setup", f"setup-{i}"):
            mark = probe.mark() if probe else 0
            t0 = perf_counter()
            sim = NaluWindSimulation(
                "turbine_low", SimulationConfig(nranks=ranks, world_seed=seed)
            )
            setup_s.append(_scaled(probe, mark, perf_counter() - t0))
        if i < builds - 1:
            timed = _step(out, sim, log, f"cold-{i}", probe)
            cold_s.append(math.nan if timed is None else timed[1])
    base = _totals(sim)
    walls: list[float] = []
    step_s: list[float] = []
    counts: dict[str, float] = {}
    for index in itertools.count():
        if index >= COUNTED_STEPS and not _fits(walls[1:], start, seconds):
            break
        timed = _step(out, sim, log, f"step-{index}", probe)
        if timed is None:
            break
        walls.append(timed[0])
        step_s.append(timed[1])
        if index + 1 == COUNTED_STEPS:
            counts = _exact_counts(sim, base)
    cold_s.append(step_s[0] if step_s else math.nan)
    with _operation(log, "tail", "telemetry"):
        sim.run(0)
    return SimPass(setup_s, cold_s, step_s, counts, sim)


def _warm(p: SimPass) -> list[float]:
    """Seconds of the warm steps that passed their checks."""
    return [s for s in p.step_s[1:] if not math.isnan(s)]


def run_sim(ranks: int, seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    if not trace:
        probe = SpeedProbe()
        probe.start()
        try:
            p = _sim_pass(out, ranks, seed, BUILDS, seconds, probe=probe)
        finally:
            probe.stop()
        out.factor = probe.factor(0)
        out.counts = p.counts
        cold = [s for s in p.cold_s if not math.isnan(s)]
        warm = _warm(p)
        passed = cold + warm
        out.metrics = {
            "setup_s": statistics.median(p.setup_s),
            "first_step_s": statistics.median(cold) if cold else math.nan,
            "step_s": statistics.median(warm) if warm else math.nan,
            "model_nli_s": p.counts.get("model_nli_s", math.nan),
            "peak_rss_mb": peak_rss_mb(),
            "jobs_per_s": len(passed) / sum(passed) if passed else 0.0,
        }
        out.samples = len(warm)
        return out

    plain = _sim_pass(out, ranks, seed, 1, 0.0)
    plain.sim = None
    gc.collect()
    log = SpanLog()
    with traced(log, SIM_LAYERS):
        tr = _sim_pass(out, ranks, seed, 1, 0.0, log)
    out.counts = tr.counts
    out.compare_counts(plain.counts, "traced vs untraced")
    out.spans = log

    def ops(prefix: str) -> list[int]:
        return [i for i, label in enumerate(log.ops) if label.startswith(prefix)]

    steps = ops("step-")
    n = max(len(steps), 1)
    per_step = log.layer_totals(steps)
    setup = log.layer_totals(ops("setup-"))
    tail = log.layer_totals(ops("telemetry"))
    m: dict[str, float] = {
        "mesh.build.self_s": setup.get("mesh.build", (0, 0.0))[1],
        "partition.self_s": setup.get("partition", (0, 0.0))[1],
        "obs.telemetry.self_s": tail.get("obs.telemetry", (0, 0.0))[1],
        "core.unattributed_s": _per_op(per_step, "op.step", n)[1],
    }
    for layer in (
        "overset.connectivity", "assembly.global", "amg.setup", "amg.vcycle",
        "smoothers.sweep", "linalg.spmv", "linalg.vector", "krylov.solve",
        "comm.halo", "comm.collective", "perf.record",
    ):
        m[f"{layer}.calls"], m[f"{layer}.self_s"] = _per_op(per_step, layer, n)
    for layer in ("assembly.graph", "assembly.local", "resilience.guard",
                  "core.picard"):
        m[f"{layer}.self_s"] = _per_op(per_step, layer, n)[1]
    m["amg.refresh.calls"] = _per_op(per_step, "amg.refresh", n)[0]
    metrics = tr.sim.world.metrics
    hits = metrics.counter_total("assembly.plan_hits")
    rebuilds = metrics.counter_total("assembly.plan_rebuilds")
    m["assembly.plan_hit_ratio"] = hits / (hits + rebuilds) if hits + rebuilds else 0.0
    m.update(tr.counts)
    del m["model_nli_s"]
    m["trace.overhead_frac"] = (
        statistics.median(_warm(tr)) / statistics.median(_warm(plain)) - 1.0
        if _warm(tr) and _warm(plain)
        else math.nan
    )
    out.metrics = m
    return out


# -- campaign sweep ----------------------------------------------------------


def sweep_spec(seed: int) -> CampaignSpec:
    """turbine_tiny jobs on 2 ranks: SWEEP_SEEDS seeds from ``seed`` x 2 dt."""
    return CampaignSpec(
        name="perfbench-sweep",
        workload="turbine_tiny",
        steps=1,
        seeds=tuple(seed + i for i in range(SWEEP_SEEDS)),
        base={"nranks": 2},
        grid={"dt": list(SWEEP_DTS)},
        checkpoint_every=1,
    )


def _doc_problems(blob: bytes | None) -> list[str]:
    if blob is None:
        return ["no stored result"]
    state = json.loads(blob)["state"]
    norms = state["divergence_norms"]
    if not norms or not all(math.isfinite(v) and v < DIVERGENCE_BOUND for v in norms):
        return [f"divergence norms {norms}"]
    return []


@contextlib.contextmanager
def _probed_jobs(probe: SpeedProbe, probe_dir: str):
    """Run every pool job under ``probe`` in its worker process.

    The pool submits ``runner._execute_job`` by reference and forks its
    workers on first use, so a wrapper bound to that name runs in the
    workers.  After each job it appends ``{digest, factor, first}`` to a
    file of its worker process in ``probe_dir``; ``first`` marks the
    worker's first job, which finds its plan cache empty.
    """
    original = runner._execute_job

    def job(payload: dict) -> dict:
        first = probe.pid != os.getpid()
        probe.start()
        mark = probe.mark()
        outcome = original(payload)
        digest = JobSpec.from_dict(payload["job"]).digest()
        line = json.dumps(
            {"digest": digest, "factor": probe.factor(mark), "first": first}
        )
        with open(os.path.join(probe_dir, f"{os.getpid()}.jsonl"), "a",
                  encoding="utf-8") as fh:
            fh.write(line + "\n")
        return outcome

    job.__module__, job.__qualname__ = runner.__name__, "_execute_job"
    os.makedirs(probe_dir, exist_ok=True)
    runner._execute_job = job
    try:
        yield
    finally:
        runner._execute_job = original


def _probe_records(probe_dir: str) -> dict[str, dict]:
    records = {}
    for path in glob.glob(os.path.join(probe_dir, "*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                records[rec["digest"]] = rec
    return records


@dataclass
class Round:
    wall: float
    hit_wall: float
    #: Worker walls of the jobs that passed, as the manifest has them.
    job_walls: list[float]
    #: Rescaled walls of the passed jobs that were each worker's first.
    cold_scaled: list[float]
    #: Rescaled walls of the other passed jobs.
    warm_scaled: list[float]
    #: Rescaled over raw seconds of the passed jobs, 1.0 without a probe.
    factor: float
    docs: dict[str, bytes]
    hits: int
    plan_shared: int
    checkpoints: list[int]


def _sweep_round(
    out: Outcome, spec: CampaignSpec, root: str, label: str,
    reference: dict[str, bytes] | None, log: SpanLog | None = None,
    probe: SpeedProbe | None = None,
) -> Round:
    """One fresh campaign, then a second one over the same store.

    A job passes when it is ``done``, its document passes the physics
    checks, the second campaign serves it from the store with the same
    bytes, and those bytes equal ``reference`` (an earlier round's).
    With ``probe`` each job's worker wall is rescaled by the probe run in
    its worker.
    """
    store = os.path.join(root, "store")
    fresh = Campaign(spec, os.path.join(root, "fresh"), workers=SWEEP_WORKERS,
                     store_dir=store)
    probe_dir = os.path.join(root, "probe")
    probed = _probed_jobs(probe, probe_dir) if probe else contextlib.nullcontext()
    with _operation(log, "fresh", f"{label}-fresh"), probed:
        t_run = perf_counter()
        summary = fresh.run()
        wall = perf_counter() - t_run
    records = _probe_records(probe_dir) if probe else {}
    hit = Campaign(spec, os.path.join(root, "hit"), workers=SWEEP_WORKERS,
                   store_dir=store)
    with _operation(log, "hit", f"{label}-hit"):
        t0 = perf_counter()
        hit_summary = hit.run()
        hit_wall = perf_counter() - t0
    docs, walls, scaled, cold = {}, [], [], []
    for job in fresh.jobs:
        digest = job.digest()
        entry = fresh.manifest.jobs[digest]
        problems = []
        if entry["status"] != "done":
            problems.append(f"status {entry['status']}: {entry.get('error', '')}")
        docs[digest] = fresh.store.get_bytes(digest)
        problems += _doc_problems(docs[digest])
        if hit_summary["jobs"][digest].get("cached") is not True:
            problems.append("second campaign did not hit the store")
        if hit.store.get_bytes(digest) != docs[digest]:
            problems.append("second campaign read different bytes")
        if reference is not None and docs[digest] != reference.get(digest):
            problems.append("result differs from the first round")
        out.attempted += 1
        if problems:
            out.fail(f"{label} job {job.job_id}: " + "; ".join(problems))
        elif entry.get("wall_s") is not None:
            walls.append(float(entry["wall_s"]))
            if probe and digest not in records:
                out.problems.append(f"{label} job {job.job_id}: no probe record")
            rec = records.get(digest, {})
            scaled.append(walls[-1] * rec.get("factor", 1.0))
            cold.append(rec.get("first", False))
    ckpt = [
        os.path.getsize(p)
        for p in glob.glob(os.path.join(root, "fresh", "jobs", "*", "checkpoints", "*.ckpt"))
    ]
    return Round(
        wall=wall,
        hit_wall=hit_wall,
        job_walls=walls,
        cold_scaled=[w for w, c in zip(scaled, cold) if c],
        warm_scaled=[w for w, c in zip(scaled, cold) if not c],
        factor=sum(scaled) / sum(walls) if walls else 1.0,
        docs=docs,
        hits=int(hit_summary["cache_hits"]),
        plan_shared=int(summary["plan_shared"]),
        checkpoints=ckpt,
    )


def _reference_job(
    out: Outcome, spec: CampaignSpec, docs: dict[str, bytes], setups: int,
    probe: SpeedProbe | None = None,
) -> tuple[list[float], float]:
    """Build the sweep's first job ``setups`` times in-process, as a worker
    would, and run the last build outside any campaign.

    Its canonical document must equal the pool's stored bytes.  Returns
    the construction times (rescaled under ``probe``) and the modelled
    NLI time per step.
    """
    job = spec.expand()[0]
    setup_s = []
    sim = None
    for _ in range(setups):
        sim = None
        gc.collect()
        mark = probe.mark() if probe else 0
        t0 = perf_counter()
        sim = NaluWindSimulation(job.workload, job.build_config())
        setup_s.append(_scaled(probe, mark, perf_counter() - t0))
    report = sim.run(job.steps)
    blob = canonical_json(canonical_result(sim, report, job)).encode("utf-8")
    if blob != docs.get(job.digest()):
        out.problems.append(f"in-process job {job.job_id} differs from the pool's result")
    return setup_s, float(np.mean(nli_step_times(report, get_machine(MODEL_MACHINE))))


def _sweep_counts(docs: dict[str, bytes], model_nli_s: float) -> dict[str, object]:
    blob = b"".join(docs[d] for d in sorted(docs))
    return {"results_sha256": hashlib.sha256(blob).hexdigest(),
            "model_nli_s": model_nli_s}


def run_sweep(seed: int, seconds: float, trace: bool, workdir: str) -> Outcome:
    out = Outcome()
    spec = sweep_spec(seed)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if not trace:
            rounds: list[Round] = []
            probe = SpeedProbe()
            start = perf_counter()
            while len(rounds) < MIN_ROUNDS or _fits([r.wall for r in rounds], start, seconds):
                root = os.path.join(workdir, f"round-{len(rounds)}")
                rounds.append(_sweep_round(
                    out, spec, root, f"round {len(rounds)}",
                    rounds[0].docs if rounds else None, probe=probe,
                ))
                shutil.rmtree(root)
            probe.start()
            try:
                setup_s, model = _reference_job(
                    out, spec, rounds[0].docs, SWEEP_SETUPS, probe
                )
            finally:
                probe.stop()
            out.counts = _sweep_counts(rounds[0].docs, model)
            # The campaign wall takes the round's mean factor: the parent
            # mostly waits on the workers.
            out.metrics = {
                "setup_s": statistics.median(setup_s),
                "first_step_s": statistics.median(
                    w for r in rounds for w in r.cold_scaled
                ),
                "step_s": statistics.median(
                    w for r in rounds for w in r.warm_scaled
                ),
                "model_nli_s": model,
                "peak_rss_mb": peak_rss_mb(children=True),
                "jobs_per_s": statistics.median(
                    len(r.job_walls) / (r.wall * r.factor) for r in rounds
                ),
            }
            out.samples = sum(len(r.warm_scaled) for r in rounds)
            out.factor = statistics.median(r.factor for r in rounds)
            return out

        plain = _sweep_round(out, spec, os.path.join(workdir, "plain"), "untraced", None)
        # The traced round's documents must equal the untraced round's.
        log = SpanLog()
        with traced(log, CAMPAIGN_LAYERS):
            tr = _sweep_round(out, spec, os.path.join(workdir, "traced"), "traced",
                              plain.docs, log)
        out.spans = log
        out.counts = _sweep_counts(tr.docs, _reference_job(out, spec, tr.docs, 1)[1])
        totals = log.layer_totals(list(range(len(log.ops))))
        m: dict[str, float] = {}
        for layer in ("campaign.store.get", "campaign.store.put",
                      "campaign.manifest.save"):
            m[f"{layer}.calls"], m[f"{layer}.self_s"] = totals.get(layer, (0, 0.0))
        n_jobs = len(tr.docs)
        m.update({
            "campaign.job_wall_s": statistics.median(tr.job_walls),
            "campaign.worker_idle_frac":
                1.0 - sum(tr.job_walls) / (SWEEP_WORKERS * tr.wall),
            "campaign.hit_pass_s": tr.hit_wall,
            "campaign.cache_hit_ratio": tr.hits / n_jobs,
            "campaign.plan_shared": float(tr.plan_shared),
            "resilience.checkpoint.count": float(len(tr.checkpoints)),
            "resilience.checkpoint.bytes": float(sum(tr.checkpoints)),
            "trace.overhead_frac": tr.wall / plain.wall - 1.0,
        })
        out.metrics = m
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
