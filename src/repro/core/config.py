"""Simulation configuration.

One dataclass gathers every knob the benchmark harness sweeps: physics
parameters, solver settings, the paper's optimization toggles (assembly
variant, inner GS sweeps, partitioner), and run control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.amg.hierarchy import AMGOptions
from repro.resilience.injection import FaultSpec
from repro.resilience.policy import RecoveryPolicy
from repro.serialize import RUNTIME_ONLY, Serializable, stable_digest


@dataclass
class SolverConfig(Serializable):
    """Linear-solver settings for one equation system."""

    # Krylov method: "gmres" | "cg" | "pipelined_cg" (dispatched through
    # repro.krylov.make_krylov_solver).
    method: str = "gmres"
    tol: float = 1e-5
    max_iters: int = 200
    restart: int = 60
    gs_variant: str = "one_reduce"
    # Split halo exchange in solver SpMVs (matvec(overlap=True)): each
    # rank applies its diag block while boundary data is in flight.
    # Bitwise-identical solutions; only the communication schedule (and
    # the priced halo wait) changes.
    overlap: bool = False

    def stable_hash(self) -> str:
        """Canonical content digest of the solver settings."""
        return stable_digest(self.to_dict())


@dataclass
class SimulationConfig(Serializable):
    """Full configuration of a Nalu-Wind-style simulation run.

    Attributes mirror the paper's setup (§5): 4 Picard iterations per time
    step, uniform 8 m/s inflow, rigid blades, GMRES+SGS2 for momentum and
    scalars, GMRES+BoomerAMG for pressure.
    """

    # Physics.
    density: float = 1.2
    viscosity: float = 1.8e-5
    inflow_velocity: tuple[float, float, float] = (8.0, 0.0, 0.0)
    dt: float = 0.05
    picard_iterations: int = 4
    # Picard under-relaxation (SIMPLE-style): needed when the near-wall
    # advective CFL is large, where the nonlinear u <-> p fixed point can
    # diverge without damping.  The flux correction always uses the full
    # p' so continuity is unaffected.
    velocity_relax: float = 0.7
    pressure_relax: float = 0.5
    scalar_diffusivity: float = 1e-3

    # Decomposition.
    nranks: int = 4
    partition_method: str = "parmetis"  # or "rcb"
    # Seed for the simulated world's RNG (campaign JobSpec.seed lands
    # here); distinct seeds give statistically independent replicas of
    # the same workload.
    world_seed: int = 0

    # Assembly (paper §3): "optimized" | "sparse_add" | "general".
    assembly_variant: str = "optimized"
    # Local-assembly accumulation (paper §3.2):
    # "atomic" | "deterministic" | "compensated".
    assembly_mode: str = "atomic"

    # Solvers.
    momentum_solver: SolverConfig = field(default_factory=SolverConfig)
    scalar_solver: SolverConfig = field(default_factory=SolverConfig)
    pressure_solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(tol=1e-6, max_iters=300)
    )
    # Momentum/scalar SGS2 preconditioner (paper: 2 outer, 2 inner).
    sgs_outer: int = 2
    sgs_inner: int = 2
    # Pressure AMG.
    amg: AMGOptions = field(default_factory=lambda: AMGOptions())
    # Rebuild the pressure preconditioner every N solves (1 = always).
    # While the operator pattern is unchanged, the solves in between run
    # a numeric-only Galerkin refresh on the frozen hierarchy structure
    # (hypre's "reuse interpolation" amortization).
    precond_rebuild_every: int = 1

    # Resilience (docs/resilience.md): NaN/Inf guards + the recovery
    # escalation ladder for failed solves.
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    # Seeded deterministic fault injection (tests / chaos runs); empty
    # means a nominal run.
    faults: tuple[FaultSpec, ...] = ()
    fault_seed: int = 0

    # Durable checkpoint/restart (docs/checkpoint_restart.md).  A
    # checkpoint is written every N completed steps (0 disables);
    # restart_from names either a checkpoint file or a checkpoint
    # directory (the newest good ring entry is used).  Restored runs
    # reproduce the uninterrupted run bitwise.
    checkpoint_every: int = 0
    checkpoint_dir: str = "checkpoints"
    checkpoint_keep: int = 2
    restart_from: str = ""

    # Observability (docs/observability.md).  ``profile`` attaches a
    # per-rank TimelineProfiler to the world, pricing simulated rank
    # clocks on ``profile_machine``'s rates; the run report then carries
    # a ``repro.profile/1`` document.  ``clock`` overrides the clock of
    # the world's tracer, which times every phase (tests inject a
    # deterministic fake clock so span durations are assertable); None
    # keeps ``time.perf_counter``.  It is runtime-only: ``to_dict``
    # raises while it is set.
    profile: bool = False
    profile_machine: str = "summit-gpu"
    clock: Callable[[], float] | None = field(
        default=None, metadata=RUNTIME_ONLY
    )

    def validate(self) -> None:
        """Raise on inconsistent settings."""
        if self.partition_method not in ("parmetis", "rcb"):
            raise ValueError(
                f"unknown partition_method {self.partition_method!r}"
            )
        if self.assembly_variant not in ("optimized", "sparse_add", "general"):
            raise ValueError(
                f"unknown assembly_variant {self.assembly_variant!r}"
            )
        if self.assembly_mode not in ("atomic", "deterministic", "compensated"):
            raise ValueError(
                f"unknown assembly_mode {self.assembly_mode!r}"
            )
        for cfg_name in ("momentum_solver", "scalar_solver", "pressure_solver"):
            solver = getattr(self, cfg_name)
            if solver.method not in ("gmres", "cg", "pipelined_cg"):
                raise ValueError(
                    f"unknown {cfg_name}.method {solver.method!r}; "
                    "options ['gmres', 'cg', 'pipelined_cg']"
                )
            if not isinstance(solver.overlap, bool):
                raise ValueError(f"{cfg_name}.overlap must be a bool")
        if self.precond_rebuild_every < 1:
            raise ValueError("precond_rebuild_every must be >= 1")
        if self.picard_iterations < 1 or self.nranks < 1:
            raise ValueError("picard_iterations and nranks must be >= 1")
        if not (0.0 < self.velocity_relax <= 1.0):
            raise ValueError("velocity_relax must be in (0, 1]")
        if not (0.0 < self.pressure_relax <= 1.0):
            raise ValueError("pressure_relax must be in (0, 1]")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if self.checkpoint_keep < 1:
            raise ValueError("checkpoint_keep must be >= 1")
        if self.checkpoint_every and not self.checkpoint_dir:
            raise ValueError(
                "checkpoint_dir must be set when checkpoint_every > 0"
            )
        if not isinstance(self.profile, bool):
            raise ValueError("profile must be a bool")
        if self.profile and not self.profile_machine:
            raise ValueError(
                "profile_machine must be set when profile is on"
            )
        if self.clock is not None and not callable(self.clock):
            raise ValueError("clock must be callable (or None)")
        if self.world_seed < 0 or self.fault_seed < 0:
            raise ValueError("world_seed and fault_seed must be >= 0")
        self.recovery.validate()
        for spec in self.faults:
            spec.validate()

    #: ``stable_hash`` exclusions for the campaign job digest: durability
    #: knobs that change where/how often state is persisted but never the
    #: computed results, so they must not fragment the result cache.
    DURABILITY_KEYS = (
        "checkpoint_every",
        "checkpoint_dir",
        "checkpoint_keep",
        "restart_from",
    )

    def stable_hash(self, exclude: tuple[str, ...] = ()) -> str:
        """Canonical content digest of the configuration.

        Key-order independent (sorted-JSON SHA-256); any field change
        changes the digest.  ``exclude`` drops top-level keys before
        hashing — the campaign job digest passes
        :data:`DURABILITY_KEYS` so checkpoint placement never fragments
        the result cache.
        """
        doc = self.to_dict()
        for key in exclude:
            doc.pop(key, None)
        return stable_digest(doc)
