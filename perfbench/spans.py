"""Outside-in span tracing of the ``repro`` layers.

The benchmark wraps the public functions of each layer (the table
``SIM_LAYERS`` / ``CAMPAIGN_LAYERS`` below) from its own files: every call
records one span -- layer name, start, end, parent span and the operation
(set-up, time step, campaign pass or job) it belongs to.  Nothing under
``src/`` is edited; a wrapper only reads the clock, so a traced run computes
exactly what an untraced one does.

Spans live in flat ``array`` columns (a traced ``turbine_low`` step at six
ranks makes ~150k of them) and are written out once, when the benchmark
ends.  A span's self time is its duration minus the durations of its direct
children: calls are strictly nested in this single-threaded process, so the
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

#: Layer -> the functions whose calls are its spans (``module:qualname``).
SIM_LAYERS: dict[str, tuple[str, ...]] = {
    "mesh.build": ("repro.mesh.turbine:make_workload",),
    "partition": (
        "repro.partition.multilevel:multilevel_partition",
        "repro.partition.rcb:rcb_partition",
        "repro.partition.rcb:rcb_element_node_partition",
    ),
    "overset.connectivity": (
        "repro.core.composite:CompositeMesh.update_connectivity",
    ),
    "assembly.graph": ("repro.core.equation_system:EquationSystem.update_graph",),
    "assembly.local": ("repro.core.equation_system:EquationSystem.assemble",),
    "assembly.global": (
        "repro.assembly.global_assembly:assemble_global_matrix",
        "repro.assembly.global_assembly:assemble_global_vector",
    ),
    "amg.setup": ("repro.core.physics:PressurePoissonSystem.make_preconditioner",),
    "amg.refresh": ("repro.amg.hierarchy:AMGHierarchy.refresh",),
    "amg.vcycle": ("repro.amg.cycle:AMGPreconditioner.apply",),
    "smoothers.setup": (
        "repro.core.physics:MomentumSystem.make_preconditioner",
        "repro.core.physics:ScalarTransportSystem.make_preconditioner",
    ),
    "smoothers.sweep": tuple(
        f"repro.smoothers.{mod}:{cls}.{meth}"
        for mod, cls in (
            ("jacobi", "JacobiSmoother"),
            ("gauss_seidel", "HybridGS"),
            ("two_stage_gs", "TwoStageGS"),
            ("chebyshev", "ChebyshevSmoother"),
        )
        for meth in ("smooth", "apply")
    ),
    "linalg.spmv": (
        "repro.linalg.parcsr:ParCSRMatrix.matvec",
        "repro.linalg.parcsr:ParCSRMatrix.residual",
    ),
    "linalg.vector": tuple(
        f"repro.linalg.parvector:ParVector.{m}"
        for m in ("dot", "norm", "axpy", "scale")
    )
    + ("repro.linalg.parvector:fused_dots",),
    "krylov.solve": (
        "repro.krylov.gmres:GMRES.solve",
        "repro.krylov.cg:CG.solve",
        "repro.krylov.pipelined_cg:PipelinedCG.solve",
    ),
    "comm.halo": tuple(
        f"repro.comm.exchange:{f}"
        for f in ("exchange_halo", "exchange_halo_begin", "exchange_halo_finish")
    ),
    "comm.collective": tuple(
        f"repro.comm.simcomm:SimWorld.{m}"
        for m in ("allreduce", "allgather", "alltoallv", "barrier")
    ),
    "perf.record": ("repro.perf.opcounts:OpRecorder.record",),
    "resilience.guard": tuple(
        f"repro.resilience.guards:{f}"
        for f in ("operands_are_finite", "validate_iterate", "validate_fields")
    ),
    "obs.telemetry": ("repro.obs.telemetry:collect_run_telemetry",),
    "core.picard": ("repro.core.simulation:NaluWindSimulation.picard_iteration",),
    # Children of the Picard iteration (mass flux, gradients, boundary
    # fluxes): traced so that core.picard's self time excludes them.
    "core.operators": tuple(
        f"repro.core.operators:{f}"
        for f in ("mass_flux", "boundary_mass_flux", "least_squares_gradient")
    ),
}

#: Parent-process layers of a campaign (workers are not traced).
CAMPAIGN_LAYERS: dict[str, tuple[str, ...]] = {
    "campaign.store.get": ("repro.campaign.store:ResultStore.get",),
    "campaign.store.put": ("repro.campaign.store:ResultStore.put",),
    "campaign.manifest.save": ("repro.campaign.manifest:CampaignManifest.save",),
}


class SpanLog:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ops: list[str] = []
        self.name = array("l")
        self.op = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op = -1

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, op: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.op.append(op)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, kind: str, label: str) -> Iterator[int]:
        """Root span ``op.<kind>`` of one operation; inner spans share its id."""
        outer = self._op
        self._op = len(self.ops)
        self.ops.append(label)
        idx = self._open(self._intern(f"op.{kind}"), self._op)
        try:
            yield idx
        finally:
            self._close(idx)
            self._op = outer

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with one span per call."""
        name_id = self._intern(layer)
        log = self

        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            idx = log._open(name_id, log._op)
            try:
                return fn(*args, **kwargs)
            finally:
                log._close(idx)

        return spanned

    # -- analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Columns as numpy arrays, with duration and self time added."""
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(
            self.start, dtype=float
        )
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=dur.size
        )
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
            "parent": parent,
            "start": np.frombuffer(self.start, dtype=float),
            "duration": dur,
            "self": dur - covered,
        }

    def layer_totals(self, ops: list[int]) -> dict[str, tuple[int, float]]:
        """Layer -> (entries, self seconds) summed over the given ops.

        An entry is a span whose parent belongs to another layer, so a
        layer calling itself (``norm`` -> ``dot``) counts once; self time
        sums every span of the layer.
        """
        a = self.arrays()
        in_ops = np.isin(a["op"], np.asarray(ops, dtype=np.int64))
        parent_name = np.where(
            a["parent"] >= 0, a["name"][np.maximum(a["parent"], 0)], -1
        )
        entry = parent_name != a["name"]
        out = {}
        for name_id, layer in enumerate(self.names):
            mask = in_ops & (a["name"] == name_id)
            out[layer] = (
                int(np.count_nonzero(mask & entry)),
                float(a["self"][mask].sum()),
            )
        return out

    def save(self, path: str) -> None:
        """Write every span (``.npz``: columns plus name and op tables)."""
        a = self.arrays()
        np.savez(
            path,
            names=np.asarray(self.names),
            ops=np.asarray(self.ops),
            **{k: a[k] for k in ("name", "op", "parent", "start", "duration")},
        )


def _resolve(target: str) -> tuple[Any, str]:
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@contextlib.contextmanager
def traced(log: SpanLog, layers: dict[str, tuple[str, ...]]) -> Iterator[SpanLog]:
    """Install the layer wrappers for the duration of the block.

    A method is wrapped on its defining class.  A module-level function is
    replaced in every loaded ``repro`` module that holds it, so call sites
    that imported it by name see the wrapper too.
    """
    undo: list[tuple[Any, str, Any]] = []
    try:
        for layer, targets in layers.items():
            for target in targets:
                owner, attr = _resolve(target)
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    holders = [(owner, attr)]
                else:
                    original = getattr(owner, attr)
                    holders = [
                        (module, key)
                        for name, module in list(sys.modules.items())
                        if name.startswith("repro")
                        for key, value in list(vars(module).items())
                        if value is original
                    ]
                wrapper = log.wrap(layer, original)
                for holder, key in holders:
                    undo.append((holder, key, original))
                    setattr(holder, key, wrapper)
        yield log
    finally:
        for holder, key, original in reversed(undo):
            setattr(holder, key, original)
