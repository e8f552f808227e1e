"""The repository benchmark: real and modelled time of the turbine solve.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload low_r6 --seed 0 --seconds 38 --trace 0

Workloads (``BENCHMARK.json`` says why each is there):

* ``low_r6`` / ``low_r1`` -- ``turbine_low`` with the default config on 6
  and on 1 simulated ranks;
* ``sweep`` -- a fresh 2-worker campaign of ``turbine_tiny`` jobs, then a
  second campaign over the same result store.

End-to-end times are wall times rescaled to a reference host speed by
``perfbench/probe.py``, because the shared machines this runs on change
speed by tens of per cent from minute to minute; the run prints the
factor it applied.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it makes an untraced and a traced pass and prints the
per-layer metrics measured by wrapping each layer's public functions
(``perfbench/spans.py``).  Every operation is checked (see
``workloads.py``), and the exact counts -- message and collective counts,
computed flops and bytes, iteration counts, AMG shape, modelled NLI time,
campaign result bytes -- must repeat bit for bit: between the traced and
untraced pass, and across runs of one seed on the same sources (kept in
``.perfbench-out/counts/``).  Spans are written to
``.perfbench-out/spans-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SIM_RANKS = {"low_r6": 6, "low_r1": 1}
WORKLOADS = (*SIM_RANKS, "sweep")


def source_digest() -> str:
    """SHA-256 over the program's Python sources and this benchmark's."""
    paths = [
        os.path.join(dirpath, name)
        for dirpath, _, filenames in os.walk(os.path.join(ROOT, "src"))
        for name in filenames
        if name.endswith(".py")
    ]
    here = os.path.dirname(os.path.abspath(__file__))
    paths += [os.path.join(here, f) for f in ("run.py", "workloads.py", "spans.py", "probe.py")]
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_repeat(out, workload: str, seed: int) -> None:
    """Exact counts must equal those of any earlier run of this seed on
    the same sources."""
    path = os.path.join(
        OUT_DIR, "counts", f"{workload}-seed{seed}-{source_digest()[:16]}.json"
    )
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            out.compare_counts(json.load(fh), "this run vs an earlier run")
    elif not out.problems:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out.counts, fh, sort_keys=True)


def result_metrics(out, entries: list[dict], trace: bool) -> dict:
    """The catalogue's metrics, in its order, with their units.

    A per-layer metric of a layer the workload does not exercise reads 0.
    """
    names = {e["name"] for e in entries}
    unknown = sorted(set(out.metrics) - names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for e in entries:
        if e["name"] not in out.metrics and not trace:
            raise KeyError(f"end-to-end metric {e['name']} not measured")
        value = float(out.metrics.get(e["name"], 0.0))
        if not math.isfinite(value):
            out.problems.append(f"{e['name']} is {value}")
            value = 0.0
        metrics[e["name"]] = {"value": value, "unit": e["unit"]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        catalogue = json.load(fh)
    # One BLAS thread per process, set before numpy loads: the sweep runs
    # as many worker processes as cores, and spinning BLAS threads on top
    # of them made its timings swing by a third from run to run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, src)
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    trace = bool(args.trace)
    if args.workload == "sweep":
        out = workloads.run_sweep(
            args.seed, args.seconds, trace,
            os.path.join(OUT_DIR, f"sweep-{os.getpid()}"),
        )
    else:
        out = workloads.run_sim(
            SIM_RANKS[args.workload], args.seed, args.seconds, trace
        )
    check_repeat(out, args.workload, args.seed)
    if out.spans is not None:
        out.spans.save(
            os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
        )
    metrics = result_metrics(
        out, catalogue["per_layer" if trace else "end_to_end"], trace
    )

    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    if not trace:
        print(f"{'step_s samples':32s} {out.samples:>16d}")
        print(f"{'host speed factor':32s} {out.factor:>16.6g} "
              "(rescaled / raw wall seconds)")
    frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"{'failed_frac':32s} {frac:>16.6g} ratio "
          f"({out.failed}/{out.attempted} operations)")
    for problem in out.problems:
        print(f"perfbench: FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not out.problems and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
