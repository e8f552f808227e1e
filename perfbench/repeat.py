"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout::

    python3 perfbench/repeat.py --workload low_r6 --seeds 0-9 --seconds 38
    python3 perfbench/repeat.py --workload low_r6 --workload sweep \\
        --seeds 10-19 --seconds 38 --record perfbench/record.json --label X

Runs ``perfbench/run.py`` once per seed, one run at a time, and prints per
metric the median, first and third quartile (``statistics.quantiles(n=4)``),
the quartile spread as a share of the median, and the sample count.
``--record`` adds the summary, with the machine it ran on, to the
``trajectory`` list of a record file.  Exits 1 when any run fails or
reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import datetime
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                model,
            )
    except OSError:
        pass
    llc = ""
    levels = glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size")
    for path in sorted(levels, key=lambda p: int(p.split("index")[1].split("/")[0])):
        with open(path, encoding="utf-8") as fh:
            llc = fh.read().strip()  # the last index is the last level
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def summarise(values: list[float]) -> dict:
    q1, med, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="record file whose trajectory gains this summary")
    ap.add_argument("--label", default="", help="what was measured (commit, change)")
    args = ap.parse_args()

    ok = True
    summary: dict = {}
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        walls: list[float] = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect\n{proc.stderr}", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            for line in lines:
                if line.startswith("host speed factor"):
                    values.setdefault("host_speed_factor", []).append(
                        float(line.split()[3]))
                    units["host_speed_factor"] = "ratio"
            print(f"{workload} seed {seed} ({walls[-1]:.1f} s): " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in list(result["metrics"].items())[:8]
            ), flush=True)
        summary[workload] = {
            name: {**summarise(v), "unit": units[name]} for name, v in values.items()
        }
        summary[workload]["run_wall_s"] = {**summarise(walls), "unit": "s"}
        print(f"\n{workload}: {'metric':30s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s}  n")
        for name, s in summary[workload].items():
            print(f"{'':{len(workload) + 2}s}{name:30s} {s['median']:12.6g} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f}  {s['n']}")

    if args.record:
        record = {}
        if os.path.exists(args.record):
            with open(args.record, encoding="utf-8") as fh:
                record = json.load(fh)
        record.setdefault("trajectory", []).append({
            "label": args.label,
            "date": datetime.date.today().isoformat(),
            "machine": machine(),
            "seeds": f"{args.seeds[0]}-{args.seeds[-1]}",
            "seconds": args.seconds,
            "trace": args.trace,
            "workloads": summary,
        })
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
