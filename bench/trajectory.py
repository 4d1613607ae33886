"""Record one point of the benchmark trajectory.

Runs every workload once per seed with tracing off (seeds interleaved across
workloads), then once traced, and writes ``bench/results/BENCH_<tag>.json``
with each end-to-end metric's values, median and quartiles, its spread
(interquartile range over median) against the bound in BENCHMARK.json, and
the traced run's per-layer table. ``--against`` names an earlier point of
the same code; each median is then compared with that point's, and the
change as a share of the earlier median is printed against the bound.

    python3 bench/trajectory.py --tag seed --seeds 1-10 --commit 3c91785
    python3 bench/trajectory.py --tag rerun --seeds 11-20 \
        --against bench/results/BENCH_seed.json --out /tmp/BENCH_rerun.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"result": json.loads(lines[-1]), "report": lines[:-1]}


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--commit", default="", help="commit the numbers describe")
    parser.add_argument("--against", type=Path, help="earlier BENCH_*.json of the same code")
    parser.add_argument("--out", type=Path, help="default: bench/results/BENCH_<tag>.json")
    args = parser.parse_args()
    before = json.loads(args.against.read_text())["workloads"] if args.against else None

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds = _seeds(args.seeds)
    runs: dict[str, list[dict]] = {n: [] for n in names}
    for seed in seeds:
        for name in names:
            run = _run(name, seed, seconds, 0)
            runs[name].append({"seed": seed, **run["result"]})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={v['value']:.4f}" for m, v in run["result"]["metrics"].items()), flush=True)

    doc = {"tag": args.tag, "commit": args.commit, "run_seconds": seconds, "seeds": seeds,
           "hardware": {"cpu": _cpu(), "cpus": os.cpu_count(), "python": platform.python_version()},
           "workloads": {}}
    worst = 0.0
    for name in names:
        table = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs[name]]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            table[metric["name"]] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                                     "spread": spread, "bound": metric["bound"], "values": values}
            worst = max(worst, spread / metric["bound"])
            line = (f"{name:<18} {metric['name']:<12} median {median:>12.4f} {metric['unit']:<3} "
                    f"spread {spread:7.2%}")
            if before:
                old = before[name]["end_to_end"][metric["name"]]["median"]
                change = median / old - 1.0
                table[metric["name"]]["change_vs_against"] = change
                worst = max(worst, change / metric["bound"])
                line += f"  change {change:+7.2%} from {old:.4f}"
            print(line + f"  (bound {metric['bound']:.0%})")
        traced = _run(name, seeds[0], seconds, 1)
        doc["workloads"][name] = {
            "end_to_end": table,
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "per_layer": {m: v["value"] for m, v in traced["result"]["metrics"].items()},
            "traced_report": traced["report"],
        }
    out = args.out or ROOT / "bench" / "results" / f"BENCH_{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}; the largest spread" + (" or worsening" if before else "") +
          f" is {worst:.0%} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
