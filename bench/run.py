"""moodcycles benchmark: drives the CLI one stage at a time and checks outputs.

Usage, from the repository root:

    python3 bench/run.py --workload synth-pipeline --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload stats-series --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --self-check --seed 1

``--trace 0`` runs each stage as ``moodcycles <stage> ...`` in a fresh
interpreter (one client, closed loop, one stage in flight) and reports the
end-to-end metrics. ``--trace 1`` runs the same stages in process with a span
around every module call and reports per-layer self times and counts. Both
print one line per metric, then a JSON object as the last line of stdout.
``--self-check`` verifies that inputs, count metrics and stage outputs repeat
exactly for a fixed seed, and that the in-process mirror writes the same
``--out`` files as the CLI and nothing else (so no span or timing lands there).

Inputs are generated from ``--seed`` under ``.bench_work/`` in the checkout
and removed when the run ends; span files stay in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0          # every run must end within 180 s

# Only metrics every workload has; wall_s, per-stage times, records_per_s
# and fail_ratio are printed as report lines.
END_TO_END = {"setup_s": "s", "setup_ref": "ref", "wall_ref": "ref", "peak_rss_mb": "MB"}
MIN_SETUP_SAMPLES = 5
PROBE_LOOPS = 50_000         # a few milliseconds of pure Python
PROBE_PERIOD_S = 0.1

# Each child writes the perf_counter() readings around its import of
# moodcycles.cli to the file named by its first argument; perf_counter is
# the system-wide monotonic clock, so they compare with the parent's.
_TIMED_IMPORT = ("import sys, time; t0 = time.perf_counter(); import moodcycles.cli; "
                 "t1 = time.perf_counter(); open(sys.argv[1], 'w').write(f'{t0!r} {t1!r}')")
_CLI = _TIMED_IMPORT + "; sys.exit(moodcycles.cli.main(sys.argv[2:]))"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def reference_s(loops: int = PROBE_LOOPS) -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = perf_counter()
    total = 0
    for i in range(loops):
        total += i * i % 7
    return perf_counter() - start


class SpeedProbe:
    """Times a short fixed loop every PROBE_PERIOD_S while a child runs.

    The machine's speed drifts by tens of percent over seconds to minutes.
    Dividing a wall time by the loop's mean time over the same interval
    gives the cost in units of the loop ("ref"), which moves with the
    program and less with the drift. The mean, not the median, because a
    wall time is the integral of the slowness over its interval. The probe
    runs on the core the child leaves idle, a few percent of the time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (end, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.samples.append((perf_counter(), reference_s()))
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def ref_s(self, t0: float, t1: float) -> float:
        """Mean loop time over [t0, t1], or over the whole run if none ended there."""
        inside = [d for end, d in self.samples if t0 <= end <= t1]
        return statistics.mean(inside or [d for _, d in self.samples])

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


@dataclass
class Child:
    code: int
    wall: float            # spawn to exit, seconds
    rss_mb: float          # the child's own peak RSS
    ref: float             # wall in probe units
    import_s: float | None = None
    import_ref: float | None = None


def spawn(argv: list[str], log: Path, deadline: float, stamp: Path | None = None) -> Child:
    """Run one child to completion; ``stamp`` is where a timed import writes its readings."""
    if stamp is not None:
        stamp.unlink(missing_ok=True)
    with open(log, "wb") as fh, SpeedProbe() as probe:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        t1 = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(proc.returncode, t1 - t0, usage.ru_maxrss / 1024.0,
                  (t1 - t0) / probe.ref_s(t0, t1))
    if stamp is not None and stamp.exists():
        i0, i1 = map(float, stamp.read_text().split())
        child.import_s, child.import_ref = i1 - i0, (i1 - i0) / probe.ref_s(i0, i1)
    return child


def _import_samples(n: int, work: Path, deadline: float) -> list[Child]:
    """``n`` fresh interpreters that only import moodcycles.cli, timed."""
    out = []
    for i in range(n):
        log = work / f"import-{i}.log"
        child = spawn([sys.executable, "-c", _TIMED_IMPORT, str(work / "import.stamp")],
                      log, deadline, work / "import.stamp")
        if child.code != 0 or child.import_s is None:
            raise SystemExit(f"import moodcycles.cli failed:\n{log.read_text()[-2000:]}")
        out.append(child)
    return out


def _importtime_logs(n: int, work: Path, deadline: float) -> list[str]:
    """``python -X importtime`` output of ``n`` fresh imports of moodcycles.cli."""
    logs = []
    for i in range(n):
        log = work / f"importtime-{i}.log"
        child = spawn([sys.executable, "-X", "importtime", "-c", "import moodcycles.cli"],
                      log, deadline)
        if child.code != 0:
            raise SystemExit(f"import moodcycles.cli failed:\n{log.read_text()[-2000:]}")
        logs.append(log.read_text())
    return logs


_IMPORT_LINE = re.compile(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_breakdown(log: str) -> dict[str, float]:
    """Cumulative seconds of ``moodcycles.cli`` and ``scipy.stats`` from -X importtime.

    scipy loads ``scipy.stats`` lazily, so the package itself gets no line;
    its time is the sum over the outermost ``scipy.stats.*`` modules, those
    with no ``scipy.stats.*`` ancestor. Lines come children first, so a line
    adopts every pending line nested deeper than itself.
    """
    pending: list[tuple[int, str, float, list]] = []   # (depth, name, seconds, children)
    cli_s = 0.0
    for line in log.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        depth, name, seconds = len(m.group(2)), m.group(3), int(m.group(1)) / 1e6
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        pending.append((depth, name, seconds, children))
        if name == "moodcycles.cli":
            cli_s = seconds

    def stats_time(node) -> float:
        _, name, seconds, children = node
        if name == "scipy.stats" or name.startswith("scipy.stats."):
            return seconds
        return sum(stats_time(c) for c in children)

    return {"import.cli_s": cli_s, "import.scipy_stats_s": sum(map(stats_time, pending))}


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def digest_diff(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def trace_file(workload: str) -> Path:
    """Where a traced run leaves its spans: outside every stage's --out."""
    return WORK / "traces" / f"{workload}.jsonl"


def _manifest_core(path: Path) -> dict:
    """Counts and input digests per command; inputs keyed by file name, since the
    two trees' stage outputs live under different roots."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {cmd: (e["counts"], {Path(k).name: v for k, v in e["inputs"].items()})
            for cmd, e in doc.items()}


def compare_outputs(cli_root: Path, mirror_root: Path) -> list[str]:
    """Differences between the CLI's --out trees and the traced mirror's.

    Every file must exist in both and match byte for byte, except
    manifest.json, whose config hash and warnings the mirror does not
    rebuild; its counts and input digests must match.
    """
    a, b = tree_digest(cli_root), tree_digest(mirror_root)
    problems = [f"{k}: only under the CLI's --out" for k in sorted(a.keys() - b.keys())]
    problems += [f"{k}: only under the mirror's --out" for k in sorted(b.keys() - a.keys())]
    for k in sorted(a.keys() & b.keys()):
        if Path(k).name == "manifest.json":
            if _manifest_core(cli_root / k) != _manifest_core(mirror_root / k):
                problems.append(f"{k}: counts or input digests differ")
        elif a[k] != b[k]:
            problems.append(f"{k}: bytes differ")
    return problems


# --------------------------------------------------------------------- CLI run


def cli_pass(workload, out_root: Path, logs: Path, deadline: float) -> list[dict]:
    results = []
    for k, stage in enumerate(workload.stages(out_root)):
        argv = [sys.executable, "-c", _CLI, str(logs / "import.stamp")] + stage.argv
        log = logs / f"{out_root.name}-{k}-{stage.name}.log"
        child = spawn(argv, log, deadline, logs / "import.stamp")
        problems = []
        if child.code != 0:
            problems.append(f"exit {child.code}: {log.read_text(errors='replace')[-1500:]}")
        elif stage.check is not None:
            try:
                problems = stage.check(stage.out)
            except (OSError, KeyError, ValueError) as exc:
                problems = [f"output check could not read {stage.out}: {exc!r}"]
        for p in problems:
            print(f"FAIL {workload.name} {stage.name}: {p}", file=sys.stderr)
        results.append({"stage": stage.name, "child": child, "problems": problems})
        if child.code != 0:
            break  # later stages read this stage's output
    return results


def run_cli(workload, work: Path, seconds: int, t_start: float) -> dict:
    deadline = t_start + RUN_LIMIT_S
    logs = work / "logs"
    logs.mkdir(parents=True)
    _import_samples(1, logs, deadline)   # compiles bytecode once, as an installed package has
    t0 = perf_counter()
    passes = []
    while True:
        # every pass rewrites the same --out roots, so reruns must match byte for byte
        passes.append(cli_pass(workload, work / "out", logs, deadline))
        digest = tree_digest(work / "out")
        if len(passes) == 1:
            first = digest
        elif digest_diff(first, digest):
            passes[-1][-1]["problems"].append(
                f"rerun changed {', '.join(digest_diff(first, digest))}")
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:  # another pass would overrun
            break
    # every stage child timed its own import; plain imports fill the rest of the run
    imports = [r["child"] for p in passes for r in p if r["child"].import_s is not None]
    while len(imports) < MIN_SETUP_SAMPLES or perf_counter() - t0 < seconds:
        imports += _import_samples(1, logs, deadline)

    stage_walls: dict[str, list[float]] = {}
    stage_refs: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            stage_walls.setdefault(r["stage"], []).append(r["child"].wall)
            stage_refs.setdefault(r["stage"], []).append(r["child"].ref)
    stage_median = {name: statistics.median(v) for name, v in stage_walls.items()}
    results = [r for p in passes for r in p]
    failed = sum(1 for r in results if r["problems"])
    metrics = {
        "setup_s": statistics.median(c.import_s for c in imports),
        "setup_ref": statistics.median(c.import_ref for c in imports),
        "wall_ref": statistics.median(sum(r["child"].ref for r in p) for p in passes),
        "peak_rss_mb": statistics.median(max(r["child"].rss_mb for r in p) for p in passes),
    }
    samples = {"setup_s": len(imports), "setup_ref": len(imports),
               "wall_ref": len(passes), "peak_rss_mb": len(passes)}
    print(f"# {workload.name}: {len(passes)} pass(es), {len(results)} stage runs, "
          f"{failed} failed; one client, closed loop, one stage in flight; "
          f"1 ref = the mean time of a {PROBE_LOOPS}-step reference loop run on the "
          f"idle core over the same interval; setup = import moodcycles.cli in a fresh "
          f"interpreter, timed inside it")
    for name, unit in END_TO_END.items():
        print(f"{name:<22} {metrics[name]:>14.4f} {unit:<6} median of {samples[name]}")
    wall_s = statistics.median(sum(r["child"].wall for r in p) for p in passes)
    print(f"{'wall_s':<22} {wall_s:>14.4f} {'s':<6} median of {len(passes)}")
    for name, values in stage_walls.items():
        print(f"{name + '_s':<22} {stage_median[name]:>14.4f} {'s':<6} median of {len(values)}; "
              f"{statistics.median(stage_refs[name]):.2f} ref")
    text_s = sum(stage_median.get(n, 0.0) for n in ("score", "bin"))
    if text_s:
        print(f"{'records_per_s':<22} {workload.n_records / text_s:>14.1f} {'1/s':<6} "
              f"{workload.n_records} records over score+bin")
    print(f"{'fail_ratio':<22} {failed / len(results):>14.4f} {'ratio':<6} "
          f"{failed} of {len(results)} stage runs")
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in END_TO_END.items()}}


# ------------------------------------------------------------------- traced run


def run_traced(workload, work: Path, seconds: int, t_start: float, prep_spans) -> dict:
    import traced
    from spans import Recorder, self_times, span_cost, write_spans

    deadline = t_start + RUN_LIMIT_S
    logs = work / "logs"
    logs.mkdir(parents=True)
    _import_samples(1, logs, deadline)
    imports = [import_breakdown(log) for log in _importtime_logs(3, logs, deadline)]
    t0 = perf_counter()
    passes, spans, problems = [], list(prep_spans), []
    plain_s = None
    while True:
        k = len(passes) + 1
        re.purge()  # each CLI stage compiles the stoplist pattern afresh
        tracer = traced.Tracer(Recorder(f"{workload.name}-pass{k}"), check_identity=k == 1)
        out_root = work / "out" / f"traced{k}"
        workload.traced_pass(tracer, out_root)
        for stage in workload.stages(out_root):
            if stage.check:
                tracer.problems += stage.check(stage.out)
        if plain_s is None:  # one untraced pass shows what the spans cost
            re.purge()
            plain = traced.Tracer(Recorder("untraced", enabled=False))
            workload.traced_pass(plain, work / "out" / "untraced")
            plain_s = plain.stage_seconds
        spans += tracer.rec.spans
        passes.append({"tracer": tracer, "self": self_times(tracer.rec.spans)})
        problems += tracer.problems
        if k > 1 and tracer.counts != passes[0]["tracer"].counts:
            problems.append(f"pass {k} counts differ from pass 1")
        elapsed = perf_counter() - t0
        if elapsed + elapsed / len(passes) > seconds:
            break
    for p in problems:
        print(f"FAIL {workload.name} traced: {p}", file=sys.stderr)

    unknown = {n for p in passes for n in p["self"] if not n.startswith("stage.")} - {
        n[:-2] for n, unit in traced.PER_LAYER.items() if unit == "s"}
    if unknown:
        raise SystemExit(f"spans without a per-layer metric: {sorted(unknown)}")
    counts = passes[0]["tracer"].counts
    prep = self_times(prep_spans)
    metrics = {}
    for name, unit in traced.PER_LAYER.items():
        if name.startswith("import."):
            metrics[name] = statistics.median(i[name] for i in imports)
        elif name == "cli.glue_s":
            metrics[name] = statistics.median(
                sum(v for n, v in p["self"].items() if n.startswith("stage.")) for p in passes)
        elif name == "synth.generate_s":
            metrics[name] = prep.get("synth.generate", 0.0)
        elif unit == "s":
            metrics[name] = statistics.median(p["self"].get(name[:-2], 0.0) for p in passes)
        elif name == "sentiment.stoplist_hit_ratio":
            passed = counts["sentiment.stoplist_prefilter_pass"]
            metrics[name] = counts["sentiment.stoplist_hits"] / passed if passed else 0.0
        else:
            metrics[name] = counts[name]
    trace_path = trace_file(workload.name)
    write_spans(trace_path, spans)

    traced_s = statistics.median(p["tracer"].stage_seconds for p in passes)
    n_stages = len(workload.stages(work))
    print(f"# {workload.name} traced: {len(passes)} traced and 1 untraced in-process "
          f"pass(es) of {n_stages} stages; spans in {trace_path.relative_to(ROOT)}")
    for name, unit in traced.PER_LAYER.items():
        print(f"{name:<36} {metrics[name]:>16.6f} {unit}")
    print(f"{'trace.traced_total_s':<36} {traced_s:>16.6f} s    median of {len(passes)}")
    print(f"{'trace.untraced_total_s':<36} {plain_s:>16.6f} s    one pass, spans off")
    print(f"{'trace.overhead_ratio':<36} {traced_s / plain_s - 1.0:>16.6f} ratio  "
          "traced over untraced, one pair: mostly noise")
    recorder_s = span_cost() * len(passes[0]["tracer"].rec.spans)
    print(f"{'trace.recorder_s':<36} {recorder_s:>16.6f} s    "
          f"{len(passes[0]['tracer'].rec.spans)} spans a pass times the cost of one")
    attempted = len(passes) * n_stages
    failed = len(problems)
    return {"correct": not problems, "attempted": attempted, "failed": min(failed, attempted),
            "metrics": {n: {"value": metrics[n], "unit": u} for n, u in traced.PER_LAYER.items()}}


# ------------------------------------------------------------------- self-check


def self_check(seed: int) -> int:
    """Exit status 0 when inputs, counts and outputs repeat for ``seed``."""
    from workloads import WORKLOADS
    from spans import Recorder, write_spans

    failures = []
    for name, cls in WORKLOADS.items():
        base = WORK / f"self-check-{name}"
        shutil.rmtree(base, ignore_errors=True)
        try:
            w = cls()
            w.prepare(base / "a" / "inputs", seed, SRC, Recorder("prep", False))
            cls().prepare(base / "b" / "inputs", seed, SRC, Recorder("prep", False))
            diff = digest_diff(tree_digest(base / "a" / "inputs"), tree_digest(base / "b" / "inputs"))
            print(f"{name}: inputs repeat byte for byte: {'PASS' if not diff else diff}")
            failures += diff

            (base / "logs").mkdir()
            out = base / "out"
            digests = []
            for _ in range(2):
                res = cli_pass(w, out, base / "logs", perf_counter() + RUN_LIMIT_S)
                failures += [p for r in res for p in r["problems"]]
                digests.append(tree_digest(out))
            diff = digest_diff(*digests)
            print(f"{name}: a rerun rewrites every --out file byte for byte: "
                  f"{'PASS' if not diff else diff}")
            failures += diff

            counts = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                     "--seconds", "1", "--trace", "1"], capture_output=True, text=True, cwd=ROOT)
                if proc.returncode != 0:
                    failures.append(f"{name}: traced run exited {proc.returncode}")
                    print(proc.stderr[-2000:], file=sys.stderr)
                    break
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                counts.append({k: v["value"] for k, v in result["metrics"].items()
                               if v["unit"] != "s"})
                if not result["correct"]:
                    failures.append(f"{name}: traced run reported failures")
            same = len(counts) == 2 and counts[0] == counts[1]
            print(f"{name}: {len(counts[0]) if counts else 0} count metrics repeat across two "
                  f"traced runs: {'PASS' if same else 'FAIL'}")
            if not same:
                failures.append(f"{name}: count metrics differ")

            # the in-process mirror must write what the CLI wrote, and nothing
            # else: a span or timing file under its --out shows up as extra
            import traced
            rec = Recorder(f"{name}-self-check")
            w.traced_pass(traced.Tracer(rec), base / "traced")
            write_spans(trace_file(name), rec.spans)
            problems = compare_outputs(out, base / "traced")
            print(f"{name}: the traced mirror writes the CLI's --out files, and no others: "
                  f"{'PASS' if not problems else problems}")
            failures += problems
        finally:
            shutil.rmtree(base, ignore_errors=True)
    print("self-check:", "PASS" if not failures else f"FAIL ({len(failures)} problems)")
    return 0 if not failures else 1


# ------------------------------------------------------------------------ main


def main() -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    if not (SRC / "moodcycles" / "cli.py").is_file():
        print(f"no moodcycles sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the work dir is removed
    if args.self_check:
        return self_check(args.seed)

    from spans import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        prep = Recorder(f"{args.workload}-prep", enabled=bool(args.trace))
        workload.prepare(work / "inputs", args.seed, SRC, prep)
        if args.trace:
            result = run_traced(workload, work, args.seconds, t_start, prep.spans)
        else:
            result = run_cli(workload, work, args.seconds, t_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
