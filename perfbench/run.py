#!/usr/bin/env python3
"""klsym benchmark: fixed CLI workloads, each run in a fresh child process.

Usage, from the root of a klsym checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, a table each

Each sample is one ``klsym.cli.console_main(argv)`` call in a new Python
process, so module-level tables and caches start empty as they do for a
user.  One child runs at a time (a closed loop with one client) and every
run uses ``--workers 1``.  Samples repeat until the next one would overrun
``--seconds``; the metrics are medians over them.

``--trace 0`` reports the end-to-end metrics from untraced runs.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of ``tracer.py`` plus ``trace.overhead_s``.

Every report must exit with the pinned code and hash to the pinned digest
in ``expected.json`` (SHA-256 of the canonical JSON report without its
``timing`` block).  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run metadata and the sample count of each metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import burst_speed
from tracer import metric_unit, read_trace, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Fixed parameters; the seed only shuffles the record order of the warm
# cache copies.  "cache" is None (no cache), "fresh" (a new file per run)
# or "warm" (a copy of the cache one cold run of the same command built).
WORKLOADS = {
    "tables-cold": {
        "argv": ["symk", "-p", "5", "-n", "1", "-k", "3", "-D", "4"],
        "cache": "fresh",
    },
    "symk-charpoly": {
        "argv": ["symk", "-p", "3", "-n", "2", "-k", "6", "-D", "2"],
        "cache": None,
    },
    "padic-warm": {
        "argv": ["verify", "-p", "5", "-n", "1", "-k", "2", "-D", "3", "-V", "100"],
        "cache": "warm",
    },
}
SETUP_CHILDREN = 10     # import-only children per run, for setup_s
DEADLINE_S = 170        # the whole invocation stays under 180 s
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def report_digest(report: dict) -> str:
    """SHA-256 of the canonical JSON report with only ``timing`` removed."""
    body = {k: v for k, v in report.items() if k != "timing"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def shuffled_copy(src: Path, dst: Path, rng: random.Random):
    """Copy a sum cache, keeping comment lines first and shuffling records."""
    lines = src.read_text(encoding="ascii").splitlines(keepends=True)
    head = [ln for ln in lines if ln.startswith("#")]
    records = [ln for ln in lines if not ln.startswith("#")]
    rng.shuffle(records)
    dst.write_text("".join(head + records), encoding="ascii")


def git_sha(root: Path):
    """HEAD's commit from ``.git`` without running git, or None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Runner:
    """Starts children one at a time inside a private work directory."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        env = dict(os.environ)
        for var in ("KLSYM_CACHE", "PYTHONPATH"):
            env.pop(var, None)
        env["PYTHONHASHSEED"] = "0"
        self.env = env

    def _fresh(self, prefix):
        self.count += 1
        return self.workdir / f"{prefix}-{self.count}.json"

    def child(self, argv=None, trace=None):
        """Run child.py once; its measurements, or None if it failed."""
        result = self._fresh("result")
        spec = {"src": str(SRC), "argv": argv, "result": str(result),
                "trace": str(trace) if trace else None}
        cmd = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.workdir,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            print(f"child timed out: {argv}", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.is_file():
            sys.stderr.write(proc.stderr.decode(errors="replace")[-2000:])
            return None
        out = json.loads(result.read_text())
        out["setup_s"] = out["imported_at"] - started
        return out

    def setup(self):
        """One import-only child's set-up time, rescaled like ``run_s``.

        The core's speed is probed just before the child starts and just
        after it ends, because the import is too short and too much
        start-up and file reading for the in-child probe to track.
        """
        before = burst_speed()
        out = self.child()
        if out is None:
            return None
        return out["setup_s"] * (before + burst_speed()) / 2, out["setup_s"]

    def klsym(self, argv, expected, trace=None):
        """One CLI run; adds ``digest`` and ``ok`` (pinned exit and digest)."""
        report = self._fresh("report")
        out = self.child(argv + ["--workers", "1", "--out", str(report)], trace)
        if out is None:
            return {"ok": False, "digest": None}
        try:
            out["digest"] = report_digest(json.loads(report.read_text()))
        except (OSError, ValueError):
            out["digest"] = None
        out["ok"] = (out["exit"] == expected["exit"]
                     and out["digest"] == expected["digest"])
        return out


def measure(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line, metadata)."""
    spec = WORKLOADS[name]
    expected = json.loads((HERE / "expected.json").read_text())[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir, time.monotonic() + DEADLINE_S)
    rng = random.Random(seed)
    runs = {"cold": [], "plain": [], "traced": []}
    setups = []
    layer_samples = {}
    absent = []
    try:
        warmup = runner.child()  # compiles bytecode; checks klsym imports from src/
        if warmup is None:
            raise SystemExit("klsym does not import from src/")
        for _ in range(SETUP_CHILDREN):
            out = runner.setup()
            if out is not None:
                setups.append(out)

        cold_cache = workdir / "cold-cache.txt"
        if spec["cache"] == "warm":
            runs["cold"].append(runner.klsym(spec["argv"] + ["--cache", str(cold_cache)],
                                             expected))

        def one(kind):
            argv = list(spec["argv"])
            tag = f"{kind}-{len(runs[kind])}"
            if spec["cache"] == "fresh":
                argv += ["--cache", str(workdir / f"cache-{tag}.txt")]
            elif spec["cache"] == "warm":
                copy = workdir / f"cache-{tag}.txt"
                shuffled_copy(cold_cache, copy, rng)
                argv += ["--cache", str(copy)]
            trace_path = workdir / f"trace-{tag}.jsonl" if kind == "traced" else None
            out = runner.klsym(argv, expected, trace_path)
            runs[kind].append(out)
            if trace_path is not None and out.get("run_s") is not None:
                values, missing = summarize(*read_trace(trace_path))
                for metric, value in values.items():
                    if metric_unit(metric) == "s":   # on run_s's scale
                        value *= out["run_s"] / out["run_wall_s"]
                    layer_samples.setdefault(metric, []).append(value)
                absent[:] = missing
                WORK.joinpath(f"{name}.trace.jsonl").write_bytes(trace_path.read_bytes())
            return out.get("run_s") is not None

        if not runs["cold"] or runs["cold"][0].get("run_s") is not None:
            start = time.monotonic()
            while True:
                t = time.monotonic()
                if not one("plain") or (trace and not one("traced")):
                    break
                now = time.monotonic()
                if now - start + (now - t) > seconds or now + (now - t) > runner.deadline:
                    break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    every = runs["cold"] + runs["plain"] + runs["traced"]
    failed = sum(not r["ok"] for r in every)
    plain = [r for r in runs["plain"] if r.get("run_s") is not None]
    traced = [r for r in runs["traced"] if r.get("run_s") is not None]
    digests = {kind: sorted({r["digest"] for r in rs if r["digest"]})
               for kind, rs in runs.items() if rs}
    checks = {
        "pinned_exit_and_digest": failed == 0,
        "cold_equals_warm": (digests.get("cold") == digests.get("plain")
                             if runs["cold"] else None),
        "traced_equals_untraced": (digests.get("traced") == digests.get("plain")
                                   if trace else None),
    }

    metrics, samples, extra = {}, {}, {}
    if trace and plain and traced:
        for metric, values in layer_samples.items():
            metrics[metric] = {"value": statistics.median(values), "unit": metric_unit(metric)}
            samples[metric] = len(values)
        extra["traced_run_s"] = statistics.median(r["run_s"] for r in traced)
        overhead = extra["traced_run_s"] - statistics.median(r["run_s"] for r in plain)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        samples["trace.overhead_s"] = min(len(traced), len(plain))
    elif not trace and plain:
        columns = {"run_s": [r["run_s"] for r in plain], "setup_s": [ref for ref, _ in setups],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
        for metric, values in columns.items():
            metrics[metric] = {"value": statistics.median(values), "unit": END_TO_END[metric]}
            samples[metric] = len(values)

    correct = bool(metrics) and all(v is not False for v in checks.values())
    line = {"correct": correct, "attempted": max(len(every), 1),
            "failed": failed if every else 1, "metrics": metrics}
    meta = {
        "workload": name, "argv": spec["argv"], "seed": seed, "seconds": seconds,
        "trace": int(trace), "git_sha": git_sha(ROOT), "src_sha256": src_digest(SRC),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": warmup["numpy"], "samples": samples,
        "error_rate": line["failed"] / line["attempted"], "checks": checks,
        "digests": digests, "absent": absent,
        "run_wall_s": [round(r["run_wall_s"], 4) for r in plain],
        "run_s": [round(r["run_s"], 4) for r in plain],
        "setup_wall_s": (statistics.median(wall for _, wall in setups) if setups else None),
        **extra,
    }
    return line, meta


def print_table(line, meta):
    print(f"# {meta['workload']}: seed {meta['seed']}, {meta['seconds']} s, "
          f"trace {meta['trace']}, correct {line['correct']}")
    for metric, m in line["metrics"].items():
        value = "absent" if metric in meta["absent"] else f"{m['value']:.6g}"
        print(f"  {metric:28s} {value:>14s} {m['unit']:6s} n={meta['samples'][metric]}")
    print(f"  {'error_rate':28s} {meta['error_rate']:>14.6g} {'ratio':6s} "
          f"n={line['attempted']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "klsym" / "cli.py").is_file():
        print(f"no klsym package under {SRC}; run from a klsym checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})   # see child.py

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        line, meta = measure(name, args.seed, args.seconds, bool(args.trace))
        print_table(line, meta)
        print("meta " + json.dumps(meta, sort_keys=True))
        results[name] = line
    final = results[names[0]] if len(names) == 1 else results
    print(json.dumps(final), flush=True)
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
