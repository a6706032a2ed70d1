"""Benchmark for l2mbqc: four closed-loop workloads, one client in one process.

    python3 perfbench/run.py --workload synth --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0   # every workload

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs
one cycle untraced and traced, after a warm-up pass, and reports per-layer
metrics.  Every timing is CPU time (user plus system) of the benchmark process
and the children it waited for; wall times are recorded beside them in the
info line.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the details behind the metrics.  Exit status is nonzero when
any output is wrong.
"""
from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:          # before numpy loads, inherited by children
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 7
STARTUP_PROBES = 5
TAIL_PCT = 90

# Medians over whole cycles and several probes damp host noise within a run;
# CPU time leaves out the time the hypervisor gives to other tenants (steal),
# which moves wall times by 10-50 % in phases longer than one run.
LIMITS = ("shared 2-core virtual machine without core pinning or isolation; "
          "timings are CPU seconds, which exclude steal but still carry "
          "other tenants' contention for the core, caches and memory (up to "
          "20 % in slow phases); wall times in info include steal; peak RSS "
          "is ru_maxrss (KiB granularity)")


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "l2mbqc" / "__init__.py").is_file():
    _fail(f"no l2mbqc sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402  (after the thread pins above)

import workloads  # noqa: E402


def cpu_seconds() -> float:
    """User plus system seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def tail(xs):
    """Nearest-rank p90 and the number of samples strictly beyond it.

    The level is fixed so that it means the same on every run and commit.
    The rule "highest percentile with ten samples beyond it" would pick the
    median on every workload at the seed commit (16 to 28 operations per
    run) and a different level whenever run lengths or speeds change.
    """
    xs = sorted(xs)
    k = max(0, math.ceil(TAIL_PCT / 100 * len(xs)) - 1)
    return xs[k], len(xs) - 1 - k


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "l2mbqc").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "limits": LIMITS,
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def input_digest(ops) -> str:
    blob = json.dumps([[op.kind, list(op.params)] for op in ops])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Tally:
    """Per-operation CPU and wall times and failures; nothing is dropped."""

    def __init__(self):
        self.times: list[float] = []       # CPU seconds
        self.walls: list[float] = []
        self.kinds: dict[str, list[float]] = {}
        self.failed = 0
        self.peak_child_kb = 0

    def run(self, op) -> None:
        c0, w0 = cpu_seconds(), time.perf_counter()
        err = None
        try:
            out = op.call()
        except Exception as exc:  # a raising operation is a failed operation
            err = f"raised {exc!r}"
        wall, dt = time.perf_counter() - w0, cpu_seconds() - c0
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:
                err = f"check raised {exc!r}"
            self.peak_child_kb = max(self.peak_child_kb,
                                     getattr(out, "peak_rss_kb", 0))
        self.times.append(dt)
        self.walls.append(wall)
        self.kinds.setdefault(op.kind, []).append(dt)
        if err is not None:
            self.failed += 1
            print(f"FAILED {op.kind} {op.params}: {err}", file=sys.stderr)


def probe(argv) -> float:
    """CPU seconds a fresh interpreter spent until it printed ``ready <cpu>``."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT,
                            env=workloads.cli_env(SRC))
    try:
        words = proc.stdout.readline().split()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
    if proc.returncode != 0 or len(words) != 2 or words[0] != b"ready":
        _fail(f"probe {argv[1:]} exited {proc.returncode}")
    return float(words[1])


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes: start, import, build inputs, first op due."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed), "--setup-probe"]
    return statistics.median(probe(argv) for _ in range(SETUP_PROBES))


def startup_seconds() -> float:
    """Median over fresh interpreters running ``import l2mbqc.cli``."""
    argv = [sys.executable, "-c",
            "import resource, l2mbqc.cli; "
            "u = resource.getrusage(resource.RUSAGE_SELF); "
            "print('ready', u.ru_utime + u.ru_stime)"]
    return statistics.median(probe(argv) for _ in range(STARTUP_PROBES))


def end_to_end(args):
    """Whole cycles in a closed loop until about ``--seconds`` have passed."""
    wl = workloads.make(args.workload, SRC)
    rng = np.random.default_rng(args.seed)
    wl.setup(rng)
    setup_s = setup_seconds(args.workload, args.seed)
    tally, digests = Tally(), []
    t0 = time.perf_counter()
    while True:
        c0 = time.perf_counter()
        ops = wl.cycle(rng)
        digests.append(input_digest(ops))
        for op in ops:
            tally.run(op)
        now = time.perf_counter()
        if now - t0 + (now - c0) / 2 >= args.seconds:  # end nearest the target
            break
    wall = time.perf_counter() - t0
    n = len(tally.times)
    if args.workload == "pipe":
        peak_kb = tally.peak_child_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_s, beyond = tail(tally.times)
    info = {
        "ops": n, "cycles": len(digests), "measured_s": wall,
        "fail_frac": tally.failed / n,
        "op_tail": {"percentile": TAIL_PCT, "samples": n, "beyond": beyond},
        "peak_rss_of": ("pipeline children" if args.workload == "pipe"
                        else "benchmark process"),
        "per_kind_p50_cpu_s": {k: statistics.median(v)
                               for k, v in tally.kinds.items()},
        "wall": {"op_p50_s": statistics.median(tally.walls),
                 "op_tail_s": tail(tally.walls)[0], "ops_per_s": n / wall,
                 "cpu_share": sum(tally.times) / sum(tally.walls)},
        "input_digest": hashlib.sha256("".join(digests).encode()).hexdigest()[:16],
    }
    metrics = {
        "op_p50_cpu_s": (statistics.median(tally.times), "s"),
        "op_tail_cpu_s": (tail_s, "s"),
        "ops_per_cpu_s": (n / sum(tally.times), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return tally, info, metrics


def traced(args):
    """One warm-up cycle, then each operation untraced and at once traced.

    Pairing the two runs of an operation keeps host load phases out of the
    tracing overhead.  Setup is traced too.
    """
    from tracing import Tracer, layer_metrics
    wl = workloads.make(args.workload, SRC, in_process=True)
    rng = np.random.default_rng(args.seed)
    tracer = Tracer()
    tracer.op = "setup"
    with tracer:
        wl.setup(rng)
        ops = wl.cycle(rng)
    tally = Tally()
    for op in ops:                  # warm-up: mpmath and numpy caches filled
        tally.run(op)
    plain_s = traced_s = 0.0
    for i, op in enumerate(ops):
        tally.run(op)
        plain_s += tally.times[-1]
        tracer.op = i
        with tracer:
            tally.run(op)
        traced_s += tally.times[-1]
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_file)
    metrics = layer_metrics(tracer)
    metrics["cli.startup_s"] = (startup_seconds(), "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    info = {"ops": len(ops), "untraced_cycle_s": plain_s,
            "traced_cycle_s": traced_s, "input_digest": input_digest(ops),
            "spans_file": str(spans_file.relative_to(ROOT))}
    return tally, info, metrics


def run_all(args) -> int:
    """Each workload in its own process; a table, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            _fail(f"workload {w} exited {proc.returncode} without a result")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
            print(f"{w:<8}{name:<34}{m['value']:<24.6g}{m['unit']}")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        wl = workloads.make(args.workload, SRC)
        rng = np.random.default_rng(args.seed)
        wl.setup(rng)
        wl.cycle(rng)
        print("ready", cpu_seconds(), flush=True)
        return 0
    tally, info, metrics = (traced if args.trace else end_to_end)(args)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            **info, "env": environment()}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": len(tally.times),
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
