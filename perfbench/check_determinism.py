"""Check that the benchmark itself is deterministic.

    python3 perfbench/check_determinism.py

For each workload, two traced runs with seed 1 must report identical counts
(every per-layer metric that is not a time) and identical inputs; a run with
seed 2 must draw different inputs.  Exit status 1 on any mismatch.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("synth", "sample", "exact", "pipe")
SEED, OTHER_SEED = 1, 2


def traced(workload: str, seed: int):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                           "--seed", str(seed), "--trace", "1"],
                          capture_output=True, text=True, timeout=300,
                          cwd=RUN.parent.parent)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    *_, info_line, result_line = proc.stdout.splitlines()
    counts = {k: m["value"] for k, m in json.loads(result_line)["metrics"].items()
              if m["unit"] != "s"}
    return counts, json.loads(info_line)["info"]["input_digest"]


def main() -> int:
    ok = True
    for w in WORKLOADS:
        (c1, d1), (c2, d2) = traced(w, SEED), traced(w, SEED)
        d3 = traced(w, OTHER_SEED)[1]
        diff = sorted(k for k in c1 if c1[k] != c2.get(k))
        same_inputs, new_inputs = d1 == d2, d1 != d3
        print(f"{w}: counts {'repeat' if not diff else 'DIFFER ' + ', '.join(diff)}; "
              f"inputs {'repeat' if same_inputs else 'DIFFER'} for seed {SEED}, "
              f"{'change' if new_inputs else 'DO NOT CHANGE'} for seed {OTHER_SEED}")
        print("  " + json.dumps(c1, sort_keys=True))
        ok &= not diff and same_inputs and new_inputs
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
