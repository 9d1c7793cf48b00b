"""Refresh the measured fields of design.json from traced runs.

    python3 nsbench/record.py --seed 1 --seconds 30

Runs `run.py --trace 1` once per workload and records, per workload, each
layer's share of the summed self time and the trace overhead, plus the input
digest for the seed and the line count of every module under src/nseries.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DESIGN = HERE / "design.json"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_run(workload: str, seed: int, seconds: int) -> tuple[str, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    digest = re.search(r"sha256=([0-9a-f]{64})", proc.stdout).group(1)
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run reported failures:\n{proc.stdout}")
    return digest, {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    design = json.loads(DESIGN.read_text())
    shares, overhead, digests = {}, {}, {}
    for workload in sorted(workloads.SETUPS):
        digest, metrics = traced_run(workload, args.seed, args.seconds)
        total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        shares[workload] = {
            layer: round(metrics[f"{layer}.self_s"] / total, 4) for layer in tracing.LAYERS
        }
        overhead[workload] = round(metrics["trace.overhead"], 3)
        digests[workload] = digest
    src = ROOT / "src" / "nseries"
    design[f"input_sha256_seed{args.seed}"] = digests
    design["measured"] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "self_s_share": shares,
        "trace_overhead": overhead,
        "src_lines": {
            p.name: sum(1 for _ in p.open(encoding="utf-8")) for p in sorted(src.glob("*.py"))
        },
    }
    design["measured"]["src_lines"]["total"] = sum(design["measured"]["src_lines"].values())
    DESIGN.write_text(json.dumps(design, indent=2) + "\n")
    print(json.dumps(design["measured"], indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
