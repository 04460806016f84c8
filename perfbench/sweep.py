"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --workload kick-scan --seeds 1-10 --out perfbench/baseline/kick-scan.json

For every metric it gives the values in seed order, their median and the
spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.  This is the check a
benchmark must pass to be steady, and the form of the stored baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    out = {"values": values, "median": median}
    if len(values) >= 2 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["spread"] = (q3 - q1) / median
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    p.add_argument("--seconds", type=float,
                   default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, cwd=HERE.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        provenance = next((json.loads(ln[len("# provenance "):]) for ln in lines
                           if ln.startswith("# provenance ")), None)
        runs.append({"seed": seed, "result": result, "provenance": provenance})
        shown = {k: round(v["value"], 4) for k, v in list(result["metrics"].items())[:4]}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} {shown}", flush=True)
    names = list(runs[0]["result"]["metrics"])
    summary = {name: dict(unit=runs[0]["result"]["metrics"][name]["unit"],
                          **summarise([r["result"]["metrics"][name]["value"] for r in runs]))
               for name in names}
    for name, s in summary.items():
        spread = f"{s['spread']:.3f}" if "spread" in s else "-"
        print(f"{name:42s} median={s['median']:<14.6g} spread={spread}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "provenance": runs[0]["provenance"],
            "metrics": summary,
            "runs": [{"seed": r["seed"], **r["result"]} for r in runs],
        }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
