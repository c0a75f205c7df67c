"""Record one trajectory point: every workload under several seeds, plus traced runs.

Usage (from the repository root):
    python3 perfbench/trajectory.py --label seed-commit [--seeds 1-10] [--traced 2]

For each workload it runs run.py with --trace 0 once per seed and
reports, per end-to-end metric, the ten values, their median and
quartiles and the spread (q3 - q1) / median that BENCHMARK.json's
bounds are judged against. It then makes --traced runs with --trace 1
on the first seed, reports their per-layer metrics and checks that the
exact counts agree between those runs too (bytes written depend on the
data, so only same-seed runs are compared). Every run must report
correct: true. The result goes to perfbench/trajectory/<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} not correct:\n{proc.stdout}")
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return result, env


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    p.add_argument("--traced", type=int, default=2)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"label": args.label, "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        values, envs = {}, []
        for seed in args.seeds:
            result, env = run(w, seed, spec["run_seconds"], 0)
            envs.append(env)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        end_to_end = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / statistics.median(vals), "bound": bounds[name],
                                "values": vals}
        traced = [run(w, args.seeds[0], spec["run_seconds"], 1) for _ in range(args.traced)]
        counts = [env["counts_first_pass"] for _, env in traced]
        point["workloads"][w] = {
            "end_to_end": end_to_end,
            "per_layer": [{k: m["value"] for k, m in result["metrics"].items()} for result, _ in traced],
            "exact_counts": counts[0],
            "exact_counts_repeat_across_runs": all(c == counts[0] for c in counts),
            "env": {k: v for k, v in envs[0].items() if k not in ("pass_s", "setup_samples_s")},
        }
        print(w, json.dumps({k: round(v["spread"], 4) for k, v in end_to_end.items()}), flush=True)
    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
