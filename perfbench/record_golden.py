"""Print golden.json: the seed-independent outputs the checks compare against.

Usage (from the repository root): python3 perfbench/record_golden.py > perfbench/golden.json

The committed golden.json was recorded at the commit that introduced the
benchmark, before any optimisation. Re-record only when an output is
meant to change, and say so in the change that does it.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import psg  # noqa: E402
import psg.cli  # noqa: E402

import inputs  # noqa: E402
from workloads import run2d_argv  # noqa: E402

REPORT_KEYS = ("energy_violated", "modified_energy_violated", "maxp_violated", "steps", "exit_code")


def record_run2d(work: Path) -> dict:
    out = work / "out"
    with contextlib.redirect_stdout(sys.stderr):
        code = psg.cli.main(run2d_argv(out))
    lines = (out / "series.csv").read_text().splitlines()
    header = lines[0].split(",")
    first, last = (dict(zip(header, map(float, lines[i].split(",")))) for i in (1, -1))
    report = dict(line.split(": ", 1) for line in (out / "report.txt").read_text().splitlines())
    return {
        "exit_code": code,
        "first_row": first,
        "last_row": last,
        "report": {key: report[key] for key in REPORT_KEYS},
        "snapshot_steps": sorted(int(p.stem.split("_")[1]) for p in out.glob("snap_*.psg")),
    }


def main() -> None:
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_out"))
    try:
        run2d = record_run2d(work)
    finally:
        shutil.rmtree(work)
    periods = {repr(C): psg.build_periodic_orbit(C, inputs.STEADY_KAPPA).period for C in inputs.STEADY_ORBIT_C}
    print(json.dumps({"run2d": run2d, "steady_states": {"orbit_period": periods}}, indent=1))


if __name__ == "__main__":
    main()
