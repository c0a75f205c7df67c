"""Set-up probe: a fresh interpreter up to the end of psg's first time step.

Usage: python3 perfbench/setup_probe.py '<json spec>'

The spec names the src directory, the workload's grid, scheme, kappa,
tau and init, and whether the workload goes through the CLI (which adds
the import of psg.cli). The probe imports psg, validates the config,
resolves the initial field (reading a snapshot when init is a path),
advances one step, and prints time.monotonic(), which is system-wide on
Linux, so the parent can subtract the moment it spawned the probe.
"""

import json
import sys
import time

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import psg  # noqa: E402

if spec["cli"]:
    import psg.cli  # noqa: E402,F401

config = psg.ExperimentConfig(psg.ModelKind.SINE_GORDON, psg.SchemeKind(spec["scheme"]), spec["dim"],
                              spec["kappa"], spec["tau"], spec["n"], n_steps=1, init=spec["init"])
psg.run(psg.initial_field(config), config.model, config.scheme, config.tau, 1)
print(repr(time.monotonic()))
