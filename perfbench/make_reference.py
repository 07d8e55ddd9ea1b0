#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: oracle values for every benchmark job.

    python3 perfbench/make_reference.py

Runs each experiment any workload seed can generate (workloads.
reference_specs) once on the extended-precision reference oracle
(src/ref, `"engine": "reference"`) at a 5e-5 s fixed step, two processes
at a time, and records final Vc, binned generator energy and final
resonance. Takes about seven minutes on a 4-CPU box; rerun only when a
workload's physics changes. (test_accuracy_matrix uses 2e-4 s on its 1 s
miniature; on these longer runs the oracle's own energy error at 2e-4 s is
~3%, see README.md.)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import workloads

ORACLE_STEP_S = 5e-5
PARALLEL = 2


def main():
    ehsim, _ = run.build()
    work = run.build_dir() / "reference-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    pending = []
    for index, (key, spec) in enumerate(workloads.reference_specs()):
        spec = dict(spec, engine="reference", solver={"fixed_step": ORACLE_STEP_S},
                    name=f"ref-{index}")
        (work / f"ref-{index}.json").write_text(json.dumps(spec))
        pending.append((key, spec))

    procs = []
    for _, spec in pending:
        if len(procs) >= PARALLEL:
            procs[-PARALLEL].wait()
        cmd = [str(ehsim), "run", f"{spec['name']}.json", "--out", "out", "--quiet"]
        procs.append(subprocess.Popen(cmd, cwd=work))
    if any(code != 0 for code in [proc.wait() for proc in procs]):
        raise SystemExit("an oracle run failed; see its message above")

    references = {}
    for key, spec in pending:
        doc = json.loads((work / "out" / f"{spec['name']}.result.json").read_text())
        references[key] = {
            "final_vc": doc["final_vc"],
            "energy_j": sum(doc["power_bins"]["mean"]) * spec["power_bin_width"],
            "final_resonance_hz": doc["final_resonance_hz"],
        }
    document = {
        "command": "python3 perfbench/make_reference.py",
        "engine": "reference",
        "oracle_step_s": ORACLE_STEP_S,
        "references": references,
    }
    out = Path(run.HERE) / "reference.json"
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {out} ({len(references)} references)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
