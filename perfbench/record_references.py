"""Record the reference output digest of every workload input variant.

    python3 perfbench/record_references.py

Run only when the benchmark is defined, or when a change to the program's
outputs is intended and justified: the references are what every benchmark
iteration is checked against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    references = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = ROOT / ".perfbench_out" / f"{name}-references"
        workdir.mkdir(parents=True, exist_ok=True)
        digests = []
        for variant in range(workloads.VARIANTS):
            inputs = workload.setup(variant, workdir)
            workload.prepare(inputs)
            digests.append(workload.digest(inputs, workload.iterate(inputs)))
            print(name, variant, digests[-1], flush=True)
        references[name] = digests
    workloads.REFERENCE_FILE.write_text(json.dumps(references, indent=1) + "\n")


if __name__ == "__main__":
    main()
