"""Write ``reference.json``: the CLI's results for every drawable configuration.

The correctness gate of ``run.py`` compares each benchmarked configuration
with this table.  Regenerate it only when a change is meant to alter the
numerical results, and say so in that change.

    python3 perfbench/reference.py

Run from the repository root; it takes about four minutes on two cores.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from fracfront import cli  # noqa: E402

from workloads import WORKLOADS, config_key, grid_configs, simulate_argv  # noqa: E402

REFERENCE = HERE / "reference.json"


def reference_entry(workload: str, config: dict, out: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(simulate_argv(workload, config, str(out)))
    if code != 0:
        raise SystemExit(f"{workload} {config}: exit code {code}")
    manifest = json.loads((out / "manifest.json").read_text())
    diag, stats = manifest["diagnostics"], manifest["stats"]
    return {"speed": diag["speed"], "decay_rate": diag["decay_rate"],
            "u_min": stats["u_min"], "u_max": stats["u_max"]}


def main() -> int:
    table = {}
    work = ROOT / ".perfbench_work" / "reference"
    for workload in WORKLOADS:
        entries = {}
        for config in grid_configs(workload):
            key = config_key(**config)
            entries[key] = reference_entry(workload, config, work / key)
            print(workload, key, entries[key], flush=True)
        table[workload] = entries
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
