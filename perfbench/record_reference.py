"""Record the reference errors the benchmark checks outputs against.

Run once from the repository root on the commit that defines the baseline:

    python3 perfbench/record_reference.py

For each benchmark configuration it builds a bundle and stores the canonical
online errors (default modes, training instants) and the errors of every
stored-instant query the mix can draw: each (n_u, n_p, dt_r multiple).
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads

CONFIG_NAMES = ("channel", "fine")


def record(romkit, name: str, tmp: Path) -> dict:
    d = tmp / name
    romkit.pipeline.offline(run.CONFIGS[name], d)
    bundle = romkit.pipeline.Bundle.load(d)
    norms = run.snapshot_norms(romkit, bundle)
    _, report = romkit.pipeline.online(bundle, timing_reps=1)
    out = {"canonical": run.rel_errors(norms, report), "queries": {}}
    for n_u in range(1, 17):
        for n_p in range(min(n_u, 8) + 1):
            for mult in run.DT_MULTS:
                q = run.Query(n_u, n_p, mult, "stored", None)
                _, report = run.run_query(romkit, bundle, q)
                out["queries"][q.key] = run.rel_errors(norms, report)
    return out


def main() -> int:
    romkit = run.import_romkit()
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=run.OUT))
    try:
        ref = {name: record(romkit, name, tmp) for name in CONFIG_NAMES}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
