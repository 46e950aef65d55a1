"""Set-up probe, run in a fresh interpreter: import cmpbayes.cli, load inputs.

Usage: python3 bench/probe.py WORKLOAD SEED TMPDIR

The caller times the whole process (setup_s). The probe prints one JSON line
with the time `import cmpbayes.cli` took inside it (cli.import_s).
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

t0 = time.perf_counter()
import cmpbayes.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

import inputs  # noqa: E402
from cmpbayes.datasets import resolve_dataset  # noqa: E402

workload, seed, tmp = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
if workload == "fit-matrix":
    for name in inputs.FIT_DATASETS:
        resolve_dataset(name)
elif workload == "long-series":
    resolve_dataset(str(inputs.write_long_series(seed, tmp)))
elif workload == "study-cell":
    cli.build_parser().parse_args([
        *inputs.study_argv(seed, inputs.STUDY_WORKERS),
        "--progress", str(tmp / "progress.jsonl"), "--out", str(tmp / "tables.csv")])
else:
    sys.exit(f"unknown workload {workload!r}")
print(json.dumps({"import_s": import_s}))
