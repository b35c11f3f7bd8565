"""Audit a public benchmark dataset, if one is on disk.

Looks for the prepared CSVs described in data/README.md and runs the
full detector on whichever are present, printing the score table and
the flagged features. Without any data it explains how to fetch some.
Run it:

    python demos/06_benchmark_audit.py
"""

import os
from pathlib import Path

from fairdep import Schema, load_dataset
from fairdep.detector import audit_dataset

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = Path(os.environ.get("FAIRDEP_DATA_DIR", REPO / "data" / "raw"))
SCHEMA_DIR = REPO / "data" / "schemas"

found = False
for name in ("compas", "lsac", "taiwan_credit", "adult"):
    csv_path = DATA_DIR / f"{name}.csv"
    if not csv_path.exists():
        continue
    found = True
    schema = Schema.from_json(SCHEMA_DIR / f"{name}.json")
    dataset = load_dataset(csv_path, schema)
    print(f"=== {name}: n={dataset.n} (dropped {dataset.dropped_rows} rows with missing cells)")
    _, report = audit_dataset(dataset, max_n=2000, seed=42)
    print(report.table())
    print(f"sensitive features: {report.sensitive_features}")
    print(f"harmed groups:      {report.sensitive_groups}\n")

if not found:
    print(f"no benchmark CSVs under {DATA_DIR}")
    print("fetch instructions: data/README.md")
    print("or generate a synthetic stand-in:")
    print("    fairdep synth --n 2000 --planted 0.0,0.1,0.25,0.5 --out demo_data")
    print("    fairdep audit --data demo_data/synth.csv --schema demo_data/synth.schema.json --out demo_out")
