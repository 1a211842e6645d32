"""What ``BENCHMARK.json`` at the repository root declares, read in one
place: the workload names and every metric's name and unit."""

from __future__ import annotations

import json
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

_DOCUMENT = json.loads(PATH.read_text(encoding="utf-8"))

WORKLOADS = tuple(entry["name"] for entry in _DOCUMENT["workloads"])
#: ``(name, unit)`` of the metrics an untraced run prints.
END_TO_END = tuple((entry["name"], entry["unit"])
                   for entry in _DOCUMENT["end_to_end"])
#: ``(name, unit)`` of the metrics a traced run prints.
PER_LAYER = tuple((entry["name"], entry["unit"])
                  for entry in _DOCUMENT["per_layer"])
