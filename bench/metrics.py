"""Names and units of the metrics the benchmark reports.

The bounded metrics are those ``BENCHMARK.json`` at the repository root
lists: ``end_to_end`` for untraced runs and ``per_layer`` for traced runs.
They are read from there, so the file is their one definition.
"""

import json
from pathlib import Path

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                   .read_text(encoding="utf-8"))

# name -> unit.  Reported by untraced runs (--trace 0).
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}

# name -> unit.  Reported by traced runs (--trace 1), on every workload; a
# count is 0 and a ratio with nothing to divide by is 0 where the workload
# does not reach that layer.
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

# Names whose call count and self time the tracer reports (``<name>.calls``
# and ``<name>.self_s``).
CALLS_AND_SELF = tuple(name[:-len(".calls")] for name in PER_LAYER
                       if name.endswith(".calls"))

# Printed by untraced runs next to END_TO_END, but not bounded: failed_frac is
# 0 at a correct commit, and the gaps are fixed by the seed and vary over
# three orders of magnitude between seeds.
REPORTED = {
    "failed_frac": "ratio",
    "eq_gap_raw": "cost",
    "opt_gap_raw": "cost",
    "eq_gap_limit": "cost",
}
