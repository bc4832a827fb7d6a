#!/usr/bin/env python3
"""Turns a traced run's span dump into per-layer rows.

    python3 perfbench/spans_to_rows.py .bench_build/traces/<workload>-seed<n>.jsonl

The dump holds one JSON object per line: a "meta" line, then "span"
lines (name, id, parent, group, start_ns, end_ns) and "value" lines
(name, group, value). A row's value is the median over groups (passes or
requests) of the per-group sum: span durations in the unit the name's
`_s`/`_ms`/`_us` segment states, or recorded values as they are. run.py
reports these rows as the per-layer metrics, under the names
BENCHMARK.json lists.
"""

import argparse
import json
import statistics
from collections import defaultdict


def unit_seconds(name):
    for segment in name.split("."):
        if segment.endswith("per_s"):
            return 0.0
        if segment.endswith("_ms") and len(segment) > 3:
            return 1e-3
        if segment.endswith("_us") and len(segment) > 3:
            return 1e-6
        if segment.endswith("_s") and len(segment) > 2:
            return 1.0
    return 0.0


def rows(records):
    per_group = defaultdict(lambda: defaultdict(float))
    for span in (r for r in records if r["type"] == "span"):
        unit = unit_seconds(span["name"]) or 1.0
        duration_ns = span["end_ns"] - span["start_ns"]
        per_group[span["name"]][span["group"]] += duration_ns * 1e-9 / unit
    for record in records:
        if record["type"] == "value":
            per_group[record["name"]][record["group"]] += record["value"]
    return {name: statistics.median(groups.values())
            for name, groups in sorted(per_group.items())}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("dump")
    args = parser.parse_args()
    with open(args.dump) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    meta = next((r for r in records if r["type"] == "meta"), {})
    print(json.dumps({k: v for k, v in meta.items() if k != "type"}))
    for name, value in rows(records).items():
        print("%-44s %.9g" % (name, value))


if __name__ == "__main__":
    main()
