"""Compare two benchmark records written by ``scripts/bench_pr.py`` (stdlib only).

Usage, from the root of a checkout::

    python3 scripts/bench_compare.py BENCH_26.json BENCH_27.json

It prints one line per end-to-end metric of each workload (the median over
seeds 1-3 of ``bench/run.py``), one per off-benchmark row and measure (the
median of its samples) and one per module's compile step: the value of A,
the value of B and their ratio B/A.  A row gives a line for each of
``wall_s_ref`` (at the reference host's speed, taken beside each child as
``bench/run.py`` takes it), ``peak_rss_mb`` and, in records older than
BENCH_30, ``wall_s`` (as measured) that both records carry.  A compile step
(``compile_alloc_kb``) is compared only with another record's exact step,
never with the RSS steps of older records.  A line is flagged when the
change is above ``THRESHOLD`` (10 %) and also larger than the spread, max -
min, of each side: over the seeds for a workload, over the samples for a
row.  A compile step is exact, and a record that keeps one sample per row
has no spread there, so the 10 % alone decides.

Compare only records taken in one session.  Host speed drifts between
sessions by more than the reference-speed scaling absorbs: one commit
recorded in two sessions flagged 15 of 54 lines against itself.  To measure a
change, record the parent again in the same session, with
``scripts/bench_pr.py --pr N --root <clone of the parent>``, and compare
with that record.
"""

from __future__ import annotations

import json
import statistics
import sys

THRESHOLD = 0.10


def workload_stats(record: dict) -> dict:
    """(workload, metric) -> (median, min, max) over the seeds that ran."""
    values: dict = {}
    for workload, seeds in record.get("benchmark", {}).items():
        for run in seeds.values():
            for metric, entry in run.get("metrics", {}).items():
                values.setdefault((workload, metric), []).append(entry["value"])
    return {key: (statistics.median(v), min(v), max(v)) for key, v in values.items()}


def row_stats(record: dict) -> dict:
    """(argv, measure) -> (median, min, max) of each measure an off-benchmark row carries."""
    out = {}
    for row in record.get("invocations", []):
        argv = " ".join(row["argv"])
        for measure in [m for m in ("wall_s", "wall_s_ref", "peak_rss_mb") if m in row]:
            median = row[measure]
            out[(argv, measure)] = (
                median, row.get(measure + "_min", median), row.get(measure + "_max", median)
            )
    return out


def compile_stats(record: dict) -> dict:
    """(compile module, alloc_kb) -> (step, step, step) for each module."""
    steps = record.get("compile_alloc_kb", {})
    return {(f"compile {name}", "alloc_kb"): (kb, kb, kb) for name, kb in steps.items()}


def compare(a: tuple, b: tuple) -> tuple:
    """(ratio B/A, flagged) for two (median, min, max) triples."""
    (ma, lo_a, hi_a), (mb, lo_b, hi_b) = a, b
    ratio = mb / ma if ma else (float("inf") if mb else 1.0)
    change = abs(mb - ma)
    flagged = abs(ratio - 1) > THRESHOLD and change > hi_a - lo_a and change > hi_b - lo_b
    return ratio, flagged


def report(a: dict, b: dict) -> list:
    """The printed lines: workloads, off-benchmark rows, then compile steps."""
    lines = []
    for stats in (workload_stats, row_stats, compile_stats):
        sa, sb = stats(a), stats(b)
        for key in [k for k in sa if k in sb]:
            ratio, flagged = compare(sa[key], sb[key])
            lines.append(
                f"{key[0]} {key[1]}: {sa[key][0]:.4g} -> {sb[key][0]:.4g}"
                f" (x{ratio:.3f}){'  FLAG' if flagged else ''}"
            )
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 scripts/bench_compare.py A.json B.json", file=sys.stderr)
        return 2
    records = []
    for path in args:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    lines = report(*records)
    print("\n".join(lines))
    print(f"{sum(line.endswith('FLAG') for line in lines)} of {len(lines)} lines flagged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
