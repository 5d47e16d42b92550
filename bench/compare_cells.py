"""Compare two runs of the evaluation tables cell by cell.

    python3 bench/compare_cells.py <fresh.json> <committed.json>

Both files are written by ``sbt -batch bench/test`` (``bench/BENCH_tables.json``):
one record per (table, dataset, row, n, k, s). A cell's behaviour is its
``digest`` (of every answer), ``avg_candidates`` and ``kb``; timings
(``seconds``, ``runs``) are ignored. Prints the first mismatches and exits 1
when a cell is missing from either file or differs in behaviour; prints the
number of cells compared and exits 0 otherwise.
"""

import json
import sys

KEY = ("table", "dataset", "row", "n", "k", "s")
BEHAVIOUR = ("digest", "avg_candidates", "kb")
SHOWN = 10


def cells(path):
    with open(path) as f:
        return {tuple(r[c] for c in KEY): r for r in json.load(f)}


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    fresh, committed = cells(argv[1]), cells(argv[2])
    problems = [f"missing from {argv[1]}: {k}" for k in committed if k not in fresh]
    problems += [f"missing from {argv[2]}: {k}" for k in fresh if k not in committed]
    for k, old in committed.items():
        new = fresh.get(k)
        if new is None:
            continue
        for field in BEHAVIOUR:
            if new[field] != old[field]:
                problems.append(f"{k}: {field} {old[field]} -> {new[field]}")
    if problems:
        print(f"{len(problems)} mismatches; the first {min(SHOWN, len(problems))}:")
        print("\n".join(problems[:SHOWN]))
        return 1
    print(f"all {len(committed)} cells unchanged in {', '.join(BEHAVIOUR)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
