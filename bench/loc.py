"""Print the non-test Scala line count of the program.

Counts the ``.scala`` files under ``src/main/scala`` (without the data
generator ``SynthData.scala`` and the DuckDB checker ``Oracle.scala``), under
``jobs/`` and under ``bench/src``, as ``wc -l`` counts them: newline
characters.

    python3 bench/loc.py            # the total
    python3 bench/loc.py --files    # each file's count, then the total
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DIRS = ["src/main/scala", "jobs", "bench/src"]
EXCLUDED = {"SynthData.scala", "Oracle.scala"}


def counts():
    for d in DIRS:
        for f in sorted((ROOT / d).rglob("*.scala")):
            if f.name not in EXCLUDED:
                yield f.relative_to(ROOT), f.read_bytes().count(b"\n")


def main(argv):
    total = 0
    for path, n in counts():
        if "--files" in argv:
            print(f"{n:6d} {path}")
        total += n
    print(total)


if __name__ == "__main__":
    main(sys.argv[1:])
