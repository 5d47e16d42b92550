"""Build file of the benchmark.

Compiles the program's Scala sources (``src/main/scala``, without the DuckDB
checker ``Oracle.scala``, which the benchmark does not use) together with the
harness in ``perfbench/src`` into ``.bench_build/classes``, using the Scala
compiler that ships with the Spark distribution (``$SPARK_HOME/jars``). A
stamp over every source file and the jar list skips the compile when nothing
changed.

    python3 perfbench/build.py      # build, print the classes directory
"""

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
CLASSES = BUILD / "classes"
STAMP = BUILD / "classes.stamp"
EXCLUDED = {"Oracle.scala"}


class BuildError(Exception):
    pass


def spark_jars():
    """The jar directory of the Spark distribution: $SPARK_HOME/jars, or the
    one next to ``spark-submit`` on the PATH."""
    homes = []
    if os.environ.get("SPARK_HOME"):
        homes.append(pathlib.Path(os.environ["SPARK_HOME"]))
    submit = shutil.which("spark-submit")
    if submit:
        homes.append(pathlib.Path(submit).resolve().parent.parent)
    for home in homes:
        jars = home / "jars"
        if any(jars.glob("scala-compiler-*.jar")):
            return jars
    raise BuildError("no Spark distribution with a Scala compiler found "
                     "(set SPARK_HOME)")


def java():
    home = os.environ.get("JAVA_HOME")
    exe = pathlib.Path(home) / "bin" / "java" if home else shutil.which("java")
    if not exe or not pathlib.Path(exe).exists():
        raise BuildError("no java found (set JAVA_HOME)")
    return str(exe)


def sources():
    program = ROOT / "src" / "main" / "scala"
    if not program.is_dir():
        raise BuildError(f"program sources missing: {program.relative_to(ROOT)}")
    files = sorted(f for f in program.rglob("*.scala") if f.name not in EXCLUDED)
    files += sorted((ROOT / "perfbench" / "src").rglob("*.scala"))
    return files


def classpath(jars):
    return os.pathsep.join(str(j) for j in sorted(jars.glob("*.jar")))


def build():
    """Compile if the sources changed; return the classes directory."""
    jars = spark_jars()
    files = sources()
    digest = hashlib.sha256()
    for f in files:
        digest.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    digest.update(classpath(jars).encode())
    stamp = digest.hexdigest()
    if CLASSES.is_dir() and STAMP.exists() and STAMP.read_text() == stamp:
        return CLASSES

    staging = BUILD / "classes.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    compiler = os.pathsep.join(str(next(jars.glob(f"scala-{part}-*.jar")))
                               for part in ("compiler", "library", "reflect"))
    args = BUILD / "scalac.args"
    args.write_text("\n".join(str(f) for f in files) + "\n")
    cmd = [java(), "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", compiler, "scala.tools.nsc.Main",
           "-classpath", classpath(jars), "-d", str(staging), "-nowarn", f"@{args}"]
    print(f"[perfbench] compiling {len(files)} sources", file=sys.stderr, flush=True)
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BuildError(f"scalac failed with exit code {done.returncode}")
    shutil.rmtree(CLASSES, ignore_errors=True)
    staging.rename(CLASSES)
    STAMP.write_text(stamp)
    return CLASSES


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
