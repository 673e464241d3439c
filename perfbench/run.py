#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload sci-read --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the program and the
benchmark driver from source with sbt (offline, against the Spark jars of
$SPARK_HOME) into .bench_build/, and rebuilds whenever a source changes.
The driver's output passes through unchanged; its last line is one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 1 the per-call spans and Spark counters are also written to
.bench_build/trace/<workload>-seed<seed>.jsonl.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
CLASSPATH = os.path.join(BUILD, "target", "classpath.txt")
STAMP = os.path.join(BUILD, "build.stamp")
WORKLOADS = ("sci-read", "cur-collab")
# A first run builds and then runs: together they stay under 900 s.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700

# Spark's own module flags for JDK 17 (what spark-submit passes).
JAVA_FLAGS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]
DRIVER_HEAP = "-Xmx3g"


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build reads, in a stable order."""
    out = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (os.path.join(HERE, "src"), PROGRAM_SOURCES):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            out += [os.path.join(d, f) for f in sorted(files)]
    return out


def build():
    """Compile with sbt unless the classpath is current; return it."""
    if not os.path.isdir(os.path.join(PROGRAM_SOURCES, "repro")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SOURCES, ROOT)}")
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    stamp = h.hexdigest()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read().strip() == stamp:
                with open(CLASSPATH) as cp:
                    return cp.read().strip()
    env = dict(os.environ, COURSIER_MODE="offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.exists(repos):
        cmd += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    cmd += ["writeClasspath"]
    t0 = time.time()
    try:
        r = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}", 1)
    if r.returncode != 0 or not os.path.exists(CLASSPATH):
        fail(f"build failed with exit code {r.returncode}", 1)
    with open(STAMP, "w") as fh:
        fh.write(stamp + "\n")
    print(f"run.py: built in {time.time() - t0:.0f} s", file=sys.stderr)
    with open(CLASSPATH) as cp:
        return cp.read().strip()


def main():
    # A terminated run still stops the JVM it started (see the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")

    classpath = build()
    work = os.path.join(BUILD, "work", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    trace_out = os.path.join(BUILD, "trace", f"{a.workload}-seed{a.seed}.jsonl")
    cmd = [java, DRIVER_HEAP, *JAVA_FLAGS, f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
           "-cp", classpath, "perfbench.Bench",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--work", work, "--trace-out", trace_out]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(work, "spark-local"))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.strip()]
    sys.stdout.write("".join(line + "\n" for line in lines if not line.startswith("{")))
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}", 1)
    last = lines[-1] if lines else ""
    try:
        result = json.loads(last)
    except ValueError:
        fail("benchmark printed no result line", 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line", 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
