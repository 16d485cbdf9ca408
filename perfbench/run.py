#!/usr/bin/env python3
"""Build and run the NEXMark benchmark of the Jet engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload q5-1node --seed 1 --seconds 30 --trace 0

The first run builds the engine from the checkout's sources together with
the benchmark (sbt, offline) into .bench_build/; later runs reuse the build
until a source file changes. The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. Host
facts and every metric also go, one per line, to the lines before it and to
.bench_build/perfbench/out/.

Exit codes: 0 when every window was right, 1 when some were wrong (the
result is still printed), 2 on bad arguments or a missing engine source
tree, 3 when the build or the run failed or timed out (no result printed).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENGINE = os.path.join(ROOT, "src", "main", "scala")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(BUILD, "out")
# The paper's JVM set-up (section 7.1): G1 with a 5 ms pause target, on a
# fixed heap so every run sizes its young generation the same way.
JVM_FLAGS = ["-XX:+UseG1GC", "-XX:MaxGCPauseMillis=5", "-Xms4g", "-Xmx4g"]
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 175
# A traced run measures the workload twice and adds an 11 s exactly-once
# job, the kernels and the 1-thread baseline; at 40 s it ends within
# RUN_TIMEOUT_S on a 4-core host. Longer runs are refused, not cut.
MAX_SECONDS = 40


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Hash of every file the build reads, so an edit forces a rebuild."""
    h = hashlib.sha256()
    for top in (ENGINE, os.path.join(HERE, "src"), os.path.join(HERE, "project")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    with open(os.path.join(HERE, "build.sbt"), "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def build():
    """Compile with sbt unless the last build matches; return the classpath."""
    stamp_file = os.path.join(BUILD, "stamp")
    cp_file = os.path.join(BUILD, "classpath")
    digest = source_digest()
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read() == digest:
                with open(cp_file) as g:
                    return g.read()
    os.makedirs(BUILD, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE=os.environ.get("COURSIER_MODE", "offline"))
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "-Dsbt.boot.lock=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    except OSError as e:
        fail(f"cannot run sbt: {e}", 3)
    sys.stderr.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines() if l.strip() and not l.startswith("[")]
    if proc.returncode != 0 or not lines:
        fail(f"build failed (exit {proc.returncode})", 3)
    classpath = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(classpath)
    with open(stamp_file, "w") as f:
        f.write(digest)
    return classpath


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if not 1 <= args.seconds <= MAX_SECONDS:
        fail(f"--seconds must be between 1 and {MAX_SECONDS}", 2)
    if not os.path.isdir(os.path.join(ENGINE, "repro", "core")):
        fail(f"engine sources not found under {os.path.relpath(ENGINE, ROOT)}", 2)

    classpath = build()
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    os.makedirs(OUT, exist_ok=True)
    cmd = [java, *JVM_FLAGS, f"-Dperfbench.out={OUT}", "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(out)
        fail(f"run failed (exit {proc.returncode}) without a result", 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
