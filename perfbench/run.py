#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload shapes --seed 11 --seconds 12 --trace 0

Run from the root of a checkout of the repository. The first call builds
the benchmark (perfbench/build.sbt compiles the repository's main sources
with the benchmark code in perfbench/src), records the classpath under
.bench_build/ (or $CARGO_TARGET_DIR when set) and writes there a class-data
archive from one untimed run, which every measured run maps. Needs sbt, a
JDK 17 and a Spark distribution under $SPARK_HOME.
"""
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("shapes", "bgp-plus")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    opts = {}
    it = iter(argv)
    for key in it:
        if not key.startswith("--"):
            fail(f"unexpected argument {key!r}")
        try:
            opts[key[2:]] = next(it)
        except StopIteration:
            fail(f"{key} needs a value")
    for key in ("workload", "seed", "seconds", "trace"):
        if key not in opts:
            fail(f"missing --{key}")
    if opts["workload"] not in WORKLOADS:
        fail(f"unknown workload {opts['workload']!r}; one of {', '.join(WORKLOADS)}")
    if opts["trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    for key in ("seed", "seconds"):
        if not opts[key].lstrip("-").isdigit():
            fail(f"--{key} must be a whole number")
    return opts


def source_files():
    """Every file the build reads: the benchmark code and the repository's main sources."""
    files = []
    for top in (os.path.join(HERE, "src", "main"), os.path.join(ROOT, "src", "main")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    files += [os.path.join(HERE, n) for n in ("build.sbt", "jvm.opts", "project/build.properties")]
    return sorted(files)


def source_digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def commit():
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    return "sources-sha256:" + source_digest()[:16]


def java_cmd(build_dir, cp, extra, args):
    with open(os.path.join(HERE, "jvm.opts")) as fh:
        jvm = [line.strip() for line in fh if line.strip()]
    work_dir = os.path.join(build_dir, "work")
    tmp_dir = os.path.join(work_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    return ["java", *jvm, *extra, f"-Djava.io.tmpdir={tmp_dir}", f"-Dperfbench.workdir={work_dir}",
            "-cp", cp, "perfbench.Bench", *args]


def build(build_dir):
    """Builds when the sources differ from the last build and returns the
    runtime classpath and the class-data archive that goes with it. sbt
    writes one jar per build, so only the last build is kept.
    """
    stamp = os.path.join(build_dir, "build.stamp")
    archive = os.path.join(build_dir, "classes.jsa")
    digest = source_digest()
    built = open(stamp).read().split("\n", 1) if os.path.exists(stamp) else None
    if not built or built[0] != digest:
        for f in (stamp, archive):
            if os.path.exists(f):
                os.remove(f)
        sbt = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
               "compile", "export Runtime/fullClasspath"]
        # Without settings of its own, sbt resolves only from local caches.
        env = dict(os.environ)
        env.setdefault("COURSIER_MODE", "offline")
        env.setdefault("SBT_OPTS", "-Dsbt.override.build.repos=true -Dsbt.offline=true -Xmx2g")
        out = subprocess.run(sbt, cwd=HERE, env=env, capture_output=True, text=True, timeout=480)
        if out.returncode != 0:
            sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
            fail("build failed")
        built = [digest, out.stdout.strip().splitlines()[-1]]
        with open(stamp, "w") as fh:
            fh.write("\n".join(built))
    cp = built[1].strip()
    if not os.path.exists(archive):
        # One untimed run writes the archive of the classes a run loads, so
        # every measured run maps the same archive (and starts Spark in about
        # half the time).
        partial = archive + ".part"
        cmd = java_cmd(build_dir, cp, [f"-XX:ArchiveClassesAtExit={partial}"],
                       ["--workload", "bgp-plus", "--seed", "1", "--seconds", "1", "--trace", "0"])
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=240)
        if out.returncode != 0 or not os.path.exists(partial):
            sys.stderr.write(out.stderr[-4000:])
            fail("the run that writes the class-data archive failed")
        os.replace(partial, archive)
    return cp, archive


def main():
    opts = parse_args(sys.argv[1:])
    # On SIGTERM, exit through the `finally` blocks, so a child JVM is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("run from a checkout of the repository: src/main/scala/repro is missing")
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    os.makedirs(build_dir, exist_ok=True)
    cp, archive = build(build_dir)
    cmd = java_cmd(build_dir, cp, [f"-XX:SharedArchiveFile={archive}", f"-Dperfbench.commit={commit()}"],
                   ["--workload", opts["workload"], "--seed", opts["seed"],
                    "--seconds", opts["seconds"], "--trace", opts["trace"]])
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code is None:
        fail("run did not finish within 170 s")
    sys.exit(code)


if __name__ == "__main__":
    main()
