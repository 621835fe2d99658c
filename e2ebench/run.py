#!/usr/bin/env python3
"""End-to-end DETERRENT benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
benchmark package (e2ebench/CMakeLists.txt, which adds the top-level
library) under $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench);
later calls reuse the build. The e2e_bench binary prints the result as the last stdout line, one
JSON object; the exit code is non-zero on any correctness-gate failure or
error. See e2ebench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compat_s15850", "unsat_mips16", "train_c5315")
RUN_TIMEOUT_S = 170


def tree_id():
    """Hash of every file the build reads (src/, e2ebench/ and the top-level
    CMakeLists.txt), so determinism records never outlive the code that
    wrote them."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def configured_source(build_dir):
    """The source directory an existing build directory was configured from."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(build_dir):
    """Configures (once per source directory) and builds e2e_bench; build logs
    go to stderr. A build directory configured from another checkout is
    wiped first, so it never compiles that checkout's sources. Compiler
    temporaries stay inside the build directory."""
    configured = configured_source(build_dir)
    if configured is not None and os.path.realpath(configured) != os.path.realpath(HERE):
        shutil.rmtree(build_dir)
        configured = None
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if configured is None:
        try:
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, env=env)
        except subprocess.CalledProcessError:
            # A failed configure can leave a cache behind; drop it so the next
            # call configures again instead of building a half-made tree.
            shutil.rmtree(build_dir, ignore_errors=True)
            raise
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, env=env)
    return os.path.join(build_dir, "e2e_bench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    # Accepted for the benchmark's calling convention; a run always makes the
    # same fixed number of jobs (README.md), so it sets no duration.
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "pipeline.hpp")):
        print("e2ebench: deterrent sources (src/) not found next to the benchmark",
              file=sys.stderr)
        return 2

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(os.path.join(out_root, "e2ebench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2ebench: build failed: {err}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(out_root, "e2ebench-work", f"{tag}-{os.getpid()}"),
           "--record-dir", os.path.join(out_root, "e2ebench-records", tree_id())]
    if args.trace:
        cmd += ["--trace-out", os.path.join(out_root, "e2ebench-traces", f"{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: {tag} exceeded {RUN_TIMEOUT_S}s and was killed", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
