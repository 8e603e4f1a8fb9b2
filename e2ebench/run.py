#!/usr/bin/env python3
"""Build and run the starlab end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                            [--scale <f>] [--threads <n>]

Run from the root of a source tree. The benchmark is its own CMake package
(e2ebench/CMakeLists.txt) that compiles the library from src/; it is built
into .bench_build/e2ebench and then replaces this process, so a run is one
process. Build output goes to stderr; the last line of stdout is the JSON
result. See e2ebench/README.md for the workloads and metrics.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "starlab_e2ebench")


def die(msg):
    print(f"e2ebench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no starlab sources under {os.path.join(ROOT, 'src')}; run from a source tree")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
        if done.returncode != 0:
            die(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def source_stamp():
    """Git commit when there is one, and always a digest of the sources built."""
    stamp = []
    sha = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=False).stdout.strip()
        except OSError:
            pass
    stamp.append(f"git_sha={sha or 'none'}")
    h = hashlib.sha256()
    for top in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    stamp.append(f"src_sha256={h.hexdigest()[:16]}")
    return stamp


def main():
    build()
    argv = [BINARY] + sys.argv[1:]
    for s in source_stamp():
        argv += ["--stamp", s]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(BINARY, argv)


if __name__ == "__main__":
    main()
