#!/usr/bin/env python3
"""Build and run AVScope's benchmark.

Usage, from the repository root:

    python3 avbench/run.py --workload <characterize|campaign|optimize> \
        --seed <n> --seconds <s> --trace <0|1>

Configures avbench/ as a Release CMake project in .bench_build/,
builds the `avbench` binary (which compiles the library from src/),
then runs it. Build output goes to stderr; stdout carries the report,
and its last line is the JSON result object. Spans of traced runs and
temporary result caches are written under .bench_build/out/.

The exit status is the binary's: 0 only when every job and every
correctness check passed. A failed build exits non-zero without
printing a result.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
SOURCES = ("src", "avbench", "cmake")


def provenance():
    """Commit id when the tree is a git checkout, plus a digest of
    the sources the binary is built from (checkouts without .git)."""
    digest = hashlib.sha256()
    for top in SOURCES:
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    commit = "no-git"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    return f"{commit}+src:{digest.hexdigest()[:12]}"


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return configure.returncode
    compiled = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "avbench"],
        stdout=sys.stderr, stderr=sys.stderr)
    return compiled.returncode


def main(argv):
    status = build()
    if status != 0:
        print("avbench: build failed", file=sys.stderr)
        return status or 1
    out = BUILD / "out"
    out.mkdir(parents=True, exist_ok=True)
    command = [str(BUILD / "avbench"), *argv, "--out", str(out),
               "--commit", provenance()]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
