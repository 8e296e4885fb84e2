#!/usr/bin/env python3
"""Builds the benchmark from source, then runs it.

Run from the repository root:

    python3 poolbench/run.py --workload <plan|fleet-day|serve> --seed <n> \
        --seconds <s> --trace <0|1>

Cargo's output goes to standard error. The benchmark's own output goes to
standard output; its last line is the JSON result. The build directory is
$CARGO_TARGET_DIR, or .bench_build under the current directory when that
is unset. The exit code is the benchmark's, or 3 when the build fails.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """The git commit when the checkout has one, else a SHA-256 over the
    sources the benchmark builds from."""
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if commit.returncode == 0:
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ["crates", "vendor", "poolbench", "Cargo.toml", "Cargo.lock"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in ("target", "__pycache__"))
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as handle:
                digest.update(handle.read())
    return "sha256:" + digest.hexdigest()[:16]


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("poolbench: build failed", file=sys.stderr)
        return 3
    env["POOLBENCH_SOURCE"] = source_digest()
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "poolbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
