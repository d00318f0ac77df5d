#!/usr/bin/env python3
"""Build and run the workload benchmark from a checkout of the repository.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, offline, against the vendored
dependency stubs) and runs it from the checkout root. The build honours
CARGO_TARGET_DIR. The last line of standard output is the result line;
build output goes to standard error. The provenance line names the git
revision, `rustc -V` and a digest of the sources. Traced runs also write their spans
to perfbench/out/. Exits non-zero, printing no result, when the
repository's crates are not there to build.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def tool_output(cmd):
    """First line a tool prints, or 'unknown' if it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def source_digest():
    """SHA-256 over the Rust sources and manifests the benchmark builds
    from, so runs of a checkout without git history still name the code."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("crates", "depstubs", "perfbench")]
    files = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, ".cargo", "config.toml")]
    for top in roots:
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "out"))
            files += [os.path.join(d, n) for n in names if n.endswith((".rs", ".toml"))]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main():
    needed = [os.path.join(ROOT, "crates", "core", "Cargo.toml"),
              os.path.join(ROOT, ".cargo", "config.toml")]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        print(f"perfbench: not a checkout of the repository (missing {missing[0]})",
              file=sys.stderr)
        return 1
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        return build.returncode
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    env = dict(os.environ,
               PERFBENCH_GIT_REV=tool_output(["git", "rev-parse", "HEAD"]),
               PERFBENCH_RUSTC=tool_output(["rustc", "-V"]),
               PERFBENCH_SOURCE=source_digest())
    args = sys.argv[1:] + ["--spans-dir", os.path.join(HERE, "out")]
    return subprocess.run([exe] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
