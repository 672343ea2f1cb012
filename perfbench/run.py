#!/usr/bin/env python3
"""Build and run the ZeroTune workspace benchmark from a source checkout.

    python3 perfbench/run.py --workload serve-mix|tune-lattice|train-pipeline \
        --seed N --seconds S --trace 0|1

Builds the release `zt-serve` daemon (from the repository's own manifest)
and the `zt-perfbench` binary (its own workspace in this directory), then
runs it. Build output goes to stderr; the binary's last stdout line
is the result object. Run records, ledgers and untraced end-to-end figures
are kept in `perfbench/out/`.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, extra):
    """Build one release binary and return its path, or exit non-zero."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--message-format=json-render-diagnostics",
        "--manifest-path", manifest,
    ] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench: `{' '.join(cmd)}` failed")
    exe = None
    for line in proc.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exe = msg["executable"]
    if exe is None:
        sys.exit(f"perfbench: `{' '.join(cmd)}` produced no executable")
    return exe


def source_id():
    """Digest of the sources the measured program and the benchmark binary build from,
    so ledgers and untraced baselines are only compared within one source."""
    h = hashlib.sha256()
    roots = ["Cargo.toml", "Cargo.lock", "crates", "vendor",
             os.path.join("perfbench", "Cargo.toml"), os.path.join("perfbench", "src")]
    for r in roots:
        path = os.path.join(ROOT, r)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no repository checkout around this directory")
    serve = build("Cargo.toml", ["-p", "zt-serve", "--bin", "zt-serve"])
    bench = build(os.path.join("perfbench", "Cargo.toml"), [])
    cmd = [bench] + sys.argv[1:] + [
        "--serve-bin", serve,
        "--state-dir", os.path.join(HERE, "out"),
        "--source-id", source_id(),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
