#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --summarize .bench_build/trace-sweep-seed1.jsonl

Run it from the repository root. It builds perfbench - a Go module of its
own that reaches the repository's packages through a replace directive -
into the build directory ($CARGO_TARGET_DIR if set, else .bench_build),
with every Go cache and temporary directory kept inside that directory,
then runs the binary with the same arguments and exits with its status.
The binary's last line of standard output is the JSON result.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    for var, sub in [
        ("GOCACHE", "gocache"),
        ("GOPATH", "gopath"),
        ("GOMODCACHE", "gopath/pkg/mod"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("HOME", "home"),
        ("XDG_CONFIG_HOME", "home/.config"),
        ("XDG_CACHE_HOME", "home/.cache"),
    ]:
        env[var] = os.path.join(build, sub)
        os.makedirs(env[var], exist_ok=True)
    # Build offline with the installed toolchain only.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", CGO_ENABLED="0")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary, "--workdir", build] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
