#!/usr/bin/env python3
"""Build and run the repository benchmark described by BENCHMARK.json.

    python3 perfbench/run.py --workload pes_fanin --seed 1 --seconds 40 --trace 0

Run it from the repository root. It builds the two variants of the Go
benchmark in this directory into .bench_build/ (the untraced one imports
only the ldphh facade; the traced one adds -tags perftrace and its direct
probes), keeping the Go build cache, temporary files and tool state inside
.bench_build/ too, then runs the variant --trace selects and passes its
output and exit code through. A failed build exits non-zero without a
result line.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def go_env(build):
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "go-cache"), ("GOPATH", "go-path"), ("GOTMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOENV="off", GOFLAGS="", GOTOOLCHAIN="local", GOPROXY="off",
               GOSUMDB="off", GOWORK="off", CGO_ENABLED="0", TMPDIR=env["GOTMPDIR"])
    return env


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = go_env(build)
    binaries = {"0": os.path.join(build, "perfbench"), "1": os.path.join(build, "perfbench-trace")}
    for trace, tags in (("0", []), ("1", ["-tags", "perftrace"])):
        cmd = ["go", "build", *tags, "-o", binaries[trace], "."]
        built = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.DEVNULL)
        if built.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return built.returncode or 1
    cmd = [binaries[args.trace], "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
