#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload folder-drop --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Builds perfbench (this directory's Go module), cmd/tuebench and, for
traced tuebench-quick runs, the cmd/tuebench test binary into
.bench_build/perfbench, with the Go build cache under .bench_build too,
then runs one workload. The last line of standard output is the JSON
result. Nothing outside the checkout is written.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT = 170  # seconds; a run must end within 180


def go_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache"), ("TMPDIR", "tmp")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="-mod=mod", GOWORK="off", GOTELEMETRY="off")
    return env


def go(env, cwd, *args):
    proc = subprocess.run(["go", *args], cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"run.py: go {' '.join(args)} failed")


def build(env, tue_test):
    go(env, HERE, "build", "-o", os.path.join(BUILD, "perfbench"), ".")
    go(env, ROOT, "build", "-o", os.path.join(BUILD, "tuebench"), "./cmd/tuebench")
    if tue_test:
        go(env, ROOT, "test", "-c", "-o", os.path.join(BUILD, "tuebench.test"), "./cmd/tuebench")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("run.py: no go.mod at the checkout root; nothing to build")
    env = go_env()
    build(env, args.self_test or (args.trace == 1 and args.workload == "tuebench-quick"))
    if args.self_test:
        env["PERFBENCH_BIN"] = BUILD
        proc = subprocess.run(["go", "test", "-count=1", "-timeout", "600s", "."], cwd=HERE, env=env)
        sys.exit(proc.returncode)
    if not args.workload:
        sys.exit("run.py: --workload is required")

    work = os.path.join(BUILD, "work-%d" % os.getpid())
    cmd = [os.path.join(BUILD, "perfbench"), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-root", ROOT, "-work", work,
           "-tuebench", os.path.join(BUILD, "tuebench"),
           "-tuebench-test", os.path.join(BUILD, "tuebench.test")]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the benchmark and any tuebench it started
        proc.wait()
        code = 1
        print("run.py: benchmark timed out", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
