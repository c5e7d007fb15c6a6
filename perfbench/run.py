#!/usr/bin/env python3
"""Build and run the vcount benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --test

Run from the repository root. The first form builds the `vcount` binary
and the benchmark (release, into $CARGO_TARGET_DIR, default .bench_build)
and prints the benchmark's result as the last line of stdout. `--all`
runs every workload untraced and traced and prints every metric with its
unit. `--test` runs the benchmark's own tests at toy size.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["midtown_run", "vcountd_unix", "vcountd_tcp"]
RUN_DIR = os.path.join("perfbench", ".run")


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cargo(*args, env=None):
    """Runs cargo from the repository root, building into `target_dir()`
    whatever the caller's environment says, so that the binaries land
    where `build()` looks for them. Cargo's output goes to stderr so that
    stdout carries only the result line."""
    env = dict(os.environ if env is None else env, CARGO_TARGET_DIR=target_dir())
    proc = subprocess.run(
        ["cargo", *args], cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, env=env
    )
    if proc.returncode != 0:
        sys.exit(f"cargo {' '.join(args)} failed with code {proc.returncode}")


def build():
    """Builds `vcount` from the repository's workspace and the benchmark
    from its own; returns both binaries' paths."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "cli")
    ):
        sys.exit(f"{ROOT} holds no vcount sources to build")
    target = target_dir()
    cargo("build", "--release", "--locked", "-p", "vcount-cli", "--bin", "vcount")
    cargo(
        "build",
        "--release",
        "--locked",
        "--manifest-path",
        os.path.join("perfbench", "Cargo.toml"),
    )
    return (
        os.path.join(target, "release", "vcount"),
        os.path.join(target, "release", "vcount-perfbench"),
    )


def run_bench(bench, vcount, argv):
    """Runs the benchmark binary, stopping it if this script is
    interrupted; returns (exit code, stdout)."""
    proc = subprocess.Popen(
        [bench, *argv, "--vcount", vcount, "--run-dir", RUN_DIR],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate()
    except BaseException:
        proc.send_signal(signal.SIGTERM)
        proc.wait()
        raise
    return proc.returncode, out


def run_all(vcount, bench, argv):
    seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "1"
    if "--seconds" in argv:
        seconds = argv[argv.index("--seconds") + 1]
    else:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            seconds = str(json.load(f)["run_seconds"])
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", seed, "--seconds", seconds]
            code, out = run_bench(bench, vcount, args + ["--trace", trace])
            if code != 0:
                print(f"{workload} trace={trace}: exited {code}")
                ok = False
                continue
            result = json.loads(out.strip().splitlines()[-1])
            ok = ok and result["correct"]
            print(
                f"{workload} trace={trace}: correct={result['correct']} "
                f"attempted={result['attempted']} failed={result['failed']}"
            )
            for name, m in result["metrics"].items():
                print(f"  {name:<28} {m['value']:>16.6f} {m['unit']}")
    return 0 if ok else 1


def main():
    # A terminated run still stops the benchmark (and so its daemon).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    argv = sys.argv[1:]
    if argv == ["--test"]:
        vcount, _ = build()
        env = dict(os.environ, VCOUNT_BIN=vcount)
        cargo(
            "test",
            "--release",
            "--locked",
            "--manifest-path",
            os.path.join("perfbench", "Cargo.toml"),
            env=env,
        )
        return 0
    vcount, bench = build()
    if "--all" in argv:
        return run_all(vcount, bench, [a for a in argv if a != "--all"])
    code, out = run_bench(bench, vcount, argv)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
