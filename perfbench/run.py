#!/usr/bin/env python3
"""Build and run the nocplan benchmark from the repository root.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds perfbench/main.exe and bin/nocplan.exe with dune, runs workload W
and passes its output through: the last line is one JSON object with
"correct", "attempted", "failed" and "metrics".  The exit code is the
benchmark's (1 when an output check failed).  --seed defaults to 7 and
--seconds to 20, BENCHMARK.json's run_seconds; --trace to 0.

    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

runs every workload untraced and traced, prints one JSON line per run
tagged with the workload and trace flag, and exits 1 if any check failed.
"""

import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["verify-corpus", "plan-paper", "serve-shared", "serve-cold"]
MAIN = "_build/default/perfbench/main.exe"
NOCPLAN = "_build/default/bin/nocplan.exe"


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ".", "./perfbench/main.exe", "./bin/nocplan.exe"]
    try:
        status = subprocess.run(cmd, stdout=sys.stderr).returncode
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return 1
    return status


def run(workload, seed, seconds, trace):
    """Run one workload in its own process group; returns (code, lines)."""
    args = [MAIN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--nocplan", NOCPLAN]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass
        proc.wait()
    return proc.returncode, out.splitlines()


def main(argv):
    opts = {"--workload": None, "--seed": "7", "--seconds": "20", "--trace": "0"}
    if len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in opts:
            print(__doc__, file=sys.stderr)
            return 2
        opts[flag] = value
    workload = opts["--workload"]
    if workload != "all" and workload not in WORKLOADS:
        print(__doc__, file=sys.stderr)
        return 2
    if build() != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    seed, seconds = int(opts["--seed"]), opts["--seconds"]
    if workload != "all":
        code, lines = run(workload, seed, seconds, int(opts["--trace"]))
        for line in lines:
            print(line)
        return code
    worst = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            code, lines = run(name, seed, seconds, trace)
            worst = max(worst, code)
            result = lines[-1] if lines else "{}"
            print(f'{{"workload": "{name}", "trace": {trace}, "result": {result}}}')
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
