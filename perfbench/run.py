#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/clarabench.exe and
bin/clara_cli.exe with dune, then runs one workload; see README.md in
this directory.  The last line of standard output is the result JSON.
Scratch files (bundles, sockets, span dumps) go to .perfbench/.
"""
import os
import signal
import subprocess
import sys

ROOT = os.getcwd()
WORK = ".perfbench"
BUILD = os.path.join("_build", "default")


def main():
    # No shared dune cache: the build writes only inside the checkout.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/clarabench.exe", "./bin/clara_cli.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env={**os.environ, "DUNE_CACHE": "disabled"})
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    bench = os.path.join(BUILD, "perfbench", "clarabench.exe")
    clara = os.path.join(ROOT, BUILD, "bin", "clara_cli.exe")
    os.makedirs(WORK, exist_ok=True)
    # Its own process group, so the router and workers it launches can be
    # stopped together if it overruns.
    run = subprocess.Popen([bench, *sys.argv[1:], "--clara", clara, "--work", WORK],
                           start_new_session=True)

    def stop(signum, _frame):
        os.killpg(run.pid, signal.SIGKILL)
        run.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = run.wait(timeout=170)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded 170 s", file=sys.stderr)
        code = 1
    # Nothing the run started may outlive it.
    try:
        os.killpg(run.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    run.wait()
    return code


if __name__ == "__main__":
    sys.exit(main())
