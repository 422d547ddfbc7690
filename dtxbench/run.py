#!/usr/bin/env python3
"""Build dtxbench from source and measure one DTX workload.

Run from the root of a DTX checkout:

    python3 dtxbench/run.py --workload paper-xdgl --seed 7 --seconds 30 --trace 0

The arguments go to dtxbench.exe unchanged; its last line of output is one
JSON object with the verdict and the metrics. The build runs in the
checkout's own _build directory with dune's shared cache disabled, so
nothing outside the checkout is read or written.
"""

import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, env, timeout, stdout=None):
    """Run cmd in its own process group; on timeout kill the whole group.

    Returns the exit code, or None on timeout. Either way every process
    started here has ended when this returns.
    """
    try:
        proc = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    except OSError as e:
        sys.exit("dtxbench: cannot start %s: %s" % (cmd[0], e))
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("dtxbench: run from the root of a DTX checkout (no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled", DTX_DOMAINS="1")
    build = run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./dtxbench/dtxbench.exe"],
        env,
        BUILD_TIMEOUT_S,
        stdout=sys.stderr,
    )
    if build != 0:
        sys.exit("dtxbench: build failed" if build is not None else "dtxbench: build timed out")
    exe = os.path.join("_build", "default", "dtxbench", "dtxbench.exe")
    code = run([exe] + sys.argv[1:], env, RUN_TIMEOUT_S)
    if code is None:
        sys.exit("dtxbench: measurement timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()
