"""Run one rescool invocation and hold its peak resident set size to a bound.

    python tools/peak_rss.py <bound_mb> <rescool argv...>

The invocation runs as `python -W error::RuntimeWarning -m rescool <argv>`
in a subprocess, with this interpreter and environment, so rescool must be
importable (PYTHONPATH=src from a checkout).  The child's peak RSS is
printed.  Exit 1 if the invocation fails or its peak exceeds bound_mb, else 0.
"""
from __future__ import annotations

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    bound_mb = float(argv[0])
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "rescool", *argv[1:]]
    code = subprocess.run(cmd).returncode
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB")
    if code:
        print(f"rescool exited {code}", file=sys.stderr)
        return 1
    if peak_mb > bound_mb:
        print(f"peak RSS {peak_mb:.0f} MB exceeds {bound_mb:g} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
