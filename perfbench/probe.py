"""Set-up probe: in a fresh interpreter, time importing ``dcs.cli`` and
finishing a workload's warm-up op, which imports whatever else it needs.

    python3 perfbench/probe.py ROOT '["verify", "--claim", "C4", ...]'

Prints ``{"setup_s": seconds, "exit": code, "out": stdout}`` as its last
line.  The clock starts before numpy or dcs is imported, so their import
cost is counted.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


def main():
    root, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, os.path.join(root, "src"))
    from dcs import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    elapsed = time.perf_counter() - T0
    print(json.dumps({"setup_s": elapsed, "exit": code, "out": out.getvalue()}))


if __name__ == "__main__":
    main()
