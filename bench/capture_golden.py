#!/usr/bin/env python3
"""Capture the cli-scenes golden set: exit code, stdout and stderr of every
(shipped scene, command, format), run in-process as the benchmark runs it.

    python3 bench/capture_golden.py

Run from the root of a checkout.  The committed capture was taken at the
commit that introduced the benchmark; recapture only on purpose, since the
golden set is what keeps CLI output byte-identical.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main():
    os.chdir(run.ROOT)
    cli = run._import_program()
    golden = {}
    for scene in workloads.SHIPPED_SCENES:
        for cmd in workloads.CLI_COMMANDS:
            for fmt in workloads.FORMATS:
                op = run.Op(None, [cmd, f"scenes/{scene}.scene", "--format", fmt],
                            None)
                _, rc, out, err = run.run_op(cli, op)
                golden[f"{scene} {cmd} {fmt}"] = {"rc": rc, "stdout": out,
                                                  "stderr": err}
    run.GOLDEN.parent.mkdir(exist_ok=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} entries to {run.GOLDEN}")


if __name__ == "__main__":
    main()
