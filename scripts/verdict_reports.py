#!/usr/bin/env python3
"""The verdict ledger: every classify row of the shipped and probe scenes.

Runs `classify` on the shipped scenes (`scenes/*.scene`) and the probe
curves (`scenes/curves/*.scene`), and prints one line per row: scene,
predicate, verdict and evidence kind.  The last line counts the rows whose
evidence is `certified` or `refuted`.  Its digest is recorded in
`scripts/reports.sha256`, so a verdict that moves changes the digest.
Run it on two source trees and compare:

    PYTHONPATH=<checkout>/src python scripts/verdict_reports.py > ledger.txt
"""

from pathlib import Path

from geomideal.cli import parse_scene, run_classify

SCENES = Path(__file__).resolve().parents[1] / "scenes"
DECIDED = ("certified", "refuted")


def ledger_lines():
    """One "scene predicate verdict evidence" line per classify row, then
    the count of decided rows."""
    paths = sorted(SCENES.glob("*.scene")) + sorted(SCENES.glob("curves/*.scene"))
    lines, decided = [], 0
    for path in paths:
        name = path.relative_to(SCENES).with_suffix("").as_posix()
        for rec in run_classify(parse_scene(path.read_text())):
            if rec["record"] != "row":
                continue
            lines.append(f"{name} {rec['predicate']} {rec['verdict']} {rec['evidence']}")
            decided += rec["evidence"] in DECIDED
    lines.append(f"{decided} of {len(lines)} rows certified or refuted")
    return lines


def main():
    for line in ledger_lines():
        print(line)


if __name__ == "__main__":
    main()
