"""Correctness checks on CLI output, computed without geomideal.

Each check takes the op's check spec and what ``cli.main`` returned and
wrote, and returns None when the output is right or a one-line reason.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from math import comb


def _records(stdout):
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


@lru_cache(maxsize=None)
def antichain_count(d):
    """Nonempty antichains of proper nonempty subsets of {0..d}."""
    subsets = [frozenset(c) for size in range(1, d + 1)
               for c in combinations(range(d + 1), size)]
    count = 0

    def extend(start, chosen):
        nonlocal count
        for i in range(start, len(subsets)):
            s = subsets[i]
            if any(s <= t or t <= s for t in chosen):
                continue
            count += 1
            extend(i + 1, chosen + [s])

    extend(0, [])
    return count


def _check_colon(spec, recs):
    head, rows = recs[0], recs[1:]
    d = spec["d"]
    if head.get("record") != "stabilization" or head.get("n0") != 1:
        return f"expected stabilization with n0 = 1, got {head}"
    if [r.get("n") for r in rows] != list(range(1, spec["horizon"] + 1)):
        return "colon rows do not cover 1..horizon"
    for r in rows:
        if r.get("status") != "equal":
            return f"degree {r.get('n')}: status {r.get('status')!r}"
        if r.get("dim_R") != comb(r["n"] + d, d) - 1:
            return f"degree {r['n']}: dim_R {r.get('dim_R')}"
    return None


def _check_ct(spec, recs):
    (rec,) = recs
    want = "certified" if spec["certified"] else "refuted"
    if rec.get("status") != want:
        return f"status {rec.get('status')!r}, expected {want!r}"
    if want == "certified" and rec.get("checked") != antichain_count(spec["d"]):
        return f"checked {rec.get('checked')}, expected {antichain_count(spec['d'])}"
    return None


def _check_probe(spec, recs):
    rows = [r for r in recs if r.get("predicate") == "finite-cohomological-dimension"]
    if len(rows) != 1:
        return "no cohomological-dimension row"
    if rows[0].get("verdict") != spec["verdict"]:
        return f"probe verdict {rows[0].get('verdict')!r}, expected {spec['verdict']!r}"
    return None


def _check_idealizer(spec, recs):
    rows = [r for r in recs if r.get("record") == "idealizer-row"]
    if [r["n"] for r in rows] != list(range(spec["maxdeg"] + 1)):
        return "idealizer rows do not cover 0..maxdeg"
    for r in rows[1:]:
        if r.get("oracle") != "agree":
            return f"degree {r['n']}: oracle {r.get('oracle')!r}"
        if r.get("dim_R") != comb(r["n"] + 2, 2) - 1:
            return f"degree {r['n']}: dim_R {r.get('dim_R')}"
    return None


def _normalize(v, p):
    k = next(c for c in v if c % p)
    inv = pow(k, -1, p)
    return tuple(c * inv % p for c in v)


def orbit_truth(sigma, point, form, p):
    """Brute-force rescan: (period, hit residues) of the orbit of point."""
    start = _normalize(point, p)
    q, hits, n = start, set(), 0
    while True:
        if sum(a * b for a, b in zip(form, q)) % p == 0:
            hits.add(n)
        n += 1
        q = _normalize([sum(a * b for a, b in zip(row, q)) for row in sigma], p)
        if q == start:
            return n, hits


def _check_orbit(spec, recs):
    rows = [r for r in recs if r.get("record") == "orbit"]
    if len(rows) != len(spec["points"]):
        return "one orbit row per point expected"
    horizon = spec["horizon"]
    for pt, r in zip(spec["points"], rows):
        period, hits = orbit_truth(spec["sigma"], pt, spec["form"], spec["p"])
        seen = [n for n in range(horizon + 1) if n % period in hits]
        verdict = r.get("verdict")
        if verdict == "certified-finite":
            if hits:
                return (f"{r.get('point')}: certified-finite, but the orbit of "
                        f"period {period} meets Z at residues {sorted(hits)}")
        elif verdict == "infinite" and not hits:
            return f"{r.get('point')}: infinite, but the orbit never meets Z"
        if r.get("hits") != seen:
            return f"{r.get('point')}: hits {r.get('hits')}, expected {seen}"
        if r.get("period") not in (None, period):
            return f"{r.get('point')}: period {r.get('period')}, expected {period}"
    return None


_CHECKS = {"colon": _check_colon, "ct-cert": _check_ct, "probe": _check_probe,
           "idealizer": _check_idealizer, "orbit": _check_orbit}


def _check_golden(spec, rc, stdout, stderr):
    if (rc, stdout, stderr) != (spec["rc"], spec["stdout"], spec["stderr"]):
        return "output differs from the golden capture"
    return None


def check(spec, rc, stdout, stderr):
    """None if the op's exit code and output are right, else the reason."""
    if spec["check"] == "golden":
        return _check_golden(spec, rc, stdout, stderr)
    if rc != 0:
        return f"exit code {rc}: {stderr.strip()[:200]}"
    if stderr:
        return f"unexpected stderr: {stderr.strip()[:200]}"
    try:
        recs = _records(stdout)
        return _CHECKS[spec["check"]](spec, recs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}"
