#!/usr/bin/env python3
"""Self-tests of the benchmark's own machinery.

    python3 bench/selftest.py            # or: python3 -m pytest bench/selftest.py

Covers the seeded generator, the independent correctness checks, the
host-speed correction, the self-time computation and the tracer, including
that two traced runs with the same seed count the same calls.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import hostclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GENERATED = [w for w in workloads.WORKLOADS if w != "cli-scenes"]


def _composition(rounds):
    """What a seed must not change: command, field kind, dimension, check
    kind, and for a probe whether the cubic is a cusp.  (The small primes of
    the orbit scenes are seeded coefficients.)"""
    return [[(cmd, text.split()[1], text.splitlines()[1], spec["check"],
              "- 0*x0^2*x2" in text)
             for _, cmd, text, spec in ops] for ops in rounds]


def test_generator_is_deterministic():
    for w in GENERATED:
        assert workloads.generated_rounds(w, 7, 2) == workloads.generated_rounds(w, 7, 2)
    assert workloads.cli_rounds(7, 2) == workloads.cli_rounds(7, 2)
    assert workloads.known_defect_ops(7) == workloads.known_defect_ops(7)


def test_seed_changes_values_not_composition():
    for w in GENERATED:
        a, b = (workloads.generated_rounds(w, s, 2) for s in (1, 2))
        assert _composition(a) == _composition(b)
        assert [t for ops in a for _, _, t, _ in ops] != \
            [t for ops in b for _, _, t, _ in ops]
    a, b = workloads.cli_rounds(1, 1)[0], workloads.cli_rounds(2, 1)[0]
    assert sorted(a) == sorted(b) and a != b and len(a) == 120


def test_antichain_counts():
    assert checks.antichain_count(1) == 3  # {0}, {1}, {0} u {1}
    assert checks.antichain_count(2) == 17
    assert checks.antichain_count(3) == 165


def test_orbit_truth():
    # x -> x + 1 on P^1 over GF(5): [0:1] returns after 5 steps and meets
    # V(x0 - 2 x1) at n = 2
    assert checks.orbit_truth([[1, 1], [0, 1]], [0, 1], [1, -2], 5) == (5, {2})


def test_self_time_on_synthetic_tree():
    # op [0,100] > a [10,40] > a' [15,25]; op > b [50,70]
    spans = [["op", 0, 100, -1, "x", True, None],
             ["polykernel.intersect", 10, 40, 0, "x", True, None],
             ["polykernel.intersect", 15, 25, 1, "x", False, None],
             ["linalg.rref", 50, 70, 0, "x", True, 3]]
    assert tracing.self_times(spans) == [50, 20, 10, 20]
    m = tracing.layer_metrics(spans)
    assert m["polykernel.intersect.calls"][0] == 2
    assert m["polykernel.intersect.self_ms"][0] == 30 / 1e6
    assert m["polykernel.intersect.total_ms"][0] == 30 / 1e6  # outermost only
    assert m["op.self_ms"][0] == 50 / 1e6
    assert m["linalg.rref.cells"][0] == 3


def test_hd_median():
    assert run.hd_median([4.0]) == 4.0
    assert abs(run.hd_median([1, 2, 3, 4, 5]) - 3) < 1e-9  # symmetric
    assert abs(run.hd_median([7] * 20) - 7) < 1e-9
    # a gap at the middle: between the two groups, not on either edge
    assert 1 < run.hd_median([1] * 50 + [2] * 50) < 2
    assert abs(run.hd_median([1] * 50 + [2] * 50) - 1.5) < 1e-9
    # one wild sample barely moves it
    assert abs(run.hd_median(list(range(101)) + [10 ** 6]) - 50.5) < 1


def test_host_clock_on_synthetic_samples():
    # handler intervals [10,11], [20,21], ... ; the host runs at reference
    # speed, then at half speed; sample 1 is an outlier the median votes out
    ref = hostclock.REFERENCE_S
    clock = hostclock.HostClock()
    clock.starts, clock.ends = [10, 20, 30, 40, 50], [11, 21, 31, 41, 51]
    clock.costs = [ref, 9 * ref, ref, 2 * ref, 2 * ref]
    saved, hostclock.HALF_WINDOW = hostclock.HALF_WINDOW, 1
    try:
        assert clock.factors() == [0.2, 1.0, 0.5, 0.5, 0.5]
    finally:
        hostclock.HALF_WINDOW = saved
    clock._factors = [1.0, 1.0, 0.5, 0.5, 0.5]
    assert clock.raw(5, 35) == 5 + 9 + 9 + 4
    assert clock.span(5, 35) == 5 * 1.0 + 9 * 1.0 + 9 * 0.5 + 4 * 0.5
    # an interval between two samples takes the factor of the later one
    assert clock.span(12, 14) == 2 * 1.0
    # past the last sample: the last factor
    assert clock.span(60, 64) == 4 * 0.5


def test_host_clock_samples_while_running():
    with hostclock.HostClock() as clock:
        a = time.perf_counter()
        while time.perf_counter() - a < 0.2:
            pass
        b = time.perf_counter()
    assert len(clock.costs) >= 5
    assert 0 < clock.raw(a, b) < b - a
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_install_wraps_every_binding():
    cli = run._import_program()
    assert tracing.untraced()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert not tracing.untraced()
        homology = sys.modules["geomideal.homology"]
        assert hasattr(homology.module_groebner, tracing.MARK)
        assert hasattr(cli.classify, tracing.MARK)
    finally:
        run._import_program()
    assert tracing.untraced()


def _traced_calls(seed):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "prime-field",
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"], result
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(".calls") or (k.endswith("_share") and "overhead" not in k)}


def test_traced_counts_repeat():
    first = _traced_calls(3)
    assert first["polykernel.groebner_basis.calls"] > 0
    assert first == _traced_calls(3)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for t in tests:
        t()
        print(f"ok  {t.__name__}")
