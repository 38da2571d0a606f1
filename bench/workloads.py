"""Seeded scene generator and op lists for the benchmark workloads.

A workload is a list of rounds.  Every round of a workload has the same
composition (the same commands on the same kinds of scene, in the same
order); the seed and the round index choose only the coefficients and the
points, except that the round index picks which of a round's two probes is
on a cusp.  The runner executes whole rounds, so every run sees the same op
mix.

This module never imports geomideal: the program under test sees only the
scene files written from the texts built here.
"""

from __future__ import annotations

import random

WORKLOADS = ("colon-highdim", "transversality", "exact-linalg",
             "prime-field", "cli-scenes")

# Rounds in a run of REFERENCE_SECONDS; a run of S seconds executes
# max(1, round(ROUNDS * S / REFERENCE_SECONDS)) rounds.  The op list depends
# on the workload, the seed and S only, so every commit runs the same ops and
# takes the same number of samples.  At 15 s a run takes 15-35 s of wall
# time on the 2-vCPU host (one round of transversality alone takes about
# 16 s when the host is slow).  cli-scenes gets three passes because its
# median op sits where the shipped ops' times are sparse (about 12 samples
# per ms around a 3-ms median), so each op's own noise moves it: with two
# passes it spread by 14% over five seeds.  exact-linalg gets three rounds
# because its op_tail_ms is the slowest smooth-point probe on a node; three
# rounds hold two of them, two rounds only one.
REFERENCE_SECONDS = 15
ROUNDS = {"colon-highdim": 3, "transversality": 1, "exact-linalg": 3,
          "prime-field": 6, "cli-scenes": 3}

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
GF_BIG = 32003
GF_SMALL = (101, 103, 107)

SHIPPED_SCENES = ("conic_pair", "cusp_probe", "fat_point", "identity_line",
                  "moving_point", "p1_shear")
CLI_COMMANDS = ("gb", "colon", "tor", "transverse", "bezout", "twist-check",
                "idealizer", "orbit", "ct-cert", "classify")
FORMATS = ("text", "records")


# ---------------------------------------------------------------------------
# scene text
# ---------------------------------------------------------------------------

def _field_line(p):
    return "field rational" if p is None else f"field prime {p}"


def _sigma_block(rows):
    return "sigma\n" + "\n".join(" ".join(str(x) for x in r) for r in rows)


def _diagonal(entries):
    n = len(entries)
    return [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _point_gens(pt):
    """Linear generators of the ideal of a projective point."""
    k = next(i for i in range(len(pt) - 1, -1, -1) if pt[i] != 0)
    return [f"{pt[k]}*x{i} - {pt[i]}*x{k}" for i in range(len(pt)) if i != k]


def scene_text(p, rows, gens, extra=(), quotient=None):
    d = len(rows) - 1
    parts = [_field_line(p), f"dim {d}", _sigma_block(rows),
             "ideal", *gens, "end"]
    if quotient is not None:
        parts += ["quotient", quotient, "end"]
    parts += list(extra)
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# ops: each function returns (command, scene text, check spec)
# ---------------------------------------------------------------------------

def colon_op(rng, d, p=None, horizon=2):
    """colon on a moving point of P^d; Z has coordinates in 1..5."""
    sigma = _diagonal([1] + rng.sample(PRIMES, d))
    pt = [rng.randint(1, 5) for _ in range(d + 1)]
    text = scene_text(p, sigma, _point_gens(pt), [f"horizon {horizon}"])
    return "colon", text, {"check": "colon", "d": d, "horizon": horizon}


def ct_op(rng, d, on_hyperplane):
    """ct-cert on a point of P^d; a zero coordinate makes it refutable."""
    sigma = _diagonal([1] + rng.sample(PRIMES, d))
    pt = [rng.randint(1, 5) for _ in range(d + 1)]
    if on_hyperplane:
        pt[rng.randrange(d + 1)] = 0
    text = scene_text(None, sigma, _point_gens(pt))
    return "ct-cert", text, {"check": "ct-cert", "d": d,
                             "certified": 0 not in pt}


def probe_op(rng, singular, cusp, p=None):
    """classify over the cubic x1^2 x2 - a x0^3 - b x0^2 x2 (a cusp if b = 0,
    a node otherwise), probing at [0:0:1] or at a smooth rational point."""
    a = rng.randint(1, 3)
    t, r = rng.randint(1, 3), rng.randint(1, 3)
    # the smooth point [t : t r : 1] lies on the curve iff a t + b = r^2
    if cusp:
        b, t, r = 0, a, a
    else:
        if r * r == a * t:
            r += 1
        b = r * r - a * t
    gens = ["x0", "x1"] if singular else [f"x0 - {t}*x2", f"x1 - {t * r}*x2"]
    sigma = _diagonal([1] + rng.sample(PRIMES, 2))
    quotient = f"x1^2*x2 - {a}*x0^3 - {b}*x0^2*x2"
    text = scene_text(p, sigma, gens, quotient=quotient)
    return "classify", text, {"check": "probe",
                              "verdict": "no" if singular else "yes"}


def idealizer_op(rng, p=None):
    """idealizer on a moving point of P^2 with maxdeg 5 and oracle 6."""
    sigma = _diagonal([1] + rng.sample(PRIMES, 2))
    pt = [rng.randint(1, 5) for _ in range(3)]
    text = scene_text(p, sigma, _point_gens(pt), ["maxdeg 5", "oracle 6"])
    return "idealizer", text, {"check": "idealizer", "maxdeg": 5}


def _mat_vec(m, v, p):
    return [sum(a * b for a, b in zip(row, v)) % p for row in m]


def _cross(u, v, p):
    return [(u[1] * v[2] - u[2] * v[1]) % p, (u[2] * v[0] - u[0] * v[2]) % p,
            (u[0] * v[1] - u[1] * v[0]) % p]


def _line_through(q, r, d, p):
    """Coefficients of a linear form vanishing at q and r (P^1: at q)."""
    if d == 1:
        return [q[1] % p, (-q[0]) % p]
    c = _cross(q, r, p)
    if not any(c):
        c = _cross(q, [1, 0, 0] if q[0] == 0 else [0, 1, 0], p)
    return c


def _form_text(coeffs):
    return " + ".join(f"{c}*x{i}" for i, c in enumerate(coeffs) if c)


def orbit_op(rng, d, shear, horizon=12):
    """orbit over a small GF(p): diagonal sigma, or a unipotent shear.

    Z is a linear subscheme through orbit points of the first point, so
    that orbit hits it."""
    p = rng.choice(GF_SMALL)
    n = d + 1
    if shear:
        sigma = [[1 if j in (i, i + 1) else 0 for j in range(n)]
                 for i in range(n)]
    else:
        sigma = _diagonal([1] + [rng.randint(2, p - 1) for _ in range(d)])
    points = [[rng.randint(1, p - 1) for _ in range(n)] for _ in range(2)]
    q = r = points[0]
    for _ in range(rng.randint(1, horizon)):
        q = _mat_vec(sigma, q, p)
    for _ in range(rng.randint(1, horizon)):
        r = _mat_vec(sigma, r, p)
    form = _line_through(q, r, d, p)
    gens = [_form_text(form)]
    extra = [f"point [{':'.join(str(c) for c in pt)}]" for pt in points]
    extra.append(f"horizon {horizon}")
    text = scene_text(p, sigma, gens, extra)
    return "orbit", text, {"check": "orbit", "p": p, "sigma": sigma,
                           "points": points, "form": form,
                           "horizon": horizon}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _round_ops(workload, rng, cusp_first):
    # the probe at the smooth point runs longer on a node than on a cusp, so
    # each round has one of each and the round index, not the seed, picks
    # which one is probed at the singular point
    if workload == "colon-highdim":
        return [colon_op(rng, 4), colon_op(rng, 4), colon_op(rng, 5),
                colon_op(rng, 5), colon_op(rng, 6)]
    if workload == "transversality":
        ops = [ct_op(rng, 3, False), ct_op(rng, 3, True)]
        ops += [ct_op(rng, 2, i % 5 == 0) for i in range(10)]
        return ops
    if workload == "exact-linalg":
        return [probe_op(rng, True, cusp_first),
                probe_op(rng, False, not cusp_first),
                idealizer_op(rng), idealizer_op(rng), idealizer_op(rng)]
    if workload == "prime-field":
        return [colon_op(rng, 4, GF_BIG), colon_op(rng, 5, GF_BIG),
                probe_op(rng, True, cusp_first, GF_BIG),
                probe_op(rng, False, not cusp_first, GF_BIG),
                idealizer_op(rng, GF_BIG),
                orbit_op(rng, 1, False), orbit_op(rng, 2, False),
                orbit_op(rng, 1, False), orbit_op(rng, 2, False)]
    raise ValueError(f"unknown workload {workload!r}")


def known_defect_ops(seed):
    """GF(p) unipotent-shear orbits: false certificates at the seed commit.

    They run untimed beside the prime-field workload and are reported on
    their own, because a timed workload must be one on which no op fails."""
    rng = random.Random(f"shear:{seed}")
    return [orbit_op(rng, 1, True), orbit_op(rng, 2, True)]


def round_count(workload, seconds):
    return max(1, round(ROUNDS[workload] * seconds / REFERENCE_SECONDS))


def generated_rounds(workload, seed, count):
    """count rounds of (op id, command, scene text, check spec)."""
    rounds = []
    for r in range(count):
        rng = random.Random(f"{workload}:{seed}:{r}")
        rounds.append([(f"r{r}.{i}", cmd, text, spec)
                       for i, (cmd, text, spec)
                       in enumerate(_round_ops(workload, rng, r % 2 == 0))])
    return rounds


def cli_rounds(seed, count):
    """count passes over every (shipped scene, command, format); the seed
    orders each pass."""
    pairs = [(s, c, f) for s in SHIPPED_SCENES for c in CLI_COMMANDS
             for f in FORMATS]
    rounds = []
    for r in range(count):
        order = list(pairs)
        random.Random(f"cli-scenes:{seed}:{r}").shuffle(order)
        rounds.append(order)
    return rounds
