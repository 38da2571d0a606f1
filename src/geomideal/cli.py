"""Scene files, subcommands, and report rendering.

The command-line front end reads a line-oriented scene file describing
(field, dimension, sigma, Z) plus optional blocks, dispatches one of ten
subcommands, and renders the result either as an aligned text table or as a
stream of JSON records (one object per line, keys sorted) that round-trips
losslessly through ``parse_records``.  ``main`` reads argv by hand, with
no argparse (importing and building that parser took longer than many
commands), with argparse's rules for flags, prefixes, values and errors.

Exit codes: 0 success, 2 parse/usage error, 3 verification failure,
4 resource cap exceeded (the classes in errors.py).  Any other exception is
an internal error and propagates, so no bug is reported as a verdict.
"""

from __future__ import annotations

import json
import re
import sys
from typing import NamedTuple

from .classify import (
    ClassificationReport,
    ClassificationRow,
    Evidence,
    classify,
)
from .errors import (
    ImproperIntersectionError,
    ResourceCapError,
    SceneVerificationError,
    UsageError,
)
from .geometry import (
    PERIOD_CAP,
    PointSyntaxError,
    RationalPoint,
    critical_transversality_certificate,
    forward_orbit_hits,
)
from .homology import (
    free_resolution,
    homologically_transverse,
    serre_multiplicity_total,
    tor_from_resolution,
)
from .idealizer import (
    IdealizerScene,
    idealizer_hilbert,
    oracle_agrees,
    stabilization_degree,
)
from .polykernel import (
    HomIdeal,
    PolyRing,
    dim_ideal_piece,
)
from .twist import ProjAutomorphism, TwistedElement, twist_multiply
from .fields import PrimeField, RationalField

# hard ceilings: beyond these the exact-arithmetic kernels stop being a desk
# computation, so the run is refused rather than left to crawl; order-bound's
# is geometry.PERIOD_CAP, the depth of the other sigma scans
MAX_DEGREE_CAP = 32
HORIZON_CAP = 200


# ---------------------------------------------------------------------------
# scene grammar
# ---------------------------------------------------------------------------

class Diagnostic(NamedTuple):
    line: int
    code: str
    message: str

    def __str__(self):
        return f"line {self.line}: {self.code}: {self.message}"


class SceneError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = tuple(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class SceneFile(NamedTuple):
    """Parsed and validated scene: the defining data plus run parameters."""

    ring: PolyRing
    sigma: ProjAutomorphism
    ideal: HomIdeal
    components: tuple = ()
    points: tuple = ()
    against: HomIdeal | None = None
    quotient: HomIdeal | None = None
    horizon: int = 12
    maxdeg: int = 6
    oracle: int | None = None
    order_bound: int = 12
    gorenstein_z: bool = False

    def scene(self) -> IdealizerScene:
        return IdealizerScene(
            self.ring, self.sigma, self.ideal,
            declared_components=self.components,
            gorenstein_z=self.gorenstein_z,
        )


_DIRECTIVES = frozenset({
    "field", "dim", "sigma", "ideal", "component", "against", "quotient",
    "point", "horizon", "maxdeg", "oracle", "order-bound", "declare", "end",
    "prime",
})

_COUNTS = {"horizon": "horizon", "maxdeg": "maxdeg", "oracle": "oracle",
           "order-bound": "order_bound"}


class _Parser:
    def __init__(self, text: str):
        raw_lines = text.splitlines()
        self.lines = []
        for no, raw in enumerate(raw_lines, start=1):
            content = raw.split("#", 1)[0].strip()
            if content:
                self.lines.append((no, content))
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.last_line = len(raw_lines) or 1

    def bad(self, line, code, message):
        self.diags.append(Diagnostic(line, code, message))

    def peek(self):
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def take(self):
        item = self.lines[self.pos]
        self.pos += 1
        return item

    def skip_rows(self):
        """Drop the lines up to the next directive: rows of a sigma not read."""
        while (item := self.peek()) and item[1].split()[0] not in _DIRECTIVES:
            self.pos += 1


def _parse_block(ps: _Parser, opener_line: int, *, allow_prime: bool):
    """Collect polynomial text lines up to ``end``; raw strings only here."""
    gens: list[tuple[int, str]] = []
    prime: list[tuple[int, str]] | None = None
    target = gens
    while True:
        item = ps.peek()
        if item is None:
            ps.bad(opener_line, "MISSING_END", "block is not closed by 'end'")
            return gens, prime
        no, content = ps.take()
        if content == "end":
            return gens, prime
        if content == "prime" and allow_prime:
            prime = []
            target = prime
            continue
        head = content.split(None, 1)[0]
        if head in _DIRECTIVES:
            ps.bad(no, "MISSING_END",
                   f"block interrupted by directive {head!r} before 'end'")
            ps.pos -= 1
            return gens, prime
        target.append((no, content))


def _parse_polys(ps: _Parser, ring, raw: list[tuple[int, str]]):
    polys = []
    for no, text in raw:
        try:
            f = ring.parse(text)
        except ValueError as exc:
            ps.bad(no, "BAD_GENERATOR", f"{text!r}: {exc}")
            continue
        if f.is_zero():
            ps.bad(no, "BAD_GENERATOR", "zero generator")
            continue
        if not f.is_homogeneous():
            ps.bad(no, "INHOMOGENEOUS_GENERATOR", f"{text!r} mixes degrees")
            continue
        polys.append(f)
    return polys


def parse_scene(text: str) -> SceneFile:
    """Parse the line-oriented grammar; raise SceneError carrying every
    diagnostic found (line number + code + message), not just the first."""
    ps = _Parser(text)
    field = None
    d = None
    sigma_rows = None
    sigma_line = None
    blocks = {}  # ideal, against, quotient -> its raw lines
    component_blocks: list[tuple[list, list | None]] = []
    point_specs: list[tuple[int, str]] = []
    counts: dict[str, int] = {}
    gorenstein_z = False
    seen = set()  # the heads read so far

    while ps.peek() is not None:
        no, content = ps.take()
        parts = content.split()
        head = parts[0]
        if head not in _DIRECTIVES or head in ("end", "prime"):
            ps.bad(no, "UNKNOWN_DIRECTIVE", f"unrecognized line {content!r}")
            continue
        if head in ("ideal", "against", "quotient"):
            block, _ = _parse_block(ps, no, allow_prime=False)
            if not block:
                ps.bad(no, "EMPTY_BLOCK", f"{head} block has no generators")
                continue
        if head in seen and head not in ("component", "point", "declare"):
            ps.bad(no, "DUPLICATE_DIRECTIVE", f"{head} given twice")
            if head == "sigma":  # a block is read already
                ps.skip_rows()
            continue
        seen.add(head)
        if head == "field":
            if parts[1:] == ["rational"]:
                field = RationalField()
            elif len(parts) == 3 and parts[1] == "prime":
                try:
                    field = PrimeField(int(parts[2]))
                except ValueError as exc:
                    ps.bad(no, "BAD_FIELD", str(exc))
            else:
                ps.bad(no, "BAD_FIELD",
                       "expected 'field rational' or 'field prime <p>'")
        elif head == "dim":
            try:
                d = int(parts[1])
            except (IndexError, ValueError):
                ps.bad(no, "BAD_DIM", "expected 'dim <d>'")
                continue
            if not 1 <= d <= 9:
                ps.bad(no, "BAD_DIM", f"dimension {d} outside 1..9")
                d = None
        elif head == "sigma":
            sigma_line = no
            if d is None or field is None:
                ps.bad(no, "MISSING_CONTEXT",
                       "sigma needs 'field' and 'dim' declared first")
                ps.skip_rows()
                continue
            sigma_rows = []
            taken = 0
            while taken < d + 1:
                item = ps.peek()
                if item is None or item[1].split(None, 1)[0] in _DIRECTIVES:
                    ps.bad(no, "NON_SQUARE_SIGMA",
                           f"expected {d + 1} sigma rows, got {taken}")
                    break
                row_no, row_text = ps.take()
                taken += 1
                entries = row_text.split()
                if len(entries) != d + 1:
                    ps.bad(row_no, "NON_SQUARE_SIGMA",
                           f"row has {len(entries)} entries, expected {d + 1}")
                    continue
                row = []
                for e in entries:
                    try:
                        row.append(field.from_int(int(e)) if e.isdecimal() else field.from_str(e))
                    except (ValueError, ZeroDivisionError):
                        ps.bad(row_no, "BAD_RATIONAL", f"bad entry {e!r}")
                        break
                else:
                    sigma_rows.append(row)
        elif head in ("ideal", "against", "quotient"):
            blocks[head] = block
        elif head == "component":
            gens, prime = _parse_block(ps, no, allow_prime=True)
            if not gens:
                ps.bad(no, "EMPTY_BLOCK", "component block has no generators")
            else:
                component_blocks.append((gens, prime))
        elif head == "point":
            point_specs.append((no, content[len("point"):].strip()))
        elif head in _COUNTS:
            try:
                val = int(parts[1])
            except (IndexError, ValueError):
                ps.bad(no, "BAD_COUNT", f"expected '{head} <N>'")
                continue
            if val < 1:
                ps.bad(no, "BAD_COUNT", f"{head} must be positive")
            else:
                counts[_COUNTS[head]] = val
        elif head == "declare":
            if parts[1:] == ["gorenstein-z"]:
                gorenstein_z = True
            else:
                ps.bad(no, "BAD_DECLARE", "expected 'declare gorenstein-z'")

    for want, name in ((field, "field"), (d, "dim"),
                       (sigma_line, "sigma"), (blocks.get("ideal"), "ideal")):
        if want is None:
            ps.bad(ps.last_line, f"MISSING_{name.upper()}",
                   f"scene has no {name} declaration")
    if ps.diags:
        raise SceneError(ps.diags)

    ring = PolyRing(field, d + 1)
    sigma = None
    try:
        sigma = ProjAutomorphism(ring, sigma_rows)
    except ValueError as exc:
        ps.bad(sigma_line, "SINGULAR_SIGMA", str(exc))

    def build(block):
        polys = _parse_polys(ps, ring, block)
        if polys and len(polys) == len(block):
            return HomIdeal(ring, tuple(polys))
        return None

    ideal, against, quotient = (build(blocks[head]) if head in blocks else None
                                for head in ("ideal", "against", "quotient"))
    components = []
    for gens, prime in component_blocks:
        comp = build(gens)
        prime_ideal = build(prime) if prime else None
        if comp is not None:
            components.append((comp, prime_ideal))

    points = []
    for no, spec in point_specs:
        try:
            points.append(RationalPoint.parse(field, spec, d + 1))
        except PointSyntaxError as exc:
            ps.bad(no, exc.code, str(exc))

    if ps.diags:
        raise SceneError(ps.diags)
    return SceneFile(
        ring=ring, sigma=sigma, ideal=ideal,
        components=tuple(components), points=tuple(points),
        against=against, quotient=quotient,
        gorenstein_z=gorenstein_z,
        **counts,
    )


def _check_caps(sf: SceneFile):
    if sf.maxdeg > MAX_DEGREE_CAP:
        raise ResourceCapError(
            f"maxdeg {sf.maxdeg} exceeds the cap {MAX_DEGREE_CAP}")
    if sf.horizon > HORIZON_CAP:
        raise ResourceCapError(
            f"horizon {sf.horizon} exceeds the cap {HORIZON_CAP}")
    if sf.order_bound > PERIOD_CAP:
        raise ResourceCapError(
            f"order-bound {sf.order_bound} exceeds the cap {PERIOD_CAP}")


# ---------------------------------------------------------------------------
# records: one JSON object per line, keys sorted, round-trippable
# ---------------------------------------------------------------------------

def _record(kind: str, **fields) -> dict:
    return {"record": kind, **fields}


def emit_records(records) -> str:
    return "".join(
        json.dumps(r, sort_keys=True, separators=(", ", ": ")) + "\n"
        for r in records
    )


def parse_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def report_to_records(report: ClassificationReport) -> list[dict]:
    recs = [_record("classification", flags=list(report.flags),
                    notes=list(report.notes))]
    for row in report.rows:
        ev = row.evidence
        recs.append(_record(
            "row", predicate=row.predicate, verdict=row.verdict,
            detail=row.detail, evidence=ev.kind, citation=ev.citation,
            horizon=ev.horizon, witness=ev.witness,
        ))
    return recs


def records_to_report(records) -> ClassificationReport:
    if not records or records[0].get("record") != "classification":
        raise ValueError("record stream does not start with a classification header")
    head = records[0]
    rows = tuple(
        ClassificationRow(
            r["predicate"], r["verdict"], r["detail"],
            Evidence(r["evidence"], r["citation"],
                     horizon=r["horizon"], witness=r["witness"]),
        )
        for r in records[1:]
        if r.get("record") == "row"
    )
    return ClassificationReport(rows, tuple(head["flags"]), tuple(head["notes"]))


# ---------------------------------------------------------------------------
# subcommand handlers: SceneFile -> list of records
# ---------------------------------------------------------------------------

def run_gb(sf: SceneFile) -> list[dict]:
    basis = sf.ideal.groebner()
    recs = [_record("groebner", generators=len(basis), order="degrevlex")]
    for i, g in enumerate(basis):
        recs.append(_record(
            "generator", index=i, degree=g.degree,
            poly=sf.ring.format_poly(g),
            lead=sf.ring.format_poly(sf.ring.monomial(g.lm())),
        ))
    return recs


def run_colon(sf: SceneFile) -> list[dict]:
    scene = sf.scene()
    rep = stabilization_degree(scene, sf.horizon)
    recs = [_record("stabilization", bound=rep.bound, n0=rep.n0,
                    stabilized=rep.stabilized, degenerate=rep.degenerate)]
    for n, status in enumerate(rep.table, start=1):
        Q = scene.colon_ideal(n)
        recs.append(_record("colon", n=n, status=status,
                            dim_R=dim_ideal_piece(Q, n)))
    return recs


def _require_against(sf: SceneFile, command: str) -> HomIdeal:
    if sf.against is None:
        raise UsageError(
            f"'{command}' compares Z with a second subscheme: add an "
            "'against' block to the scene")
    return sf.against


def run_tor(sf: SceneFile) -> list[dict]:
    J = _require_against(sf, "tor")
    j_max = sf.ring.nvars
    recs = [_record("tor-table", j_max=j_max, degrees=sf.maxdeg)]
    res = free_resolution(sf.ideal)
    for j in range(j_max + 1):
        T = tor_from_resolution(res, J, j)
        dims = T.dims(0, sf.maxdeg)
        for n, dim in enumerate(dims):
            recs.append(_record("tor", j=j, degree=n, dimension=dim))
        recs.append(_record("tor-verdict", j=j, nonzero=any(dims),
                            sheaf_trivial=T.is_sheaf_trivial()))
    return recs


def run_transverse(sf: SceneFile) -> list[dict]:
    J = _require_against(sf, "transverse")
    ok, witness_j = homologically_transverse(sf.ideal, J)
    return [_record("transverse", transverse=ok, witness_j=witness_j)]


def run_bezout(sf: SceneFile) -> list[dict]:
    J = _require_against(sf, "bezout")
    total = serre_multiplicity_total(sf.ideal, J)
    return [_record("bezout", total=str(total))]


def run_twist_check(sf: SceneFile) -> list[dict]:
    ring, sigma = sf.ring, sf.sigma
    field = ring.field
    recs = [_record("twist-check", diagonal=sigma.is_diagonal())]
    if sigma.is_diagonal():
        # x_i * x_j = (lambda_j / lambda_i) x_j * x_i in the twisted product
        for i in range(ring.nvars):
            for j in range(i + 1, ring.nvars):
                a = twist_multiply(TwistedElement(1, ring.variable(i)),
                                   TwistedElement(1, ring.variable(j)), sigma)
                b = twist_multiply(TwistedElement(1, ring.variable(j)),
                                   TwistedElement(1, ring.variable(i)), sigma)
                scalar = field.mul(a.poly.lc(), field.inv(b.poly.lc()))
                recs.append(_record("commutation", i=i, j=j,
                                    scalar=field.to_str(scalar)))
    checked = 0
    ok = True
    gens = [TwistedElement(1, ring.variable(i)) for i in range(ring.nvars)]
    for a in gens:
        for b in gens:
            for c in gens:
                left = twist_multiply(twist_multiply(a, b, sigma), c, sigma)
                right = twist_multiply(a, twist_multiply(b, c, sigma), sigma)
                checked += 1
                if left.poly != right.poly:
                    ok = False
    recs.append(_record("associativity", triples=checked, ok=ok))
    return recs


def run_idealizer(sf: SceneFile) -> list[dict]:
    scene = sf.scene()
    rows = idealizer_hilbert(scene, sf.maxdeg)
    recs = [_record("idealizer-table", maxdeg=sf.maxdeg, oracle=sf.oracle)]
    for row in rows:
        rec = _record("idealizer-row", n=row.n, dim_B=row.dim_B,
                      dim_I=row.dim_I, dim_R=row.dim_R,
                      stabilized=row.colon_stabilized)
        if sf.oracle is not None and row.n >= 1:
            agree = oracle_agrees(scene, row.n, sf.oracle)
            rec["oracle"] = "agree" if agree else "disagree"
        recs.append(rec)
    return recs


def run_orbit(sf: SceneFile) -> list[dict]:
    if not sf.points:
        raise UsageError("'orbit' needs at least one 'point' line in the scene")
    scene = sf.scene()
    recs = [_record("orbit-table", horizon=sf.horizon, points=len(sf.points))]
    for p in sf.points:
        rep = forward_orbit_hits(p, sf.sigma, scene.ideal, sf.horizon)
        rec = _record(
            "orbit", point=str(p), verdict=rep.verdict, hits=list(rep.hits),
            n0=rep.n0, period=rep.period, justification=rep.justification,
        )
        if rep.first_hit is not None:
            rec["first_hit"] = rep.first_hit
        recs.append(rec)
    return recs


def run_ct_cert(sf: SceneFile) -> list[dict]:
    rep = critical_transversality_certificate(sf.scene())
    return [_record(
        "ct-certificate", status=rep.status, checked=rep.checked,
        witness=None if rep.witness_ideal is None else rep.witness_ideal.gens_text(),
        witness_j=rep.witness_j, reason=rep.reason, notes=list(rep.notes),
    )]


def run_classify(sf: SceneFile) -> list[dict]:
    report = classify(
        sf.scene(), sample_points=sf.points, horizon=sf.horizon,
        order_bound=sf.order_bound, ambient_quotient=sf.quotient,
    )
    return report_to_records(report)


DISPATCH = {
    "gb": run_gb,
    "colon": run_colon,
    "tor": run_tor,
    "transverse": run_transverse,
    "bezout": run_bezout,
    "twist-check": run_twist_check,
    "idealizer": run_idealizer,
    "orbit": run_orbit,
    "ct-cert": run_ct_cert,
    "classify": run_classify,
}
COMMANDS = tuple(DISPATCH)

# the scene counts a command-line flag may override: flag -> SceneFile field
_OVERRIDES = {"--max-degree": "maxdeg", "--oracle-horizon": "oracle",
              "--horizon": "horizon"}


# ---------------------------------------------------------------------------
# text rendering (a pure function of the record stream)
# ---------------------------------------------------------------------------

def _aligned(rows: list[tuple]) -> list[str]:
    cells = [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(cells[0]))]
    return ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
            for row in cells]


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def render_text(records: list[dict]) -> str:
    head = records[0]
    kind = head["record"]
    body = records[1:]
    lines: list[str] = []
    if kind == "groebner":
        lines.append(f"# groebner basis ({head['generators']} generators, "
                     f"{head['order']} order)")
        if body:
            lines += _aligned([(f"[{r['index']}]", f"deg {r['degree']}",
                                r["poly"]) for r in body])
    elif kind == "stabilization":
        lines.append(f"# colon stabilization (degrees 1..{head['bound']})")
        if body:
            lines += _aligned([("n", "status", "dim_R")] +
                              [(r["n"], r["status"], r["dim_R"]) for r in body])
        n0 = head["n0"]
        lines.append(f"stabilized: {_yesno(head['stabilized'])}"
                     + (f" (n0 = {n0})" if n0 is not None else ""))
        lines.append(f"degenerate: {_yesno(head['degenerate'])}")
    elif kind == "tor-table":
        lines.append(f"# tor table (j = 0..{head['j_max']}, "
                     f"degrees 0..{head['degrees']})")
        by_j: dict[int, list[int]] = {}
        verdicts = {}
        for r in body:
            if r["record"] == "tor":
                by_j.setdefault(r["j"], []).append(r["dimension"])
            else:
                verdicts[r["j"]] = r
        rows = [("j", "dimensions", "nonzero", "sheaf-trivial")]
        for j in sorted(by_j):
            v = verdicts[j]
            rows.append((j, " ".join(str(x) for x in by_j[j]),
                         _yesno(v["nonzero"]), _yesno(v["sheaf_trivial"])))
        if len(rows) > 1:
            lines += _aligned(rows)
    elif kind == "transverse":
        if head["transverse"]:
            lines.append("# homologically transverse: yes")
        else:
            lines.append("# homologically transverse: no "
                         f"(Tor_{head['witness_j']} has nonzero sheaf)")
    elif kind == "bezout":
        lines.append(f"# serre intersection multiplicity: {head['total']}")
    elif kind == "twist-check":
        lines.append("# twist check")
        comm = [r for r in body if r["record"] == "commutation"]
        if comm:
            lines += _aligned([("pair", "relation")] + [
                (f"x{r['i']},x{r['j']}",
                 f"x{r['i']}*x{r['j']} = {r['scalar']} * x{r['j']}*x{r['i']}")
                for r in comm])
        assoc = next(r for r in body if r["record"] == "associativity")
        lines.append(f"associative on {assoc['triples']} degree-1 triples: "
                     f"{_yesno(assoc['ok'])}")
    elif kind == "idealizer-table":
        lines.append(f"# idealizer dimensions (degrees 0..{head['maxdeg']})")
        with_oracle = head["oracle"] is not None
        header = ("n", "dim_B", "dim_I", "dim_R", "stabilized")
        if with_oracle:
            header += ("oracle",)
        rows = [header]
        for r in body:
            row = (r["n"], r["dim_B"], r["dim_I"], r["dim_R"],
                   _yesno(r["stabilized"]))
            if with_oracle:
                row += (r.get("oracle") or "-",)
            rows.append(row)
        lines += _aligned(rows)
    elif kind == "orbit-table":
        lines.append(f"# forward orbits (horizon {head['horizon']})")
        for r in body:
            hits = ", ".join(str(h) for h in r["hits"]) or "none"
            extra = []
            if r["n0"] is not None:
                extra.append(f"n0={r['n0']}")
            if r["period"] is not None:
                extra.append(f"period={r['period']}")
            if r["justification"]:
                extra.append(r["justification"])
            if "first_hit" in r:
                extra.append(f"first hit {r['first_hit']}")
            tail = f" ({'; '.join(extra)})" if extra else ""
            lines.append(f"{r['point']}: {r['verdict']}{tail}; hits: {hits}")
    elif kind == "ct-certificate":
        lines.append(f"# critical transversality: {head['status']} "
                     f"({head['checked']} invariant subschemes checked)")
        if head["witness"] is not None:
            lines.append(f"witness: V({head['witness']}) at j = {head['witness_j']}")
        if head["reason"]:
            lines.append(f"reason: {head['reason']}")
        for note in head["notes"]:
            lines.append(f"note: {note}")
    elif kind == "classification":
        lines.append("# classification")
        for flag in head["flags"]:
            lines.append(f"flag: {flag}")
        for r in body:
            ev = r["evidence"]
            if ev == "heuristic":
                ev = f"heuristic(horizon={r['horizon']})"
            lines.append(f"{r['predicate']}: {r['verdict']}  [{ev}]  "
                         f"({r['citation']})")
            lines.append(f"    {r['detail']}")
            if r["witness"] is not None:
                lines.append(f"    witness: {r['witness']}")
        for note in head["notes"]:
            lines.append(f"note: {note}")
    else:  # pragma: no cover - every handler emits a known header
        raise ValueError(f"unknown record kind {kind!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_USAGE = """\
usage: geomideal [-h] <command> <scene> [--format text|records]
                 [--max-degree N] [--oracle-horizon M] [--horizon N]
"""

_HELP = f"""{_USAGE}
geometric idealizer scenes: Groebner data, twisted products, transversality,
orbits, and the classification table

positional arguments:
  <command>             one of {', '.join(COMMANDS[:5])},
                        {', '.join(COMMANDS[5:])}
  <scene>               path to a scene file, or - for stdin

options:
  -h, --help            show this help message and exit
  --format text|records
                        output format (default: text)
  --max-degree N        override the scene's maxdeg
  --oracle-horizon M    override the scene's oracle horizon
  --horizon N           override the scene's horizon
"""

# every option string, in the order argparse listed an ambiguous prefix's matches
_FLAGS = ("-h", "--help", "--format", *_OVERRIDES)
# argparse read a token that matches this, and names no flag, as a positional
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


def _usage_error(message):
    sys.stderr.write(f"{_USAGE}geomideal: error: {message}\n")
    raise SystemExit(2)


def _option(token):
    """Read one token ahead of any ``--`` as argparse did: None for a
    positional, else (flag, its inline value or None), flag None for an
    option no flag has.  A prefix of two flags is a usage error."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if token in _FLAGS:
        return token, None
    if eq and name in _FLAGS:
        return name, value
    if token[1] == "-":
        matches = [flag for flag in _FLAGS if flag.startswith(name)]
        if len(matches) > 1:
            _usage_error(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value if eq else None
    elif token[1] == "h":  # -hV is -h with the inline value V
        return "-h", token[2:]
    if re.match(_NEGATIVE_NUMBER, token) or " " in token:
        return None
    return None, None


def _read_argv(argv):
    """(command, scene, format, overrides) from argv, as the argparse parser
    this replaces read it; overrides maps each count flag given to its int.

    Ambiguous prefixes are found first, in every token ahead of ``--``.
    Then tokens are read left to right and an error is raised where its
    token is read, so ``-h`` ahead of a bad token prints the help (exit 0)
    and behind it does not; a missing positional and left-over tokens are
    reported last.  A usage error prints the usage and raises SystemExit(2)."""
    argv = list(argv)
    end = argv.index("--") if "--" in argv else len(argv)
    options = [_option(token) for token in argv[:end]]
    positionals, extras, fmt, overrides = [], [], "text", {}
    scene_at = None
    i = 0
    while i < len(argv):
        at, token = i, argv[i]
        option = options[at] if at < end else None
        i += 1
        if at == end:
            # argparse folded the first "--" into a positional next to it;
            # one read after both (not right after the scene) is left over
            if len(positionals) == 2 and scene_at != at - 1:
                extras.append(token)
        elif option is None:
            if len(positionals) == 2:
                extras.append(token)
            elif positionals or token in COMMANDS:
                positionals.append(token)
                scene_at = at
            else:
                _usage_error(f"argument command: invalid choice: {token!r} "
                             f"(choose from {', '.join(map(repr, COMMANDS))})")
        elif option[0] is None:
            extras.append(token)
        elif option[0] in ("-h", "--help"):
            value = option[1]
            if option[0] == "-h" and value:  # -hh reads as -h -h
                value = value.lstrip("h") or None
            if value is not None:
                _usage_error(f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        else:
            flag, value = option
            if value is None:
                if i == end or options[i] is not None:
                    _usage_error(f"argument {flag}: expected one argument")
                value = argv[i]
                i += 1
            if flag != "--format":
                try:
                    overrides[flag] = int(value)
                except ValueError:
                    _usage_error(f"argument {flag}: invalid int value: {value!r}")
            elif value in ("text", "records"):
                fmt = value
            else:
                _usage_error(f"argument --format: invalid choice: {value!r} "
                             "(choose from 'text', 'records')")
    if len(positionals) < 2:
        _usage_error("the following arguments are required: "
                     + ", ".join(("command", "scene")[len(positionals):]))
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return positionals[0], positionals[1], fmt, overrides


def main(argv=None) -> int:
    command, scene, fmt, values = _read_argv(sys.argv[1:] if argv is None else argv)
    overrides = {}
    for flag, name in _OVERRIDES.items():
        val = values.get(flag)
        if val is not None and val < 1:
            print(f"geomideal: {flag} must be positive", file=sys.stderr)
            return 2
        if val is not None:
            overrides[name] = val

    try:
        if scene == "-":
            text = sys.stdin.read()
        else:
            with open(scene, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"geomideal: cannot read scene: {exc}", file=sys.stderr)
        return 2
    try:
        sf = parse_scene(text)
    except SceneError as err:
        for diag in err.diagnostics:
            print(f"{scene}:{diag}", file=sys.stderr)
        return 2

    sf = sf._replace(**overrides)

    try:
        _check_caps(sf)
        records = DISPATCH[command](sf)
    except ResourceCapError as exc:
        print(f"geomideal: resource cap: {exc}", file=sys.stderr)
        return 4
    except UsageError as exc:
        print(f"geomideal: {exc}", file=sys.stderr)
        return 2
    except (SceneVerificationError, ImproperIntersectionError) as exc:
        print(f"geomideal: verification failure: {exc}", file=sys.stderr)
        return 3

    out = emit_records(records) if fmt == "records" else render_text(records)
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
