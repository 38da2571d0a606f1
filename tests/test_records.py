"""The package's records as their callers see them: constructors with their
defaults, attribute names, equality, hashes, reprs and immutability.

Twenty-two records are named tuples: immutable, copied with `_replace`,
equal field by field, and hashed as the tuple of their fields.
IdealizerScene and FreeResolution keep memos, so they are plain classes:
equal on their public fields, unhashable, and shown without their memos.
Evidence, ClassificationRow, GradedMap and TwistedElement check their
fields whenever one is built, by `_replace` too.
"""

import pytest

from geomideal import cli, geometry, homology, idealizer, twist
from geomideal.classify import (
    ClassificationReport,
    ClassificationRow,
    ComponentAnalysis,
    ComponentReport,
    Evidence,
    Hypotheses,
    OrderResult,
    _Ruling,
)
from geomideal.fields import QQ
from geomideal.freemod import FreeModule, MVec
from geomideal.polykernel import HomIdeal, PolyRing
from geomideal.twist import ProjAutomorphism

RQ = PolyRing(QQ, 3)
SIGMA = ProjAutomorphism.diagonal(RQ, ["1", "2", "3"])
POINT = HomIdeal.from_strings(RQ, ["x0 - x1", "x1 - x2"])
X0 = RQ.parse("x0")
F0, F1 = FreeModule(RQ, (0,)), FreeModule(RQ, (1,))

# (class, required fields, the other fields with their defaults); a record
# that checks nothing about a field is given a placeholder for it
RECORDS = [
    (cli.Diagnostic, dict(line=3, code="CODE", message="text"), {}),
    (cli.SceneFile, dict(ring="R", sigma="sigma", ideal="I"),
     dict(components=(), points=(), against=None, quotient=None, horizon=12, maxdeg=6,
          oracle=None, order_bound=12, gorenstein_z=False)),
    (OrderResult, dict(order=2, certified_infinite=False, justification="scan"), {}),
    (ComponentReport, dict(component="C", prime="P", codimension=2, radical_order="o",
                           scheme_order="o"), {}),
    (ComponentAnalysis, dict(components=(), W_ideal=None, J_ideal="J", J_fixed="o",
                             order_bound=12, source="monomial"), {}),
    (Evidence, dict(kind="certified", citation="tag"), dict(horizon=None, witness=None)),
    (ClassificationRow, dict(predicate="right-noetherian", verdict="yes", detail="d",
                             evidence=Evidence("certified", "tag")), {}),
    (ClassificationReport, dict(rows=()), dict(flags=(), notes=())),
    (Hypotheses, dict(horizon=12),
     dict(stabilization=None, degree=None, ct=None, orbits=None, cycle=None, components=None,
          codim=None, chi_basis=None, probe=None, horizons=(), flags=(), notes=())),
    (_Ruling, dict(verdict="yes", detail="d"), dict(reads=None, witness=None, unproven=None)),
    (geometry.RationalPoint, dict(field="QQ", coords=(1, 2, 3)), {}),
    (geometry.OrbitReport, dict(point="p", horizon=12, hits=(1, 3), verdict="infinite"),
     dict(n0=None, period=None, justification=None, notes=(), first_hit=None)),
    (geometry.MultIndependence, dict(rank=1, independent=False, witness=(2, -1)), {}),
    (geometry.CTCertificate, dict(status="certified", checked=17),
     dict(witness_family=None, witness_ideal=None, witness_j=None, reason=None, notes=())),
    (homology.GradedMap, dict(source="F1", target="F0", columns=()), {}),
    (homology.FreeResolution, dict(ideal="I", modules=("F0",), maps=()), {}),
    (homology.TorModule, dict(j=1, nvars=3, numerator={0: 1}), {}),
    (homology.QuotientTorReport, dict(window=12, table={1: [0, 1]}, verdicts={1: True}), {}),
    (idealizer.IdealizerScene, dict(ring=RQ, sigma=SIGMA, ideal=POINT),
     dict(declared_components=(), gorenstein_z=False)),
    (idealizer.StabilizationReport, dict(bound=2, table=("equal", "equal"), n0=1, degenerate=False), {}),
    (idealizer.HilbertRow, dict(n=1, dim_B=3, dim_I=2, dim_R=2, colon_stabilized=True), {}),
    (twist.DegreePiece, dict(n=1, basis=(X0,)), {}),
    (twist.TwistedElement, dict(degree=1, poly=X0), {}),
]

MEMOS = (homology.FreeResolution, idealizer.IdealizerScene)
UNHASHABLE = MEMOS + (homology.TorModule, homology.QuotientTorReport)  # hold dicts
OWN_REPR = {twist.TwistedElement: "TwistedElement(deg=1, x0)"}
# fields that make each checking record invalid, and the error they raise;
# the first two are cases of test_classify's evidence tests
INVALID = {
    Evidence: (dict(kind="guessed"), "unknown evidence kind: 'guessed'"),
    ClassificationRow: (dict(verdict="maybe"), "unknown verdict: 'maybe'"),
    homology.GradedMap: (dict(source=F1, target=F0, columns=(MVec(F0, {0: RQ.parse("x0^2")}),)),
                         "column 0 has degree 2, expected 1"),
    twist.TwistedElement: (dict(poly=RQ.parse("x0^2")), "polynomial degree 2 != declared degree 1"),
}


@pytest.mark.parametrize("cls, required, defaults", RECORDS,
                         ids=[cls.__name__ for cls, _, _ in RECORDS])
def test_record_keeps_its_constructor_equality_hash_repr_and_checks(cls, required, defaults):
    fields = {**required, **defaults}
    record = cls(**required)
    assert {name: getattr(record, name) for name in fields} == fields
    assert cls(*required.values()) == record
    assert not cls(*fields.values()) != record
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(tuple(fields.values()))
    assert repr(record) == OWN_REPR.get(
        cls, f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})")
    if cls not in MEMOS:
        assert cls._fields == tuple(fields)
        name = next(iter(required))
        with pytest.raises(AttributeError):
            setattr(record, name, required[name])
        with pytest.raises(AttributeError):
            record.extra = None
        assert record._replace(**{name: required[name]}) == record
    if cls in INVALID:
        invalid, message = INVALID[cls]
        with pytest.raises(ValueError, match=message):
            cls(**{**required, **invalid})
        with pytest.raises(ValueError, match=message):
            record._replace(**invalid)
