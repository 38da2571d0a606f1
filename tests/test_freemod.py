"""Module Groebner bases and syzygies, checked against their definitions.

The Buchberger criterion is re-checked here with no pair pruning at all:
every S-vector of two basis elements with the same leading component must
reduce to zero, whatever criteria the engine used to skip pairs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from geomideal.fields import QQ, PrimeField
from geomideal.freemod import (
    FreeModule,
    MVec,
    minimal_generators,
    mod_normal_form,
    module_groebner,
    preimage_generators,
    submodule_hilbert_numerator,
    syzygy_generators,
)
from geomideal.polykernel import (
    Poly,
    PolyRing,
    groebner_basis,
    normal_form,
    mono_div,
    mono_divides,
    mono_lcm,
    monomials_of_degree,
    series_coefficient,
)

RINGS = (PolyRing(QQ, 3), PolyRing(PrimeField(7), 3))


@st.composite
def homogeneous_poly(draw, ring, deg):
    if deg < 0:
        return ring.zero()
    monos = monomials_of_degree(ring, deg)
    chosen = draw(st.lists(st.sampled_from(monos), max_size=3, unique=True))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(chosen),
                           max_size=len(chosen)))
    return sum((ring.monomial(m, ring.field.from_int(c)) for m, c in zip(chosen, coeffs)),
               ring.zero())


def vec(module, comps):
    """The vector with the given nonzero components."""
    return MVec(module, {i: p for i, p in comps.items() if not p.is_zero()})


@st.composite
def vectors(draw, module, max_vecs=3):
    """Nonzero homogeneous vectors of the module, each of degree 1..3."""
    out = []
    for _ in range(draw(st.integers(1, max_vecs))):
        deg = draw(st.integers(1, 3))
        comps = {i: draw(homogeneous_poly(module.ring, deg - a))
                 for i, a in enumerate(module.degrees)}
        v = vec(module, comps)
        if not v.is_zero():
            out.append(v)
    return out


def combination(module, pairs) -> MVec:
    """The sum of a*v over the (polynomial a, vector v) pairs."""
    comps = {}
    for a, v in pairs:
        for i, p in v.comps.items():
            comps[i] = comps.get(i, module.ring.zero()) + a * p
    return vec(module, comps)


def s_vector(f: MVec, g: MVec) -> MVec:
    field, ring = f.ring.field, f.ring
    _, fm, fc = f.leading()
    _, gm, gc = g.leading()
    lcm = mono_lcm(fm, gm)
    return combination(f.module, [(ring.monomial(mono_div(lcm, fm), field.inv(fc)), f),
                                  (ring.monomial(mono_div(lcm, gm), field.neg(field.inv(gc))), g)])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_module_groebner_meets_the_buchberger_criterion(data):
    ring = data.draw(st.sampled_from(RINGS))
    module = FreeModule(ring, data.draw(st.sampled_from([(0, 0), (0, 1), (1, 0, 1)])))
    vecs = data.draw(vectors(module))
    gb = module_groebner(vecs)
    for v in vecs:
        assert mod_normal_form(v, gb).is_zero()
    for i, f in enumerate(gb):
        for g in gb[i + 1:]:
            if f.leading()[0] == g.leading()[0]:
                assert mod_normal_form(s_vector(f, g), gb).is_zero()
    # reduced: monic, and no term of an element is divisible by the leading
    # term of another element in the same component
    for i, g in enumerate(gb):
        assert g.leading()[2] == ring.field.one
        for j, h in enumerate(gb):
            hc, hm, _ = h.leading()
            if i != j and hc in g.comps:
                assert not any(mono_divides(hm, m) for m in g.comps[hc].terms)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rank_one_module_groebner_is_groebner_basis(data):
    ring = data.draw(st.sampled_from(RINGS))
    polys = [data.draw(homogeneous_poly(ring, d))
             for d in data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))]
    module = FreeModule(ring, (0,))
    mgb = module_groebner([vec(module, {0: f}) for f in polys])
    assert all(set(v.comps) == {0} for v in mgb)
    assert (sorted((v.comps[0] for v in mgb), key=Poly.sort_key)
            == sorted(groebner_basis(polys), key=Poly.sort_key))


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_syzygy_generators_annihilate_their_inputs(data):
    ring = data.draw(st.sampled_from(RINGS))
    module = FreeModule(ring, data.draw(st.sampled_from([(0,), (0, 0), (0, 1)])))
    vecs = data.draw(vectors(module))
    for s in syzygy_generators(vecs):
        assert len(s.comps) >= 1
        assert combination(module, [(a, vecs[i]) for i, a in s.comps.items()]).is_zero()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_rank_one_mod_normal_form_is_normal_form(data):
    ring = data.draw(st.sampled_from(RINGS))
    module = FreeModule(ring, (0,))
    f = data.draw(homogeneous_poly(ring, data.draw(st.integers(1, 4))))
    basis = [data.draw(homogeneous_poly(ring, d))
             for d in data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))]
    got = mod_normal_form(vec(module, {0: f}), [vec(module, {0: g}) for g in basis])
    assert got.comps.get(0, ring.zero()) == normal_form(f, basis)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_preimage_generators_are_a_reduced_basis_mapping_into_the_targets(data):
    ring = data.draw(st.sampled_from(RINGS))
    module = FreeModule(ring, data.draw(st.sampled_from([(0,), (0, 0), (0, 1)])))
    vecs = data.draw(vectors(module))
    targets = data.draw(vectors(module))
    pre = preimage_generators(vecs, targets)
    assert module_groebner(pre) == pre
    target_gb = module_groebner(targets)
    for s in pre:
        image = combination(module, [(a, vecs[i]) for i, a in s.comps.items()])
        assert mod_normal_form(image, target_gb).is_zero()
    # every syzygy of vecs maps to 0, so it lies in the preimage
    for s in syzygy_generators(vecs):
        assert mod_normal_form(s, pre).is_zero()


def test_module_entry_points_reject_inhomogeneous_vectors():
    """module_groebner, preimage_generators (vectors and targets alike) and
    syzygy_generators reach the graded engine, which takes homogeneous
    elements only."""
    ring = RINGS[0]
    module = FreeModule(ring, (0, 1))
    good = vec(module, {0: ring.parse("x0^2"), 1: ring.parse("x1")})
    bad = vec(module, {0: ring.parse("x0"), 1: ring.parse("x1")})  # degrees 1 and 2
    for call in (lambda: module_groebner([good, bad]),
                 lambda: preimage_generators([good], [bad]),
                 lambda: preimage_generators([bad], [good]),
                 lambda: syzygy_generators([good, bad])):
        with pytest.raises(ValueError, match="homogeneous"):
            call()


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_submodule_hilbert_numerator_matches_the_hilbert_function(data):
    """The numerator's series coefficients are the graded dimensions, counted
    by brute-force rank of all degree-n multiples of the drawn generators."""
    ring = data.draw(st.sampled_from(RINGS))
    module = FreeModule(ring, data.draw(st.sampled_from([(0,), (0, 0), (0, 1), (1, 0, 2)])))
    vecs = data.draw(vectors(module))
    num = submodule_hilbert_numerator(module_groebner(vecs), module)
    terms = [{i: dict(p.terms) for i, p in v.comps.items()} for v in vecs]
    for n in range(8):
        want = oracles.brute_submodule_dim(terms, module.degrees, ring.nvars, n,
                                           ring.field.char)
        assert series_coefficient(num, ring.nvars, n) == want


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_minimal_generators_match_the_greedy_fresh_basis_loop(data):
    """One open Buchberger run accepts exactly the vectors that a fresh
    module Groebner basis per accepted vector accepts, with and without
    modulo: membership does not depend on the basis that decides it."""
    ring = data.draw(st.sampled_from(RINGS))
    module = FreeModule(ring, data.draw(st.sampled_from([(0,), (0, 0), (0, 1), (1, 0, 1)])))
    vecs = data.draw(vectors(module, max_vecs=5))
    # repeats and sums force some vectors to be redundant
    if vecs:
        vecs += data.draw(st.lists(st.sampled_from(vecs), max_size=2))
    if len(vecs) > 1 and vecs[0].degree == vecs[1].degree:
        vecs.append(combination(module, [(ring.one(), vecs[0]), (ring.one(), vecs[1])]))
    modulo = data.draw(st.one_of(st.just([]), vectors(module)))
    assert (minimal_generators(vecs, modulo)
            == oracles.greedy_minimal_generators(vecs, modulo))
