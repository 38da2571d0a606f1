"""Independent brute-force reference implementations used by the test suite.

Everything here deliberately avoids the library's algorithms: division and
Buchberger are reimplemented naively (all S-pairs, no elimination criteria),
membership / Hilbert counts go through bare linear algebra on degree pieces.
Derived constants frozen into tests were produced by these.
"""

from fractions import Fraction
from math import comb


# -- tiny standalone linear algebra (Fraction or GF(p) ints) ----------------

def _inv(field, a):
    if field == 0:
        return 1 / a if isinstance(a, Fraction) else Fraction(1, 1) / a
    return pow(a, field - 2, field)


def rref_rank(rows, char=0):
    """Row-reduce in place over Q (char 0) or GF(char); return (rows, rank)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = _inv(char, rows[rank][col])
        if char:
            rows[rank] = [(v * inv) % char for v in rows[rank]]
        else:
            rows[rank] = [v * inv for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                if char:
                    rows[r] = [(a - factor * b) % char for a, b in zip(rows[r], rows[rank])]
                else:
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rows, rank


def in_span(rows, vec, char=0):
    _, r0 = rref_rank(rows, char)
    _, r1 = rref_rank(list(rows) + [vec], char)
    return r0 == r1


# -- monomial bookkeeping ----------------------------------------------------

def monomials(nvars, deg):
    if deg < 0:
        return []
    if nvars == 1:
        return [(deg,)]
    out = []
    for e in range(deg + 1):
        out.extend((e,) + rest for rest in monomials(nvars - 1, deg - e))
    return sorted(out)


def poly_to_vec(terms, nvars, deg):
    basis = monomials(nvars, deg)
    idx = {m: i for i, m in enumerate(basis)}
    vec = [0] * len(basis)
    for m, c in terms.items():
        vec[idx[m]] = c
    return vec


def degree_piece_rows(gens_terms, nvars, deg, char=0):
    """Spanning rows for the degree-deg piece of the ideal (gens as term dicts)."""
    rows = []
    for terms in gens_terms:
        gdeg = max(sum(m) for m in terms)
        if gdeg > deg:
            continue
        for mu in monomials(nvars, deg - gdeg):
            prod = {}
            for m, c in terms.items():
                mm = tuple(a + b for a, b in zip(m, mu))
                prod[mm] = prod.get(mm, 0) + c
            if char:
                prod = {m: c % char for m, c in prod.items()}
            rows.append(poly_to_vec(prod, nvars, deg))
    return rows


def brute_membership(gens_terms, f_terms, nvars, char=0):
    """Degree-piece membership for a homogeneous f (dict of terms)."""
    deg = max(sum(m) for m in f_terms)
    rows = degree_piece_rows(gens_terms, nvars, deg, char)
    return in_span(rows, poly_to_vec(f_terms, nvars, deg), char)


def brute_hilbert_function(gens_terms, nvars, deg, char=0):
    """dim (S/I)_deg by counting: total monomials minus rank of the piece."""
    total = comb(deg + nvars - 1, nvars - 1) if deg >= 0 else 0
    rows = degree_piece_rows(gens_terms, nvars, deg, char)
    _, rank = rref_rank(rows, char)
    return total - rank


def brute_submodule_dim(vecs, degrees, nvars, deg, char=0):
    """dim of the degree-deg piece of the submodule of the graded free module
    with generator degrees `degrees` generated by homogeneous vecs (each a
    dict component -> term dict): rank of all degree-deg monomial multiples,
    written on the basis of pairs (component, monomial)."""
    cols = {(i, m): k for k, (i, m) in enumerate(
        (i, m) for i, a in enumerate(degrees) for m in monomials(nvars, deg - a))}
    rows = []
    for v in vecs:
        i, terms = next(iter(v.items()))
        vdeg = sum(next(iter(terms))) + degrees[i]
        for mu in monomials(nvars, deg - vdeg):
            row = [0] * len(cols)
            for i, terms in v.items():
                for m, c in terms.items():
                    row[cols[i, tuple(a + b for a, b in zip(m, mu))]] = c
            rows.append(row)
    return rref_rank(rows, char)[1]


def brute_colon_piece_dim(i_gens, g_terms, nvars, deg, char=0):
    """dim {h in S_deg : h * g in I} by solving the linear condition directly."""
    gdeg = max(sum(m) for m in g_terms)
    hi = monomials(nvars, deg)
    target = monomials(nvars, deg + gdeg)
    tidx = {m: i for i, m in enumerate(target)}
    ideal_rows = degree_piece_rows(i_gens, nvars, deg + gdeg, char)
    reduced, rank = rref_rank(ideal_rows, char)
    pivots = []
    for row in reduced[:rank]:
        for i, v in enumerate(row):
            if v != 0:
                pivots.append(i)
                break
    # project h*g to the complement of the ideal piece, then take the kernel rank
    rows = []
    for m in hi:
        prod = {}
        for gm, gc in g_terms.items():
            mm = tuple(a + b for a, b in zip(m, gm))
            prod[mm] = prod.get(mm, 0) + gc
        vec = [0] * len(target)
        for mm, c in prod.items():
            vec[tidx[mm]] = c % char if char else c
        # reduce against the ideal piece
        for prow, pcol in zip(reduced[:rank], pivots):
            if vec[pcol] != 0:
                f = vec[pcol]
                if char:
                    vec = [(a - f * b) % char for a, b in zip(vec, prow)]
                else:
                    vec = [a - f * b for a, b in zip(vec, prow)]
        rows.append(vec)
    # h is in the colon piece iff its row reduced to zero modulo the ideal,
    # i.e. kernel of the residual map
    _, r = rref_rank(rows, char)
    return len(hi) - r


# -- naive Buchberger (no criteria, FIFO pairs, own division) ----------------

def _lt(terms, keyf):
    m = max(terms, key=keyf)
    return m, terms[m]


def _drl_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def elim_key(m):
    """Elimination order for a trailing auxiliary variable t: the power of t
    first, then degrevlex on the rest.  A Groebner basis under it meets the
    t-free polynomials in a Groebner basis of the elimination ideal."""
    return (m[-1], _drl_key(m[:-1]))


def _sub_scaled(a, b, coeff, shift, char):
    out = dict(a)
    for m, c in b.items():
        mm = tuple(x + y for x, y in zip(m, shift))
        v = out.get(mm, 0) - coeff * c
        if char:
            v %= char
        if v == 0:
            out.pop(mm, None)
        else:
            out[mm] = v
    return out


def naive_normal_form(f, basis, char=0, key=_drl_key):
    p = dict(f)
    rem = {}
    while p:
        m, c = _lt(p, key)
        done = False
        for g in basis:
            gm, gc = _lt(g, key)
            if all(a <= b for a, b in zip(gm, m)):
                shift = tuple(b - a for a, b in zip(gm, m))
                coeff = c * _inv(char, gc)
                if char:
                    coeff %= char
                p = _sub_scaled(p, g, coeff, shift, char)
                done = True
                break
        if not done:
            rem[m] = c
            del p[m]
    return rem


def naive_groebner(gens, char=0, key=_drl_key):
    """All-pairs Buchberger with FIFO selection under the monomial order
    key; returns the reduced basis as a set of frozensets of (monomial,
    coefficient) pairs (order-free)."""
    G = [dict(g) for g in gens if g]

    def monic(t):
        _, c = _lt(t, key)
        inv = _inv(char, c)
        if char:
            return {m: (v * inv) % char for m, v in t.items()}
        return {m: v * inv for m, v in t.items()}

    G = [monic(g) for g in G]
    pairs = [(i, j) for j in range(len(G)) for i in range(j)]
    while pairs:
        i, j = pairs.pop(0)
        fm, _ = _lt(G[i], key)
        gm, _ = _lt(G[j], key)
        lcm = tuple(max(a, b) for a, b in zip(fm, gm))
        s = _sub_scaled(
            _mul_mono(G[i], tuple(l - a for l, a in zip(lcm, fm)), char),
            G[j],
            1,
            tuple(l - b for l, b in zip(lcm, gm)),
            char,
        )
        r = naive_normal_form(s, G, char, key)
        if r:
            G.append(monic(r))
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    # reduce: minimal, tail-reduced, monic
    minimal = []
    for idx, g in enumerate(G):
        gm = _lt(g, key)[0]
        dominated = False
        for k, h in enumerate(G):
            if k == idx:
                continue
            hm = _lt(h, key)[0]
            if all(a <= b for a, b in zip(hm, gm)) and (hm != gm or k < idx):
                dominated = True
                break
        if not dominated:
            minimal.append(g)
    final = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        r = naive_normal_form(g, others, char, key)
        if r:
            final.append(monic(r))
    return {frozenset(t.items()) for t in final}


def _mul_mono(terms, shift, char):
    out = {tuple(a + b for a, b in zip(m, shift)): c for m, c in terms.items()}
    return out
