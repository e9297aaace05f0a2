"""The fused multiply-accumulate kernel (Poly.dot, RepAlgebra.accumulate_products)
against the routes it replaced.

The references below copy the code the kernel replaced: the product that
summed every term pair through Poly.collect, and the representation-layer
sums that built each product as its own element before one accumulate.
The kernel must give the same polynomials, and the routes through it must
print the same bytes."""

from fractions import Fraction
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import surfqp.poly as poly
from surfqp.algebra import AlgElem
from surfqp.evaluation import CONJ, L, R, _sides, build_fusion_bivector, fields_sym, wedge_sym
from surfqp.poly import MAX_FIELD_EXPONENT, Poly, monomial
from surfqp.repalgebra import RepAlgebra, RepElem
from surfqp.words import SurfaceSignature, Word, parse_word

# --- references: the code the kernel replaced -----------------------------------


def ref_mul(p, q):
    """Poly.__mul__ before the kernel: every term pair summed by collect."""
    if len(p.terms) > len(q.terms):
        big, small = p.terms, q.terms
    else:
        big, small = q.terms, p.terms
    out = Poly.collect((m1 + m2, c1 * c2) for m2, c2 in small.items()
                       for m1, c1 in big.items())
    if reduce(or_, out.terms, 0) & poly._guards:
        raise OverflowError(f"a product exponent exceeds {MAX_FIELD_EXPONENT}")
    return out


def ref_dot(triples):
    """Poly.dot before it returned its accumulator: every sum filtered by a
    copy, zero or not."""
    out = {}
    for c, p, q in triples:
        small, big = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
        for m2, c2 in small.items():
            for m1, c1 in big.items():
                out[m1 + m2] = out.get(m1 + m2, 0) + c * c2 * c1
    return Poly._wrap({m: c for m, c in out.items() if c})


def ref_prod(a, b, c=1):
    """(a * b).scale(c) with the reference product: one element per product."""
    return RepElem(a.alg, ref_mul(a.num, b.num),
                   tuple(x + y for x, y in zip(a.den, b.den))).scale(c)


def ref_raise_den(alg, num, frm, to):
    for u, (a, b) in enumerate(zip(frm, to)):
        for _ in range(b - a):
            num = ref_mul(num, alg.det_poly(u))
    return num


def ref_den_sums(parts):
    """The numerators summed per denominator, a lone one shared as it is."""
    groups = {}
    for part in parts:
        groups.setdefault(part.den, []).append(part.num)
    sums = ((den, nums[0] if len(nums) == 1 else
             Poly.collect(pair for num in nums for pair in num.items()))
            for den, nums in groups.items())
    return {den: num for den, num in sums if not num.is_zero()}


def ref_over_common_den(alg, sums):
    """_over_common_den with the raised groups added term by term to an empty dict."""
    if len(sums) < 2:
        return alg._over_common_den(sums)
    target = tuple(max(den[u] for den in sums) for u in range(alg.sig.rank))
    return RepElem(alg, Poly.collect(pair for den, num in sorted(sums.items())
                                     for pair in alg.raise_den(num, den, target).items()),
                   target)


def ref_accumulate(alg, parts):
    """The build-then-sum accumulate: every part already built."""
    sums = ref_den_sums(parts)
    if not sums:
        return alg.zero()
    if len(sums) == 1:
        [(den, num)] = sums.items()
        return RepElem(alg, num, den)
    target = tuple(max(den[u] for den in sums) for u in range(alg.sig.rank))
    total = Poly.collect(pair for den, num in sorted(sums.items())
                         for pair in ref_raise_den(alg, num, den, target).items())
    return RepElem(alg, total, target)


def ref_word_matrix(alg, w):
    """w's entries by a right-to-left fold of reference products."""
    N = alg.dim
    out = tuple(tuple(alg.scalar(1 if i == j else 0) for j in range(N)) for i in range(N))
    for k, letter in enumerate(reversed(w.letters)):
        head = alg._letter_matrix(*letter)
        out = head if k == 0 else tuple(
            tuple(ref_accumulate(alg, [ref_prod(head[i][m], out[m][j]) for m in range(N)])
                  for j in range(N)) for i in range(N))
    return out


def ref_entry(alg, w, i, j):
    return ref_word_matrix(alg, w)[i - 1][j - 1]


def ref_entry_pair_image(alg, t, i, j, k, l):
    return ref_accumulate(alg, [ref_prod(ref_word_matrix(alg, w1)[k][j],
                                         ref_word_matrix(alg, w2)[i][l], c)
                                for (w1, w2), c in t.items()])


def ref_d_dvar(alg, P, var):
    u, i, j = var
    out = RepElem(alg, P.num.diff(var), P.den)
    k = P.den[u]
    if k and not P.num.is_zero():
        den = list(P.den)
        den[u] += 1
        chain = RepElem(alg, ref_mul(P.num, alg.adj_poly(u)[j][i]).scale(Fraction(-k)),
                        tuple(den))
        out = out + chain
    return out


def ref_differential(alg, P):
    return [(a, d) for a in alg.variables(P) if not (d := ref_d_dvar(alg, P, a)).is_zero()]


def ref_qp_bracket(alg, P, Q):
    """Hamiltonian and pairing with every product built on its own."""
    dP, dQ = ref_differential(alg, P), ref_differential(alg, Q)
    gen = {}
    for a, _ in dP:
        for b, _ in dQ:
            (u, i, j), (v, k, l) = a, b
            gen[a, b] = ref_entry_pair_image(alg, alg.dbl.base(u, v), i, j, k, l)
    H = {b: ref_den_sums(ref_prod(dPa, gen[a, b]) for a, dPa in dP if not gen[a, b].is_zero())
         for b, _ in dQ}
    return ref_accumulate(alg, [ref_prod(RepElem(alg, h, den), dQb)
                                for b, dQb in dQ for den, h in H[b].items()])


def ref_field_apply_sym(alg, f, P):
    """The field f = (slot, side, r, s) applied to P, one product at a time."""
    slot, side, r, s = f
    parts = []
    for (u, i, j), d in ref_differential(alg, P):
        if u != slot:
            continue
        val = ((Poly.var((u, i, r)) if side in (L, CONJ) and s == j else Poly.zero())
               - (Poly.var((u, s, j)) if side in (R, CONJ) and r == i else Poly.zero()))
        if not val.is_zero():
            parts.append(ref_prod(d, RepElem(alg, val, alg.zero_den)))
    return ref_accumulate(alg, parts)


def ref_wedge_sym(alg, biv, on_p, on_q):
    """The wedge sum over fields keyed (slot, side, r, s), an absent one zero,
    one product at a time."""
    N, zero = alg.dim, alg.zero()
    parts = []
    for term in biv.terms:
        for r in range(N):
            for s in range(N):
                v = (term.v_slot, term.v_side, r, s)
                w = (term.w_slot, term.w_side, s, r)
                for a, b, c in ((on_p.get(v, zero), on_q.get(w, zero), term.coeff),
                                (on_q.get(v, zero), on_p.get(w, zero), -term.coeff)):
                    if not (a.is_zero() or b.is_zero()):
                        parts.append(ref_prod(a, b, c))
    return ref_accumulate(alg, parts)


# --- the kernel on polynomials ---------------------------------------------------

VARS = [(0, 0, 0), (0, 1, 0), (1, 0, 1), (2, 1, 1), "x", "y"]
COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)])


@st.composite
def polys(draw):
    """Up to four terms, so empty (zero) and one-term operands are common."""
    monos = st.lists(st.tuples(st.sampled_from(VARS), st.sampled_from((1, 2, 7, 10**5))),
                     max_size=3)
    return Poly.collect((monomial(*m), c)
                        for m, c in draw(st.lists(st.tuples(monos, COEFFS), max_size=4)))


@seed(20261021)
@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_kernel_is_the_sum_of_reference_products(data):
    triples = data.draw(st.lists(st.tuples(st.one_of(st.just(0), COEFFS), polys(), polys()),
                                 max_size=5))
    cancel = data.draw(st.booleans())
    if cancel:  # every product meets its negative, with the factors swapped
        triples += [(-c, q, p) for c, p, q in triples]
        triples = data.draw(st.permutations(triples))
    got = Poly.dot(triples)
    want = Poly.collect(pair for c, p, q in triples for pair in ref_mul(p, q).scale(c).items())
    assert got == want
    assert all(got.terms.values())
    assert got.is_zero() or not cancel
    for c, p, q in triples:
        assert p * q == ref_mul(p, q) == q * p


@seed(20261023)
@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_kernel_keys_follow_the_copying_kernel(data):
    # Poly.dot copies its accumulator only when a sum cancelled, so with or
    # without cancelling terms it must hold the old kernel's keys in its order
    triples = data.draw(st.lists(st.tuples(st.one_of(st.just(0), COEFFS), polys(), polys()),
                                 max_size=5))
    cancel = data.draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    triples += [(-c, q, p) for (c, p, q), drop in zip(triples, cancel) if drop]
    triples = data.draw(st.permutations(triples))
    got, want = Poly.dot(triples), ref_dot(triples)
    assert got == want == Poly.collect(pair for c, p, q in triples
                                       for pair in ref_mul(p, q).scale(c).items())
    assert list(got.terms) == list(want.terms)
    assert all(got.terms.values())


def test_guard_bits_on_the_kernel():
    x, y = "guard x", "guard y"
    top = MAX_FIELD_EXPONENT
    X = Poly({monomial((x, top), (y, 5)): 1})
    two = Poly.var(x) + Poly.var(y)
    for one_product in (lambda: X * Poly.var(x), lambda: X * two,
                        lambda: Poly.dot([(3, two, X)])):
        with pytest.raises(OverflowError):
            one_product()
    # one product overflows on its own, but its term cancels in the fused sum
    with pytest.raises(OverflowError):
        ref_mul(X, Poly.var(x))
    assert Poly.dot([(1, X, Poly.var(x)), (-1, Poly.var(x), X)]).is_zero()
    got = Poly.dot([(2, X + Poly.var(y), Poly.var(x)), (-2, X, Poly.var(x))])
    assert got == (Poly.var(x) * Poly.var(y)).scale(2)


# --- the routes through the kernel -----------------------------------------------

KERNEL_ALGEBRAS = {(g, m, dim): RepAlgebra(SurfaceSignature(g, m), dim)
                   for g, m in ((1, 1), (0, 2), (1, 0)) for dim in (1, 2)}


@st.composite
def words(draw, sig, max_len):
    """Reduced words of up to max_len letters, half of them inverted."""
    letters = []
    for _ in range(draw(st.integers(0, max_len))):
        g, e = draw(st.integers(0, sig.rank - 1)), draw(st.sampled_from((-1, 1)))
        if letters and letters[-1] == (g, -e):
            e = -e
        letters.append((g, e))
    return Word(letters)


@seed(20261022)
@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_routes_print_the_reference_bytes(data):
    alg = KERNEL_ALGEBRAS[data.draw(st.sampled_from(sorted(KERNEL_ALGEBRAS)))]
    N = alg.dim
    a, b, c = (data.draw(words(alg.sig, 3)) for _ in range(3))
    i, j, k, l = (data.draw(st.integers(1, N)) for _ in range(4))
    t = alg.dbl(AlgElem({a: 1, c: -2}), b)
    assert alg.to_json(alg.entry_pair_image(t, i - 1, j - 1, k - 1, l - 1)) == \
        alg.to_json(ref_entry_pair_image(alg, t, i - 1, j - 1, k - 1, l - 1))
    P, Q = alg.entry(a, i, j), alg.entry(b, k, l)
    assert alg.to_json(P) == alg.to_json(ref_entry(alg, a, i, j))
    assert alg.to_json(alg.qp_bracket(P, Q)) == alg.to_json(ref_qp_bracket(alg, P, Q))


@pytest.mark.parametrize("genus,punctures,dim,texts", [
    (1, 0, 2, ("p1*q1^-1", "q1^-1*p1^-1")), (0, 1, 2, ("z1^-2", "z1")),
    (1, 1, 2, ("p1^-1*z1", "q1*z1^-1")), (0, 2, 1, ("z1*z2^-1", "z2^-1")),
])
def test_symbolic_fields_print_the_reference_bytes(genus, punctures, dim, texts):
    sig = SurfaceSignature(genus, punctures)
    alg, biv = RepAlgebra(sig, dim), build_fusion_bivector(sig, dim)
    P, Q = (alg.entry(parse_word(text, sig), 1, dim) for text in texts)
    on_p, on_q = fields_sym(alg, biv, P), fields_sym(alg, biv, Q)
    assert list(on_p) == list(on_q) == _sides(biv)
    flat_p, flat_q = ({(*key, r, s): x for key, m in on.items() for (r, s), x in m.items()}
                      for on in (on_p, on_q))
    every = {(*key, r, s) for key in _sides(biv) for r in range(dim) for s in range(dim)}
    assert set(flat_p) <= every and set(flat_q) <= every
    # a field is absent exactly when the reference field is zero, and a
    # present one is nonzero with the reference bytes
    for flat, F in ((flat_p, P), (flat_q, Q)):
        for f in sorted(every):
            want = ref_field_apply_sym(alg, f, F)
            assert (f in flat) != want.is_zero(), f
            if f in flat:
                assert not flat[f].is_zero() and alg.to_json(flat[f]) == alg.to_json(want)
    assert alg.to_json(wedge_sym(alg, biv, on_p, on_q)) == \
        alg.to_json(ref_wedge_sym(alg, biv, flat_p, flat_q))


# --- work done once ----------------------------------------------------------------

def test_scale_by_one_shares_the_element():
    alg = KERNEL_ALGEBRAS[1, 1, 2]
    w = Word([(0, 1), (1, -1), (2, 1)])
    for i in (1, 2):
        for j in (1, 2):
            assert alg.entry(w, i, j).num is alg.column(w, j - 1)[i - 1].num
    P = Poly.var("x") + Poly.const(2)
    assert P.scale(1) is P and P.scale(Fraction(2, 2)) is P
    e = AlgElem({w: 3})
    assert e.scale(1) is e and e.scale(-1) == AlgElem({w: -3})


def test_entry_of_a_word_is_the_tries_element():
    alg = KERNEL_ALGEBRAS[1, 1, 2]
    for w in (Word([(0, 1), (1, -1), (2, 1)]), Word([(2, -1)]), Word([])):
        for i in (1, 2):
            for j in (1, 2):
                assert alg.entry(w, i, j) is alg.column(w, j - 1)[i - 1]
                assert alg.entry(AlgElem({w: 1}), i, j) == alg.entry(w, i, j)


def sums_by_den(sums):
    return [(den, list(num.items())) for den, num in sums.items()]


def test_sums_from_the_first_part_print_the_bytes_of_an_empty_start():
    # four denominator groups: one sums parts that cancel and come back, one
    # cancels to zero, one is a lone part and one sums two parts
    alg = KERNEL_ALGEBRAS[1, 1, 2]
    a, b, c, d, e = (alg.entry(parse_word(text, alg.sig), i, j) for text, i, j in (
        ("p1*q1^-1", 1, 2), ("q1^-1*z1", 2, 1), ("p1^-1", 1, 1), ("z1^-1*p1", 2, 2),
        ("q1*z1", 1, 2)))
    assert len({x.den for x in (a, b, c, d, e)}) == 4 and a.den == b.den
    parts = [a, b, -a, c, d, a.scale(3), -c, e, e.scale(Fraction(1, 2)), b.scale(-1)]
    got, want = alg._den_sums(parts), ref_den_sums(parts)
    assert sums_by_den(got) == sums_by_den(want) and len(got) == 3
    for sums in (got, {den: got[den] for den in list(got)[:2]}):
        total, ref = alg._over_common_den(sums), ref_over_common_den(alg, sums)
        assert alg.to_json(total) == alg.to_json(ref)
        assert list(total.num.items()) == list(ref.num.items())
    total, ref = alg.accumulate(parts), ref_accumulate(alg, parts)
    assert alg.to_json(total) == alg.to_json(ref)
    # runs of equal denominator pairs, broken and resumed, take one key a group
    triples = [(1, a, d), (2, b, d), (-1, e, a), (1, a, d), (3, c, c), (1, d, b), (-3, c, c)]
    assert sums_by_den(alg._product_sums(triples)) == sums_by_den(ref_den_sums(
        RepElem(alg, ref_mul(x.num, y.num).scale(k), tuple(map(sum, zip(x.den, y.den))))
        for k, x, y in triples))


@pytest.mark.parametrize("genus,punctures,dim", [(1, 1, 2), (0, 2, 1), (1, 0, 3)])
def test_elem_action_prints_the_bytes_of_the_fraction_matrix(genus, punctures, dim):
    sig = SurfaceSignature(genus, punctures)
    alg = RepAlgebra(sig, dim)
    text = "*".join(sig.gen_name(u) + "^-1" * (u % 2) for u in range(sig.rank))
    for P in (alg.entry(parse_word(text, sig), 1, dim), alg.sym(0, dim - 1, 0),
              alg.trace(parse_word(text, sig)) + alg.sym(sig.rank - 1, 0, dim - 1)):
        for k in range(dim):
            for l in range(dim):
                old = [[Fraction(int((i, j) == (k, l))) for j in range(dim)] for i in range(dim)]
                got, want = alg.elem_action(k, l, P), alg.gl_action(old, P)
                assert alg.to_json(got) == alg.to_json(want)
                assert list(got.num.items()) == list(want.num.items()) and got.den == want.den


def test_fields_sym_differentiates_once(monkeypatch):
    calls = []
    differential = RepAlgebra.differential

    def counted(self, P):
        calls.append(1)
        return differential(self, P)

    monkeypatch.setattr(RepAlgebra, "differential", counted)
    sig = SurfaceSignature(1, 1)
    alg, biv = RepAlgebra(sig, 2), build_fusion_bivector(sig, 2)
    on = fields_sym(alg, biv, alg.entry(Word([(0, 1), (2, -1)]), 1, 2))
    assert len(calls) == 1
    assert list(on) == _sides(biv)
    assert all(set(m) <= {(0, 0), (0, 1), (1, 0), (1, 1)} for m in on.values())
    assert all(not x.is_zero() for m in on.values() for x in m.values())
    # p1 * z1^-1 leaves q1 (slot 1) fixed: its fields are all absent
    assert all(on[1, side] == {} for side in (L, R, CONJ)) and on[0, L] and on[2, R]


def test_sparse_symbolic_leg_tests_no_zero(monkeypatch):
    # fields_sym stores no zero field, so wedge_sym pairs only nonzero ones and
    # makes no is_zero call
    sig = SurfaceSignature(1, 1)
    for dim in (1, 2):
        alg, biv = RepAlgebra(sig, dim), build_fusion_bivector(sig, dim)
        syms = [(u, i, j) for u in range(sig.rank) for i in range(dim) for j in range(dim)]
        gens = [alg.sym(*a) for a in syms]
        on = [fields_sym(alg, biv, P) for P in gens]
        # a generator entry x^u_ij has N fields in L, N in R and 2N - 1 in C,
        # all at slot u, but C = x_ii - x_jj at (i, j) cancels on the diagonal
        assert [sum(map(len, f.values())) for f in on] == [4 * dim - 1 - (i == j)
                                                           for _, i, j in syms]
        assert all(not x.is_zero() for f in on for m in f.values() for x in m.values())
        want = [alg.qp_bracket(P, Q) for P in gens for Q in gens]
        calls, is_zero = [], RepElem.is_zero
        with monkeypatch.context() as patch:
            patch.setattr(RepElem, "is_zero", lambda self: calls.append(self) or is_zero(self))
            got = [wedge_sym(alg, biv, a, b) for a in on for b in on]
        assert calls == [] and got == want
