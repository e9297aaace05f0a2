"""Seeded verification suites behind `verify <name>` and the acceptance
tests.  Every suite draws its randomness from per-trial streams derived
from (seed, label, trial), so identical parameters replay identically, and
every check compares exact rational objects; there are no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Optional, Sequence

from .algebra import AlgElem, Tensor2, m3, permute, tensor2
from .dbracket import (SurfaceDoubleBracket, angle, dbl_from_inner, dbl_from_pairing, goldman,
                       is_quasi_poisson, moment_neg_power_rhs, moment_power_rhs, moment_rhs,
                       project_cyclic, triple)
from .evaluation import build_fusion_bivector, compare_bivectors, fields_sym, wedge_sym
from .foxpairing import SurfaceFoxPairing, inner_pairing, rho_1, transpose_apply
from .matrices import mat_det
from .repalgebra import RepAlgebra
from .words import (CyclicWord, SurfaceSignature, Word, boundary_word, format_word,
                    sample_word, trial_rng)

# signature sets exercised by `verify all`
FOX_SIGNATURES = ((0, 1), (1, 0), (1, 1), (2, 1), (0, 2))
DOUBLE_SIGNATURES = FOX_SIGNATURES
QP_SIGNATURES = ((1, 0), (1, 1), (0, 2))
REP_SIGNATURES = ((1, 0), (0, 2))
MOMENT_SIGNATURES = ((1, 0), (1, 1), (0, 2))
AKSM_SIGNATURES = ((1, 0), (0, 1), (0, 2), (1, 1))


@dataclass
class Check:
    name: str
    ok: bool
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass
class SuiteReport:
    suite: str
    params: dict
    checks: list[Check]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "ok": self.ok,
            "checks": [c.to_dict() for c in self.checks],
        }


def _word_witness(sig: SurfaceSignature, words: Sequence[Word]) -> dict:
    return {"words": [format_word(w, sig) for w in words]}


def _sample_many(seed: int, label: str, trial: int, sig: SurfaceSignature,
                 max_len: int, count: int) -> list[Word]:
    rng = trial_rng(seed, label, trial)
    return [sample_word(rng, sig, max_len) for _ in range(count)]


def _run_sampled(checks: list[Check], suite: str, sig: SurfaceSignature, seed: int,
                 max_len: int, name: str, count: int, nwords: int, predicate) -> None:
    """Test predicate on `count` seeded tuples of `nwords` words and append
    the verdict to checks; the first failing tuple is the witness."""
    for k in range(count):
        words = _sample_many(seed, f"{suite}:{name}", k, sig, max_len, nwords)
        if not predicate(*words):
            checks.append(Check(name, False, {"trial": k, **_word_witness(sig, words)}))
            return
    checks.append(Check(name, True, {"trials": count}))


# --- fox -------------------------------------------------------------------

def fox_suite(sig: SurfaceSignature, trials: int, seed: int, max_len: int = 4) -> SuiteReport:
    eta = SurfaceFoxPairing(sig)
    checks = []
    run = partial(_run_sampled, checks, "fox", sig, seed, max_len)

    one = AlgElem.one()
    run("product-rule-first-slot", trials, 3, lambda a, b, c:
        eta(a * b, c) == eta(a, c) + AlgElem.from_word(a) * eta(b, c))
    run("product-rule-second-slot", trials, 3, lambda a, b, c:
        eta(a, b * c) == eta(a, b) * c + eta(a, c))
    run("unit-annihilation", trials, 1, lambda a:
        eta(one, a).is_zero() and eta(a, one).is_zero())
    run("transpose-sum", trials, 2, lambda a, b:
        eta(a, b) + transpose_apply(eta, a, b) == -rho_1(a, b))
    run("skew-pairing", trials, 2, lambda a, b:
        transpose_apply(eta.skew, a, b) == -eta.skew(a, b))
    run("double-transpose", trials, 2, lambda a, b:
        transpose_apply(lambda x, y: transpose_apply(eta, x, y), a, b) == eta(a, b))
    params = {"genus": sig.genus, "punctures": sig.punctures, "trials": trials,
              "seed": seed, "max_len": max_len}
    return SuiteReport("fox", params, checks)


# --- double ------------------------------------------------------------------

def _eta_display_table(sig: SurfaceSignature) -> list[tuple[int, int, Tensor2]]:
    """The displayed generator values of the bracket of the unskewed pairing."""
    out = []
    one = Word.identity()
    for i in range(sig.rank):
        for j in range(i, sig.rank):
            x, y = Word.generator(i), Word.generator(j)
            if i == j:
                sq = x * x
                if sig.letter_kind(i) == "q":
                    val = Tensor2({(x, x): 1, (sq, one): -1})
                else:
                    val = Tensor2({(x, x): 1, (one, sq): -1})
            elif sig.is_handle_pair(i, j):
                val = Tensor2({(y, x): 1})
            else:
                val = Tensor2()
            out.append((i, j, val))
    return out


def double_suite(sig: SurfaceSignature, trials: int, seed: int, max_len: int = 4) -> SuiteReport:
    eta = SurfaceFoxPairing(sig)
    dbl = SurfaceDoubleBracket(sig)
    checks = []

    bad = [(i, j) for (i, j, want) in _eta_display_table(sig)
           if dbl_from_pairing(eta, Word.generator(i), Word.generator(j)) != want]
    checks.append(Check("pairing-bracket-table", not bad, {"failed_pairs": bad}))

    bad = [(i, j) for (i, j, want_eta) in _eta_display_table(sig)
           if dbl.base(i, j) != want_eta.scale(2) + dbl_from_inner(
               AlgElem.one(), Word.generator(i), Word.generator(j))]
    checks.append(Check("skew-bracket-table", not bad, {"failed_pairs": bad}))

    run = partial(_run_sampled, checks, "double", sig, seed, max_len)

    one = AlgElem.one()
    run("cross-oracle", trials, 2, lambda a, b:
        dbl(a, b) == dbl_from_pairing(eta.skew, a, b))
    run("skew-symmetry", trials, 2, lambda a, b:
        dbl(b, a) == -permute(dbl(a, b), (2, 1)))
    run("eta-shift", trials, 2, lambda a, b:
        dbl(a, b) == dbl_from_pairing(eta, a, b).scale(2)
        + tensor2(one, a * b) + tensor2(b * a, one) - tensor2(a, b) - tensor2(b, a))
    run("transpose-conjugation", trials, 2, lambda a, b:
        dbl_from_pairing(lambda x, y: transpose_apply(eta, x, y), a, b)
        == permute(dbl_from_pairing(eta, b, a), (2, 1)))
    run("inner-closed-form", trials, 3, lambda e, a, b:
        dbl_from_pairing(lambda x, y: inner_pairing(e, x, y), a, b)
        == dbl_from_inner(e, a, b))
    params = {"genus": sig.genus, "punctures": sig.punctures, "trials": trials,
              "seed": seed, "max_len": max_len}
    return SuiteReport("double", params, checks)


# --- quasi-poisson ------------------------------------------------------------

def quasi_poisson_suite(sig: SurfaceSignature, trials: int, seed: int,
                        max_len: int = 4) -> SuiteReport:
    dbl = SurfaceDoubleBracket(sig)
    checks = []

    rep = is_quasi_poisson(dbl, sig, trials, seed, max_len)
    checks.append(Check("triple-matches-canonical", rep.ok, rep.to_dict(sig)))

    run = partial(_run_sampled, checks, "qp", sig, seed, max_len)

    run("cyclic-symmetry", max(10, trials // 10), 3, lambda a, b, c:
        triple(dbl, c, a, b) == permute(triple(dbl, a, b, c), (3, 1, 2)))
    run("strong-identity", max(10, trials // 10), 3, lambda a, b, c:
        m3(triple(dbl, a, b, c)) == m3(triple(dbl, b, a, c)))
    run("single-bracket-defect", trials, 3, lambda a, b, c:
        angle(dbl, angle(dbl, a, b), c)
        - angle(dbl, a, angle(dbl, b, c))
        + angle(dbl, b, angle(dbl, a, c))
        == m3(triple(dbl, b, a, c) - triple(dbl, a, b, c)))
    run("commutators-die-in-classes", max(10, trials // 10), 3, lambda a, b, c:
        project_cyclic(angle(dbl, AlgElem.from_word(a * b) - AlgElem.from_word(b * a), c)).is_zero())

    def goldman_well_defined(a, b, u, v) -> bool:
        ca, cb = CyclicWord.of(a), CyclicWord.of(b)
        return goldman(dbl, ca, cb) == goldman(
            dbl, CyclicWord.of(a.conjugate_by(u)), CyclicWord.of(b.conjugate_by(v)))

    def goldman_jacobi(a, b, c) -> bool:
        ca, cb, cc = CyclicWord.of(a), CyclicWord.of(b), CyclicWord.of(c)
        return (goldman(dbl, goldman(dbl, ca, cb), cc)
                + goldman(dbl, goldman(dbl, cb, cc), ca)
                + goldman(dbl, goldman(dbl, cc, ca), cb)).is_zero()

    run("goldman-well-defined", max(10, trials // 4), 4, goldman_well_defined)
    _run_sampled(checks, "qp", sig, seed, max(2, max_len - 1), "goldman-jacobi",
                 max(10, trials // 10), 3, goldman_jacobi)

    params = {"genus": sig.genus, "punctures": sig.punctures, "trials": trials,
              "seed": seed, "max_len": max_len}
    return SuiteReport("quasi-poisson", params, checks)


# --- rep-suite -----------------------------------------------------------------

def _intersection_number(sig: SurfaceSignature, i: int, j: int) -> int:
    if sig.is_handle_pair(i, j):
        return 1
    if sig.is_handle_pair(j, i):
        return -1
    return 0


def _displayed_gen_bracket(alg: RepAlgebra, u: int, v: int,
                           i: int, j: int, k: int, l: int):
    """The displayed coordinate formulas for generator-entry brackets,
    written out independently of the double-bracket machinery."""
    sig = alg.sig
    x, y = Word.generator(u), Word.generator(v)
    out = alg.zero()
    if u == v:
        kind = sig.letter_kind(u)
        if kind in ("p", "z"):
            out = out + (alg.entry(x * x, k + 1, j + 1) if i == l else alg.zero())
            out = out - (alg.entry(x * x, i + 1, l + 1) if k == j else alg.zero())
        else:
            out = out + (alg.entry(x * x, i + 1, l + 1) if k == j else alg.zero())
            out = out - (alg.entry(x * x, k + 1, j + 1) if i == l else alg.zero())
        return out
    sign = 1 if sig.is_handle_pair(u, v) else -1
    if k == j:
        out = out + alg.entry(x * y, i + 1, l + 1)
    if i == l:
        out = out + alg.entry(y * x, k + 1, j + 1)
    out = out - alg.sym(u, k, j) * alg.sym(v, i, l)
    out = out + alg.sym(v, k, j).scale(sign) * alg.sym(u, i, l)
    return out


def rep_suite(sig: SurfaceSignature, dims: Sequence[int], trials: int, seed: int,
              max_len: int = 3) -> SuiteReport:
    checks = []
    dbl = SurfaceDoubleBracket(sig)

    for dim in dims:
        alg = RepAlgebra(sig, dim, dbl)
        tag = f"dim{dim}"

        bad = []
        for u in range(sig.rank):
            for v in range(u, sig.rank):
                for i in range(dim):
                    for j in range(dim):
                        for k in range(dim):
                            for l in range(dim):
                                got = alg.qp_bracket(alg.sym(u, i, j), alg.sym(v, k, l))
                                if got != _displayed_gen_bracket(alg, u, v, i, j, k, l):
                                    bad.append([u, v, i, j, k, l])
        checks.append(Check(f"{tag}:displayed-generator-brackets", not bad,
                            {"failed": bad[:3]}))

        def run(name: str, count: int, predicate) -> None:
            for t in range(count):
                rng = trial_rng(seed, f"rep:{name}:{dim}", t)
                if not predicate(rng):
                    checks.append(Check(f"{tag}:{name}", False, {"trial": t}))
                    return
            checks.append(Check(f"{tag}:{name}", True, {"trials": count}))

        def rand_sym(rng):
            return alg.sym(rng.randrange(sig.rank), rng.randrange(dim), rng.randrange(dim))

        def quasi_jacobi(rng) -> bool:
            if sig.rank == 0:
                return True
            P, Q, S = rand_sym(rng), rand_sym(rng), rand_sym(rng)
            lhs = (alg.qp_bracket(P, alg.qp_bracket(Q, S))
                   + alg.qp_bracket(Q, alg.qp_bracket(S, P))
                   + alg.qp_bracket(S, alg.qp_bracket(P, Q)))
            return lhs == alg.phi_action(P, Q, S)

        def skew_and_leibniz(rng) -> bool:
            a = sample_word(rng, sig, max_len)
            b = sample_word(rng, sig, max_len)
            i, j, k, l = (rng.randrange(1, dim + 1) for _ in range(4))
            P, Q = alg.entry(a, i, j), alg.entry(b, k, l)
            if alg.qp_bracket(P, Q) != -alg.qp_bracket(Q, P):
                return False
            S = rand_sym(rng) if sig.rank else alg.one()
            return alg.qp_bracket(P * Q, S) == alg.qp_bracket(P, S) * Q + P * alg.qp_bracket(Q, S)

        def matrix_relation(rng) -> bool:
            # (ab)_ij = sum_l a_il b_lj, compatibly with the bracket
            a = sample_word(rng, sig, max_len)
            b = sample_word(rng, sig, max_len)
            i, j = rng.randrange(1, dim + 1), rng.randrange(1, dim + 1)
            lhs = alg.entry(a * b, i, j)
            rhs = alg.accumulate_products((1, alg.entry(a, i, l), alg.entry(b, l, j))
                                          for l in range(1, dim + 1))
            if lhs != rhs:
                return False
            S = rand_sym(rng) if sig.rank else alg.one()
            return alg.qp_bracket(lhs, S) == alg.qp_bracket(rhs, S)

        def dual_route(rng) -> bool:
            a = sample_word(rng, sig, max_len)
            b = sample_word(rng, sig, max_len)
            i, j, k, l = (rng.randrange(1, dim + 1) for _ in range(4))
            return (alg.qp_bracket(alg.entry(a, i, j), alg.entry(b, k, l))
                    == alg.qp_bracket_entries(a, i, j, b, k, l))

        def lie_equivariance(rng) -> bool:
            w = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)]
            P, Q = (rand_sym(rng), rand_sym(rng)) if sig.rank else (alg.one(), alg.one())
            lhs = alg.gl_action(w, alg.qp_bracket(P, Q))
            rhs = (alg.qp_bracket(alg.gl_action(w, P), Q)
                   + alg.qp_bracket(P, alg.gl_action(w, Q)))
            if lhs != rhs:
                return False
            a = sample_word(rng, sig, max_len)
            return alg.gl_action(w, alg.trace(a)).is_zero()

        def group_equivariance(rng) -> bool:
            while True:
                g = tuple(tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(dim))
                if mat_det(g):
                    break
            P, Q = (rand_sym(rng), rand_sym(rng)) if sig.rank else (alg.one(), alg.one())
            lhs = alg.group_action(g, alg.qp_bracket(P, Q))
            rhs = alg.qp_bracket(alg.group_action(g, P), alg.group_action(g, Q))
            if lhs != rhs:
                return False
            a = sample_word(rng, sig, max_len)
            return alg.group_action(g, alg.trace(a)) == alg.trace(a)

        def trace_homomorphism(rng) -> bool:
            a = sample_word(rng, sig, max_len)
            b = sample_word(rng, sig, max_len)
            lhs = alg.qp_bracket(alg.trace(a), alg.trace(b))
            if lhs != alg.trace(angle(dbl, a, b)):
                return False
            gold = goldman(dbl, CyclicWord.of(a), CyclicWord.of(b))
            return lhs == alg.trace(gold).scale(2)

        run("quasi-jacobi", trials, quasi_jacobi)
        run("skew-and-leibniz", max(10, trials // 2), skew_and_leibniz)
        run("matrix-relation", max(10, trials // 2), matrix_relation)
        run("dual-route", max(10, trials // 2), dual_route)
        run("lie-equivariance", trials, lie_equivariance)
        run("group-equivariance", trials, group_equivariance)
        run("trace-homomorphism", trials, trace_homomorphism)

        if dim == 1:
            bad = []
            for i in range(sig.rank):
                for j in range(sig.rank):
                    x, y = Word.generator(i), Word.generator(j)
                    got = alg.qp_bracket(alg.entry(x, 1, 1), alg.entry(y, 1, 1))
                    want = alg.entry(x * y, 1, 1).scale(2 * _intersection_number(sig, i, j))
                    if got != want:
                        bad.append([i, j])
            checks.append(Check(f"{tag}:abelianized-closed-form", not bad, {"failed": bad}))

    params = {"genus": sig.genus, "punctures": sig.punctures, "dims": list(dims),
              "trials": trials, "seed": seed, "max_len": max_len}
    return SuiteReport("rep-suite", params, checks)


# --- moment ---------------------------------------------------------------

def _displayed_power_bracket(alg: RepAlgebra, mu: Word, a: Word, m: int,
                             i: int, j: int, u: int, v: int, inverse: bool):
    """The coordinate formula for the bracket of a power of the moment
    element against a, written out in entries (one-based indices)."""
    w = mu.inverse() if inverse else mu
    sign = -1 if inverse else 1
    return alg.accumulate_products(
        (c * (1 if k in (0, m) else 2), alg.entry(x, u, j), alg.entry(y, i, v))
        for k in range(m + 1) for wk, wrest in ((w ** k, w ** (m - k)),)
        for c, x, y in ((sign, a * wk, wrest), (-sign, wk, wrest * a)))


def moment_suite(sig: SurfaceSignature, dim: int, powers: Sequence[int], trials: int,
                 seed: int, mu: Optional[Word] = None, deep: bool = False) -> SuiteReport:
    dbl = SurfaceDoubleBracket(sig)
    alg = RepAlgebra(sig, dim, dbl)
    mu = mu if mu is not None else boundary_word(sig)
    checks = []

    gens = [Word.generator(g) for g in range(sig.rank)]
    rng = trial_rng(seed, "moment:words", 0)
    probes = gens + [sample_word(rng, sig, 3) for _ in range(trials)]

    bad = [a for a in probes if dbl(mu, a) != moment_rhs(mu, a)]
    checks.append(Check("tensor-moment-shape", not bad,
                        {"word": format_word(mu, sig),
                         "failed": [format_word(w, sig) for w in bad[:3]]}))

    bad = []
    for m in powers:
        for a in probes:
            if dbl(mu ** m, a) != moment_power_rhs(mu, a, m):
                bad.append([m, format_word(a, sig)])
            if dbl(mu ** (-m), a) != moment_neg_power_rhs(mu, a, m):
                bad.append([-m, format_word(a, sig)])
    checks.append(Check("tensor-power-formulas", not bad,
                        {"powers": sorted({m for m in powers} | {-m for m in powers}),
                         "failed": bad[:3]}))

    entry_probes = gens[:2] + [probes[-1]] if probes else []
    sampled = max(1, min(3, trials))
    bad = []
    for m in powers:
        for inverse in (False, True):
            length = len(mu) * m + 3
            if length <= 9:
                combos = [(i, j, u, v) for i in range(1, dim + 1) for j in range(1, dim + 1)
                          for u in range(1, dim + 1) for v in range(1, dim + 1)]
            else:
                crng = trial_rng(seed, "moment:combos", m)
                combos = [tuple(crng.randint(1, dim) for _ in range(4))
                          for _ in range(sampled)]
            word = mu ** (-m) if inverse else mu ** m
            for a in entry_probes:
                for (i, j, u, v) in combos:
                    lhs = alg.qp_bracket_entries(word, i, j, a, u, v)
                    rhs = _displayed_power_bracket(alg, mu, a, m, i, j, u, v, inverse)
                    if lhs != rhs:
                        bad.append([m if not inverse else -m, format_word(a, sig), [i, j, u, v]])
    checks.append(Check("entry-power-formulas", not bad, {"failed": bad[:3]}))

    limit = 15 if deep else 12
    bad = []
    for m in powers:
        if len(mu) * m > limit:
            continue
        crng = trial_rng(seed, "moment:deriv", m)
        for a in entry_probes:
            i, j, u, v = (crng.randint(1, dim) for _ in range(4))
            lhs = alg.qp_bracket(alg.entry(mu ** m, i, j), alg.entry(a, u, v))
            rhs = alg.qp_bracket_entries(mu ** m, i, j, a, u, v)
            if lhs != rhs:
                bad.append([m, format_word(a, sig), [i, j, u, v]])
    checks.append(Check("entry-derivation-route", not bad,
                        {"letter_limit": limit, "failed": bad[:3]}))

    if sig.rank:
        non_moment = Word.generator(0)
        if mu == non_moment:  # the annulus boundary IS its single generator
            non_moment = None
        rejected = True
        if non_moment is not None:
            rejected = any(dbl(non_moment, a) != moment_rhs(non_moment, a) for a in probes)
        inv_rejected = any(dbl(mu.inverse(), a) != moment_rhs(mu.inverse(), a) for a in probes)
        checks.append(Check("non-moment-rejected", rejected and inv_rejected,
                            {"inverse_rejected": inv_rejected}))

    params = {"genus": sig.genus, "punctures": sig.punctures, "dim": dim,
              "powers": list(powers), "trials": trials, "seed": seed,
              "word": format_word(mu, sig)}
    return SuiteReport("moment", params, checks)


# --- aksm -------------------------------------------------------------------

FUSION_WITNESS_POINTS = 3  # points the fusion-coupling check tries for a witness
AKSM_WORD_LEN = 2  # the longest extra word the pointwise check samples


def aksm_suite(sig: SurfaceSignature, dim: int, trials: int, seed: int,
               extra_word_pairs: int = 2) -> SuiteReport:
    checks = []
    rng = trial_rng(seed, "aksm:words", 0)
    extra = [(sample_word(rng, sig, AKSM_WORD_LEN), sample_word(rng, sig, AKSM_WORD_LEN))
             for _ in range(extra_word_pairs)]
    biv = build_fusion_bivector(sig, dim)
    plans = [(biv, trials)]
    # at N = 1 the conjugation field C = L + R is zero, and with it every
    # fusion term, so dropping them cannot change the bracket: no witness
    if sig.genus + sig.punctures >= 2 and dim >= 2:
        # the fusion terms vanish at degenerate points (z1 = -I), so the search
        # walks on to later points until one gives a witness
        nofuse = build_fusion_bivector(sig, dim, with_fusion_terms=False)
        plans.append((nofuse, FUSION_WITNESS_POINTS))
    rep, *fusion = compare_bivectors(sig, dim, seed, plans, extra_words=extra)
    checks.append(Check("pointwise-agreement", rep.ok, rep.to_dict()))

    if (sig.genus, sig.punctures) in ((1, 0), (0, 1)):
        alg = RepAlgebra(sig, dim)
        syms = [(u, i, j) for u in range(sig.rank) for i in range(dim) for j in range(dim)]
        on = {a: fields_sym(alg, biv, alg.sym(*a)) for a in syms}
        bad = sorted([u, v, i, j, k, l] for (u, i, j), (v, k, l) in product(syms, syms)
                     if alg.gen_bracket((u, i, j), (v, k, l))
                     != wedge_sym(alg, biv, on[u, i, j], on[v, k, l]))
        checks.append(Check("symbolic-agreement", not bad, {"failed": bad[:3]}))

    for rep in fusion:
        checks.append(Check("fusion-coupling-required", not rep.ok,
                            {"mismatch_found": not rep.ok}))

    params = {"genus": sig.genus, "punctures": sig.punctures, "dim": dim,
              "trials": trials, "seed": seed, "symbolic": True}  # a fixed key of the report
    return SuiteReport("aksm", params, checks)


# --- aggregate ----------------------------------------------------------------

SUITE_NAMES = ("fox", "double", "quasi-poisson", "rep-suite", "moment", "aksm")

DEFAULT_TRIALS = {
    "fox": 200,
    "double": 200,
    "quasi-poisson": 100,
    "rep-suite": 50,
    "moment": 5,
    "aksm": 20,
}
MOMENT_POWERS = (1, 2, 3)  # the moment element powers of `verify moment` and `moment-check`


def run_suite(name: str, sig: SurfaceSignature, seed: int, trials: Optional[int] = None,
              dim: int = 2, max_len: int = 4) -> SuiteReport:
    n = trials if trials is not None else DEFAULT_TRIALS[name]
    if n < 1:
        raise ValueError(f"need at least one trial, got trials={n}")
    if name == "fox":
        return fox_suite(sig, n, seed, max_len)
    if name == "double":
        return double_suite(sig, n, seed, max_len)
    if name == "quasi-poisson":
        return quasi_poisson_suite(sig, n, seed, max_len)
    if name == "rep-suite":
        dims = sorted({1, dim})
        return rep_suite(sig, dims, n, seed, max_len=min(max_len, 3))
    if name == "moment":
        return moment_suite(sig, dim, MOMENT_POWERS, n, seed)
    if name == "aksm":
        return aksm_suite(sig, dim, n, seed)
    raise ValueError(f"unknown suite {name!r}")


ALL_MATRIX = {
    "fox": FOX_SIGNATURES,
    "double": DOUBLE_SIGNATURES,
    "quasi-poisson": QP_SIGNATURES,
    "rep-suite": REP_SIGNATURES,
    "moment": MOMENT_SIGNATURES,
    "aksm": AKSM_SIGNATURES,
}


def run_all(seed: int, trials: Optional[int] = None, dim: int = 2,
            max_len: int = 4) -> dict:
    """The full verification matrix, one sub-report per (suite, signature)."""
    reports = []
    for name in SUITE_NAMES:
        for (g, m) in ALL_MATRIX[name]:
            reports.append(run_suite(name, SurfaceSignature(g, m), seed,
                                     trials=trials, dim=dim, max_len=max_len))
    return {
        "suite": "all",
        "seed": seed,
        "ok": all(r.ok for r in reports),
        "reports": [r.to_dict() for r in reports],
    }
