"""The benchmark's four workloads.

Each workload turns (seed, cycle) into a list of operations (`plan`), runs
one operation (`execute`, the only timed step), reduces its result to plain
data right after it (`settle`, untimed, so that results kept for checking do
not hold on to a cycle's objects) and checks it (`verdicts`, after the timed
region).  Every operation belongs to a slot: operations of one slot have the
same kind and input shape and differ only in seeded content, so their times
are comparable across cycles and seeds.

Input shapes (word lengths, generators, trial counts) are fixed and only
their content is seeded, because the cost of an exact computation here
depends far more on the shape of its input than on anything else; shapes that
vary with the seed would make run-to-run spread swamp any real change.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from surfqp import cli, evaluation, suites
from surfqp.algebra import m2
from surfqp.dbracket import dbl_from_pairing, project_cyclic, triple_e
from surfqp.foxpairing import SurfaceFoxPairing, rho_1, transpose_apply
from surfqp.repalgebra import RepAlgebra
from surfqp.words import (SurfaceSignature, Word, boundary_word, format_cyclic,
                          format_word, parse_word)


@dataclass(frozen=True)
class Op:
    slot: str
    inputs: tuple          # plain description of the inputs, compared across seeds
    args: tuple = ()       # objects handed to execute (may share state in a cycle)
    probe: bool = False    # robustness probe: counted in attempted/failed only


@dataclass
class Failure:
    """An operation that raised instead of returning."""
    error: str


def suite_seed(seed: int, cycle: int) -> int:
    return seed * 1000 + cycle


# Checks that pass by finding a mismatch at one sampled point.  At a
# degenerate point there is none to find (`verify aksm --genus 1 --punctures 1
# --seed 64000` samples z1 = -I, where the fusion terms vanish), so their
# failure counts as a failed operation but not as a wrong answer.
WITNESS_SEARCHES = ("fusion-coupling-required", "non-moment-rejected")


def _report_verdicts(report) -> list[Optional[str]]:
    out = []
    for check in report.checks:
        if check.ok:
            out.append(None)
        elif check.name in WITNESS_SEARCHES:
            out.append(f"no-witness:{check.name}")
        else:
            out.append(f"wrong:{check.name}")
    return out


def _report_print(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


# --- verify workloads: whole suite cells ----------------------------------------

class GroupShort:
    """The fox, double and quasi-poisson cells of `verify all`: hundreds of
    words of at most 4 letters against one bracket object per cell, so the
    double-bracket memo is hit and no Poly is built."""

    name = "group-short"
    CELLS = tuple((name, sig) for name in ("fox", "double", "quasi-poisson")
                  for sig in suites.ALL_MATRIX[name])
    TRIALS = 50  # a quarter of the default, so that a run holds several cycles

    def plan(self, seed: int, cycle: int) -> list[Op]:
        s = suite_seed(seed, cycle)
        return [Op(f"{name}{g},{m}", (name, g, m, s)) for name, (g, m) in self.CELLS]

    def execute(self, op: Op):
        name, g, m, s = op.inputs
        return suites.run_suite(name, SurfaceSignature(g, m), s, trials=self.TRIALS)

    def verdicts(self, op: Op, result) -> list[Optional[str]]:
        return _report_verdicts(result)

    def fingerprint(self, op: Op, result) -> str:
        return _report_print(result)


def power_formula(alg: RepAlgebra, mu: Word, a: Word, m: int,
                  i: int, j: int, u: int, v: int, inverse: bool):
    """The displayed entry formula for {(mu^{+-m})_ij, a_uv}, one-based
    indices, written out from entries only (reference for the moment ops)."""
    w = mu.inverse() if inverse else mu
    sign = -1 if inverse else 1
    out = alg.zero()
    for k in range(m + 1):
        weight = sign * (1 if k in (0, m) else 2)
        wk, wrest = w ** k, w ** (m - k)
        out = out + (alg.entry(a * wk, u, j) * alg.entry(wrest, i, v)).scale(weight)
        out = out - (alg.entry(wk, u, j) * alg.entry(wrest * a, i, v)).scale(weight)
    return out


class MomentSymbolic:
    """The symbolic checks of the moment and rep-suite cells at dimension 2:
    entry brackets of powers of the boundary word, by the derivation route,
    the tensor route and the displayed formula, plus whole rep-suite cells.
    Poly and repalgebra dominate; evaluation is never called."""

    name = "moment-symbolic"
    DIM = 2
    REP_TRIALS = 10
    # signature -> (powers for the power formula, powers for the derivation route)
    # (operations past about half a second are left out: the machine's speed
    # can change within one, which the reference kernel around it misses)
    MOMENT = {(1, 0): ((1, 2, 3), (1, 2)),
              (0, 2): ((1, 2, 3), (1, 2, 3)),
              (1, 1): ((1, 2), (1,))}

    def plan(self, seed: int, cycle: int) -> list[Op]:
        # The moment ops are the same in every cycle and for every seed: their
        # cost moves by up to 2x with the probe word and the entry indices,
        # which at a few samples per run would swamp any real change.  The
        # seed drives the rep-suite cells.
        combos = itertools.cycle(itertools.product(range(1, self.DIM + 1), repeat=4))
        ops = []
        for (g, m), (powers, routes) in self.MOMENT.items():
            sig = SurfaceSignature(g, m)
            alg = RepAlgebra(sig, self.DIM)  # shared by this cell's ops, as in a suite cell
            mu = boundary_word(sig)
            a = Word(((0, 1), (1, -1)))
            tag = f"({g},{m})"
            for p in powers:
                for inverse in (False, True):
                    idx = next(combos)
                    desc = ("power", g, m, p, inverse, format_word(a, sig), idx)
                    ops.append(Op(f"power{tag}{'-' if inverse else '+'}{p}", desc,
                                  ("power", alg, mu, a, p, inverse, idx)))
            for p in routes:
                idx = next(combos)
                desc = ("route", g, m, p, format_word(a, sig), idx)
                ops.append(Op(f"route{tag}{p}", desc, ("route", alg, mu, a, p, False, idx)))
        s = suite_seed(seed, cycle)
        for g, m in suites.REP_SIGNATURES:
            ops.append(Op(f"rep-suite{g},{m}", ("rep-suite", g, m, s)))
        return ops

    def execute(self, op: Op):
        if op.inputs[0] == "rep-suite":
            _, g, m, s = op.inputs
            return suites.run_suite("rep-suite", SurfaceSignature(g, m), s,
                                    trials=self.REP_TRIALS, dim=self.DIM)
        kind, alg, mu, a, p, inverse, (i, j, u, v) = op.args
        word = mu ** (-p) if inverse else mu ** p
        lhs = alg.qp_bracket_entries(word, i, j, a, u, v)
        if kind == "power":
            rhs = power_formula(alg, mu, a, p, i, j, u, v, inverse)
        else:
            rhs = alg.qp_bracket(alg.entry(word, i, j), alg.entry(a, u, v))
        return alg, lhs, rhs

    def settle(self, op: Op, result):
        if op.inputs[0] == "rep-suite":
            return result
        alg, lhs, rhs = result
        return lhs == rhs, json.dumps([alg.to_json(lhs), alg.to_json(rhs)], sort_keys=True)

    def verdicts(self, op: Op, result) -> list[Optional[str]]:
        if op.inputs[0] == "rep-suite":
            return _report_verdicts(result)
        return [None if result[0] else "wrong:routes-differ"]

    def fingerprint(self, op: Op, result) -> str:
        if op.inputs[0] == "rep-suite":
            return _report_print(result)
        return result[1]


class AksmPoints:
    """The aksm cells at dimension 2: the derivation-rule bracket against the
    fused bivector at seeded rational points (compare_constructions), the
    symbolic leg, and one seeded two-letter word pair per signature."""

    name = "aksm-points"
    DIM = 2
    POINTS = 1

    def plan(self, seed: int, cycle: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}:{cycle}")
        s = suite_seed(seed, cycle)
        ops = []
        for g, m in suites.AKSM_SIGNATURES:
            sig = SurfaceSignature(g, m)
            ops.append(Op(f"aksm{g},{m}", ("cell", g, m, s)))
            x, y = rng.sample(range(sig.rank), 2) if sig.rank > 1 else (0, 0)
            w = Word(((x, 1), (y, 1)))
            ops.append(Op(f"words{g},{m}", ("words", g, m, s, format_word(w, sig)),
                          (sig, w)))
        return ops

    def execute(self, op: Op):
        kind, g, m, s = op.inputs[:4]
        if kind == "cell":
            return suites.aksm_suite(SurfaceSignature(g, m), self.DIM, self.POINTS, s,
                                     extra_word_pairs=0)
        sig, w = op.args
        return evaluation.compare_constructions(sig, self.DIM, self.POINTS, s,
                                                extra_words=[(w, w.inverse())])

    def verdicts(self, op: Op, result) -> list[Optional[str]]:
        if op.inputs[0] == "cell":
            return _report_verdicts(result)
        return [None if result.ok else "wrong:pointwise-agreement"]

    def fingerprint(self, op: Op, result) -> str:
        return json.dumps(result.to_dict(), sort_keys=True)


# --- long-words: in-process CLI calls -------------------------------------------

def _random_word(rng: random.Random, sig: SurfaceSignature, length: int) -> str:
    """A reduced word of exactly `length` letters, in the CLI grammar."""
    letters: list[tuple[int, int]] = []
    while len(letters) < length:
        letter = (rng.randrange(sig.rank), rng.choice((1, -1)))
        if letters and letters[-1] == (letter[0], -letter[1]):
            continue
        letters.append(letter)
    return "*".join(sig.gen_name(g) + ("" if e > 0 else "^-1") for g, e in letters)


def _canon(x, fmt) -> dict:
    """A sparse surfqp object as {tuple of formatted keys: Fraction}."""
    out = {}
    for key, c in x.items():
        keys = key if isinstance(key, tuple) else (key,)
        out[tuple(fmt(k) for k in keys)] = Fraction(c)
    return out


def _canon_json(terms: list) -> dict:
    """CLI JSON output in the same form as `_canon`."""
    out = {}
    for term in terms:
        keys = term.get("words") or [term.get("word", term.get("class"))]
        out[tuple(keys)] = Fraction(term["coeff"])
    return out


class LongWords:
    """In-process `surfqp.cli.main` calls with stdout captured: eta, eta-s,
    dbl-s and goldman on powers p1^n against q1 and on seeded random reduced
    pairs, plus triple on seeded short words.  Every call builds fresh
    objects, as a CLI user's does.  Once per run each command also gets
    p1^1200, past the recursion limit: a robustness probe, counted in
    attempted and failed but not in the timings."""

    name = "long-words"
    GENUS, PUNCTURES = 1, 1
    COMMANDS = ("eta", "eta-s", "dbl-s", "goldman")
    POWERS = (16, 32, 64, 128)
    PAST_LIMIT = 1200
    RANDOM_LENGTHS = (8, 12, 16, 24)
    TRIPLE_LENGTHS = (4, 5, 6)

    def __init__(self):
        self.sig = SurfaceSignature(self.GENUS, self.PUNCTURES)

    def plan(self, seed: int, cycle: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}:{cycle}")
        sig = self.sig
        ops = []
        for cmd in self.COMMANDS:
            # the handle pair: a power against a letter it does not pair with
            # costs a tenth as much, so the letter is fixed rather than drawn
            for n in self.POWERS:
                ops.append(Op(f"{cmd}:pow{n}", (cmd, f"p1^{n}", "q1")))
            if cycle == 0:  # once per run, so the failure count does not grow with speed
                ops.append(Op(f"{cmd}:pow{self.PAST_LIMIT}",
                              (cmd, f"p1^{self.PAST_LIMIT}", "q1"), probe=True))
            for n in self.RANDOM_LENGTHS:
                ops.append(Op(f"{cmd}:rand{n}", (
                    cmd, _random_word(rng, sig, n), _random_word(rng, sig, n))))
        for n in self.TRIPLE_LENGTHS:
            ops.append(Op(f"triple:rand{n}", (
                "triple", *(_random_word(rng, sig, n) for _ in range(3)))))
        return ops

    def execute(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*op.inputs, "--genus", str(self.GENUS),
                              "--punctures", str(self.PUNCTURES)])
        return code, out.getvalue()

    def verdicts(self, op: Op, result) -> list[Optional[str]]:
        code, text = result
        if code != 0:
            return [f"exit{code}"]
        try:
            want = self._expected(op)
        except Exception as exc:  # the oracle itself failed: no verified answer
            return [f"unverified:{type(exc).__name__}"]
        return [None if _canon_json(json.loads(text)) == want else "wrong:oracle-differs"]

    def _expected(self, op: Op) -> dict:
        """The answer by an independent route, in `_canon` form."""
        sig = self.sig
        cmd = op.inputs[0]
        words = [parse_word(text, sig) for text in op.inputs[1:]]
        fmt = lambda w: format_word(w, sig)
        eta = SurfaceFoxPairing(sig)
        if cmd == "triple":
            return _canon(triple_e(*words), fmt)
        a, b = words
        if cmd == "eta":
            # transpose-sum identity: eta(a,b) + eta^t(a,b) = -rho_1(a,b)
            return _canon(-(rho_1(a, b) + transpose_apply(eta, a, b)), fmt)
        if cmd == "eta-s":
            # skew symmetry: eta^s(a,b) = -a S(eta^s(b,a)) b
            return _canon(-transpose_apply(eta.skew, a, b), fmt)
        oracle = dbl_from_pairing(eta.skew, a, b)
        if cmd == "dbl-s":
            return _canon(oracle, fmt)
        return _canon(project_cyclic(m2(oracle)).scale(Fraction(1, 2)),
                      lambda cw: format_cyclic(cw, sig))

    def fingerprint(self, op: Op, result) -> str:
        return json.dumps(list(result))


WORKLOADS = {w.name: w for w in (GroupShort, LongWords, MomentSymbolic, AksmPoints)}


def make(name: str):
    return WORKLOADS[name]()


def execute(workload, op: Op) -> Any:
    """Run one operation; an exception becomes a Failure naming its class."""
    try:
        return workload.execute(op)
    except Exception as exc:
        return Failure(type(exc).__name__)


def settle(workload, op: Op, result) -> Any:
    """The result as the data kept for checking; drops the op's objects."""
    if isinstance(result, Failure) or not hasattr(workload, "settle"):
        return result
    return workload.settle(op, result)


def verdicts(workload, op: Op, result) -> list[Optional[str]]:
    if isinstance(result, Failure):
        return [result.error]
    return workload.verdicts(op, result)


def fingerprint(workload, op: Op, result) -> str:
    if isinstance(result, Failure):
        return f"failure:{result.error}"
    return workload.fingerprint(op, result)
