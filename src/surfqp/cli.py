"""Command-line front end.

Computation subcommands print canonical JSON; verification subcommands
print one line per check (or a JSON report with --json).  Exit codes:
0 success, 1 a verified property failed (a JSON witness is printed),
2 malformed input (message carries the offending position).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .algebra import AlgElem, Tensor2, Tensor3
from .dbracket import CyclicAlgElem, SurfaceDoubleBracket, goldman, triple
from .evaluation import RepPoint, evaluate
from .matrices import mat
from .foxpairing import SurfaceFoxPairing
from .repalgebra import RepAlgebra, RepElem
from .suites import DEFAULT_TRIALS, MOMENT_POWERS, SUITE_NAMES, moment_suite, run_all, run_suite
from .words import (CyclicWord, SurfaceSignature, WordParseError, format_cyclic,
                    format_word, parse_word)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _print_answer(build: Callable[[], object]) -> int:
    """Print the JSON of build() in full.  Python's limit on int-to-str digits
    guards the reading of input, so it is lifted only while an exact answer
    is formatted."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        print(_dumps(build()))
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def alg_elem_json(x: AlgElem, sig: SurfaceSignature) -> list:
    terms = [{"coeff": str(c), "word": format_word(w, sig)} for w, c in x.items()]
    return sorted(terms, key=lambda t: t["word"])


def tensor_json(t: Tensor2 | Tensor3, sig: SurfaceSignature) -> list:
    terms = [{"coeff": str(c), "words": [format_word(w, sig) for w in key]}
             for key, c in t.items()]
    return sorted(terms, key=lambda term: term["words"])


def cyclic_json(x: CyclicAlgElem, sig: SurfaceSignature) -> list:
    terms = [{"class": format_cyclic(cw, sig), "coeff": str(c)} for cw, c in x.items()]
    return sorted(terms, key=lambda t: t["class"])


# --- expression grammar -----------------------------------------------------

class ExprParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<entry>[pqz][0-9]+_[0-9]+_[0-9]+)
  | (?P<trcall>tr\([^)]*\))
  | (?P<detcall>det\([^)]*\))
  | (?P<gen>[pqz][0-9]+)
  | (?P<num>[0-9]+(?:/[0-9]+)?)
  | (?P<sym>[()*+^-])
""", re.VERBOSE)


# longest run of digits an expression may hold, Python's default limit on
# int <-> str conversion: a longer number is refused at its position
MAX_DIGITS = 4300
_DIGITS = re.compile(r"[0-9]+")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            for run in _DIGITS.finditer(text, pos, m.end()):
                if run.end() - run.start() > MAX_DIGITS:
                    raise ExprParseError(f"number longer than {MAX_DIGITS} digits", run.start())
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


# largest exponent k in an expression's x^k, checked before multiplying
MAX_EXPONENT = 100_000
# deepest nesting of parentheses and unary minus signs; each level costs the
# recursive parser up to four stack frames, and this keeps it well inside
# Python's default recursion limit of 1000
_MAX_NESTING = 200


class _ExprParser:
    """expr := term (('+'|'-') term)*, term := factor ('*' factor)*,
    factor := '-'? atom, atom := rational | entry | tr(word) | det(gen)
    | '(' expr ')'."""

    def __init__(self, text: str, alg: RepAlgebra):
        self.text = text
        self.alg = alg
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def enter(self, pos: int):
        """Open one more level of nesting at pos; the caller closes it."""
        if self.depth == _MAX_NESTING:
            raise ExprParseError(f"expression nested deeper than {_MAX_NESTING} levels", pos)
        self.depth += 1

    def expect(self, value: str):
        kind, text, pos = self.next()
        if text != value:
            raise ExprParseError(f"expected {value!r}", pos)

    def parse(self) -> RepElem:
        out = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ExprParseError(f"unexpected trailing {text!r}", pos)
        return out

    def expr(self) -> RepElem:
        out = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> RepElem:
        out = self.factor()
        while self.peek()[1] == "*":
            self.next()
            out = out * self.factor()
        return out

    def factor(self) -> RepElem:
        if self.peek()[1] == "-":
            self.enter(self.next()[2])
            out = -self.factor()
            self.depth -= 1
            return out
        out = self.atom()
        if self.peek()[1] == "^":
            _, _, pos = self.next()
            kind, text, npos = self.next()
            if kind != "num" or "/" in text:
                raise ExprParseError("exponent must be a nonnegative integer", npos)
            power = int(text)
            if power > MAX_EXPONENT:
                raise ExprParseError(f"exponent larger than {MAX_EXPONENT}", npos)
            # square and multiply, never squaring past the top bit of the
            # exponent: an extra square could overflow a Poly exponent field
            # that the answer itself fits in
            result = self.alg.one()
            while power:
                if power & 1:
                    result = result * out
                power >>= 1
                if power:
                    out = out * out
            return result
        return out

    def atom(self) -> RepElem:
        kind, text, pos = self.next()
        alg = self.alg
        sig = alg.sig
        if kind == "num":
            try:
                return alg.scalar(Fraction(text))
            except ZeroDivisionError:
                raise ExprParseError("zero denominator", pos) from None
        if kind == "entry":
            name, i, j = text.rsplit("_", 2)
            try:
                u = sig.gen_index(name)
            except KeyError:
                raise ExprParseError(f"unknown generator {name!r}", pos) from None
            i, j = int(i), int(j)
            if not (1 <= i <= alg.dim and 1 <= j <= alg.dim):
                raise ExprParseError(f"entry index out of range for dim {alg.dim}", pos)
            return alg.sym(u, i - 1, j - 1)
        if kind == "trcall":
            inner = text[3:-1]
            try:
                w = parse_word(inner, sig)
            except WordParseError as exc:
                raise ExprParseError(exc.message, pos + 3 + exc.position) from None
            return alg.trace(w)
        if kind == "detcall":
            name = text[4:-1].strip()
            try:
                u = sig.gen_index(name)
            except KeyError:
                raise ExprParseError(f"unknown generator {name!r} in det()", pos) from None
            return RepElem(alg, alg.det_poly(u), alg.zero_den)
        if text == "(":
            self.enter(pos)
            out = self.expr()
            self.expect(")")
            self.depth -= 1
            return out
        if kind == "gen":
            raise ExprParseError(
                f"bare generator {text!r}; use an entry like {text}_1_1 or tr({text})", pos)
        raise ExprParseError(f"unexpected {text!r}", pos)


def parse_expression(text: str, alg: RepAlgebra) -> RepElem:
    return _ExprParser(text, alg).parse()


def load_rep_point(path: str, sig: SurfaceSignature, dim: int) -> RepPoint:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_int=str)  # _point_entry bounds the digits before int()
        except RecursionError:
            raise ValueError("point file: JSON nested too deeply") from None
    if not isinstance(data, list) or len(data) != sig.rank:
        raise ValueError(f"point file must hold {sig.rank} matrices")
    mats = []
    for u, m in enumerate(data):
        if not isinstance(m, list) or len(m) != dim:
            raise ValueError(f"point file: matrix {u} must be a list of {dim} rows")
        for i, row in enumerate(m):
            if not isinstance(row, list) or len(row) != dim:
                raise ValueError(f"point file: matrix {u}, row {i} must be a list of {dim} entries")
        mats.append(mat([[_point_entry(x, u, i, j) for j, x in enumerate(row)]
                         for i, row in enumerate(m)]))
    return RepPoint(tuple(mats))


# largest decimal exponent, in magnitude, of a point-file entry: Fraction("1e100000000")
# would build 10**100000000 before anything could refuse it
MAX_DECIMAL_EXPONENT = 4300
# a number and the exponent as Fraction reads them: Unicode digits, single underscores between
_NUMBER = re.compile(r"\d+(?:_\d+)*")
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def _point_entry(x, u: int, i: int, j: int) -> Fraction:
    where, text = f"point file: matrix {u}, row {i}, entry {j}", str(x)
    if any(len(n) - n.count("_") > MAX_DIGITS for n in _NUMBER.findall(text)):
        raise ValueError(f"{where} has a number longer than {MAX_DIGITS} digits")
    if (exp := _EXPONENT.search(text)) and (digits := exp[1].lstrip("0_")):
        if len(digits) > 8 or int(digits.replace("_", "")) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"{where} has a decimal exponent past {MAX_DECIMAL_EXPONENT}: {x!r:.60}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{where} is not a rational: {x!r:.60}") from None


# --- commands ----------------------------------------------------------------

def _signature(args) -> SurfaceSignature:
    return SurfaceSignature(args.genus, args.punctures)


def cmd_pairing(args) -> int:
    sig = _signature(args)
    eta = SurfaceFoxPairing(sig)
    a = parse_word(args.word_a, sig)
    b = parse_word(args.word_b, sig)
    value = eta.skew(a, b) if args.command == "eta-s" else eta(a, b)
    return _print_answer(lambda: alg_elem_json(value, sig))


def cmd_dbl_s(args) -> int:
    sig = _signature(args)
    dbl = SurfaceDoubleBracket(sig)
    value = dbl(parse_word(args.word_a, sig), parse_word(args.word_b, sig))
    return _print_answer(lambda: tensor_json(value, sig))


def cmd_triple(args) -> int:
    sig = _signature(args)
    dbl = SurfaceDoubleBracket(sig)
    value = triple(dbl, parse_word(args.word_a, sig), parse_word(args.word_b, sig),
                   parse_word(args.word_c, sig))
    return _print_answer(lambda: tensor_json(value, sig))


def cmd_goldman(args) -> int:
    sig = _signature(args)
    dbl = SurfaceDoubleBracket(sig)
    value = goldman(dbl, CyclicWord.of(parse_word(args.word_a, sig)),
                    CyclicWord.of(parse_word(args.word_b, sig)))
    return _print_answer(lambda: cyclic_json(value, sig))


def cmd_rep_bracket(args) -> int:
    sig = _signature(args)
    alg = RepAlgebra(sig, args.dim)
    P = parse_expression(args.expr_a, alg)
    Q = parse_expression(args.expr_b, alg)
    value = alg.qp_bracket(P, Q)
    return _print_answer(lambda: alg.to_json(value))


def cmd_trace_bracket(args) -> int:
    sig = _signature(args)
    alg = RepAlgebra(sig, args.dim)
    a = parse_word(args.word_a, sig)
    b = parse_word(args.word_b, sig)
    value = alg.qp_bracket(alg.trace(a), alg.trace(b))
    return _print_answer(lambda: alg.to_json(value))


def cmd_ev(args) -> int:
    sig = _signature(args)
    alg = RepAlgebra(sig, args.dim)
    P = parse_expression(args.expr, alg)
    pt = load_rep_point(args.point_file, sig, args.dim)
    value = evaluate(P, pt)
    return _print_answer(lambda: {"value": str(value)})


def cmd_moment_check(args) -> int:
    sig = _signature(args)
    mu = parse_word(args.word, sig) if args.word else None
    trials = args.trials if args.trials is not None else DEFAULT_TRIALS["moment"]
    report = moment_suite(sig, args.dim, MOMENT_POWERS, trials, args.seed, mu=mu)
    return _emit_report(report.to_dict(), args.json)


def cmd_verify(args) -> int:
    if args.suite == "all":
        report = run_all(args.seed, trials=args.trials, dim=args.dim,
                         max_len=args.max_word_len)
        return _emit_report(report, args.json)
    sig = _signature(args)
    sub = run_suite(args.suite, sig, args.seed, trials=args.trials, dim=args.dim,
                    max_len=args.max_word_len)
    return _emit_report(sub.to_dict(), args.json)


def _emit_report(report: dict, as_json: bool) -> int:
    ok = report["ok"]
    if as_json:
        print(_dumps(report))
        return 0 if ok else 1
    for block in report.get("reports", [report]):
        label = block["suite"]
        params = block.get("params", {})
        where = ""
        if "genus" in params:
            where = f" (genus={params['genus']}, punctures={params['punctures']})"
        print(f"{label}{where}: {'pass' if block['ok'] else 'FAIL'}")
        for check in block.get("checks", ()):
            print(f"  {'pass' if check['ok'] else 'FAIL'}  {check['name']}")
            if not check["ok"]:
                print(f"  witness: {_dumps(check['detail'])}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _int_at_least(low: int):
    """argparse type: an int no smaller than low, else a usage error (exit 2)."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return integer


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--genus", type=int, default=1, help="surface genus (default 1)")
    common.add_argument("--punctures", type=int, default=1,
                        help="boundary components beyond the based one (default 1)")
    common.add_argument("--dim", type=_int_at_least(1), default=2,
                        help="matrix size N (default 2)")
    common.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    common.add_argument("--trials", type=_int_at_least(1), default=None,
                        help="override per-suite trial counts")
    common.add_argument("--max-word-len", type=_int_at_least(0), default=4,
                        help="sampled word length bound (default 4)")
    common.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON reports")

    parser = argparse.ArgumentParser(
        prog="surfqp",
        description="Exact quasi-Poisson brackets on surface representation spaces.")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, func, help_text: str):
        p = subs.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        return p

    p = sub("eta", cmd_pairing, "homotopy intersection pairing of two words")
    p.add_argument("word_a")
    p.add_argument("word_b")
    p = sub("eta-s", cmd_pairing, "skew-symmetrized pairing of two words")
    p.add_argument("word_a")
    p.add_argument("word_b")
    p = sub("dbl-s", cmd_dbl_s, "surface double bracket of two words")
    p.add_argument("word_a")
    p.add_argument("word_b")
    p = sub("triple", cmd_triple, "triple bracket of three words")
    p.add_argument("word_a")
    p.add_argument("word_b")
    p.add_argument("word_c")
    p = sub("goldman", cmd_goldman, "Goldman bracket of two conjugacy classes")
    p.add_argument("word_a")
    p.add_argument("word_b")
    p = sub("rep-bracket", cmd_rep_bracket, "quasi-Poisson bracket of two expressions")
    p.add_argument("expr_a")
    p.add_argument("expr_b")
    p = sub("trace-bracket", cmd_trace_bracket, "bracket of two trace functions")
    p.add_argument("word_a")
    p.add_argument("word_b")
    p = sub("ev", cmd_ev, "evaluate an expression at a rational point")
    p.add_argument("expr")
    p.add_argument("point_file")
    p = sub("moment-check", cmd_moment_check, "verify the moment-map identities")
    p.add_argument("--word", default=None,
                   help="candidate moment word (default: the boundary word)")
    p = sub("verify", cmd_verify, "run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES + ("all",))
    return parser


_parser: Optional[argparse.ArgumentParser] = None  # built by the first main call


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:  # parse and JSON errors are ValueErrors
        print(f"surfqp: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("surfqp: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
