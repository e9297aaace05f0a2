#!/usr/bin/env python3
"""Mutation check of the test suite, run from the root of a checkout:

    python3 tools/mutants.py    # every row, about two and a half minutes on 2 cores

Each row of MUTANTS names a source file, an exact snippet in it, the
snippet's replacement, and the pytest node ids expected to fail once the
replacement is made.  For each row the runner copies src/, tests/ and
pyproject.toml to a temporary directory, makes that one edit there and runs
the row's tests with `pytest -x`.  It prints one line per row:

    KILLED    a listed test failed (or the run hung past ROW_TIMEOUT_S)
    SURVIVED  every listed test passed, so the tests miss the mutant
    STALE     the snippet is not in the file exactly once, or pytest could
              not run the listed tests (a renamed test, a collection error)

Before the rows, every listed test runs once on an unmutated copy; when one
of them fails there, no row can be read, and the runner stops.  Exits 0 when
every row is KILLED and 1 otherwise.  Standard library only, and not a
pytest file, so the test suite never collects it.

A later change that claims a mutant is caught adds a row here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2  # rows run at once, one pytest process each
ROW_TIMEOUT_S = 240

EVAL = "tests/test_evaluation.py"


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # the pointwise AKSM comparison and its two routes
    Mutant("cross-multiplication drops E_b", "src/surfqp/evaluation.py",
           "B[x][y] * ea * eb !=", "B[x][y] * ea !=",
           (f"{EVAL}::test_agreeing_pairs_build_no_fraction",)),
    Mutant("D_Q dropped from a pair's denominator", "src/surfqp/evaluation.py",
           "D_P * D_Q)", "D_P)",
           (f"{EVAL}::test_bivector_bracket_matches_golden",)),
    Mutant("B transposed", "src/surfqp/evaluation.py",
           "B[n][m] = sum(", "B[m][n] = sum(",
           (f"{EVAL}::test_compare_constructions_passes",)),
    Mutant("flipped wedge sign in the fold table", "src/surfqp/evaluation.py",
           "to_w.append((at_v, -t.coeff))", "to_w.append((at_v, t.coeff))",
           (f"{EVAL}::test_compare_constructions_passes",)),
    Mutant("the flat lists skip each coordinate's last nonzero entry",
           "src/surfqp/evaluation.py",
           "[*compress(count(), f)], [*filter(None, f)]",
           "[*compress(count(), f)][:-1], [*filter(None, f)][:-1]",
           (f"{EVAL}::test_compare_constructions_passes",)),
    Mutant("a source block feeds only its first destination", "src/surfqp/evaluation.py",
           "for to, c in blocks[b]:", "for to, c in blocks[b][:1]:",
           (f"{EVAL}::test_fold_table_is_the_term_by_term_fold",)),
    Mutant("the point check reads the rank only", "src/surfqp/evaluation.py",
           'sig.rank or dims not in ("", str(dim)):', "sig.rank:",
           (f"{EVAL}::test_a_point_off_the_space_is_refused",)),
    Mutant("dropped fusion coupling", "src/surfqp/evaluation.py",
           "for k in range(1, len(factors)):", "for k in range(2, len(factors)):",
           (f"{EVAL}::test_compare_constructions_passes",)),
    Mutant("an inverse letter read as the transposed adjugate", "src/surfqp/evaluation.py",
           "letters = {c: mat_det_adj(x[ord(c) >> 1])[1] if",
           "letters = {c: tuple(zip(*mat_det_adj(x[ord(c) >> 1])[1])) if",
           (f"{EVAL}::test_integer_gradient_matches_the_fraction_gradient",)),
    Mutant("partials not raised to the common denominator", "src/surfqp/evaluation.py",
           "k, left, right = prod(dets[v] for v in inverted), pre[t], suf[t + 1]",
           "k, left, right = 1, pre[t], suf[t + 1]",
           (f"{EVAL}::test_fox_gradient_is_the_gradient_of_the_symbolic_entry",)),
    Mutant("an inverse letter's Fox gradient has the wrong sign", "src/surfqp/evaluation.py",
           "k, left, right = -prod(dets[v] for v in inverted if v != u)",
           "k, left, right = prod(dets[v] for v in inverted if v != u)",
           (f"{EVAL}::test_fox_gradient_is_the_gradient_of_the_symbolic_entry",)),
    Mutant("W1 and W2 swapped on the bracket side", "src/surfqp/evaluation.py",
           "cuts = [(c, cut(pre_v, jc, suf_w, ic), cut(pre_w, ic, suf_v, jc))",
           "cuts = [(c, cut(pre_w, ic, suf_v, jc), cut(pre_v, jc, suf_w, ic))",
           (f"{EVAL}::test_pointwise_derivation_bracket_is_the_symbolic_bracket_evaluated",)),
    Mutant("the walk checks only the first point", "src/surfqp/evaluation.py",
           "reports[p].ok and k < t]", "reports[p].ok and k < 1]",
           (f"{EVAL}::test_fusion_coupling_search_passes_a_degenerate_point",)),
    Mutant("zero-block test reads one row of G", "src/surfqp/evaluation.py",
           "if not any(map(any, G)):", "if not any(G[0]):",
           (f"{EVAL}::test_fields_are_the_dense_formula_on_every_slot",)),
    Mutant("fusion search runs with the fused bivector", "src/surfqp/suites.py",
           "nofuse = build_fusion_bivector(sig, dim, with_fusion_terms=False)", "nofuse = biv",
           (f"{EVAL}::test_fusion_coupling_search_passes_a_degenerate_point",)),
    # the symbolic leg of the aksm suite
    Mutant("table bracket's arguments swapped", "src/surfqp/suites.py",
           "alg.gen_bracket((u, i, j), (v, k, l))",
           "alg.gen_bracket((v, k, l), (u, i, j))",
           (f"{EVAL}::test_symbolic_leg_pairs_the_table_brackets",)),
    Mutant("covector_sym files V(f_rs) at (r, s), not (s, r)", "src/surfqp/evaluation.py",
           "cov.setdefault((partner, (s, r)), [])", "cov.setdefault((partner, (r, s)), [])",
           ("tests/test_product_kernel.py::test_symbolic_fields_print_the_reference_bytes",)),
    Mutant("covector_sym drops the -coeff half of each term", "src/surfqp/evaluation.py",
           "((t.coeff, on[v], w), (-t.coeff, on[w], v)):", "((t.coeff, on[v], w),):",
           (f"{EVAL}::test_symbolic_agreement_torus_and_annulus",)),
    Mutant("fields_sym's C side drops its R part", "src/surfqp/evaluation.py",
           "sums.keys() & {(u, side), (u, CONJ)}:",
           "sums.keys() & {(u, side), (u, CONJ if side == L else side)}:",
           (f"{EVAL}::test_every_symbolic_field_is_the_pointwise_field",)),
    Mutant("run_suite accepts zero trials", "src/surfqp/suites.py",
           "    if n < 1:\n", "    if n < 0:\n",
           ("tests/test_suites.py::test_every_suite_needs_a_trial",)),
    # words and the cut corners
    Mutant("w ** 1 is the identity", "src/surfqp/words.py",
           "return self if n else _IDENTITY", "return _IDENTITY",
           ("tests/test_words.py::test_power",)),
    Mutant("inverse keeps the letter order", "src/surfqp/words.py",
           "self[::-1].translate(_FLIP)", "self.translate(_FLIP)",
           ("tests/test_words.py::test_invert",)),
    Mutant("the inverse map leaves p1 unflipped", "src/surfqp/words.py",
           "self.setdefault(code, code ^ 1)", "self.setdefault(code, code ^ (code > 0))",
           ("tests/test_words.py::test_invert",)),
    Mutant("the sampler draws the sign before the generator", "src/surfqp/words.py",
           "        while (gen := bits(k)) >= rank:\n            pass\n"
           "        while (sign := bits(2)) > 1:\n            pass\n",
           "        while (sign := bits(2)) > 1:\n            pass\n"
           "        while (gen := bits(k)) >= rank:\n            pass\n",
           ("tests/test_words.py::test_sample_word_matches_the_randint_reference",)),
    Mutant("the generator rejection bound is off by one", "src/surfqp/words.py",
           "bits(k)) >= rank:", "bits(k)) > rank:",
           ("tests/test_words.py::test_sample_word_matches_the_randint_reference",)),
    Mutant("seam test ignores the sign", "src/surfqp/words.py",
           "ord(left[-1]) ^ 1 == ord(right[0])", "ord(left[-1]) >> 1 == ord(right[0]) >> 1",
           ("tests/test_words.py::test_join_is_the_reduced_concatenation",)),
    Mutant("off-by-one seam", "src/surfqp/words.py",
           "while k < top and", "while k < top - 1 and",
           ("tests/test_words.py::test_join_is_the_reduced_concatenation",)),
    Mutant("run regex without re.S misses runs of chr(10)", "src/surfqp/words.py",
           'r"((.)\\2+)", re.S)', 'r"((.)\\2+)")',
           ("tests/test_words.py::test_format_word_matches_the_groupby_reference",)),
    Mutant("an inverse run prints a positive exponent", "src/surfqp/words.py",
           "-n if code & 1 else n}", "n if code & 1 else n}",
           ("tests/test_words.py::test_format_word_matches_the_groupby_reference",)),
    Mutant("the pairwise fold drops an odd run out", "src/surfqp/words.py",
           "*runs[len(runs) & ~1:]]", "]",
           ("tests/test_words.py::test_parse_word_matches_the_letter_reference",)),
    Mutant("di not flipped", "src/surfqp/words.py",
           "(di ^ sx, dj ^ sy, -c if sx ^ sy else c)", "(di, dj ^ sy, -c if sx ^ sy else c)",
           ("tests/test_dbracket.py::test_corner_sums_match_letter_pair_reference",)),
    Mutant("eta's reversed-handle weights end in 1", "src/surfqp/foxpairing.py",
           '"handle^t": (1, -1, -1, 0)', '"handle^t": (1, -1, -1, 1)',
           ("tests/test_dbracket.py::test_corner_table_matches_the_list_lookup",)),
    Mutant("the bracket's generic i > j weights are the i < j ones", "src/surfqp/dbracket.py",
           '">": (1, -1, -1, 1)}', '">": (-1, 1, 1, -1)}',
           ("tests/test_dbracket.py::test_corner_table_matches_the_list_lookup",)),
    Mutant("pair_kind calls a reversed handle pair a handle", "src/surfqp/words.py",
           'return "handle" if i < j else "handle^t"', 'return "handle"',
           ("tests/test_dbracket.py::test_corner_table_matches_the_list_lookup",)),
    Mutant("a longest run that starts at the last letter is skipped", "src/surfqp/words.py",
           "n + run - 1)) >= 0", "n + run - 2)) >= 0",
           ("tests/test_words.py::test_least_rotation_is_the_least_of_all_rotations",)),
    Mutant("a word's counit is 0", "src/surfqp/words.py",
           "    def counit(self) -> int:\n        return 1\n",
           "    def counit(self) -> int:\n        return 0\n",
           ("tests/test_algebra.py::test_a_word_is_its_one_term_element",)),
    Mutant("CyclicWord.of keeps the cancelling end pairs", "src/surfqp/words.py",
           "        k = _end_pairs(word)\n", "        k = 0\n",
           ("tests/test_words.py::test_cyclic_normal_form_matches_the_old_code",)),
    Mutant("parse_word reads an exponent of any length", "src/surfqp/words.py",
           'int(digits or "0") if len(digits) <= _LETTER_DIGITS else MAX_WORD_LETTERS + 1',
           'int(digits or "0")',
           ("tests/test_words.py::test_long_numbers_are_refused_before_int",)),
    Mutant("a point entry's digits are unbounded", "src/surfqp/cli.py",
           '    if any(len(n) - n.count("_") > MAX_DIGITS for n in _NUMBER.findall(text)):\n',
           "    if False:\n",
           ("tests/test_cli.py::test_ev_rejects_long_point_numbers",)),
    Mutant("a point entry's digits are ASCII runs", "src/surfqp/cli.py",
           'r"\\d+(?:_\\d+)*"', 'r"[0-9]+"',
           ("tests/test_cli.py::test_ev_counts_point_digits_as_fraction_reads_them",)),
    # coefficients and products of the group algebra
    Mutant("a sum takes any other element", "src/surfqp/algebra.py",
           "    def __add__(self, other):\n        # sums, like ==, never mix subclasses: "
           "their keys are different things\n        if type(other) is not type(self):\n"
           "            return NotImplemented\n",
           "    def __add__(self, other):\n",
           ("tests/test_algebra.py::test_sums_are_type_strict",)),
    Mutant("a str coefficient is read as a number again", "src/surfqp/algebra.py",
           "    if not isinstance(k, Fraction):\n",
           "    if isinstance(k, str):\n        k = Fraction(k)\n    elif not isinstance(k, Fraction):\n",
           ("tests/test_algebra.py::test_coefficients_are_ints_or_fractions",)),
    Mutant("AlgElem * Word scales by the word", "src/surfqp/algebra.py",
           "if isinstance(other, (AlgElem, Word)):", "if isinstance(other, AlgElem):",
           ("tests/test_algebra.py::test_elem_times_word_is_the_product",)),
    # pairings, brackets, matrices and the product kernel
    Mutant("inner_pairing drops the eps(b) correction", "src/surfqp/foxpairing.py",
           "for w, cw in (*b.items(), (one, -b.counit())))", "for w, cw in b.items())",
           ("tests/test_foxpairing.py::test_inner_pairing",)),
    Mutant("transpose_apply reads rho(v, w), not rho(w, v)", "src/surfqp/foxpairing.py",
           "for u, cu in rho(w, v).items())", "for u, cu in rho(v, w).items())",
           ("tests/test_foxpairing.py::test_transpose_fixture",)),
    Mutant("triple_e's (w, u, v) key has the wrong sign", "src/surfqp/dbracket.py",
           "((w, u, v), 1)", "((w, u, v), -1)",
           ("tests/test_dbracket.py::test_triple_e_display",)),
    Mutant("wrong triple-leg cycle", "src/surfqp/dbracket.py",
           "yield from (((k2, d1, d2), ck * cd)", "yield from (((d1, d2, k2), ck * cd)",
           ("tests/test_dbracket.py::test_triple_matches_reference_on_words",)),
    Mutant("the bracket's base reads the pair transposed", "src/surfqp/dbracket.py",
           "self._memoized(Word.generator(i), Word.generator(j))",
           "self._memoized(Word.generator(j), Word.generator(i))",
           ("tests/test_dbracket.py::test_base_is_the_cut_sum_of_two_letters",)),
    Mutant("the bracket memo is unbounded", "src/surfqp/dbracket.py",
           "lru_cache(maxsize=MEMO_LIMIT)", "lru_cache(maxsize=None)",
           ("tests/test_dbracket.py::test_bracket_memo_is_bounded",)),
    Mutant("is_quasi_poisson accepts zero trials", "src/surfqp/dbracket.py",
           "    if trials < 1:\n", "    if trials < 0:\n",
           ("tests/test_dbracket.py::test_quasi_poisson_check_needs_a_trial",)),
    Mutant("a sign in the Cayley-Hamilton adjugate", "src/surfqp/matrices.py",
           "x + k if i == j else x", "x - k if i == j else x",
           ("tests/test_matrices.py::test_det_and_adjugate_match_the_permutation_sum",)),
    Mutant("a sign in the Toeplitz column of the characteristic polynomial",
           "src/surfqp/matrices.py",
           "t.append(-sum(map(mul, row, v), zero))", "t.append(sum(map(mul, row, v), zero))",
           ("tests/test_matrices.py::test_generic_det_and_adjugate_match_the_cofactor_expansion",)),
    Mutant("kernel drops the triple's coefficient", "src/surfqp/poly.py",
           "k = c * c2", "k = c2",
           ("tests/test_product_kernel.py::test_kernel_is_the_sum_of_reference_products",)),
    Mutant("a zero filter per product in Poly.dot", "src/surfqp/poly.py",
           "            for m2, c2 in small.items():\n"
           "                k = c * c2\n"
           "                for m1, c1 in big.items():\n"
           "                    m = m1 + m2\n"
           "                    out[m] = get(m, 0) + k * c1\n",
           "            one: dict = {}\n"
           "            for m2, c2 in small.items():\n"
           "                k = c * c2\n"
           "                for m1, c1 in big.items():\n"
           "                    m = m1 + m2\n"
           "                    one[m] = one.get(m, 0) + k * c1\n"
           "            one = {m: c1 for m, c1 in one.items() if c1}\n"
           "            if reduce(or_, one, 0) & _guards:\n"
           "                raise OverflowError(\"a product exponent is too large\")\n"
           "            for m, c1 in one.items():\n"
           "                out[m] = get(m, 0) + c1\n",
           ("tests/test_product_kernel.py::test_guard_bits_on_the_kernel",)),
    Mutant("kernel keeps cancelled terms", "src/surfqp/poly.py",
           "out = {m: c for m, c in out.items() if c}", "out = dict(out)",
           ("tests/test_product_kernel.py::test_kernel_is_the_sum_of_reference_products",)),
    Mutant("the zero scan skipped", "src/surfqp/poly.py",
           "if 0 in out.values():", "if False:",
           ("tests/test_product_kernel.py::test_kernel_keys_follow_the_copying_kernel",)),
    Mutant("a product multiplies self by itself", "src/surfqp/poly.py",
           "return Poly.dot(((1, self, other),))", "return Poly.dot(((1, self, self),))",
           ("tests/test_poly.py::test_packed_poly_matches_reference",)),
    Mutant("grouping by a.den alone", "src/surfqp/repalgebra.py",
           "groups.setdefault(tuple(map(add, da, db)), [])",
           "groups.setdefault(da, [])",
           ("tests/test_product_kernel.py::test_routes_print_the_reference_bytes",)),
    Mutant("a denominator key computed once for all triples", "src/surfqp/repalgebra.py",
           "if a.den != da or b.den != db:", "if da is None:",
           ("tests/test_product_kernel.py::"
            "test_sums_from_the_first_part_print_the_bytes_of_an_empty_start",)),
    Mutant("a collect that drops its start part", "src/surfqp/repalgebra.py",
           "for pair in num.items()), first.terms)", "for pair in num.items()), {})",
           ("tests/test_product_kernel.py::"
            "test_sums_from_the_first_part_print_the_bytes_of_an_empty_start",)),
    Mutant("a one-group product sum over no determinant", "src/surfqp/repalgebra.py",
           "return RepElem(self, Poly.dot(group), den)",
           "return RepElem(self, Poly.dot(group), self.zero_den)",
           ("tests/test_product_kernel.py::"
            "test_one_group_product_sum_prints_the_bytes_of_the_many_group_path",)),
    Mutant("gen_bracket reads (w1)_ij and (w2)_kl", "src/surfqp/repalgebra.py",
           "x, y = self.column(w1, j)[k], self.column(w2, l)[i]",
           "x, y = self.column(w1, j)[i], self.column(w2, l)[k]",
           ("tests/test_repalgebra.py::test_handle_pair_display",)),
    Mutant("gen_bracket takes a table factor over a determinant", "src/surfqp/repalgebra.py",
           "if x.den != zero or y.den != zero:",
           "if False:",
           ("tests/test_repalgebra.py::"
            "test_generator_bracket_refuses_a_table_factor_over_a_determinant",)),
    Mutant("qp_bracket reads the table transposed", "src/surfqp/repalgebra.py",
           "self.gen_bracket(a, b))", "self.gen_bracket(b, a))",
           ("tests/test_repalgebra.py::test_qp_bracket_matches_flat_bracket",)),
    Mutant("a root child takes row j, not column j", "src/surfqp/repalgebra.py",
           "tuple(row[j] for row in head)", "head[j]",
           ("tests/test_repalgebra.py::test_word_matrix_shares_suffixes",)),
    Mutant("a - b adds b", "src/surfqp/repalgebra.py",
           "accumulate((self, -other))", "accumulate((self, other))",
           ("tests/test_repalgebra.py::test_sums_print_the_aligned_bytes",)),
)


def copy_tree(dst: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dst / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dst / "pyproject.toml")


def run_tests(tree: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit code on the tests in tree, or None when they hung."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=ROW_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def run_row(m: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="surfqp-mutant-") as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        source = tree / m.path
        text = source.read_text()
        if text.count(m.snippet) != 1:
            return "STALE"
        source.write_text(text.replace(m.snippet, m.replacement))
        code = run_tests(tree, m.tests)
    return {None: "KILLED", 0: "SURVIVED", 1: "KILLED"}.get(code, "STALE")


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="surfqp-mutant-") as tmp:
        copy_tree(Path(tmp))
        baseline = run_tests(Path(tmp), tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests)))
    if baseline != 0:
        print(f"the listed tests do not pass unmutated (pytest exit {baseline}); no row can be read")
        return 1
    verdicts = []
    with ThreadPoolExecutor(JOBS) as pool:
        for m, verdict in zip(MUTANTS, pool.map(run_row, MUTANTS)):
            print(f"{verdict:<8}  {m.name}  ({m.path})", flush=True)
            verdicts.append(verdict)
    print(f"{verdicts.count('KILLED')} of {len(MUTANTS)} killed in "
          f"{time.perf_counter() - start:.0f} s")
    return 0 if all(v == "KILLED" for v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
