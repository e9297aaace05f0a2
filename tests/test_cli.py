"""Command-line surface: output schemas, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from surfqp import cli
from surfqp.algebra import m2
from surfqp.cli import main
from surfqp.dbracket import dbl_from_pairing, project_cyclic
from surfqp.foxpairing import SurfaceFoxPairing, rho_1, transpose_apply
from surfqp.repalgebra import RepAlgebra, RepElem
from surfqp.suites import SUITE_NAMES
from surfqp.words import SurfaceSignature, format_cyclic, format_word, parse_word

# keep CLI runs cheap
FAST = ["--trials", "15", "--max-word-len", "3"]

# argv and the exact stdout of computation commands that together touch all
# five sparse types (group algebra, tensor square and cube, conjugacy
# classes, coordinate polynomials with det denominators); "{data}" in an
# argv stands for the tests/data directory
DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_goldman_example(capsys):
    code, out, _ = run(capsys, "goldman", "--genus", "1", "--punctures", "0", "p1", "q1")
    assert code == 0
    assert json.loads(out) == [{"class": "p1*q1", "coeff": "1"}]


def test_eta_fixture(capsys):
    code, out, _ = run(capsys, "eta", "--genus", "1", "--punctures", "1", "q1", "p1")
    assert code == 0
    assert json.loads(out) == [
        {"coeff": "-1", "word": "1"},
        {"coeff": "1", "word": "p1"},
        {"coeff": "-1", "word": "q1*p1"},
    ]


def test_eta_s_fixture(capsys):
    code, out, _ = run(capsys, "eta-s", "p1", "q1")
    assert code == 0
    assert {(t["word"], t["coeff"]) for t in json.loads(out)} == {
        ("1", "1"), ("p1", "1"), ("p1*q1", "1"), ("q1", "-1")}


def test_dbl_s_output(capsys):
    code, out, _ = run(capsys, "dbl-s", "z1", "z1")
    assert code == 0
    assert json.loads(out) == [
        {"coeff": "-1", "words": ["1", "z1^2"]},
        {"coeff": "1", "words": ["z1^2", "1"]},
    ]


def test_triple_runs(capsys):
    code, out, _ = run(capsys, "triple", "p1", "q1", "z1")
    assert code == 0
    terms = json.loads(out)
    assert terms and all(len(t["words"]) == 3 for t in terms)


def test_rep_bracket_display(capsys):
    code, out, _ = run(capsys, "rep-bracket", "--dim", "2", "p1_1_1", "q1_2_2")
    assert code == 0
    assert json.loads(out) == {
        "den": [0, 0, 0],
        "terms": [
            {"coeff": "1", "monomial": "p1_1_2*q1_2_1"},
            {"coeff": "-1", "monomial": "p1_2_1*q1_1_2"},
        ],
    }


def test_trace_bracket_dim_one(capsys):
    code, out, _ = run(capsys, "trace-bracket", "--genus", "1", "--punctures", "0",
                       "--dim", "1", "p1", "q1")
    assert code == 0
    assert json.loads(out) == {
        "den": [0, 0], "terms": [{"coeff": "2", "monomial": "p1_1_1*q1_1_1"}]}


def test_ev_command(tmp_path, capsys):
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps([
        [["1", "2"], ["0", "1"]],
        [["1", "0"], ["3", "1"]],
        [["2", "1"], ["1", "1"]],
    ]))
    code, out, _ = run(capsys, "ev", "--dim", "2", "tr(p1*q1^-1)+det(z1)", str(pt))
    assert code == 0
    assert json.loads(out) == {"value": "-3"}


def test_ev_rejects_singular_point(tmp_path, capsys):
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps([[["1", "1"], ["1", "1"]]] * 3))
    code, _, err = run(capsys, "ev", "tr(p1)", str(pt))
    assert code == 2
    assert "invertible" in err


@pytest.mark.parametrize("data,where", [
    ([5, 5, 5], "matrix 0"),
    ([[["1", "0"], ["0", "1"]], [["1", "0"], 5], [["1", "0"], ["0", "1"]]], "matrix 1, row 1"),
    ([[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]], [["1", "x"], ["0", "1"]]],
     "matrix 2, row 0, entry 1"),
    ([[["1/0", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]],
     "matrix 0, row 0, entry 0"),
    # exponents past the bound, refused before Fraction builds 10**5000
    ([[["1", "0"], ["0", "1"]], [["1e5000", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]],
     "matrix 1, row 0, entry 0 has a decimal exponent past 4300"),
    ([[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1e-5000"]]],
     "matrix 2, row 1, entry 1 has a decimal exponent past 4300"),
])
def test_ev_rejects_malformed_point(tmp_path, capsys, data, where):
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps(data))
    code, out, err = run(capsys, "ev", "--dim", "2", "tr(p1)", str(pt))
    assert code == 2 and out == ""
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize("entry", ["7" * 5000, '"' + "7" * 5000 + '"', '"1/' + "7" * 5000 + '"'],
                         ids=["bare integer", "integer string", "denominator"])
def test_ev_rejects_long_point_numbers(tmp_path, capsys, entry):
    # int() refuses a string of more than 4300 digits: the entry is refused before it
    pt = tmp_path / "pt.json"
    pt.write_text(f'[[["1", "0"], ["0", "1"]], [["1", "0"], [{entry}, "1"]], [["1", "0"], ["0", "1"]]]')
    code, out, err = run(capsys, "ev", "--dim", "2", "tr(p1)", str(pt))
    assert code == 2 and out == ""
    assert "point file: matrix 1, row 1, entry 0 has a number longer than 4300 digits" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entry", ["_".join("7" * 4401), "٧" * 5000],
                         ids=["underscores", "arabic-indic digits"])
def test_ev_counts_point_digits_as_fraction_reads_them(tmp_path, capsys, entry):
    # Fraction reads both as one number of more than 4300 digits
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps([[[entry]]]))
    code, out, err = run(capsys, "ev", "--dim", "1", "--genus", "0", "--punctures", "1",
                         "tr(z1)", str(pt))
    assert code == 2 and out == ""
    assert "point file: matrix 0, row 0, entry 0 has a number longer than 4300 digits" in err
    assert len(err) < 300


def test_ev_echoes_a_long_bad_entry_cut_short(tmp_path, capsys):
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps([[["7" * 4000 + "x"]]]))
    code, out, err = run(capsys, "ev", "--dim", "1", "--genus", "0", "--punctures", "1",
                         "tr(z1)", str(pt))
    assert code == 2 and out == ""
    assert "point file: matrix 0, row 0, entry 0 is not a rational: '777" in err
    assert len(err) < 300


@pytest.mark.parametrize("entry,value", [("٧", "7"), ("1_000", "1000"),
                                         ("٧/٣", "7/3")])
def test_ev_reads_entries_as_fraction_does(tmp_path, capsys, entry, value):
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps([[[entry]]]))
    code, out, err = run(capsys, "ev", "--dim", "1", "--genus", "0", "--punctures", "1",
                         "tr(z1)", str(pt))
    assert code == 0 and err == ""
    assert json.loads(out) == {"value": value}


def test_ev_reads_a_4300_digit_entry(tmp_path, capsys):
    pt = tmp_path / "pt.json"
    big = "7" * 4300
    pt.write_text(f'[[[{big}, 0], [0, 1]], [["1/{big}", "0"], ["0", "1"]], [[1, 0], [0, 1]]]')
    code, out, err = run(capsys, "ev", "--dim", "2", "tr(p1) + tr(q1)", str(pt))
    assert code == 0 and err == ""
    assert json.loads(out) == {"value": unlimited(str, Fraction(int(big) + 2) + Fraction(1, int(big)))}


def test_ev_rejects_deeply_nested_point_file(tmp_path, capsys):
    # json.load recurses once per bracket and would overflow the stack
    pt = tmp_path / "pt.json"
    pt.write_text("[" * 100_000)
    code, out, err = run(capsys, "ev", "--dim", "2", "tr(p1)", str(pt))
    assert code == 2 and out == ""
    assert "point file:" in err and "Traceback" not in err


@pytest.mark.parametrize("text,position", [
    ("(" * 250 + "p1_1_1" + ")" * 250, 200),
    ("-" * 1000 + "p1_1_1", 200),
    ("p1_1_1 * " + "-(" * 150 + "1" + ")" * 150, 209),
])
def test_expression_nesting_cap_position(capsys, text, position):
    # the recursive parser refuses nesting the stack cannot hold, at the
    # first level too many, rather than overflowing it
    for args in (("rep-bracket", "--", text, "q1_1_1"), ("ev", "--", text, "unread.json")):
        code, out, err = run(capsys, *args)
        assert code == 2 and out == ""
        assert f"nested deeper than 200 levels (at position {position})" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("text", ["(" * 200 + "p1_1_1" + ")" * 200, "-" * 200 + "p1_1_1",
                                  "-(" * 100 + "p1_1_1" + ")" * 100])
def test_expression_nesting_within_the_cap_answers(capsys, text):
    # an even number of minus signs: each text is p1_1_1
    want = run(capsys, "rep-bracket", "p1_1_1", "q1_1_1")
    assert want[0] == 0
    assert run(capsys, "rep-bracket", "--", text, "q1_1_1") == want


def test_word_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eta", "p1*w2", "q1")
    assert code == 2
    assert "position" in err


def test_expression_parse_error_position(capsys):
    code, _, err = run(capsys, "rep-bracket", "p1_1_1 + ?", "q1_1_1")
    assert code == 2
    assert "position" in err


def test_expression_zero_denominator_position(capsys):
    code, _, err = run(capsys, "rep-bracket", "p1_1_1 + 1/0", "q1_1_1")
    assert code == 2
    assert "zero denominator (at position 9)" in err


def test_expression_exponent_cap_position(capsys):
    code, out, err = run(capsys, "rep-bracket", "p1_1_1 + p1_1_1^100001", "q1_1_1")
    assert code == 2 and out == ""
    assert "exponent larger than 100000 (at position 16)" in err


@pytest.mark.parametrize("text,position", [
    ("p1_1_1 + " + "7" * 5000, 9),
    ("p1_1_1^" + "7" * 5000, 7),
    ("p1_1_" + "7" * 5000, 5),
], ids=["literal", "exponent", "entry-index"])
def test_expression_long_number_position(capsys, text, position):
    # past Python's 4300-digit limit int() would raise with no position
    code, out, err = run(capsys, "rep-bracket", text, "q1_1_1")
    assert code == 2 and out == ""
    assert f"number longer than 4300 digits (at position {position})" in err


def unlimited(f, *args):
    """f(*args) with Python's limit on int-to-str digits lifted."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return f(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def test_long_exact_answers_print_in_full(tmp_path, capsys):
    # each answer has more digits than Python converts int to str by default
    limit = sys.get_int_max_str_digits()
    pt = tmp_path / "pt.json"
    pt.write_text(json.dumps([[["2"]]]))
    code, out, err = run(capsys, "ev", "--genus", "0", "--punctures", "1", "--dim", "1",
                         "z1_1_1^20000", str(pt))
    assert code == 0, err
    assert json.loads(out) == {"value": unlimited(str, 2 ** 20000)}
    alg = RepAlgebra(SurfaceSignature(1, 0), 1)
    value = alg.qp_bracket(cli.parse_expression("2^15000*p1_1_1", alg),
                           cli.parse_expression("q1_1_1", alg))
    code, out, err = run(capsys, "rep-bracket", "--genus", "1", "--punctures", "0", "--dim", "1",
                         "2^15000*p1_1_1", "q1_1_1")
    assert code == 0, err
    assert json.loads(out) == unlimited(alg.to_json, value)
    assert sys.get_int_max_str_digits() == limit


def test_expression_exponent_overflow_is_usage_error(capsys):
    # each factor is within the cap, the nested power passes 2**31 - 1
    code, out, err = run(capsys, "rep-bracket", "(p1_1_1^100000)^100000", "q1_1_1")
    assert code == 2 and out == ""
    assert "exceeds 2147483647" in err and "Traceback" not in err


def test_expression_power_by_repeated_squaring(capsys, monkeypatch):
    # x^k by square and multiply takes at most 2 log2(k) products, so the
    # nested power reaches its overflow after a few dozen one-term products
    # (one product per unit of exponent would take 21,475)
    products = []
    mul = RepElem.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(RepElem, "__mul__", counted)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "rep-bracket", "(p1_1_1^100000)^100000", "q1_1_1")
    elapsed = time.perf_counter() - t0
    assert code == 2 and out == "" and "exceeds 2147483647" in err
    assert len(products) <= 4 * 17
    assert elapsed < 0.5, f"nested power took {elapsed:.2f}s"


def test_expression_entry_out_of_range(capsys):
    code, _, err = run(capsys, "rep-bracket", "--dim", "2", "p1_3_1", "q1_1_1")
    assert code == 2
    assert "dim" in err


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"][:1] + case["argv"][5:]))
def test_cli_output_matches_golden(capsys, case):
    code, out, _ = run(capsys, *(arg.replace("{data}", str(DATA)) for arg in case["argv"]))
    assert code == 0
    assert out == case["stdout"]


def test_verify_fox_json(capsys):
    code, out, _ = run(capsys, "verify", "fox", "--json", "--seed", "3", *FAST)
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["suite"] == "fox"


def test_verify_human_output(capsys):
    code, out, _ = run(capsys, "verify", "double", "--seed", "3", *FAST)
    assert code == 0
    assert out.strip().endswith("PASS")
    assert "cross-oracle" in out


def test_moment_check_rejects_non_moment(capsys):
    code, out, _ = run(capsys, "moment-check", "--word", "p1", "--json",
                       "--trials", "3", "--seed", "1")
    assert code == 1
    report = json.loads(out)
    assert not report["ok"]


def test_moment_check_accepts_boundary(capsys):
    code, out, _ = run(capsys, "moment-check", "--genus", "0", "--punctures", "2",
                       "--json", "--trials", "3", "--seed", "1")
    assert code == 0
    assert json.loads(out)["ok"]


@pytest.mark.parametrize("trials", [[], ["--trials", "2"]], ids=["default trials", "--trials 2"])
def test_moment_check_is_verify_moment(capsys, trials):
    # both commands read the moment suite's trial count and powers from one home
    where = ["--genus", "0", "--punctures", "2", "--dim", "2", "--seed", "3", "--json", *trials]
    code, out, _ = run(capsys, "moment-check", *where)
    assert (code, out) == run(capsys, "verify", "moment", *where)[:2]
    assert json.loads(out)["params"]["trials"] == (int(trials[1]) if trials else 5)


def test_verify_json_is_deterministic(capsys):
    args = ["verify", "quasi-poisson", "--json", "--seed", "11", "--trials", "10",
            "--max-word-len", "3"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_cli_deterministic_across_processes():
    # different hash seeds must not leak into the report bytes
    args = [sys.executable, "-m", "surfqp.cli", "verify", "fox", "--json",
            "--seed", "5", "--trials", "10"]
    outs = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        proc = subprocess.run(args, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv,flag", [
    (["verify", "fox", "--trials", "-5"], "--trials"),
    (["verify", "fox", "--trials", "0"], "--trials"),
    (["verify", "fox", "--max-word-len", "-1"], "--max-word-len"),
    (["verify", "rep-suite", "--dim", "0"], "--dim"),
    (["rep-bracket", "--dim", "-1", "p1_1_1", "q1_1_1"], "--dim"),
])
def test_out_of_range_flags_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""


def test_zero_max_word_len_is_accepted(capsys):
    code, out, _ = run(capsys, "verify", "fox", "--json", "--trials", "3",
                       "--max-word-len", "0")
    assert code == 0 and json.loads(out)["ok"]


def _terms(items, fmt) -> dict:
    """A sparse object as {tuple of formatted keys: Fraction}."""
    return {tuple(fmt(k) for k in (key if isinstance(key, tuple) else (key,))): Fraction(c)
            for key, c in items}


def test_long_word_commands_match_oracles(capsys):
    # 1200 letters is past the default recursion limit of a recursive engine
    sig = SurfaceSignature(1, 1)
    a, b = parse_word("p1^1200", sig), parse_word("q1", sig)
    eta = SurfaceFoxPairing(sig)
    fmt = lambda x: format_word(x, sig)
    oracle = dbl_from_pairing(eta.skew, a, b)
    want = {
        # transpose-sum identity: eta(a, b) + eta^t(a, b) = -rho_1(a, b)
        "eta": _terms((-(rho_1(a, b) + transpose_apply(eta, a, b))).items(), fmt),
        # skew symmetry: eta^s(a, b) = -a S(eta^s(b, a)) b
        "eta-s": _terms((-transpose_apply(eta.skew, a, b)).items(), fmt),
        "dbl-s": _terms(oracle.items(), fmt),
        "goldman": _terms(project_cyclic(m2(oracle)).scale(Fraction(1, 2)).items(),
                          lambda cw: format_cyclic(cw, sig)),
    }
    elapsed = 0.0
    for command, expected in want.items():
        t0 = time.perf_counter()
        code, out, err = run(capsys, command, "p1^1200", "q1", "--genus", "1",
                             "--punctures", "1")
        elapsed += time.perf_counter() - t0
        assert code == 0, err
        got = {tuple(t.get("words") or [t.get("word", t.get("class"))]): Fraction(t["coeff"])
               for t in json.loads(out)}
        assert got == expected, command
    assert elapsed < 30.0, f"four 1200-letter commands took {elapsed:.1f}s"


def power_trace_bracket(n):
    """The dim-1 trace bracket {tr(p1^n), tr(q1)} in closed form, 2n p^n q."""
    return ('{"den":[0,0,0],"terms":[{"coeff":"%d","monomial":"p1_1_1^%d*q1_1_1"}]}'
            % (2 * n, n))


def test_long_word_trace_bracket(capsys):
    # one letter at a time: no stack frame, and no suffix word built or
    # hashed, per letter
    t0 = time.perf_counter()
    code, out, err = run(capsys, "trace-bracket", "--dim", "1", "p1^20000", "q1")
    assert code == 0, err
    assert out.strip() == power_trace_bracket(20000)
    assert time.perf_counter() - t0 < 3.0


# The child runs under an address-space cap (its first argument, in bytes),
# set in that child only.
CAPPED_CHILD = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[1]), resource.getrlimit(resource.RLIMIT_AS)[1]))
from surfqp.cli import main
sys.exit(main(sys.argv[2:]))
"""


def run_capped(cap_bytes, budget_s, *argv):
    """surfqp argv in a child under an address-space cap and a wall-clock budget."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CAPPED_CHILD, str(cap_bytes), *argv],
                          capture_output=True, text=True, timeout=budget_s)
    assert time.perf_counter() - t0 < budget_s
    return proc


# At the parse limit of 100,000 letters the trace bracket took about 2 s and
# 100 MB on a 2-core VM; 10 s and 1 GiB leave room for a slower machine,
# while a word-matrix cache that grows faster than linearly in the word
# blows through both.
@pytest.mark.slow
def test_trace_bracket_at_the_parse_limit_under_a_memory_cap():
    proc = run_capped(1 << 30, 10, "trace-bracket", "--dim", "1", "p1^100000", "q1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == power_trace_bracket(100000)


# goldman(p1^n, q1) is n [p1^n q1].  At n = 20,000 the single bracket holds
# about n words of about n letters before it is projected: 1.1 s and 405 MB
# peak on a 2-core VM with one byte per letter.  At eight or more bytes per
# letter it runs out of 2 GiB after about 19 s, so 10 s and 2 GiB separate the two.
@pytest.mark.slow
def test_goldman_of_a_long_power_under_a_memory_cap():
    proc = run_capped(2 << 30, 10, "goldman", "p1^20000", "q1", "--genus", "1",
                      "--punctures", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [{"class": "p1^20000*q1", "coeff": "20000"}]


def generator_entry_bracket(n):
    """{p1_11, q1_11} at dim n on (1,1) in closed form, 2 p1_11 q1_11 plus
    p1_1m q1_m1 + p1_m1 q1_1m for m = 2..n: 2n - 1 terms, no denominator."""
    coeffs = {"p1_1_1*q1_1_1": "2"}
    for m in range(2, n + 1):
        coeffs[f"p1_1_{m}*q1_{m}_1"] = coeffs[f"p1_{m}_1*q1_1_{m}"] = "1"
    return {"den": [0, 0, 0],
            "terms": [{"coeff": coeffs[mono], "monomial": mono} for mono in sorted(coeffs)]}


def test_generator_entry_bracket_closed_form(capsys):
    # the closed form against the entry route, in process, at small dims
    sig = SurfaceSignature(1, 1)
    p1, q1 = (parse_word(x, sig) for x in ("p1", "q1"))
    for n in range(1, 6):
        alg = RepAlgebra(sig, n)
        want = generator_entry_bracket(n)
        assert alg.to_json(alg.qp_bracket_entries(p1, 1, 1, q1, 1, 1)) == want
        assert len(want["terms"]) == 2 * n - 1
    code, out, _ = run(capsys, "rep-bracket", "--dim", "5", "--genus", "1", "--punctures", "1",
                       "p1_1_1", "q1_1_1")
    assert code == 0 and json.loads(out) == generator_entry_bracket(5)


# At dim 48 one bracket of two generator entries took 0.79 s and 96 MB on a
# 2-core VM, reading one column of each table word; built as whole word
# matrices it needed more than 1 GB, so 3 s and 1 GB separate the two.
@pytest.mark.slow
def test_generator_entry_bracket_at_dim_48_under_a_memory_cap():
    proc = run_capped(1_000_000_000, 3, "rep-bracket", "--dim", "48", "--genus", "1",
                      "--punctures", "1", "p1_1_1", "q1_1_1")
    assert proc.returncode == 0, proc.stderr
    answer = json.loads(proc.stdout)
    assert answer["den"] == [0, 0, 0] and len(answer["terms"]) == 2 * 48 - 1
    assert answer == generator_entry_bracket(48)


def test_rank_past_the_letter_codes_exits_2():
    # the Fox pairing's letter-pair table alone would take hours at this rank
    proc = subprocess.run([sys.executable, "-m", "surfqp.cli", "eta", "p1", "q1", "--genus",
                           "300000", "--punctures", "0"], capture_output=True, text=True,
                          timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("surfqp: rank 600000 is past 557056")


def test_parser_is_built_once(capsys, monkeypatch):
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for _ in range(2):
        code, out, _ = run(capsys, "eta", "p1", "q1")
        assert code == 0 and json.loads(out)
    assert len(builds) == 1
    with pytest.raises(SystemExit) as exc:
        main(["eta", "p1"])
    assert exc.value.code == 2
    assert len(builds) == 1


def test_out_of_memory_is_a_usage_error(capsys, monkeypatch):
    """Exit 1 means only that a verified property failed, so running out of
    memory exits 2 with one line; the exhaustion here is simulated."""
    def exhausted(self, w, j):
        raise MemoryError

    monkeypatch.setattr(RepAlgebra, "column", exhausted)
    code, out, err = run(capsys, "rep-bracket", "--dim", "2", "tr(p1^1500)", "q1_1_1",
                         "--genus", "1", "--punctures", "1")
    assert (code, out, err) == (2, "", "surfqp: out of memory\n")


@pytest.mark.parametrize("dim", ["1", "2"])
@pytest.mark.parametrize("genus,punctures", [("0", "0"), ("0", "1")])
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_verify_small_surfaces_pass(capsys, suite, genus, punctures, dim):
    """The rank-0 surface and the annulus at dims 1 and 2: no suite may
    crash, and exit 1 would mean a verified property failed."""
    code, out, err = run(capsys, "verify", suite, "--json", "--genus", genus,
                         "--punctures", punctures, "--dim", dim, "--trials", "1")
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"]


def test_fusion_coupling_is_checked_only_from_dim_two(capsys):
    """At N = 1 the conjugation field is zero, so the fusion terms vanish
    and no witness against dropping them can exist."""
    names = {}
    for dim in ("1", "2"):
        code, out, _ = run(capsys, "verify", "aksm", "--json", "--genus", "1",
                           "--punctures", "1", "--dim", dim, "--trials", "1")
        assert code == 0
        names[dim] = [c["name"] for c in json.loads(out)["checks"]]
    assert "fusion-coupling-required" not in names["1"]
    assert "fusion-coupling-required" in names["2"]
