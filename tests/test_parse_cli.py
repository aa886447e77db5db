"""Text grammar and the command-line surface."""

import contextlib
import io
import json
import math
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strongpoly import (
    LaurentPoly,
    ParseError,
    QQ,
    REFUTED,
    ResourceBudgetExceeded,
    Ring,
    Verdict,
    ZZ,
    parse_braid,
    parse_matrix_json,
    parse_polynomial,
)
from strongpoly import cli, factor
from strongpoly.parse import MAX_VARS, parse_exponent_pairs

from conftest import mk, nonzero_poly_st

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "src/strongpoly/schemas/report.schema.json").read_text()
)


class TestPolynomialGrammar:
    def test_basic_forms(self):
        assert parse_polynomial("1 + x1 - x2") == mk(2, {(0, 0): 1, (1, 0): 1, (0, 1): -1})
        assert parse_polynomial("x1^2*x2") == mk(2, {(2, 1): 1})
        assert parse_polynomial("-x1 + 1") == mk(1, {(1,): -1, (0,): 1})
        assert parse_polynomial("2x1") == mk(1, {(1,): 2})
        assert parse_polynomial("(1 + x1)^2") == mk(1, {(0,): 1, (1,): 2, (2,): 1})
        assert parse_polynomial("x1 x2") == mk(2, {(1, 1): 1})
        assert parse_polynomial("0").is_zero()
        assert parse_polynomial("0", nvars=1) == mk(1, {})

    def test_vars_padding_and_inference(self):
        assert parse_polynomial("x3 + 1").ring.nvars == 3
        assert parse_polynomial("x1 + 1", nvars=4).ring.nvars == 4
        with pytest.raises(ValueError):
            parse_polynomial("x3", nvars=2)
        assert parse_polynomial(f"x{MAX_VARS}").ring.nvars == MAX_VARS
        with pytest.raises(ValueError, match="variables are more than"):
            parse_polynomial(f"x{MAX_VARS + 1}")
        with pytest.raises(ValueError, match="variables are more than"):
            parse_polynomial("x1", nvars=MAX_VARS + 1)

    def test_rational_coefficients_switch_domain(self):
        p = parse_polynomial("1/2*x1 + 1")
        assert p.ring.domain == QQ
        assert p.coeff((1,)) == Fraction(1, 2)
        assert parse_polynomial("4/2*x1").ring.domain == ZZ

    def test_negative_exponents_need_the_flag(self):
        assert parse_polynomial("x1^-1 + 1", laurent=True) == mk(
            1, {(-1,): 1, (0,): 1}, laurent=True
        )
        with pytest.raises(ParseError):
            parse_polynomial("x1^-1 + 1")

    def test_double_sign_is_an_error_at_column_five(self):
        with pytest.raises(ParseError) as exc:
            parse_polynomial("1 + + x1")
        assert exc.value.col == 5

    def test_other_syntax_errors(self):
        for bad in ("", "x1 +", "()", "x1^", "1 2x", "y1 + 1", "x1**2"):
            with pytest.raises(ParseError):
                parse_polynomial(bad)

    def test_zero_exponent_is_the_constant_one(self):
        # a zeroth power and a constant used to land on different keys
        assert parse_polynomial("1 + x2^0") == mk(2, {(0, 0): 2})
        assert parse_polynomial("(x1)^0 - x1^0 + 3") == mk(1, {(0,): 3})

    def test_huge_power_of_a_monomial_is_fast(self):
        start = time.perf_counter()
        p = parse_polynomial("(x1)^10000000")
        assert time.perf_counter() - start < 1
        assert p == mk(1, {(10000000,): 1})

    def test_power_expands_exactly(self):
        p = parse_polynomial("(1+x1)^300")
        assert p == mk(1, {(k,): math.comb(300, k) for k in range(301)})

    def test_oversized_product_is_budgeted(self):
        with pytest.raises(ResourceBudgetExceeded):
            parse_polynomial("(1+x1+x2+x3)^200")

    def test_coefficient_past_the_bit_cap_is_budgeted(self):
        # (2)^20000 has 6021 digits, past what the interpreter prints; a lone
        # literal makes no product, so the parsed result is checked too
        assert parse_polynomial(str(2**6999)).term_dict() == {(): 2**6999}
        # a product is bounded by its terms times the two sides' heights,
        # which is exact for a one-term side
        assert parse_polynomial("(2)^6999*x1").term_dict() == {(1,): 2**6999}
        for text in (str(2**7000), f"{2**6999} + {2**6999}", "(2)^20000*x1 + 1", "(2)^7000*x1"):
            with pytest.raises(ResourceBudgetExceeded) as info:
                parse_polynomial(text)
            assert info.value.kind == "parse"

    @given(nonzero_poly_st(nvars=2, laurent=True, max_exp=3))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, p):
        assert parse_polynomial(p.to_text(), nvars=2, laurent=True) == p

    @given(nonzero_poly_st(nvars=3, max_exp=2))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_ordinary(self, p):
        assert parse_polynomial(p.to_text(), nvars=3) == p


class TestBraidAndPairs:
    def test_braid_words(self):
        assert parse_braid("s1 s1 s1") == [1, 1, 1]
        assert parse_braid("s1^-1 s2") == [-1, 2]
        assert parse_braid("s2^3") == [2, 2, 2]
        assert parse_braid("s1^0") == []

    def test_huge_braid_power_is_budgeted_before_expansion(self):
        start = time.perf_counter()
        for text in ("s1^1000000000", "s1^-1000000000", "s1^600000 s2^-400001"):
            with pytest.raises(ResourceBudgetExceeded) as info:
                parse_braid(text)
            assert info.value.kind == "parse"
        assert time.perf_counter() - start < 1
        assert len(parse_braid("s1^600000 s2^-400000")) == 10**6

    def test_braid_errors(self):
        for bad in ("t1", "s0", "s-1", "s1^", "1"):
            with pytest.raises(ParseError):
                parse_braid(bad)

    def test_exponent_pairs(self):
        assert parse_exponent_pairs("1,3;2,1") == [(1, 3), (2, 1)]
        assert parse_exponent_pairs("0,0") == [(0, 0)]
        for bad in ("1", "1,2;3", "a,b", ""):
            with pytest.raises(ValueError):
                parse_exponent_pairs(bad)


class TestMatrixJson:
    def test_round_trip(self):
        m = parse_matrix_json({"vars": 1, "matrix": [["x1^2 - x1 + 1", "0"]]})
        assert m.ncols == 2
        assert m.rows[0][0] == mk(1, {(2,): 1, (1,): -1, (0,): 1}, laurent=True)

    def test_empty_matrix_needs_cols(self):
        m = parse_matrix_json({"vars": 2, "matrix": [], "cols": 3})
        assert m.ncols == 3 and m.nrows == 0
        with pytest.raises(ValueError):
            parse_matrix_json({"vars": 2, "matrix": []})

    def test_validation(self):
        with pytest.raises(ValueError):
            parse_matrix_json([])
        with pytest.raises(ValueError):
            parse_matrix_json({"matrix": [["1"]]})
        with pytest.raises(ValueError):
            parse_matrix_json({"vars": MAX_VARS + 1, "matrix": [], "cols": 1})


def run_cli(*args, stdin=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "strongpoly.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def run_json(*args, stdin=None):
    proc = run_cli(*args, "--json", stdin=stdin)
    report = json.loads(proc.stdout)
    jsonschema.validate(report, SCHEMA)
    assert report["exit_code"] == proc.returncode
    return proc, report


class TestExitCodes:
    def test_proved_is_zero(self):
        proc = run_cli("check-strong-irred", "1 + x1 - x2")
        assert proc.returncode == 0
        assert "status: PROVED" in proc.stdout
        assert "rule: criterion" in proc.stdout

    def test_refuted_is_one(self):
        proc = run_cli("check-strong-irred", "x1*x2 - 1")
        assert proc.returncode == 1
        assert "status: REFUTED" in proc.stdout

    def test_undecided_is_two(self):
        proc = run_cli("check-coprime", "1 + x1 + x2", "2 + x1 - x2")
        assert proc.returncode == 2
        assert "status: UNDECIDED" in proc.stdout

    def test_parse_error_is_three(self):
        proc = run_cli("check-irred", "1 + + x1")
        assert proc.returncode == 3
        assert "column 5" in proc.stderr
        assert proc.stdout == ""

    def test_semantic_error_is_three(self):
        proc = run_cli("check-irred", "1")  # units have no irreducibility status
        assert proc.returncode == 3
        proc2 = run_cli("blanchfield-witness", "--p", "1 + x1 - x2", "--f", "0")
        assert proc2.returncode == 3

    def test_budget_exhaustion_is_four(self):
        matrix = json.dumps({"vars": 1, "matrix": [["1"] * 16 for _ in range(16)]})
        proc = run_cli("elementary-ideal", "--k", "8", "--stdin", stdin=matrix)
        assert proc.returncode == 4
        assert "resource budget" in proc.stderr

    def test_dense_minor_budget_is_four(self):
        rng = random.Random(1)
        rows = [
            [
                f"{rng.randint(1, 5)}*x1^{rng.randint(-1, 2)} + {rng.randint(1, 5)}*x1^3"
                for _ in range(16)
            ]
            for _ in range(16)
        ]
        stdin = json.dumps({"vars": 1, "matrix": rows})
        proc = run_cli("elementary-ideal", "--k", "0", "--stdin", stdin=stdin, timeout=10)
        assert proc.returncode == 4
        assert "resource budget" in proc.stderr

    def test_product_with_many_modular_factors_is_refuted(self):
        # the Kronecker image has many modular factors; the trailing
        # coefficient test skips most recombination candidates
        product = "(9*x1^2*x2^5 - x1 - 6*x2^5)*(8*x1^3*x2 + 3*x1^3 + 9*x2^3)"
        proc = run_cli("check-irred", product, timeout=10)
        assert proc.returncode == 1
        assert "status: REFUTED" in proc.stdout

    def test_genericity_with_many_variables_ends(self):
        # 40 variables at degree 1 have 40 monomials, not 2^40 candidates
        proc = run_cli("genericity", "--vars", "40", "--degree", "1", "--trials", "1", timeout=10)
        assert proc.returncode == 0
        assert "passes: 1/1" in proc.stdout

    def test_genericity_five_cubic_variables_is_decided(self):
        # the Hilbert-driven pair loop decides this trial; without it the
        # trial exhausted the reduction-work budget
        proc = run_cli("genericity", "--vars", "5", "--degree", "3", "--trials", "1", timeout=10)
        assert proc.returncode == 0
        assert "passes: 1/1" in proc.stdout

    def test_genericity_reduction_work_is_bounded(self):
        # six variables at degree 3 exhaust the reduction-work budget in the
        # modular criterion run, which ends the trial: no exact run follows
        proc = run_cli("genericity", "--vars", "6", "--degree", "3", "--trials", "1", timeout=5)
        assert proc.returncode in (0, 1, 2, 3, 4)
        assert "passes: 0/1" in proc.stdout

    def test_genericity_past_the_monomial_bound_is_four(self):
        # 1,282,401 monomials: listing them and building each trial's system
        # took minutes and gigabytes before any reduction budget was checked
        proc = run_cli("genericity", "--vars", "3", "--degree", "1600", "--trials", "1", timeout=10)
        assert proc.returncode == 4
        assert "1282401 monomials" in proc.stderr

    def test_genericity_past_the_sample_bound_is_four(self):
        # each form has 6 monomials, but 10^8 trials would run for days
        proc = run_cli(
            "genericity", "--vars", "3", "--degree", "2", "--trials", "100000000", timeout=10
        )
        assert proc.returncode == 4
        assert "100000000 trials of 6 monomials" in proc.stderr

    def test_ribbon_gate_counts_integer_content(self):
        # p and bar(p) share the factor 2, so the coprime gate stops the run
        proc = run_cli("verify-ribbon", "2*x1 + 4", "--vars", "1")
        assert proc.returncode == 3
        assert "not coprime" in proc.stderr

    def test_result_too_large_to_print_is_four(self):
        # the witness 2^100000 + 3 has more digits than Python prints
        proc = run_cli("reduce-ideal", "--p", "2", "--q", "3", "--gens", "100000,0;0,1", timeout=10)
        assert proc.returncode == 4
        assert "resource budget" in proc.stderr

    def test_verdict_too_large_to_print_is_four(self, monkeypatch, capsys):
        # a factor with a 5000-digit coefficient passes the digit limit for
        # printing, and main renders the verdict inside its guard
        wide = Verdict(REFUTED, witness={"factors": [mk(1, {(1,): 10**4999, (0,): 1})]})
        monkeypatch.setattr(cli, "is_irreducible", lambda p, budgets: wide)
        assert cli.main(["check-irred", "x1 + 1"]) == 4
        assert "resource budget exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["slice-poly", "verify-ribbon"])
    def test_family_without_k_is_three(self, command):
        proc = run_cli(command, "--family", "F1")
        assert proc.returncode == 3
        assert "needs a polynomial or both --family and --k" in proc.stderr

    def test_uncertifiable_prime_constant_is_four(self):
        # above the deterministic Miller-Rabin bound trial division used to hang
        proc = run_cli("check-irred", "1000000000000000000000000000057", timeout=10)
        assert proc.returncode == 4
        assert "resource budget" in proc.stderr

    def test_prime_constant_below_the_bound_is_proved(self):
        proc = run_cli("check-irred", "100000000000000000039")
        assert proc.returncode == 0
        assert "rule: constant-prime" in proc.stdout

    def test_pseudoprime_constant_is_not_proved(self):
        # a strong pseudoprime to the bases 2..37 with two 12-digit factors
        proc = run_cli("check-irred", "318665857834031151167461", timeout=30)
        assert proc.returncode == 1
        assert "399165290221" in proc.stdout

    def test_constant_with_large_factors_is_refuted(self):
        proc = run_cli("check-irred", "1000036000099", timeout=10)
        assert proc.returncode == 1
        assert "1000003" in proc.stdout

    def test_strong_pseudoprime_above_the_bound_is_split(self):
        # passes all thirteen Miller-Rabin bases, so only rho can refute it
        proc = run_cli("check-irred", "3317044064679887385961981", timeout=30)
        assert proc.returncode == 1
        assert "1287836182261" in proc.stdout
        assert "2575672364521" in proc.stdout

    def test_huge_constant_power_is_four(self):
        # squaring one coefficient used to run for 42 s
        proc = run_cli("check-irred", "(3)^30000000", timeout=10)
        assert proc.returncode == 4
        assert "resource budget" in proc.stderr

    def test_oversized_parse_is_four(self):
        proc = run_cli("check-irred", "(1+x1+x2+x3)^200", timeout=10)
        assert proc.returncode == 4
        assert "resource budget" in proc.stderr

    GCD_PAIR = ("-x1^3*x2 + 3*x1^2*x2^2 - 2*x1^3 + 3*x1*x2^2", "4*x1^6*x2^9 + 5*x2^6 - 4")

    def test_gcd_of_small_images_ends(self):
        # the gcd's pseudo-remainders used to keep their integer content, and
        # their coefficients grew without bound at the images (id, diag(3, 3))
        proc = run_cli("check-coprime", *self.GCD_PAIR, timeout=10)
        assert proc.returncode == 2
        assert "coprimality-search-exhausted" in proc.stdout

    def test_gcd_budget_is_four(self, monkeypatch, capsys):
        monkeypatch.setattr(factor, "MAX_GCD_TERM_PRODUCTS", 1000)
        assert cli.main(["check-coprime", *self.GCD_PAIR]) == 4
        assert "term products" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-irred", "x1", "--bogus"],
            [],
            ["check-irred", "x1 + x2", "--max-k", "3"],
            ["check-irred", "x1 + x2", "--gb-steps", "3"],
            ["check-strong-irred", "1 + x1 - x2", "--gb-steps", "0"],
            ["check-strong-irred", "1 + x1 - x2", "--gb-steps", "-1"],
            ["check-strong-irred", "1 + x1 - x2", "--max-k", "0"],
            ["check-coprime", "1 + x1 - x2", "x3", "--max-degree", "0"],
            ["genericity", "--vars", "3", "--degree", "2", "--trials", "2", "--gb-steps", "0"],
            # without --stdin these used to block on the terminal
            ["divisorial-hull"],
            ["elementary-ideal", "--k", "0"],
            # counts past parse.MAX_VARS
            ["check-irred", f"x{MAX_VARS + 1} + 1"],
            ["check-strong-irred", "x1 + 1", "--vars", str(MAX_VARS + 1)],
            ["genericity", "--vars", str(MAX_VARS + 1), "--degree", "1", "--trials", "1"],
            ["braid-alex", "--braid", "s1", "--strands", str(MAX_VARS + 1)],
            ["torsion-alex", "--braid", "s1", "--strands", str(MAX_VARS + 1)],
        ],
    )
    def test_usage_errors_are_three(self, argv, capsys):
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("input error: ")

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["check-irred", "-12*x2", "--laurent", "--vars", "2"], 1),
            (["check-irred", "-x1"], 0),
            (["check-coprime", "-x1", "x2 + 2"], 2),
        ],
    )
    def test_one_term_negative_polynomial_is_an_argument(self, argv, code, capsys):
        # a token that names no option of the subcommand is its polynomial,
        # read as it is after "--"
        command, *rest = argv
        options = [a for a in rest if a.startswith("--") or a.isdigit()]
        polys = [a for a in rest if a not in options]
        assert cli.main([command, *options, "--", *polys]) == code
        escaped = capsys.readouterr()
        assert cli.main(argv) == code
        assert capsys.readouterr() == escaped
        if code == 1:
            assert escaped.out == 'status: REFUTED\nwitness: {"factors": ["-2*x2", "2", "3"]}\n'

    def test_budget_flags_are_applied(self, capsys):
        # a linear form's criterion system is decided before any S-pair, so
        # the budget needs a form whose system takes S-pairs
        conic = "x1^2 + x1*x2 + x2^2 + x1 + 1"
        assert cli.main(["check-strong-irred", conic]) == 0
        capsys.readouterr()
        assert cli.main(["check-strong-irred", conic, "--gb-steps", "1"]) == 2
        assert "resource-gb-pairs" in capsys.readouterr().out
        # x1 + 4 is refuted at the uniform power k = 4, which --max-k 3 skips
        assert cli.main(["check-strong-irred", "x1 + 4"]) == 1
        assert cli.main(["check-strong-irred", "x1 + 4", "--max-k", "3"]) == 2
        # a product of two linear forms with a Kronecker image of degree 12
        split = "x1^2 - x2^2 + x1 + 3*x2 - 2"
        assert cli.main(["check-irred", split]) == 1
        capsys.readouterr()
        assert cli.main(["check-irred", split, "--max-degree", "4"]) == 2
        out = capsys.readouterr().out
        assert "resource-kronecker" in out
        assert "kronecker image degree 12 exceeds budget" in out
        sample = ["genericity", "--vars", "3", "--degree", "2", "--trials", "5"]
        assert cli.main(sample) == 0
        assert "passes: 5/5" in capsys.readouterr().out
        assert cli.main(sample + ["--gb-steps", "1"]) == 0
        assert "passes: 0/5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, data",
        [
            (["divisorial-hull", "--stdin"], {"vars": None, "generators": ["x1"]}),
            (["divisorial-hull", "--stdin"], {"vars": [], "generators": ["x1"]}),
            (["divisorial-hull", "--stdin"], {"vars": 2, "generators": 5}),
            (["elementary-ideal", "--k", "0", "--stdin"], {"vars": 2, "matrix": [], "cols": None}),
            # 1e400 is infinity, which int() cannot convert: these exited 5
            (["torsion-alex", "--stdin"], {"vars": 1e400, "matrix": [["x1 - 1"]]}),
            (["elementary-ideal", "--k", "0", "--stdin"], {"vars": 1e400, "matrix": [["x1"]]}),
            (["divisorial-hull", "--stdin"], {"vars": 1e400, "generators": ["x1"]}),
            (["torsion-alex", "--stdin"], {"vars": 2, "matrix": [], "cols": 1e400}),
            # int() read these as 1 and answered
            (["torsion-alex", "--stdin"], {"vars": 1.9, "matrix": [["x1 - 1"]]}),
            (["divisorial-hull", "--stdin"], {"vars": True, "generators": ["x1"]}),
        ],
    )
    def test_malformed_stdin_json_is_three(self, argv, data, monkeypatch, capsys):
        # each of these used to raise a TypeError and exit 5
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(data)))
        assert cli.main(argv) == 3
        assert capsys.readouterr().err.startswith("input error: ")

    def test_recombination_budget_is_four(self, capsys):
        # x^200 + 4 splits into so many factors mod the Zassenhaus prime
        # that the subset search runs out of trials
        assert cli.main(["check-irred", "x1^200 + 4"]) == 4
        assert capsys.readouterr().err == "resource budget exceeded: recombination budget exceeded\n"

    def test_long_braid_word_is_four(self):
        # the Burau pass's entries grow with the word, so its work is
        # quadratic in the word length; this one used to run past 120 s
        start = time.perf_counter()
        proc = run_cli("torsion-alex", "--braid", "s1^20000", "--strands", "2", timeout=30)
        assert proc.returncode == 4
        assert "the colored Burau pass needs over" in proc.stderr
        assert time.perf_counter() - start < 10

    def test_huge_ideal_exponents_are_four(self):
        # p^200 and q^200 used to be expanded without a budget, past 30 s
        start = time.perf_counter()
        proc = run_cli("reduce-ideal", "--p", "1 + x1 - x2", "--q", "1 + x1*x2",
                       "--gens", "200,0;0,200", timeout=30)
        assert proc.returncode == 4
        assert "the combination identity needs more than" in proc.stderr
        assert time.perf_counter() - start < 10

    @pytest.mark.parametrize("text", ["x1^1000 + x2 + 1", "x1^100000 + x2 + 1"])
    def test_high_degree_criterion_is_a_work_budget(self, text):
        # the criterion's standard monomials of degree 1000 used to be built
        # one by one (501,501 of them), past 60 s; they count as reduction
        # work now, charged before the set is built
        start = time.perf_counter()
        proc = run_cli("check-strong-irred", text, timeout=30)
        assert proc.returncode == 2
        assert "reason: resource-gb-work" in proc.stdout
        assert time.perf_counter() - start < 10

    def test_constant_primes_with_a_huge_exponent_end_quickly(self):
        # one term per power, so the term budget cannot stop a power built
        # one factor at a time: 2^100000 must come by squaring
        start = time.perf_counter()
        proc = run_cli("reduce-ideal", "--p", "2", "--q", "3",
                       "--gens", "100000,0;0,1", timeout=30)
        assert proc.returncode in (0, 1, 2, 3, 4)
        assert time.perf_counter() - start < 10

    def test_constant_primes_with_a_vast_exponent_are_four(self):
        # each power of 2 is one term, so only the coefficient's size can
        # stop squaring toward 2^(10^20) before memory runs out
        start = time.perf_counter()
        proc = run_cli("reduce-ideal", "--p", "2", "--q", "3",
                       "--gens", "99999999999999999999,0;0,1", timeout=10)
        assert proc.returncode == 4
        assert "the combination identity needs more than" in proc.stderr
        assert time.perf_counter() - start < 10

    def test_deep_nesting_is_three(self, capsys):
        text = "(" * 3000 + "x1" + ")" * 3000
        assert cli.main(["check-irred", text]) == 3
        assert "nested deeper" in capsys.readouterr().err

    def test_internal_error_is_five(self, monkeypatch, capsys):
        def broken(args):
            raise AssertionError("input generator does not reduce to zero")

        monkeypatch.setattr(cli, "_cmd_check_irred", broken)
        assert cli.main(["check-irred", "x1 + 1"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("internal error: ")
        assert "does not reduce to zero" in err


class _RanTooLong(BaseException):
    """Raised by the fuzz test's alarm: not an Exception, so cli.main's
    catch-all cannot turn it into an exit code."""


FUZZ_TOKENS = ["x1", "x2", "x3", "x0", "x3000", *"0123456789", "+", "-", "*", "^", "^-", "(", ")", "/"]
FUZZ_SECONDS = 10


class TestFuzz:
    # the tokens are joined by spaces, so every number has one digit: an
    # exponent of many digits still builds a dense list that long (ROADMAP
    # item 4)
    @given(
        st.sampled_from(["check-irred", "check-strong-irred", "check-coprime", "slice-poly"]),
        st.lists(
            st.lists(st.sampled_from(FUZZ_TOKENS), min_size=1, max_size=8).map(" ".join),
            min_size=2,
            max_size=2,
        ),
        st.booleans(),
    )
    # used to run for minutes: the coprimality catalog of 3000 variables
    @example("check-coprime", ["x3000", "x1 + 2"], False)
    @settings(max_examples=800, deadline=None)
    def test_exit_codes_stay_in_the_taxonomy(self, command, texts, laurent):
        argv = [command, *texts[: 2 if command == "check-coprime" else 1]]
        argv += ["--laurent"] if laurent else []

        def ran_too_long(signum, frame):
            raise _RanTooLong

        previous = signal.signal(signal.SIGALRM, ran_too_long)
        signal.alarm(FUZZ_SECONDS)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except _RanTooLong:
            pytest.fail(f"{argv} ran past {FUZZ_SECONDS} s")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert code in (0, 1, 2, 3, 4), argv


class TestReports:
    def test_witness_in_json_report(self):
        _, report = run_json("check-strong-irred", "x1*x2 - 1")
        assert report["status"] == "REFUTED"
        assert report["witness"]["exponents"] == [2, 2]
        factors = report["witness"]["factors"]
        assert len(factors) == 2

    def test_torsion_alex_braid_golden(self):
        proc = run_cli("torsion-alex", "--braid", "s1 s1 s1", "--strands", "2")
        assert proc.returncode == 0
        assert proc.stdout == "t^2 - t + 1\n"

    def test_torsion_alex_figure_eight(self):
        proc = run_cli("torsion-alex", "--braid", "s1 s2^-1 s1 s2^-1", "--strands", "3")
        assert proc.stdout == "t^2 - 3*t + 1\n"

    def test_torsion_alex_matrix_stdin(self):
        matrix = json.dumps({"vars": 1, "matrix": [["x1^2 - x1 + 1"]]})
        proc = run_cli("torsion-alex", "--stdin", stdin=matrix)
        assert proc.stdout == "t^2 - t + 1\n"

    def test_gen_family(self):
        proc = run_cli("gen-family", "--family", "F1", "--k", "1,1")
        assert proc.returncode == 0
        assert "x1 - x2 + 1" in proc.stdout
        bad = run_cli("gen-family", "--family", "F1", "--k", "1,2")
        assert bad.returncode == 3

    def test_slice_poly(self):
        proc = run_cli("slice-poly", "x1 - x2 + 1")
        assert proc.returncode == 0
        assert "x1*x2^-1" in proc.stdout or "3" in proc.stdout

    def test_verify_ribbon(self):
        _, report = run_json("verify-ribbon", "1 + x1 - x2", "--laurent")
        assert report["status"] == "OK"
        steps = report["result"]["steps"]
        assert len(steps) == 7 and all(s["ok"] for s in steps)

    def test_reduce_ideal(self):
        _, report = run_json(
            "reduce-ideal", "--p", "1 + x1 - x2", "--q", "1 + x1*x2", "--gens", "1,3;2,1"
        )
        assert report["status"] == "OK"
        assert report["result"]["generator"] == [1, 1]
        assert report["result"]["principal"] is True

    def test_genericity(self):
        _, report = run_json(
            "genericity", "--vars", "3", "--degree", "2", "--trials", "20", "--seed", "5"
        )
        assert report["status"] == "OK"
        assert report["result"]["trials"] == 20

    def test_braid_alex(self):
        _, report = run_json("braid-alex", "--braid", "s1 s1 s1", "--strands", "2")
        assert report["result"]["components"] == 1
        assert report["result"]["alexander"] == "t^2 - t + 1"


class TestDeterminism:
    CASES = [
        ("check-strong-irred", "1 + x1 - x2"),
        ("check-strong-irred", "x1*x2 - 1"),
        ("check-coprime", "1 + x1 - x2", "1 + x3", "--vars", "3"),
        ("torsion-alex", "--braid", "s1 s2^-1 s1 s2^-1", "--strands", "3"),
        ("reduce-ideal", "--p", "1 + x1 - x2", "--q", "1 + x1*x2", "--gens", "1,3;2,1"),
        ("gen-family", "--family", "F2", "--k", "1,1,1"),
    ]

    def test_text_output_is_byte_identical(self):
        for case in self.CASES:
            a, b = run_cli(*case), run_cli(*case)
            assert (a.stdout, a.stderr, a.returncode) == (b.stdout, b.stderr, b.returncode)

    def test_json_output_is_stable_modulo_timing(self):
        for case in self.CASES:
            _, ra = run_json(*case)
            _, rb = run_json(*case)
            ra.pop("timing_ms"), rb.pop("timing_ms")
            assert ra == rb

    def test_json_keys_sorted(self):
        proc = run_cli("check-strong-irred", "1 + x1 - x2", "--json")
        report = json.loads(proc.stdout)
        assert list(report) == sorted(report)
