"""Release gate: the committed behavioral contract, one line per criterion.

Every test prints `ACCEPTANCE n: PASS/FAIL - summary` so the gate can be
read off a plain pytest -s run; the asserts carry the failure details.
Timing bounds are generous by design: they catch complexity regressions,
not machine noise.
"""

import json
import os
import subprocess
import sys
import time
from functools import reduce

import sympy

from strongpoly import (
    LaurentPoly,
    LocalizedIdeal,
    PROVED,
    REFUTED,
    blanchfield_self_link_witness,
    braid_to_presentation,
    build_family_poly,
    canonical_associate,
    check_strongly_irreducible,
    coprime,
    divides,
    eval_at_ones,
    family_corpus,
    free_rank,
    genericity_sample,
    laurent_normalize,
    power_substitute,
    reduce_localized_ideal,
    slice_polynomial,
    torsion_alexander_poly,
    verify_principality,
    verify_ribbon_presentation,
)

from conftest import localized_instances, mk

CORPUS = [build_family_poly(spec) for spec in family_corpus(2)]

# Committed negatives: each fails strong irreducibility at the recorded
# uniform exponent (1 means the polynomial is already reducible).
NEGATIVES = [
    ("x1*x2 - 1", {(1, 1): 1, (0, 0): -1}, 2),
    ("x1 + 1", {(1, 0): 1, (0, 0): 1}, 3),
    ("x1 - 1", {(1, 0): 1, (0, 0): -1}, 2),
    ("x1^2*x2 - 1", {(2, 1): 1, (0, 0): -1}, 2),
    ("x1*x2*x3 - 1", {(1, 1, 1): 1, (0, 0, 0): -1}, 2),
    ("2*x1 + 2", {(1, 0): 2, (0, 0): 2}, 1),
    ("x1^2 - x2^2", {(2, 0): 1, (0, 2): -1}, 1),
    ("x1^2 + 2*x1 + 1", {(2, 0): 1, (1, 0): 2, (0, 0): 1}, 1),
    ("x2^2 - x1", {(0, 2): 1, (1, 0): -1}, 2),
    ("x1^2*x2^2 - 4", {(2, 2): 1, (0, 0): -4}, 1),
]


def report(capsys, n, ok, summary):
    # capture is disabled so the gate lines always reach the terminal
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {summary}", flush=True)


def run_cli(*args, stdin=None, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    return subprocess.run(
        [sys.executable, "-m", "strongpoly.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


def sympy_factor_count(p):
    """Total multiplicity of positive-degree irreducible factors plus one
    per prime of the integer content; the oracle for reducibility."""
    core, _ = laurent_normalize(p)
    expr = sympy.expand(sympy.sympify(core.to_text().replace("^", "**")))
    coeff, factors = sympy.factor_list(expr)
    count = sum(m for f, m in factors if f.free_symbols)
    extra = abs(int(coeff))
    while extra > 1:  # count content primes as factors
        for d in range(2, extra + 1):
            if extra % d == 0:
                count += 1
                extra //= d
                break
    return count


def test_acceptance_01_family_corpus_strongly_irreducible(capsys):
    start = time.monotonic()
    failures = []
    for p in CORPUS:
        v = check_strongly_irreducible(p)
        if v.status != PROVED or v.rule != "criterion":
            failures.append((p.to_text(), v.status, v.rule))
    elapsed = time.monotonic() - start
    ok = not failures and len(CORPUS) >= 50 and elapsed < 60
    report(capsys, 1, ok, f"{len(CORPUS)} corpus members PROVED via criterion in {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert len(CORPUS) >= 50
    assert elapsed < 60, f"criterion sweep took {elapsed:.1f}s"


def test_acceptance_02_factor_oracle_cross_check(capsys):
    import itertools

    reducible = []
    checked = 0
    for p in CORPUS:
        n = p.ring.nvars
        grids = itertools.chain(
            itertools.product((1, 2, 3), repeat=n),
            [(k,) * n for k in (4, 5)],
        )
        for t in grids:
            q = power_substitute(p, t)
            checked += 1
            if sympy_factor_count(q) != 1:
                reducible.append((p.to_text(), t))
    ok = not reducible
    report(capsys, 2, ok, f"oracle found 0 reducible substitutions in {checked} grid points")
    assert not reducible, reducible[:3]


def test_acceptance_03_committed_negatives_refuted(capsys):
    failures = []
    for text, terms, k in NEGATIVES:
        nvars = len(next(iter(terms)))
        p = mk(nvars, terms)
        v = check_strongly_irreducible(p)
        if v.status != REFUTED:
            failures.append((text, v.status))
            continue
        exps = tuple(v.witness["exponents"])
        product = reduce(lambda a, b: a * b, v.witness["factors"])
        if product != power_substitute(p, exps):
            failures.append((text, "witness does not reassemble"))
    ok = not failures
    report(capsys, 3, ok, f"{len(NEGATIVES)} committed negatives REFUTED with exact witnesses")
    assert not failures, failures


def test_acceptance_04_genericity_rates(capsys):
    start = time.monotonic()
    deg2 = genericity_sample(3, 2, trials=500, rng_seed=1)
    deg3 = genericity_sample(3, 3, trials=500, rng_seed=1)
    elapsed = time.monotonic() - start
    ok = deg2.pass_rate >= 0.95 and deg3.pass_rate >= 0.95 and elapsed < 120
    report(
        capsys,
        4,
        ok,
        f"pass rates degree 2: {deg2.pass_rate:.3f}, degree 3: {deg3.pass_rate:.3f} in {elapsed:.1f}s",
    )
    assert deg2.pass_rate >= 0.95
    assert deg3.pass_rate >= 0.95
    assert elapsed < 120


def test_acceptance_05_torsion_alexander_goldens(capsys):
    checks = []
    trefoil = torsion_alexander_poly(braid_to_presentation([1, 1, 1], 2))
    checks.append(trefoil.to_text("t") == "t^2 - t + 1")
    unknot = torsion_alexander_poly(braid_to_presentation([1], 2))
    checks.append(unknot.to_text("t") == "1")
    unlink = braid_to_presentation([], 2)
    checks.append(torsion_alexander_poly(unlink).to_text() == "1")
    checks.append(free_rank(unlink) == 2)  # module rank; the link itself has 1
    fig8 = torsion_alexander_poly(braid_to_presentation([1, -2, 1, -2], 3))
    checks.append(fig8.to_text("t") == "t^2 - 3*t + 1")
    for d in (trefoil, fig8):
        checks.append(abs(eval_at_ones(d)) == 1)
        checks.append(canonical_associate(d.to_laurent().bar()) == d)
    ok = all(checks)
    report(capsys, 5, ok, "trefoil, unknot, unlink, figure-eight orders with knot symmetries")
    assert all(checks), checks


def test_acceptance_06_ribbon_certificates(capsys):
    failures = []
    for p in CORPUS[:10]:
        rep = verify_ribbon_presentation(p)
        expected = canonical_associate(slice_polynomial(p))
        if not rep.ok:
            failures.append((p.to_text(), "certificate step failed"))
        if torsion_alexander_poly(rep.presentation) != expected:
            failures.append((p.to_text(), "torsion order is not p * bar(p)"))
    ok = not failures
    report(capsys, 6, ok, "10 members certify the cyclic torsion module on p*bar(p)")
    assert not failures, failures


def test_acceptance_07_blanchfield_witnesses(capsys):
    failures = []
    for p in CORPUS[:10]:
        ring = p.ring
        fs = [
            LaurentPoly.one(ring),
            LaurentPoly.variable(ring, 0),
            LaurentPoly.one(ring) + LaurentPoly.variable(ring, 0),
        ]
        for f in fs:
            if divides(p, f):
                continue  # the contract only covers p not dividing f
            w = blanchfield_self_link_witness(p, f)
            if w.is_zero:
                failures.append((p.to_text(), f.to_text(), "zero pairing"))
        try:
            blanchfield_self_link_witness(p, p * fs[2])
            failures.append((p.to_text(), "gate accepted a multiple of p"))
        except ValueError:
            pass
    ok = not failures
    report(capsys, 7, ok, "30 nonzero self-pairing certificates, multiples of p rejected")
    assert not failures, failures


def test_acceptance_08_localized_reduction(capsys):
    start = time.monotonic()
    failures = []
    instances = localized_instances()
    for p, q, gens in instances:
        ideal = LocalizedIdeal(p, q, tuple(gens))
        result = reduce_localized_ideal(ideal)
        if not verify_principality(ideal, result):
            failures.append((p.to_text(), q.to_text(), gens, "verification failed"))
        prod = ideal.p * ideal.q
        for w in result.witnesses:
            if not coprime(w, prod):
                failures.append((p.to_text(), q.to_text(), gens, "witness not coprime"))
    for p, q, gens in instances[:3]:  # same contract through the CLI
        proc = run_cli(
            "reduce-ideal",
            "--p", p.to_text(),
            "--q", q.to_text(),
            "--gens", ";".join(f"{s},{t}" for s, t in gens),
            "--laurent", "--json",
        )
        rep = json.loads(proc.stdout)
        if proc.returncode != 0 or rep["result"]["principal"] is not True:
            failures.append((p.to_text(), q.to_text(), gens, "cli rejected"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120
    report(capsys, 8, ok, f"100 random exponent ideals reduced and verified in {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 120


def test_acceptance_09_cli_determinism(capsys):
    matrix = json.dumps({"vars": 2, "matrix": [["x1*x2 - 1", "0"], ["x2 - 1", "x1"]]})
    cases = [
        (("check-irred", "x1^2 - x2"), None),
        (("check-strong-irred", "1 + x1 - x2"), None),
        (("check-strong-irred", "x1*x2 - 1"), None),
        (("check-coprime", "1 + x1 - x2", "1 + x3", "--vars", "3"), None),
        (("check-vector-coprime", "1 + x1 - x2; 1 + x1", "1 + x3; 1 + x1", "--vars", "3"), None),
        (("gen-family", "--family", "F2", "--k", "1,1,1"), None),
        (("slice-poly", "1 + x1 - x2"), None),
        (("elementary-ideal", "--k", "1", "--stdin"), matrix),
        (("divisorial-hull", "--stdin"), json.dumps(
            {"vars": 2, "generators": ["x1*x2 - x2", "x1^2 - x1"]})),
        (("torsion-alex", "--braid", "s1 s2^-1 s1 s2^-1", "--strands", "3"), None),
        (("braid-alex", "--braid", "s1 s1 s1", "--strands", "2"), None),
        (("verify-ribbon", "1 + x1 - x2", "--laurent"), None),
        (("blanchfield-witness", "--p", "1 + x1 - x2", "--f", "x1", "--laurent"), None),
        (("reduce-ideal", "--p", "1 + x1 - x2", "--q", "1 + x1*x2", "--gens", "1,3;2,1"), None),
        (("genericity", "--vars", "3", "--degree", "2", "--trials", "20", "--seed", "5"), None),
    ]
    mismatches = []
    for args, stdin in cases:
        a = run_cli(*args, stdin=stdin, hashseed="0")
        b = run_cli(*args, stdin=stdin, hashseed="1")
        if (a.stdout, a.stderr, a.returncode) != (b.stdout, b.stderr, b.returncode):
            mismatches.append((args, "text"))
        ja = run_cli(*args, "--json", stdin=stdin, hashseed="0")
        jb = run_cli(*args, "--json", stdin=stdin, hashseed="1")
        ra, rb = json.loads(ja.stdout), json.loads(jb.stdout)
        ra.pop("timing_ms"), rb.pop("timing_ms")
        if ra != rb or ja.returncode != jb.returncode:
            mismatches.append((args, "json"))
    ok = not mismatches
    report(capsys, 9, ok, f"{len(cases)} commands byte-stable across runs and hash seeds")
    assert not mismatches, mismatches


def test_acceptance_10_groebner_regression(capsys):
    from strongpoly import IdealBasis, QQ, Ring, buchberger
    from strongpoly.groebner import radical_member

    Q3 = Ring(3, False, QQ)
    I = IdealBasis.from_polys(
        [
            LaurentPoly(Q3, {(2, 0, 0): 1, (0, 1, 0): -1}),
            LaurentPoly(Q3, {(3, 0, 0): 1, (0, 0, 1): -1}),
        ],
        Q3,
    )
    got = sorted(g.to_text() for g in buchberger(I).polys)
    golden = ["x1*x2 - x3", "x1*x3 - x2^2", "x1^2 - x2", "x2^3 - x3^2"]
    R2 = Ring(2, False, QQ)
    x1 = LaurentPoly(R2, {(1, 0): 1})
    x2 = LaurentPoly(R2, {(0, 1): 1})
    triple = (
        radical_member(x1, IdealBasis.from_polys([x1 * x1], R2)),
        radical_member(x1, IdealBasis.from_polys([x2], R2)),
        radical_member(x1 + x2, IdealBasis.from_polys([x1 * x1, x2 * x2], R2)),
    )
    ok = got == golden and triple == (True, False, True)
    report(capsys, 10, ok, "twisted-cubic reduced basis and radical membership triple")
    assert got == golden, got
    assert triple == (True, False, True), triple
