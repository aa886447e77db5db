"""Command-line front end.

Every subcommand maps to exactly one library operation.  Text output is
deterministic for fixed inputs and seeds; timing appears only in the JSON
report, in its own field, so byte comparisons can drop it.  Exit codes:
0 proved/success, 1 refuted, 2 undecided, 3 input error, 4 resource
budget exceeded, 5 internal error.
"""

import argparse
import json
import sys
import time
from dataclasses import fields
from fractions import Fraction

from . import alexander, families, localize
from .errors import Budgets, ResourceBudgetExceeded
from .factor import is_irreducible
from .groebner import IdealBasis
from .parse import (
    MAX_VARS,
    json_int,
    parse_braid,
    parse_exponent_pairs,
    parse_matrix_json,
    parse_polynomial,
    parse_polynomials,
)
from .ring import LaurentPoly, Ring
from .strongcheck import (
    PolyVector,
    check_strongly_coprime,
    check_strongly_irreducible,
    check_vector_coprime,
    genericity_sample,
)
from .verdict import PROVED, REFUTED, UNDECIDED, Verdict

_EXIT_FOR_STATUS = {PROVED: 0, REFUTED: 1, UNDECIDED: 2}


def _encode(obj):
    """Recursively turn library objects into JSON-friendly values."""
    if isinstance(obj, LaurentPoly):
        return obj.to_text()
    if isinstance(obj, Verdict):
        out = {"status": obj.status}
        if obj.rule:
            out["rule"] = obj.rule
        if obj.reason:
            out["reason"] = obj.reason
        if obj.witness is not None:
            out["witness"] = _encode(obj.witness)
        if obj.details:
            out["details"] = _encode(obj.details)
        return out
    if isinstance(obj, dict):
        return {str(k): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def _budgets(args) -> Budgets:
    """Budgets from the budget flags a subcommand declares (each flag's
    dest is a Budgets field); flags not given keep their defaults."""
    given = {f.name: getattr(args, f.name, None) for f in fields(Budgets)}
    return Budgets(**{name: v for name, v in given.items() if v is not None})


def _family_member(args) -> LaurentPoly:
    spec = families.FamilySpec(args.family, tuple(int(k) for k in args.k.split(",")))
    return families.build_family_poly(spec)


def _poly_or_family(args) -> LaurentPoly:
    """The Laurent polynomial of a command that takes a polynomial or --family/--k."""
    if args.family and args.k is not None:
        return _family_member(args)
    if args.poly and not args.family:
        return parse_polynomial(args.poly, args.vars, laurent=True)
    raise ValueError(f"{args.subcommand} needs a polynomial or both --family and --k")


def _read_stdin_json():
    try:
        return json.load(sys.stdin)
    except json.JSONDecodeError as e:
        raise ValueError(f"stdin is not valid JSON: {e}") from None


# -- subcommand handlers ----------------------------------------------------
# Each returns a Verdict, which main renders and maps to its exit code, or
# (result dict, text lines, exit code).


def _cmd_check_irred(args):
    p = parse_polynomial(args.poly, args.vars, args.laurent)
    return is_irreducible(p, _budgets(args))


def _cmd_check_strong_irred(args):
    p = parse_polynomial(args.poly, args.vars, args.laurent)
    return check_strongly_irreducible(p, _budgets(args))


def _cmd_check_coprime(args):
    p, q = parse_polynomials([args.p, args.q], args.vars, args.laurent)
    return check_strongly_coprime(p, q, _budgets(args))


def _cmd_check_vector_coprime(args):
    left = [t.strip() for t in args.p.split(";")]
    right = [t.strip() for t in args.q.split(";")]
    polys = parse_polynomials(left + right, args.vars, args.laurent)
    P = PolyVector(tuple(polys[: len(left)]))
    Q = PolyVector(tuple(polys[len(left):]))
    return check_vector_coprime(P, Q, _budgets(args))


def _cmd_gen_family(args):
    p = _family_member(args)
    text = p.to_text()
    result = {"family": args.family, "k": [int(k) for k in args.k.split(",")], "polynomial": text}
    return result, [f"polynomial: {text}"], 0


def _cmd_slice_poly(args):
    p = _poly_or_family(args)
    product = families.slice_polynomial(p)
    return {"product": product.to_text()}, [f"product: {product.to_text()}"], 0


def _cmd_elementary_ideal(args):
    pres = parse_matrix_json(_read_stdin_json())
    ideal = alexander.elementary_ideal(pres, args.k)
    gens = [g.to_text() for g in ideal.generators]
    lines = [f"gen: {g}" for g in gens] if gens else ["zero ideal"]
    return {"k": args.k, "generators": gens}, lines, 0


def _cmd_divisorial_hull(args):
    data = _read_stdin_json()
    try:
        n = json_int(data["vars"])
        texts = data["generators"]
    except (KeyError, TypeError, ValueError):
        texts = None
    if not isinstance(texts, list):
        raise ValueError('divisorial-hull reads {"vars": n, "generators": [...]} from stdin')
    ring = Ring(n, laurent=False)
    polys = parse_polynomials([str(text) for text in texts], nvars=n, laurent=True)
    gens = tuple(alexander.canonical_associate(g) for g in polys if not g.is_zero())
    hull = alexander.divisorial_hull(IdealBasis(ring, gens))
    return {"hull": hull.to_text()}, [f"hull: {hull.to_text()}"], 0


def _presentation_from_args(args):
    if args.braid is not None:
        if args.strands is None:
            raise ValueError("--braid needs --strands")
        return alexander.braid_to_presentation(parse_braid(args.braid), args.strands)
    if args.stdin:
        return parse_matrix_json(_read_stdin_json())
    raise ValueError("need --braid with --strands, or --stdin with a matrix")


def _cmd_torsion_alex(args):
    pres = _presentation_from_args(args)
    delta = alexander.torsion_alexander_poly(pres)
    text = delta.to_text("t")
    return {"alexander": text}, [text], 0


def _cmd_braid_alex(args):
    word = parse_braid(args.braid)
    pres = alexander.braid_to_presentation(word, args.strands)
    ncomp, comps = alexander.braid_components(word, args.strands)
    delta = alexander.torsion_alexander_poly(pres)
    link_rank = alexander.free_rank(pres) - 1
    text = delta.to_text("t")
    result = {
        "components": ncomp,
        "component_of_strand": list(comps),
        "matrix_rows": pres.nrows,
        "matrix_cols": pres.ncols,
        "link_free_rank": link_rank,
        "alexander": text,
    }
    lines = [
        f"components: {ncomp}",
        f"matrix: {pres.nrows}x{pres.ncols}",
        f"link free rank: {link_rank}",
        f"alexander: {text}",
    ]
    return result, lines, 0


def _cmd_verify_ribbon(args):
    p = _poly_or_family(args)
    report = alexander.verify_ribbon_presentation(p)
    lines = []
    steps = []
    for name, flag, detail in report.steps:
        word = "pass" if flag else "FAIL"
        lines.append(f"step {name}: {word}")
        steps.append({"name": name, "ok": flag, "detail": detail})
    lines.append(f"product: {report.product.to_text()}")
    lines.append(f"alexander: {report.alexander.to_text()}")
    lines.append(f"ok: {'true' if report.ok else 'false'}")
    result = {
        "steps": steps,
        "product": report.product.to_text(),
        "alexander": report.alexander.to_text(),
        "ok": report.ok,
    }
    return result, lines, 0 if report.ok else 1


def _cmd_blanchfield_witness(args):
    p, f = parse_polynomials([args.p, args.f], args.vars, laurent=True)
    value = alexander.blanchfield_self_link_witness(p, f)
    result = {
        "numerator": value.numerator.to_text(),
        "denominator": value.denominator.to_text(),
        "zero": value.is_zero,
    }
    lines = [
        f"numerator: {result['numerator']}",
        f"denominator: {result['denominator']}",
        f"zero: {'true' if result['zero'] else 'false'}",
    ]
    return result, lines, 0


def _cmd_reduce_ideal(args):
    p, q = parse_polynomials([args.p, args.q], args.vars, laurent=True)
    ideal = localize.LocalizedIdeal(p, q, parse_exponent_pairs(args.gens))
    res = localize.reduce_localized_ideal(ideal)
    principal = localize.verify_principality(ideal, res)
    s, t = res.generator
    result = {
        "generator": [s, t],
        "witnesses": [w.to_text() for w in res.witnesses],
        "principal": principal,
    }
    lines = [f"generator: p^{s} q^{t}"]
    lines += [f"witness: {w.to_text()}" for w in res.witnesses]
    lines.append(f"principal: {'true' if principal else 'false'}")
    return result, lines, 0 if principal else 1


def _cmd_genericity(args):
    report = genericity_sample(
        args.vars,
        args.degree,
        args.trials,
        coeff_box=args.coeff_box,
        rng_seed=args.seed,
        budgets=_budgets(args),
    )
    rate = f"{report.pass_rate:.4f}"
    result = {
        "vars": report.n_vars,
        "degree": report.degree,
        "trials": report.trials,
        "coeff_box": report.coeff_box,
        "seed": report.rng_seed,
        "passes": report.passes,
        "rate": float(rate),
    }
    lines = [f"passes: {report.passes}/{report.trials}", f"rate: {rate}"]
    return result, lines, 0


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors exit 3, an input error, rather than 2,
    which the exit-code taxonomy reads as UNDECIDED."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")

    def _parse_optional(self, arg_string):
        # a token with one leading dash that names none of this parser's
        # options, such as the polynomial "-12*x2", is an argument, where
        # argparse would call it an unknown option; -h stays an option, and
        # an unknown --flag stays an error
        if arg_string[:1] == "-" and arg_string[:2] != "--":
            if arg_string not in self._option_string_actions:
                return None
        return super()._parse_optional(arg_string)


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid budget {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"budget {value} is below 1")
    return value


def _count(text: str) -> int:
    """A count of variables or strands, at most parse.MAX_VARS."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid count {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is below 0")
    if value > MAX_VARS:
        raise argparse.ArgumentTypeError(f"{value} is more than {MAX_VARS}")
    return value


# flag -> (Budgets field it sets, help); a subcommand declares the flags it honours
_BUDGET_FLAGS = {
    "--max-degree": ("max_kron_degree", "Kronecker image degree cap for multivariate factoring"),
    "--max-k": ("uniform_max", "uniform power bound for refutation search"),
    "--gb-steps": ("max_pairs", "Groebner pair budget"),
}


def _add_budget_flags(sub, *flags):
    for flag in flags or _BUDGET_FLAGS:
        dest, help_text = _BUDGET_FLAGS[flag]
        sub.add_argument(flag, dest=dest, type=_budget, help=help_text)


def _add_common(sub, vars_flag=True):
    sub.add_argument("--laurent", action="store_true", help="allow negative exponents")
    if vars_flag:
        sub.add_argument("--vars", type=_count, help="pad the variable count")
    sub.add_argument("--json", action="store_true", help="emit a JSON report")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="strongpoly",
        description="Exact certificates for strong irreducibility, strong coprimality, "
        "and torsion link-module invariants.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    s = subs.add_parser("check-irred", help="decide irreducibility over ZZ")
    s.add_argument("poly")
    _add_common(s)
    _add_budget_flags(s, "--max-degree")
    s.set_defaults(handler=_cmd_check_irred)

    s = subs.add_parser("check-strong-irred", help="certify strong irreducibility")
    s.add_argument("poly")
    _add_common(s)
    _add_budget_flags(s)
    s.set_defaults(handler=_cmd_check_strong_irred)

    s = subs.add_parser("check-coprime", help="certify strong coprimality of two polynomials")
    s.add_argument("p")
    s.add_argument("q")
    _add_common(s)
    _add_budget_flags(s)
    s.set_defaults(handler=_cmd_check_coprime)

    s = subs.add_parser("check-vector-coprime", help="componentwise strong coprimality")
    s.add_argument("p", help="semicolon-separated entries")
    s.add_argument("q", help="semicolon-separated entries")
    _add_common(s)
    _add_budget_flags(s)
    s.set_defaults(handler=_cmd_check_vector_coprime)

    s = subs.add_parser("gen-family", help="build a family member from coefficients")
    s.add_argument("--family", required=True, choices=[families.F1, families.F2])
    s.add_argument("--k", required=True, help="comma-separated nonzero coefficients")
    _add_common(s, vars_flag=False)
    s.set_defaults(handler=_cmd_gen_family)

    s = subs.add_parser("slice-poly", help="product p * bar(p) of a slice polynomial")
    s.add_argument("poly", nargs="?")
    s.add_argument("--family", choices=[families.F1, families.F2])
    s.add_argument("--k")
    _add_common(s)
    s.set_defaults(handler=_cmd_slice_poly)

    s = subs.add_parser("elementary-ideal", help="minor ideal of a presentation matrix")
    s.add_argument("--k", type=int, required=True)
    s.add_argument(
        "--stdin", action="store_true", required=True, help="read the matrix JSON from stdin"
    )
    _add_common(s, vars_flag=False)
    s.set_defaults(handler=_cmd_elementary_ideal)

    s = subs.add_parser("divisorial-hull", help="gcd hull of an ideal's generators")
    s.add_argument(
        "--stdin", action="store_true", required=True, help="read generators JSON from stdin"
    )
    _add_common(s, vars_flag=False)
    s.set_defaults(handler=_cmd_divisorial_hull)

    s = subs.add_parser("torsion-alex", help="torsion Alexander polynomial")
    s.add_argument("--braid", help="braid word, e.g. 's1 s1 s1'")
    s.add_argument("--strands", type=_count)
    s.add_argument("--stdin", action="store_true", help="read a matrix JSON from stdin")
    _add_common(s, vars_flag=False)
    s.set_defaults(handler=_cmd_torsion_alex)

    s = subs.add_parser("braid-alex", help="closure report for a braid word")
    s.add_argument("--braid", required=True)
    s.add_argument("--strands", type=_count, required=True)
    _add_common(s, vars_flag=False)
    s.set_defaults(handler=_cmd_braid_alex)

    s = subs.add_parser("verify-ribbon", help="certify the cyclic torsion module on p*bar(p)")
    s.add_argument("poly", nargs="?")
    s.add_argument("--family", choices=[families.F1, families.F2])
    s.add_argument("--k")
    _add_common(s)
    s.set_defaults(handler=_cmd_verify_ribbon)

    s = subs.add_parser("blanchfield-witness", help="nonzero self-pairing certificate")
    s.add_argument("--p", required=True)
    s.add_argument("--f", required=True)
    _add_common(s)
    s.set_defaults(handler=_cmd_blanchfield_witness)

    s = subs.add_parser("reduce-ideal", help="single generator of a localized exponent ideal")
    s.add_argument("--p", required=True)
    s.add_argument("--q", required=True)
    s.add_argument("--gens", required=True, help="exponent pairs like '1,3;2,1'")
    _add_common(s)
    s.set_defaults(handler=_cmd_reduce_ideal)

    s = subs.add_parser("genericity", help="sampled pass rate of the singular-locus criterion")
    s.add_argument("--vars", type=_count, required=True)
    s.add_argument("--degree", type=int, required=True)
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--coeff-box", type=int, default=100)
    _add_budget_flags(s, "--gb-steps")
    s.add_argument("--json", action="store_true")
    s.set_defaults(handler=_cmd_genericity)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    start = time.perf_counter()
    try:
        out = args.handler(args)
        # rendering stays inside the try: to_text raises ResourceBudgetExceeded
        # past its print limit, which must exit 4
        if isinstance(out, Verdict):
            # a verdict's fields sit at the top level of the JSON report
            code = _EXIT_FOR_STATUS[out.status]
            shown = _encode(out)
            lines = [f"{key}: {val if isinstance(val, str) else json.dumps(val, sort_keys=True)}"
                     for key, val in shown.items()]
        else:
            result, lines, code = out
            shown = {"status": "OK" if code == 0 else REFUTED, "result": result}
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 3
    except ResourceBudgetExceeded as e:
        print(f"resource budget exceeded: {e}", file=sys.stderr)
        return 4
    except Exception as e:
        # a failed internal check must not exit 1, which reads as REFUTED
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 5
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if getattr(args, "json", False):
        report = {"command": args.subcommand, "exit_code": code, "timing_ms": round(elapsed_ms, 3)}
        print(json.dumps({**report, **shown}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
