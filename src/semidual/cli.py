"""Command-line front end: verification pipeline, family generation,
classification, the summary-table reproduction and the family sweep.

Subcommands: verify, family, semidual, classify, table1, sweep, selftest.
verify, family, semidual, table1 and sweep all run build_report.
Exit codes: 0 all checks pass, 1 a check fails, 2 malformed input.
All output is deterministic and uses exact "p/q" rationals.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import bialgebra, bianchi, factorize, jsonio, lie, selftest, solutions
from .jsonio import InputError, rat_field
from .lie import LieAlgebra
from .linalg import Matrix, Tensor3
from .solutions import ConstraintViolation, Family, SolutionInstance


def _parse_vec(text: str, what: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise InputError(f"{what}: expected three comma-separated rationals")
    return tuple(rat_field(p, what) for p in parts)


@dataclass
class Check:
    name: str
    passed: bool
    components: list[dict]  # sparse nonzero components, exact rationals

    @property
    def lines(self) -> list[str]:
        out = []
        for c in self.components:
            idx = ",".join(str(c[k]) for k in ("i", "j", "k") if k in c)
            out.append(f"[{idx}] = {c['v']}" if idx else f"residual = {c['v']}")
        return out


@dataclass
class VerificationReport:
    """Everything the subcommands print: the echoed input, one exact residual
    summary per check (factorisation first), the m-algebra, Bianchi type,
    r-matrix, semidual algebra and its cocommutator."""

    algebra_name: str
    algebra: LieAlgebra
    F: Matrix
    lam: Fraction
    checks: list[Check]
    m_brackets: list[str] | None
    classification: bianchi.Classification | None
    r: bialgebra.RMatrix
    semidual: LieAlgebra
    delta: Tensor3

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _linear_combo(terms) -> str:
    """Render [(coefficient, symbol), ...] as an exact sum, '0' if empty."""
    parts = []
    for v, name in terms:
        if v == 1:
            parts.append(name)
        elif v == -1:
            parts.append(f"-{name}")
        else:
            parts.append(f"{v} {name}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def build_report(name: str, g: LieAlgebra, F: Matrix, lam: Fraction) -> VerificationReport:
    """Run every stage of the pipeline once on (g, F, lam).

    The closure runs only when the factorisation residual vanishes; its
    double-cross-sum tensors then also feed the cocommutator.  The 3d
    quadratic and projected forms run only on so(3) and so(2,1), the
    algebras they are derived for.  The semidual algebra, its invariant
    element and g_lam depend on g (and lam) alone; they come from bounded
    caches keyed by value, so each is built and checked once per algebra.
    """
    checks: list[Check] = []
    fact = factorize.factorization_check(g, F, lam)
    checks.append(Check("factorisation (closure of Q')", fact.is_zero(),
                        jsonio.tensor_components(fact)))
    dcs = None
    if fact.is_zero():
        try:
            dcs = factorize.verify_closure_in_complexification(g, F, lam)
        except factorize.ClosureFailure as exc:
            raise factorize.InternalMismatch(
                f"zero factorisation residual but the closure fails: {exc}"
            ) from exc
        gt, lt = dcs.g_tensor, dcs.l_tensor
    else:
        gt, lt = factorize.dcs_constants(g, F)

    if g.dim == 3 and g in lie.isometry_algebras():
        quad = factorize.quadratic_condition(F, g, lam)
        checks.append(Check("quadratic matrix form", quad.is_zero(),
                            jsonio.matrix_components(quad)))
        split = factorize.split_sv(F, g)
        proj = factorize.projected_equations(split, lam)
        checks.append(Check("projected scalar part", proj.scalar == 0,
                            [] if proj.scalar == 0 else [{"v": str(proj.scalar)}]))
        checks.append(Check("projected vector part", proj.vector.is_zero(),
                            jsonio.matrix_components(proj.vector)))
        checks.append(Check("projected traceless part", proj.traceless.is_zero(),
                            jsonio.matrix_components(proj.traceless)))

    sd_alg = bialgebra.cached_semidual_algebra(g)
    r = bialgebra.r_matrix(F)
    mcybe = bialgebra.mcybe_check(sd_alg, r, lam)
    checks.append(Check("mCYBE [[r,r]] + lambda Omega (tensor and matrix paths)",
                        mcybe.is_zero(), jsonio.tensor_components(mcybe)))

    delta = bialgebra.dualco_delta(gt, lt)
    agree = delta - bialgebra.coboundary_delta(sd_alg, r)
    checks.append(Check("cocommutator agreement (semidual vs coboundary)",
                        agree.is_zero(), jsonio.tensor_components(agree)))

    m_brackets = None
    classification = None
    if dcs is not None:
        den, ints = dcs.g_tensor.int_table()
        m_brackets = [
            f"[Q'_{a},Q'_{b}] = " + _linear_combo([(Fraction(v, den), f"Q'_{c}") for c, v in row])
            for (a, b), row in ints.items()
            if a < b
        ] or ["all Q' commute (abelian m)"]
        if g.dim == 3:
            classification = bianchi.classify(dcs.m_algebra)
    return VerificationReport(name, g, F, lam, checks, m_brackets, classification,
                              r, sd_alg, delta)


def _metric_str(g: LieAlgebra) -> str:
    if g.metric is None:
        return "none"
    return "diag(" + ",".join(str(g.metric[i, i]) for i in range(g.dim)) + ")"


def _print_matrix(F: Matrix, indent="  "):
    for row in F.data:
        print(indent + "[ " + "  ".join(str(v) for v in row) + " ]")


def _print_report(rep: VerificationReport):
    print("input algebra: %s (dim %d, metric %s)" % (
        rep.algebra_name, rep.algebra.dim, _metric_str(rep.algebra)))
    print(f"lambda: {rep.lam}")
    print("F (columns are images of the J basis):")
    _print_matrix(rep.F)
    for c in rep.checks:
        print(f"check {c.name}: {'PASS' if c.passed else 'FAIL'}")
        if not c.passed:
            for line in c.lines:
                print(f"  nonzero {line}")
    if rep.m_brackets is not None:
        print("m-algebra brackets:")
        for line in rep.m_brackets:
            print(f"  {line}")
    if rep.classification is not None:
        cl = rep.classification
        h = "-" if cl.h is None else str(cl.h)
        print(f"bianchi type: {cl.label} (h = {h})")
    print("r-matrix coefficients R[b][a] (r = R^b_a P^a ^ J_b):")
    _print_matrix(rep.r.coeffs)
    print(f"overall: {'PASS' if rep.passed else 'FAIL'}")


def _report_json(rep: VerificationReport) -> dict:
    return {
        "algebra": jsonio.algebra_to_json(rep.algebra),
        "algebra_name": rep.algebra_name,
        "lambda": str(rep.lam),
        "F": jsonio.fmap_to_json(rep.F),
        "checks": [
            {"name": c.name, "pass": c.passed, "nonzero": c.components}
            for c in rep.checks
        ],
        "m_brackets": rep.m_brackets,
        "r_matrix": jsonio.rmatrix_to_json(rep.r.coeffs),
        "bianchi": None if rep.classification is None else _classification_json(rep.classification),
        "pass": rep.passed,
    }


def _classification_json(cl: bianchi.Classification) -> dict:
    return {
        "type": cl.label,
        "h": None if cl.h is None else str(cl.h),
        "n_rank": cl.n_rank,
        "n_inertia": list(cl.n_inertia),
        "a_zero": cl.a_zero,
    }


def _load_inputs(args) -> tuple[str, LieAlgebra, Matrix, Fraction]:
    """The --algebra, --f and --lambda of verify and semidual."""
    name, g = jsonio.load_algebra(args.algebra)
    F = jsonio.fmap_from_json(jsonio.load_json_file(args.f), g.dim, where=str(args.f))
    return name, g, F, rat_field(args.lam, "--lambda")


def cmd_verify(args) -> int:
    rep = build_report(*_load_inputs(args))
    if args.json:
        print(json.dumps(_report_json(rep), indent=2, sort_keys=True))
    else:
        _print_report(rep)
    return 0 if rep.passed else 1


# the flags that are not one rational; argparse already made --alpha 0 or 1
_PARSE_FLAG = {"v": _parse_vec, "alpha": lambda value, flag: value}

# family -> (description, constructor, the flags it takes after the
# algebra, in the constructor's argument order)
_FAMILIES = {
    Family.ZERO: ("F = 0", solutions.zero_solution, ("lambda",)),
    Family.DOUBLE: ("F = sqrt(lambda) id", solutions.double_solution, ("lambda", "sqrt")),
    Family.KAPPA: ("F = ad_V", solutions.kappa_solution, ("v", "lambda")),
    Family.GENKAPPA: ("F = beta |V><V| + alpha ad_V", solutions.generalized_kappa,
                      ("v", "beta", "alpha", "lambda")),
    Family.RANKONE: ("F = beta |m><m|", solutions.rank_one, ("v", "beta")),
    Family.SMALL_JORDAN: ("F = beta |N><N| - sqrt(lambda) |J1><J1| + sqrt(lambda) ad_J1",
                          solutions.small_jordan, ("beta", "lambda", "sqrt")),
    Family.LIGHT_JORDAN: ("F = beta |n><n| + ad_n", solutions.light_jordan, ("beta",)),
    Family.LARGE_JORDAN: ("F = beta |J1><n|", solutions.large_jordan, ("beta",)),
}


def _build_family(args) -> SolutionInstance:
    """The instance of --family; its flags are checked and parsed one at a
    time in argument order, so the first missing or malformed one is named."""
    e, l = lie.isometry_algebras()
    _, construct, flags = _FAMILIES[Family(args.family)]
    values = []
    for flag in flags:
        text = getattr(args, "lam" if flag == "lambda" else flag)
        if text is None:
            raise InputError(f"--family {args.family} requires --{flag}")
        values.append(_PARSE_FLAG.get(flag, rat_field)(text, f"--{flag}"))
    try:
        return construct(e if args.metric == "euclidean" else l, *values)
    except ValueError as exc:
        if isinstance(exc, (InputError, ConstraintViolation)):
            raise
        raise InputError(str(exc)) from exc


def cmd_family(args) -> int:
    inst = _build_family(args)
    name = "so3" if inst.algebra.metric == lie.EUCLIDEAN_METRIC else "so21"
    rep = build_report(name, inst.algebra, inst.F, inst.lam)
    expected = inst.expected_bianchi.label if inst.expected_bianchi else None
    computed = rep.classification.label if rep.classification else None
    type_ok = expected is None or expected == computed
    fjson = jsonio.fmap_to_json(inst.F)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                json.dump(fjson, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise InputError(f"--out: cannot write {args.out}: {exc.strerror}") from exc
    if args.json:
        obj = _report_json(rep)
        obj["family"] = inst.family.value
        obj["params"] = {
            k: (str(v) if isinstance(v, Fraction) else [str(x) for x in v])
            for k, v in inst.params.items()
        }
        obj["expected_bianchi"] = expected
        obj["bianchi_matches_expected"] = type_ok
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(f"family: {inst.family.value} ({_FAMILIES[inst.family][0]})")
        params = ", ".join(
            f"{k} = {v}" if isinstance(v, Fraction) else
            f"{k} = ({','.join(str(x) for x in v)})"
            for k, v in inst.params.items()
        )
        print(f"parameters: {params or 'none'}")
        _print_report(rep)
        print(f"expected bianchi type: {expected or '-'}"
              + ("" if type_ok else f"  MISMATCH (computed {computed})"))
        if args.out:
            print(f"F written to {args.out}")
    return 0 if rep.passed and type_ok else 1


def cmd_semidual(args) -> int:
    rep = build_report(*_load_inputs(args))
    fact = rep.checks[0]
    if not fact.passed:
        comps = factorize.list_residual([(c["i"], c["j"], c["k"], c["v"])
                                         for c in fact.components])
        print(f"FAIL: factorisation condition fails at {comps}")
        return 1
    delta = rep.delta
    # delta is a Lie cobracket exactly when its dual bracket is a Lie bracket
    try:
        lie.make_lie_algebra(bialgebra.dual_bracket(delta))
    except lie.AntisymmetryViolation as exc:
        j, k, i = exc.indices
        raise AssertionError(f"cocommutator is not antisymmetric: "
                             f"delta[{i}][{j}][{k}] != -delta[{i}][{k}][{j}]") from exc
    except lie.JacobiViolation as exc:
        raise AssertionError(f"co-Jacobi fails at {exc.indices}, residual {exc.residual}") from exc
    n = rep.algebra.dim
    names = [f"J_{a}" for a in range(n)] + [f"P^{a}" for a in range(n)]
    if args.json:
        obj = {
            "algebra_name": rep.algebra_name,
            "lambda": str(rep.lam),
            "commutators": jsonio.tensor_components(rep.semidual.f),
            "delta": jsonio.tensor_components(delta),
            "r_matrix": jsonio.rmatrix_to_json(rep.r.coeffs),
            "r_tensor": jsonio.matrix_components(rep.r.tensor),
            "basis": names,
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(f"semidual bialgebra of {rep.algebra_name} with lambda = {rep.lam}")
        print(f"basis: {', '.join(names)} (indices 0..{2 * n - 1})")
        print("nonzero commutators:")
        for i, j, k, v in rep.semidual.f.nonzero():
            if i < j:
                print(f"  [{names[i]},{names[j]}] += {v} {names[k]}")
        print("cocommutator delta(e_i) = delta[i][j][k] e_j (x) e_k, nonzero:")
        for i, j, k, v in delta.nonzero():
            print(f"  delta({names[i]})[{names[j]} (x) {names[k]}] = {v}")
        print("r-matrix coefficients R[b][a]:")
        _print_matrix(rep.r.coeffs)
    return 0 if rep.passed else 1


def cmd_classify(args) -> int:
    name, g = jsonio.load_algebra(args.algebra)
    try:
        cl = bianchi.classify(g)
    except (bianchi.NotThreeDimensional, bianchi.JacobiFails) as exc:
        raise InputError(f"{name}: {exc}") from exc
    if args.json:
        print(json.dumps(_classification_json(cl), indent=2, sort_keys=True))
    else:
        h = "-" if cl.h is None else str(cl.h)
        p, m, z = cl.n_inertia
        print(f"algebra: {name}")
        print(f"bianchi type: {cl.label} (h = {h})")
        print(f"n rank: {cl.n_rank}, inertia (+,-,0): ({p},{m},{z}), a = 0: "
              f"{'yes' if cl.a_zero else 'no'}")
    return 0


_M_NAMES = {
    "I": "R^3",
    "II": "heisenberg",
    "III": "R (+) L(2)",
    "IV": "R |x R^2",
    "V": "R |x R^2",
    "VI": "R |x R^2",
    "VII": "R |x R^2",
    "VIII": "so(2,1)",
    "IX": "so(3)",
}


def _table1_rows():
    """One representative per summary-table row, both signatures where
    applicable; (row label, instance factory, expected type)."""
    e, l = lie.isometry_algebras()
    return [
        ("F = 0", "euclidean", solutions.zero_solution(e, 0), "I"),
        ("F = 0", "lorentzian", solutions.zero_solution(l, 0), "I"),
        ("sqrt(lambda) id", "euclidean", solutions.double_solution(e, 1, 1), "IX"),
        ("sqrt(lambda) id", "lorentzian", solutions.double_solution(l, 1, 1), "VIII"),
        ("beta|V><V| + ad_V, timelike v", "euclidean",
         solutions.generalized_kappa(e, (1, 0, 0), 1, 1, -1), "VII"),
        ("beta|V><V| + ad_V, timelike v", "lorentzian",
         solutions.generalized_kappa(l, (1, 0, 0), 1, 1, -1), "VII"),
        ("beta|V><V| + ad_V, spacelike v", "lorentzian",
         solutions.generalized_kappa(l, (0, 1, 0), 2, 1, 1), "VI"),
        ("ad_V, lightlike v (beta = 0)", "lorentzian",
         solutions.generalized_kappa(l, (-1, 0, -1), 0, 1, 0), "V"),
        ("beta|V><V| + ad_V, lightlike v", "lorentzian",
         solutions.generalized_kappa(l, (-1, 0, -1), 1, 1, 0), "IV"),
        ("small Jordan (beta = 1)", "lorentzian",
         solutions.small_jordan(l, 1, 1, 1), "III"),
        ("large Jordan (beta = 1)", "lorentzian",
         solutions.large_jordan(l, 1), "III"),
    ]


def _r_matrix_formula(inst: SolutionInstance) -> str:
    return _linear_combo([(v, f"P^{a}^J_{b}") for b, a, v in inst.F.nonzero()])


def _classify_instance(name: str, inst: SolutionInstance, expected: str):
    """Run build_report on inst; return the Bianchi label of its factor
    algebra (None if the factorisation fails) and whether every check passed
    with that label equal to expected."""
    rep = build_report(name, inst.algebra, inst.F, inst.lam)
    label = rep.classification.label if rep.classification else None
    return label, rep.passed and label == expected


def cmd_table1(args) -> int:
    rows = []
    failures = []
    for label, sig, inst, expected in _table1_rows():
        computed, ok = _classify_instance(sig, inst, expected)
        computed = computed or "?"
        if not ok:
            failures.append(f"{label} [{sig}]")
        rows.append((label, sig, str(inst.lam), _r_matrix_formula(inst),
                     _M_NAMES[computed], computed, expected,
                     "PASS" if ok else "FAIL"))
    if args.json:
        obj = [
            {
                "F": label, "signature": sig, "lambda": lam, "r_matrix": rm,
                "m_algebra": m, "bianchi": comp, "expected": exp, "status": st,
            }
            for label, sig, lam, rm, m, comp, exp, st in rows
        ]
        print(json.dumps({"rows": obj, "pass": not failures}, indent=2, sort_keys=True))
    else:
        header = ("F", "signature", "lambda", "r-matrix", "m", "bianchi")
        widths = [max(len(str(r[i])) for r in rows + [header + ("", "")])
                  for i in range(6)]
        fmt = "  ".join("%%-%ds" % w for w in widths) + "  %s"
        print(fmt % (header + ("status",)))
        print(fmt % tuple("-" * w for w in widths + [6]))
        for label, sig, lam, rm, m, comp, exp, st in rows:
            mark = comp if comp == exp else f"{comp} (expected {exp})"
            print(fmt % (label, sig, lam, rm, m, mark, st))
        print()
        if failures:
            print("table1: FAIL (%s)" % "; ".join(failures))
        else:
            print(f"table1: PASS ({len(rows)} rows)")
    return 1 if failures else 0


def cmd_sweep(args) -> int:
    """Every solution-family instance of the standard parameter grid through
    build_report, one line each, then a Bianchi-type census; stops at the
    first instance that fails a check or has an unexpected type."""
    census = Counter()
    sweep = solutions.standard_sweep(include_rank_one=not args.skip_rank_one)
    for inst in sweep:
        euclid = inst.algebra.metric == lie.EUCLIDEAN_METRIC
        expected = inst.expected_bianchi.label
        label, ok = _classify_instance("so3" if euclid else "so21", inst, expected)
        label = label or "-"
        census[label] += 1
        params = ", ".join(
            f"{k}=({','.join(str(x) for x in v)})" if isinstance(v, tuple) else f"{k}={v}"
            for k, v in inst.params.items())
        desc = (f"{inst.family.value:13s} {'euclidean' if euclid else 'lorentzian':10s} "
                f"lambda={str(inst.lam):4s} {params}")
        print(f"{desc:70s} -> {label:4s} (expected {expected:4s}) {'ok' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    print()
    print("bianchi census:", dict(sorted(census.items())))
    return 0


def cmd_selftest(args) -> int:
    ok = True
    for name, fn in selftest.suites():
        passed = fn()
        ok = ok and passed
        print(f"selftest {name}: {'PASS' if passed else 'FAIL'}")
    print(f"selftest: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main`
    call.  It names the subcommand only; `main` looks its cmd_* function up
    per call, so a rebound one is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="semidual",
        description="Exact verification of double-cross-sum factorisations and "
        "the classical r-matrices of their semiduals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify a candidate F against an algebra")
    p.add_argument("--algebra", required=True, help="so3, so21, or a JSON file")
    p.add_argument("--f", required=True, help="F-matrix JSON file")
    p.add_argument("--lambda", dest="lam", required=True, help="rational p/q")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("family", help="generate a solution-family instance")
    p.add_argument("--family", required=True,
                   choices=[f.value for f in Family])
    p.add_argument("--metric", choices=["euclidean", "lorentzian"],
                   default="lorentzian")
    p.add_argument("--v", help="three comma-separated rationals")
    p.add_argument("--beta", help="rational p/q")
    p.add_argument("--alpha", type=int, choices=[0, 1])
    p.add_argument("--lambda", dest="lam", help="rational p/q")
    p.add_argument("--sqrt", help="rational square root of |lambda|")
    p.add_argument("--out", help="write the F-matrix JSON here")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("semidual", help="emit the semidual bialgebra tensors")
    p.add_argument("--algebra", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="Bianchi type of a 3d Lie algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table1", help="reproduce the summary table")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("sweep", help="run every solution family over the standard grid")
    p.add_argument("--skip-rank-one", action="store_true",
                   help="restrict to the families of the summary table")

    sub.add_parser("selftest", help="run the identity and property suites")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (InputError, ConstraintViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
