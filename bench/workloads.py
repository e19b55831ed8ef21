"""Seeded input streams for the benchmark workloads, and the answer key each
input is checked against.

Nothing here imports semidual.  Each input's expected verdict comes from
the paper's summary-table rules and from a small 3d residual formula
written out below, so a defect in the program cannot leak into its own
answer key.

A stream is an endless iterator of `Input`s; the i-th input depends only on
the workload and the seed.  The program only ever sees `Input.argv` and the
files in `Input.files`.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterator

WORKLOADS = ("paper_sweep", "reject", "highdim")

# Verdicts per round: the timed loop only stops between rounds, so a run
# always measures whole (6, 6, 9) groups on highdim.
ROUND = {"paper_sweep": 1, "reject": 1, "highdim": 3}

# Inputs made during set-up, and the prefix whose outputs are digested,
# traced and counted: one full sweep grid, or one highdim round.
PREFIX = {"paper_sweep": 138, "reject": 138, "highdim": 3}

HIGHDIM_DIMS = (6, 6, 9)


@dataclass(frozen=True)
class Expect:
    exit: int
    passed: bool
    bianchi: str | None


@dataclass(frozen=True)
class Input:
    argv: tuple[str, ...]
    files: tuple[tuple[str, str], ...]  # (name relative to the run directory, text)
    algebra: str  # the --algebra value: so3, so21 or a file name
    algebra_key: str  # value identity of the algebra the verdict runs on
    dim: int
    coeff_bits: int  # largest numerator/denominator bit length in F, lambda, f
    expect: Expect


# ---------------------------------------------------------------------------
# 3d isometry algebras, written out independently of the program.
# [e_a, e_b] = eps_abd eta^dc e_c with eta = diag(1,1,1) or diag(1,-1,-1).

ETA = {"euclidean": (1, 1, 1), "lorentzian": (1, -1, -1)}
ALGEBRA = {"euclidean": "so3", "lorentzian": "so21"}


def _eps(a, b, c):
    return (a - b) * (b - c) * (c - a) // 2


def bracket(sig, x, y, scale=1):
    cross = (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2], x[0] * y[1] - x[1] * y[0])
    if sig == "lorentzian":
        cross = (cross[0], -cross[1], -cross[2])
    return cross if scale == 1 else tuple(scale * x for x in cross)


def _apply(F, x):
    return tuple(sum(F[b][a] * x[a] for a in range(3)) for b in range(3))


def _col(F, a):
    return tuple(F[b][a] for b in range(3))


def residual(sig, F, lam, scale=1):
    """[F e_a, F e_b] - F([e_a, F e_b] + [F e_a, e_b]) + lam [e_a, e_b], all a, b."""
    basis = [tuple(Q(int(i == a)) for i in range(3)) for a in range(3)]
    out = []
    for a in range(3):
        for b in range(3):
            fa, fb = _col(F, a), _col(F, b)
            t1 = bracket(sig, fa, fb, scale)
            inner = [p + q for p, q in zip(bracket(sig, basis[a], fb, scale),
                                           bracket(sig, fa, basis[b], scale))]
            t2 = _apply(F, inner)
            t3 = bracket(sig, basis[a], basis[b], scale)
            out.extend(t1[c] - t2[c] + lam * t3[c] for c in range(3))
    return out


def _norm(sig, v):
    return sum(e * x * x for e, x in zip(ETA[sig], v))


def _outer(sig, x, y):
    low = [e * c for e, c in zip(ETA[sig], y)]
    return [[x[b] * low[a] for a in range(3)] for b in range(3)]


def _ad(sig, v):
    # ad_v(e_b) = [v, e_b] = sum_a v^a f_ab^c e_c
    return [[sum(v[a] * _eps(a, b, c) * ETA[sig][c] for a in range(3)) for b in range(3)]
            for c in range(3)]


def _lin(*terms):
    out = [[Q(0)] * 3 for _ in range(3)]
    for coef, M in terms:
        for i in range(3):
            for j in range(3):
                out[i][j] += coef * M[i][j]
    return out


ZERO3 = [[Q(0)] * 3 for _ in range(3)]
ID3 = [[Q(int(i == j)) for j in range(3)] for i in range(3)]
NULL_N = (Q(1), Q(0), Q(1))
J1 = (Q(0), Q(1), Q(0))


# ---------------------------------------------------------------------------
# The standard sweep grid (138 instances) and the summary-table rules.

@dataclass(frozen=True)
class Case:
    family: str
    sig: str
    lam: Q
    params: tuple  # (name, value) pairs, value a Fraction or a 3-tuple

    def param(self, name):
        return dict(self.params)[name]


def _v(*xs):
    return tuple(Q(x) for x in xs)


BETAS = tuple(Q(b) for b in (-2, -1, 0, 1, 2, Q(1, 2)))
EUCLIDEAN_V = {Q(-1): (_v(1, 0, 0), _v(Q(3, 5), Q(4, 5), 0)),
               Q(-4): (_v(2, 0, 0), _v(Q(6, 5), Q(8, 5), 0))}
LORENTZIAN_V = {Q(-1): (_v(1, 0, 0), _v(Q(5, 4), Q(3, 4), 0)),
                Q(-4): (_v(2, 0, 0),),
                Q(1): (_v(0, 1, 0), _v(Q(3, 4), Q(5, 4), 0)),
                Q(4): (_v(0, 2, 0),),
                Q(0): (_v(1, 0, 1), _v(-1, 0, -1), _v(5, 3, 4))}
RANKONE_M = {"euclidean": (_v(1, 0, 0), _v(3, 4, 0)),
             "lorentzian": (_v(1, 0, 0), _v(0, 1, 0), _v(1, 0, 1))}
DOUBLE = ((Q(1), Q(1)), (Q(4), Q(2)))


def sweep_cases() -> list[Case]:
    out = []
    for sig, vtab in (("euclidean", EUCLIDEAN_V), ("lorentzian", LORENTZIAN_V)):
        out.append(Case("zero", sig, Q(0), ()))
        out += [Case("double", sig, lam, (("sqrt", s),)) for lam, s in DOUBLE]
        out += [Case("genkappa", sig, lam, (("v", v), ("beta", b)))
                for lam, vs in vtab.items() for v in vs for b in BETAS]
        out += [Case("rankone", sig, Q(0), (("v", m), ("beta", b)))
                for m in RANKONE_M[sig] for b in BETAS]
    out += [Case("small-jordan", "lorentzian", lam, (("beta", b), ("sqrt", s)))
            for lam, s in DOUBLE for b in BETAS]
    for b in BETAS:
        out.append(Case("light-jordan", "lorentzian", Q(0), (("beta", b),)))
        out.append(Case("large-jordan", "lorentzian", Q(0), (("beta", b),)))
    return out


def paper_type(case: Case) -> str:
    """Bianchi type of the factor algebra m, by the paper's summary table."""
    fam, sig = case.family, case.sig
    if fam == "zero":
        return "I"
    if fam == "double":
        return "VIII" if sig == "lorentzian" else "IX"
    if fam == "small-jordan":
        return "III"
    beta = case.param("beta")
    if fam == "light-jordan":
        return "V" if beta == 0 else "IV"
    if fam == "large-jordan":
        return "I" if beta == 0 else "III"
    norm = _norm(sig, case.param("v"))
    if fam == "rankone":  # F = beta |m><m|, class A
        if beta == 0:
            return "I"
        return "VII" if norm > 0 else ("VI" if norm < 0 else "II")
    # genkappa, F = beta |V><V| + ad_V with <V,V> = -lambda: class B
    if beta == 0:
        return "V"
    if norm > 0:
        return "VII"
    if norm == 0:
        return "IV"
    return "III" if beta * beta * case.lam == 1 else "VI"


def case_matrix(case: Case):
    """F of a sweep case, F[b][a] = F^b_a."""
    fam, sig = case.family, case.sig
    if fam == "zero":
        return ZERO3
    if fam == "double":
        return _lin((case.param("sqrt"), ID3))
    if fam == "genkappa":
        v = case.param("v")
        return _lin((case.param("beta"), _outer(sig, v, v)), (Q(1), _ad(sig, tuple(-x for x in v))))
    if fam == "rankone":
        m = case.param("v")
        return _lin((case.param("beta"), _outer(sig, m, m)))
    beta = case.param("beta")
    if fam == "small-jordan":
        s = case.param("sqrt")
        return _lin((beta / 2, _outer(sig, NULL_N, NULL_N)), (-s, _outer(sig, J1, J1)),
                    (s, _ad(sig, J1)))
    if fam == "light-jordan":
        return _lin((beta, _outer(sig, NULL_N, NULL_N)), (Q(1), _ad(sig, NULL_N)))
    return _lin((beta, _outer(sig, J1, NULL_N)))  # large-jordan


def family_argv(case: Case) -> tuple[str, ...]:
    """Every value as --flag=value: argparse reads "--v -1,0,-1" as a flag."""
    argv = ["family", f"--family={case.family}", f"--metric={case.sig}"]
    for name, val in case.params:
        text = ",".join(str(x) for x in val) if isinstance(val, tuple) else str(val)
        argv.append(f"--{name}={text}")
    if case.family == "genkappa":
        argv.append("--alpha=1")
    if case.family in ("zero", "double", "genkappa", "small-jordan"):
        argv.append(f"--lambda={case.lam}")
    argv.append("--json")
    return tuple(argv)


def _bits(values) -> int:
    return max(max(abs(q.numerator).bit_length(), q.denominator.bit_length()) for q in values)


def _matrix_json(F) -> str:
    return json.dumps({"matrix": [[str(x) for x in row] for row in F]})


@functools.cache
def _checked_solution(case: Case):
    F = case_matrix(case)
    if any(residual(case.sig, F, case.lam)):
        raise AssertionError(f"benchmark formula for {case} is not a solution")
    return tuple(tuple(row) for row in F)


_SWEEP = sweep_cases()


# ---------------------------------------------------------------------------
# Streams.

def _passes(rng: random.Random) -> Iterator[Case]:
    while True:
        order = list(range(len(_SWEEP)))
        rng.shuffle(order)
        for i in order:
            yield _SWEEP[i]


def sweep_stream(seed: int) -> Iterator[Input]:
    """The 138 sweep instances as `family ... --json`; the seed sets the order."""
    for case in _passes(random.Random(f"paper_sweep:{seed}")):
        F = _checked_solution(case)
        yield Input(family_argv(case), (), ALGEBRA[case.sig], ALGEBRA[case.sig], 3,
                    _bits([x for row in F for x in row] + [case.lam, Q(1)]),
                    Expect(0, True, paper_type(case)))


PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29))


def _elementary(rng: random.Random, sig: str):
    """A rational rotation (or, for so(2,1), boost) in a coordinate plane:
    an isometry of eta with determinant 1, hence an automorphism of g."""
    a, b, c = rng.choice(PYTHAGOREAN)
    sign = rng.choice((1, -1))
    R = [[Q(int(i == j)) for j in range(3)] for i in range(3)]
    i, j = rng.choice(((0, 1), (0, 2), (1, 2)))
    if sig == "lorentzian" and i == 0:  # boost: ch^2 - sh^2 = 1
        ch, sh = Q(c, a), sign * Q(b, a)
        R[i][i], R[i][j], R[j][i], R[j][j] = ch, sh, sh, ch
    else:
        co, si = Q(a, c), sign * Q(b, c)
        R[i][i], R[i][j], R[j][i], R[j][j] = co, -si, si, co
    return R


def _mul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)] for i in range(3)]


def conjugate(rng: random.Random, sig: str, F, length=3):
    """W F W^-1 for a seeded word W of `length` elementary isometries."""
    W = ID3
    for _ in range(length):
        W = _mul(W, _elementary(rng, sig))
    eta = ETA[sig]
    w_inv = [[eta[i] * W[j][i] * eta[j] for j in range(3)] for i in range(3)]  # eta W^T eta
    return _mul(_mul(W, F), w_inv)


def reject_stream(seed: int) -> Iterator[Input]:
    """Sweep solutions conjugated by a seeded isometry word, then one entry
    perturbed; each is certified to fail the factorisation condition."""
    rng = random.Random(f"reject:{seed}")
    for i, case in enumerate(_passes(rng)):
        G = conjugate(rng, case.sig, _checked_solution(case))
        if any(residual(case.sig, G, case.lam)):
            raise AssertionError("conjugation by an automorphism broke a solution")
        while True:  # drop perturbations that still solve
            F = [list(row) for row in G]
            b, a = rng.randrange(3), rng.randrange(3)
            F[b][a] += rng.choice((1, -1)) * Q(rng.randint(1, 3), rng.choice((7, 11, 13)))
            if any(residual(case.sig, F, case.lam)):
                break
        name = f"f_{i:06d}.json"
        argv = ("verify", f"--algebra={ALGEBRA[case.sig]}", f"--f={name}",
                f"--lambda={case.lam}", "--json")
        yield Input(argv, ((name, _matrix_json(F)),), ALGEBRA[case.sig], ALGEBRA[case.sig], 3,
                    _bits([x for row in F for x in row] + [case.lam, Q(1)]),
                    Expect(1, False, None))


# Blocks are dense generalised-kappa solutions (beta != 0), which both
# signatures have at lambda = -1 and -4, so every verdict of one dimension
# costs about the same and a run's throughput does not hang on the draw.
LAMBDAS = (Q(-4), Q(-1))
BLOCK_CASES = {(sig, lam): [c for c in _SWEEP if c.family == "genkappa" and c.sig == sig
                            and c.lam == lam and c.param("beta") != 0]
               for sig in ETA for lam in LAMBDAS}


def _block_sum(blocks):
    """Algebra JSON and F of a direct sum of scaled so3/so21 blocks."""
    n = 3 * len(blocks)
    F = [[Q(0)] * n for _ in range(n)]
    metric, entries = [], []
    for k, (sig, scale, Fb) in enumerate(blocks):
        o = 3 * k
        metric += [str(e) for e in ETA[sig]]
        for a in range(3):
            for b in range(a + 1, 3):
                for c in range(3):
                    v = scale * _eps(a, b, c) * ETA[sig][c]
                    if v:
                        entries.append({"a": o + a, "b": o + b, "c": o + c, "v": str(v)})
            for b in range(3):
                F[o + b][o + a] = Fb[b][a]
    alg = json.dumps({"dim": n, "metric": metric, "f": entries})
    return alg, F


def highdim_stream(seed: int) -> Iterator[Input]:
    """Block-diagonal sweep solutions on direct sums of scaled so3/so21
    blocks sharing one lambda: PASS by construction, every algebra new.

    Scaling a block's constants by c keeps F a solution for the same
    lambda, since every term of the residual is linear in f.
    """
    rng = random.Random(f"highdim:{seed}")
    seen = set()
    i = 0
    while True:
        for dim in HIGHDIM_DIMS:
            lam = rng.choice(LAMBDAS)
            while True:
                blocks = []
                for _ in range(dim // 3):
                    sig = rng.choice(("euclidean", "lorentzian"))
                    scale = rng.choice((1, -1)) * Q(rng.randint(1, 9), rng.randint(1, 9))
                    case = rng.choice(BLOCK_CASES[sig, lam])
                    Fb = _checked_solution(case)
                    if any(residual(sig, Fb, lam, scale)):
                        raise AssertionError("scaled block is not a solution")
                    blocks.append((sig, scale, Fb))
                alg, F = _block_sum(blocks)
                if alg not in seen:
                    seen.add(alg)
                    break
            aname, fname = f"alg_{i:06d}.json", f"f_{i:06d}.json"
            argv = ("verify", f"--algebra={aname}", f"--f={fname}", f"--lambda={lam}", "--json")
            coeffs = [x for row in F for x in row] + [lam] + [s for _, s, _ in blocks]
            yield Input(argv, ((aname, alg), (fname, _matrix_json(F))), aname, alg, dim,
                        _bits(coeffs), Expect(0, True, None))
            i += 1


STREAMS = {"paper_sweep": sweep_stream, "reject": reject_stream, "highdim": highdim_stream}


def calibration_kernel():
    """Fixed work in the program's style: small rational matrices, tuples
    and many short calls, but no semidual code.  Its time tracks the speed
    of the host, which on a shared machine drifts by up to 2x."""
    rng = random.Random("calibration")
    case = _SWEEP[20]
    F = case_matrix(case)
    for _ in range(3):
        residual(case.sig, conjugate(rng, case.sig, F), case.lam)


# ---------------------------------------------------------------------------
# The answer key.

# Checks every rejected input must fail: the closure condition, its 3d
# quadratic form, and the mCYBE, which the paper proves equivalent to it.
MUST_FAIL = ("factorisation", "quadratic", "mCYBE")


def check_output(inp: Input, code, stdout: str) -> str | None:
    """None if the verdict matches the answer key, else the reason it does not."""
    exp = inp.expect
    if code != exp.exit:
        return f"exit code {code}, expected {exp.exit}"
    try:
        rep = json.loads(stdout)
        checks = {c["name"]: c["pass"] for c in rep["checks"]}
        passed = rep["pass"]
        bianchi = rep["bianchi"]["type"] if rep["bianchi"] is not None else None
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    if passed is not exp.passed:
        return f"verdict {passed}, expected {exp.passed}"
    if exp.passed and not all(checks.values()):
        return "a check failed on a passing input"
    if not exp.passed:
        for prefix in MUST_FAIL:
            if not any(name.startswith(prefix) and ok is False for name, ok in checks.items()):
                return f"no failing {prefix} check"
    if bianchi != exp.bianchi:
        return f"bianchi type {bianchi}, expected {exp.bianchi}"
    if inp.argv[0] == "family" and rep.get("bianchi_matches_expected") is not True:
        return "program's own expected type disagrees"
    return None
