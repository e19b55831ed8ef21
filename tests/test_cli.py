import json
import time
from pathlib import Path

import pytest

from semidual import bialgebra, factorize, jsonio, lie
from semidual.cli import build_parser, build_report, main
from semidual.linalg import Matrix, clear_caches
from semidual.solutions import generalized_kappa

GOLDEN = Path(__file__).parent / "golden"

IDENTITY = {"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}

HEISENBERG = {
    "dim": 3,
    "metric": None,
    "f": [{"a": 0, "b": 1, "c": 2, "v": "1"}],
}


@pytest.fixture
def identity_file(tmp_path):
    p = tmp_path / "identity.json"
    p.write_text(json.dumps(IDENTITY))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_pass_exit_zero(self, capsys, identity_file):
        code, out, _ = run(capsys, [
            "verify", "--algebra", "so21", "--lambda", "1", "--f", identity_file,
        ])
        assert code == 0
        assert "overall: PASS" in out
        assert "bianchi type: VIII" in out

    def test_fail_exit_one_with_components(self, capsys, identity_file):
        code, out, _ = run(capsys, [
            "verify", "--algebra", "so3", "--lambda", "0", "--f", identity_file,
        ])
        assert code == 1
        assert "FAIL" in out
        assert "nonzero [0,1,2]" in out  # names the failing component

    def test_malformed_rational_exit_two(self, capsys, identity_file):
        code, _, err = run(capsys, [
            "verify", "--algebra", "so21", "--lambda", "1/0", "--f", identity_file,
        ])
        assert code == 2
        assert "1/0" in err

    # "\u0663" and "\uff13" are the Arabic-Indic and fullwidth digit three;
    # int() reads both, but a rational is written in ASCII digits only
    @pytest.mark.parametrize("text", ["\u0663", "\uff13", "1/\u0663", "\uff11/2"])
    def test_non_ascii_digits_in_lambda_exit_two(self, capsys, identity_file, text):
        code, out, err = run(capsys, [
            "verify", "--algebra", "so3", "--lambda", text, "--f", identity_file,
        ])
        assert code == 2 and out == ""
        assert "--lambda" in err and text in err

    def test_non_ascii_digits_in_f_and_metric_exit_two(self, capsys, tmp_path, identity_file):
        f = tmp_path / "fullwidth.json"
        f.write_text(json.dumps({"matrix": [["1", "0", "0"], ["0", "\uff11", "0"], ["0", "0", "1"]]}))
        code, _, err = run(capsys, ["verify", "--algebra", "so21", "--lambda", "1", "--f", str(f)])
        assert code == 2 and "matrix[1][1]" in err
        g = tmp_path / "arabic_metric.json"
        g.write_text(json.dumps({"dim": 3, "metric": ["1", "\u0661", "1"], "f": []}))
        code, _, err = run(capsys, ["verify", "--algebra", str(g), "--lambda", "1", "--f", identity_file])
        assert code == 2 and ".metric[1]" in err

    def test_malformed_f_json(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"matrix": [["1.5"]]}')
        code, _, err = run(capsys, [
            "verify", "--algebra", "so21", "--lambda", "1", "--f", str(p),
        ])
        assert code == 2
        assert "matrix[0][0]" in err

    def test_algebra_from_file(self, capsys, tmp_path, identity_file):
        # user-supplied algebra without a metric: the metric-specific checks
        # are skipped but the factorisation and mCYBE checks still run
        p = tmp_path / "heis.json"
        p.write_text(json.dumps(HEISENBERG))
        zero = tmp_path / "zero.json"
        zero.write_text(json.dumps({"matrix": [["0"] * 3] * 3}))
        code, out, _ = run(capsys, [
            "verify", "--algebra", str(p), "--lambda", "0", "--f", str(zero),
        ])
        assert code == 0
        assert "quadratic" not in out

    def test_invalid_algebra_json(self, capsys, tmp_path, identity_file):
        p = tmp_path / "bad_algebra.json"
        p.write_text(json.dumps({
            "dim": 3, "metric": None,
            "f": [{"a": 1, "b": 0, "c": 2, "v": "1"}],
        }))
        code, _, err = run(capsys, [
            "verify", "--algebra", str(p), "--lambda", "0", "--f", identity_file,
        ])
        assert code == 2
        assert "a < b" in err

    @pytest.mark.parametrize("algebra, field", [
        ({"dim": True, "metric": None, "f": []}, ".dim"),
        ({**HEISENBERG, "f": [{"a": False, "b": True, "c": 2, "v": "1"}]}, ".f[0].a"),
        ({**HEISENBERG, "f": [{"a": 0, "b": 1, "c": True, "v": "1"}]}, ".f[0].c"),
    ])
    def test_bool_for_integer_exit_two(self, capsys, tmp_path, identity_file, algebra, field):
        p = tmp_path / "bool_algebra.json"
        p.write_text(json.dumps(algebra))
        code, _, err = run(capsys, [
            "verify", "--algebra", str(p), "--lambda", "0", "--f", identity_file,
        ])
        assert code == 2
        assert field in err

    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_duplicate_after_zero_entry_exit_two(self, capsys, tmp_path, identity_file, command):
        # an earlier "v": "0" entry for the same (a, b, c) must not hide the duplicate
        entry = {"a": 0, "b": 1, "c": 2}
        p = tmp_path / "dup_algebra.json"
        p.write_text(json.dumps({
            **HEISENBERG, "f": [{**entry, "v": "0"}, {**entry, "v": "1"}, {**entry, "v": "1"}],
        }))
        argv = [command, "--algebra", str(p)]
        if command == "verify":
            argv += ["--lambda", "0", "--f", identity_file]
        code, _, err = run(capsys, argv)
        assert code == 2
        assert ".f[1]" in err and "duplicate" in err

    def test_large_empty_algebra_rejected_quickly(self, capsys, tmp_path):
        # Jacobi and antisymmetry over an empty table cost nothing; a loop
        # over all n^3 index triples would take tens of seconds here before
        # the dimension check is reached
        alg, fmap = tmp_path / "abelian150.json", tmp_path / "identity6.json"
        alg.write_text(json.dumps({"dim": 150, "f": []}))
        fmap.write_text(json.dumps(
            {"matrix": [["1" if i == j else "0" for j in range(6)] for i in range(6)]}))
        start = time.perf_counter()
        code, out, err = run(capsys, [
            "verify", "--algebra", str(alg), "--lambda", "1", "--f", str(fmap),
        ])
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert "is 6x6 but algebra dim is 150" in err

    def test_deterministic_output(self, capsys, identity_file):
        argv = ["verify", "--algebra", "so21", "--lambda", "1", "--f", identity_file]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_json_output(self, capsys, identity_file):
        code, out, _ = run(capsys, [
            "verify", "--algebra", "so21", "--lambda", "1", "--f", identity_file,
            "--json",
        ])
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert obj["bianchi"]["type"] == "VIII"
        assert all(c["pass"] for c in obj["checks"])


class TestThreeDimensionalForms:
    """The quadratic and projected forms are derived for so(3) and so(2,1)
    only; other 3d algebras with a metric get the generic checks."""

    ABELIAN = {"dim": 3, "metric": ["1", "1", "1"], "f": []}

    @pytest.fixture
    def abelian_file(self, tmp_path):
        p = tmp_path / "abelian.json"
        p.write_text(json.dumps(self.ABELIAN))
        return str(p)

    @pytest.mark.parametrize("lam", ["0", "1"])
    @pytest.mark.parametrize("matrix", [
        IDENTITY["matrix"],
        [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],  # not S + ad_V
    ])
    def test_abelian_metric_algebra_passes(self, capsys, tmp_path, abelian_file, matrix, lam):
        f = tmp_path / "f.json"
        f.write_text(json.dumps({"matrix": matrix}))
        for command in ("verify", "semidual"):
            code, out, err = run(capsys, [
                command, "--algebra", abelian_file, "--f", str(f), "--lambda", lam,
            ])
            assert code == 0 and err == ""
        code, out, _ = run(capsys, [
            "verify", "--algebra", abelian_file, "--f", str(f), "--lambda", lam, "--json",
        ])
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert names == [
            "factorisation (closure of Q')",
            "mCYBE [[r,r]] + lambda Omega (tensor and matrix paths)",
            "cocommutator agreement (semidual vs coboundary)",
        ]

    @pytest.mark.parametrize("name", ["so3", "so21"])
    def test_isometry_algebra_from_file_runs_them(self, capsys, tmp_path, identity_file, name):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(jsonio.algebra_to_json(jsonio.builtin_algebra(name))))
        _, builtin, _ = run(capsys, ["verify", "--algebra", name, "--f", identity_file,
                                     "--lambda", "1"])
        _, from_file, _ = run(capsys, ["verify", "--algebra", str(p), "--f", identity_file,
                                       "--lambda", "1"])
        assert "check quadratic matrix form: PASS" in from_file
        assert from_file.replace(str(p), name) == builtin

    def test_reference_algebras_built_once(self, monkeypatch, capsys, identity_file):
        assert lie.isometry_algebras() is lie.isometry_algebras()
        calls = []
        for name in ("so3", "so21"):
            monkeypatch.setattr(lie, name, lambda _name=name: calls.append(_name))
        for alg in ("so3", "so21"):
            run(capsys, ["verify", "--algebra", alg, "--f", identity_file, "--lambda", "1"])
        run(capsys, ["family", "--family", "zero", "--lambda", "0"])
        run(capsys, ["table1"])
        assert calls == []


# each family's flags are checked one at a time in constructor-argument
# order: every missing flag after a valid prefix, every malformed value
FAMILY_FLAG_ERRORS = [
    (["zero"], "--family zero requires --lambda"),
    (["zero", "--lambda=1/0"], "--lambda: zero denominator in rational: '1/0'"),
    (["double"], "--family double requires --lambda"),
    (["double", "--lambda=1"], "--family double requires --sqrt"),
    (["double", "--lambda=1/0"], "--lambda: zero denominator in rational: '1/0'"),
    (["double", "--lambda=1", "--sqrt=x"], "--sqrt: not a rational: 'x'"),
    (["kappa"], "--family kappa requires --v"),
    (["kappa", "--v=1,0,0"], "--family kappa requires --lambda"),
    (["kappa", "--v=1,0"], "--v: expected three comma-separated rationals"),
    (["kappa", "--v=1,a,0"], "--v: not a rational: 'a'"),
    (["kappa", "--v=1,0,0", "--lambda=1/0"], "--lambda: zero denominator in rational: '1/0'"),
    (["genkappa"], "--family genkappa requires --v"),
    (["genkappa", "--v=1,0,0"], "--family genkappa requires --beta"),
    (["genkappa", "--v=1,0,0", "--beta=1"], "--family genkappa requires --alpha"),
    (["genkappa", "--v=1,0,0", "--beta=1", "--alpha=1"], "--family genkappa requires --lambda"),
    (["genkappa", "--v=1,0"], "--v: expected three comma-separated rationals"),
    (["genkappa", "--v=1,0,0", "--beta=1.5"], "--beta: not a rational: '1.5'"),
    (["genkappa", "--v=1,0,0", "--beta=1", "--alpha=1", "--lambda=1/0"],
     "--lambda: zero denominator in rational: '1/0'"),
    (["rankone"], "--family rankone requires --v"),
    (["rankone", "--v=1,0,0"], "--family rankone requires --beta"),
    (["rankone", "--v=1,0"], "--v: expected three comma-separated rationals"),
    (["rankone", "--v=1,0,0", "--beta=1.5"], "--beta: not a rational: '1.5'"),
    (["small-jordan"], "--family small-jordan requires --beta"),
    (["small-jordan", "--beta=1"], "--family small-jordan requires --lambda"),
    (["small-jordan", "--beta=1", "--lambda=1"], "--family small-jordan requires --sqrt"),
    (["small-jordan", "--beta=1.5"], "--beta: not a rational: '1.5'"),
    (["small-jordan", "--beta=1", "--lambda=1/0"], "--lambda: zero denominator in rational: '1/0'"),
    (["small-jordan", "--beta=1", "--lambda=1", "--sqrt=x"], "--sqrt: not a rational: 'x'"),
    (["light-jordan"], "--family light-jordan requires --beta"),
    (["light-jordan", "--beta=1.5"], "--beta: not a rational: '1.5'"),
    (["large-jordan"], "--family large-jordan requires --beta"),
    (["large-jordan", "--beta=1.5"], "--beta: not a rational: '1.5'"),
    (["double", "--lambda=-1", "--sqrt=1"], "F = sqrt(lambda) id is only a solution for lambda > 0"),
    (["double", "--lambda=4", "--sqrt=3"], "sqrt_lambda^2 = 9 != lambda = 4"),
]


class TestFamily:
    def test_double_emits_f(self, capsys, tmp_path):
        out_file = tmp_path / "F.json"
        code, out, _ = run(capsys, [
            "family", "--family", "double", "--lambda", "1", "--sqrt", "1",
            "--out", str(out_file),
        ])
        assert code == 0
        assert "overall: PASS" in out
        emitted = json.loads(out_file.read_text())
        assert emitted == IDENTITY

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_unwritable_out_exit_two(self, capsys, tmp_path, json_flag):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, [
            "family", "--family", "zero", "--lambda", "0", "--out", str(target), *json_flag,
        ])
        assert (code, out) == (2, "")
        assert err == f"error: --out: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()

    def test_genkappa_euclidean(self, capsys):
        code, out, _ = run(capsys, [
            "family", "--family", "genkappa", "--v", "1,0,0", "--alpha", "1",
            "--beta", "2", "--lambda", "-1", "--metric", "euclidean",
        ])
        assert code == 0
        assert "bianchi type: VII" in out
        assert "expected bianchi type: VII" in out

    def test_double_negative_lambda_exit_two(self, capsys):
        code, _, err = run(capsys, [
            "family", "--family", "double", "--lambda", "-1", "--sqrt", "1",
        ])
        assert code == 2
        assert "lambda > 0" in err

    def test_missing_flag(self, capsys):
        code, _, err = run(capsys, ["family", "--family", "double"])
        assert code == 2
        assert "--lambda" in err

    @pytest.mark.parametrize("flags, message", FAMILY_FLAG_ERRORS,
                             ids=[" ".join(flags) for flags, _ in FAMILY_FLAG_ERRORS])
    def test_flag_errors_exit_two(self, capsys, flags, message):
        code, out, err = run(capsys, ["family", "--family", *flags])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_malformed_alpha_is_refused_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["family", "--family", "genkappa", "--v=1,0,0", "--beta=1", "--alpha=2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            "semidual family: error: argument --alpha: invalid choice: 2 (choose from 0, 1)\n")

    def test_remaining_families(self, capsys):
        cases = [
            (["--family", "zero", "--lambda", "0"], "I"),
            (["--family", "kappa", "--v", "1,0,0", "--lambda", "-1"], "V"),
            (["--family", "rankone", "--v", "0,1,0", "--beta", "2"], "VI"),
            (["--family", "light-jordan", "--beta", "0"], "V"),
            (["--family", "light-jordan", "--beta", "1"], "IV"),
            (["--family", "large-jordan", "--beta", "1"], "III"),
        ]
        for flags, expected in cases:
            code, out, _ = run(capsys, ["family"] + flags)
            assert code == 0, flags
            assert f"bianchi type: {expected}" in out

    def test_small_jordan_json(self, capsys):
        code, out, _ = run(capsys, [
            "family", "--family", "small-jordan", "--beta", "1", "--lambda", "1",
            "--sqrt", "1", "--json",
        ])
        assert code == 0
        obj = json.loads(out)
        assert obj["bianchi"]["type"] == "III"
        assert obj["bianchi_matches_expected"] is True
        assert obj["F"]["matrix"][0] == ["1/2", "0", "1/2"]


class TestSemidual:
    def test_emits_tensors(self, capsys, identity_file):
        code, out, _ = run(capsys, [
            "semidual", "--algebra", "so21", "--lambda", "1", "--f", identity_file,
        ])
        assert code == 0
        assert "delta(P^0)" in out
        assert out == (GOLDEN / "semidual_so21_identity_lambda1.txt").read_text()

    def test_not_a_factorisation_exit_one(self, capsys, identity_file):
        code, out, _ = run(capsys, [
            "semidual", "--algebra", "so21", "--lambda", "0", "--f", identity_file,
        ])
        assert code == 1
        assert out == (GOLDEN / "semidual_so21_identity_lambda0.txt").read_text()

    def test_json(self, capsys, identity_file):
        code, out, _ = run(capsys, [
            "semidual", "--algebra", "so21", "--lambda", "1", "--f", identity_file,
            "--json",
        ])
        assert code == 0
        obj = json.loads(out)
        assert obj["r_matrix"]["R"] == IDENTITY["matrix"]
        assert any(c["v"] == "2" for c in obj["delta"])
        assert out == (GOLDEN / "semidual_so21_identity_lambda1.json").read_text()


class TestClassify:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, ["classify", "--algebra", "so3"])
        assert code == 0
        assert "bianchi type: IX" in out

    def test_json_schema(self, capsys, tmp_path):
        p = tmp_path / "heis.json"
        p.write_text(json.dumps(HEISENBERG))
        code, out, _ = run(capsys, ["classify", "--algebra", str(p), "--json"])
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "type": "II", "h": None, "n_rank": 1,
            "n_inertia": [1, 0, 2], "a_zero": True,
        }

    def test_wrong_dimension_exit_two(self, capsys, tmp_path):
        p = tmp_path / "dim2.json"
        p.write_text(json.dumps({"dim": 2, "metric": None, "f": []}))
        code, _, err = run(capsys, ["classify", "--algebra", str(p)])
        assert code == 2


class TestTable1:
    def test_exit_zero_and_golden(self, capsys):
        code, out, _ = run(capsys, ["table1"])
        assert code == 0
        assert out == (GOLDEN / "table1.txt").read_text()

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, ["table1"])
        _, second, _ = run(capsys, ["table1"])
        assert first == second

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["table1", "--json"])
        obj = json.loads(out)
        assert obj["pass"] is True
        assert len(obj["rows"]) == 11
        assert {r["bianchi"] for r in obj["rows"]} == {
            "I", "III", "IV", "V", "VI", "VII", "VIII", "IX",
        }


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_repeated_calls_give_the_same_output(self, capsys):
        argv = ["family", "--family", "genkappa", "--v", "1,0,0", "--alpha", "1",
                "--beta", "2", "--lambda", "-1", "--metric", "euclidean", "--json"]
        first = run(capsys, argv)
        assert run(capsys, ["family", "--family", "zero"])[0] == 2
        assert run(capsys, argv) == first
        assert first[0] == 0


class TestSelftest:
    def test_runs_green(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        assert "selftest: PASS" in out


class TestBuildReportRunsEachStageOnce:
    STAGES = ("factorization_check", "dcs_constants", "verify_closure_in_complexification")

    @pytest.fixture(autouse=True)
    def cold_caches(self):
        # the per-algebra facts are built on a report's first use of g
        clear_caches()

    def count_stages(self, monkeypatch):
        counts = dict.fromkeys(self.STAGES, 0)
        for name in self.STAGES:
            def counted(*args, _name=name, _fn=getattr(factorize, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(factorize, name, counted)
        return counts

    def test_passing_instance(self, monkeypatch, lorentz):
        inst = generalized_kappa(lorentz, (0, 1, 0), 2, 1, 1)
        counts = self.count_stages(monkeypatch)
        rep = build_report("so21", inst.algebra, inst.F, inst.lam)
        assert rep.passed and rep.classification.label == "VI"
        assert counts == dict.fromkeys(self.STAGES, 1)

    def test_failing_f(self, monkeypatch, lorentz):
        counts = self.count_stages(monkeypatch)
        rep = build_report("so21", lorentz, Matrix.identity(3), 0)
        assert not rep.passed and rep.classification is None
        assert counts["verify_closure_in_complexification"] == 0
        assert counts["dcs_constants"] == 1

    def test_closure_failure_after_zero_residual_is_internal(self, monkeypatch, lorentz):
        def closure_fails(g, F, lam):
            raise factorize.ClosureFailure("injected")

        monkeypatch.setattr(factorize, "verify_closure_in_complexification", closure_fails)
        with pytest.raises(factorize.InternalMismatch):
            build_report("so21", lorentz, Matrix.identity(3), 1)

    BIALGEBRA_STAGES = ("semidual_algebra", "r_matrix", "dualco_delta")

    def count_bialgebra_stages(self, monkeypatch):
        counts = dict.fromkeys(self.BIALGEBRA_STAGES, 0)
        for name in self.BIALGEBRA_STAGES:
            def counted(*args, _name=name, _fn=getattr(bialgebra, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(bialgebra, name, counted)
        return counts

    def test_semidual_subcommand(self, monkeypatch, capsys, identity_file):
        counts = self.count_stages(monkeypatch)
        bi_counts = self.count_bialgebra_stages(monkeypatch)
        code, _, _ = run(capsys, [
            "semidual", "--algebra", "so21", "--lambda", "1", "--f", identity_file,
        ])
        assert code == 0
        assert counts == dict.fromkeys(self.STAGES, 1)
        assert bi_counts == dict.fromkeys(self.BIALGEBRA_STAGES, 1)

    def test_second_report_reuses_the_facts_about_g(self, monkeypatch, lorentz):
        inst = generalized_kappa(lorentz, (0, 1, 0), 2, 1, 1)
        build_report("so21", inst.algebra, inst.F, inst.lam)
        calls = []
        for mod, name in ((bialgebra, "semidual_algebra"), (bialgebra, "omega"),
                          (bialgebra, "_j_block"), (lie, "complexify")):
            monkeypatch.setattr(mod, name, lambda *args, _name=name: calls.append(_name))
        rep = build_report("so21", inst.algebra, inst.F, inst.lam)
        assert rep.passed and rep.classification.label == "VI"
        assert calls == []

    def test_semidual_subcommand_failing_f(self, monkeypatch, capsys, identity_file):
        counts = self.count_stages(monkeypatch)
        code, _, _ = run(capsys, [
            "semidual", "--algebra", "so21", "--lambda", "0", "--f", identity_file,
        ])
        assert code == 1
        assert counts == {"factorization_check": 1, "dcs_constants": 1,
                          "verify_closure_in_complexification": 0}


class TestSweep:
    @pytest.mark.parametrize("argv, golden", [
        (["sweep", "--skip-rank-one"], "sweep_skip_rank_one.txt"),
        (["sweep"], "sweep.txt"),
    ])
    def test_golden(self, capsys, argv, golden):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "MISMATCH" not in out
        assert out == (GOLDEN / golden).read_text()

    def test_stops_at_first_mismatch(self, monkeypatch, capsys):
        # a failing instance ends the sweep with exit 1 after its line
        real = build_report
        seen = []

        def fail_third(name, g, F, lam):
            rep = real(name, g, F, lam)
            seen.append(rep)
            if len(seen) == 3:
                rep.checks[0].passed = False
            return rep

        monkeypatch.setattr("semidual.cli.build_report", fail_third)
        code, out, _ = run(capsys, ["sweep"])
        lines = out.splitlines()
        assert code == 1 and len(lines) == 3
        assert lines[:2] == (GOLDEN / "sweep.txt").read_text().splitlines()[:2]
        assert lines[2].endswith(" MISMATCH")
