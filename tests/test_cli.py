import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from semidual import factorize
from semidual.cli import build_report, main
from semidual.linalg import Matrix
from semidual.solutions import generalized_kappa

GOLDEN = Path(__file__).parent / "golden"
SWEEP_SCRIPT = Path(__file__).parent.parent / "scripts" / "sweep_families.py"

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

    def test_not_a_factorisation_exit_one(self, capsys, identity_file):
        code, out, _ = run(capsys, [
            "semidual", "--algebra", "so21", "--lambda", "0", "--f", identity_file,
        ])
        assert code == 1

    def test_json(self, capsys, identity_file):
        code, out, _ = run(capsys, [
            "semidual", "--algebra", "so21", "--lambda", "1", "--f", identity_file,
            "--json",
        ])
        obj = json.loads(out)
        assert obj["r_matrix"]["R"] == IDENTITY["matrix"]
        assert any(c["v"] == "2" for c in obj["delta"])


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


class TestSelftest:
    def test_runs_green(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == 0
        assert "selftest: PASS" in out


class TestBuildReportRunsEachStageOnce:
    STAGES = ("factorization_check", "dcs_constants", "verify_closure_in_complexification")

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


class TestSweepScript:
    def test_skip_rank_one_runs_clean(self):
        proc = subprocess.run(
            [sys.executable, str(SWEEP_SCRIPT), "--skip-rank-one"],
            capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "MISMATCH" not in proc.stdout
        assert "bianchi census:" in proc.stdout
