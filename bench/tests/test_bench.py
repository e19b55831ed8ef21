"""Self-tests of the benchmark: inputs, answer key, tracer and counter.

    python3 -m pytest -q bench/tests
"""

import itertools
import json
from fractions import Fraction

import pytest

import run as R
import tracer as T
import workloads as W
from semidual import cli, solutions


def take(workload, seed, n):
    return list(itertools.islice(W.STREAMS[workload](seed), n))


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_inputs(workload):
    n = W.PREFIX[workload] + 2
    assert take(workload, 7, n) == take(workload, 7, n)
    other = take(workload, 8, n)
    assert other != take(workload, 7, n)
    if workload == "paper_sweep":  # the seed sets only the order
        assert sorted(i.argv for i in other[:138]) == sorted(i.argv for i in take(workload, 7, 138))


def test_every_generated_argv_parses():
    parser = cli.build_parser()
    for workload in W.WORKLOADS:
        for inp in take(workload, 3, W.PREFIX[workload] + 3):
            parser.parse_args(list(inp.argv))
    # why every value is written as --flag=value
    with pytest.raises(SystemExit):
        parser.parse_args(["family", "--family", "genkappa", "--v", "-1,0,-1"])


def test_sweep_grid_is_the_standard_sweep():
    cases = W.sweep_cases()
    program = solutions.standard_sweep()
    assert len(cases) == len(program) == 138
    for case, inst in zip(cases, program):
        assert case.family == inst.family.value
        assert case.lam == inst.lam
        assert [list(r) for r in W.case_matrix(case)] == [list(r) for r in inst.F.data]


def test_answer_key_catches_wrong_outputs():
    inp = take("paper_sweep", 0, 1)[0]
    code, out, _ = R.call(cli.main, inp.argv)
    assert W.check_output(inp, code, out) is None
    report = json.loads(out)
    assert W.check_output(inp, 1, out) is not None
    assert W.check_output(inp, 2, "") is not None
    assert W.check_output(inp, "traceback", out) is not None
    wrong_type = dict(report, bianchi=dict(report["bianchi"], type="IX" if inp.expect.bianchi != "IX" else "I"))
    assert W.check_output(inp, code, json.dumps(wrong_type)) is not None
    assert W.check_output(inp, code, json.dumps(dict(report, **{"pass": False}))) is not None


def test_reject_inputs_fail_the_residual_formula(tmp_path):
    runner = R.Runner("reject", 5, tmp_path / "run")
    for i in range(20):
        inp = runner.input(i)
        F = [[Fraction(x) for x in row] for row in json.loads(inp.files[0][1])["matrix"]]
        sig = "euclidean" if "--algebra=so3" in inp.argv else "lorentzian"
        lam = Fraction(inp.argv[3].split("=")[1])
        assert any(W.residual(sig, F, lam))


def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0, 1, 2, 3, 4, 5, 6, 7, 8.5, 10])
    agg = T.SpanAggregator(clock=lambda: next(ticks))
    agg.enter("root")      # 0
    agg.enter("a")         # 1
    agg.enter("b")         # 2
    agg.exit()             # 3   b = 1
    agg.exit()             # 4   a = 3 - 1
    agg.enter("c")         # 5
    agg.enter("a")         # 6   a continued inside c: time, no call
    agg.resume()           # 7
    agg.exit()             # 8.5 c = 3.5 - 1
    agg.exit()             # 10  root = 10 - 3 - 3.5
    assert agg.self_s == {"root": 3.5, "a": 3, "b": 1, "c": 2.5}
    assert agg.calls == {"root": 1, "a": 1, "b": 1, "c": 1}
    assert sum(agg.self_s.values()) == 10


def snapshot():
    out = {}
    for layer, mod in T.layer_modules().items():
        for attr, obj in vars(mod).items():
            out[(layer, attr)] = obj
            if isinstance(obj, type):
                for mattr, raw in vars(obj).items():
                    out[(layer, attr, mattr)] = raw
    import semidual
    out.update({("semidual", attr): obj for attr, obj in vars(semidual).items()})
    return out


def test_tracer_wraps_every_binding_and_restores_every_attribute():
    from semidual import bialgebra, factorize, linalg

    before = snapshot()
    original = factorize.factorization_check
    agg = T.SpanAggregator()
    patcher = T.Patcher(T.layer_modules(), agg)
    patcher.install()
    try:
        assert factorize.factorization_check is not original
        assert bialgebra.factorization_check is factorize.factorization_check
        inp = take("paper_sweep", 0, 1)[0]
        code, out, _ = R.call(cli.main, inp.argv)
        assert W.check_output(inp, code, out) is None
    finally:
        patcher.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert factorize.factorization_check is original
    assert agg.calls["cli.main"] == 1
    assert agg.calls["factorize.factorization_check"] == 3  # report, closure, family
    assert agg.self_s["bialgebra.mcybe_matrix_residual"] > 0  # its Tensor3.build callback
    assert not agg.stack
    assert "linalg.Matrix.apply" in patcher.names and "linalg.rat" not in patcher.names
    assert linalg.Matrix.build.__func__ is before[("linalg", "Matrix", "build")].__func__


def test_fraction_count_repeats_exactly(tmp_path):
    layers = T.layer_modules()
    counts = []
    for rep in range(2):
        runner = R.Runner("reject", 1, tmp_path / f"run{rep}")
        counter = T.FractionCounter(layers)
        with R.in_dir(runner.dir):
            for inp in [take("paper_sweep", 1, 1)[0], runner.input(0)]:
                with counter:
                    R.call(cli.main, inp.argv)
        counts.append(counter.counts)
    assert counts[0] == counts[1]
    assert counts[0]["linalg"] > 0 and counts[0]["bialgebra"] > 0


def test_host_speed_scales_by_the_kernel_times_around_a_timing():
    ref = R.CAL_REF_S
    speed = R.HostSpeed.__new__(R.HostSpeed)  # samples set by hand, no kernel runs
    speed.samples = [ref, ref, 2 * ref, 2 * ref, ref]
    assert speed.scale(1) == 1  # median(ref, ref, 2 ref)
    assert speed.scale(2) == 0.5  # median(ref, 2 ref, 2 ref): the host ran at half speed
    assert speed.scale(4) == pytest.approx(2 / 3)  # no sample after the last one yet
