"""The per-algebra facts (g_lam, the semidual algebra, its invariant element,
a metric's inverse) are kept in bounded caches keyed by value; a LieAlgebra
keeps its hash and a Tensor3 its integer table once computed."""

import random

import pytest

from semidual import bialgebra, lie
from semidual.bialgebra import cached_omega, cached_semidual_algebra, semidual_algebra
from semidual.lie import LieAlgebra, cached_complexify, complexify, make_lie_algebra, so3, so21
from semidual.linalg import CACHE_SIZE, Matrix, Tensor3, ValueCache, clear_caches
from conftest import rng_rat


@pytest.fixture(autouse=True)
def cold_caches():
    clear_caches()
    yield
    clear_caches()


def entries(cache: ValueCache) -> int:
    return len(cache.entries)


def random_dim6(rng):
    """so3 (+) so21 with each block scaled by a random nonzero rational."""
    out = []
    for k, base in enumerate((so3(), so21())):
        scale = rng_rat(rng, span=50, den=50) or 1
        out += [(3 * k + a, 3 * k + b, 3 * k + c, scale * v) for a, b, c, v in base.f.nonzero()]
    return make_lie_algebra(Tensor3.sparse(6, out))


class TestValueCache:
    def test_equal_algebras_built_apart_share_one_entry(self):
        g1, g2 = so3(), so3()
        assert g1 is not g2 and g1.f is not g2.f
        sd = cached_semidual_algebra(g1)
        assert cached_semidual_algebra(g2) is sd
        assert sd == semidual_algebra(g1)
        assert entries(bialgebra._SEMIDUALS) == 1
        assert cached_complexify(g1, 1) is cached_complexify(g2, "1")
        assert entries(lie._COMPLEXIFIED) == 1
        assert cached_omega(sd) is cached_omega(semidual_algebra(g2))
        assert entries(bialgebra._OMEGAS) == 1

    def test_mcybe_j_block_is_built_once_per_algebra(self, monkeypatch):
        sd = cached_semidual_algebra(so21())
        cached_omega(sd)
        calls = []
        real = bialgebra._j_block
        monkeypatch.setattr(bialgebra, "_j_block", lambda alg: calls.append(alg) or real(alg))
        r = bialgebra.r_matrix(Matrix.identity(3))
        for alg in (sd, semidual_algebra(so21())):
            assert bialgebra.mcybe_check(alg, r, 1).is_zero()
        assert calls == [sd] and entries(bialgebra._J_BLOCKS) == 1
        assert list(bialgebra._J_BLOCKS.entries.values()) == [LieAlgebra(3, so21().f)]

    def test_lambda_is_part_of_the_key(self):
        g = so21()
        plus, minus = cached_complexify(g, 1), cached_complexify(g, -1)
        assert entries(lie._COMPLEXIFIED) == 2
        assert plus != minus
        assert plus == complexify(g, 1) and minus == complexify(g, -1)
        assert cached_complexify(g, 1) is plus and cached_complexify(g, -1) is minus

    def test_bounded_after_many_algebras(self):
        rng = random.Random(3)
        algebras = [random_dim6(rng) for _ in range(100)]
        assert len(set(algebras)) == 100
        for g in algebras:
            cached_omega(cached_semidual_algebra(g))
            cached_complexify(g, -1)
        for cache in (bialgebra._SEMIDUALS, bialgebra._OMEGAS, lie._COMPLEXIFIED):
            assert entries(cache) == CACHE_SIZE
        # the most recent ones are kept, the oldest were dropped
        assert algebras[-1] in bialgebra._SEMIDUALS.entries
        assert algebras[0] not in bialgebra._SEMIDUALS.entries

    def test_sweep_pairs_stay_resident(self):
        # the standard sweep's ten (algebra, lambda) pairs all fit
        pairs = [(g, lam) for g in lie.isometry_algebras() for lam in (-4, -1, 0, 1, 4)]
        first = [cached_complexify(g, lam) for g, lam in pairs]
        assert all(cached_complexify(g, lam) is alg for (g, lam), alg in zip(pairs, first))
        assert entries(lie._COMPLEXIFIED) == 10

    def test_least_recently_used_is_dropped(self):
        cache = ValueCache()
        built = []
        for key in list(range(CACHE_SIZE)) + [0, CACHE_SIZE]:
            cache.get(key, lambda key=key: built.append(key) or key)
        assert built == list(range(CACHE_SIZE)) + [CACHE_SIZE]
        assert 0 in cache.entries and 1 not in cache.entries

    def test_a_failed_build_stores_nothing(self):
        cache = ValueCache()

        def fails():
            raise AssertionError("not invariant")

        with pytest.raises(AssertionError):
            cache.get("k", fails)
        assert "k" not in cache.entries
        assert cache.get("k", lambda: 1) == 1

    def test_cached_helpers_call_the_module_functions(self, monkeypatch):
        # the helpers look the plain functions up by name at each miss
        calls = []
        for mod, name in ((bialgebra, "semidual_algebra"), (bialgebra, "omega"),
                          (lie, "complexify")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name, lambda *a, _n=name, _f=real: calls.append(_n) or _f(*a))
        g = so3()
        for _ in range(3):
            cached_omega(cached_semidual_algebra(g))
            cached_complexify(g, 4)
        assert sorted(calls) == ["complexify", "omega", "semidual_algebra"]

    def test_metric_inverse_is_cached(self, monkeypatch):
        g = so21()
        F = Matrix([[1, 2, 0], [0, 3, 1], [1, 0, 1]])
        want = g.metric.inverse() @ F.transpose() @ g.metric
        calls = []
        real = Matrix.inverse
        monkeypatch.setattr(Matrix, "inverse", lambda m: calls.append(m) or real(m))
        assert F.metric_transpose(g.metric) == want
        assert F.metric_transpose(Matrix.diagonal([1, -1, -1])) == want
        assert len(calls) == 1


class TestMemoisedOnTheInstance:
    def test_int_table_is_built_once(self):
        t = so21().f
        first = t.int_table()
        assert t.int_table() is first
        assert first == Tensor3.sparse(3, t.nonzero()).int_table()

    def test_algebra_hash_is_computed_once(self, monkeypatch):
        g1, g2 = so3(), so3()
        calls = []
        real = Tensor3.__hash__
        monkeypatch.setattr(Tensor3, "__hash__", lambda t: calls.append(t) or real(t))
        assert hash(g1) == hash(g1) == hash(g2)
        assert len(calls) == 2  # once per algebra
        assert hash(g1) == hash((g1.dim, g1.f, g1.metric))


def test_threads_share_a_cache_safely():
    # more threads than cores on few keys, switching often: every get
    # returns its key's value and the bound holds throughout
    import sys
    import threading

    cache, errors = ValueCache(), []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(2000):
                key = rng.randrange(CACHE_SIZE + 4)
                assert cache.get(key, lambda: ("built", key)) == ("built", key)
                assert len(cache.entries) <= CACHE_SIZE
        except Exception as exc:  # reported below, from the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
