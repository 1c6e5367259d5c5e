import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import ndtri

import trapclock
from trapclock.core import (
    ModelParams,
    RngStream,
    as_generator,
    derive_scales,
    gaussian_from_bits,
    gaussian_from_hash,
    log_cumsum_exp,
    mix64,
    mix64_array,
    mix64_inplace,
)
from trapclock.hamiltonian import _Landscape

_GOLDEN = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def test_public_names_resolve_once():
    # a stale entry would break `from trapclock import *`
    names = trapclock.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(trapclock, name) is not None


def test_benchmark_imports_resolve():
    # perfbench changes only with the benchmark itself, so a rename here
    # must not leave it importing a name that is gone
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    imported = []
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("trapclock"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported.append(alias.name)
                    assert hasattr(module, alias.name), (path.name, node.module, alias.name)
    assert "simulate_clock" in imported
    # the layer probe calls this method on both landscapes
    assert callable(_Landscape.energy_delta)


def test_mix64_reference_sequence():
    """mix64(n * golden) must reproduce the published SplitMix64 outputs
    for seed 0 (Vigna's reference implementation)."""
    expected = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    for n, want in enumerate(expected):
        assert mix64((n * _GOLDEN) & _MASK) == want


@given(st.lists(st.integers(min_value=0, max_value=_MASK), min_size=1, max_size=40))
def test_mix64_array_matches_scalar(xs):
    arr = np.array(xs, dtype=np.uint64)
    out = mix64_array(arr.copy())
    for x, y in zip(xs, out):
        assert mix64(x) == int(y)
    assert np.array_equal(mix64_inplace(arr, np.empty_like(arr)), out)


def test_mix64_array_leaves_its_input():
    x = np.arange(5, dtype=np.uint64)
    mix64_array(x)
    assert np.array_equal(x, np.arange(5, dtype=np.uint64))


@pytest.mark.parametrize(
    "field,value",
    [
        ("N", 0),
        ("N", -3),
        ("p", 1),
        ("gamma", 0.0),
        ("omega", 0.5),
        ("omega", 1.0),
        ("horizon_T", 0.0),
        ("beta", math.nan),
        ("beta", math.inf),
        ("gamma", math.nan),
        ("gamma", math.inf),
        ("horizon_T", math.nan),
        ("horizon_T", math.inf),
    ],
)
def test_model_params_rejects_bad_fields(field, value):
    kwargs = dict(N=10, p=3, beta=1.0, gamma=0.5)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        ModelParams(**kwargs)


def test_model_params_allows_beta_zero():
    # the zero-coupling clock is the law-of-large-numbers sanity mode
    ModelParams(N=10, p=3, beta=0.0, gamma=0.5)


def test_nu_floor():
    assert ModelParams(N=100, p=3, beta=1.0, gamma=0.5).nu() == 15
    assert ModelParams(N=2, p=3, beta=1.0, gamma=0.5).nu() >= 1


def test_r_steps_known_value():
    # floor(sqrt(20) * exp(20 * 0.25 / 2)) = floor(54.45)
    params = ModelParams(N=20, p=3, beta=1.0, gamma=0.5)
    assert params.r_steps(1.0) == 54


@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
)
def test_r_steps_nondecreasing(t1, t2):
    params = ModelParams(N=14, p=3, beta=1.0, gamma=0.6)
    lo, hi = sorted((t1, t2))
    assert params.r_steps(lo) <= params.r_steps(hi)


def test_derive_scales_admissible_case():
    params = ModelParams(N=100, p=3, beta=1.0, gamma=0.5)
    rep = derive_scales(params)
    assert rep.nu == 15
    assert rep.alpha == pytest.approx(0.5)
    assert rep.wall_scale == pytest.approx(math.exp(0.5 * 100))
    assert rep.r1 == params.r_steps(1.0)
    assert rep.r_horizon == params.r_steps(params.horizon_T)
    assert rep.admissible
    # threshold for p=3 at beta=1 is min(1, zeta(3)) = 1
    assert 1.02 < rep.zeta_p < 1.04


def test_derive_scales_flags_inadmissible_gamma():
    params = ModelParams(N=30, p=3, beta=1.0, gamma=1.2)
    with pytest.warns(UserWarning):
        rep = derive_scales(params)
    assert not rep.admissible
    assert rep.notes  # warning recorded, not an error


def test_rng_stream_reproducible_and_distinct():
    a = RngStream(2024, 7).generator().random(100)
    b = RngStream(2024, 7).generator().random(100)
    c = RngStream(2024, 8).generator().random(100)
    d = RngStream(2025, 7).generator().random(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_rng_substream_deterministic():
    s1 = RngStream(5, 0).substream(3)
    s2 = RngStream(5, 0).substream(3)
    assert s1 == s2
    assert np.array_equal(s1.generator().random(16), s2.generator().random(16))
    assert s1 != RngStream(5, 0).substream(4)


def test_rng_stream_in_a_loop_repeats_its_draw():
    # documented contract: an RngStream is a seed recipe, so per-call use
    # repeats; a Generator carries state
    stream = RngStream(11, 3)
    first = as_generator(stream).integers(8)
    assert as_generator(stream).integers(8) == first
    gen = stream.generator()
    assert as_generator(gen) is gen
    assert [gen.integers(8) for _ in range(8)] != [first] * 8


def test_gaussian_from_hash_repeatable_and_keyed():
    idx = np.arange(64, dtype=np.uint64)
    g1 = gaussian_from_hash(12345, idx)
    g2 = gaussian_from_hash(12345, idx)
    g3 = gaussian_from_hash(12346, idx)
    assert np.array_equal(g1, g2)
    assert not np.array_equal(g1, g3)


def test_gaussian_from_hash_scalar_vs_array_key():
    idx = np.arange(10, dtype=np.uint64)
    keys = np.full(10, 77, dtype=np.uint64)
    assert np.array_equal(gaussian_from_hash(77, idx), gaussian_from_hash(keys, idx))


def _gaussian_reference(key, index):
    # one SplitMix64 round of index + key, a 53-bit uniform offset by half a
    # unit and kept below 1, and the normal quantile
    with np.errstate(over="ignore"):
        h = mix64_array(np.asarray(index, dtype=np.uint64) + np.asarray(key, dtype=np.uint64))
    uniform = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(np.minimum(uniform, 1.0 - 2.0**-53))


def test_gaussian_from_hash_matches_reference_formula():
    idx = np.array([0, 1, 5, 1 << 40, (1 << 63) + 3, _MASK], dtype=np.uint64)
    before = idx.copy()
    keys = np.array([0, 9, 1 << 62, _MASK, 77, 5], dtype=np.uint64)
    assert np.array_equal(gaussian_from_hash(12345, idx), _gaussian_reference(12345, idx))
    assert np.array_equal(gaussian_from_hash(keys, idx), _gaussian_reference(keys, idx))
    assert np.array_equal(idx, before)
    scalar = gaussian_from_hash(_MASK, np.uint64(7))
    assert scalar.shape == ()
    assert float(scalar) == float(_gaussian_reference(_MASK, 7))


def test_gaussian_from_bits_top_cell_is_finite():
    # (2**53 - 1) + 0.5 rounds to 2**53 in float64, a uniform of exactly 1;
    # the top cell must still get a finite depth, not below the cell under it
    top = (1 << 53) - 1
    h = np.array([_MASK, top << 11, (top - 1) << 11, ((top - 1) << 11) | 2047], dtype=np.uint64)
    z = gaussian_from_bits(h, np.empty(4))
    assert np.isfinite(z).all()
    assert z[0] == z[1] >= z[2] == z[3]


def test_gaussian_from_hash_is_standard_normal():
    idx = np.arange(1 << 20, (1 << 20) + 20000, dtype=np.uint64)
    draws = gaussian_from_hash(901, idx)
    _, pvalue = scipy.stats.kstest(draws, "norm")
    assert pvalue > 0.01
    assert abs(draws.mean()) < 4.0 / np.sqrt(draws.size)
    assert abs(draws.var() - 1.0) < 6.0 / np.sqrt(draws.size)


def test_log_cumsum_exp_moderate_values():
    logs = np.array([-1.0, 0.5, 2.0, -3.0])
    direct = np.log(np.cumsum(np.exp(logs)))
    assert np.allclose(log_cumsum_exp(logs), direct, atol=1e-12)


def test_log_cumsum_exp_survives_huge_values():
    out = log_cumsum_exp(np.array([1000.0, 1000.0]))
    assert np.isfinite(out).all()
    assert out[1] == pytest.approx(1000.0 + math.log(2.0))
