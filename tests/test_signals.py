import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost.errors import DomainError, ValidationError
from distcost.signals import (KIND_PARAMETERS, as_seed, derive_seed, derive_seeds,
                              make_disturbance, uniform_stream)


class TestUniformStream:
    def test_reference_values_seed_zero(self):
        # published splitmix64 outputs for seed 0, top 53 bits
        out = uniform_stream(0, 0, 2)
        assert out[0] == (0xE220A8397B1DCDAF >> 11) * 2.0**-53
        assert out[1] == (0x6E789E6AA1B965F4 >> 11) * 2.0**-53

    def test_subrange_consistency(self):
        assert np.array_equal(uniform_stream(5, 10, 20), uniform_stream(5, 0, 30)[10:])

    def test_negative_seed_wraps_to_uint64(self):
        assert np.array_equal(uniform_stream(-1, 0, 4),
                              uniform_stream(2**64 - 1, 0, 4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.integers(0, 1000), st.integers(1, 200))
    def test_half_open_range(self, seed, start, count):
        u = uniform_stream(seed, start, count)
        assert np.all(u >= 0.0) and np.all(u < 1.0)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 1, 2) == derive_seed(3, 1, 2)

    def test_index_order_matters(self):
        assert derive_seed(3, 1, 2) != derive_seed(3, 2, 1)

    def test_distinct_from_master(self):
        seeds = {derive_seed(0, i) for i in range(100)}
        assert len(seeds) == 100

    def test_in_uint64_range(self):
        s = derive_seed(2**63, 999, 999)
        assert 0 <= s < 2**64


    @pytest.mark.parametrize("master", [0, 12345, 2**64 - 1])
    @pytest.mark.parametrize("prefix", [(), (4,), (2, 3)])
    def test_vector_matches_scalar(self, master, prefix):
        seeds = derive_seeds(master, 70, *prefix)
        assert seeds.dtype == np.uint64
        assert [int(z) for z in seeds] == [derive_seed(master, *prefix, k)
                                           for k in range(70)]


class TestSignals:
    def test_zero(self):
        w = make_disturbance("zero", 1.0, 3)
        assert np.array_equal(w.eval(0.3), np.zeros(3))

    def test_constant_sign(self):
        w = make_disturbance("constant_sign", 0.5, 3, sign_vector=[1, -1, 0])
        assert np.array_equal(w.eval(2.0), np.array([0.5, -0.5, 0.0]))

    def test_zero_and_constant_are_one_cell(self):
        z = make_disturbance("zero", 1.0, 3)
        c = make_disturbance("constant_sign", 0.5, 3, sign_vector=[1, -1, 0])
        assert np.array_equal(z.cell_values, np.zeros((1, 3)))
        assert np.array_equal(c.cell_values, [[0.5, -0.5, 0.0]])
        assert z.aligned_cells(7.3) == c.aligned_cells(7.3) == 1

    @pytest.mark.parametrize("kind", sorted(KIND_PARAMETERS))
    def test_every_kind_builds_from_its_defaults(self, kind):
        w = make_disturbance(kind, 1.0, 3, **KIND_PARAMETERS[kind])
        assert w.kind == kind and w.dim == 3

    @pytest.mark.parametrize("kind,params", [
        ("zero", {"sign_vector": [1, 1]}),
        ("constant_sign", {"amplitudes": [9, 9]}),
        ("sinusoid", {"cells": 4}),
        ("sinusoid", {"seed": 1}),
        ("piecewise_uniform", {"phases": [0, 0]}),
        ("piecewise_uniform", {"horizn": 1.0}),
    ])
    def test_foreign_parameter_rejected(self, kind, params):
        (name,) = params
        with pytest.raises(DomainError, match=f"{kind} .* {name}"):
            make_disturbance(kind, 1.0, 2, **params)

    def test_constant_sign_rejects_bad_entries(self):
        with pytest.raises(DomainError):
            make_disturbance("constant_sign", 1.0, 2, sign_vector=[0.5, 1.0])

    def test_sinusoid_defaults_attain_amplitude(self):
        w = make_disturbance("sinusoid", 2.0, 3)
        taus = np.linspace(0.0, 5.0, 20001)
        vals = w._values(taus)
        assert np.max(np.abs(vals)) <= 2.0 + 1e-12
        assert np.max(np.abs(vals)) > 1.9

    def test_sinusoid_formula(self):
        w = make_disturbance("sinusoid", 1.0, 2, amplitudes=[0.5, 1.0],
                             frequencies=[3.0, 7.0], phases=[0.1, 0.2])
        t = 0.37
        expected = np.array([0.5 * np.sin(3.0 * t + 0.1), 1.0 * np.sin(7.0 * t + 0.2)])
        assert np.max(np.abs(w.eval(t) - expected)) < 1e-15

    def test_sinusoid_amplitude_above_bound_rejected(self):
        with pytest.raises(DomainError):
            make_disturbance("sinusoid", 1.0, 2, amplitudes=[0.5, 1.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("key", ["amplitudes", "frequencies", "phases"])
    def test_sinusoid_rejects_non_finite_parameters(self, key, bad):
        with pytest.raises(DomainError, match=key):
            make_disturbance("sinusoid", 1.0, 3, **{key: [bad, 0.5, 0.5]})

    @pytest.mark.parametrize("horizon", [np.nan, np.inf])
    def test_piecewise_rejects_non_finite_horizon(self, horizon):
        with pytest.raises(DomainError, match="horizon"):
            make_disturbance("piecewise_uniform", 1.0, 2, cells=4, horizon=horizon)

    def test_piecewise_fractional_cells_rejected(self):
        with pytest.raises(DomainError, match="cells"):
            make_disturbance("piecewise_uniform", 1.0, 2, cells=4.7)
        w = make_disturbance("piecewise_uniform", 1.0, 2, cells=4.0)
        assert w.cells == 4

    def test_piecewise_constant_within_cells(self):
        w = make_disturbance("piecewise_uniform", 1.0, 2, seed=9, cells=10, horizon=1.0)
        v_a = w.eval(0.31)
        v_b = w.eval(0.39)
        v_c = w.eval(0.41)
        assert np.array_equal(v_a, v_b)
        assert not np.array_equal(v_b, v_c)

    def test_piecewise_values_bounded(self):
        w = make_disturbance("piecewise_uniform", 0.7, 3, seed=1, cells=50, horizon=2.0)
        assert np.max(np.abs(w.cell_values)) <= 0.7

    def test_piecewise_seed_changes_values(self):
        w1 = make_disturbance("piecewise_uniform", 1.0, 2, seed=1, cells=8, horizon=1.0)
        w2 = make_disturbance("piecewise_uniform", 1.0, 2, seed=2, cells=8, horizon=1.0)
        assert not np.array_equal(w1.cell_values, w2.cell_values)

    def test_piecewise_right_endpoint_uses_last_cell(self):
        w = make_disturbance("piecewise_uniform", 1.0, 1, seed=3, cells=4, horizon=1.0)
        assert np.array_equal(w.eval(1.0), w.cell_values[-1])

    def test_unknown_kind(self):
        with pytest.raises((DomainError, ValidationError)):
            make_disturbance("square_wave", 1.0, 2)

    def test_negative_wbar_rejected(self):
        with pytest.raises(DomainError):
            make_disturbance("zero", -1.0, 2)

    @pytest.mark.parametrize("seed", [1.7, -0.5, np.nan, np.inf])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed"):
            make_disturbance("piecewise_uniform", 1.0, 2, seed=seed, cells=4)
        with pytest.raises(DomainError, match="seed"):
            derive_seed(seed, 2)
        with pytest.raises(DomainError, match="seed"):
            uniform_stream(seed, 0, 4)
        # the stream position, the seed indices and the seed count are
        # whole numbers too
        with pytest.raises(DomainError, match="seed index"):
            derive_seed(0, seed)
        with pytest.raises(DomainError, match="start"):
            uniform_stream(0, seed, 4)
        with pytest.raises(DomainError, match="count"):
            uniform_stream(0, 0, seed)
        with pytest.raises(DomainError, match="count"):
            derive_seeds(0, seed)

    def test_whole_float_seed_names_its_integer(self):
        w1 = make_disturbance("piecewise_uniform", 1.0, 2, seed=7.0, cells=8)
        w2 = make_disturbance("piecewise_uniform", 1.0, 2, seed=7, cells=8)
        assert np.array_equal(w1.cell_values, w2.cell_values)
        assert derive_seed(1.0, 2) == derive_seed(1, 2)
        assert as_seed(np.int64(-3)) == -3 and as_seed(2**64 - 1) == 2**64 - 1

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 40), st.floats(0.1, 10.0))
    def test_piecewise_amplitude_bound_property(self, seed, cells, w_bar):
        w = make_disturbance("piecewise_uniform", w_bar, 3, seed=seed,
                             cells=cells, horizon=1.0)
        taus = np.linspace(0.0, 1.0, 257)
        assert np.max(np.abs(w._values(taus))) <= w_bar
