import dataclasses

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from distcost.errors import DimensionError, DomainError
from distcost.gramian import build_bundle
from distcost.signals import make_disturbance
from distcost.synthesis import (ControlSignal, disturbance_response,
                                disturbed_control, nominal_control)
from distcost.systems import LtiSystem, StabilizationTask

from conftest import expm_nodes


def _segments(w, t_f, nodes):
    """Quadrature segments that never straddle a jump of w."""
    if w is not None and getattr(w, "cell_values", None) is not None:
        edges = np.linspace(0.0, t_f, w.cell_values.shape[0] + 1)
    else:
        edges = np.array([0.0, t_f])
    per = max(64, int(np.ceil(nodes / (edges.size - 1))) | 1)
    return [(np.linspace(a, b, per), 0.5 * (a + b)) for a, b in zip(edges[:-1], edges[1:])]


def _simpson_sum(segments, integrand):
    # integrand(taus, mid) gives the (nodes, n) values of one segment
    return sum(scipy.integrate.simpson(integrand(taus, mid), x=taus, axis=0)
               for taus, mid in segments)


def _w_at(w, taus, mid):
    # piecewise signals are cell-constant: sampling at the segment
    # midpoint returns the correct cell value even at shared boundary
    # nodes, where eval(tau) would pick the neighboring cell
    if getattr(w, "cell_values", None) is not None:
        return np.broadcast_to(w.eval(mid), (taus.size, w.dim))
    return w.eval(taus)


def dense_response(sys, w, t_f, nodes=16385):
    """Piecewise-aware Simpson oracle for R(w, t_f)."""
    expm_at = expm_nodes(sys.A)

    def integrand(taus, mid):
        return np.einsum("kij,kj->ki", expm_at(t_f - taus), _w_at(w, taus, mid))
    return _simpson_sum(_segments(w, t_f, nodes), integrand)


def terminal_state(sys, task, u, w, nodes=16385):
    """x(t_f) by direct quadrature of the variation-of-constants formula."""
    t_f = task.t_f
    expm_at = expm_nodes(sys.A)

    def integrand(taus, mid):
        E = expm_at(t_f - taus)
        # u(tau) = -B^T e^{A^T(t_f - tau)} g from the same exponentials;
        # the control's own call path must agree at every 64th node
        U = -np.einsum("kji,j->ki", E, u.gain_vector) @ sys.B
        for k in range(0, taus.size, 64):
            ref = u(taus[k])
            assert np.linalg.norm(U[k] - ref) <= 1e-12 * np.linalg.norm(ref), taus[k]
        drive = U @ sys.B.T
        if w is not None:
            drive = drive + _w_at(w, taus, mid)
        return np.einsum("kij,kj->ki", E, drive)

    free = scipy.linalg.expm(sys.A * t_f) @ task.x0
    return free + _simpson_sum(_segments(w, t_f, nodes), integrand)


class TestNominalControl:
    def test_drives_state_to_origin(self, jet, jet_task_5, jet_bundle_5):
        u = nominal_control(jet_task_5, jet_bundle_5)
        xf = terminal_state(jet, jet_task_5, u, None)
        assert np.linalg.norm(xf) / np.linalg.norm(jet_task_5.x0) < 1e-8

    def test_rejects_time_outside_horizon(self, jet, jet_task_5, jet_bundle_5):
        u = nominal_control(jet_task_5, jet_bundle_5)
        with pytest.raises(DomainError):
            u(5.0001)
        with pytest.raises(DomainError):
            u(-0.1)

    def test_bundle_horizon_mismatch(self, jet, jet_bundle_5):
        task = StabilizationTask(x0=np.array([1.0, 0.0, 0.0]), t_f=4.0)
        with pytest.raises(DimensionError):
            nominal_control(task, jet_bundle_5)

    def test_half_grid_matches_pointwise(self, jet, jet_task_5, jet_bundle_5):
        u = nominal_control(jet_task_5, jet_bundle_5)
        steps = 64
        U = u.sample_half_grid(steps)
        ts = np.linspace(0.0, 5.0, 2 * steps + 1)
        ref = np.stack([u(t) for t in ts])
        assert np.max(np.abs(U - ref)) < 1e-10


class TestHalfGrid:
    # the scan walks 2*steps nodes back from t_f: 512 is a power of two,
    # so its last pass shifts by all of them, while 200 and 600 end on a
    # partial pass
    @pytest.mark.parametrize("steps", [100, 256, 300])
    def test_gain_grid_matches_direct_exponentials(self, steps):
        A = np.array([[0.0, 1.0], [-2.0, -0.3]])
        B = np.array([[1.0, 0.0], [0.5, -1.0]])
        sys = LtiSystem(A, B, name="osc")
        total = 3.0
        g = np.array([0.7, -1.1])
        u = ControlSignal(t_f=total, gain_vector=g, system=sys)
        U = u.sample_half_grid(steps)
        last = 2 * steps
        delta = total / last
        assert U.shape == (last + 1, 2)
        for j in sorted({0, 1, 255, 256, 257, last} & set(range(last + 1))):
            ref = -B.T @ scipy.linalg.expm(A.T * (total - j * delta)) @ g
            assert np.max(np.abs(U[j] - ref)) < 1e-12, j

    def test_jet_grid_keeps_fresh_power_accuracy(self, jet, jet_task_5, jet_bundle_5):
        # every node of the default 5000-step grid at about 1e-15 relative;
        # powers doubled from one exponential would miss by about 2e-13
        u = nominal_control(jet_task_5, jet_bundle_5)
        steps = 5000
        U = u.sample_half_grid(steps)
        back = 5.0 - np.linspace(0.0, 5.0, 2 * steps + 1)
        ref = -(expm_nodes(jet.A.T)(back) @ u.gain_vector) @ jet.B
        assert np.max(np.abs(U - ref)) <= 5e-14 * np.max(np.abs(ref))


class TestDisturbedControl:
    @pytest.mark.parametrize("kind,kwargs", [
        ("constant_sign", {"sign_vector": [1, -1, 1]}),
        ("sinusoid", {}),
        ("piecewise_uniform", {"seed": 11, "cells": 40, "horizon": 5.0}),
    ])
    def test_cancels_disturbance_at_tf(self, jet, jet_task_5, jet_bundle_5, kind, kwargs):
        w = make_disturbance(kind, 1.0, jet.n, **kwargs)
        u = disturbed_control(jet_task_5, jet_bundle_5, w)
        xf = terminal_state(jet, jet_task_5, u, w, nodes=32769)
        assert np.linalg.norm(xf) / np.linalg.norm(jet_task_5.x0) < 1e-6

    def test_zero_disturbance_equals_nominal(self, jet, jet_task_5, jet_bundle_5):
        w = make_disturbance("zero", 1.0, jet.n)
        u_n = nominal_control(jet_task_5, jet_bundle_5)
        u_d = disturbed_control(jet_task_5, jet_bundle_5, w)
        assert u_d.gain_vector.tobytes() == u_n.gain_vector.tobytes()

    def test_gain_shift_is_response(self, jet, jet_task_5, jet_bundle_5):
        # gain = W^-1 (Phi x0 + R): subtracting the nominal gain and
        # multiplying by W recovers the response integral
        w = make_disturbance("sinusoid", 1.0, jet.n)
        u_n = nominal_control(jet_task_5, jet_bundle_5)
        u_d = disturbed_control(jet_task_5, jet_bundle_5, w)
        R = disturbance_response(jet, w, 5.0)
        back = jet_bundle_5.W_B @ (u_d.gain_vector - u_n.gain_vector)
        assert np.max(np.abs(back - R)) < 1e-10


class TestDisturbanceResponse:
    @pytest.mark.parametrize("kind,kwargs", [
        ("constant_sign", {"sign_vector": [1, 1, -1]}),
        ("sinusoid", {}),
        ("piecewise_uniform", {"seed": 4, "cells": 25, "horizon": 2.0}),
        ("constant_sign", {"sign_vector": [1, 1, -1], "t_f": 5.0}),
        ("sinusoid", {"t_f": 5.0}),
        ("piecewise_uniform", {"seed": 4, "cells": 1, "horizon": 5.0, "t_f": 5.0}),
        ("piecewise_uniform", {"seed": 4, "cells": 1000, "horizon": 5.0, "t_f": 5.0}),
    ])
    def test_matches_dense_oracle(self, jet, kind, kwargs):
        kwargs = dict(kwargs)
        t_f = kwargs.pop("t_f", 2.0)
        w = make_disturbance(kind, 1.0, jet.n, **kwargs)
        got = disturbance_response(jet, w, t_f)
        ref = dense_response(jet, w, t_f)
        assert np.max(np.abs(got - ref)) < 1e-7 * max(1.0, np.max(np.abs(ref)))

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 6), st.floats(0.05, 1.0),
           st.integers(1, 20), st.integers(0, 2**32 - 1))
    def test_matches_dense_oracle_random_systems(self, n, p, t_f, cells, seed):
        # A is scaled to spectral radius ~1 and t_f <= 1, so the 2049-node
        # Simpson oracle stays far inside the 1e-7 tolerance even for the
        # 35 rad/s default sinusoid channel
        rng = np.random.default_rng(seed)
        sys = LtiSystem(rng.standard_normal((n, n)) / np.sqrt(n),
                        rng.standard_normal((n, min(p, n))), name="random")
        signs = rng.choice([-1.0, 1.0], n)
        for w in (make_disturbance("constant_sign", 1.0, n, sign_vector=signs),
                  make_disturbance("sinusoid", 1.0, n,
                                   phases=rng.uniform(0.0, 2 * np.pi, n)),
                  make_disturbance("piecewise_uniform", 1.0, n, seed=seed,
                                   cells=cells, horizon=t_f)):
            got = disturbance_response(sys, w, t_f)
            ref = dense_response(sys, w, t_f, nodes=2049)
            assert np.max(np.abs(got - ref)) < 1e-7 * max(1.0, np.max(np.abs(ref))), w.kind

    def test_zero_shortcut(self, jet):
        w = make_disturbance("zero", 1.0, jet.n)
        assert np.array_equal(disturbance_response(jet, w, 1.0), np.zeros(jet.n))

    def test_linearity_in_sign(self, jet):
        # the response is linear in w, so negating the cell values flips it
        w = make_disturbance("piecewise_uniform", 1.0, jet.n, seed=8, cells=16,
                             horizon=1.0)
        R = disturbance_response(jet, w, 1.0)
        w_neg = dataclasses.replace(w, cell_values=-w.cell_values)
        R_neg = disturbance_response(jet, w_neg, 1.0)
        assert np.max(np.abs(R + R_neg)) < 1e-12 * max(1.0, np.max(np.abs(R)))

    def test_constant_closed_form(self):
        # A = 0: R = t_f * w
        sys = LtiSystem(np.zeros((2, 2)), np.eye(2), name="i2")
        w = make_disturbance("constant_sign", 0.5, 2, sign_vector=[1, -1])
        R = disturbance_response(sys, w, 3.0)
        assert np.max(np.abs(R - np.array([1.5, -1.5]))) < 1e-12

    def test_one_cell_piecewise_is_the_constant(self, jet):
        # one cell is aligned with every t_f it covers: a one-cell grid
        # over [0, 5] holding the constant's value responds like it at 2
        c = make_disturbance("constant_sign", 1.0, jet.n, sign_vector=[1, -1, 1])
        w = dataclasses.replace(
            make_disturbance("piecewise_uniform", 1.0, jet.n, cells=1, horizon=5.0),
            cell_values=c.cell_values)
        got = disturbance_response(jet, w, 2.0)
        assert got.tobytes() == disturbance_response(jet, c, 2.0).tobytes()

    def test_piecewise_misaligned_horizon_rejected(self, jet):
        w = make_disturbance("piecewise_uniform", 1.0, jet.n, seed=1, cells=7,
                             horizon=1.0)
        with pytest.raises(DomainError):
            disturbance_response(jet, w, 0.9)


class TestLeastSquaresCertificate:
    """The synthesized disturbed control discretized by zero-order hold
    must approach the finite-dimensional least-squares solution of the
    discretized terminal constraint, since both solve the same
    underdetermined problem as the grid refines."""

    def _zoh_discretize(self, sys, m, t_f):
        # exact one-step transition and input maps via the augmented
        # exponential, so the only gap left is the control parametrization
        n, p = sys.n, sys.p
        h = t_f / m
        M = np.zeros((n + p, n + p))
        M[:n, :n] = sys.A
        M[:n, n:] = sys.B
        E = scipy.linalg.expm(M * h)
        return E[:n, :n], E[:n, n:]

    def _ls_energy(self, sys, task, m):
        # min sum_k h ||u_k||^2 s.t. sum_k Ad^{m-1-k} Bd u_k = -Ad^m x0
        # i.e. the least-norm solution of the stacked linear constraint
        Ad, Bd = self._zoh_discretize(sys, m, task.t_f)
        n, p = sys.n, sys.p
        h = task.t_f / m
        cols = []
        P = np.eye(n)
        for _ in range(m):
            cols.append(P @ Bd)
            P = P @ Ad
        # cols[k] multiplies u_{m-1-k}; block order does not change the
        # least-norm energy
        M = np.hstack(cols)
        z = -P @ task.x0
        y = M.T @ np.linalg.solve(M @ M.T, z)
        return h * float(y @ y)

    def test_energy_within_two_percent_at_m40(self, jet, jet_bundle_5, jet_task_5):
        from distcost.energy import nominal_energy
        e_cont = nominal_energy(jet_task_5, jet_bundle_5)
        e_ls = self._ls_energy(jet, jet_task_5, 40)
        assert abs(e_ls - e_cont) / e_cont < 0.02

    def test_gap_shrinks_with_grid(self, jet, jet_bundle_5, jet_task_5):
        from distcost.energy import nominal_energy
        e_cont = nominal_energy(jet_task_5, jet_bundle_5)
        gaps = [abs(self._ls_energy(jet, jet_task_5, m) - e_cont) / e_cont
                for m in (10, 20, 40)]
        assert gaps[2] < gaps[1] < gaps[0]
