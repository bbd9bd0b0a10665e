"""Every public entry point that takes a horizon, amplitude or radius
rejects an out-of-domain value with DomainError, through the one shared
rule ``linalg.as_scalar``; counts, dimensions and stream offsets go
through ``linalg.as_whole`` and its range check."""

import numpy as np
import pytest

from distcost.errors import DomainError
from distcost.gramian import build_bundle
from distcost.metrics import hardness, metric_report
from distcost.signals import derive_seeds, make_disturbance, uniform_stream
from distcost.sweeps import sample_ball, sample_sphere
from distcost.synthesis import disturbance_response
from distcost.systems import StabilizationTask

_X0 = np.array([5.0, -1.0, 3.0])

# (id, call with the value under test, whether zero is out of the domain);
# w_bar and the radius of hardness and of the samplers may be zero.
# Each call takes the value, the ADMIRE system and its t_f = 0.5 bundle.
# The rows named after the Gramian, the norm integral and the two metric
# bounds read the bundle or MetricReport field that carries them.
ENTRY_POINTS = [
    ("task-t_f", lambda x, s, b: StabilizationTask(x0=_X0, t_f=x, w_bar=1.0), True),
    ("task-w_bar", lambda x, s, b: StabilizationTask(x0=_X0, t_f=1.0, w_bar=x), False),
    ("build_bundle", lambda x, s, b: build_bundle(s, x), True),
    ("controllability_gramian", lambda x, s, b: build_bundle(s, x).W_B, True),
    ("norm_integral", lambda x, s, b: build_bundle(s, x).v_bar_unit, True),
    ("disturbance_response",
     lambda x, s, b: disturbance_response(s, make_disturbance("zero", 1.0, 3), x), True),
    ("hardness-t_f", lambda x, s, b: hardness(10.0, x), True),
    ("hardness-R", lambda x, s, b: hardness(x, 1.0), False),
    ("additive-R", lambda x, s, b: metric_report(b, 1.0, x).r_A_bound, True),
    ("additive-w_bar", lambda x, s, b: metric_report(b, x, 10.0).r_A_bound, False),
    ("multiplicative-R", lambda x, s, b: metric_report(b, 1.0, x).r_M_bound, True),
    ("multiplicative-w_bar", lambda x, s, b: metric_report(b, x, 10.0).r_M_bound, False),
    ("make_disturbance-w_bar", lambda x, s, b: make_disturbance("zero", x, 3), False),
    ("make_disturbance-horizon",
     lambda x, s, b: make_disturbance("piecewise_uniform", 1.0, 3, cells=4, horizon=x),
     True),
    ("sample_sphere-radius", lambda x, s, b: sample_sphere(0, 2, 3, x), False),
    ("sample_ball-radius", lambda x, s, b: sample_ball(0, 2, 3, x), False),
]


@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf], ids=["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("call,positive", [e[1:] for e in ENTRY_POINTS],
                         ids=[e[0] for e in ENTRY_POINTS])
def test_out_of_domain_scalar_is_domain_error(jet, jet_bundle_half, call, positive, value):
    if value == 0.0 and not positive:
        call(value, jet, jet_bundle_half)  # zero is admissible here
        return
    with pytest.raises(DomainError):
        call(value, jet, jet_bundle_half)


# (id, call with a count, dimension or stream offset that is fractional,
# below its minimum or past numpy's index range)
BAD_COUNTS = [
    ("derive_seeds-negative-count", lambda: derive_seeds(0, -1)),
    ("uniform_stream-negative-start", lambda: uniform_stream(0, -5, 2)),
    ("sample_sphere-zero-dim", lambda: sample_sphere(0, 2, 0, 1.0)),
    ("sample_sphere-fractional-count", lambda: sample_sphere(0, 2.5, 3, 1.0)),
    ("sample_ball-zero-dim", lambda: sample_ball(0, 2, 0, 1.0)),
    ("make_disturbance-fractional-dim", lambda: make_disturbance("zero", 1.0, 2.5)),
    ("make_disturbance-boolean-seed",
     lambda: make_disturbance("piecewise_uniform", 1.0, 2, seed=True, cells=4, horizon=1.0)),
    ("uniform_stream-huge-count", lambda: uniform_stream(0, 0, 10**23)),
    ("derive_seeds-huge-count", lambda: derive_seeds(0, 2**63)),
    ("make_disturbance-huge-cells",
     lambda: make_disturbance("piecewise_uniform", 1.0, 2, seed=0, cells=10**23, horizon=1.0)),
]


@pytest.mark.parametrize("call", [e[1] for e in BAD_COUNTS], ids=[e[0] for e in BAD_COUNTS])
def test_out_of_range_count_is_domain_error(call):
    with pytest.raises(DomainError):
        call()
