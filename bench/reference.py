"""A fixed reference computation that measures the machine's current speed.

On a shared machine the same work can run at half speed or at twice the
speed for minutes at a time, because of load that no process here can see.
The benchmark times this reference next to the program's work and rescales
the program's wall time t to t * (REFERENCE_S / r) ** e, where r is the
reference time measured then and e is how strongly that kind of work follows
the machine's speed. The reference uses NumPy and SciPy but no ecs-lab code,
so a change to the program does not change it. Its mix follows the
program's: DOP853 integrations of a small linear system with a Python
right-hand side, small tensor contractions and plain Python arithmetic.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

# Typical time of `run_reference` on the 2-core machine the reference
# figures in README.md come from; rescaled times are in these seconds.
REFERENCE_S = 0.1

# The exponent e per timed quantity: the slope of log(time) against
# log(reference time) over runs on that machine in which the reference took
# between 0.04 s and 0.1 s (13 runs per workload, 195 set-ups). The ODE and
# group workloads follow the reference one to one; curvature-sweep, whose
# time goes into larger tensor contractions, gains less from a fast phase,
# and set-up, which is mostly imports, less still.
RUN_ELASTICITY = {"curvature-sweep": 0.8, "ode-campaign": 1.0, "group-campaign": 1.0}
SETUP_ELASTICITY = 0.6

_rng = np.random.default_rng(20230420)
_K = _rng.standard_normal((6, 6))
_M = _K - _K.T - 0.05 * np.eye(6)
_T = _rng.standard_normal((7, 7, 7, 7))
_X = _rng.standard_normal((7, 7))


def _rhs(t, y):
    return _M @ y


def rescale(seconds: float, reference_s: float, elasticity: float) -> float:
    """Seconds at the machine speed where the reference takes REFERENCE_S."""
    return seconds * (REFERENCE_S / reference_s) ** elasticity


def run_reference() -> float:
    """Seconds the reference computation took."""
    start = perf_counter()
    solve_ivp(_rhs, (0.0, 40.0), np.ones(6), method="DOP853", rtol=1e-12, atol=1e-12)
    for _ in range(300):
        np.einsum("abcd,cd->ab", _T, _X)
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    return perf_counter() - start
