"""Duran-Shishkin mesh: graded layer region, transition point, coarse region.

The transition point tau* solves e(tau*) = -(2/beta) ln h in the stretched
coordinate e(x) = int_0^x 1/eps.  Inside the layer the nodes grow
geometrically, x_{i+1} = x_i (1 + h) starting from x_1 = h * eps_lower,
computed as a cumulative product that rounds exactly as that recurrence;
past the first graded node >= tau* the mesh is equidistant with spacing <= h.
"""

import math

import numpy as np
from dataclasses import dataclass

from .calculus import CumulativeIntegral, invert_monotone
from .errors import DegenerateRegimeError, ParameterError

_MAX_NODES = 10**7  # build_mesh raises ParameterError past this node count


@dataclass(frozen=True, eq=False)
class LayerMesh:
    nodes: np.ndarray
    h: float
    tau_index: int   # index of the first node >= tau_star
    tau_star: float

    @property
    def n_star(self) -> int:  # number of multiplicative graded steps
        return self.tau_index - 1

    @property
    def tau(self) -> float:
        return float(self.nodes[self.tau_index])

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)

    def regions(self):
        """Region label per node, a str array: 'graded' up to tau, 'coarse'
        beyond."""
        return np.where(np.arange(len(self.nodes)) <= self.tau_index,
                        "graded", "coarse")


def compute_tau_star(coeffs, e: CumulativeIntegral, h: float) -> float:
    """Transition point tau* with e(tau*) = -(2/beta) ln h."""
    if not (0.0 < h < 1.0):
        raise ParameterError("mesh parameter h must lie in (0, 1)")
    target = -2.0 * math.log(h) / coeffs.beta
    if target > e.partial_sums[-1]:  # the stored e(1.0)
        raise DegenerateRegimeError(
            "transition point would exceed x = 1; eps is not small enough "
            "relative to h for a layer-adapted mesh")
    tau_star = invert_monotone(e, target)
    if tau_star > 0.5:
        # No clamped variant: outside the analyzed regime we refuse to build.
        raise DegenerateRegimeError(
            f"transition point tau* = {tau_star:.4g} > 1/2")
    return tau_star


def build_mesh(coeffs, e: CumulativeIntegral, h: float) -> LayerMesh:
    """Build the graded + equidistant mesh for mesh parameter h."""
    tau_star = compute_tau_star(coeffs, e, h)

    x1 = h * coeffs.eps_lower
    if not x1 > 0.0:  # the recurrence from x_1 <= 0 never reaches tau*
        raise ParameterError(
            f"first graded node x_1 = h * eps_lower = {x1!r} is not "
            "positive (it underflows when h * eps_lower is tiny)")
    # A step multiplies by fl(1 + h), then rounds: by (1 + h) e^d, |d| <~ 2^-52.
    # So log(tau*/x_1) / (log(1 + h) + 2^-52) bounds the steps to tau* from
    # below, refusing an oversize mesh before anything is allocated, and
    # / (log1p(h) - 2^-52), plus one for rounding, from above: it sizes one
    # cumprod, capped so the graded nodes stay within _MAX_NODES entries.
    log_ratio = math.log(tau_star / x1)
    if log_ratio / (math.log(1.0 + h) + 2.0**-52) > _MAX_NODES:
        raise ParameterError(f"graded node count exceeded cap {_MAX_NODES}")
    rate = math.log1p(h) - 2.0**-52  # <= 0 only for h below about 2^-52
    bound = math.ceil(log_ratio / rate) + 1 if rate > 0.0 else _MAX_NODES
    steps = max(0, min(bound, _MAX_NODES - 2))
    # cumprod multiplies in sequence, so it rounds as the recurrence does
    graded = np.r_[0.0, np.cumprod(np.r_[x1, np.full(steps, 1.0 + h)])]
    if graded[-1] < tau_star:  # only the cap can cut the product short
        raise ParameterError(f"graded node count exceeded cap {_MAX_NODES}")
    tau_index = 1 + int(np.searchsorted(graded[1:], tau_star))
    graded = graded[:tau_index + 1]
    tau = float(graded[-1])
    if tau >= 1.0:
        raise DegenerateRegimeError(
            f"first node past tau* already reaches {tau:.4g} >= 1")

    m = math.ceil((1.0 - tau) / h)
    if tau_index + 1 + m > _MAX_NODES:  # checked before the coarse nodes exist
        raise ParameterError(f"node count exceeded cap {_MAX_NODES}")
    coarse = np.linspace(tau, 1.0, m + 1)[1:]
    nodes = np.concatenate((graded, coarse))
    return LayerMesh(nodes=nodes, h=h, tau_index=tau_index, tau_star=tau_star)


def predict_cardinality(coeffs, h: float) -> float:
    """Predicted node count (ln(eps_up/eps_low) + ln((-ln h)/h)) / h."""
    if not (0.0 < h < 1.0):
        raise ParameterError("mesh parameter h must lie in (0, 1)")
    log_term = -math.log(h) / h
    if log_term < 1.0:
        raise ParameterError("h too close to 1 for the cardinality estimate")
    return (math.log(coeffs.eps_upper / coeffs.eps_lower) + math.log(log_term)) / h
