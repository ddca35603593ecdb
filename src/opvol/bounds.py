"""Explicit robustness constants for the truncated volatility model.

Every function here is a pure map from model constants and moment estimates
to the right-hand side of one robustness inequality.  Constants are kept in
their stated form even where a sharper one is evident from the derivation;
the sharpened variants are provided separately and flagged by name so that
reports can show both without ever silently replacing the stated constant.

Conventions shared by all bounds:

* ``horizon`` is the terminal time T > 0 and ``rate`` the jump intensity.
* Squared-moment inputs are expectations of squared Hilbert-Schmidt norms,
  trace-moment inputs are expectations of trace norms.
* A bound returns only its constant part when the matching error moment is
  estimated by the caller; the docstring says which factor the caller owns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

K_ZERO_REL = 1e-12

# the largest exponent x with a finite e^x
_MAX_EXPONENT = math.log(sys.float_info.max)


@dataclass(frozen=True)
class BoundInputs:
    """Model constants and moment estimates consumed by the bound functions.

    The growth rate k certifies the forward propagator, ||S(t)|| <= e^{kt};
    gen_norm and gen_norm_trunc are the operator norms of the mean-reversion
    generator and its compression.  The remaining fields are moments of the
    initial variance V0 and of a single jump X1.
    """

    k: float = 0.0
    trace_q: float = 0.0
    horizon: float = 1.0
    rate: float = 0.0
    gen_norm: float = 0.0
    gen_norm_trunc: float = 0.0
    v0_sq: float = 0.0
    jump_sq: float = 0.0
    jump_mean_sq: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon <= 0.0:
            raise ValueError("horizon must be positive")
        for name in (
            "trace_q",
            "rate",
            "gen_norm",
            "gen_norm_trunc",
            "v0_sq",
            "jump_sq",
            "jump_mean_sq",
        ):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

    def with_(self, **changes: float) -> "BoundInputs":
        return replace(self, **changes)


def _growth_exponent(x: float, field: str) -> float:
    """x, the exponent of a growth factor e^x that field and the horizon set.

    An exponent above log(float max) overflows; it raises a ValueError that
    names the two config fields to lower.
    """
    if x > _MAX_EXPONENT:
        raise ValueError(f"growth factor exp({x:.6g}) overflows: lower |{field}| or horizon")
    return x


def bound_forward(inputs: BoundInputs) -> float:
    """Noise constant C(T) = Tr(Q) (e^{2kT} - 1) / (2k).

    At k = 0 the analytic limit Tr(Q) T is used; the switch triggers for
    |k| < 1e-12 / T.  The caller multiplies by E[sup_t ||V - V^n||].
    """
    k, t = inputs.k, inputs.horizon
    if abs(k) < K_ZERO_REL / t:
        return inputs.trace_q * t
    growth = math.expm1(_growth_exponent(2.0 * k * t, "forward_spectrum"))
    return inputs.trace_q * growth / (2.0 * k)


def bound_variance_jumps(inputs: BoundInputs, sharp: bool = False) -> tuple[float, float]:
    """Constants (C0, C1) with E[sup||V - V^n||^2] <= C0 E||dV0||^2 + C1 E||dX1||^2.

    The stated C1 carries the exponential factor twice,

        C0 = 2 e^{2T||c||},  C1 = 2 e^{2T||c||} T rate (1 + rate T) e^{2T||c||};

    ``sharp=True`` returns the single-exponential variant evident from the
    derivation (diagnostic only, never a replacement).
    """
    t, rate = inputs.horizon, inputs.rate
    growth = math.exp(_growth_exponent(2.0 * t * inputs.gen_norm, "generator_spectrum"))
    base = 2.0 * growth
    load = t * rate * (1.0 + rate * t)
    c1 = base * load if sharp else base * load * growth
    return base, c1


def bound_cpp_diff(inputs: BoundInputs) -> float:
    """Constant C(T) = 2 T rate (1 + rate T) controlling the coupled compound
    Poisson sums themselves: E[sup||L - L^n||^2] <= C(T) E||X1 - X1^n||^2.

    The caller multiplies by E||dX1||^2.
    """
    t, rate = inputs.horizon, inputs.rate
    return 2.0 * t * rate * (1.0 + rate * t)


def _generator_moment_load(inputs: BoundInputs) -> float:
    t, rate = inputs.horizon, inputs.rate
    return (
        inputs.v0_sq
        + rate * t * inputs.jump_sq
        + rate * rate * t * t * inputs.jump_mean_sq
    )


def bound_variance_generator(inputs: BoundInputs) -> float:
    """Constant C(T) = 2 T^2 e^{2T (||c|| v ||c^n||)} (E||V0||^2 + rate T E||X1||^2
    + rate^2 T^2 (E||X1||)^2); the caller multiplies by ||c - c^n||_op^2."""
    t = inputs.horizon
    gn = max(inputs.gen_norm, inputs.gen_norm_trunc)
    growth = math.exp(_growth_exponent(2.0 * t * gn, "generator_spectrum"))
    return 2.0 * t * t * growth * _generator_moment_load(inputs)


def bound_variance_generator_tail(inputs: BoundInputs) -> float:
    """Compact-case constant C(T) = 4 T^2 e^{2T||c||} times the same moment
    load; the caller multiplies by the spectral tail sup_{J^c} Lambda^2."""
    t = inputs.horizon
    growth = math.exp(_growth_exponent(2.0 * t * inputs.gen_norm, "generator_spectrum"))
    return 4.0 * t * t * growth * _generator_moment_load(inputs)


def bound_sqrt(inputs: BoundInputs) -> float:
    """Constant k e^{T||c||} rate T, with k = 1, of the square-root comparison
    E[sup||rV - rV^n||_HS^2] <= k e^{T||c||} rate T E||X1 - X1^n||_1; the
    caller multiplies by the trace moment E||X1 - X1^n||_1.

    The proportionality constant k is not pinned down by the underlying
    square-root perturbation theory; reports carry it as k1.  The op-norm
    comparison E[sup||rV - rV^n||_op^2] <= E[sup||V - V^n||_op] is
    constant-free and needs no function here.
    """
    t = inputs.horizon
    growth = math.exp(_growth_exponent(t * inputs.gen_norm, "generator_spectrum"))
    return growth * inputs.rate * t


def bound_tensor_jump(m4: float, m4_diff: float) -> float:
    """E||Y(x)Y - Y^n(x)Y^n||^2 <= 4 sqrt(E|Y|^4 E|Y - Y^n|^4)."""
    if m4 < 0.0 or m4_diff < 0.0:
        raise ValueError("fourth moments must be nonnegative")
    return 4.0 * math.sqrt(m4 * m4_diff)


def bound_tensor_jump_trace(m2: float, m2_diff: float) -> float:
    """Trace-norm analogue E||Y(x)Y - Y^n(x)Y^n||_1 <= 2 sqrt(E|Y|^2 E|Y - Y^n|^2)."""
    if m2 < 0.0 or m2_diff < 0.0:
        raise ValueError("second moments must be nonnegative")
    return 2.0 * math.sqrt(m2 * m2_diff)


def bound_pathwise(gen_norm: float, horizon: float, dv0: float, jump_diff_total: float) -> float:
    """Pathwise error cap e^{||c|| T} (||dV0|| + sum_i ||dX_i||), any one norm."""
    if min(gen_norm, horizon, dv0, jump_diff_total) < 0.0:
        raise ValueError("pathwise bound inputs must be nonnegative")
    growth = math.exp(_growth_exponent(gen_norm * horizon, "generator_spectrum"))
    return growth * (dv0 + jump_diff_total)


def bound_pricing(lipschitz: float, functional_norm: float, e_abs: float) -> float:
    """Price robustness |P - P^n| <= K ||D||_op E|X(tau) - X^n(tau)|."""
    if min(lipschitz, functional_norm, e_abs) < 0.0:
        raise ValueError("pricing bound inputs must be nonnegative")
    return lipschitz * functional_norm * e_abs


# a Monte Carlo comparison passes when its margin is at least this many
# combined standard errors
PASS_MARGIN = -3.0


def combined_margin(lhs: float, lhs_se: float, rhs: float, rhs_se: float = 0.0) -> float:
    """Signed slack (rhs - lhs) in combined-stderr units.

    Both standard errors are pooled in quadrature.  When both vanish the
    comparison is exact and the margin is +-inf according to its sign (a tie
    counts as a pass).
    """
    gap = rhs - lhs
    se = math.hypot(lhs_se, rhs_se)
    if se == 0.0:
        return math.inf if gap >= 0.0 else -math.inf
    return gap / se
