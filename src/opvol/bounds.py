"""Explicit robustness constants for the truncated volatility model, and the
compound Poisson moment formulas.

Every function here is a pure map from model constants and moment estimates
to the right-hand side of one robustness inequality.  Constants are kept in
their stated form even where a sharper one is evident from the derivation;
a sharpened variant is returned next to the stated constant and named in the
docstring, so that reports can show both without ever silently replacing the
stated constant.

Conventions shared by all bounds:

* Each function takes, as required parameters, exactly the quantities its
  formula reads.  ``horizon`` is the terminal time T > 0, ``rate`` the jump
  intensity, ``gen_norm`` the operator norm ||c|| of the mean-reversion
  generator and ``gen_norm_trunc`` that of its compression, ``k`` the growth
  rate of ||S(t)|| <= e^{kt}; the rest are moments of V0 and of one jump X1.
* ``horizon`` must be positive and every other parameter but ``k``
  nonnegative; a value out of range raises a one-line ValueError that names
  the parameter.
* Squared-moment inputs are expectations of squared Hilbert-Schmidt norms,
  trace-moment inputs are expectations of trace norms.
* A bound returns only its constant part when the matching error moment is
  estimated by the caller; the docstring says which factor the caller owns.
"""
from __future__ import annotations

import math
import sys

_K_ZERO_REL = 1e-12

# the largest exponent x with a finite e^x
_MAX_EXPONENT = math.log(sys.float_info.max)


def _require(**params: float) -> None:
    """Raise a one-line ValueError naming the first parameter out of range:
    horizon must be positive, every other parameter nonnegative.  A NaN
    passes, to come out of the bound as a NaN."""
    for name, value in params.items():
        if value < 0.0 or (name == "horizon" and value == 0.0):
            sign = "positive" if name == "horizon" else "nonnegative"
            raise ValueError(f"{name} must be {sign}, got {value}")


def _growth_exponent(x: float, field: str) -> float:
    """x, the exponent of a growth factor e^x that field and the horizon set.

    An exponent above log(float max) overflows; it raises a ValueError that
    names the two config fields to lower.
    """
    if x > _MAX_EXPONENT:
        raise ValueError(f"growth factor exp({x:.6g}) overflows: lower |{field}| or horizon")
    return x


def bound_forward(k: float, trace_q: float, horizon: float) -> float:
    """Noise constant C(T) = Tr(Q) (e^{2kT} - 1) / (2k), for the growth rate
    k of ||S(t)|| <= e^{kt}, which may be negative.

    At k = 0 the analytic limit Tr(Q) T is used; the switch triggers for
    |k| < 1e-12 / T.  The caller multiplies by E[sup_t ||V - V^n||].
    """
    _require(trace_q=trace_q, horizon=horizon)
    if abs(k) < _K_ZERO_REL / horizon:
        return trace_q * horizon
    growth = math.expm1(_growth_exponent(2.0 * k * horizon, "forward_spectrum"))
    return trace_q * growth / (2.0 * k)


def bound_variance_jumps(horizon: float, rate: float, gen_norm: float) -> tuple[float, float, float]:
    """Constants (C0, C1) with E[sup||V - V^n||^2] <= C0 E||dV0||^2 + C1 E||dX1||^2,
    and the sharp C1.

    The stated C1 carries the exponential factor twice,

        C0 = 2 e^{2T||c||},  C1 = 2 e^{2T||c||} T rate (1 + rate T) e^{2T||c||};

    the sharp C1, the third value, is the single-exponential variant evident
    from the derivation (diagnostic only, never a replacement).
    """
    _require(horizon=horizon, rate=rate, gen_norm=gen_norm)
    growth = math.exp(_growth_exponent(2.0 * horizon * gen_norm, "generator_spectrum"))
    base = 2.0 * growth
    load = horizon * rate * (1.0 + rate * horizon)
    return base, base * load * growth, base * load


def bound_cpp_diff(horizon: float, rate: float) -> float:
    """Constant C(T) = 2 T rate (1 + rate T) controlling the coupled compound
    Poisson sums themselves: E[sup||L - L^n||^2] <= C(T) E||X1 - X1^n||^2.

    The caller multiplies by E||dX1||^2.
    """
    _require(horizon=horizon, rate=rate)
    return 2.0 * horizon * rate * (1.0 + rate * horizon)


def _generator_moment_load(
    horizon: float, rate: float, v0_sq: float, jump_sq: float, jump_mean_sq: float
) -> float:
    return v0_sq + rate * horizon * jump_sq + rate * rate * horizon * horizon * jump_mean_sq


def bound_variance_generator(
    horizon: float, rate: float, gen_norm: float, gen_norm_trunc: float,
    v0_sq: float, jump_sq: float, jump_mean_sq: float,
) -> float:
    """Constant C(T) = 2 T^2 e^{2T (||c|| v ||c^n||)} (E||V0||^2 + rate T E||X1||^2
    + rate^2 T^2 (E||X1||)^2); the caller multiplies by ||c - c^n||_op^2."""
    _require(horizon=horizon, rate=rate, gen_norm=gen_norm, gen_norm_trunc=gen_norm_trunc,
             v0_sq=v0_sq, jump_sq=jump_sq, jump_mean_sq=jump_mean_sq)
    gn = max(gen_norm, gen_norm_trunc)
    growth = math.exp(_growth_exponent(2.0 * horizon * gn, "generator_spectrum"))
    load = _generator_moment_load(horizon, rate, v0_sq, jump_sq, jump_mean_sq)
    return 2.0 * horizon * horizon * growth * load


def bound_variance_generator_tail(
    horizon: float, rate: float, gen_norm: float, v0_sq: float, jump_sq: float, jump_mean_sq: float,
) -> float:
    """Compact-case constant C(T) = 4 T^2 e^{2T||c||} times the same moment
    load; the caller multiplies by the spectral tail sup_{J^c} Lambda^2."""
    _require(horizon=horizon, rate=rate, gen_norm=gen_norm,
             v0_sq=v0_sq, jump_sq=jump_sq, jump_mean_sq=jump_mean_sq)
    growth = math.exp(_growth_exponent(2.0 * horizon * gen_norm, "generator_spectrum"))
    load = _generator_moment_load(horizon, rate, v0_sq, jump_sq, jump_mean_sq)
    return 4.0 * horizon * horizon * growth * load


def bound_sqrt(horizon: float, rate: float, gen_norm: float) -> float:
    """Constant k e^{T||c||} rate T, with k = 1, of the square-root comparison
    E[sup||rV - rV^n||_HS^2] <= k e^{T||c||} rate T E||X1 - X1^n||_1; the
    caller multiplies by the trace moment E||X1 - X1^n||_1.

    The proportionality constant k is not pinned down by the underlying
    square-root perturbation theory; reports carry it as k1.  The op-norm
    comparison E[sup||rV - rV^n||_op^2] <= E[sup||V - V^n||_op] is
    constant-free and needs no function here.
    """
    _require(horizon=horizon, rate=rate, gen_norm=gen_norm)
    growth = math.exp(_growth_exponent(horizon * gen_norm, "generator_spectrum"))
    return growth * rate * horizon


def bound_tensor_jump(m4: float, m4_diff: float) -> float:
    """E||Y(x)Y - Y^n(x)Y^n||^2 <= 4 sqrt(E|Y|^4 E|Y - Y^n|^4)."""
    _require(m4=m4, m4_diff=m4_diff)
    return 4.0 * math.sqrt(m4 * m4_diff)


def bound_tensor_jump_trace(m2: float, m2_diff: float) -> float:
    """Trace-norm analogue E||Y(x)Y - Y^n(x)Y^n||_1 <= 2 sqrt(E|Y|^2 E|Y - Y^n|^2)."""
    _require(m2=m2, m2_diff=m2_diff)
    return 2.0 * math.sqrt(m2 * m2_diff)


def bound_pathwise(gen_norm: float, horizon: float, dv0: float, jump_diff_total: float) -> float:
    """Pathwise error cap e^{||c|| T} (||dV0|| + sum_i ||dX_i||), any one norm."""
    _require(gen_norm=gen_norm, horizon=horizon, dv0=dv0, jump_diff_total=jump_diff_total)
    growth = math.exp(_growth_exponent(gen_norm * horizon, "generator_spectrum"))
    return growth * (dv0 + jump_diff_total)


def bound_pricing(lipschitz: float, functional_norm: float, e_abs: float) -> float:
    """Price robustness |P - P^n| <= K ||D||_op E|X(tau) - X^n(tau)|."""
    _require(lipschitz=lipschitz, functional_norm=functional_norm, e_abs=e_abs)
    return lipschitz * functional_norm * e_abs


def cp_second_moment(rate: float, t: float, m2: float, m1sq: float) -> float:
    """Exact second moment of a compound Poisson sum at time t >= 0:
    E|L(t)|^2 = rate*t*E|J|^2 + rate^2*t^2*|E J|^2."""
    _require(rate=rate, t=t, m2=m2, m1sq=m1sq)
    return rate * t * m2 + rate**2 * t**2 * m1sq


def cp_second_moment_bound(rate: float, t: float, m2: float) -> float:
    """Upper bound rate*t*(1 + rate*t)*E|J|^2 (drops the mean to a second moment)."""
    _require(rate=rate, t=t, m2=m2)
    return rate * t * (1.0 + rate * t) * m2


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
