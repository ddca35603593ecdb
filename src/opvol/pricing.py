"""Monte Carlo option pricing on forwards and on volatility, with
robustness certificates against the truncated model.

Prices are undiscounted expectations P = E[p(D X(tau))] of a Lipschitz
payoff applied to a continuous linear functional of the state at a fixed
exercise time.  The volatility variant applies the functional to the
operator square root of V(tau).  Robustness reports compare the coupled
price gap |P - P^n| against its Lipschitz certificate and an optional
model-level cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bounds import PASS_MARGIN, bound_pricing, combined_margin
from .forward import ForwardPath
from .operators import psd_sqrt
from .variance import VariancePath

PAYOFF_KINDS = ("call", "put", "identity", "custom")


@dataclass(frozen=True)
class PayoffSpec:
    """Scalar payoff with a certified Lipschitz constant.

    Built-in kinds are 1-Lipschitz; a custom payoff supplies a vectorized
    callable together with its own constant.
    """

    kind: str
    lipschitz: float
    strike: float = 0.0
    fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.kind not in PAYOFF_KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if self.lipschitz < 0.0:
            raise ValueError("Lipschitz constant must be nonnegative")
        if self.kind == "custom" and self.fn is None:
            raise ValueError("custom payoff requires a callable")

    @classmethod
    def call(cls, strike: float = 0.0) -> "PayoffSpec":
        return cls(kind="call", lipschitz=1.0, strike=strike)

    @classmethod
    def put(cls, strike: float = 0.0) -> "PayoffSpec":
        return cls(kind="put", lipschitz=1.0, strike=strike)

    @classmethod
    def identity(cls) -> "PayoffSpec":
        return cls(kind="identity", lipschitz=1.0)

    @classmethod
    def constant(cls, value: float) -> "PayoffSpec":
        return cls(kind="custom", lipschitz=0.0, fn=lambda x: np.full_like(x, value))

    @classmethod
    def custom(cls, fn: Callable[[np.ndarray], np.ndarray], lipschitz: float) -> "PayoffSpec":
        return cls(kind="custom", lipschitz=lipschitz, fn=fn)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "call":
            return np.maximum(x - self.strike, 0.0)
        if self.kind == "put":
            return np.maximum(self.strike - x, 0.0)
        if self.kind == "identity":
            return x
        return np.asarray(self.fn(x), dtype=float)


@dataclass(frozen=True, eq=False)
class FunctionalSpec:
    """Continuous linear functional given by its Riesz representative.

    A vector representative acts on the state space by the inner product; a
    matrix representative acts on variance operators by the Hilbert-Schmidt
    pairing.  The stored operator norm is the representative's norm.
    """

    riesz: np.ndarray
    op_norm: float = field(init=False)

    def __post_init__(self) -> None:
        riesz = np.asarray(self.riesz, dtype=float)
        if riesz.ndim not in (1, 2):
            raise ValueError("Riesz representative must be a vector or a matrix")
        if not np.all(np.isfinite(riesz)):
            raise ValueError("Riesz representative must be finite")
        object.__setattr__(self, "riesz", riesz)
        object.__setattr__(self, "op_norm", float(np.linalg.norm(riesz)))

    @classmethod
    def coordinate(cls, j: int, dim: int) -> "FunctionalSpec":
        riesz = np.zeros(dim)
        riesz[j] = 1.0
        return cls(riesz=riesz)

    @classmethod
    def trace(cls, dim: int) -> "FunctionalSpec":
        """<I, V> in the Hilbert-Schmidt pairing is the trace of V."""
        return cls(riesz=np.eye(dim))

    def apply(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != self.riesz.shape:
            raise ValueError("functional and argument dimensions disagree")
        return float(np.sum(self.riesz * x))


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("ensemble is empty")
    mean = float(values.mean())
    if values.size == 1:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / np.sqrt(values.size))


def variance_at(path: VariancePath, tau: float) -> np.ndarray:
    """V(tau) read off the grid, right-continuous at jump times."""
    tol = 1e-12 * (1.0 + abs(tau))
    hit = (np.abs(path.grid.times - tau) <= tol) & ~path.grid.is_left
    idx = np.flatnonzero(hit)
    if idx.size == 0:
        raise ValueError(f"exercise time {tau} is not on the grid")
    return path.values[idx[-1]]


def price_option(
    paths: Sequence[ForwardPath],
    functional: FunctionalSpec,
    payoff: PayoffSpec,
    tau: float,
    level: int | None = None,
) -> tuple[float, float]:
    """Sample mean and stderr of p(<riesz, X(tau)>) across replications."""
    dx = np.array([functional.apply(p.at_time(tau, level)) for p in paths])
    return _mean_stderr(payoff.evaluate(dx))


def price_vol_option(
    paths: Sequence[VariancePath],
    functional: FunctionalSpec,
    payoff: PayoffSpec,
    tau: float,
) -> tuple[float, float]:
    """Sample mean and stderr of p(<riesz, sqrt(V(tau))>)."""
    dv = np.array([functional.apply(psd_sqrt(variance_at(p, tau))) for p in paths])
    return _mean_stderr(payoff.evaluate(dv))


@dataclass(frozen=True)
class PricingReport:
    """Coupled price gap against its Lipschitz certificate and a model cap.

    ``chain_margin`` certifies |P - P^n| <= K ||D|| E|dX(tau)| and
    ``cap_margin`` certifies the latter against the supplied cap; margins
    are in combined-stderr units with the -3 pass convention.
    """

    level: int
    price: float
    price_se: float
    price_trunc: float
    price_trunc_se: float
    price_diff: float
    price_diff_se: float
    lipschitz_rhs: float
    lipschitz_rhs_se: float
    theorem_cap: float = np.inf
    theorem_cap_se: float = 0.0

    @property
    def chain_margin(self) -> float:
        return combined_margin(
            self.price_diff, self.price_diff_se, self.lipschitz_rhs, self.lipschitz_rhs_se
        )

    @property
    def cap_margin(self) -> float:
        if np.isinf(self.theorem_cap):
            return np.inf
        return combined_margin(
            self.lipschitz_rhs, self.lipschitz_rhs_se, self.theorem_cap, self.theorem_cap_se
        )

    @property
    def passed(self) -> bool:
        return self.chain_margin >= PASS_MARGIN and self.cap_margin >= PASS_MARGIN


def price_robustness_report(
    paths: Sequence[ForwardPath],
    functional: FunctionalSpec,
    payoff: PayoffSpec,
    tau: float,
    level: int,
    theorem_cap: float = np.inf,
    theorem_cap_se: float = 0.0,
) -> PricingReport:
    """Assemble the pricing robustness chain for one truncation level.

    All three statistics come from the same coupled replications: the price
    gap uses per-replication payoff differences, the certificate uses the
    per-replication state-space distance |X(tau) - X^n(tau)|.
    """
    for p in paths:
        if level not in p.approx:
            raise ValueError(f"ensemble is not coupled at level {level}")
    dx_exact = np.array([functional.apply(p.at_time(tau)) for p in paths])
    dx_trunc = np.array([functional.apply(p.at_time(tau, level)) for p in paths])
    pay_exact = payoff.evaluate(dx_exact)
    pay_trunc = payoff.evaluate(dx_trunc)
    price, price_se = _mean_stderr(pay_exact)
    price_trunc, price_trunc_se = _mean_stderr(pay_trunc)
    gap, gap_se = _mean_stderr(pay_exact - pay_trunc)

    dist = np.array(
        [np.linalg.norm(p.at_time(tau) - p.at_time(tau, level)) for p in paths]
    )
    e_abs, e_abs_se = _mean_stderr(dist)
    scale = payoff.lipschitz * functional.op_norm
    return PricingReport(
        level=level,
        price=price,
        price_se=price_se,
        price_trunc=price_trunc,
        price_trunc_se=price_trunc_se,
        price_diff=abs(gap),
        price_diff_se=gap_se,
        lipschitz_rhs=bound_pricing(payoff.lipschitz, functional.op_norm, e_abs),
        lipschitz_rhs_se=scale * e_abs_se,
        theorem_cap=theorem_cap,
        theorem_cap_se=theorem_cap_se,
    )
