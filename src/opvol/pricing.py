"""Option prices on forwards, with robustness certificates against the
truncated model.

Prices are undiscounted expectations P = E[p(X_j(tau))] of a Lipschitz payoff
p (call, put, identity or constant) applied to one coordinate of the state at
a fixed exercise time.  Robustness reports compare the coupled price gap
|P - P^n| against its Lipschitz certificate and a model-level cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import PASS_MARGIN, bound_pricing, combined_margin

# each payoff kind's Lipschitz constant
PAYOFF_LIPSCHITZ = {"call": 1.0, "put": 1.0, "identity": 1.0, "constant": 0.0}


@dataclass(frozen=True)
class PayoffSpec:
    """Scalar payoff with a certified Lipschitz constant.

    call, put and identity are 1-Lipschitz; constant is 0-Lipschitz and pays
    its strike field whatever the state.
    """

    kind: str
    strike: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PAYOFF_LIPSCHITZ:
            raise ValueError(f"kind must be one of {', '.join(PAYOFF_LIPSCHITZ)}, got {self.kind!r}")

    @property
    def lipschitz(self) -> float:
        return PAYOFF_LIPSCHITZ[self.kind]

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "call":
            return np.maximum(x - self.strike, 0.0)
        if self.kind == "put":
            return np.maximum(self.strike - x, 0.0)
        if self.kind == "identity":
            return x
        return np.full_like(x, self.strike)


@dataclass(frozen=True)
class FunctionalSpec:
    """The coordinate functional x -> x_j on the state space; its Riesz
    vector is e_j, so its operator norm is 1."""

    j: int
    op_norm = 1.0

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Coordinate j of each state in a (..., d) stack."""
        return x[..., self.j]


def mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (zero for fewer than two values)."""
    x = np.asarray(x, dtype=float)
    m = float(np.mean(x))
    if x.size < 2:
        return m, 0.0
    return m, float(np.std(x, ddof=1) / math.sqrt(x.size))


@dataclass(frozen=True)
class PricingReport:
    """Coupled price gap against its Lipschitz certificate and a model cap.

    ``chain_margin`` certifies |P - P^n| <= K ||f|| E|dX(tau)| for the
    functional f, and ``cap_margin`` certifies the latter against the
    supplied cap; margins are in combined-stderr units with the -3 pass
    convention.
    """

    level: int
    price: float
    price_se: float
    price_diff: float
    price_diff_se: float
    lipschitz_rhs: float
    lipschitz_rhs_se: float
    theorem_cap: float
    theorem_cap_se: float

    @property
    def chain_margin(self) -> float:
        return combined_margin(
            self.price_diff, self.price_diff_se, self.lipschitz_rhs, self.lipschitz_rhs_se
        )

    @property
    def cap_margin(self) -> float:
        return combined_margin(
            self.lipschitz_rhs, self.lipschitz_rhs_se, self.theorem_cap, self.theorem_cap_se
        )

    @property
    def passed(self) -> bool:
        return self.chain_margin >= PASS_MARGIN and self.cap_margin >= PASS_MARGIN


def pricing_report(
    level: int,
    pay_exact: np.ndarray,
    pay_trunc: np.ndarray,
    dist: np.ndarray,
    payoff: PayoffSpec,
    functional: FunctionalSpec,
    theorem_cap: float,
    theorem_cap_se: float,
) -> PricingReport:
    """Assemble the pricing robustness chain for one truncation level.

    The three arrays hold one entry per coupled replication: the exact and
    truncated payoffs and the state-space distance |X(tau) - X^n(tau)|.  The
    price gap uses per-replication payoff differences, so the common noise
    cancels in its standard error.
    """
    pay_exact, pay_trunc, dist = (np.asarray(a, dtype=float) for a in (pay_exact, pay_trunc, dist))
    if not pay_exact.shape == pay_trunc.shape == dist.shape:
        raise ValueError(f"ensemble is not coupled replication by replication at level {level}")
    gap, gap_se = mean_se(pay_exact - pay_trunc)
    price, price_se = mean_se(pay_exact)
    e_abs, e_abs_se = mean_se(dist)
    return PricingReport(
        level=level,
        price=price,
        price_se=price_se,
        price_diff=abs(gap),
        price_diff_se=gap_se,
        lipschitz_rhs=bound_pricing(payoff.lipschitz, functional.op_norm, e_abs),
        lipschitz_rhs_se=payoff.lipschitz * functional.op_norm * e_abs_se,
        theorem_cap=theorem_cap,
        theorem_cap_se=theorem_cap_se,
    )
