"""Option prices on forwards, with robustness certificates against the
truncated model.

Prices are undiscounted expectations P = E[p(<D, X(tau)>)] of a Lipschitz
payoff p (call, put, identity or constant) applied to a continuous linear
functional of the state at a fixed exercise time; the functional is given by
its Riesz vector D.  Robustness reports compare the coupled price gap
|P - P^n| against its Lipschitz certificate and an optional model-level cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import PASS_MARGIN, bound_pricing, combined_margin
from .operators import as_hilbert_vector

PAYOFF_KINDS = ("call", "put", "identity", "constant")


@dataclass(frozen=True)
class PayoffSpec:
    """Scalar payoff with a certified Lipschitz constant.

    call, put and identity are 1-Lipschitz; constant is 0-Lipschitz and pays
    its strike field whatever the state.
    """

    kind: str
    lipschitz: float
    strike: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PAYOFF_KINDS:
            raise ValueError(f"unknown payoff kind {self.kind!r}")
        if self.lipschitz < 0.0:
            raise ValueError("Lipschitz constant must be nonnegative")

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
        return cls(kind="constant", lipschitz=0.0, strike=value)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == "call":
            return np.maximum(x - self.strike, 0.0)
        if self.kind == "put":
            return np.maximum(self.strike - x, 0.0)
        if self.kind == "identity":
            return x
        return np.full_like(x, self.strike)


@dataclass(frozen=True, eq=False)
class FunctionalSpec:
    """Continuous linear functional on the state space, given by its Riesz
    vector; it acts by the inner product, and its operator norm is the
    vector's norm."""

    riesz: np.ndarray
    op_norm: float = field(init=False)

    def __post_init__(self) -> None:
        riesz = as_hilbert_vector(self.riesz)
        object.__setattr__(self, "riesz", riesz)
        object.__setattr__(self, "op_norm", float(np.linalg.norm(riesz)))

    @classmethod
    def coordinate(cls, j: int, dim: int) -> "FunctionalSpec":
        riesz = np.zeros(dim)
        riesz[j] = 1.0
        return cls(riesz=riesz)

    def apply(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != self.riesz.shape:
            raise ValueError("functional and argument dimensions disagree")
        return float(np.sum(self.riesz * x))


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


def pricing_report(
    level: int,
    pay_exact: np.ndarray,
    pay_trunc: np.ndarray,
    dist: np.ndarray,
    payoff: PayoffSpec,
    functional: FunctionalSpec,
    theorem_cap: float = np.inf,
    theorem_cap_se: float = 0.0,
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
    price_trunc, price_trunc_se = mean_se(pay_trunc)
    e_abs, e_abs_se = mean_se(dist)
    return PricingReport(
        level=level,
        price=price,
        price_se=price_se,
        price_trunc=price_trunc,
        price_trunc_se=price_trunc_se,
        price_diff=abs(gap),
        price_diff_se=gap_se,
        lipschitz_rhs=bound_pricing(payoff.lipschitz, functional.op_norm, e_abs),
        lipschitz_rhs_se=payoff.lipschitz * functional.op_norm * e_abs_se,
        theorem_cap=theorem_cap,
        theorem_cap_se=theorem_cap_se,
    )
