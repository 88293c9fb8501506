"""Bulk-discount edge pricing: total-price functions F and per-unit prices u(x) = F(x)/x.

Every catalog family (except ``zero``) satisfies F(x) <= x, has a nonincreasing
per-unit price, and u(x) -> 1 as x -> 0+. The ``saturating`` family takes a
finite depth parameter beta > 0 and gives u(x) = 1/(1 + beta*x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

PRICE_FAMILIES = ("zero", "identity", "sin", "log1p", "saturating")


class PriceDomainError(ValueError):
    """Flow volume outside the admissible domain of a price family."""


@dataclass(frozen=True)
class PriceSpec:
    """A catalog price function plus its family-specific parameters."""

    fn: str = "zero"
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.fn not in PRICE_FAMILIES:
            raise ValueError(f"unknown price family {self.fn!r}")
        params = dict(self.params)
        if self.fn == "saturating":
            beta = params.pop("beta", None)
            if beta is None:
                raise ValueError("saturating price requires parameter 'beta'")
            if isinstance(beta, bool) or not (
                isinstance(beta, (int, float)) and 0 < beta < math.inf
            ):
                raise ValueError("saturating 'beta' must be a positive finite number")
        if params:
            raise ValueError(
                f"unexpected parameters for {self.fn!r}: {sorted(params)}"
            )

    @property
    def x_max(self) -> float:
        """Upper end of the admissible domain (sin stops being monotone past pi/2)."""
        return math.pi / 2 if self.fn == "sin" else math.inf


ZERO_PRICE = PriceSpec("zero")


def eval_F(spec: PriceSpec, x: float) -> float:
    """Total price charged for routing volume x. F(0) = 0 for every family."""
    if x < 0:
        raise PriceDomainError(f"negative flow volume {x}")
    if x > spec.x_max:
        raise PriceDomainError(f"volume {x} outside admissible domain of {spec.fn!r}")
    if spec.fn == "zero":
        return 0.0
    if spec.fn == "identity":
        return float(x)
    if spec.fn == "sin":
        return math.sin(x)
    if spec.fn == "log1p":
        return math.log1p(x)
    # saturating
    beta = spec.params["beta"]
    return x / (1.0 + beta * x)


def eval_u(spec: PriceSpec, x: float) -> float:
    """Per-unit price F(x)/x; at x = 0 the analytic limit (1, or 0 for ``zero``)."""
    if x == 0:
        return 0.0 if spec.fn == "zero" else 1.0
    return eval_F(spec, x) / x
