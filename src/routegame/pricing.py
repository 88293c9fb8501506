"""Bulk-discount edge pricing: total-price functions F and per-unit prices u(x) = F(x)/x.

Every catalog family (except ``zero``) satisfies F(x) <= x, has a nonincreasing
per-unit price, and u(x) -> 1 as x -> 0+. The ``saturating`` family takes a
finite depth parameter beta > 0 and gives u(x) = 1/(1 + beta*x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

PRICE_FAMILIES = ("zero", "identity", "sin", "log1p", "saturating")

#: Families whose per-unit price tends to 1 at vanishing volume.
_UNIT_LIMIT_FAMILIES = frozenset(PRICE_FAMILIES) - {"zero"}

#: Slack allowed when checking that a sampled unit-price sequence is nonincreasing.
_MONOTONE_SLACK = 1e-12


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


@dataclass(frozen=True)
class PropertyReport:
    """Grid check of the bulk-discount properties of a price function."""

    price_within_flow: bool       # F(x) <= x on every grid point
    unit_price_nonincreasing: bool
    unit_limit_is_one: bool       # u at the smallest grid point is ~1

    @property
    def ok(self) -> bool:
        return (
            self.price_within_flow
            and self.unit_price_nonincreasing
            and self.unit_limit_is_one
        )


def check_function_properties(
    total_price: Callable[[float], float],
    grid: Sequence[float],
    expect_unit_limit: bool = True,
) -> PropertyReport:
    """Check bulk-discount properties of an arbitrary total-price function.

    The grid must be sorted ascending with strictly positive points.
    """
    if len(grid) == 0:
        raise ValueError("empty sample grid")
    if any(x <= 0 for x in grid):
        raise ValueError("grid points must be strictly positive")
    if any(b < a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be sorted ascending")

    values = [total_price(x) for x in grid]
    unit = [f / x for f, x in zip(values, grid)]

    within = all(f <= x + _MONOTONE_SLACK for f, x in zip(values, grid))
    nonincreasing = all(
        b <= a + _MONOTONE_SLACK for a, b in zip(unit, unit[1:])
    )
    limit_ok = abs(unit[0] - 1.0) <= 1e-6 if expect_unit_limit else True
    return PropertyReport(within, nonincreasing, limit_ok)


def check_price_properties(spec: PriceSpec, grid: Sequence[float]) -> PropertyReport:
    """Check the bulk-discount properties of a catalog family on a sample grid."""
    return check_function_properties(
        lambda x: eval_F(spec, x),
        grid,
        expect_unit_limit=spec.fn in _UNIT_LIMIT_FAMILIES,
    )
