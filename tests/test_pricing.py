import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame.pricing import (
    PriceDomainError,
    PriceSpec,
    eval_F,
    eval_u,
)

ALL_SPECS = [
    PriceSpec("zero"),
    PriceSpec("identity"),
    PriceSpec("sin"),
    PriceSpec("log1p"),
    PriceSpec("saturating", {"beta": 1.0}),
]


def grid(n, x_max=1.0):
    # near-zero leading point so the u -> 1 limit is observable
    return [1e-9] + [x_max * (i + 1) / n for i in range(n)]


SLACK = 1e-12  # rounding allowed in F(x) <= x and in u's monotonicity


def assert_bulk_discount(F, xs, unit_limit=1.0):
    """The paper's assumptions on a price function F, on the ascending positive
    grid xs: F(x) <= x, u(x) = F(x)/x nonincreasing, and u -> unit_limit as
    x -> 0+ (1 for a bulk discount, 0 for `zero`, the unpriced network)."""
    Fx = [F(x) for x in xs]
    u = [f / x for f, x in zip(Fx, xs)]
    assert all(f <= x + SLACK for f, x in zip(Fx, xs))
    assert all(b <= a + SLACK for a, b in zip(u, u[1:]))
    assert abs(u[0] - unit_limit) <= 1e-6


def assert_spec_bulk_discount(spec, xs):
    assert_bulk_discount(
        lambda x: eval_F(spec, x), xs, 0.0 if spec.fn == "zero" else 1.0
    )


def test_eval_F_analytic_values():
    assert eval_F(PriceSpec("identity"), 0.5) == 0.5
    assert eval_F(PriceSpec("log1p"), 1.0) == pytest.approx(math.log(2), rel=1e-12)
    assert eval_F(PriceSpec("sin"), 0.3) == pytest.approx(math.sin(0.3), rel=1e-12)
    assert eval_F(PriceSpec("saturating", {"beta": 2.0}), 0.5) == pytest.approx(
        0.25, rel=1e-12
    )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.fn)
def test_no_flow_no_charge(spec):
    assert eval_F(spec, 0.0) == 0.0


def test_eval_u_analytic_values():
    assert eval_u(PriceSpec("identity"), 0.25) == 1.0
    assert eval_u(PriceSpec("log1p"), 0.25) == pytest.approx(
        math.log(1.25) / 0.25, rel=1e-12
    )


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.fn)
def test_unit_price_at_zero_is_the_limit(spec):
    assert eval_u(spec, 0.0) == (0.0 if spec.fn == "zero" else 1.0)


def test_sin_domain_is_bounded():
    with pytest.raises(PriceDomainError):
        eval_F(PriceSpec("sin"), 2.0)
    with pytest.raises(PriceDomainError):
        eval_F(PriceSpec("identity"), -0.1)


@pytest.mark.parametrize("fam", ["sin", "log1p"])
def test_catalog_families_pass_property_check(fam):
    assert_spec_bulk_discount(PriceSpec(fam), grid(1000))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.fn)
def test_discount_monotone_on_dense_grid(spec):
    assert_spec_bulk_discount(spec, grid(10_000))


def test_zero_price_is_free_on_the_dense_grid():
    spec = PriceSpec("zero")
    xs = [0.0, *grid(10_000)]
    assert {eval_F(spec, x) for x in xs} == {eval_u(spec, x) for x in xs} == {0.0}


def test_bulk_discount_check_catches_overpricing():
    with pytest.raises(AssertionError):
        assert_bulk_discount(lambda x: 2 * x, grid(100))


def test_bulk_discount_check_catches_a_rising_unit_price():
    # F(x) = x * (1 + x) / 2 stays within the flow on (0, 1] and tends to
    # unit price 1/2 at 0+, but its unit price (1 + x) / 2 rises with the flow
    with pytest.raises(AssertionError):
        assert_bulk_discount(lambda x: x * (1 + x) / 2, grid(100), unit_limit=0.5)


def test_spec_validation():
    with pytest.raises(ValueError):
        PriceSpec("cubic")
    with pytest.raises(ValueError):
        PriceSpec("saturating")  # missing beta
    with pytest.raises(ValueError):
        PriceSpec("saturating", {"beta": -1.0})
    for beta in (math.inf, math.nan, True):
        with pytest.raises(ValueError, match="beta"):
            PriceSpec("saturating", {"beta": beta})
    with pytest.raises(ValueError):
        PriceSpec("identity", {"beta": 1.0})  # stray parameter


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(ALL_SPECS),
    st.floats(min_value=1e-9, max_value=1.0, allow_nan=False),
)
def test_total_equals_volume_times_unit_price(spec, x):
    F = eval_F(spec, x)
    u = eval_u(spec, x)
    assert F == pytest.approx(x * u, rel=1e-12, abs=1e-300)
    assert 0.0 <= u <= 1.0
