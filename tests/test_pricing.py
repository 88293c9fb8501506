import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routegame.pricing import (
    PRICE_FAMILIES,
    PriceDomainError,
    PriceSpec,
    check_function_properties,
    check_price_properties,
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
    report = check_price_properties(PriceSpec(fam), grid(1000))
    assert report.ok


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.fn)
def test_discount_monotone_on_dense_grid(spec):
    report = check_price_properties(spec, grid(10_000))
    assert report.price_within_flow
    assert report.unit_price_nonincreasing
    assert report.unit_limit_is_one


def test_injected_overpricing_fails_check():
    report = check_function_properties(lambda x: 2 * x, grid(100))
    assert not report.price_within_flow


def test_property_check_rejects_bad_grids():
    with pytest.raises(ValueError):
        check_price_properties(PriceSpec("sin"), [])
    with pytest.raises(ValueError):
        check_price_properties(PriceSpec("sin"), [0.5, 0.1])
    with pytest.raises(ValueError):
        check_price_properties(PriceSpec("sin"), [0.0, 0.1])


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
