import pytest

from lifshitz_fidelity import BosonGasParams, BulkParams, DomainError, QuadratureSpec


@pytest.mark.parametrize("field,value", [
    ("N", 0), ("N", -2), ("q", 0.0), ("q", -1.0),
    ("m", 0.0), ("H", -3.0), ("beta", float("nan")),
])
def test_boson_params_rejects_bad_values(field, value):
    with pytest.raises(DomainError):
        BosonGasParams(**{field: value})


def test_boson_params_defaults_are_valid():
    p = BosonGasParams()
    assert (p.N, p.q, p.m, p.H, p.beta, p.k) == (1, 1.0, 1.0, 1.0, 0.0, 0.0)


@pytest.mark.parametrize("field,value", [
    ("L", 0.0), ("Qt", -1.0), ("rp", 0.0),
    ("G", 0.0), ("z", 0.5), ("R", -1.0),
    ("L", 1e-200), ("L", 1e-160), ("L", 1e200),  # -3/L^2 not a finite float
])
def test_bulk_params_rejects_bad_values(field, value):
    with pytest.raises(DomainError, match=field):
        BulkParams(**{field: value})


def test_bulk_lambda_derived_from_curvature_scale():
    p = BulkParams(L=2.0)
    assert p.Lambda == -3.0 / 4.0
    assert p.lambda_eff == p.Lambda + p.Qt**2 * p.xi


def test_bulk_lambda_explicit_must_be_consistent():
    BulkParams(L=1.0, Lambda=-3.0)
    with pytest.raises(DomainError):
        BulkParams(L=1.0, Lambda=-2.9)


def test_bulk_complexity_radius_defaults_to_curvature_scale():
    assert BulkParams(L=1.7).R == 1.7
    assert BulkParams(L=1.7, R=0.4).R == 0.4


@pytest.mark.parametrize("kw", [
    {"panels": 32}, {"tolerance": 0.0}, {"levels": 0},
    {"halfwidth": float("nan")}, {"tolerance": float("nan")}, {"halfwidth": -1.0},
])
def test_quadrature_spec_validation(kw):
    with pytest.raises(DomainError):
        QuadratureSpec(**kw)
