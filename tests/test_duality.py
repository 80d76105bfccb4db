import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lifshitz_fidelity import (
    BulkParams,
    DomainError,
    LifshitzFidelityError,
    consistency_flags,
    match_parameters,
    verify_duality,
    xi_f_holo_z4,
)
from lifshitz_fidelity.duality import (
    FLAG_NEGATIVE_B2Q,
    FLAG_NEGATIVE_N,
    FLAG_XI_SIGN,
    DualityReport,
    xi_f_boundary_matched,
)


def test_matched_values_at_reference_point():
    n_matched, b2q = match_parameters(BulkParams(rp=1.0, L=1.0, xi=-1.0, G=1.0))
    assert n_matched == pytest.approx(-16 * math.sqrt(5) / (48 * math.pi), rel=1e-12)
    assert b2q == pytest.approx(-0.375, rel=1e-14)


def test_matched_number_scales_with_horizon_area():
    n1, _ = match_parameters(BulkParams(rp=1.0, xi=-1.0))
    n2, _ = match_parameters(BulkParams(rp=2.0, xi=-1.0))
    assert n2 == pytest.approx(4 * n1, rel=1e-14)


def test_match_requires_negative_coupling():
    with pytest.raises(DomainError):
        match_parameters(BulkParams(xi=1.0))
    with pytest.raises(DomainError):
        verify_duality(BulkParams(xi=1.0))


def test_dictionary_identity_over_charge_sweep():
    for qt in (1.0, 2.0, 5.0, 10.0):
        report = verify_duality(BulkParams(Qt=qt, xi=-1.0))
        assert report.residual <= 1e-10


def test_dictionary_identity_randomized():
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = BulkParams(
            L=rng.uniform(0.5, 2.0),
            xi=-rng.uniform(0.2, 3.0),
            Qt=rng.uniform(0.5, 5.0),
            rp=rng.uniform(0.3, 3.0),
            G=rng.uniform(0.5, 2.0),
        )
        report = verify_duality(p)
        assert report.residual <= 1e-10
        assert report.flags == (FLAG_NEGATIVE_N, FLAG_NEGATIVE_B2Q, FLAG_XI_SIGN)


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@pytest.mark.xfail(strict=True, reason="far out in the float range the closed forms over- or "
                   "underflow: OverflowError, ZeroDivisionError, or a residual of 1 or NaN")
@settings(max_examples=200, deadline=None)
@given(L=_POSITIVE, minus_xi=_POSITIVE, Qt=_POSITIVE, rp=_POSITIVE, G=_POSITIVE)
@example(L=1.0, minus_xi=1.0, Qt=1.0, rp=1e200, G=1.0)  # rp**2 raises OverflowError
@example(L=1.0, minus_xi=1.0, Qt=1e-300, rp=1.0, G=1.0)  # Qt**3 underflows: ZeroDivisionError
@example(L=1 / 3, minus_xi=5.767821251131042e-139, Qt=4.0, rp=5.767821251131042e-139,
         G=4.0)  # residual 1.0
def test_dictionary_identity_over_the_documented_domain(L, minus_xi, Qt, rp, G):
    # every BulkParams with xi < 0 (z = 4) either meets the dictionary's
    # 1e-10 or raises a named error
    try:
        report = verify_duality(BulkParams(L=L, xi=-minus_xi, Qt=Qt, rp=rp, G=G))
    except LifshitzFidelityError:
        return
    assert report.residual <= 1e-10


def test_perturbed_match_gives_nonzero_residual():
    p = BulkParams(xi=-1.0)
    n_matched, b2q = match_parameters(p)
    perturbed = xi_f_boundary_matched(1.01 * n_matched, b2q, p.Qt)
    bulk = xi_f_holo_z4(p)
    residual = abs(bulk - perturbed) / max(abs(bulk), abs(perturbed))
    assert residual > 1e-3


def test_scaling_covariance_under_horizon_rescale():
    r1 = verify_duality(BulkParams(rp=1.2, xi=-0.8, Qt=2.0))
    r2 = verify_duality(BulkParams(rp=2.4, xi=-0.8, Qt=2.0))
    assert r2.xi_f_bulk == pytest.approx(4 * r1.xi_f_bulk, rel=1e-12)
    assert r2.xi_f_boundary == pytest.approx(4 * r1.xi_f_boundary, rel=1e-12)
    assert abs(r2.residual - r1.residual) <= 1e-10


def test_flags_depend_only_on_signs():
    report = verify_duality(BulkParams(xi=-1.0))
    assert consistency_flags(report) == report.flags
    # strict inequality: a zero matched number raises no negative-N flag
    boundary_case = DualityReport(
        matched_N=0.0,
        matched_beta2_over_q=-0.375,
        xi_f_bulk=0.0,
        xi_f_boundary=0.0,
        residual=0.0,
        flags=(),
        inputs={"xi": -1.0},
    )
    flags = consistency_flags(boundary_case)
    assert FLAG_NEGATIVE_N not in flags
    assert FLAG_NEGATIVE_B2Q in flags
    assert FLAG_XI_SIGN not in flags


def test_report_echoes_inputs():
    p = BulkParams(L=1.5, xi=-0.7, Qt=2.5, rp=0.9, G=1.1)
    report = verify_duality(p)
    assert report.inputs == {"L": 1.5, "xi": -0.7, "Qt": 2.5, "rp": 0.9, "G": 1.1, "z": 4.0}
