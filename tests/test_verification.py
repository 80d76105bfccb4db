import copy
import math

import numpy as np
import pytest

from lifshitz_fidelity import (
    BosonGasParams,
    DomainError,
    QuadratureSpec,
    boundary,
    geometry,
    kernels,
    verification,
    volume,
)
from lifshitz_fidelity.cli import main as cli_main
from lifshitz_fidelity.verification import SEED, _bulk, _random_bulks

#: The (seed, lows, highs, draws) of one-call draws of BosonGasParams inputs:
#: a (q, H, beta) draw and overlap-oracle-equivalence's (q, H, beta, dH / H).
#: Each must equal the scalar draws it replaced.
BOUNDARY_DRAWS = [
    (SEED, (0.1, 0.1, -5), (10, 10, 5), 10),
    (SEED + 1, (0.1, 0.1, -5, -0.5), (10, 10, 5, 0.5), 40),
]


def _bits(values):
    return [float(v).hex() for v in values]


def _param_bits(p):
    return _bits(v for v in vars(p).values() if isinstance(v, float))


@pytest.mark.parametrize("seed,lows,highs,n", BOUNDARY_DRAWS)
def test_one_call_draws_are_the_scalar_draws(seed, lows, highs, n):
    # Generator.uniform forms low + (high - low) u element by element in C
    # order, so one (n x k) call gives the values, and leaves the state, of
    # n rounds of k scalar calls
    block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = block.uniform(lows, highs, (n, len(lows))).tolist()
    want = [[scalar.uniform(lo, hi) for lo, hi in zip(lows, highs)] for _ in range(n)]
    assert [_bits(row) for row in drawn] == [_bits(row) for row in want]
    assert block.uniform() == scalar.uniform()


@pytest.mark.parametrize("seed,n", [(SEED + 2, 200), (SEED + 3, 50), (SEED + 4, 1)])
def test_random_bulks_are_the_scalar_draws(seed, n):
    # horizon-root's parameter sets, a smaller block, and one draw of
    # _random_bulk's rejection loop
    block, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = _random_bulks(block, n)
    want = [_bulk(lambda_eff=-scalar.uniform(0.5, 10.0), rp=scalar.uniform(0.3, 3.0),
                  V0=scalar.uniform(-3.0, 3.0), L=scalar.uniform(0.5, 2.0)) for _ in range(n)]
    assert [_param_bits(p) for p in drawn] == [_param_bits(p) for p in want]
    assert block.uniform() == scalar.uniform()


def _overlap_check_draws():
    rng = np.random.default_rng(SEED + 1)
    draws = rng.uniform((0.1, 0.1, -5, -0.5), (10, 10, 5, 0.5), (40, 4)).tolist()
    return ([BosonGasParams(q=q, H=H, beta=beta) for q, H, beta, _ in draws],
            [u * H for _, H, _, u in draws])


def test_overlap_block_has_the_bits_of_one_point_overlaps():
    points, dHs = _overlap_check_draws()
    block = boundary.overlap_quadrature_block(points, dHs)
    assert block.shape == (40,)
    assert _bits(block) == _bits(boundary.overlap_quadrature(p, dH) for p, dH in zip(points, dHs))


def test_overlap_block_refines_every_point_together(monkeypatch):
    # at halfwidth 40 the first grid's step is about 0.31 sigma: dH = 0.3
    # needs a second grid and dH = 0.01 does not. In a block both take it,
    # and each has the bits of a one-point call whose first grid is that one
    spec = QuadratureSpec(halfwidth=40.0)
    finer = QuadratureSpec(panels=2 * spec.panels, halfwidth=40.0)
    p = BosonGasParams()
    sizes = []
    trapezoid = kernels.trapezoid
    monkeypatch.setattr(kernels, "trapezoid", lambda n: sizes.append(n) or trapezoid(n))
    boundary.overlap_quadrature(p, 0.3, spec)
    assert sizes == [257, 257, 513, 513]  # make_terms and the coarse weights, per grid
    sizes.clear()
    alone = boundary.overlap_quadrature(p, 0.01, spec)
    assert sizes == [257, 257]
    block = boundary.overlap_quadrature_block([p, p], [0.3, 0.01], spec)
    assert _bits(block) == _bits([boundary.overlap_quadrature(p, 0.3, finer),
                                  boundary.overlap_quadrature(p, 0.01, finer)])
    assert block[1] == pytest.approx(alone, rel=1e-10)
    both_alone = boundary.overlap_quadrature_block([p, p], [0.01, 0.01], spec)
    assert _bits(both_alone) == _bits([alone] * 2)


def test_overlap_block_judges_each_point_by_its_own_dH():
    # the overflow guard bounds 2 (1 + |s|) T (T + 2 |gamma|) at each point's
    # own s: at gamma = 4e306 and T = 10 it reads 1.6e308 alone, and would
    # overflow at the other point's 1 + s = 1.5
    tiny_s, wide_s = BosonGasParams(beta=4e306), BosonGasParams()
    block = boundary.overlap_quadrature_block([tiny_s, wide_s], [1e-310, 0.5])
    assert _bits(block) == _bits([boundary.overlap_quadrature(tiny_s, 1e-310),
                                  boundary.overlap_quadrature(wide_s, 0.5)])


def test_overlap_block_rejects_a_dH_below_minus_H():
    p = BosonGasParams()
    with pytest.raises(DomainError, match="dH=-2.0"):
        boundary.overlap_quadrature_block([p, p], [0.1, -2.0])


def test_run_all_makes_24_quadratures(monkeypatch):
    # the overlap check is one quadrature for its 40 draws and the fit check
    # one for its three points
    calls = []
    quadrature = kernels.nested_quadrature
    monkeypatch.setattr(kernels, "nested_quadrature", lambda *a: calls.append(1) or quadrature(*a))
    results = verification.run_all()
    assert all(r.passed for r in results)
    assert len(calls) == 24


def _with_nan(value, field):
    """value with one NaN: in field of a dataclass (a copy, past its
    validation), of the last fit of a block, or in a float, or in the last
    element of a tuple or array."""
    if isinstance(value, list):
        return value[:-1] + [_with_nan(value[-1], field)]
    if field is not None:
        value = copy.copy(value)
        object.__setattr__(value, field, _with_nan(getattr(value, field), None))
        return value
    if isinstance(value, tuple):
        return value[:-1] + (math.nan,)
    if isinstance(value, np.ndarray):
        return np.append(value[:-1], math.nan)
    return math.nan


#: (check, module, function, field): the function returns a NaN in field of its
#: result, or in its float or last element. flag-determinism compares flags only.
NAN_SOURCES = [
    ("overlap-oracle-equivalence", boundary, "overlap_quadrature_block", None),
    ("overlap-oracle-equivalence", boundary, "gaussian_overlap", None),
    ("fit-closed-form", boundary, "xi_f_analytic", None),
    ("fit-closed-form", boundary, "xi_f_from_fit_block", "c_sq"),
    ("beta-energy-cancellation", boundary, "oscillator_spectrum_oracle", None),
    ("horizon-root", geometry, "blackening", None),
    ("volume-change-of-variables", volume, "volume_w_form", "value"),
    ("series-convergence-order", volume, "volume_series_z4", "value"),
    ("divergence-universality", volume, "fit_divergence_coefficient", None),
    ("regularization-cauchy", volume, "subtracted_susceptibility", "values"),
    ("volume-positivity", volume, "volume_exact", "value"),
]


@pytest.mark.parametrize("check,module,name,field", NAN_SOURCES)
def test_a_nan_fails_its_check(check, module, name, field, monkeypatch):
    # a float result is NaN from the second call on, so that a worst case
    # started from the first value must carry the NaN; any other result
    # carries one on every call
    true_fn, calls = getattr(module, name), []

    def poisoned(*args, **kwargs):
        value = true_fn(*args, **kwargs)
        calls.append(1)
        return value if isinstance(value, float) and len(calls) == 1 else _with_nan(value, field)

    monkeypatch.setattr(module, name, poisoned)
    results = {r.name: r for r in verification.run_all()}
    assert len(results) == 10 and calls
    assert not results[check].passed, results[check].detail


@pytest.mark.parametrize("error", [
    np.linalg.LinAlgError("SVD did not converge in Linear Least Squares"),
    ZeroDivisionError("float division by zero"),
    OverflowError("math range error"),
])
def test_a_raising_check_fails_alone(error, monkeypatch, tmp_path, capsys):
    def check_series_convergence_order():
        raise error

    checks = tuple(check_series_convergence_order if c.__name__ == "check_series_convergence_order"
                   else c for c in verification.ALL_CHECKS)
    monkeypatch.setattr(verification, "ALL_CHECKS", checks)
    assert cli_main(["verify", "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    failed = [line.split() for line in out.splitlines() if line.startswith("FAIL")]
    assert failed == [["FAIL", "series-convergence-order", "raised", f"{type(error).__name__}:",
                       *str(error).split()]]
    assert out.count("PASS  ") == 9 and "9/10 invariant checks passed" in out


def test_an_error_outside_the_numerical_ones_escapes(monkeypatch):
    # a programming error is not a failed check
    def check_flag_determinism():
        raise TypeError("not a numerical failure")

    monkeypatch.setattr(verification, "ALL_CHECKS", (check_flag_determinism,))
    with pytest.raises(TypeError):
        verification.run_all()
