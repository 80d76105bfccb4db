import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson

from lifshitz_fidelity import QuadratureSpec, kernels


def test_simpson_integrates_sine():
    x = np.linspace(0.0, np.pi, 2049)
    val = kernels.simpson(np.sin(x), x[1] - x[0])
    assert val == pytest.approx(2.0, rel=1e-10)


def test_simpson_matches_scipy():
    x = np.linspace(0.0, 3.0, 513)
    y = np.exp(-(x**2))
    assert kernels.simpson(y, x[1] - x[0]) == pytest.approx(
        scipy_simpson(y, x=x), rel=1e-12
    )


def test_refined_simpson_richardson_improves_estimate():
    def make(n):
        x = np.linspace(0.0, 1.0, n)
        return x**6, x

    value, err = kernels.refined_simpson(make, QuadratureSpec(panels=64, levels=2))
    assert value == pytest.approx(1.0 / 7.0, rel=1e-12)
    assert err >= 0.0


@pytest.mark.parametrize("levels", [1, 2, 3])
def test_refined_simpson_evaluates_one_grid(levels):
    panels = 64
    calls = []

    def make(n):
        calls.append(n)
        x = np.linspace(0.0, 1.0, n)
        return np.exp(x), x

    value, _ = kernels.refined_simpson(make, QuadratureSpec(panels=panels, levels=levels))
    assert calls == [2 * panels * 2 ** (levels - 1) + 1]
    assert value == pytest.approx(np.e - 1.0, rel=1e-8)
