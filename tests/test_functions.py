import numpy as np
import pytest

from oplip.errors import DomainError
from oplip.functions import (
    builtin_function,
    contraction_names,
    experiment_function_names,
)
from oplip.rng import generator
from oplip.spectral import evaluate_rows


def lipschitz_lower_bound(f, d, box=1.0, samples=2000, seed=0):
    """Sampled finite-difference lower bound on the Lipschitz constant of f."""
    rng = generator(seed, 0xE57)
    a = rng.uniform(-box, box, size=(samples, d))
    b = a + rng.uniform(-box, box, size=(samples, d)) * rng.uniform(
        1e-6, 1.0, size=(samples, 1)
    )
    dist = np.linalg.norm(a - b, axis=1)
    rise = np.abs(evaluate_rows(f, a) - evaluate_rows(f, b))
    return float(np.max(rise[dist > 0.0] / dist[dist > 0.0], initial=0.0))


def test_builtin_values():
    lam = np.array([3.0, -4.0])
    assert builtin_function("identity", 2)(lam) == 3.0
    assert builtin_function("abs", 2)(lam) == 3.0
    assert builtin_function("euclid-norm", 2)(lam) == 5.0
    assert builtin_function("max-abs", 2)(lam) == 4.0
    np.testing.assert_allclose(builtin_function("max-abs-scaled", 2)(lam),
                               4.0 / np.sqrt(2.0))
    assert builtin_function("coordinate:2", 2)(lam) == -4.0
    np.testing.assert_allclose(builtin_function("crease", 2)(lam),
                               abs((3.0 - 4.0) / np.sqrt(2.0) - 0.5))
    np.testing.assert_allclose(builtin_function("poly:1,0,2", 1)(np.array([3.0])),
                               1.0 + 2.0 * 9.0)


def test_builtin_errors():
    for name in ("coordinate:3", "coordinate:0", "coordinate:x", "nope"):
        with pytest.raises(DomainError):
            builtin_function(name, 2)


def test_poly_rejects_malformed_coefficients():
    for name in ("poly:x", "poly:1,,2", "poly:"):
        with pytest.raises(DomainError):
            builtin_function(name, 1)


def test_exact_lipschitz_constants_not_exceeded():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        for name in experiment_function_names(d):
            f = builtin_function(name, d)
            pts = rng.uniform(-5, 5, size=(60, d))
            for a in pts[:30]:
                for b in pts[30:]:
                    dist = np.linalg.norm(a - b)
                    if dist == 0:
                        continue
                    assert abs(f(a) - f(b)) <= f.lipschitz * dist * (1 + 1e-12)


def test_lipschitz_constants_are_attained():
    # the sampled lower bound approaches the exact constant (never exceeds it)
    for d in (1, 2):
        for name in experiment_function_names(d):
            f = builtin_function(name, d)
            low = lipschitz_lower_bound(f, d, box=2.0, samples=4000, seed=1)
            assert low <= f.lipschitz * (1 + 1e-9)
            assert low >= 0.5 * f.lipschitz  # sanity: the bound is informative


def test_contraction_names_are_contractions():
    for d in (1, 2):
        for name in contraction_names(d):
            assert builtin_function(name, d).lipschitz <= 1.0 + 1e-15


def test_poly_has_no_exact_constant():
    assert builtin_function("poly:0,1", 1).lipschitz is None
