"""Built-in Lipschitz functions R^d -> R, each with its exact Lipschitz constant.

Functions take a float table (..., d) of points and return their values (...)
in one call.  Coordinate indices are 1-based throughout the package.  Names
double as CLI identifiers:

    identity          first coordinate (the identity map for d = 1)
    abs               absolute value of the first coordinate
    euclid-norm       Euclidean norm of the vector
    max-abs           largest coordinate magnitude
    max-abs-scaled    largest coordinate magnitude divided by sqrt(d)
    coordinate:k      k-th coordinate
    crease            distance to the hyperplane <x, 1/sqrt(d)> = 1/2
    poly:c0,c1,...    polynomial in the first coordinate (no exact constant)
"""

import numpy as np

from .errors import DomainError
from .rng import generator
from .spectral import evaluate_rows


class BuiltinFunction:
    """A named function together with its exact Lipschitz constant (or None)."""

    def __init__(self, name, func, lipschitz):
        self.name = name
        self.func = func
        self.lipschitz = lipschitz  # None when no exact constant is known

    def __call__(self, lam):
        return self.func(np.asarray(lam, dtype=float))


def _coordinate(k):
    return lambda lam: lam[..., k - 1]


def _dot(x, y):
    # Stacked matmul: bitwise np.dot per row (a row sum is not, and flips rounded h).
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def builtin_function(name: str, d: int) -> BuiltinFunction:
    """Resolve a CLI function name for dimension d."""
    if name == "identity":
        return BuiltinFunction(name, _coordinate(1), 1.0)
    if name == "abs":
        return BuiltinFunction(name, lambda lam: np.abs(lam[..., 0]), 1.0)
    if name == "euclid-norm":
        return BuiltinFunction(name, lambda lam: np.sqrt(_dot(lam, lam)), 1.0)
    if name == "max-abs":
        return BuiltinFunction(name, lambda lam: np.max(np.abs(lam), axis=-1), 1.0)
    if name == "max-abs-scaled":
        root = float(np.sqrt(d))
        return BuiltinFunction(
            name, lambda lam: np.max(np.abs(lam), axis=-1) / root, 1.0 / root
        )
    if name.startswith("coordinate:"):
        k = name.split(":", 1)[1]
        if not (k.isdecimal() and 1 <= int(k) <= d):
            raise DomainError(f"coordinate index {k} outside 1..{d}")
        return BuiltinFunction(name, _coordinate(int(k)), 1.0)
    if name == "crease":
        u = np.full(d, 1.0 / np.sqrt(d))
        return BuiltinFunction(name, lambda lam: np.abs(_dot(lam, u) - 0.5), 1.0)
    if name.startswith("poly:"):
        try:
            coeffs = [float(c) for c in name.split(":", 1)[1].split(",")]
        except ValueError:
            raise DomainError(f"bad polynomial coefficients in {name!r}") from None
        poly = np.polynomial.Polynomial(coeffs)

        def f(lam):  # evaluate_rows turns an overflow into NonFiniteError; numpy need not warn
            with np.errstate(all="ignore"):
                return poly(lam[..., 0])
        return BuiltinFunction(name, f, None)
    raise DomainError(f"unknown function name {name!r}")


def contraction_names(d: int):
    """Built-in Euclidean contractions (Lipschitz constant <= 1) for dimension d."""
    names = ["identity", "abs", "euclid-norm", "max-abs", "max-abs-scaled", "crease"]
    names += [f"coordinate:{k}" for k in range(2, d + 1)]
    return names


# The ratio experiments sweep exactly the built-in contractions.
experiment_function_names = contraction_names


def lipschitz_lower_bound(f, d, box=1.0, samples=2000, seed=0):
    """Sampled finite-difference LOWER bound on the Lipschitz constant.

    This is a lower estimate only: no finite sample certifies a supremum.
    """
    rng = generator(seed, 0xE57)
    a = rng.uniform(-box, box, size=(samples, d))
    b = a + rng.uniform(-box, box, size=(samples, d)) * rng.uniform(
        1e-6, 1.0, size=(samples, 1)
    )
    dist = np.linalg.norm(a - b, axis=1)
    rise = np.abs(evaluate_rows(f, a) - evaluate_rows(f, b))
    return float(np.max(rise[dist > 0.0] / dist[dist > 0.0], initial=0.0))
