import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplip.errors import BadExponentError, DomainError
from oplip.norms import (
    SingularValueProfile,
    matrix_trace_norm,
    matrix_weak_l1,
    mu_at,
    profile_from_values,
    schatten_norm,
    singular_values,
    tensor_profile,
    weak_l1,
)


def test_singular_values_identity():
    p = singular_values(np.eye(3))
    np.testing.assert_allclose(p.values, [1.0, 1.0, 1.0])
    np.testing.assert_allclose(p.weights, [1.0, 1.0, 1.0])


def test_singular_values_absolute():
    p = singular_values(np.diag([3.0, -1.0]))
    np.testing.assert_allclose(p.values, [3.0, 1.0])


def test_singular_values_antisymmetric():
    # X*X = 4I, so both singular values are 2
    p = singular_values(np.array([[0.0, 2.0], [-2.0, 0.0]]))
    np.testing.assert_allclose(p.values, [2.0, 2.0])


def _normal_and_general_matrices():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    hermitian = (z + z.conj().T) / 2.0
    off = hermitian.copy()
    off[2, 5] = complex(np.nextafter(off[2, 5].real, np.inf), off[2, 5].imag)
    return {
        "hermitian": (hermitian, False),
        "skew-hermitian": ((z - z.conj().T) / 2.0, False),
        "real-symmetric": (z.real + z.real.T, False),
        "general": (z, True),
        "one-ulp-off-hermitian": (off, True),
    }


@pytest.mark.parametrize("kind", sorted(_normal_and_general_matrices()))
def test_singular_values_match_svd(kind, monkeypatch):
    # eigvalsh serves the exactly (skew-)Hermitian matrices, the SVD the rest;
    # both agree with LAPACK's SVD to 1e-13 of the largest singular value
    x, takes_svd = _normal_and_general_matrices()[kind]
    svd = np.linalg.svd
    ref = svd(x, compute_uv=False)
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    got = singular_values(x).values
    assert len(calls) == int(takes_svd)
    assert np.max(np.abs(got - ref)) <= 1e-13 * ref[0]


def test_profile_validation():
    with pytest.raises(ValueError):
        SingularValueProfile(np.array([1.0, 2.0]), np.array([1.0, 1.0]))  # ascending
    with pytest.raises(ValueError):
        SingularValueProfile(np.array([1.0, -0.5]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        SingularValueProfile(np.array([1.0]), np.array([0.0]))


def test_profile_errors_are_typed():
    with pytest.raises(DomainError, match="descending"):
        SingularValueProfile(np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError, match="scale"):
        profile_from_values([2.0, 1.0]).scaled(-1.0)


def test_mu_at_steps():
    p = profile_from_values([3.0, 1.0])
    assert mu_at(p, 0.5) == 3.0
    assert mu_at(p, 1.5) == 1.0
    assert mu_at(p, 2.5) == 0.0
    # right-continuity at the step boundary
    assert mu_at(p, 1.0) == 1.0
    assert mu_at(p, 0.0) == 3.0
    with pytest.raises(DomainError, match="t >= 0"):
        mu_at(p, -0.1)


def test_schatten_norms():
    p = profile_from_values([3.0, 1.0])
    assert schatten_norm(p, 1) == 4.0
    assert schatten_norm(p, np.inf) == 3.0
    np.testing.assert_allclose(schatten_norm(profile_from_values([2.0, 2.0]), 2),
                               np.sqrt(8.0))
    with pytest.raises(BadExponentError):
        schatten_norm(p, 0.5)


def test_weak_l1_examples():
    assert weak_l1(profile_from_values([3.0, 1.0, 0.5])) == 3.0
    assert weak_l1(singular_values(np.eye(2))) == 2.0


def test_weak_l1_weighted():
    # weights change the attained supremum
    p = SingularValueProfile(np.array([2.0, 1.0]), np.array([0.5, 5.0]))
    assert weak_l1(p) == max(0.5 * 2.0, 5.5 * 1.0)


def test_tensor_profile_example():
    p = tensor_profile(profile_from_values([2.0, 1.0]), profile_from_values([3.0, 1.0]))
    np.testing.assert_allclose(p.values, [6.0, 3.0, 2.0, 1.0])


def test_tensor_profile_unit():
    base = profile_from_values([2.0, 0.5])
    out = tensor_profile(base, profile_from_values([1.0]))
    np.testing.assert_allclose(out.values, base.values)
    np.testing.assert_allclose(out.weights, base.weights)


@pytest.mark.parametrize("seed", range(8))
def test_tensor_profile_matches_kronecker(seed):
    rng = np.random.default_rng(seed)
    n1, n2 = rng.integers(1, 7), rng.integers(1, 7)
    a = rng.standard_normal((n1, n1)) + 1j * rng.standard_normal((n1, n1))
    b = rng.standard_normal((n2, n2)) + 1j * rng.standard_normal((n2, n2))
    direct = tensor_profile(singular_values(a), singular_values(b))
    kron = singular_values(np.kron(a, b))
    np.testing.assert_allclose(direct.values, kron.values, atol=1e-10 * kron.values[0])


@pytest.mark.parametrize("seed", range(8))
def test_tensor_weak_bound(seed):
    rng = np.random.default_rng(100 + seed)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    lhs = weak_l1(tensor_profile(singular_values(a), singular_values(b)))
    assert lhs <= matrix_trace_norm(a) * matrix_weak_l1(b) + 1e-12


profiles = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=12
)


@settings(max_examples=200, deadline=None)
@given(vals=profiles)
def test_weak_dominated_by_trace(vals):
    p = profile_from_values(np.array(vals))
    assert weak_l1(p) <= schatten_norm(p, 1) + 1e-9 * (1.0 + schatten_norm(p, 1))


@settings(max_examples=200, deadline=None)
@given(vals=profiles, c=st.floats(min_value=1e-3, max_value=1e3))
def test_weak_homogeneous(vals, c):
    p = profile_from_values(np.array(vals))
    np.testing.assert_allclose(weak_l1(p.scaled(c)), c * weak_l1(p),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_quasi_triangle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    assert matrix_weak_l1(x + y) <= 2 * matrix_weak_l1(x) + 2 * matrix_weak_l1(y) + 1e-10


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       t=st.floats(min_value=0.0, max_value=8.0),
       s=st.floats(min_value=0.0, max_value=8.0))
def test_mu_subadditive(seed, t, s):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 7))
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    lhs = mu_at(singular_values(x + y), t + s)
    rhs = mu_at(singular_values(x), t) + mu_at(singular_values(y), s)
    assert lhs <= rhs + 1e-10
