import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplip.errors import BadExponentError, DimMismatchError, DomainError, NonFiniteError
from oplip.norms import (
    _WEAK_BLOCK,
    SingularValueProfile,
    _sorted_weak_l1,
    matrix_trace_norm,
    matrix_weak_l1,
    mu_at,
    schatten_norm,
    singular_values,
    tensor_profile,
    weak_l1,
)


def test_singular_values_identity():
    p = singular_values(np.eye(3))
    np.testing.assert_allclose(p.values, [1.0, 1.0, 1.0])
    assert p.cell == 1.0


def test_singular_values_absolute():
    p = singular_values(np.diag([3.0, -1.0]))
    np.testing.assert_allclose(p.values, [3.0, 1.0])


def test_singular_values_antisymmetric():
    # X*X = 4I, so both singular values are 2
    p = singular_values(np.array([[0.0, 2.0], [-2.0, 0.0]]))
    np.testing.assert_allclose(p.values, [2.0, 2.0])


@pytest.mark.parametrize("shape", [(2, 2, 2), (3,), ()])
def test_singular_values_refuse_a_non_matrix(shape):
    # the SVD would batch over a leading axis and the profile flatten the batch
    for norm in (singular_values, matrix_trace_norm, matrix_weak_l1):
        with pytest.raises(DimMismatchError, match="expected a matrix"):
            norm(np.ones(shape))


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
    # any order and shape is stored flat and descending
    assert SingularValueProfile(np.array([1.0, 2.0])).values.tolist() == [2.0, 1.0]
    grid = SingularValueProfile(np.array([[0.5, 3.0], [2.0, 1.0]]))
    assert grid.values.tolist() == [3.0, 2.0, 1.0, 0.5]
    with pytest.raises(ValueError):
        SingularValueProfile(np.array([1.0, -0.5]))
    for cell in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            SingularValueProfile(np.array([1.0]), cell)


def test_profile_errors_are_typed():
    # unordered 2-d input is stored descending, not refused
    assert SingularValueProfile(np.array([[1.0], [3.0], [2.0]])).values.tolist() == [3.0, 2.0, 1.0]
    with pytest.raises(DomainError, match="cell"):
        SingularValueProfile(np.array([1.0]), 0.0)
    with pytest.raises(DomainError, match="scale"):
        SingularValueProfile([2.0, 1.0]).scaled(-1.0)
    for values in ([np.nan, 1.0], [1.0, np.nan], [np.nan]):
        with pytest.raises(DomainError, match="nonnegative"):
            SingularValueProfile(np.array(values))
    with pytest.raises(DomainError, match="nonnegative"):
        SingularValueProfile([1.0, np.nan])
    with pytest.raises(DomainError, match="t >= 0"):
        mu_at(SingularValueProfile([1.0]), np.nan)
    with pytest.raises(BadExponentError):
        schatten_norm(SingularValueProfile([1.0]), np.nan)
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        x = np.eye(3, dtype=complex)
        x[1, 2] = bad
        for norm in (singular_values, matrix_trace_norm, matrix_weak_l1):
            with pytest.raises(NonFiniteError):
                norm(x)


def test_mu_at_steps():
    p = SingularValueProfile([3.0, 1.0])
    assert mu_at(p, 0.5) == 3.0
    assert mu_at(p, 1.5) == 1.0
    assert mu_at(p, 2.5) == 0.0
    # right-continuity at the step boundary
    assert mu_at(p, 1.0) == 1.0
    assert mu_at(p, 0.0) == 3.0
    assert mu_at(p, np.inf) == 0.0
    with pytest.raises(DomainError, match="t >= 0"):
        mu_at(p, -0.1)
    half = SingularValueProfile([1.0, 3.0], 0.5)
    assert [mu_at(half, t) for t in (0.0, 0.25, 0.5, 0.75, 1.0)] == [3.0, 3.0, 1.0, 1.0, 0.0]


def test_schatten_norms():
    p = SingularValueProfile([3.0, 1.0])
    assert schatten_norm(p, 1) == 4.0
    assert schatten_norm(p, np.inf) == 3.0
    np.testing.assert_allclose(schatten_norm(SingularValueProfile([2.0, 2.0]), 2),
                               np.sqrt(8.0))
    with pytest.raises(BadExponentError):
        schatten_norm(p, 0.5)


@pytest.mark.parametrize("q", [1, 2, 2.5, 10])
@pytest.mark.parametrize("c", [1e-300, 1e-160, 1e-20, 1e20, 1e130, 1e300])
def test_schatten_norm_is_scale_safe(c, q):
    # s^q under- or overflows at these scales although the norm is in range
    p = SingularValueProfile([3.0, 1.0, 0.5, 0.0], 0.5)
    np.testing.assert_allclose(schatten_norm(p.scaled(c), q), c * schatten_norm(p, q),
                               rtol=1e-14)


def test_schatten_norm_past_the_float_range_reads_inf():
    assert schatten_norm(SingularValueProfile([1.5e308, 1.5e308]), 1) == np.inf
    assert schatten_norm(SingularValueProfile([1.5e308, 1.5e308]), 2.5) == np.inf
    assert schatten_norm(SingularValueProfile([0.0, 0.0]), 2.5) == 0.0


def test_weak_l1_examples():
    assert weak_l1(SingularValueProfile([3.0, 1.0, 0.5])) == 3.0
    assert weak_l1(singular_values(np.eye(2))) == 2.0


def test_weak_l1_weighted():
    # the cell scales the supremum, attained here at the second step
    p = SingularValueProfile(np.array([2.0, 1.5]), 0.5)
    assert weak_l1(p) == 0.5 * max(1 * 2.0, 2 * 1.5)
    assert schatten_norm(p, 1) == 0.5 * 3.5


def test_tensor_profile_example():
    p = tensor_profile(SingularValueProfile([2.0, 1.0], 0.5),
                       SingularValueProfile([3.0, 1.0], 0.25))
    np.testing.assert_allclose(p.values, [6.0, 3.0, 2.0, 1.0])
    assert p.cell == 0.125


def test_tensor_profile_unit():
    base = SingularValueProfile([2.0, 0.5])
    out = tensor_profile(base, SingularValueProfile([1.0]))
    np.testing.assert_allclose(out.values, base.values)
    assert out.cell == base.cell


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
    p = SingularValueProfile(np.array(vals))
    assert weak_l1(p) <= schatten_norm(p, 1) + 1e-9 * (1.0 + schatten_norm(p, 1))


@settings(max_examples=200, deadline=None)
@given(vals=profiles, c=st.floats(min_value=1e-3, max_value=1e3))
def test_weak_homogeneous(vals, c):
    p = SingularValueProfile(np.array(vals))
    np.testing.assert_allclose(weak_l1(p.scaled(c)), c * weak_l1(p),
                               rtol=1e-12, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(vals=profiles, data=st.data())
def test_profile_ignores_input_order_and_shape(vals, data):
    values = np.array(vals)
    shuffled = values[data.draw(st.permutations(range(values.size)))]
    rows = data.draw(st.sampled_from([r for r in range(1, values.size + 1)
                                      if values.size % r == 0]))
    cell = data.draw(st.floats(min_value=0.1, max_value=10.0))
    p = SingularValueProfile(shuffled.reshape(rows, -1), cell)
    ref = SingularValueProfile(np.sort(values)[::-1].copy(), cell)
    assert weak_l1(p) == weak_l1(ref)
    for q in (1, 2, np.inf):
        assert schatten_norm(p, q) == schatten_norm(ref, q)
    for t in np.linspace(0.0, (values.size + 1) * cell, 2 * values.size + 3):
        assert mu_at(p, t) == mu_at(ref, t)


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


def test_sorted_weak_l1_is_the_profile_weak_l1_bitwise():
    rng = np.random.default_rng(7)
    for size in (1, 2, 37, 128, 2 * _WEAK_BLOCK + 5):  # the last spans three blocks
        values = np.abs(rng.standard_normal(size))
        values[::5] = 0.0
        values[1::7] = values[0]  # ties
        cell = rng.uniform(0.01, 2.0)
        want = weak_l1(SingularValueProfile(values, cell))
        assert _sorted_weak_l1(values, cell) == want  # which overwrites values
    for bad in (np.array([1.0, -0.5]), np.array([np.nan, 1.0])):
        with pytest.raises(DomainError):
            _sorted_weak_l1(bad, 1.0)
