import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplip import transference
from oplip.doi import divided_difference_symbol, doi_apply
from oplip.errors import AliasRiskError, DomainError
from oplip.functions import builtin_function
from oplip.norms import matrix_trace_norm, matrix_weak_l1
from oplip.spectral import CommutingTuple, JointSpectrum, planted_commuting_tuple
from oplip.torus import TWO_PI, HomogeneousSymbol, coefficients, frequency_index, signal_norms
from oplip.transference import (
    apply_S,
    build_embedding,
    contraction_check,
    discretization_report,
    integer_tuple,
    round_contraction,
    verify_conjugation,
)


def test_integer_tuple_gate():
    tup, _, _ = planted_commuting_tuple(5, 2, "integer:4", seed=1)
    it = integer_tuple(tup)
    assert it.table.dtype == np.int64
    assert np.max(np.abs(it.spectrum.eigenvalues - it.table)) <= 1e-9
    bad, _, _ = planted_commuting_tuple(5, 1, "uniform", seed=1)
    with pytest.raises(DomainError, match="deviate from integers"):
        integer_tuple(bad)


@pytest.mark.parametrize("d, radius", [(2, 30), (3, 10)])
def test_rounded_tables_match_per_row_dot(d, radius):
    # The rounded tables must equal the per-row np.dot forms bitwise: a row sum
    # (np.linalg.norm(x, axis=-1), x @ u) differs in the last bit and flips h.
    points = transference._box_points(radius, d).astype(float)
    u = np.full(d, 1.0 / np.sqrt(d))
    per_row = {
        "euclid-norm": lambda p: float(np.sqrt(np.dot(p, p))),
        "crease": lambda p: abs(float(np.dot(p, u)) - 0.5),
    }
    for name, f_row in per_row.items():
        f = builtin_function(name, d)
        for n in range(1, 9):
            want = [math.floor(0.5 * n * f_row(p / n)) for p in points]
            got = transference._integer_values(round_contraction(f, n), points)
            assert got.tolist() == want, (name, n)


def test_round_contraction_values():
    h = round_contraction(lambda lam: lam[..., 0], 4)
    # floor((4/2) * (i/4)) = floor(i/2)
    for i in range(-8, 9):
        assert h(np.array([i])) == i // 2
    assert h(np.array([3])) == 1 and h(np.array([1])) == 0
    const = round_contraction(lambda lam: 0.7, 5)
    assert const(np.array([-3])) == const(np.array([12])) == int(np.floor(2.5 * 0.7))


def test_contraction_check_identity_rounding():
    h = round_contraction(lambda lam: lam[..., 0], 4)
    report = contraction_check(h, 30, 1)
    assert report.ok
    assert report.margin <= 0.0


def test_contraction_check_detects_expansion():
    report = contraction_check(lambda iv: 2 * iv[..., 0], 10, 1)
    assert not report.ok
    # (0, 1) is a violating pair: |h(0)-h(1)| = 2 > 1
    assert report.margin > 0.0


def test_contraction_check_abs_rounding():
    h = round_contraction(lambda lam: np.abs(lam[..., 0]), 8)
    assert contraction_check(h, 30, 1).ok


def test_contraction_check_rejects_non_integer():
    with pytest.raises(ValueError):
        contraction_check(lambda iv: np.sqrt(np.sum(iv * iv, axis=-1)), 3, 2)


def test_contraction_check_domain_errors():
    with pytest.raises(DomainError):
        contraction_check(lambda iv: 0, 0, 2)
    with pytest.raises(DomainError):
        contraction_check(lambda iv: 0.5, 2, 1)
    with pytest.raises(DomainError, match="dimension"):
        contraction_check(lambda iv: 0, 2, 0)
    with pytest.raises(DomainError, match="SCAN_BUDGET"):
        contraction_check(round_contraction(builtin_function("euclid-norm", 3), 4), 30, 3)
    for n in (0, -2):
        with pytest.raises(DomainError):
            round_contraction(builtin_function("abs", 1), n)


def test_contraction_check_d3_margin_flag():
    h = round_contraction(builtin_function("euclid-norm", 3), 4)
    assert contraction_check(h, 3, 3, report_margin=False) == (True, None, -np.inf)
    full = contraction_check(h, 3, 3)
    assert full.ok and full.worst_pair is not None and full.margin <= 0.0


def _all_pairs_report(h, radius, d, report_margin):
    """Row-major loop over every ordered pair (a, b), a != b, of box points.

    The inner loop over b is one numpy row; the first strict maximum wins.
    """
    points = np.array(list(itertools.product(range(-radius, radius + 1), repeat=d)))
    values = np.array([int(h(p)) for p in points])
    ok, worst, pair = True, -np.inf, None
    for a in range(len(points)):
        dv = values - values[a]
        dist2 = np.sum((points - points[a]) ** 2, axis=-1)
        ok = ok and bool(np.all(dv * dv <= dist2))
        margin = np.abs(dv) - np.sqrt(dist2.astype(float))
        margin[a] = -np.inf
        b = int(np.argmax(margin))
        if margin[b] > worst:
            worst, pair = float(margin[b]), (points[a], points[b])
    if ok and not report_margin:
        return True, None, -np.inf
    return ok, pair, worst


def _assert_matches_all_pairs(h, radius, d, report_margin):
    ok, pair, margin = contraction_check(h, radius, d, report_margin=report_margin)
    want_ok, want_pair, want_margin = _all_pairs_report(h, radius, d, report_margin)
    assert ok == want_ok and margin == want_margin
    if want_pair is None:
        assert pair is None
    else:
        assert [p.tolist() for p in pair] == [p.tolist() for p in want_pair]


@pytest.mark.parametrize("d, radius", [(1, 6), (2, 4), (3, 2)])
@pytest.mark.parametrize("report_margin", [True, False])
@pytest.mark.parametrize("h", [
    lambda iv: 2 * iv[..., 0],  # violates at every unit step along axis 1
    lambda iv: np.where(iv[..., 0] >= 1, 6, 0),  # violates only across one plane
    round_contraction(builtin_function("euclid-norm", 2), 3),  # any d: a row norm
    lambda iv: np.zeros(iv.shape[:-1]),  # span 0: the margin comes from unit steps
    lambda iv: np.clip(iv[..., 0] + iv[..., -1], 0, 2),  # d >= 2: violates off-axis only
])
def test_contraction_check_matches_all_pairs_loop_in_every_d(h, report_margin, d, radius):
    _assert_matches_all_pairs(h, radius, d, report_margin)


def _budget_radius(budget, d):
    """The largest box radius whose pair count P(P - 1)/2 fits in ``budget``."""
    radius = 1
    while (p := (2 * radius + 3) ** d) * (p - 1) // 2 <= budget:
        radius += 1
    return radius


@pytest.mark.parametrize("budget", [1 << 17, 200])
@pytest.mark.parametrize("report_margin", [True, False])
@pytest.mark.parametrize("h", [
    lambda iv: 2 * iv[..., 0],  # violates at every unit step along axis 1
    lambda iv: np.where(iv[..., 0] >= 1, 6, 0),  # violates only across one plane
    round_contraction(builtin_function("euclid-norm", 2), 3),
])
def test_contraction_check_matches_all_pairs_loop(h, report_margin, budget, monkeypatch):
    # d=2 boxes up to SCAN_BUDGET pairs are scanned whole; one radius more is refused
    monkeypatch.setattr(transference, "SCAN_BUDGET", budget)
    radius = _budget_radius(budget, 2)
    _assert_matches_all_pairs(h, radius, 2, report_margin)
    with pytest.raises(DomainError, match="SCAN_BUDGET"):
        contraction_check(h, radius + 1, 2, report_margin=report_margin)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), radius=st.integers(1, 3),
       top=st.integers(0, 6), report_margin=st.booleans())
def test_contraction_check_matches_all_pairs_on_lookup_tables(data, d, radius, top,
                                                              report_margin):
    side = 2 * radius + 1
    table = np.array(data.draw(st.lists(st.integers(0, top), min_size=side**d,
                                        max_size=side**d))).reshape((side,) * d)

    def h(iv):
        return table[tuple(np.moveaxis(iv.astype(int) + radius, -1, 0))]

    _assert_matches_all_pairs(h, radius, d, report_margin)


def test_contraction_check_memory_bounded():
    h = round_contraction(builtin_function("euclid-norm", 2), 4)
    tracemalloc.start()
    try:
        report = contraction_check(h, 30, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 32 * 2**20  # dense P x P int64 matrices would need 110 MB each


def test_contraction_check_d3_memory_bounded():
    h = round_contraction(builtin_function("euclid-norm", 3), 4)
    tracemalloc.start()
    try:
        report = contraction_check(h, 10, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.margin == 0.0
    assert peak < 16 * 2**20


def _integer_instance(n=4, d=1, seed=7, law="integer:3"):
    tup, _, _ = planted_commuting_tuple(n, d, law, seed=seed)
    it = integer_tuple(tup)
    rng = np.random.default_rng(seed + 1)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return it, v


def test_build_embedding_identity_fiber():
    it, _ = _integer_instance()
    h = lambda iv: iv[..., 0]
    w = build_embedding(it, h, np.eye(it.dim), 16)
    # I(identity) is the identity fiber at every grid point
    for index in np.ndindex(*(w.samples.shape[:-2])):
        np.testing.assert_allclose(w.samples[index], np.eye(it.dim), atol=1e-10)


def test_build_embedding_profile_replication():
    it, v = _integer_instance(n=3, seed=11)
    h = lambda iv: np.abs(iv[..., 0])
    w = build_embedding(it, h, v, 16)
    svals = np.linalg.svd(v, compute_uv=False)
    for index in [(0, 0), (3, 7), (15, 1)]:
        got = np.linalg.svd(w.samples[index], compute_uv=False)
        np.testing.assert_allclose(got, svals, atol=1e-10)


def test_build_embedding_single_offdiagonal_term():
    tup = CommutingTuple([np.diag([0.0, 1.0])])
    it = integer_tuple(tup)
    v = np.array([[0.0, 1.0], [0.0, 0.0]])
    w = build_embedding(it, lambda iv: iv[..., 0], v, 8)
    c = coefficients(w)
    expect = np.zeros((8, 8, 2, 2), dtype=complex)
    expect[frequency_index([-1, -1], 8)] = v
    np.testing.assert_allclose(c, expect, atol=1e-12)


def test_build_embedding_rejects_non_integer_h():
    it, v = _integer_instance()
    with pytest.raises(DomainError):
        build_embedding(it, lambda iv: 0.5 * iv[..., 0], v, 16)


def test_build_embedding_alias_guard():
    it, v = _integer_instance(n=4, d=1, law="integer:5")
    h = lambda iv: iv[..., 0]
    with pytest.raises(AliasRiskError):
        build_embedding(it, h, v, 8)


def test_build_embedding_isometry():
    it, v = _integer_instance(n=4, d=1, seed=19)
    h = round_contraction(builtin_function("euclid-norm", 1), 4)
    w = build_embedding(it, h, v, 16)
    l1, _, weak = signal_norms(w)
    factor = TWO_PI ** (it.d + 1)
    np.testing.assert_allclose(l1, factor * matrix_trace_norm(v), rtol=1e-10)
    np.testing.assert_allclose(weak, factor * matrix_weak_l1(v), rtol=1e-10)


def test_apply_S_kills_diagonal_fibers():
    it, _ = _integer_instance(n=4, seed=23)
    g = HomogeneousSymbol(d=1, k0=1)
    # a signal whose fibers are functions of the tuple: diagonal in the joint basis
    u = it.spectrum.basis
    fiber = (u * np.arange(1.0, 5.0)) @ u.conj().T
    w = build_embedding(it, lambda iv: iv[..., 0], np.eye(4), 16)
    w.samples[...] = fiber
    out = apply_S(it, g, w)
    assert np.linalg.norm(out.samples) <= 1e-10 * np.linalg.norm(w.samples)


def test_apply_S_linear():
    it, v = _integer_instance(n=3, seed=29)
    g = HomogeneousSymbol(d=1, k0=1)
    h = lambda iv: np.abs(iv[..., 0])
    w1 = build_embedding(it, h, v, 16)
    w2 = build_embedding(it, h, v @ v, 16)
    lhs = apply_S(it, g, type(w1)(1.5 * w1.samples - 2j * w2.samples))
    rhs = 1.5 * apply_S(it, g, w1).samples - 2j * apply_S(it, g, w2).samples
    assert np.linalg.norm(lhs.samples - rhs) <= 1e-12 * (1 + np.linalg.norm(rhs))


def test_apply_S_matches_multiplied_embedding():
    # S(I(V)) computed on the grid equals the multiplied single term:
    # for V = p_0 V p_1 only the frequency (i - j, h(i) - h(j)) survives
    tup = CommutingTuple([np.diag([0.0, 1.0])])
    it = integer_tuple(tup)
    v = np.array([[0.0, 1.0], [0.0, 0.0]])
    h = lambda iv: iv[..., 0]
    g = HomogeneousSymbol(d=1, k0=1)
    w = build_embedding(it, h, v, 8)
    out = apply_S(it, g, w)
    # g(-1, -1) = 1, so S(I(V)) = I(V) with the diagonal (zero here) removed
    np.testing.assert_allclose(out.samples, w.samples, atol=1e-10)


def test_verify_conjugation_diagonal_v():
    it, _ = _integer_instance(n=4, seed=31)
    u = it.spectrum.basis
    v = (u * np.arange(1.0, 5.0)) @ u.conj().T
    res = verify_conjugation(it, lambda iv: iv[..., 0], v, 32)
    assert res <= 1e-12


def test_verify_conjugation_abs_d1():
    tup = CommutingTuple([np.diag([-1.0, 2.0])])
    it = integer_tuple(tup)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    res = verify_conjugation(it, lambda iv: np.abs(iv[..., 0]), v, 32)
    assert res <= 1e-9


def test_verify_conjugation_d2_maxabs():
    tup, _, _ = planted_commuting_tuple(6, 2, "integer:3", seed=37)
    it = integer_tuple(tup)
    rng = np.random.default_rng(6)
    v = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = lambda iv: np.max(np.abs(iv), axis=-1)
    for k0 in (1, 2):
        assert verify_conjugation(it, h, v, 32, k0=k0) <= 1e-9


# several eigenvalue groups, with colliding frequencies: the d = 1 instance
# (table [-3, -2, -1, 0, 1]) puts 25 group pairs on 15 frequencies, the d = 2
# one 25 group pairs on 21
_ABS = lambda iv: np.abs(iv[..., 0])
_MAX_ABS = lambda iv: np.max(np.abs(iv), axis=-1)
_COLLIDING = {"d1-abs": (5, 1, 55, _ABS), "d2-maxabs": (6, 2, 37, _MAX_ABS)}


@pytest.mark.parametrize("name, k0", [("d1-abs", 1), ("d2-maxabs", 1), ("d2-maxabs", 2)])
def test_verify_conjugation_matches_grid_route(name, k0):
    # the coefficient-space residual agrees with a literal grid computation
    n, d, seed, h = _COLLIDING[name]
    it, v = _integer_instance(n, d, seed)
    res = verify_conjugation(it, h, v, 16, k0=k0)

    g = HomogeneousSymbol(d=d, k0=k0)
    left = apply_S(it, g, build_embedding(it, h, v, 16))
    js_int = JointSpectrum(it.spectrum.basis, it.table.astype(float),
                           it.spectrum.provenance)
    tv = doi_apply(js_int, divided_difference_symbol(h, k0, d), v)
    assert np.linalg.norm(tv) > 0.1 * np.linalg.norm(v)  # T(V) = 0 would compare 0 with 0
    right = build_embedding(it, h, tv, 16)
    cell = (TWO_PI / 16) ** (d + 1)
    grid_res = np.sqrt(cell) * np.linalg.norm(left.samples - right.samples)
    grid_den = 1.0 + np.sqrt(cell) * np.linalg.norm(right.samples)
    np.testing.assert_allclose(res, grid_res / grid_den, atol=1e-12)


@pytest.mark.parametrize("name", _COLLIDING)
def test_build_embedding_matches_definition(name):
    # I(V)(t) = U_h(t) V U_h(t)^*, U_h(t) = U diag(e^{i <(lambda_i, h(lambda_i)), t>}) U^*,
    # at every point t = 2 pi m / N of the grid
    n, d, seed, h = _COLLIDING[name]
    it, v = _integer_instance(n, d, seed)
    w = build_embedding(it, h, v, 16)
    rows = np.column_stack([it.table, h(it.table.astype(float))])
    mesh = np.meshgrid(*[np.arange(16)] * (d + 1), indexing="ij")
    t = TWO_PI / 16 * np.stack(mesh, axis=-1)
    u = it.spectrum.basis
    u_t = np.einsum("ak,...k,bk->...ab", u, np.exp(1j * t @ rows.T), u.conj())
    expect = u_t @ v @ np.conj(np.swapaxes(u_t, -1, -2))
    np.testing.assert_allclose(w.samples, expect, atol=1e-10)


def test_verify_conjugation_rejects_expansion():
    it, v = _integer_instance(n=4, seed=43)
    from oplip.errors import GuardViolationError

    with pytest.raises(GuardViolationError):
        verify_conjugation(it, lambda iv: 3 * iv[..., 0], v, 64)


def test_discretization_report_converges():
    tup, _, _ = planted_commuting_tuple(6, 2, "uniform", seed=47)
    from oplip.spectral import joint_diagonalize

    js = joint_diagonalize(tup)
    f = builtin_function("euclid-norm", 2)
    sups = []
    for n in (4, 16, 64, 256):
        rep = discretization_report(js, f, n)
        assert rep.identity_residual <= 1e-12
        sups.append(rep.symbol_sup_difference)
    # xi_n approaches half the divided difference as the grid refines
    assert sups[-1] <= 0.25 * sups[0] + 1e-12
    assert sups[-1] <= 0.05
