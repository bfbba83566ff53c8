import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oplip import spectral, transference
from oplip.doi import divided_difference_symbol, doi_apply
from oplip.errors import AliasRiskError, DomainError
from oplip.functions import builtin_function
from oplip.norms import matrix_trace_norm, matrix_weak_l1
from oplip.spectral import CommutingTuple, JointSpectrum, planted_commuting_tuple
from oplip.torus import (
    TWO_PI,
    HomogeneousSymbol,
    coefficients,
    fourier_multiplier_apply,
    frequency_index,
    signal_norms,
)
from oplip.transference import (
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


def _lookup(table, radius):
    """h(i) = table[i + radius] on the radius box."""
    return lambda iv: table[tuple(np.moveaxis(iv.astype(int) + radius, -1, 0))]


@pytest.mark.parametrize("report_margin", [True, False])
@pytest.mark.parametrize("d, radius", [(1, 6), (2, 3)])
@pytest.mark.parametrize("span, offset", [(127, 0), (128, 0), (32767, 0), (32768, 0),
                                          (32768, -2**40)])
def test_contraction_check_at_the_difference_dtype_boundaries(span, offset, d, radius,
                                                              report_margin):
    # spans at the edges of int8 and int16: the first two grid values are span
    # and 0, so a unit step jumps by the whole span
    side = 2 * radius + 1
    table = np.random.default_rng(span).integers(0, span + 1, (side,) * d)
    table.flat[:2] = span, 0
    _assert_matches_all_pairs(_lookup(table + offset, radius), radius, d, report_margin)


@pytest.mark.parametrize("report_margin", [True, False])
@pytest.mark.parametrize("span", [2**31, 2**32, 2**40, 2**62 - 512, 2**63 - 1024])
def test_contraction_check_verdict_is_exact_at_large_spans(span, report_margin):
    # a square of the jump would wrap in int64 from 2^31.5 on; the verdict must not
    lo = -(span // 2)
    h = lambda iv: np.where(iv[..., 0] > 0, float(lo + span), float(lo))
    ok, pair, margin = contraction_check(h, 2, 1, report_margin=report_margin)
    assert not ok and margin == float(span) - 1.0
    # past 2^53 the margins of all four deltas round to one float, and the
    # row-major first of the tied pairs is reported
    assert [p.tolist() for p in pair] == ([[0], [1]] if span < 2**53 else [[-2], [1]])


@pytest.mark.parametrize("report_margin", [True, False])
@pytest.mark.parametrize("top", [2.0**62, -2.0**62, 2.0**70, 1e300])
def test_contraction_check_refuses_values_past_int64_headroom(top, report_margin):
    h = lambda iv: np.where(iv[..., 0] > 0, top, 0.0)
    with pytest.raises(DomainError, match="2\\^62"):
        contraction_check(h, 2, 1, report_margin=report_margin)


@pytest.mark.parametrize("report_margin", [True, False])
def test_contraction_check_falls_back_when_the_king_certificate_fails(report_margin):
    # d = 4: h(0) = 0 and h(1,1,1,1) = 2 jump by 2 over one king step, yet
    # |(1,1,1,1)| = 2, so h is a contraction the full scan has to confirm
    table = np.ones((3,) * 4, dtype=np.int64)
    table[1, 1, 1, 1], table[2, 2, 2, 2] = 0, 2
    h = _lookup(table, 1)
    _assert_matches_all_pairs(h, 1, 4, report_margin)
    ok, pair, margin = contraction_check(h, 1, 4, report_margin=report_margin)
    if report_margin:
        assert ok and margin == 0.0
        assert [p.tolist() for p in pair] == [[-1, 0, 0, 0], [0, 0, 0, 0]]
    else:
        assert (ok, pair, margin) == (True, None, -np.inf)


_RADII = {1: 6, 2: 3, 3: 2, 4: 1}  # small boxes: the all-pairs loop is the reference


@settings(max_examples=120, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), report_margin=st.booleans(),
       slope=st.floats(0.2, 1.1), offset=st.floats(0.0, 0.999),
       bump=st.sampled_from([0, 0, -2, -1, 1, 2]))
def test_contraction_check_matches_all_pairs_on_near_contractions(data, d, report_margin,
                                                                  slope, offset, bump):
    # floor(c w.x + u) for a unit w: most pass the king certificate, some fail
    # it off-axis, and a cell moved by +-1 or +-2 breaks it near that cell
    radius = data.draw(st.integers(1, _RADII[d]))
    w = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    assume(np.linalg.norm(w) > 0.1)
    points = transference._box_points(radius, d)
    table = np.floor(slope * points @ (w / np.linalg.norm(w)) + offset).astype(np.int64)
    table[data.draw(st.integers(0, table.size - 1))] += bump
    _assert_matches_all_pairs(_lookup(table.reshape((2 * radius + 1,) * d), radius), radius,
                              d, report_margin)


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


@pytest.mark.parametrize("n, d, seed", [(6, 1, 23), (8, 2, 37)])
def test_multiplier_kills_embedded_block_diagonal(n, d, seed):
    # V block diagonal over the joint eigenvalues (zero between distinct rows of
    # the table) embeds at frequency 0 only, where g(0) = 0: on I(V), g(nabla)
    # is the off-diagonal compression
    it, v = _integer_instance(n, d, seed, law="integer:1")
    same = np.all(it.table[:, None, :] == it.table[None, :, :], axis=-1)
    assert np.sum(same) > n  # some block is larger than 1 x 1
    u = it.spectrum.basis
    v = u @ (same * (u.conj().T @ v @ u)) @ u.conj().T
    w = build_embedding(it, lambda iv: np.max(np.abs(iv), axis=-1), v, 16)
    out = fourier_multiplier_apply(HomogeneousSymbol(d=d, k0=d), w)
    assert np.linalg.norm(out.samples) <= 1e-12 * np.linalg.norm(w.samples)


def test_multiplier_on_single_term_embedding():
    # g(nabla) on I(V) equals the multiplied single term:
    # for V = p_0 V p_1 only the frequency (i - j, h(i) - h(j)) survives
    tup = CommutingTuple([np.diag([0.0, 1.0])])
    it = integer_tuple(tup)
    v = np.array([[0.0, 1.0], [0.0, 0.0]])
    h = lambda iv: iv[..., 0]
    g = HomogeneousSymbol(d=1, k0=1)
    w = build_embedding(it, h, v, 8)
    out = fourier_multiplier_apply(g, w)
    # g(-1, -1) = 1, so S(I(V)) = I(V)
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
    left = fourier_multiplier_apply(g, build_embedding(it, h, v, 16))
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


def test_discretization_report_sees_a_wrong_floored_tuple(monkeypatch):
    # the identity's right side diagonalizes the floored tuple itself, so a
    # tuple floored on the wrong grid shows in the residual
    js = spectral.joint_diagonalize(planted_commuting_tuple(6, 2, "uniform", seed=47)[0])
    f = builtin_function("euclid-norm", 2)
    monkeypatch.setattr(transference, "discretize_tuple",
                        lambda js, n: spectral.discretize_tuple(js, n + 1))
    assert discretization_report(js, f, 4).identity_residual > 0.4
