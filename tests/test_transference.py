import itertools
import tracemalloc

import numpy as np
import pytest

from oplip import transference
from oplip.doi import divided_difference_symbol, doi_apply
from oplip.errors import AliasRiskError, DomainError, NonIntegerSpectrumError
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
    with pytest.raises(NonIntegerSpectrumError):
        integer_tuple(bad)


def test_round_contraction_values():
    h = round_contraction(lambda lam: float(lam[0]), 4)
    # floor((4/2) * (i/4)) = floor(i/2)
    for i in range(-8, 9):
        assert h(np.array([i])) == i // 2
    assert h(np.array([3])) == 1 and h(np.array([1])) == 0
    const = round_contraction(lambda lam: 0.7, 5)
    assert const(np.array([-3])) == const(np.array([12])) == int(np.floor(2.5 * 0.7))


def test_contraction_check_identity_rounding():
    h = round_contraction(lambda lam: float(lam[0]), 4)
    report = contraction_check(h, 30, 1)
    assert report.ok
    assert report.margin <= 0.0


def test_contraction_check_detects_expansion():
    report = contraction_check(lambda iv: 2 * int(iv[0]), 10, 1)
    assert not report.ok
    # (0, 1) is a violating pair: |h(0)-h(1)| = 2 > 1
    assert report.margin > 0.0


def test_contraction_check_abs_rounding():
    h = round_contraction(lambda lam: float(abs(lam[0])), 8)
    assert contraction_check(h, 30, 1).ok


def test_contraction_check_d3_sampling():
    h = round_contraction(builtin_function("euclid-norm", 3), 4)
    report = contraction_check(h, 5, 3, seed=0, sample_pairs=50_000)
    assert report.ok


def test_contraction_check_rejects_non_integer():
    with pytest.raises(ValueError):
        contraction_check(lambda iv: float(np.linalg.norm(iv)), 3, 2)


def test_contraction_check_domain_errors():
    with pytest.raises(DomainError):
        contraction_check(lambda iv: 0, 0, 2)
    with pytest.raises(DomainError):
        contraction_check(lambda iv: 0.5, 2, 1)


def test_contraction_check_d3_margin_flag():
    h = round_contraction(builtin_function("euclid-norm", 3), 4)
    assert contraction_check(h, 3, 3, sample_pairs=20_000, report_margin=False) == (
        True, None, -np.inf)
    full = contraction_check(h, 3, 3, sample_pairs=20_000)
    assert full.ok and full.worst_pair is not None and full.margin <= 0.0


def _all_pairs_report(h, radius, d, report_margin):
    """Literal row-major loop over every ordered pair of box points."""
    points = [np.array(p) for p in itertools.product(range(-radius, radius + 1), repeat=d)]
    values = [int(h(p)) for p in points]
    ok, worst, pair = True, -np.inf, None
    for a, (pa, va) in enumerate(zip(points, values)):
        for b, (pb, vb) in enumerate(zip(points, values)):
            if a == b:
                continue
            dist2 = int(np.sum((pa - pb) ** 2))
            ok = ok and (va - vb) ** 2 <= dist2
            margin = abs(va - vb) - np.sqrt(float(dist2))
            if margin > worst:
                worst, pair = margin, (pa, pb)
    if ok and not report_margin:
        return True, None, -np.inf
    return ok, pair, worst


@pytest.mark.parametrize("block", [transference.PAIR_BLOCK, 200])
@pytest.mark.parametrize("report_margin", [True, False])
@pytest.mark.parametrize("h", [
    lambda iv: 2 * int(iv[0]),  # violates from the first block on
    lambda iv: 6 if iv[0] >= 3 else 0,  # first violation several blocks in
    round_contraction(builtin_function("euclid-norm", 2), 3),
])
def test_contraction_check_matches_all_pairs_loop(h, report_margin, block, monkeypatch):
    monkeypatch.setattr(transference, "PAIR_BLOCK", block)
    ok, pair, margin = contraction_check(h, 4, 2, report_margin=report_margin)
    want_ok, want_pair, want_margin = _all_pairs_report(h, 4, 2, report_margin)
    assert ok == want_ok and margin == want_margin
    if want_pair is None:
        assert pair is None
    else:
        assert [p.tolist() for p in pair] == [p.tolist() for p in want_pair]


def test_contraction_check_d3_blocks_keep_sample(monkeypatch):
    h = round_contraction(builtin_function("crease", 3), 2)
    whole = contraction_check(h, 3, 3, seed=4, sample_pairs=30_000)
    monkeypatch.setattr(transference, "PAIR_BLOCK", 1000)
    sliced = contraction_check(h, 3, 3, seed=4, sample_pairs=30_000)
    assert whole.ok == sliced.ok and whole.margin == sliced.margin
    assert [p.tolist() for p in whole.worst_pair] == [p.tolist() for p in sliced.worst_pair]


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


def _integer_instance(n=4, d=1, seed=7, law="integer:3"):
    tup, _, _ = planted_commuting_tuple(n, d, law, seed=seed)
    it = integer_tuple(tup)
    rng = np.random.default_rng(seed + 1)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return it, v


def test_build_embedding_identity_fiber():
    it, _ = _integer_instance()
    h = lambda iv: int(iv[0])
    w = build_embedding(it, h, np.eye(it.dim), 16)
    # I(identity) is the identity fiber at every grid point
    for index in np.ndindex(*(w.samples.shape[:-2])):
        np.testing.assert_allclose(w.samples[index], np.eye(it.dim), atol=1e-10)


def test_build_embedding_profile_replication():
    it, v = _integer_instance(n=3, seed=11)
    h = lambda iv: int(abs(int(iv[0])))
    w = build_embedding(it, h, v, 16)
    svals = np.linalg.svd(v, compute_uv=False)
    for index in [(0, 0), (3, 7), (15, 1)]:
        got = np.linalg.svd(w.samples[index], compute_uv=False)
        np.testing.assert_allclose(got, svals, atol=1e-10)


def test_build_embedding_single_offdiagonal_term():
    tup = CommutingTuple([np.diag([0.0, 1.0])])
    it = integer_tuple(tup)
    v = np.array([[0.0, 1.0], [0.0, 0.0]])
    w = build_embedding(it, lambda iv: int(iv[0]), v, 8)
    c = coefficients(w)
    expect = np.zeros((8, 8, 2, 2), dtype=complex)
    expect[frequency_index([-1, -1], 8)] = v
    np.testing.assert_allclose(c, expect, atol=1e-12)


def test_build_embedding_alias_guard():
    it, v = _integer_instance(n=4, d=1, law="integer:5")
    h = lambda iv: int(iv[0])
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
    w = build_embedding(it, lambda iv: int(iv[0]), np.eye(4), 16)
    w.samples[...] = fiber
    out = apply_S(it, g, w)
    assert np.linalg.norm(out.samples) <= 1e-10 * np.linalg.norm(w.samples)


def test_apply_S_linear():
    it, v = _integer_instance(n=3, seed=29)
    g = HomogeneousSymbol(d=1, k0=1)
    h = lambda iv: int(abs(int(iv[0])))
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
    h = lambda iv: int(iv[0])
    g = HomogeneousSymbol(d=1, k0=1)
    w = build_embedding(it, h, v, 8)
    out = apply_S(it, g, w)
    # g(-1, -1) = 1, so S(I(V)) = I(V) with the diagonal (zero here) removed
    np.testing.assert_allclose(out.samples, w.samples, atol=1e-10)


def test_verify_conjugation_diagonal_v():
    it, _ = _integer_instance(n=4, seed=31)
    u = it.spectrum.basis
    v = (u * np.arange(1.0, 5.0)) @ u.conj().T
    res = verify_conjugation(it, lambda iv: int(iv[0]), v, 32)
    assert res <= 1e-12


def test_verify_conjugation_abs_d1():
    tup = CommutingTuple([np.diag([-1.0, 2.0])])
    it = integer_tuple(tup)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    res = verify_conjugation(it, lambda iv: int(abs(int(iv[0]))), v, 32)
    assert res <= 1e-9


def test_verify_conjugation_d2_maxabs():
    tup, _, _ = planted_commuting_tuple(6, 2, "integer:3", seed=37)
    it = integer_tuple(tup)
    rng = np.random.default_rng(6)
    v = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = lambda iv: int(np.max(np.abs(iv)))
    for k0 in (1, 2):
        assert verify_conjugation(it, h, v, 32, k0=k0) <= 1e-9


def test_verify_conjugation_matches_grid_route():
    # the coefficient-space residual agrees with a literal grid computation
    tup, _, _ = planted_commuting_tuple(3, 1, "integer:2", seed=41)
    it = integer_tuple(tup)
    rng = np.random.default_rng(7)
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = lambda iv: int(abs(int(iv[0])))
    res = verify_conjugation(it, h, v, 16)

    g = HomogeneousSymbol(d=1, k0=1)
    left = apply_S(it, g, build_embedding(it, h, v, 16))
    f_real = lambda lam: float(h(np.round(lam).astype(int)))
    js_int = JointSpectrum(it.spectrum.basis, it.table.astype(float),
                           it.spectrum.provenance)
    tv = doi_apply(js_int, divided_difference_symbol(f_real, 1, 1), v)
    right = build_embedding(it, h, tv, 16)
    cell = (TWO_PI / 16) ** 2
    grid_res = np.sqrt(cell) * np.linalg.norm(left.samples - right.samples)
    grid_den = 1.0 + np.sqrt(cell) * np.linalg.norm(right.samples)
    np.testing.assert_allclose(res, grid_res / grid_den, atol=1e-12)


def test_verify_conjugation_rejects_expansion():
    it, v = _integer_instance(n=4, seed=43)
    from oplip.errors import GuardViolationError

    with pytest.raises(GuardViolationError):
        verify_conjugation(it, lambda iv: 3 * int(iv[0]), v, 64)


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
