import logging
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from families import random_density, random_hermitian, random_unitary

from broadcastlab.channels import ChannelError, ChoiChannel, KrausChannel, swap_unitary
from broadcastlab.contextuality import pvm_embed
from broadcastlab.cvmodels import repair_to_commuting_projections
from broadcastlab.operators import (
    HERMITICITY_TOL,
    PSD_TOL,
    TRACE_TOL,
    DiscretePOVM,
    NotCommutingError,
    OperatorError,
    as_densities,
    as_density,
    as_effect,
    as_effects,
    as_hermitian,
    commutator_defect,
    dagger,
    eig_hermitian,
    frob_norm,
    kron,
    max_op_norm,
    op_norm,
    op_norm_exceeds,
    partial_trace,
    partial_transpose,
    simultaneous_diagonalize,
)

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_eig_sigma_z():
    w, v = eig_hermitian(SZ)
    np.testing.assert_allclose(w, [1.0, -1.0])
    np.testing.assert_allclose(v[:, 0], [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(v[:, 1], [0.0, 1.0], atol=1e-15)


def test_eig_sigma_x():
    w, v = eig_hermitian(SX)
    np.testing.assert_allclose(w, [1.0, -1.0])
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(v[:, 0], [s, s], atol=1e-14)
    np.testing.assert_allclose(v[:, 1], [s, -s], atol=1e-14)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(3)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    a = 0.5 * (g + dagger(g))
    w, v = eig_hermitian(a)
    resid = np.linalg.norm(v @ np.diag(w) @ dagger(v) - a) / np.linalg.norm(a)
    assert resid <= 1e-12
    assert np.all(np.diff(w) <= 1e-12)
    np.testing.assert_allclose(dagger(v) @ v, np.eye(8), atol=1e-12)


def test_eig_phase_convention_deterministic():
    rng = np.random.default_rng(4)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    a = 0.5 * (g + dagger(g))
    _, v1 = eig_hermitian(a)
    _, v2 = eig_hermitian(a * np.exp(0j))
    np.testing.assert_array_equal(v1, v2)
    for col in v1.T:
        k = np.argmax(np.abs(col))
        assert col[k].real > 0 and abs(col[k].imag) < 1e-14


def test_constructors_reject_bad_input():
    with pytest.raises(OperatorError):
        as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(OperatorError):
        as_density(np.diag([1.5, -0.5]))
    with pytest.raises(OperatorError):
        as_density(np.diag([0.8, 0.8]))
    with pytest.raises(OperatorError):
        as_effect(np.diag([1.2, 0.0]))
    with pytest.raises(OperatorError):
        as_effect(np.diag([-0.2, 0.5]))
    with pytest.raises(OperatorError):
        DiscretePOVM((np.diag([0.5, 0.5]), np.diag([0.4, 0.4])))
    with pytest.raises(OperatorError):
        as_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_hermitian_symmetrization_tolerates_drift():
    a = np.diag([1.0, 2.0]).astype(complex)
    a[0, 1] = 1e-14
    h = as_hermitian(a)
    np.testing.assert_allclose(h, dagger(h))


def test_exactly_hermitian_input_takes_no_norm(monkeypatch):
    def no_norm(a):
        raise AssertionError("op_norm called")

    a = random_hermitian(64, np.random.default_rng(7))
    with pytest.raises(OperatorError):  # a negative tolerance still accepts nothing
        as_hermitian(a, tol=-1.0)
    monkeypatch.setattr("broadcastlab.operators.op_norm", no_norm)
    h = as_hermitian(a)
    np.testing.assert_array_equal(h, a)
    assert not np.shares_memory(h, a)
    np.testing.assert_array_equal(as_hermitian(np.diag([1, -2])), np.diag([1.0, -2.0]))


@pytest.mark.parametrize("tol", [1e-12, 1e-10])
@pytest.mark.parametrize("norm", [0.25, 3.0])
@pytest.mark.parametrize("factor", [0.5, 2.0])
def test_anti_hermitian_part_against_tolerance(tol, norm, factor, caplog):
    """A + c K, K anti-Hermitian with ||K|| = 1, c = factor * tol * max(1, ||A||):
    accepted with a DEBUG record at half the bound, rejected at twice it."""
    rng = np.random.default_rng(8)
    h = random_hermitian(8, rng)
    h *= norm / op_norm(h)
    k = 1j * random_hermitian(8, rng)
    k /= op_norm(k)
    a = h + factor * tol * max(1.0, norm) * k
    if factor > 1:
        with pytest.raises(OperatorError, match="not Hermitian"):
            as_hermitian(a, tol=tol)
        return
    with caplog.at_level(logging.DEBUG, logger="broadcastlab.operators"):
        got = as_hermitian(a, tol=tol)
    np.testing.assert_array_equal(got, 0.5 * (a + dagger(a)))
    assert any("absorbed residual" in r.getMessage() for r in caplog.records)


_RNG = np.random.default_rng(9)


@pytest.mark.parametrize("a", [
    _RNG.standard_normal((5, 5)) + 1j * _RNG.standard_normal((5, 5)),
    _RNG.standard_normal((4, 4)),
    np.arange(12).reshape(3, 4) - 5,
    np.array([[-2.5]]),
    np.array([[3 - 4j]]),
    _RNG.standard_normal((3, 7)) * (1 + 2j),
    _RNG.standard_normal((7, 2)),
    np.zeros((3, 3)),
], ids=["complex", "real", "integer", "1x1", "1x1-complex", "3x7", "7x2", "zero"])
def test_op_norm_equals_numpy_spectral_norm(a):
    got = op_norm(a)
    assert type(got) is float
    assert got == float(np.linalg.norm(a, 2))


def test_partial_trace_product_rule():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(partial_trace(np.kron(a, b), (3, 2), side=2),
                               np.trace(b) * a, atol=1e-13)
    np.testing.assert_allclose(partial_trace(np.kron(a, b), (3, 2), side=1),
                               np.trace(a) * b, atol=1e-13)


def test_partial_trace_bell_state():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(phi, phi.conj())
    np.testing.assert_allclose(partial_trace(2.0 * rho, (2, 2), side=1),
                               np.eye(2), atol=1e-14)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert abs(np.trace(partial_trace(a, (2, 2), side=2)) - np.trace(a)) <= 1e-14


def test_partial_trace_product_rule_many_dims():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d1, d2 = rng.integers(2, 6), rng.integers(2, 6)
        a = rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))
        b = rng.standard_normal((d2, d2)) + 1j * rng.standard_normal((d2, d2))
        np.testing.assert_allclose(partial_trace(np.kron(a, b), (d1, d2), side=2),
                                   np.trace(b) * a, atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(OperatorError):
        partial_trace(np.eye(6), (2, 2), side=2)


def test_partial_transpose_product_rule():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    np.testing.assert_allclose(partial_transpose(np.kron(a, b), (2, 2)),
                               np.kron(a.T, b), atol=1e-14)


def test_partial_transpose_bell_negative_eigenvalue():
    phi = np.zeros(4, dtype=complex)
    phi[0] = phi[3] = 1.0 / np.sqrt(2.0)
    rho = np.outer(phi, phi.conj())
    got = np.linalg.eigvalsh(partial_transpose(rho, (2, 2)))
    # oracle: the partial transpose of the Bell projector is SWAP/2
    want = np.linalg.eigvalsh(swap_unitary(2) / 2.0)
    np.testing.assert_allclose(got, want, atol=1e-14)
    assert got.min() == pytest.approx(-0.5, abs=1e-14)


def test_partial_transpose_separable_stays_psd():
    rng = np.random.default_rng(6)
    rho = np.zeros((6, 6), dtype=complex)
    probs = rng.dirichlet(np.ones(4))
    for p in probs:
        rho += p * np.kron(random_density(2, rng), random_density(3, rng))
    w = np.linalg.eigvalsh(partial_transpose(rho, (2, 3)))
    assert w.min() >= -1e-12


def test_partial_transpose_involution():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    np.testing.assert_allclose(partial_transpose(partial_transpose(a, (2, 3)), (2, 3)),
                               a, atol=1e-14)


def test_simdiag_diagonal_family_is_identity():
    """An already diagonal family gets the identity, real for a real family."""
    fam = [np.diag([1.0, 2.0, 3.0]), np.diag([0.5, 0.5, -1.0])]
    u = simultaneous_diagonalize(fam)
    np.testing.assert_array_equal(u, np.eye(3))
    assert u.dtype == np.float64
    assert simultaneous_diagonalize([fam[0], fam[1].astype(complex)]).dtype == np.complex128


def test_simdiag_sigma_z_and_identity():
    u = simultaneous_diagonalize([SZ, np.eye(2)])
    np.testing.assert_array_equal(u, np.eye(2))


def test_simdiag_recovers_common_basis():
    rng = np.random.default_rng(8)
    u0 = random_unitary(4, rng)
    fam = [u0 @ np.diag(rng.standard_normal(4)) @ dagger(u0) for _ in range(3)]
    fam = [0.5 * (a + dagger(a)) for a in fam]
    u = simultaneous_diagonalize(fam)
    for a in fam:
        rot = dagger(u) @ a @ u
        assert op_norm(rot - np.diag(np.diag(rot))) <= 1e-10


def test_simdiag_rejects_noncommuting_with_pair():
    with pytest.raises(NotCommutingError) as err:
        simultaneous_diagonalize([SZ, SX])
    assert err.value.pair == (0, 1)
    assert err.value.norm == pytest.approx(2.0, abs=1e-12)


def test_commutator_defect_reports_worst_pair():
    fam = [np.eye(2), SZ, SX]
    norm, pair = commutator_defect(fam)
    assert pair == (1, 2)
    assert norm == pytest.approx(2.0, abs=1e-12)


def test_commutator_defect_first_pair_wins_ties():
    """Every non-commuting pair has commutator norm 2, and the later ones have
    Frobenius norms above 2, so their SVDs run: the first pair still wins."""
    k0 = np.diag([1.0, 0.0])
    fam = [np.kron(SZ, k0), np.kron(SX, k0), np.kron(SZ, np.eye(2)), np.kron(SX, np.eye(2))]
    comms = [(i, j, op_norm(fam[i] @ fam[j] - fam[j] @ fam[i]))
             for i in range(4) for j in range(i + 1, 4)]
    assert {n for _, _, n in comms} == {0.0, 2.0}
    assert commutator_defect(fam) == (2.0, (0, 1))
    assert commutator_defect(fam[2:] + fam[:2]) == (2.0, (0, 1))
    assert commutator_defect([fam[0], fam[2], fam[1]]) == (2.0, (0, 2))
    # no pair, or only commuting pairs: norm 0.0 and the pair (0, 0)
    assert commutator_defect([SX]) == (0.0, (0, 0))
    assert commutator_defect([SZ, np.eye(2), -SZ]) == (0.0, (0, 0))


@st.composite
def _matrices(draw):
    """Real or complex, square or not, 1x1 to 9x9, general, zero or rank one,
    scaled by 2^k far enough to leave the range the Frobenius bounds cover;
    now and then too many entries for the bounds."""
    kind = draw(st.sampled_from(["general", "general", "zero", "rank-one", "large"]))
    is_complex = draw(st.booleans())
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    if kind == "large":
        shape = draw(st.sampled_from([(64, 64), (65, 64), (1, 4097), (4096, 1)]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        a = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if is_complex else 0)
    elif kind == "zero":
        a = np.zeros((m, n), dtype=complex if is_complex else float)
    else:
        elements = st.floats(-4.0, 4.0, allow_subnormal=False)
        shape = (m, 1) if kind == "rank-one" else (m, n)
        a = draw(arrays(float, shape, elements=elements))
        if is_complex:
            a = a + 1j * draw(arrays(float, shape, elements=elements))
        if kind == "rank-one":
            a = a @ draw(arrays(float, (1, n), elements=elements))
    return a * 2.0 ** draw(st.sampled_from([0, 0, -30, 30, -470, -500, 470, 500]))


def _edge_tols(a):
    """Tolerances at the edges of both decisions: op_norm(a) and the
    Frobenius bounds f/sqrt(r) and f, each one ulp and 1e-15 away."""
    s, f, r = op_norm(a), frob_norm(a), min(np.shape(a))
    tols = [0.0, 1e-10]
    for t in (s, f, f / math.sqrt(r)):
        tols += [t, t * (1 - 1e-15), t * (1 + 1e-15),
                 math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    return [t for t in tols if math.isfinite(t)]


# a float32 rank-one matrix whose op_norm exceeds its float32 Frobenius norm
# by 9e-8 relative, far beyond NORM_BOUND_SLACK: only float64 and complex128
# matrices may be bounded
_F32_RANK_ONE = np.float32([
    [-0.48877814412117004, 0.2849116027355194, -0.6377453207969666, 0.10850710421800613,
     -0.5944390892982483],
    [-1.4125527143478394, 0.8233851790428162, -1.8430629968643188, 0.3135819733142853,
     -1.7179094552993774],
    [-1.6540319919586182, 0.9641448259353638, -2.1581389904022217, 0.36718955636024475,
     -2.0115902423858643],
    [0.8161047101020813, -0.4757121503353119, 1.0648328065872192, -0.18117250502109528,
     0.9925251007080078],
    [0.7523532509803772, -0.43855106830596924, 0.9816514253616333, -0.16701990365982056,
     0.9149922132492065]])


@st.composite
def _matrix_and_tol(draw):
    a = draw(_matrices())
    return a, draw(st.sampled_from(_edge_tols(a)) | st.floats(0.0, 1e3))


@settings(max_examples=300, deadline=None)
@given(_matrix_and_tol())
@example((np.eye(3) * (1 + 1e-15), 1.0))                 # op_norm at tol (1 + 1e-15)
@example((np.eye(3) * (1 - 1e-15), 1.0))                 # op_norm at tol (1 - 1e-15)
@example((np.eye(4) * 0.25, 0.25))                       # f = sqrt(r) tol, op_norm = tol
@example((np.eye(4) * 0.25 * (1 + 1e-15), 0.25))
@example((np.diag([3.0, 3.0, 0.0]) * (1 - 1e-15), 3.0))  # rank two of three
@example((np.outer([1, 1j, 2], [2, -1]), 15 ** 0.5 * 2 * (1 + 1e-15)))  # rank one
@example((np.array([[3 - 4j]]), 5.0 * (1 - 1e-15)))      # 1x1
@example((np.zeros((2, 3), dtype=complex), 0.0))
@example((np.full((65, 64), 1e-12), 1e-10))              # too many entries to bound
@example((np.eye(3, dtype=np.float32) * np.float32(1 + 2 ** -23), 1.0))  # other dtypes
@example((np.eye(2, dtype=np.complex64) * np.float32(1 - 2 ** -24), 1.0))
@example((np.array([[3, 0], [0, 4]]), 4.0))
@example((_F32_RANK_ONE, frob_norm(_F32_RANK_ONE) * (1 + 2 ** -25)))
def test_op_norm_exceeds_equals_svd_form(case):
    a, tol = case
    for t in (tol, *_edge_tols(a)):
        got = op_norm_exceeds(a, t)
        assert type(got) is bool
        assert got == (op_norm(a) > t), t


def _max_op_norm_reference(mats):
    best, arg = 0.0, None
    for k, a in enumerate(mats):
        nrm = op_norm(a)
        if nrm > best:
            best, arg = nrm, k
    return best, arg


@settings(max_examples=200, deadline=None)
@given(st.lists(_matrices(), max_size=6), st.lists(st.integers(0, 5), max_size=3),
       st.randoms())
@example([np.eye(4), np.diag([1.0, 0.0, 0.0, 0.0])], [], None)  # ties, either bound first
@example([np.diag([1.0, 0.0, 0.0, 0.0]), np.eye(4)], [], None)
@example([np.zeros((2, 2)), -np.zeros((3, 1))], [], None)       # all zero: index None
@example([], [], None)
def test_max_op_norm_equals_svd_form(mats, copies, rnd):
    """Copies of drawn matrices, inserted at random places, make exact ties."""
    mats = list(mats)
    for k in copies:
        if mats:
            mats.insert(rnd.randrange(len(mats) + 1) if rnd else 0, mats[k % len(mats)].copy())
    got = max_op_norm(mats)
    assert got == _max_op_norm_reference(mats)
    assert type(got[0]) is float
    if mats:
        assert got[0] == max(op_norm(a) for a in mats)


def test_failing_checks_report_exact_norms():
    with pytest.raises(OperatorError, match=r"sum to identity only up to 5\.000e-01 > 1\.0e-10$"):
        DiscretePOVM((np.diag([1.0, 0.0]), np.diag([0.0, 0.5])))
    with pytest.raises(ChannelError, match=r"not trace preserving: residual 7\.500e-01 > 1\.0e-10$"):
        KrausChannel([0.5 * np.eye(2)])
    phi = np.zeros(4)
    phi[[0, 3]] = 1.0
    with pytest.raises(ChannelError, match=r"tr_2\(J\) - I residual 5\.000e-01$"):
        ChoiChannel(1.5 * np.outer(phi, phi), 2, 2)
    # a residual of norms 1.2e-10 <= f < 1.21e-10 and f / sqrt(2) < 0.86e-10:
    # the Frobenius bounds decide neither tolerance, the SVD decides both
    effects = (np.diag([1.0 - 1e-11, 0.0]), np.diag([0.0, 1.0 - 1.2e-10]))
    with pytest.raises(OperatorError, match=r"only up to 1\.200e-10 > 1\.0e-10$"):
        DiscretePOVM(effects, tol=1e-10)
    DiscretePOVM(effects, tol=1.2001e-10)


def test_simdiag_failure_reports_smallest_residual_of_its_draws():
    """A family commuting within tol but too far from diagonal in every generic
    basis: the message carries the smallest of the draws' largest off-diagonal
    norms, as a loop over every draw and member measures it."""
    fam = [np.eye(2) + 1e-5 * SX, 1e-5 * SZ]
    with pytest.raises(OperatorError, match="simultaneous diagonalization failed") as err:
        simultaneous_diagonalize(fam, seed=3)
    rng = np.random.default_rng(3)
    best = np.inf
    for _ in range(4):
        generic = sum(c * a for c, a in zip(rng.standard_normal(2), fam))
        u = np.linalg.eigh(generic)[1]
        rots = [dagger(u) @ a @ u for a in fam]
        best = min(best, max(op_norm(r - np.diag(np.diag(r))) for r in rots))
    assert f"off-diagonal residual {best:.3e} after 4 generic draws" in str(err.value)


def _as_hermitian_reference(a, tol):
    """The SVD form of `as_hermitian`: (A + A^dagger)/2 and whether it is
    accepted, A - H against tol * max(1, ||A||_op) in two SVDs."""
    h = 0.5 * (a + dagger(a))
    if tol >= 0.0 and (h == a).all():
        return h, True
    return h, not op_norm(a - h) > tol * max(op_norm(a), 1.0)


@st.composite
def _near_hermitian(draw):
    """H + c K, H Hermitian and K anti-Hermitian with ||K||_op = 1, c a multiple
    of tol * max(1, ||H||) around the thresholds of both the SVD and the
    Frobenius bounds, at scales from 2^-500 to 2^500."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    h = draw(st.sampled_from([0.0, 2.0 ** -500, 2.0 ** -30, 1.0, 2.0 ** 30, 2.0 ** 500]))
    h = h * random_hermitian(n, rng)
    k = 1j * random_hermitian(n, rng)
    k /= op_norm(k)
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-6, 0.5, -1e-12]))
    factor = draw(st.sampled_from([0.0, 1e-6, 0.5, 1 - 1e-15, 1.0, 1 + 1e-15, 2.0,
                                   1 / math.sqrt(n), math.sqrt(n), 1e6]))
    return h + factor * max(tol, 1e-12) * max(1.0, op_norm(h)) * k, tol


@settings(max_examples=300, deadline=None)
@given(_near_hermitian())
@example((np.diag([1.0, 2.0]) + 1e-14j * np.array([[0.0, 1.0], [1.0, 0.0]]), 1e-12))
@example((np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1e-12))
@example((np.eye(2, dtype=complex), -1e-12))
@example((2.0 ** 500 * np.eye(2) + 1e6 * 2.0 ** 500 * np.array([[0, 1j], [1j, 0]]), 0.5))
def test_as_hermitian_equals_svd_form(case):
    """Also without a RuntimeWarning where the squares of the Frobenius norm
    overflow: the bounds then leave the decision to the SVD."""
    a, tol = case
    want, ok = _as_hermitian_reference(a, tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if not ok:
            with pytest.raises(OperatorError, match="not Hermitian"):
                as_hermitian(a, tol=tol)
            return
        got = as_hermitian(a, tol=tol)
    np.testing.assert_array_equal(got, want)


def test_as_hermitian_takes_no_svd_where_the_bounds_decide(monkeypatch, caplog):
    """A residual far inside the bound is accepted without an SVD, also under
    DEBUG logging, whose record then gives the bound; one far outside is
    refused with one SVD, for the residual the message reports."""
    calls = []

    def counted(a):
        calls.append(a)
        return op_norm(a)

    rng = np.random.default_rng(10)
    h = random_hermitian(6, rng)
    k = 1j * random_hermitian(6, rng)
    k /= op_norm(k)
    monkeypatch.setattr("broadcastlab.operators.op_norm", counted)
    inside = h + 1e-3 * HERMITICITY_TOL * k
    np.testing.assert_array_equal(as_hermitian(inside), 0.5 * (inside + dagger(inside)))
    assert calls == []
    with pytest.raises(OperatorError, match=r"residual 1\.000e-03"):
        as_hermitian(h + 1e-3 * k)
    assert len(calls) == 1
    calls.clear()
    with caplog.at_level(logging.DEBUG, logger="broadcastlab.operators"):
        np.testing.assert_array_equal(as_hermitian(inside), 0.5 * (inside + dagger(inside)))
    assert calls == []
    assert any("absorbed residual at most" in r.getMessage() for r in caplog.records)


@pytest.mark.parametrize("d", range(1, 9))
def test_kron_equals_np_kron_bit_for_bit(d):
    """The broadcast product is np.kron's products, signed zeros included: for
    identity factors of either side, real or complex operands, and operands
    holding -0.0 entries."""
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a[rng.random((d, d)) < 0.3] = -0.0
    a.imag[rng.random((d, d)) < 0.3] = -0.0
    b = rng.standard_normal((d, d + 1))
    b[rng.random(b.shape) < 0.3] = -0.0
    eye = np.eye(d)
    for x, y in ((eye, a), (a.T, eye), (a, a), (b, a), (a, b), (b.T, b), (-eye, a)):
        got, want = kron(x, y), np.kron(x, y)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
        assert np.array_equal(np.signbit(np.imag(got)), np.signbit(np.imag(want)))


def _spectrum_family(data, d, k, edges):
    """k Hermitian d x d matrices whose eigenvalues sit at 0 or 1 shifted past
    them by up to three times `edges[i]`, or inside [0, 1]; one may carry an
    anti-Hermitian part the Hermiticity check refuses."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for i in range(k):
        kinds = rng.integers(0, 3, d)
        shift = data.draw(st.floats(-3.0, 3.0)) * edges[i]
        w = np.where(kinds == 0, -shift, np.where(kinds == 1, 1.0 + shift, rng.random(d)))
        u = random_unitary(d, rng) if data.draw(st.booleans()) else np.eye(d)
        mats.append(u @ np.diag(w) @ dagger(u))
    if data.draw(st.booleans()):
        bad = data.draw(st.integers(0, k - 1))
        mats[bad] = mats[bad] + 1e-6j * random_hermitian(d, rng)
    return mats


def _outcome(fn):
    """('ok', result) or ('refused', message) of fn()."""
    try:
        return "ok", fn()
    except OperatorError as exc:
        return "refused", str(exc)


def _assert_same_outcome(got, want):
    """Both refused with one message, or both accepted with equal matrices."""
    assert got[0] == want[0]
    if got[0] == "refused":
        assert got[1] == want[1]
    else:
        assert len(got[1]) == len(want[1])
        for g, w in zip(got[1], want[1]):
            np.testing.assert_array_equal(g, w)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(1, 5))
def test_stacked_effect_check_refuses_where_each_effect_check_does(data, d, k):
    """`as_effects` and `DiscretePOVM`, which check all effects with one stacked
    eigvalsh, refuse exactly where `as_effect` of each effect in turn does, with
    the first failing effect's message, and otherwise return the same matrices."""
    tol = data.draw(st.sampled_from([PSD_TOL, 1e-8, 1e-6]))
    mats = _spectrum_family(data, d, k, [tol] * k)
    want = _outcome(lambda: tuple(as_effect(e, tol=tol) for e in mats))
    _assert_same_outcome(_outcome(lambda: as_effects(mats, tol=tol)), want)
    if want[0] == "refused":
        _assert_same_outcome(_outcome(lambda: DiscretePOVM(tuple(mats), tol=tol)), want)


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(1, 5))
def test_stacked_state_check_refuses_where_each_state_check_does(data, d, k):
    """`as_densities` refuses exactly where `as_density` of each state in turn
    does, with the same message."""
    mats = _spectrum_family(data, d, k, [PSD_TOL] * k)
    # unit trace up to three times the trace tolerance
    mats = [m / np.trace(m).real * (1.0 + data.draw(st.floats(-3.0, 3.0)) * TRACE_TOL)
            if abs(np.trace(m).real) > 0.5 else m for m in mats]
    _assert_same_outcome(_outcome(lambda: as_densities(mats)),
                         _outcome(lambda: tuple(as_density(s) for s in mats)))


def test_stacked_checks_of_mixed_shapes_refuse_in_order():
    """Matrices of two shapes are checked one by one, in order: a bad spectrum
    before the odd shape is reported, as `as_effect` in turn would; a valid
    family of two shapes is refused by the POVM's shape check."""
    bad = np.diag([1.5, 0.0])
    with pytest.raises(OperatorError, match="effect spectrum"):
        as_effects([np.eye(2), bad, np.eye(3)])
    with pytest.raises(OperatorError, match="effect spectrum"):
        DiscretePOVM((np.eye(2), bad, np.eye(3)))
    with pytest.raises(OperatorError, match="must share one dimension"):
        DiscretePOVM((np.eye(2), np.eye(3)))
    with pytest.raises(OperatorError, match="eigenvalue"):
        as_densities([np.diag([0.5, 0.5]), np.diag([1.5, -0.5]), np.eye(3) / 3])
    assert len(as_densities([np.diag([0.5, 0.5]), np.eye(3) / 3])) == 2


# Tolerance multiples for the real/complex parity tests: 0.5x to 2x of a tolerance,
# each at least 5 % from it, so that rounding cannot move a verdict.
_EDGE_FACTORS = (0.5, 0.8, 0.95, 1.05, 1.25, 2.0)


def _real_orthogonal(d, rng):
    return np.linalg.qr(rng.standard_normal((d, d)))[0]


def _real_povm_family(data):
    """k real symmetric d x d matrices Q diag(P_i) Q^T, whose weights P_i sum to
    one in each coordinate, moved past at most one edge by a factor of
    `_EDGE_FACTORS` times its tolerance: a weight past 0 or 1 (PSD_TOL), the sum
    off the identity (PSD_TOL) or an antisymmetric part (HERMITICITY_TOL); or
    with an infinite entry."""
    d, k = data.draw(st.integers(1, 5), label="d"), data.draw(st.integers(1, 4), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    q = _real_orthogonal(d, rng) if data.draw(st.booleans(), label="rotated") else np.eye(d)
    p = rng.dirichlet(np.ones(k), size=d).T
    edge = data.draw(st.sampled_from(["none", "below", "above", "complete", "antisymmetric",
                                      "nonfinite"]), label="edge")
    f = data.draw(st.sampled_from(_EDGE_FACTORS), label="factor")
    i, j = int(rng.integers(k)), int(rng.integers(d))
    if edge == "below":
        p[i, j] = -f * PSD_TOL
    elif edge == "above":
        p[i, j] = 1.0 + f * PSD_TOL
    elif edge == "complete":
        p[i, j] += f * PSD_TOL
    mats = [q @ np.diag(w) @ q.T for w in p]
    if edge == "antisymmetric" and d > 1:
        g = rng.standard_normal((d, d))
        mats[i] = mats[i] + f * HERMITICITY_TOL * (g - g.T) / op_norm(g - g.T)
    elif edge == "nonfinite":
        mats[i][j, j] = np.inf
    return mats, rng, f


def _verdict(fn):
    """('ok', result) or ('refused', 'ErrorType: message') of fn()."""
    try:
        return "ok", fn()
    except (OperatorError, RuntimeError) as exc:
        return "refused", f"{type(exc).__name__}: {exc}"


def _same_verdict(fn, real, cplx):
    """fn on the real input and on its complex128 copy: both refused with one
    message, or both accepted; the accepted results are returned."""
    got, want = _verdict(lambda: fn(real)), _verdict(lambda: fn(cplx))
    assert got[0] == want[0], (got, want)
    if got[0] == "refused":
        assert got[1] == want[1]
        return None
    return got[1], want[1]


def _assert_float64(mats):
    assert all(m.dtype == np.float64 for m in mats)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_real_operators_get_the_verdict_of_their_complex_copies(data):
    """`as_hermitian`, `as_effects`, `as_densities` and `DiscretePOVM` accept a real
    family exactly where they accept its complex128 copy, refuse it with the same
    first message otherwise, and return float64 matrices equal to the complex
    results within rounding; so does the commuting-projection repair, with the
    same projection ranks and a repair distance within 1e-12 relative."""
    mats, rng, f = _real_povm_family(data)
    cplx = [m.astype(complex) for m in mats]
    accepted = _same_verdict(lambda ms: [as_hermitian(m) for m in ms], mats, cplx)
    if accepted:
        _assert_float64(accepted[0])
    for check in (as_effects, lambda ms: DiscretePOVM(tuple(ms)).effects):
        accepted = _same_verdict(check, mats, cplx)
        if accepted:
            _assert_float64(accepted[0])
            for got, want in zip(*accepted):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    # states: weights summing to one, one of them moved to -f PSD_TOL, and the
    # trace off 1 by 0 or f TRACE_TOL
    d = mats[0].shape[0]
    states = []
    for _ in mats:
        w = rng.dirichlet(np.ones(d))
        if d > 1 and data.draw(st.booleans(), label="negative"):
            a, b = rng.choice(d, 2, replace=False)
            w[b] += w[a] + f * PSD_TOL
            w[a] = -f * PSD_TOL
        w = w * (1.0 + data.draw(st.sampled_from((-f, 0.0, f)), label="trace") * TRACE_TOL)
        q = _real_orthogonal(d, rng)
        states.append(q @ np.diag(w) @ q.T)
    accepted = _same_verdict(as_densities, states, [s.astype(complex) for s in states])
    if accepted:
        _assert_float64(accepted[0])
    _assert_same_repair(mats, cplx)


def _repair_rounding(d):
    """Bound on how far the real and the complex repair distance of one d x d
    family can differ by rounding alone.  Each side's projection is
    (u * sel) @ u^dag for a computed eigenbasis u: each entry sums d products,
    off by at most gamma_{d+2} (|u| |u|^dag)_ij (complex products, Higham,
    *Accuracy and Stability of Numerical Algorithms*, section 3.6), so at most
    d gamma_{d+2} in operator norm, since || |u| |u|^dag ||_F <= ||u||_F^2 = d.
    LAPACK's `eigh` keeps ||u^dag u - I|| of the same order, which moves the
    projection as much again.  A distance moves by at most what its projection
    does, and the two sides round independently."""
    u = np.finfo(float).eps / 2
    gamma = (d + 2) * u / (1 - (d + 2) * u)
    return 2 * 2 * d * gamma


def _assert_same_repair(mats, cplx):
    """The commuting-projection repair of a real family and of its complex copy:
    the same verdict, float64 projections of the same ranks, and repair
    distances equal within 1e-12 relative or the rounding of `_repair_rounding`."""
    accepted = _same_verdict(repair_to_commuting_projections, mats, cplx)
    if accepted:
        (real_projections, real_distance), (cplx_projections, cplx_distance) = accepted
        _assert_float64(real_projections)
        assert ([round(np.trace(p)) for p in real_projections]
                == [round(np.trace(p).real) for p in cplx_projections])
        assert real_distance == pytest.approx(cplx_distance, rel=1e-12,
                                              abs=_repair_rounding(mats[0].shape[0]))


def test_real_repair_distance_of_a_rotated_near_identity():
    """A rotated 5 x 5 effect with eigenvalues 1 + 0.8 PSD_TOL, 1 - 2^-53 and
    three times 1, the family of `_real_povm_family` with d = 5, k = 1, seed
    11271125, edge "above" and factor 0.8: its real and complex repair
    distances, 8.0001e-11 and 8.0000e-11 with numpy 2.4 and OpenBLAS, differ
    by 1.006e-15, which is 4.5 ulps of 1 and within each side's rounding of
    u u^dag = I."""
    q = _real_orthogonal(5, np.random.default_rng(11271125))
    w = np.array([1.0, 1.0 + 0.8 * PSD_TOL, 1.0, 1.0, np.nextafter(1.0, 0.0)])
    mats = [q @ np.diag(w) @ q.T]
    _assert_same_repair(mats, [m.astype(complex) for m in mats])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pvm_embed_gives_a_real_pvm_the_verdict_of_its_complex_copy(data):
    """`pvm_embed` accepts a real PVM, moved off being idempotent, orthogonal or
    complete by a factor of `_EDGE_FACTORS` times `tol`, exactly where it accepts
    its complex128 copy, and refuses it with the same first message otherwise.
    An accepted embedding keeps float64 atoms, states and channel stacks, and
    its `max_fix_residual` is that of the copy within rounding."""
    d = data.draw(st.integers(1, 5), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    tol = data.draw(st.sampled_from([1e-10, 1e-6, 1e-3]), label="tol")
    delta = data.draw(st.sampled_from(_EDGE_FACTORS), label="factor") * tol
    q = _real_orthogonal(d, rng)
    cuts = np.sort(rng.choice(np.arange(1, d), int(rng.integers(0, d)), replace=False))
    parts = np.split(np.arange(d), cuts)
    projections = [q[:, c] @ q[:, c].T for c in parts]
    i, j = (0, 0) if len(parts) == 1 else rng.choice(len(parts), 2, replace=False)
    defect = data.draw(st.sampled_from(["none", "idempotent", "orthogonal", "complete"]),
                       label="defect")
    if defect == "idempotent":
        p = projections[i]
        projections[i], projections[j] = (1 - delta) * p, projections[j] + delta * p
    elif defect == "orthogonal" and i != j:
        # the first vector of part j turned by delta towards the first of part i
        v = np.cos(delta) * q[:, parts[j][0]] + np.sin(delta) * q[:, parts[i][0]]
        rest = q[:, parts[j][1:]]
        projections[j] = np.outer(v, v) + rest @ rest.T
    elif defect == "complete":
        projections[j] = (1 - delta) * projections[j]
    labels = list(range(len(parts)))
    subsets = [set(np.flatnonzero(rng.random(len(parts)) < 0.5).tolist())
               for _ in range(int(rng.integers(1, 4)))]

    def embed(projs):
        return pvm_embed(labels, projs, subsets, tol=tol)

    accepted = _same_verdict(embed, projections, [p.astype(complex) for p in projections])
    if accepted:
        real, cplx = accepted
        _assert_float64(real.atom_effects + real.states)
        _assert_float64((real.channel._effect_stack, real.channel._state_stack))
        assert real.atom_sets == cplx.atom_sets
        assert real.max_fix_residual == pytest.approx(cplx.max_fix_residual, rel=1e-6, abs=1e-14)


@st.composite
def _stacks(draw):
    """k matrices of one shape and dtype: general, zero, copies of earlier ones
    (exact ties), each scaled by 2^s, also out of the range the bounds cover;
    now and then float32 or too many entries, where no bound is given."""
    k = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(1, 1), (2, 2), (3, 2), (1, 5), (6, 6), (65, 64)]))
    dtype = draw(st.sampled_from([np.float64, np.float64, np.complex128, np.complex128,
                                  np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for _ in range(k):
        kind = draw(st.sampled_from(["general", "general", "zero", "copy"]))
        if kind == "copy" and mats:
            mats.append(mats[draw(st.integers(0, len(mats) - 1))].copy())
            continue
        a = rng.standard_normal(shape) + (1j * rng.standard_normal(shape)
                                          if dtype == np.complex128 else 0)
        if kind == "zero":
            a = a * 0.0
        scales = [0, 0, -30, 30] + ([-500, 500] if dtype != np.float32 else [])
        mats.append(a * 2.0 ** draw(st.sampled_from(scales)))
    return np.array(mats).astype(dtype)


@settings(max_examples=200, deadline=None)
@given(_stacks())
def test_stacked_op_norm_bounds_equal_each_matrix_bounds(stack):
    """The bounds of a stack are, entry by entry, the bounds of its matrices taken
    one at a time, bit for bit; an undecidable matrix gets (-inf, inf)."""
    from broadcastlab.operators import _frob_norms, _op_norm_bounds

    lo, hi = _op_norm_bounds(stack)
    assert lo.shape == hi.shape == (len(stack),)
    for k, a in enumerate(stack):
        assert (lo[k], hi[k]) == _op_norm_bounds(a)
        assert lo[k] <= op_norm(a) <= hi[k]
    if stack.dtype in (np.float64, np.complex128):
        with np.errstate(over="ignore"):
            assert _frob_norms(stack).tolist() == [frob_norm(a) for a in stack]


@settings(max_examples=200, deadline=None)
@given(_stacks())
@example(np.array([np.diag([1.0, 0.0]), np.eye(2), np.eye(2)]))  # tie after a lower first bound
@example(np.array([np.eye(2), np.diag([1.0, 0.0]), np.eye(2)]))
@example(np.zeros((3, 2, 2)))                                      # all zero: index None
@example(np.array([np.eye(2) * 2.0 ** -500, np.eye(2)]))           # no bound for the first
def test_max_op_norm_of_a_stack_equals_the_scan(stack):
    """As a stack and as a list, `max_op_norm` gives the value and the first index
    of a scan that takes every SVD, ties included."""
    want = _max_op_norm_reference(stack)
    for mats in (stack, list(stack)):
        got = max_op_norm(mats)
        assert got == want
        assert type(got[0]) is float
