import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from families import random_density, random_hermitian, random_unitary

from broadcastlab.channels import ChannelError, ChoiChannel, KrausChannel, swap_unitary
from broadcastlab.operators import (
    DiscretePOVM,
    NotCommutingError,
    OperatorError,
    as_density,
    as_effect,
    as_hermitian,
    commutator_defect,
    dagger,
    eig_hermitian,
    frob_norm,
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
    fam = [np.diag([1.0, 2.0, 3.0]), np.diag([0.5, 0.5, -1.0])]
    np.testing.assert_array_equal(simultaneous_diagonalize(fam), np.eye(3))


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
