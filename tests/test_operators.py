import logging

import numpy as np
import pytest

from families import random_density, random_hermitian, random_unitary

from broadcastlab.channels import swap_unitary
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
    op_norm,
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
