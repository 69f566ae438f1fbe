import numpy as np
import pytest

from families import random_density, random_eb_channel, random_hermitian, random_unitary

from broadcastlab.channels import (
    KrausChannel,
    MeasurePrepareChannel,
    apply,
    channel_matrix,
    choi_transform,
    symmetric_lift,
)
from broadcastlab.config import CAP_ENV_VAR, DimensionCapError
from broadcastlab.fixedpoint import (
    BroadcastingAlgebra,
    FixedPointError,
    _cesaro_means,
    atomic_decomposition,
    broadcasting_product,
    cesaro_apply,
    choi_effros_compare,
    fixed_space,
    fixedpoint_report,
    psi0_matrix,
)
from broadcastlab.operators import (
    DiscretePOVM,
    OperatorError,
    dagger,
    frob_norm,
    vec,
)


def _pinching(d=2):
    projs = [np.diag([1.0 if i == k else 0.0 for i in range(d)]).astype(complex)
             for k in range(d)]
    return MeasurePrepareChannel(DiscretePOVM(tuple(projs)), projs)


def _depolarizing(d=2):
    return MeasurePrepareChannel(DiscretePOVM((np.eye(d),)), [np.eye(d) / d])


def _span_projector(mats):
    cols = np.stack([vec(m) for m in mats], axis=1)
    q, _ = np.linalg.qr(cols)
    return q @ dagger(q)


def test_fixed_space_identity_channel():
    sp = fixed_space(KrausChannel([np.eye(2)]))
    assert sp.dim == 4


def test_fixed_space_depolarizing_matches_nullspace_oracle():
    d = 2
    ch = _depolarizing(d)
    # oracle: vectorized action built from the formula, nullspace by SVD
    lmat = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = 1.0
            lmat[:, k * d + l] = vec(np.trace(e) * np.eye(d) / d)
    _, s, vh = np.linalg.svd(lmat - np.eye(d * d))
    oracle_cols = vh.conj().T[:, s <= 1e-9 * s.max()]
    sp = fixed_space(ch)
    assert sp.dim == oracle_cols.shape[1] == 1
    np.testing.assert_allclose(np.abs(sp.basis[0]), np.eye(d) / np.sqrt(d), atol=1e-12)
    p_lib = _span_projector(sp.basis)
    p_oracle = oracle_cols @ dagger(oracle_cols)
    assert frob_norm(p_lib - p_oracle) <= 1e-9


def test_fixed_space_pinching_matches_nullspace_oracle():
    ch = _pinching(2)
    sp = fixed_space(ch)
    assert sp.dim == 2
    p_lib = _span_projector(sp.basis)
    p_oracle = _span_projector([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    assert frob_norm(p_lib - p_oracle) <= 1e-9


def test_fixed_space_invariants():
    rng = np.random.default_rng(30)
    sp = fixed_space(random_eb_channel(4, rng, kind="norm1"))
    # orthonormal Hermitian basis containing the identity in its span
    for i, b in enumerate(sp.basis):
        np.testing.assert_allclose(b, dagger(b), atol=1e-12)
        for j, c in enumerate(sp.basis):
            want = 1.0 if i == j else 0.0
            assert abs(np.vdot(b, c) - want) <= 1e-10
    eye = vec(np.eye(4))
    assert frob_norm(_span_projector(sp.basis) @ eye - eye) <= 2e-8


def test_fixed_space_dimension_cap(monkeypatch):
    monkeypatch.setenv(CAP_ENV_VAR, "1")
    with pytest.raises(DimensionCapError):
        fixed_space(_pinching(2))


def test_cesaro_identity_channel():
    ch = KrausChannel([np.eye(2)])
    a = random_hermitian(2, np.random.default_rng(31))
    res = cesaro_apply(ch, a, n_terms=50, early_stop_tol=0.0)
    np.testing.assert_allclose(res.matrix, a, atol=1e-14)


def test_cesaro_depolarizing_closed_form():
    d, n = 3, 37
    ch = _depolarizing(d)
    a = random_hermitian(d, np.random.default_rng(32))
    res = cesaro_apply(ch, a, n_terms=n, early_stop_tol=0.0)
    closed = (a + (n - 1) * np.trace(a) * np.eye(d) / d) / n
    np.testing.assert_allclose(res.matrix, closed, atol=1e-13)
    assert res.n_terms == n


def test_cesaro_irrational_rotation():
    theta = 2.0 * np.pi * (np.sqrt(2.0) - 1.0)
    u = np.diag([1.0, np.exp(1j * theta)])
    ch = KrausChannel([u])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    res_x = cesaro_apply(ch, sx, n_terms=2000, early_stop_tol=0.0)
    res_z = cesaro_apply(ch, sz, n_terms=10, early_stop_tol=0.0)
    # oracle: the fixed space of the rotation is the diagonal algebra, so the
    # limits are the diagonal parts of the inputs
    assert frob_norm(res_x.matrix) <= 5e-3
    np.testing.assert_allclose(res_z.matrix, sz, atol=1e-14)


def test_cesaro_reports_nonconvergence_residual():
    theta = 2.0 * np.pi * (np.sqrt(2.0) - 1.0)
    ch = KrausChannel([np.diag([1.0, np.exp(1j * theta)])])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    res = cesaro_apply(ch, sx, n_terms=20, early_stop_tol=1e-15)
    assert not res.converged
    assert res.residual > 1e-15


def _sequential_cesaro(channel, a, n, picture):
    """The Cesaro averages of n and n - 1 terms, one application of the channel
    per term (the n - 1 average is None at n = 1)."""
    x = np.asarray(a, dtype=complex)
    total, previous = x.copy(), None
    for k in range(2, n + 1):
        previous = total / (k - 1)
        x = apply(channel, x, picture)
        total = total + x
    return total / n, previous


def _seeded_channels(d, rng):
    isometry = np.linalg.qr(rng.standard_normal((3 * d, d))
                            + 1j * rng.standard_normal((3 * d, d)))[0]
    kraus = KrausChannel([isometry[k * d:(k + 1) * d] for k in range(3)])
    return {"kraus": kraus, "choi": choi_transform(kraus),
            "measure_prepare": random_eb_channel(d, rng, kind="generic")}


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("kind", ["kraus", "choi", "measure_prepare"])
def test_cesaro_apply_matches_sequential_loop(kind, picture):
    """The doubling average against a loop that applies the channel once per term."""
    rng = np.random.default_rng(33)
    channel = _seeded_channels(3, rng)[kind]
    a = random_hermitian(3, rng) + 1j * random_hermitian(3, rng)
    for n in (1, 2, 37, 64):
        res = cesaro_apply(channel, a, n_terms=n, early_stop_tol=1e-3, picture=picture)
        avg, previous = _sequential_cesaro(channel, a, n, picture)
        np.testing.assert_allclose(res.matrix, avg, rtol=0, atol=1e-12)
        assert res.n_terms == n
        if n == 1:
            assert res.residual == np.inf and not res.converged
        else:
            assert res.residual == pytest.approx(frob_norm(avg - previous), rel=0, abs=1e-12)
            assert res.converged == (res.residual <= 1e-3)


def test_psi0_two_methods_agree_for_pinching():
    ch = _pinching(2)
    spectral = psi0_matrix(ch, method="spectral")
    cesaro = psi0_matrix(ch, method="cesaro", n_terms=4096)
    assert frob_norm(spectral - cesaro) <= 1e-2
    # pinching is already idempotent, so psi_0 is the channel matrix itself
    from broadcastlab.channels import channel_matrix
    np.testing.assert_allclose(spectral, channel_matrix(ch, "heisenberg"), atol=1e-9)


def test_psi0_cesaro_matches_sequential_average():
    rng = np.random.default_rng(34)
    ch = random_eb_channel(3, rng, kind="generic")
    lmat = channel_matrix(ch, "heisenberg")
    term = np.eye(9, dtype=complex)
    total = term.copy()
    for _ in range(36):
        term = lmat @ term
        total = total + term
    np.testing.assert_allclose(psi0_matrix(ch, method="cesaro", n_terms=37), total / 37,
                               rtol=0, atol=1e-13)


def _two_svd_projector(ch, tol=1e-9):
    """psi_0 as R (L^dagger R)^-1 L^dagger, with the right null vectors from an SVD
    of L - I and the left ones from a separate SVD of its adjoint."""
    m = channel_matrix(ch, "heisenberg") - np.eye(ch.d_in ** 2)

    def null(a):
        _, s, vh = np.linalg.svd(a)
        return vh.conj().T[:, s <= tol * s.max()]

    right, left = null(m), null(m.conj().T)
    return right @ np.linalg.solve(left.conj().T @ right, left.conj().T)


@pytest.mark.parametrize("kind", ["generic", "norm1"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_psi0_one_svd_matches_two_svd_projector(d, kind):
    rng = np.random.default_rng(60 + d)
    ch = random_eb_channel(d, rng, kind=kind)
    lmat = channel_matrix(ch, "heisenberg")
    assert frob_norm(lmat @ dagger(lmat) - dagger(lmat) @ lmat) > 1e-3  # not normal
    np.testing.assert_allclose(psi0_matrix(ch, method="spectral"), _two_svd_projector(ch),
                               rtol=0, atol=1e-12)


def test_product_unit_law():
    rng = np.random.default_rng(33)
    alg = BroadcastingAlgebra(random_eb_channel(4, rng, kind="norm1"))
    coeffs = rng.standard_normal(alg.space.dim)
    a = alg.from_coefficients(coeffs)
    np.testing.assert_allclose(broadcasting_product(alg, a, np.eye(4)), a, atol=1e-9)
    np.testing.assert_allclose(broadcasting_product(alg, np.eye(4), a), a, atol=1e-9)


def test_product_pinching_is_diagonal_product():
    d = 3
    alg = BroadcastingAlgebra(_pinching(d))
    rng = np.random.default_rng(34)
    x, y = rng.standard_normal(d), rng.standard_normal(d)
    a, b = np.diag(x).astype(complex), np.diag(y).astype(complex)
    np.testing.assert_allclose(broadcasting_product(alg, a, b),
                               np.diag(x * y), atol=1e-10)


def test_product_commutative_on_random_fixed_pairs():
    rng = np.random.default_rng(35)
    alg = BroadcastingAlgebra(random_eb_channel(5, rng, kind="norm1"))
    for _ in range(100):
        a = alg.from_coefficients(rng.standard_normal(alg.space.dim))
        b = alg.from_coefficients(rng.standard_normal(alg.space.dim))
        assert frob_norm(broadcasting_product(alg, a, b)
                         - broadcasting_product(alg, b, a)) <= 1e-9


def test_product_rejects_operand_outside_fixed_space():
    alg = BroadcastingAlgebra(_pinching(2))
    off = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(OperatorError):
        broadcasting_product(alg, off, np.eye(2))


def test_product_bipositive():
    rng = np.random.default_rng(36)
    alg = BroadcastingAlgebra(random_eb_channel(4, rng, kind="norm1"))
    for _ in range(20):
        x = alg.from_coefficients(rng.standard_normal(alg.space.dim))
        y = alg.from_coefficients(rng.standard_normal(alg.space.dim))
        a = x - min(0.0, np.linalg.eigvalsh(x).min()) * np.eye(4)
        b = y - min(0.0, np.linalg.eigvalsh(y).min()) * np.eye(4)
        w = np.linalg.eigvalsh(broadcasting_product(alg, a, b))
        assert w.min() >= -1e-8


def test_choi_effros_pinching_and_unit():
    alg = BroadcastingAlgebra(_pinching(3))
    rng = np.random.default_rng(37)
    a = np.diag(rng.standard_normal(3)).astype(complex)
    b = np.diag(rng.standard_normal(3)).astype(complex)
    assert choi_effros_compare(alg, a, b) <= 1e-12
    assert choi_effros_compare(alg, np.eye(3), np.eye(3)) <= 1e-14


def test_choi_effros_random_eb_channels():
    rng = np.random.default_rng(38)
    for kind in ("pinching", "norm1", "generic"):
        ch = random_eb_channel(5, rng, kind=kind)
        alg = BroadcastingAlgebra(ch)
        for _ in range(10):
            a = alg.from_coefficients(rng.standard_normal(alg.space.dim))
            b = alg.from_coefficients(rng.standard_normal(alg.space.dim))
            assert choi_effros_compare(alg, a, b) <= 1e-8


def test_atomic_single_outcome_recovers_state():
    d = 3
    sigma = random_density(d, np.random.default_rng(39))
    ch = MeasurePrepareChannel(DiscretePOVM((np.eye(d),)), [sigma])
    dec = atomic_decomposition(BroadcastingAlgebra(ch))
    assert len(dec.atoms) == 1
    np.testing.assert_allclose(dec.atoms[0], np.eye(d), atol=1e-9)
    np.testing.assert_allclose(dec.states[0], sigma, atol=1e-8)


def test_atomic_pinching_recovers_projectors():
    d = 2
    dec = atomic_decomposition(BroadcastingAlgebra(_pinching(d)))
    got = sorted([np.round(np.real(np.diag(a))).tolist() for a in dec.atoms])
    assert got == [[0.0, 1.0], [1.0, 0.0]]
    for g, s in zip(dec.atoms, dec.states):
        np.testing.assert_allclose(s, g, atol=1e-9)


def test_atomic_rank_structured_example():
    # G = {P (rank 2), P_perp (rank 1)} in d = 3 with sigma_1 inside P
    rng = np.random.default_rng(40)
    u = random_unitary(3, rng)
    p = u @ np.diag([1.0, 1.0, 0.0]).astype(complex) @ dagger(u)
    p_perp = np.eye(3) - p
    sub = random_density(2, rng)
    sigma1 = u @ np.block([[sub, np.zeros((2, 1))],
                           [np.zeros((1, 2)), np.zeros((1, 1))]]) @ dagger(u)
    sigma2 = p_perp.copy()
    ch = MeasurePrepareChannel(DiscretePOVM((p, p_perp)), [sigma1, sigma2])
    dec = atomic_decomposition(BroadcastingAlgebra(ch))
    traces = sorted(round(float(np.real(np.trace(a))), 6) for a in dec.atoms)
    assert traces == [1.0, 2.0]
    recovered = {round(float(np.real(np.trace(a))), 6): a for a in dec.atoms}
    np.testing.assert_allclose(recovered[2.0], p, atol=1e-8)
    np.testing.assert_allclose(recovered[1.0], p_perp, atol=1e-8)
    pairing = np.array([[np.real(np.trace(s @ g)) for g in dec.atoms]
                        for s in dec.states])
    np.testing.assert_allclose(pairing, np.eye(2), atol=1e-8)


def test_psi0_idempotent_intertwining_cp():
    rng = np.random.default_rng(41)
    alg = BroadcastingAlgebra(random_eb_channel(4, rng, kind="norm1"))
    assert alg.idempotency_residual <= 1e-8
    assert alg.intertwining_residual <= 1e-8
    assert alg.psi0_cp_residual <= 1e-8
    assert alg.cesaro_cross_residual <= 5e-2


def test_psi0_cp_residual_matches_projected_basis_choi():
    rng = np.random.default_rng(43)
    alg = BroadcastingAlgebra(random_eb_channel(3, rng, kind="norm1"))
    d = alg.d
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = 1.0
            choi[k * d:(k + 1) * d, l * d:(l + 1) * d] = alg.project(e)
    w = np.linalg.eigvalsh(0.5 * (choi + dagger(choi)))
    assert alg.psi0_cp_residual == pytest.approx(max(0.0, -w.min()), rel=0, abs=1e-15)


def test_psi0_cp_residual_sees_a_non_cp_projector(monkeypatch):
    """psi_0 swapped for the idempotent, non-CP X -> diag(X) + c tr(sigma_x X) Z on
    the qubit pinching: the residual is the negative part of its Choi spectrum,
    (sqrt(1 + 4c^2) - 1) / 2, and fails validation."""
    import broadcastlab.fixedpoint as fixedpoint

    z, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    spectral = fixedpoint._spectral_projector

    def non_cp(right, left):
        return spectral(right, left) + 0.5 * np.outer(vec(z), vec(sx).conj())

    validate_tol = fixedpoint.VALIDATE_TOL
    monkeypatch.setattr(fixedpoint, "_spectral_projector", non_cp)
    monkeypatch.setattr(fixedpoint, "VALIDATE_TOL", np.inf)
    alg = BroadcastingAlgebra(_pinching(2))
    choi = np.block([[alg.project(np.outer(np.eye(2)[k], np.eye(2)[l])) for l in range(2)]
                     for k in range(2)])
    negative = -np.linalg.eigvalsh(0.5 * (choi + dagger(choi))).min()
    assert negative == pytest.approx((np.sqrt(2.0) - 1) / 2, abs=1e-12)
    assert alg.psi0_cp_residual == pytest.approx(negative, rel=0, abs=1e-15)
    assert alg.idempotency_residual <= 1e-15
    monkeypatch.setattr(fixedpoint, "VALIDATE_TOL", validate_tol)
    with pytest.raises(FixedPointError, match="validation failed"):
        BroadcastingAlgebra(_pinching(2))


def test_cstar_identity_from_product_table():
    rng = np.random.default_rng(42)
    alg = BroadcastingAlgebra(random_eb_channel(4, rng, kind="norm1"))
    for _ in range(10):
        c = rng.standard_normal(alg.space.dim) + 1j * rng.standard_normal(alg.space.dim)
        sr_a = np.max(np.abs(np.linalg.eigvals(alg.multiplication_matrix(c))))
        aa = alg.coefficients_product(np.conj(c), c)
        sr_aa = np.max(np.abs(np.linalg.eigvals(alg.multiplication_matrix(aa))))
        assert abs(sr_aa - sr_a ** 2) <= 1e-7 * max(1.0, sr_a ** 2)


@pytest.mark.parametrize("kind", ["pinching", "norm1"])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_product_table_matches_pairwise_products(d, kind):
    """The contracted table against a loop of <B_k, psi_0(Phi*(B_i (x) B_j))> over
    basis pairs, with Phi the channel's symmetric lift."""
    rng = np.random.default_rng(70 + d)
    alg = BroadcastingAlgebra(random_eb_channel(d, rng, kind=kind))
    basis = alg.space.basis
    lift = symmetric_lift(alg.channel)
    ref = np.array([[[np.vdot(bk, alg.project(lift.apply_heisenberg(np.kron(bi, bj))))
                      for bk in basis] for bj in basis] for bi in basis])
    assert len(basis) >= 2
    np.testing.assert_allclose(alg.product_table, ref.real, rtol=0, atol=1e-13)
    assert alg.table_imag_drift == pytest.approx(np.abs(ref.imag).max(), rel=0, abs=1e-15)
    # the product goes through the table, on complex operands too
    a, b = (alg.from_coefficients(rng.standard_normal(len(basis))
                                  + 1j * rng.standard_normal(len(basis))) for _ in range(2))
    np.testing.assert_allclose(alg.product(a, b),
                               alg.project(lift.apply_heisenberg(np.kron(a, b))),
                               rtol=0, atol=1e-12)


def test_reconstruction_on_every_basis_element():
    rng = np.random.default_rng(43)
    for kind in ("pinching", "norm1", "generic"):
        alg = BroadcastingAlgebra(random_eb_channel(4, rng, kind=kind))
        rebuilt = atomic_decomposition(alg).rebuilt_channel()
        for b in alg.space.basis:
            assert frob_norm(rebuilt.apply_heisenberg(b) - b) <= 1e-8


def test_schrodinger_fixed_states_match_rebuilt_channel():
    rng = np.random.default_rng(44)
    ch = random_eb_channel(4, rng, kind="norm1")
    dec = atomic_decomposition(BroadcastingAlgebra(ch))
    rebuilt = dec.rebuilt_channel()
    # constructed fixed states: convex combinations of the dual states
    probs = rng.dirichlet(np.ones(len(dec.states)))
    fixed = sum(p * s for p, s in zip(probs, dec.states))
    assert frob_norm(ch.apply_schrodinger(fixed) - fixed) <= 1e-8
    assert frob_norm(rebuilt.apply_schrodinger(fixed) - fixed) <= 1e-8
    # random states: fixedness agrees between the two channels
    for _ in range(10):
        tau = random_density(4, rng)
        lhs = frob_norm(ch.apply_schrodinger(tau) - tau) <= 1e-9
        rhs = frob_norm(rebuilt.apply_schrodinger(tau) - tau) <= 1e-9
        assert lhs == rhs


def test_fixedpoint_report_shape():
    rng = np.random.default_rng(45)
    report = fixedpoint_report(random_eb_channel(3, rng, kind="pinching"), seed=5)
    assert report["basis_dimension"] >= 1
    assert len(report["singular_value_ladder"]) == 9
    assert "product_table_residuals" in report
    assert report["atom_provenance"]["generic_element_seed"] == 5
    assert "singular_part" in report


def _sequential_means(mat, x, marks):
    term = x.copy()
    total = x.copy()
    means = {}
    for t in range(1, max(marks) + 1):
        if t > 1:
            term = mat @ term
            total = total + term
        if t in marks:
            means[t] = total / t
    return means


_MARKS = {1, 2, 3, 37, 64, 100, 1000}


def test_cesaro_means_non_normal_contraction():
    rng = np.random.default_rng(51)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    mat = 0.95 * g / np.linalg.norm(g, 2)
    x = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    means = _cesaro_means(mat, x, _MARKS)
    expected = _sequential_means(mat, x, _MARKS)
    assert means.keys() == expected.keys()
    for t in _MARKS:
        np.testing.assert_allclose(means[t], expected[t], rtol=0, atol=1e-13)


def test_cesaro_means_nilpotent_shift_exact():
    # integer-valued partial sums are exact in either summation order
    mat = np.eye(12, k=-1)
    x = np.random.default_rng(52).integers(-50, 50, size=(12, 3)).astype(float)
    means = _cesaro_means(mat, x, _MARKS)
    expected = _sequential_means(mat, x, _MARKS)
    for t in _MARKS:
        np.testing.assert_array_equal(means[t], expected[t])


def test_cesaro_means_batched_stack():
    rng = np.random.default_rng(53)
    g = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    mat = 0.9 * g / np.linalg.norm(g, 2, axis=(1, 2))[:, None, None]
    x = rng.standard_normal((5, 4, 1)) + 1j * rng.standard_normal((5, 4, 1))
    means = _cesaro_means(mat, x, _MARKS)
    for k in range(5):
        expected = _sequential_means(mat[k], x[k], _MARKS)
        for t in _MARKS:
            assert means[t].shape == (5, 4, 1)
            np.testing.assert_allclose(means[t][k], expected[t], rtol=0, atol=1e-13)


@pytest.mark.parametrize("marks", [{0, 5}, {-3}])
def test_cesaro_means_rejects_length_below_one(marks):
    with pytest.raises(ValueError):
        _cesaro_means(np.eye(2), np.ones((2, 1)), marks)
