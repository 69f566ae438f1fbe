import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from families import random_density, random_eb_channel, random_hermitian, random_unitary

from broadcastlab.channels import (
    ChannelError,
    ChoiChannel,
    KrausChannel,
    MeasurePrepareChannel,
    SymmetricLift,
    apply,
    channel_matrix,
    choi_to_kraus,
    choi_transform,
    swap_unitary,
    symmetric_lift,
    symmetrize,
)
from broadcastlab.operators import (
    PSD_TOL,
    TRACE_TOL,
    DiscretePOVM,
    OperatorError,
    dagger,
    op_norm,
    partial_transpose,
    vec,
)


def _pinching_channel(d=2):
    projs = [np.diag([1.0 if i == k else 0.0 for i in range(d)]).astype(complex)
             for k in range(d)]
    return MeasurePrepareChannel(DiscretePOVM(tuple(projs)), projs)


def test_identity_channel_choi():
    ch = KrausChannel([np.eye(2)])
    j = choi_transform(ch).matrix
    expected = np.outer(vec(np.eye(2)), vec(np.eye(2)).conj())
    np.testing.assert_allclose(j, expected, atol=1e-15)


def test_measure_prepare_choi_matches_direct_sum():
    rng = np.random.default_rng(10)
    ch = random_eb_channel(3, rng, kind="generic")
    j = choi_transform(ch).matrix
    direct = sum(np.kron(g.T, s) for g, s in zip(ch.povm.effects, ch.states))
    np.testing.assert_allclose(j, direct, atol=1e-12)


def _choi_by_basis_sweep(ch):
    """Reference Choi matrix: apply the channel to every |k><l| and place the block."""
    d_in, d_out = ch.d_in, ch.d_out
    j = np.zeros((d_in * d_out, d_in * d_out), dtype=complex)
    for k in range(d_in):
        for l in range(d_in):
            e = np.zeros((d_in, d_in), dtype=complex)
            e[k, l] = 1.0
            j[k * d_out:(k + 1) * d_out, l * d_out:(l + 1) * d_out] = ch.apply_schrodinger(e)
    return j


def test_choi_transform_matches_basis_sweep():
    rng = np.random.default_rng(25)
    # a 2 -> 3 channel from a random 6 x 2 isometry cut into two 3 x 2 Kraus operators
    z = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    iso, _ = np.linalg.qr(z)
    kraus = KrausChannel([iso[:3], iso[3:]])
    assert (kraus.d_in, kraus.d_out) == (2, 3)
    mp = random_eb_channel(3, rng, kind="generic")
    for ch, j in ((kraus, choi_transform(kraus).matrix), (mp, mp.choi().matrix)):
        np.testing.assert_allclose(j, _choi_by_basis_sweep(ch), rtol=0, atol=1e-14)


def test_kraus_choi_kraus_roundtrip():
    rng = np.random.default_rng(11)
    u = random_unitary(3, rng)
    k0 = np.sqrt(0.3) * u
    k1 = np.sqrt(0.7) * np.eye(3)
    ch = KrausChannel([k0, k1])
    back = choi_to_kraus(choi_transform(ch))
    for _ in range(50):
        rho = random_density(3, rng)
        np.testing.assert_allclose(back.apply_schrodinger(rho),
                                   ch.apply_schrodinger(rho), atol=1e-10)


def test_depolarizing_sends_everything_to_maximally_mixed():
    d = 3
    ch = MeasurePrepareChannel(DiscretePOVM((np.eye(d),)), [np.eye(d) / d])
    rng = np.random.default_rng(12)
    for _ in range(5):
        np.testing.assert_allclose(ch.apply_schrodinger(random_density(d, rng)),
                                   np.eye(d) / d, atol=1e-14)


def test_duality_pairing():
    rng = np.random.default_rng(13)
    u = random_unitary(4, rng)
    channels = [
        KrausChannel([np.sqrt(0.4) * u, np.sqrt(0.6) * np.eye(4)]),
        random_eb_channel(4, rng, kind="generic"),
    ]
    channels.append(choi_transform(channels[0]))
    for ch in channels:
        for _ in range(100):
            rho = random_density(4, rng)
            a = random_hermitian(4, rng)
            lhs = np.trace(ch.apply_schrodinger(rho) @ a)
            rhs = np.trace(rho @ ch.apply_heisenberg(a))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_heisenberg_explicit_sum_on_orthogonal_supports():
    rng = np.random.default_rng(14)
    ch = random_eb_channel(4, rng, kind="pinching")
    for g_j in ch.povm.effects:
        expected = sum(np.trace(s @ g_j) * g for g, s in zip(ch.povm.effects, ch.states))
        np.testing.assert_allclose(ch.apply_heisenberg(g_j), expected, atol=1e-13)


def test_schrodinger_preserves_trace_heisenberg_unital():
    rng = np.random.default_rng(15)
    u = random_unitary(3, rng)
    channels = [
        KrausChannel([np.sqrt(0.5) * u, np.sqrt(0.5) * np.eye(3)]),
        random_eb_channel(3, rng, kind="norm1"),
    ]
    channels.append(choi_transform(channels[1]))
    for ch in channels:
        rho = random_density(3, rng)
        assert abs(np.trace(ch.apply_schrodinger(rho)) - 1.0) <= 1e-12
        assert op_norm(ch.apply_heisenberg(np.eye(3)) - np.eye(3)) <= 1e-12


def test_apply_dispatch_and_dimension_check():
    ch = _pinching_channel(2)
    rho = np.diag([0.25, 0.75]).astype(complex)
    np.testing.assert_allclose(apply(ch, rho, "schrodinger"), rho, atol=1e-15)
    with pytest.raises(ValueError):
        apply(ch, rho, "nonsense")
    with pytest.raises(ChannelError):
        ch.apply_schrodinger(np.eye(3))


def test_choi_validation_rejects_bad_matrices():
    with pytest.raises(ChannelError):
        ChoiChannel(-np.eye(4), 2, 2)
    j = np.outer(vec(np.eye(2)), vec(np.eye(2)).conj())
    with pytest.raises(ChannelError):
        ChoiChannel(1.7 * j, 2, 2)  # not trace preserving


def test_symmetrize_fixes_swap_symmetry():
    tau = random_density(2, np.random.default_rng(16))
    w, v = np.linalg.eigh(tau)
    theta = KrausChannel([np.kron(np.eye(2), np.sqrt(lam) * v[:, i:i + 1])
                          for i, lam in enumerate(w)])
    sym = symmetrize(theta)
    rng = np.random.default_rng(17)
    a, b = random_hermitian(2, rng), random_hermitian(2, rng)
    np.testing.assert_allclose(sym.apply_heisenberg(np.kron(a, b)),
                               sym.apply_heisenberg(np.kron(b, a)), atol=1e-13)
    # hand computation for Theta(rho) = rho (x) tau:
    # Theta_sym*(A (x) I) = (A + tr(tau A) I) / 2
    got = sym.apply_heisenberg(np.kron(a, np.eye(2)))
    want = 0.5 * (a + np.trace(tau @ a) * np.eye(2))
    np.testing.assert_allclose(got, want, atol=1e-13)
    # the common fixed points of both original marginals (multiples of the
    # identity here) stay fixed for the symmetrized marginal
    np.testing.assert_allclose(sym.apply_heisenberg(np.kron(np.eye(2), np.eye(2))),
                               np.eye(2), atol=1e-13)


def test_symmetrize_leaves_symmetric_channel_unchanged():
    lift = symmetric_lift(_pinching_channel(2))
    # realize the lift as a Kraus channel, then symmetrize
    kraus = choi_to_kraus(choi_transform(lift))
    sym = symmetrize(kraus)
    rng = np.random.default_rng(18)
    for _ in range(5):
        rho = random_density(2, rng)
        np.testing.assert_allclose(sym.apply_schrodinger(rho),
                                   lift.apply_schrodinger(rho), atol=1e-14)


def test_symmetrize_preserves_broadcaster_marginals():
    from broadcastlab.contextuality import broadcaster_from_commuting
    from broadcastlab.operators import partial_trace

    states = [np.diag([0.2, 0.8]).astype(complex), np.diag([0.6, 0.4]).astype(complex)]
    bc = broadcaster_from_commuting(states)
    sym = symmetrize(bc)
    for rho in states:
        out = sym.apply_schrodinger(rho)
        np.testing.assert_allclose(partial_trace(out, (2, 2), side=2), rho, atol=1e-12)
        np.testing.assert_allclose(partial_trace(out, (2, 2), side=1), rho, atol=1e-12)


def test_symmetrize_requires_square_output():
    with pytest.raises(ChannelError):
        symmetrize(_pinching_channel(2))  # d_out = 2 is not a perfect square


def test_symmetric_lift_single_outcome():
    d = 2
    sigma = random_density(d, np.random.default_rng(19))
    ch = MeasurePrepareChannel(DiscretePOVM((np.eye(d),)), [sigma])
    lift = symmetric_lift(ch)
    rng = np.random.default_rng(20)
    a, b = random_hermitian(d, rng), random_hermitian(d, rng)
    want = np.trace(sigma @ a) * np.trace(sigma @ b) * np.eye(d)
    np.testing.assert_allclose(lift.apply_heisenberg(np.kron(a, b)), want, atol=1e-13)


def test_symmetric_lift_marginal_identity():
    rng = np.random.default_rng(21)
    ch = random_eb_channel(3, rng, kind="norm1")
    lift = symmetric_lift(ch)
    for _ in range(50):
        a = random_hermitian(3, rng)
        heis = ch.apply_heisenberg(a)
        np.testing.assert_allclose(lift.apply_heisenberg(np.kron(a, np.eye(3))),
                                   heis, atol=1e-13)
        np.testing.assert_allclose(lift.apply_heisenberg(np.kron(np.eye(3), a)),
                                   heis, atol=1e-13)


def test_symmetric_lift_swap_symmetry_on_simple_tensors():
    rng = np.random.default_rng(22)
    ch = random_eb_channel(3, rng, kind="generic")
    lift = symmetric_lift(ch)
    for _ in range(20):
        a, b = random_hermitian(3, rng), random_hermitian(3, rng)
        np.testing.assert_allclose(lift.apply_heisenberg(np.kron(a, b)),
                                   lift.apply_heisenberg(np.kron(b, a)), atol=1e-13)


def test_symmetric_lift_of_a_base_near_the_trace_tolerance():
    """tr(s (x) s) = tr(s)^2 doubles the trace defect: the lift of a state
    0.8e-10 off trace one is 1.6e-10 off, and is still a lift of a valid base."""
    base = MeasurePrepareChannel(DiscretePOVM((np.eye(2),)), [np.diag([0.5, 0.5 + 0.8e-10])])
    lift = SymmetricLift(base)
    assert lift.d_out == 4
    assert abs(np.trace(lift.states[0]).real - 1.0) > TRACE_TOL
    np.testing.assert_array_equal(lift.states[0], np.kron(base.states[0], base.states[0]))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.floats(-1.0, 1.0), st.floats(0.0, 1.0), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(2, 0.8, 0.0, False, 0)
@example(2, 0.0, 1.0, False, 0)  # eigenvalues -eps and 1 + eps: the lift has -eps (1 + eps)
@example(2, 1.0, 1.0, False, 0)
@example(8, 1.0, 1.0, False, 0)
@example(8, -1.0, 1.0, True, 1)
def test_symmetric_lift_accepts_the_lift_of_every_accepted_base(d, trace_offset, negativity,
                                                                  rotate, seed):
    """Base states with trace 1 + trace_offset * TRACE_TOL and a smallest
    eigenvalue of -negativity * PSD_TOL, up to the edges of what the base
    accepts: whenever the base accepts them, the lift accepts their squares."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(d))
    if d > 1:
        w[1:] *= (1.0 + negativity * PSD_TOL) / w[1:].sum()
        w[0] = -negativity * PSD_TOL
    w[-1] += trace_offset * TRACE_TOL
    u = random_unitary(d, rng) if rotate else np.eye(d)
    state = u @ np.diag(w) @ dagger(u)
    try:
        base = MeasurePrepareChannel(DiscretePOVM((np.eye(d),)), [state])
    except OperatorError:  # rounding took the state past the base's own tolerance
        assume(False)
    lift = SymmetricLift(base)
    assert (lift.d_in, lift.d_out) == (d, d * d)


def test_measure_prepare_choi_is_ppt():
    rng = np.random.default_rng(23)
    for kind in ("pinching", "norm1", "generic"):
        ch = random_eb_channel(3, rng, kind=kind)
        j = choi_transform(ch).matrix
        w = np.linalg.eigvalsh(partial_transpose(j, (3, 3)))
        assert w.min() >= -1e-10


def test_channel_matrix_consistency():
    rng = np.random.default_rng(24)
    ch = random_eb_channel(2, rng, kind="generic")
    m = channel_matrix(ch, picture="heisenberg")
    a = random_hermitian(2, rng)
    np.testing.assert_allclose(m @ vec(a), vec(ch.apply_heisenberg(a)), atol=1e-13)


def test_swap_unitary_is_involutive_unitary():
    s = swap_unitary(3)
    np.testing.assert_allclose(s @ s, np.eye(9), atol=1e-15)
    np.testing.assert_allclose(s @ dagger(s), np.eye(9), atol=1e-15)
