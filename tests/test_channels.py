import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from families import (
    random_density,
    random_eb_channel,
    random_hermitian,
    random_kraus_channel,
    random_unitary,
)

from broadcastlab import channels
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
    as_density,
    as_hermitian,
    dagger,
    op_norm,
    partial_trace,
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


def _assert_choi_kraus_roundtrip(ch, rng):
    """tr_2 J = I for the Choi matrix J of `ch`; the Kraus channel read back from J
    has Choi matrix J and acts on states as `ch` does."""
    j = choi_transform(ch).matrix
    np.testing.assert_allclose(partial_trace(j, (ch.d_in, ch.d_out), side=2),
                               np.eye(ch.d_in), rtol=0, atol=1e-12)
    back = choi_to_kraus(choi_transform(ch))
    assert (back.d_in, back.d_out) == (ch.d_in, ch.d_out)
    np.testing.assert_allclose(choi_transform(back).matrix, j, rtol=0, atol=1e-10)
    for _ in range(10):
        rho = random_density(ch.d_in, rng)
        np.testing.assert_allclose(back.apply_schrodinger(rho),
                                   ch.apply_schrodinger(rho), rtol=0, atol=1e-10)


# (d_in, d_out, Kraus operators): d = 1..5, 1-4 operators, square and not
@pytest.mark.parametrize("d_in, d_out, n_ops", [
    (1, 1, 1), (2, 2, 1), (3, 3, 2), (4, 4, 3), (5, 5, 4), (1, 4, 2),
    (4, 1, 4), (2, 3, 1), (3, 2, 2), (2, 5, 3), (5, 3, 2), (3, 4, 4)])
def test_kraus_choi_kraus_roundtrip(d_in, d_out, n_ops):
    rng = np.random.default_rng([11, d_in, d_out, n_ops])
    _assert_choi_kraus_roundtrip(random_kraus_channel(d_in, d_out, n_ops, rng), rng)


@pytest.mark.parametrize("kind", ["pinching", "norm1", "generic"])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_eb_channel_roundtrip_and_symmetric_lift_marginals(d, kind):
    """The Choi-Kraus round trip of a measure-and-prepare channel, and both
    marginals of its symmetric lift: tr_1 Phi(rho) = tr_2 Phi(rho) = Lambda(rho)
    and Phi*(A (x) I) = Phi*(I (x) A) = Lambda*(A)."""
    rng = np.random.default_rng([19, d, ["pinching", "norm1", "generic"].index(kind)])
    ch = random_eb_channel(d, rng, kind=kind)
    _assert_choi_kraus_roundtrip(ch, rng)
    lift = SymmetricLift(ch)
    for _ in range(10):
        rho, a = random_density(d, rng), random_hermitian(d, rng)
        for side in (1, 2):
            np.testing.assert_allclose(partial_trace(lift.apply_schrodinger(rho), (d, d), side),
                                       ch.apply_schrodinger(rho), rtol=0, atol=1e-12)
        for lifted in (np.kron(a, np.eye(d)), np.kron(np.eye(d), a)):
            np.testing.assert_allclose(lift.apply_heisenberg(lifted), ch.apply_heisenberg(a),
                                       rtol=0, atol=1e-12)


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


@pytest.mark.parametrize("kind", ["kraus", "choi", "measure_prepare"])
@pytest.mark.parametrize("picture, side", [("schrodinger", "d_in"), ("heisenberg", "d_out")])
@pytest.mark.parametrize("shape", [(3, 3), (2, 3)])
def test_every_channel_refuses_an_operand_of_the_wrong_shape(kind, picture, side, shape):
    ch = {"kraus": KrausChannel([np.eye(2)]), "choi": choi_transform(_pinching_channel(2)),
          "measure_prepare": _pinching_channel(2)}[kind]
    with pytest.raises(ChannelError, match=re.escape(
            f"operand shape {shape} does not match {side}=2")):
        apply(ch, np.ones(shape), picture)


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


def test_symmetric_lift_of_a_one_dimensional_lift():
    """At d = 1 a lift is square, so it is a valid base: its states are read as
    any base's are, through `states`."""
    lift = symmetric_lift(symmetric_lift(_pinching_channel(1)))
    assert (lift.d_in, lift.d_out) == (1, 1)
    np.testing.assert_array_equal(lift.apply_heisenberg(np.eye(1)), np.eye(1))


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


def _edge_state(d, trace_offset, negativity, rotate, seed):
    """A d x d state of trace 1 + trace_offset * TRACE_TOL whose smallest
    eigenvalue is -negativity * PSD_TOL, turned by a random unitary if `rotate`."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(d))
    if d > 1:
        w[1:] *= (1.0 + negativity * PSD_TOL) / w[1:].sum()
        w[0] = -negativity * PSD_TOL
    w[-1] += trace_offset * TRACE_TOL
    u = random_unitary(d, rng) if rotate else np.eye(d)
    return as_hermitian(u @ np.diag(w) @ dagger(u))


def _lift_refuses_where_the_dense_check_does(base):
    """`SymmetricLift(base)`, or None where it refuses, after asserting that it
    refuses exactly where `as_density` of some dense s (x) s of the base's states
    at the derived tolerances does, except where a dense eigenvalue or trace lies
    within the rounding allowance of its bound."""
    d = base.d_out
    rounding = 8.0 * d * d * np.finfo(float).eps
    psd_tol = PSD_TOL * (1.0 + TRACE_TOL + d * PSD_TOL) + rounding
    trace_tol = TRACE_TOL * (2.0 + TRACE_TOL) + rounding
    dense_accepts, near = True, False
    for s in base.states:
        dense = np.kron(s, s)
        try:
            as_density(dense, psd_tol=psd_tol, trace_tol=trace_tol)
        except OperatorError:
            dense_accepts = False
        near |= min(abs(np.linalg.eigvalsh(dense).min() + psd_tol),
                    abs(abs(np.trace(dense).real - 1.0) - trace_tol)) <= rounding
    try:
        lift = SymmetricLift(base)
    except OperatorError:
        lift = None
    assert (lift is not None) == dense_accepts or near
    return lift


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
    state = _edge_state(d, trace_offset, negativity, rotate, seed)
    try:
        base = MeasurePrepareChannel(DiscretePOVM((np.eye(d),)), [state])
    except OperatorError:  # rounding took the state past the base's own tolerance
        assume(False)
    lift = SymmetricLift(base)
    assert (lift.d_in, lift.d_out) == (d, d * d)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6), st.floats(-3.0, 3.0), st.floats(0.0, 3.0), st.booleans(),
       st.integers(0, 2 ** 32 - 1))
@example(2, 0.8, 0.0, False, 0)
@example(2, 0.0, 1.0, False, 0)  # eigenvalues -eps and 1 + eps: the lift has -eps (1 + eps)
@example(2, 1.0, 1.0, False, 0)
@example(6, 1.0, 1.0, False, 0)
@example(6, -1.0, 1.0, True, 1)
@example(2, 3.0, 0.0, False, 0)  # |tr(s)^2 - 1| = 6e-10: refused
@example(2, 0.0, 3.0, False, 0)  # eigenvalue product -3e-10: refused
def test_symmetric_lift_check_refuses_where_the_dense_check_does(d, trace_offset, negativity,
                                                                 rotate, seed):
    """Base states up to three times past the base's own trace and PSD
    tolerances, prepared without the base's check: the lift, which checks each
    s (x) s on the d x d spectrum of s, refuses exactly where `as_density` of
    the dense s (x) s at the derived tolerances does, except where the dense
    eigenvalue or trace lies within the rounding allowance of its bound.  An
    accepted lift reads `states` as np.kron(s, s) bit for bit."""
    state = _edge_state(d, trace_offset, negativity, rotate, seed)
    base = MeasurePrepareChannel.__new__(MeasurePrepareChannel)
    base._prepare(DiscretePOVM((np.eye(d),)), [state])
    lift = _lift_refuses_where_the_dense_check_does(base)
    if lift is not None:
        assert (lift.d_in, lift.d_out) == (d, d * d)
        np.testing.assert_array_equal(lift.states[0], np.kron(state, state))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 3.0)),
                                   min_size=1, max_size=3),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(2, [(0.0, 0.0), (0.0, 3.0)], False, 0)  # the second state's product -3e-10: refused
def test_symmetric_lift_of_a_prepared_base_of_several_states(d, edges, rotate, seed):
    """A base of several states, each up to three times past the base's trace
    and PSD tolerances and prepared by `_prepare` without the base's check: its
    lift refuses exactly where the dense check of some s (x) s does."""
    states = [_edge_state(d, t, n, rotate, seed + k) for k, (t, n) in enumerate(edges)]
    base = MeasurePrepareChannel.__new__(MeasurePrepareChannel)
    base._prepare(DiscretePOVM(tuple(np.eye(d) / len(states) for _ in states)), states)
    _lift_refuses_where_the_dense_check_does(base)


@settings(max_examples=100, deadline=None)
@given(st.floats(-1.5, 1.5), st.booleans(), st.booleans())
@example(0.4, False, False)  # tr(s)^4 is 1.6e-10 off one: the lift of the lift accepts
@example(0.6, False, False)  # 2.4e-10 off: refused
@example(0.0, True, True)
def test_symmetric_lift_of_a_one_dimensional_lift_refuses_where_the_dense_check_does(
        trace_offset, negative, as_complex):
    """At d = 1 the state [t], t = +-(1 + trace_offset * TRACE_TOL), prepared
    without a check: its lift, and the lift of that lift (whose base has no
    stacked states of its own), each refuse exactly where the dense check of
    their base's s (x) s does."""
    t = (-1.0 if negative else 1.0) * (1.0 + trace_offset * TRACE_TOL)
    base = MeasurePrepareChannel.__new__(MeasurePrepareChannel)
    base._prepare(DiscretePOVM((np.eye(1),)), [np.array([[t]], dtype=complex if as_complex
                                                       else float)])
    lift = _lift_refuses_where_the_dense_check_does(base)
    if lift is not None:
        lift_of_lift = _lift_refuses_where_the_dense_check_does(lift)
        # tr(s)^4 is about 4 * trace_offset * TRACE_TOL off one, at most 1.6e-10 here
        assert lift_of_lift is not None or abs(trace_offset) > 0.4


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


def _loop_heisenberg(effects, states, a):
    out = np.zeros(effects[0].shape, dtype=complex)
    for g, s in zip(effects, states):
        out += np.trace(s @ a) * g
    return out


def _loop_schrodinger(effects, states, rho):
    out = np.zeros(states[0].shape, dtype=complex)
    for g, s in zip(effects, states):
        out += np.trace(g @ rho) * s
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.sampled_from(["pinching", "norm1", "generic"]),
       st.integers(0, 2 ** 32 - 1))
def test_measure_prepare_actions_equal_the_per_term_loop(d, kind, seed):
    """Both actions of a measure-and-prepare channel, whose weights come from one
    stacked product, equal the per-term loop sum_i tr(.) X_i bit for bit; so do
    those of its symmetric lift, which forms each s (x) s on its own."""
    rng = np.random.default_rng(seed)
    ch = random_eb_channel(d, rng, kind)
    effects, states = ch.povm.effects, ch.states
    lift = SymmetricLift(ch)
    lifted = [np.kron(s, s) for s in states]
    for _ in range(3):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        big = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        np.testing.assert_array_equal(ch.apply_heisenberg(x), _loop_heisenberg(effects, states, x))
        np.testing.assert_array_equal(ch.apply_schrodinger(x),
                                      _loop_schrodinger(effects, states, x))
        np.testing.assert_array_equal(lift.apply_heisenberg(big),
                                      _loop_heisenberg(effects, lifted, big))
        np.testing.assert_array_equal(lift.apply_schrodinger(x),
                                      _loop_schrodinger(effects, lifted, x))


@pytest.mark.parametrize("d", [2, 8, 17, 32])
def test_measure_prepare_actions_equal_the_loop_at_position_sizes(d):
    """At the sizes of the position sweep (up to 17 atoms at 32 levels) the
    batched actions still add the same terms in the same order."""
    rng = np.random.default_rng(d)
    u = random_unitary(d, rng)
    k = min(d, 17)
    cuts = np.array_split(np.arange(d), k)
    effects = [u[:, c] @ dagger(u[:, c]) for c in cuts]
    states = [e / len(c) for e, c in zip(effects, cuts)]
    ch = MeasurePrepareChannel(DiscretePOVM(tuple(effects)), states)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    np.testing.assert_array_equal(ch.apply_heisenberg(a),
                                  _loop_heisenberg(ch.povm.effects, ch.states, a))
    np.testing.assert_array_equal(ch.apply_schrodinger(a),
                                  _loop_schrodinger(ch.povm.effects, ch.states, a))


@pytest.mark.parametrize("d_in, d_out", [(1, 1), (2, 2), (2, 3), (4, 2)])
def test_choi_actions_equal_their_np_kron_form(d_in, d_out):
    rng = np.random.default_rng(d_in * 10 + d_out)
    ch = choi_transform(random_kraus_channel(d_in, d_out, 2, rng))
    rho = random_density(d_in, rng)
    a = random_hermitian(d_out, rng)
    dims = (d_in, d_out)
    np.testing.assert_array_equal(
        ch.apply_schrodinger(rho),
        partial_trace(ch.matrix @ np.kron(rho.T, np.eye(d_out)), dims, side=1))
    np.testing.assert_array_equal(
        ch.apply_heisenberg(a),
        partial_trace(ch.matrix @ np.kron(np.eye(d_in), a), dims, side=2).T)


def _gram_povm(d, k, real, rng):
    """k effects on C^d normalised from random Gram matrices, real or complex."""
    def factor():
        g = rng.standard_normal((d, d))
        return g if real else g + 1j * rng.standard_normal((d, d))

    raw = [g @ dagger(g) for g in (factor() for _ in range(k))]
    w, v = np.linalg.eigh(sum(raw))
    inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
    return [inv_sqrt @ a @ inv_sqrt for a in raw]


def _operator(d, real, rng):
    x = rng.standard_normal((d, d))
    return x if real else x + 1j * rng.standard_normal((d, d))


def _state(d, real, rng):
    g = _operator(d, real, rng)
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def _assert_matches_complex(got, want, real):
    """`got` is float64 exactly when all its inputs were, and equals `want`, the
    action on their complex128 copies, within rounding."""
    assert got.dtype == (np.float64 if real else np.complex128)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * max(1.0, np.abs(want).max()))


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("effects_real", [True, False])
@pytest.mark.parametrize("states_real", [True, False])
@pytest.mark.parametrize("operand_real", [True, False])
def test_measure_prepare_actions_on_real_and_complex_operators(d, effects_real, states_real,
                                                               operand_real):
    """Real effects, states and operands stay float64, and the actions promote as
    they add the terms: in both pictures, of the channel and of its symmetric
    lift, a result is real only when the effects, states and operand all are,
    and it equals the action on their complex128 copies within rounding."""
    rng = np.random.default_rng(100 * d + 4 * effects_real + 2 * states_real + operand_real)
    effects = _gram_povm(d, 3, effects_real, rng)
    states = [_state(d, states_real, rng) for _ in effects]
    x, big = _operator(d, operand_real, rng), _operator(d * d, operand_real, rng)
    ch = MeasurePrepareChannel(DiscretePOVM(tuple(effects)), states)
    ref = MeasurePrepareChannel(DiscretePOVM(tuple(e.astype(complex) for e in effects)),
                                [s.astype(complex) for s in states])
    assert ch._effect_stack.dtype == (np.float64 if effects_real else np.complex128)
    assert ch._state_stack.dtype == (np.float64 if states_real else np.complex128)
    real = effects_real and states_real and operand_real
    for channel, reference, (rho, a) in ((ch, ref, (x, x)),
                                         (SymmetricLift(ch), SymmetricLift(ref), (x, big))):
        _assert_matches_complex(channel.apply_schrodinger(rho),
                                reference.apply_schrodinger(rho.astype(complex)), real)
        _assert_matches_complex(channel.apply_heisenberg(a),
                                reference.apply_heisenberg(a.astype(complex)), real)


@pytest.mark.parametrize("d_in, d_out, n_ops", [(1, 1, 1), (2, 2, 2), (2, 3, 2), (3, 2, 3)])
@pytest.mark.parametrize("operand_real", [True, False])
def test_kraus_and_choi_actions_on_real_and_complex_operators(d_in, d_out, n_ops, operand_real):
    """A channel with real Kraus operators, or with their real Choi matrix, keeps
    them float64; its actions are real on a real operand and equal, within
    rounding, the actions of the complex128 copies."""
    rng = np.random.default_rng(10 * d_in + d_out + 100 * operand_real)
    q, _ = np.linalg.qr(rng.standard_normal((d_out * n_ops, d_out * n_ops)))
    kraus = [q[k * d_out:(k + 1) * d_out, :d_in] for k in range(n_ops)]
    choi = choi_transform(KrausChannel(kraus)).matrix
    assert not choi.imag.any()
    pairs = ((KrausChannel(kraus), KrausChannel([k.astype(complex) for k in kraus])),
             (ChoiChannel(choi.real, d_in, d_out), ChoiChannel(choi, d_in, d_out)))
    rho, a = _operator(d_in, operand_real, rng), _operator(d_out, operand_real, rng)
    for channel, reference in pairs:
        _assert_matches_complex(channel.apply_schrodinger(rho),
                                reference.apply_schrodinger(rho.astype(complex)), operand_real)
        _assert_matches_complex(channel.apply_heisenberg(a),
                                reference.apply_heisenberg(a.astype(complex)), operand_real)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5), st.booleans(), st.booleans(),
       st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 1, True, True, True, 0)
@example(2, 3, 4, True, False, True, 1)   # real effects, complex states: promoted sums
@example(3, 2, 3, False, True, True, 2)
def test_stacked_heisenberg_action_equals_each_operand_alone(d, n_effects, k, effects_real,
                                                            states_real, operand_real, seed):
    """`apply_heisenberg` of a stack (k, d, d) gives each image bit for bit as it
    gives it alone (dtype, values and signed zeros), for every real/complex mix
    of effects, states and operands, including the sums `_weighted_sum` promotes
    at a complex term, for the channel and for its symmetric lift."""
    rng = np.random.default_rng(seed)
    # U diag(p_i) U^dag with each diagonal's weights on the simplex: a POVM for
    # every draw (normalised Gram matrices can be too ill-conditioned to pass)
    u = np.linalg.qr(_operator(d, effects_real, rng))[0]
    effects = [(u * w) @ dagger(u) for w in rng.dirichlet(np.ones(n_effects), size=d).T]
    states = [_state(d, states_real, rng) for _ in effects]
    ch = MeasurePrepareChannel(DiscretePOVM(tuple(effects)), states)
    for channel, size in ((ch, d), (SymmetricLift(ch), d * d)):
        stack = np.array([_operator(size, operand_real, rng) for _ in range(k)])
        stack[0] *= -0.0  # signed zeros survive as they do alone
        images = channel.apply_heisenberg(stack)
        assert images.shape == (k, d, d)
        for image, a in zip(images, stack):
            alone = channel.apply_heisenberg(a)
            assert image.dtype == alone.dtype
            assert image.tobytes() == alone.tobytes()


def test_stacked_heisenberg_operands_are_checked_like_one():
    ch = MeasurePrepareChannel(DiscretePOVM((np.eye(2),)), [np.eye(2) / 2])
    with pytest.raises(ChannelError,
                       match=re.escape("operand shape (2, 3, 3) does not match d_out=2")):
        ch.apply_heisenberg(np.zeros((2, 3, 3)))
    with pytest.raises(OperatorError, match="finite"):
        ch.apply_heisenberg(np.array([np.eye(2), np.full((2, 2), np.nan)]))
    with pytest.raises(OperatorError, match="expected a 2-D matrix"):
        ch.apply_heisenberg(np.zeros((0, 2, 2)))
    assert ch.apply_heisenberg(np.array([np.eye(2)], dtype=np.float32)).dtype == np.complex128


def _reference_channel_matrix(channel, picture):
    """The per-basis loop: column k d + l is the image of |k><l| taken alone."""
    d = channel.d_out if picture == "heisenberg" else channel.d_in
    d_target = channel.d_in if picture == "heisenberg" else channel.d_out
    m = np.zeros((d_target ** 2, d ** 2), dtype=complex)
    for k in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = 1.0
            m[:, k * d + l] = apply(channel, e, picture).reshape(-1)
    return m


def _channel_of_kind(kind, d, real, rng):
    """A channel on C^d of `kind` with real or complex data; all but the lift
    map into C^(d + 1), and the lift maps into C^d (x) C^d."""
    if kind in ("kraus", "choi"):
        q = np.linalg.qr(_operator(2 * (d + 1), real, rng))[0]
        kraus = KrausChannel([q[k * (d + 1):(k + 1) * (d + 1), :d] for k in range(2)])
        return kraus if kind == "kraus" else choi_transform(kraus)
    u = np.linalg.qr(_operator(d, real, rng))[0]
    effects = [(u * w) @ dagger(u) for w in rng.dirichlet(np.ones(3), size=d).T]
    d_out = d if kind == "lift" else d + 1
    ch = MeasurePrepareChannel(DiscretePOVM(tuple(effects)),
                               [_state(d_out, real, rng) for _ in effects])
    return SymmetricLift(ch) if kind == "lift" else ch


@pytest.mark.parametrize("kind", ["kraus", "choi", "measure_prepare", "lift"])
@pytest.mark.parametrize("picture", ["schrodinger", "heisenberg"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_actions_and_channel_matrix_match_the_per_basis_loop(kind, picture, d):
    """`channel_matrix`, one stacked action on the matrix units (in stacks of at
    most d_t^2 units where the operand dimension exceeds the image's, as in a
    lift's Heisenberg picture), equals the per-basis loop byte for byte, and
    every action of every kind gives each image of a stack (k, d, d) byte for
    byte as it gives it alone: dtype, values and signed zeros, on real and
    complex channels and operands."""
    rng = np.random.default_rng(1000 + 10 * d + 2 * (picture == "heisenberg"))
    for real in (True, False):
        channel = _channel_of_kind(kind, d, real, rng)
        m = channel_matrix(channel, picture)
        want = _reference_channel_matrix(channel, picture)
        assert m.dtype == want.dtype and m.tobytes() == want.tobytes()
        size = channel.d_out if picture == "heisenberg" else channel.d_in
        for operand_real in (True, False):
            stack = np.array([_operator(size, operand_real, rng) for _ in range(3)])
            stack[0] *= -0.0
            stack[1, 0] = 0.0
            images = apply(channel, stack, picture)
            for image, x in zip(images, stack):
                alone = apply(channel, x, picture)
                assert image.dtype == alone.dtype and image.tobytes() == alone.tobytes()


def test_stacked_choi_action_is_the_same_in_any_chunking(monkeypatch):
    """A Choi channel takes a stack in chunks whose products hold at most
    `CHOI_CHUNK_ENTRIES` entries; the images are the same bytes for any chunk
    size, one operand per chunk included (J is 12 x 12 here, 144 entries)."""
    rng = np.random.default_rng(1100)
    channel = _channel_of_kind("choi", 3, False, rng)
    rhos = np.array([_operator(3, False, rng) for _ in range(7)])
    observables = np.array([_operator(4, False, rng) for _ in range(7)])
    want = channel.apply_schrodinger(rhos), channel.apply_heisenberg(observables)
    for entries in (1, 2 * 144, 3 * 144 + 1):
        monkeypatch.setattr(channels, "CHOI_CHUNK_ENTRIES", entries)
        assert channel.apply_schrodinger(rhos).tobytes() == want[0].tobytes()
        assert channel.apply_heisenberg(observables).tobytes() == want[1].tobytes()
