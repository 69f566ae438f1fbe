import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import (
    commuting_pair,
    random_commuting_states,
    random_density,
    random_eb_channel,
    random_noncommuting_states,
    random_pvm,
    random_unitary,
    rotated_mub_effects,
)

from broadcastlab import contextuality
from broadcastlab.channels import ChoiChannel, MeasurePrepareChannel, choi_transform
from broadcastlab.config import CAP_ENV_VAR, DimensionCapError
from broadcastlab.contextuality import (
    PINCHING_NOTE,
    PPT_NOTE,
    AxiomViolationError,
    FeasibilityProblem,
    _pinching_witness,
    _verify_witness,
    approx_check,
    broadcaster_from_commuting,
    check_measurements_feasibility,
    check_states,
    decide_measurements,
    extend_effect_functional,
    pvm_embed,
)
from broadcastlab.operators import (
    PSD_TOL,
    TRACE_TOL,
    DiscretePOVM,
    NotCommutingError,
    OperatorError,
    _check_density,
    _trace,
    as_effect,
    as_hermitian,
    commutator_defect,
    dagger,
    hermitian_basis,
    op_norm,
    partial_trace,
    trace_norm,
)

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


# -- state sets --------------------------------------------------------------


def test_singleton_state_non_confirming():
    v = check_states([random_density(3, np.random.default_rng(50))])
    assert v.verdict == "non_confirming"


def test_projector_pair_confirming_with_half_commutator():
    v = check_states([KET0, PLUS])
    assert v.verdict == "confirming"
    # oracle: [|0><0|, |+><+|] = (|0><1| - |1><0|)/2, operator norm 1/2
    oracle = op_norm(np.array([[0.0, 0.5], [-0.5, 0.0]]))
    assert v.commutator_norm == pytest.approx(oracle, abs=1e-15)
    assert v.confirming_pair == (0, 1)
    assert v.witness is None


def test_diagonal_states_non_confirming_with_tight_witness():
    states = [np.diag([0.5, 0.5]).astype(complex),
              np.diag([1.0 / 3.0, 2.0 / 3.0]).astype(complex)]
    v = check_states(states)
    assert v.verdict == "non_confirming"
    for rho in states:
        assert trace_norm(v.witness.apply_schrodinger(rho) - rho) <= 1e-12
    assert any("koashi_imoto" in n for n in v.notes)


def test_check_states_random_families_loop():
    rng = np.random.default_rng(51)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 5))
        states = random_commuting_states(d, n, rng)
        v = check_states(states)
        assert v.verdict == "non_confirming"
        # witness fixed space contains every input state
        from broadcastlab.fixedpoint import fixed_space
        sp = fixed_space(v.witness)
        for rho in states:
            inside = sum(np.vdot(b, rho) * b for b in sp.basis)
            assert np.linalg.norm(rho - inside) <= 1e-7
        bad = random_noncommuting_states(d, n, rng)
        assert check_states(bad).verdict == "confirming"


def test_broadcaster_single_pure_state():
    bc = broadcaster_from_commuting([KET0])
    out = bc.apply_schrodinger(KET0)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 1.0
    np.testing.assert_allclose(out, want, atol=1e-14)
    np.testing.assert_allclose(partial_trace(out, (2, 2), side=2), KET0, atol=1e-14)
    np.testing.assert_allclose(partial_trace(out, (2, 2), side=1), KET0, atol=1e-14)


def test_broadcaster_marginals_for_commuting_pair():
    from broadcastlab.channels import swap_unitary

    states = [np.diag([0.2, 0.8]).astype(complex), np.diag([0.7, 0.3]).astype(complex)]
    bc = broadcaster_from_commuting(states)
    s = swap_unitary(2)
    for rho in states:
        out = bc.apply_schrodinger(rho)
        assert trace_norm(partial_trace(out, (2, 2), side=2) - rho) <= 1e-12
        assert trace_norm(partial_trace(out, (2, 2), side=1) - rho) <= 1e-12
        np.testing.assert_allclose(s @ out @ s, out, atol=1e-14)


def test_check_states_broadcaster_is_symmetric_lift_of_witness():
    from broadcastlab.channels import SymmetricLift
    from broadcastlab.serialization import channel_from_json, channel_to_json

    states = random_commuting_states(3, 3, np.random.default_rng(52))
    v = check_states(states)
    assert isinstance(v.broadcaster, SymmetricLift)
    assert v.broadcaster.povm is v.witness.povm
    for pair, s in zip(v.broadcaster.states, v.witness.states):
        np.testing.assert_array_equal(pair, np.kron(s, s))
    back = channel_from_json(channel_to_json(v.broadcaster))
    assert back.kind == "symmetric_lift"
    for got, want in zip(back.states, v.broadcaster.states):
        np.testing.assert_array_equal(got, want)


def test_check_states_at_d16_holds_no_lifted_state_set():
    """The broadcaster stores only its pinching base and forms each s (x) s one
    term at a time, so `check_states` at d = 16 peaks below 8 MiB of traced
    memory: the sixteen 256 x 256 lifted states alone take 16 MiB."""
    states = random_commuting_states(16, 3, np.random.default_rng(16))
    tracemalloc.start()
    try:
        verdict = check_states(states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.verdict == "non_confirming"
    assert peak < 8 * 2 ** 20


def test_broadcaster_refuses_noncommuting():
    with pytest.raises(NotCommutingError) as err:
        broadcaster_from_commuting([KET0, PLUS])
    assert err.value.pair == (0, 1)


# -- PVM partition embedding -------------------------------------------------


def test_pvm_embed_two_subsets_paper_partition():
    labels = ["a", "b", "c", "d"]
    projs = [np.diag([1.0 if i == k else 0.0 for i in range(4)]).astype(complex)
             for k in range(4)]
    emb = pvm_embed(labels, projs, [{"a", "b"}, {"b", "c"}])
    patterns = [v for v, _ in emb.atom_sets]
    assert patterns == [0, 1, 2, 3]
    atom_map = dict(emb.atom_sets)
    assert atom_map[0] == frozenset({"d"})
    assert atom_map[1] == frozenset({"a"})   # K_1 only
    assert atom_map[2] == frozenset({"c"})   # K_2 only
    assert atom_map[3] == frozenset({"b"})   # K_1 and K_2
    assert emb.index_sets == (frozenset({1, 3}), frozenset({2, 3}))
    assert emb.max_fix_residual <= 1e-12


def test_pvm_embed_single_projector():
    rng = np.random.default_rng(52)
    u = random_unitary(3, rng)
    p = u @ np.diag([1.0, 1.0, 0.0]).astype(complex) @ dagger(u)
    emb = pvm_embed(["out", "in"], [np.eye(3) - p, p], [{"in"}])
    assert len(emb.atom_effects) == 2
    np.testing.assert_allclose(emb.atom_effects[0], np.eye(3) - p, atol=1e-12)
    np.testing.assert_allclose(emb.atom_effects[1], p, atol=1e-12)
    assert emb.max_fix_residual <= 1e-14


def test_pvm_embed_random_unions_fixed_exactly():
    rng = np.random.default_rng(53)
    for _ in range(5):
        projs = random_pvm(6, rng, n_outcomes=5)
        labels = list(range(5))
        subsets = []
        for _ in range(3):
            size = int(rng.integers(1, 5))
            subsets.append(set(rng.choice(5, size=size, replace=False).tolist()))
        emb = pvm_embed(labels, projs, subsets)
        assert emb.max_fix_residual <= 1e-12
        # oracle: apply the assembled sum formula directly
        for kk in subsets:
            a_k = sum(projs[i] for i in kk)
            direct = sum(np.trace(s @ a_k) * g
                         for g, s in zip(emb.atom_effects, emb.states))
            assert op_norm(direct - a_k) <= 1e-12


def test_pvm_embed_rejects_non_pvm_and_blowup():
    non_orth = [PLUS, MINUS, KET0]  # not orthogonal to each other
    with pytest.raises(OperatorError):
        pvm_embed([0, 1, 2], non_orth, [{0}])
    projs = random_pvm(4, np.random.default_rng(54), n_outcomes=4)
    with pytest.raises(OperatorError):
        pvm_embed(list(range(4)), projs, [{0}] * 21)
    with pytest.raises(OperatorError):
        pvm_embed([0, 0, 1, 2], projs, [{0}])


@pytest.mark.parametrize("projs, message", [
    ([KET0, PLUS, KET1], "outcomes 'a' and 'b' are not orthogonal"),
    ([KET0, KET1, PLUS], "outcomes 'a' and 'c' are not orthogonal"),
    ([KET0, KET1, KET1], "outcomes 'b' and 'c' are not orthogonal"),
    ([KET0, 2.0 * KET1, KET1], "outcome 'b' is not a projection"),
    ([KET0, 2.0 * KET1, PLUS], "outcomes 'a' and 'c' are not orthogonal"),
    ([KET0, PLUS, 2.0 * KET1], "outcomes 'a' and 'b' are not orthogonal"),
])
def test_pvm_embed_names_the_first_failing_check(projs, message):
    """pvm_embed reports what its loop over P_a^2 - P_a and then P_a P_b (b after
    a), a in label order, meets first."""
    with pytest.raises(OperatorError, match=message):
        pvm_embed(["a", "b", "c"], projs, [{"a"}])


@pytest.mark.parametrize("last, message", [
    ("overlap", "outcomes 30 and 31 are not orthogonal"),
    ("scaled", "outcome 31 is not a projection"),
])
def test_pvm_embed_refuses_a_defect_in_its_last_labels_at_d32(last, message):
    """At d = 32, with 32 labels, a defect that only the last products show is
    still found and named."""
    projs = [np.diag(np.eye(32)[k]).astype(complex) for k in range(32)]
    if last == "overlap":
        v = (np.eye(32)[30] + np.eye(32)[31]) / np.sqrt(2.0)
        projs[31] = np.outer(v, v).astype(complex)
    else:
        projs[31] = 2.0 * projs[31]
    with pytest.raises(OperatorError, match=message):
        pvm_embed(list(range(32)), projs, [{0}])


@pytest.mark.parametrize("shift, fails", [(5e-13, False), (2e-12, True)])
def test_pvm_embed_gate_stays_1e_12_for_an_exact_pvm(monkeypatch, shift, fails):
    """Exact 0/1 projections measure no defect, so the fixed-point gate is 1e-12:
    a Heisenberg image moved by `shift` passes below it and fails above it."""
    apply = MeasurePrepareChannel.apply_heisenberg
    monkeypatch.setattr(MeasurePrepareChannel, "apply_heisenberg",
                        lambda self, a: apply(self, a) + shift * np.eye(a.shape[-1]))
    projs = [np.diag(row) for row in np.eye(3)]
    if fails:
        with pytest.raises(RuntimeError, match="fixed-point residual"):
            pvm_embed("xyz", projs, [{"x", "y"}])
    else:
        assert pvm_embed("xyz", projs, [{"x", "y"}]).max_fix_residual == pytest.approx(shift)


@pytest.mark.parametrize("eta", [1e-9, 1e-8, 1e-7])
def test_pvm_embed_accepted_defect_ends_in_the_embedding(eta):
    """Projections (1 - eta) p0 and p1 + eta p0 are eta (1 - eta) off idempotent
    and orthogonal; accepted at tol = 1e-6, they embed with a residual of about
    eta, far above 1e-12 but inside the gate the measured defects give."""
    u = random_unitary(2, np.random.default_rng(17))
    p0, p1 = u @ np.diag([1.0, 0.0]) @ u.conj().T, u @ np.diag([0.0, 1.0]) @ u.conj().T
    emb = pvm_embed([0, 1], [(1 - eta) * p0, p1 + eta * p0], [{0}], tol=1e-6)
    assert emb.max_fix_residual == pytest.approx(eta, rel=1e-3)


# -- measurement feasibility -------------------------------------------------


def test_feasibility_qubit_pvm_feasible_and_cross_checked():
    problem = FeasibilityProblem([KET0, KET1])
    verdict = check_measurements_feasibility(problem)
    assert verdict.status == "feasible"
    assert max(verdict.final_residuals.values()) <= 1e-7
    assert verdict.verification["max_residual"] <= 1e-7
    # cross-check: the pvm_embed witness satisfies the same constraints
    emb = pvm_embed([0, 1], [KET0, KET1], [{0}, {1}])
    j = choi_transform(emb.channel).matrix
    assert problem.residuals(j)["affine"] <= 1e-10
    assert np.linalg.norm(j - problem.project_affine(j)) <= 1e-10
    assert np.linalg.norm(j - problem.project_psd(j)) <= 1e-10
    assert np.linalg.norm(j - problem.project_ppt(j)) <= 1e-10


def test_feasibility_identity_effect_trivial():
    verdict = check_measurements_feasibility(FeasibilityProblem([np.eye(2)]))
    assert verdict.status == "feasible"
    assert verdict.cycles == 0


def test_feasibility_zx_union_stalls():
    problem = FeasibilityProblem([KET0, KET1, PLUS, MINUS])
    verdict = check_measurements_feasibility(problem)
    assert verdict.status == "infeasible_stalled"
    assert min(verdict.residual_history) >= 1e-3
    assert verdict.witness_channel is None
    assert any("PPT exact" in n for n in verdict.notes)


def test_feasibility_schrodinger_picture_agrees_on_acceptance_instances():
    feasible = check_measurements_feasibility(
        FeasibilityProblem([KET0, KET1], picture="schrodinger"))
    assert feasible.status == "feasible"
    stalled = check_measurements_feasibility(
        FeasibilityProblem([KET0, KET1, PLUS, MINUS], picture="schrodinger"))
    assert stalled.status == "infeasible_stalled"


def test_feasibility_witness_reverified_independently():
    verdict = check_measurements_feasibility(FeasibilityProblem([KET0, KET1]))
    v = verdict.verification
    assert v["min_eigenvalue"] >= -1e-7
    assert v["min_ppt_eigenvalue"] >= -1e-7
    assert v["trace_preservation"] <= 1e-7
    assert max(v["fixing"]) <= 1e-7
    assert verdict.witness_channel is not None
    heis = verdict.witness_channel.apply_heisenberg(KET0)
    assert op_norm(heis - KET0) <= 1e-6


def test_feasibility_dimension_cap(monkeypatch):
    monkeypatch.setenv(CAP_ENV_VAR, "8")
    with pytest.raises(DimensionCapError):
        FeasibilityProblem([np.eye(4) / 1.0])


def test_pvm_embed_effects_feasible():
    rng = np.random.default_rng(55)
    projs = random_pvm(3, rng, n_outcomes=3)
    emb = pvm_embed([0, 1, 2], projs, [{0, 1}, {2}])
    effects = [sum(projs[i] for i in kk) for kk in ({0, 1}, {2})]
    verdict = check_measurements_feasibility(FeasibilityProblem(effects))
    assert verdict.status == "feasible"


# -- measurement sets decided by their pinching --------------------------------

EB_NOTE = "d >= 3: PPT feasibility does not certify an entanglement-breaking witness"


@st.composite
def _commuting_effects(draw):
    """Effects diagonal in one Haar-random basis of C^d, d = 2..6: a PVM, or one
    to four effects whose spectra are uniform or drawn from a few levels, so
    that eigenvalues repeat within and across the effects."""
    d = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    picture = draw(st.sampled_from(["heisenberg", "schrodinger"]))
    if draw(st.booleans()):
        return random_pvm(d, rng), picture
    levels = draw(st.sampled_from([None, (0.0, 1.0), (0.0, 0.5, 1.0), (0.25, 0.75)]))
    spectra = [rng.uniform(0.0, 1.0, d) if levels is None else rng.choice(levels, d)
               for _ in range(draw(st.integers(1, 4)))]
    return commuting_pair(spectra, rng), picture


@settings(max_examples=60, deadline=None)
@given(_commuting_effects())
def test_commuting_effects_are_decided_by_their_pinching(case):
    effects, picture = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CAP_ENV_VAR, "36")  # d = 6 is over the default cap
        verdict = decide_measurements(effects, picture=picture)
    assert verdict.status == "feasible"
    assert verdict.cycles == 0
    witness = verdict.witness_channel
    assert isinstance(witness, MeasurePrepareChannel) and witness.kind == "measure_prepare"
    assert verdict.verification["max_residual"] <= 1e-7
    assert verdict.residual_history == (verdict.verification["max_residual"],)
    assert verdict.notes == (PPT_NOTE, PINCHING_NOTE)
    # the pinching is its own dual: it fixes every effect in both pictures
    for e in effects:
        assert op_norm(witness.apply_heisenberg(e) - e) <= 1e-7
        assert op_norm(witness.apply_schrodinger(e) - e) <= 1e-7


@settings(max_examples=40, deadline=None)
@given(_commuting_effects())
def test_pinching_verification_is_that_of_its_choi_channel(case):
    """The pinching's Choi matrix is checked once, by `_verify_witness`: its
    verification equals, bit for bit, the one of the matrix that
    `choi_transform` builds and checks as a `ChoiChannel`."""
    effects, picture = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(CAP_ENV_VAR, "36")  # d = 6 is over the default cap
        verdict = decide_measurements(effects, picture=picture)
    want = _verify_witness(tuple(map(as_effect, effects)), picture,
                           choi_transform(verdict.witness_channel).matrix)
    assert repr(verdict.verification) == repr(want)


def test_pinching_verdict_reports_the_verification():
    effects = commuting_pair(((0.9, 0.6, 0.3, 0.1), (0.2, 0.5, 0.7, 0.95)),
                             np.random.default_rng(60))
    verdict = decide_measurements(effects)
    v = verdict.verification
    assert verdict.final_residuals == {
        "psd": max(0.0, -v["min_eigenvalue"]),
        "ppt": max(0.0, -v["min_ppt_eigenvalue"]),
        "affine": max(v["trace_preservation"], *v["fixing"]),
    }
    assert v["max_residual"] == max(verdict.final_residuals.values())
    assert v["max_residual"] <= 1e-13


def test_set_off_the_commutator_threshold_takes_the_loop():
    """A commuting pair with one effect turned by 1e-4 fails the commutator test
    and gets the loop's verdict, cycle for cycle."""
    e0, e1 = np.diag([0.9, 0.2]).astype(complex), np.diag([0.3, 0.6]).astype(complex)
    turn = np.cos(1e-4) * np.eye(2) + 1j * np.sin(1e-4) * np.array([[0.0, 1.0], [1.0, 0.0]])
    effects = [e0, turn @ e1 @ dagger(turn)]
    assert commutator_defect(effects)[0] > 1e-9
    decided = decide_measurements(effects, budget=3000)
    looped = check_measurements_feasibility(FeasibilityProblem(effects, budget=3000))
    assert decided.cycles > 0
    assert (decided.status, decided.cycles, decided.residual_history) == (
        looped.status, looped.cycles, looped.residual_history)


def test_pinching_that_misses_tol_takes_the_loop():
    """The pinching is accepted at `tol` only; below its rounding the loop
    decides, cycle for cycle as on its own."""
    effects = commuting_pair(((0.75, 0.5), (0.1, 0.8)), np.random.default_rng(3))
    decided = decide_measurements(effects, tol=1e-300, budget=40)
    looped = check_measurements_feasibility(FeasibilityProblem(effects, tol=1e-300, budget=40))
    assert (decided.status, decided.cycles) == ("inconclusive", 40)
    assert decided.residual_history == looped.residual_history


def _trine_pair():
    """X_k = |k><k| (+) Y_k for k = 0, 1 at d = 5, Y_k the qubit trine POVM on
    span{|3>, |4>}: fixed by the measure-and-prepare channel with POVM
    {X_0, X_1, X_2} and states |k><k|, though X_0 and X_1 do not commute."""
    effects = []
    for k in range(2):
        v = np.array([np.cos(2 * np.pi * k / 3), np.sin(2 * np.pi * k / 3)])
        x = np.zeros((5, 5), dtype=complex)
        x[k, k] = 1.0
        x[3:, 3:] = (2.0 / 3.0) * np.outer(v, v)
        effects.append(x)
    return effects


def test_noncommuting_feasible_pair_runs_the_loop():
    effects = _trine_pair()
    assert commutator_defect(effects)[0] > 0.1
    verdict = decide_measurements(effects)
    assert verdict.status == "feasible"
    assert verdict.cycles > 0
    assert isinstance(verdict.witness_channel, ChoiChannel)
    assert verdict.verification["max_residual"] <= 1e-5
    assert verdict.notes == (PPT_NOTE, EB_NOTE)


@pytest.mark.parametrize("d", [2, 3])
def test_rotated_mub_sets_reach_the_loop_unchanged(d):
    """The EB caveat starts at d = 3, where the Choi matrix lives on 3 (x) 3."""
    effects = rotated_mub_effects(d, np.random.default_rng(70 + d))
    decided = decide_measurements(effects)
    looped = check_measurements_feasibility(FeasibilityProblem(effects))
    assert decided.status == looped.status == "infeasible_stalled"
    assert decided.cycles == looped.cycles
    assert decided.residual_history == looped.residual_history
    assert decided.notes == looped.notes
    assert (EB_NOTE in decided.notes) == (d >= 3)


def test_qubit_zx_stall_carries_no_eb_caveat():
    verdict = decide_measurements([KET0, KET1, PLUS, MINUS])
    assert verdict.status == "infeasible_stalled"
    assert verdict.notes == (PPT_NOTE,)


@pytest.mark.parametrize("kwargs, cap, error", [
    ({"effects": []}, None, OperatorError),
    ({"effects": [KET0, np.eye(3)]}, None, OperatorError),
    ({"effects": [np.eye(3)]}, "8", DimensionCapError),
    ({"effects": [KET0, KET1], "picture": "sideways"}, None, ValueError),
    ({"effects": [KET0, KET1], "budget": 0}, None, ValueError),
])
def test_decide_measurements_refuses_what_the_problem_refuses(kwargs, cap, error, monkeypatch):
    """Commuting or not, an input the feasibility problem refuses is refused
    before the pinching is tried."""
    if cap is not None:
        monkeypatch.setenv(CAP_ENV_VAR, cap)
    with pytest.raises(error):
        decide_measurements(**kwargs)
    effects = kwargs.pop("effects")
    with pytest.raises(error):
        FeasibilityProblem(effects, **kwargs)


# -- epsilon-criterion -------------------------------------------------------


def test_approx_check_identity_effect_zero():
    rng = np.random.default_rng(56)
    ch = random_eb_channel(3, rng, kind="generic")
    res = approx_check([np.eye(3)], ch, epsilon=1e-12)
    assert res.deviations[0] <= 1e-13
    assert res.passed


def test_approx_check_pvm_embed_exact():
    rng = np.random.default_rng(57)
    projs = random_pvm(5, rng, n_outcomes=4)
    subsets = [{0, 1}, {1, 2, 3}]
    emb = pvm_embed(list(range(4)), projs, subsets)
    effects = [sum(projs[i] for i in kk) for kk in subsets]
    res = approx_check(effects, emb.channel, epsilon=1e-10)
    assert res.passed
    assert max(res.deviations) <= 1e-12


def test_approx_check_sigma_x_projector_against_pinching():
    pinch = MeasurePrepareChannel(DiscretePOVM((KET0, KET1)), [KET0, KET1])
    res = approx_check([PLUS], pinch, epsilon=0.1)
    # oracle: Lambda*(P_+) - P_+ = -offdiagonal part, eigenvalues +-1/2
    oracle = np.max(np.abs(np.linalg.eigvalsh(np.diag(np.diag(PLUS)) - PLUS)))
    assert res.deviations[0] == pytest.approx(oracle, abs=1e-14)
    assert res.deviations[0] == pytest.approx(0.5, abs=1e-14)
    assert not res.passed


def test_approx_check_consistent_with_solver_residuals():
    verdict = check_measurements_feasibility(FeasibilityProblem([KET0, KET1]))
    res = approx_check([KET0, KET1], verdict.witness_channel, epsilon=1e-3)
    # the deviation is the same worst-state quantity the verifier measures,
    # so it can never under-report the solver's own residual floor
    for dev, floor in zip(res.deviations, verdict.verification["fixing"]):
        assert dev >= floor - 1e-12
        assert dev <= floor + 1e-9
    assert res.passed


# -- effect-functional extension ----------------------------------------------


def _effect_basis(d):
    """Effects spanning the Hermitian matrices, identity included."""
    effects = [np.eye(d, dtype=complex)]
    for b in hermitian_basis(d):
        w = np.linalg.eigvalsh(b)
        effects.append((b - w.min() * np.eye(d)) / max(1.0, 1.001 * (w.max() - w.min())))
    return effects


def test_extension_of_state_functional_is_state():
    d = 3
    rng = np.random.default_rng(58)
    effects = _effect_basis(d)
    samples = [random_density(d, rng) for _ in range(5)]
    values = np.array([[np.real(np.trace(r @ e)) for r in samples] for e in effects])
    fun = extend_effect_functional(effects, values, d)
    for _ in range(100):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        got = fun.evaluate(a)
        want = np.array([np.trace(r @ a) for r in samples])
        assert np.max(np.abs(got - want)) <= 1e-10


def test_extension_decomposition_independence_sigma_z():
    d = 2
    rng = np.random.default_rng(59)
    effects = _effect_basis(d)
    samples = [random_density(d, rng) for _ in range(3)]
    values = np.array([[np.real(np.trace(r @ e)) for r in samples] for e in effects])
    fun = extend_effect_functional(effects, values, d)
    sz = np.diag([1.0, -1.0]).astype(complex)
    canonical = fun.stage_hermitian(sz)
    shifted = fun.stage_hermitian(sz, decomposition=(KET0 + 0.3 * np.eye(2),
                                                     KET1 + 0.3 * np.eye(2)))
    np.testing.assert_allclose(canonical, shifted, atol=1e-12)


def test_extension_homogeneity_spot_check():
    d = 2
    rng = np.random.default_rng(60)
    effects = _effect_basis(d)
    samples = [random_density(d, rng) for _ in range(3)]
    values = np.array([[np.real(np.trace(r @ e)) for r in samples] for e in effects])
    fun = extend_effect_functional(effects, values, d)
    p = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    np.testing.assert_allclose(fun.stage_positive(2.5 * p),
                               2.5 * fun.stage_positive(p), atol=1e-13)


def test_extension_rejects_out_of_range_values():
    d = 2
    effects = _effect_basis(d)
    values = np.full((len(effects), 2), 0.5)
    values[1, 0] = 1.4
    with pytest.raises(AxiomViolationError) as err:
        extend_effect_functional(effects, values, d)
    assert "0 <= T(E) <= 1" in str(err.value)


def test_extension_rejects_nonlinear_values():
    d = 2
    rng = np.random.default_rng(61)
    effects = _effect_basis(d)
    samples = [random_density(d, rng) for _ in range(2)]
    values = np.array([[np.real(np.trace(r @ e)) for r in samples] for e in effects])
    values[2, 1] = min(1.0, values[2, 1] + 0.21)  # break additivity coherence
    with pytest.raises(AxiomViolationError) as err:
        extend_effect_functional(effects, values, d)
    assert err.value.axiom in ("linearity", "T(E+F) = T(E) + T(F)", "T(tE) = tT(E)", "T(I) = 1")


def test_extension_requires_unit_value_on_identity():
    d = 2
    effects = _effect_basis(d)
    values = np.full((len(effects), 1), 0.25)
    with pytest.raises(AxiomViolationError) as err:
        extend_effect_functional(effects, values, d)
    assert "T(I) = 1" in str(err.value)


def test_stage_positive_rejects_indefinite_input():
    d = 2
    rng = np.random.default_rng(62)
    effects = _effect_basis(d)
    samples = [random_density(d, rng) for _ in range(2)]
    values = np.array([[np.real(np.trace(r @ e)) for r in samples] for e in effects])
    fun = extend_effect_functional(effects, values, d)
    with pytest.raises(OperatorError):
        fun.stage_positive(np.diag([1.0, -1.0]))


def _loop_validate(fun):
    """The axiom checks of `ExtendedFunctional` as nested loops over pairs and
    triples of effects, one distance at a time: the reference for its batched
    Gram-matrix screen."""
    v = fun.values
    if v.min() < -fun.tol or v.max() > 1.0 + fun.tol:
        i, s = np.unravel_index(int(np.argmax(np.abs(v - np.clip(v, 0, 1)))), v.shape)
        raise AxiomViolationError("0 <= T(E) <= 1", f"effect {i}, sample {s}: value {v[i, s]!r}")
    coeffs, resid = fun._expand(np.eye(fun.dim))
    if resid > fun.tol:
        raise AxiomViolationError("T(I) = 1", "identity is not in the span of the supplied effects")
    unit = coeffs @ v
    if np.max(np.abs(unit - 1.0)) > 1e-6:
        s = int(np.argmax(np.abs(unit - 1.0)))
        raise AxiomViolationError("T(I) = 1", f"sample {s}: T(I) = {unit[s]!r}")
    n, eff, rows = len(fun.effects), fun.effects, fun._expand_matrix.T
    for i in range(n):
        for j in range(i, n):
            total = eff[i] + eff[j]
            if np.linalg.eigvalsh(total).max() > 1.0 + fun.tol:
                continue
            for k in range(n):
                if np.linalg.norm(total - eff[k]) <= fun.tol:
                    drift = np.max(np.abs(v[i] + v[j] - v[k]))
                    if drift > 1e-6:
                        raise AxiomViolationError(
                            "T(E+F) = T(E) + T(F)", f"effects {i}+{j} vs {k}, drift {drift:.3e}")
    for i in range(n):
        ni = np.linalg.norm(rows[i])
        for j in range(n):
            if i == j or ni == 0:
                continue
            t = float(rows[j] @ rows[i] / (rows[j] @ rows[j])) if rows[j] @ rows[j] else 0.0
            if 0 < t <= 1 + fun.tol and np.linalg.norm(eff[i] - t * eff[j]) <= fun.tol:
                drift = np.max(np.abs(v[i] - t * v[j]))
                if drift > 1e-6:
                    raise AxiomViolationError(
                        "T(tE) = tT(E)", f"effects {i} = {t:.6f} * {j}, drift {drift:.3e}")
    w_all = np.linalg.lstsq(rows, v, rcond=None)[0]
    drift = rows @ w_all - v
    worst = float(np.max(np.abs(drift))) if drift.size else 0.0
    if worst > 1e-6:
        i, s = np.unravel_index(int(np.argmax(np.abs(drift))), drift.shape)
        raise AxiomViolationError(
            "linearity", f"values at effect {i}, sample {s} are inconsistent "
                         f"with any linear functional (residual {worst:.3e})")


def _first_violation(check):
    try:
        check()
    except AxiomViolationError as exc:
        return exc.axiom, exc.where
    return None


def test_batched_axiom_checks_match_loops():
    """Generators, their sums and multiples and the complement to the identity,
    shuffled, with values of sample states moved along a direction that keeps
    T(I): the batched checks raise the loops' first violation, or none."""
    rng = np.random.default_rng(63)
    seen = set()
    for case in range(60):
        d = int(rng.integers(2, 4))
        gens = [w * random_density(d, rng) for w in rng.dirichlet(np.ones(3)) * 0.9]
        effects = gens + [np.eye(d) - sum(gens), gens[0] + gens[1], 0.3 * gens[2],
                          0.7 * gens[0], gens[1] + gens[2], np.eye(d)]
        effects = [effects[k] for k in rng.permutation(len(effects))]
        samples = [random_density(d, rng) for _ in range(3)]
        values = np.array([[np.real(np.trace(r @ e)) for r in samples] for e in effects])
        fun = extend_effect_functional(effects, values, d)
        if case % 4:
            coeffs, _ = fun._expand(np.eye(d))
            a, b = rng.choice(len(effects), 2, replace=False)
            moved = values.copy()
            moved[a] += 1e-3 * coeffs[b]
            moved[b] -= 1e-3 * coeffs[a]
            fun.values = moved
        want = _first_violation(lambda: _loop_validate(fun))
        assert _first_violation(fun._validate) == want
        seen.add(want and want[0])
    assert {None, "T(E+F) = T(E) + T(F)", "T(tE) = tT(E)"} <= seen


def _pvm_pair_refusal(labels, projections, tol):
    """The first refusal of the projection and orthogonality checks, taken one
    pair at a time with an SVD each, in the order P_0^2 - P_0, P_0 P_1, ...,
    P_1^2 - P_1, P_1 P_2, ...; None when every pair passes."""
    for i, p in enumerate(projections):
        if op_norm(p @ p - p) > tol:
            return f"outcome {labels[i]!r} is not a projection"
        for j in range(i + 1, len(projections)):
            if op_norm(p @ projections[j]) > tol:
                return (f"outcomes {labels[i]!r} and {labels[j]!r} are not orthogonal; "
                        "inputs are not effects of a single PVM")
    return None


@pytest.mark.parametrize("tol", [1e-10, 1e-3])
@pytest.mark.parametrize("real", [True, False])
def test_pvm_embed_raises_the_first_pair_refusal_of_the_pair_loop(tol, real):
    """A defect eta (x y^dag + y x^dag) added to P_a, with x in the range of P_a
    and y in that of P_b, at every pair position a <= b of a PVM of up to 6
    labels at d <= 6, with eta below, at and above `tol`: `pvm_embed` refuses
    with the first refusal, in order and message, of the per-pair loop, and
    raises no pair refusal where the loop passes."""
    rng = np.random.default_rng(int(tol < 1e-5) + 2 * real)
    for d in range(1, 7):
        for n_labels in range(1, 7):
            labels = [f"o{i}" for i in range(n_labels)]
            u = random_unitary(d, rng)
            if real:
                u = np.linalg.qr(rng.standard_normal((d, d)))[0]
            owner = rng.integers(0, n_labels, size=d)
            base = [u[:, owner == i] @ dagger(u[:, owner == i]) for i in range(n_labels)]

            def vector(i):
                cols = np.flatnonzero(owner == i)
                return u[:, cols[0]] if len(cols) else u[:, 0]

            for a in range(n_labels):
                for b in range(a, n_labels):
                    x, y = vector(a), vector(b)
                    for eta in (tol / 3, tol, 3 * tol):
                        projections = list(base)
                        projections[a] = base[a] + eta * (np.outer(x, y.conj())
                                                          + np.outer(y, x.conj()))
                        want = _pvm_pair_refusal(
                            labels, [as_effect(p, tol=np.inf) for p in projections], tol)
                        try:
                            pvm_embed(labels, projections, [{labels[0]}], tol=tol)
                            got = None
                        except (OperatorError, RuntimeError) as exc:
                            got = str(exc)
                        if want is not None:
                            assert got == want, (d, n_labels, a, b, eta)
                        else:
                            assert got is None or ("is not a projection" not in got
                                                   and "not orthogonal" not in got), got


def test_pinching_witness_projections_are_decomposed_once(monkeypatch):
    """One commuting `decide_measurements` call (a rank-2 PVM at d = 4) hands
    every projection of the pinching witness to `np.linalg.eigvalsh` exactly
    once, as a matrix or as a slice of a stack: its POVM and its prepared states
    read that one spectrum.  One `check_states` call (two commuting states at
    d = 4) hands each projection over twice: once for the witness, once for the
    stacked spectrum of its symmetric lift's base states."""
    rng = np.random.default_rng(23)
    u = random_unitary(4, rng)
    states = [u @ np.diag(w) @ dagger(u) for w in ([0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4])]
    pvm = [u @ np.diag(w) @ dagger(u) for w in ([1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0])]
    eigvalsh = np.linalg.eigvalsh
    for run, times in ((lambda: check_states(states).witness, 2),
                       (lambda: decide_measurements(pvm).witness_channel, 1)):
        seen = []

        def recording_eigvalsh(a, *args, **kwargs):
            seen.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        witness = run()
        monkeypatch.undo()
        assert len(witness.povm.effects) == 4
        for p in witness.povm.effects:
            calls = [a for a in seen
                     if any(np.array_equal(x, p) for x in (a if a.ndim == 3 else [a]))]
            assert len(calls) == times


def _hermitian_path_atom_states(effects, labels=None, povm_tol=PSD_TOL, traces=None,
                                state_tols=None):
    """Reference for `_atom_channel`'s state checks that runs `as_hermitian` on
    every state: the POVM, then `as_hermitian` of each state up to the first it
    refuses, the density check of each state before that one on the POVM's
    spectra divided by the traces, in order, and then that refusal.  Returns the
    accepted states."""
    povm = DiscretePOVM(tuple(effects), labels=labels, tol=povm_tol)
    states, spectra = povm.effects, povm._spectra
    if traces is not None:
        with np.errstate(all="ignore"):  # only the refusals are compared, not warnings
            states = tuple(e / t for e, t in zip(states, traces))
            spectra = spectra / np.array(traces)[:, None]
    hs, refusal = [], None
    for s in states:
        try:
            hs.append(as_hermitian(s))
        except OperatorError as exc:
            refusal = exc
            break
    for k, (h, w) in enumerate(zip(hs, spectra)):
        _check_density(w, _trace(h), PSD_TOL if state_tols is None else state_tols[k], TRACE_TOL)
    if refusal is not None:
        raise refusal
    return tuple(hs)


def _ghost_pvm(d, ghosts, rotation, rng):
    """Labels, projections and subsets for `pvm_embed` at d >= 2: labels "a" and
    "b", measured together, are diag(x, -x') and diag(y, -y') on the first two
    coordinates for `ghosts` = (x, x', y, y') in [0, 0.09]; label "c" is
    diag(1 - (x + y) / 2, 1 + (x' + y') / 2) there, so every pair check and the
    sum pass at tol 0.1; the other coordinates go to "c" and up to two more
    labels, one projection each.  The atom of "a" and "b" is kept once x + y or
    x' + y' exceeds 0.1, and its trace (x + y) - (x' + y') may be zero, negative
    or positive.  `rotation` is None, a real orthogonal or a unitary matrix."""
    x, x2, y, y2 = ghosts
    owner = rng.integers(0, 3, size=d - 2)
    diags = {"a": [x, -x2] + [0.0] * (d - 2), "b": [y, -y2] + [0.0] * (d - 2),
             "c": [1 - (x + y) / 2, 1 + (x2 + y2) / 2] + [float(o == 0) for o in owner]}
    for r in (1, 2):
        if (owner == r).any():
            diags[f"r{r}"] = [0.0, 0.0] + [float(o == r) for o in owner]
    labels = list(diags)
    projections = [np.diag(diags[lab]) for lab in labels]
    if rotation is not None:
        projections = [rotation @ p @ dagger(rotation) for p in projections]
    return labels, projections, [{"a", "b"}] + [{lab} for lab in labels[3:]]


def _atom_channel_calls(labels, projections, subsets, tol):
    """The arguments of each `_atom_channel` call of one `pvm_embed` call."""
    calls, atom_channel = [], contextuality._atom_channel

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return atom_channel(*args, **kwargs)

    with mock.patch.object(contextuality, "_atom_channel", recording):
        try:
            pvm_embed(labels, projections, subsets, tol=tol)
        except (OperatorError, RuntimeError):
            pass
    return calls


def _assert_atom_states_as_the_hermitian_path(args, kwargs):
    """`_atom_channel` refuses with the reference's first message, or accepts the
    same states bit for bit, each of which `as_hermitian` returns bit for bit."""
    def outcome(fn):
        try:
            return "ok", fn()
        except OperatorError as exc:
            return "refused", str(exc)

    got = outcome(lambda: contextuality._atom_channel(*args, **kwargs).states)
    want = outcome(lambda: _hermitian_path_atom_states(*args, **kwargs))
    assert got[0] == want[0], (got, want)
    if got[0] == "refused":
        assert got[1] == want[1]
        return got[1]
    for s, h in zip(got[1], want[1]):
        assert s.dtype == h.dtype and s.tobytes() == h.tobytes()
        assert as_hermitian(s).tobytes() == s.tobytes()
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.tuples(*[st.sampled_from([0.0, 0.03, 0.05, 0.06, 0.09])] * 4),
       st.sampled_from(["none", "real", "unitary"]), st.booleans(),
       st.sampled_from([1e-10, 0.1]), st.integers(0, 2 ** 32 - 1))
def test_pvm_embed_atom_states_refuse_as_the_hermitian_path_does(d, ghosts, rotation,
                                                                 as_complex, tol, seed):
    """Each `_atom_channel` call of `pvm_embed`, on real and complex near-PVMs at
    tol 1e-10 and 0.1 whose atom of two ghost labels has a trace of either sign
    or zero, refuses with the first message of the reference that runs
    `as_hermitian` on each state, or accepts the same states bit for bit."""
    rng = np.random.default_rng(seed)
    u = {"none": None, "real": np.linalg.qr(rng.standard_normal((d, d)))[0],
         "unitary": random_unitary(d, rng)}[rotation]
    labels, projections, subsets = _ghost_pvm(d, ghosts, u, rng)
    if as_complex:
        projections = [p.astype(complex) for p in projections]
    for args, kwargs in _atom_channel_calls(labels, projections, subsets, tol):
        _assert_atom_states_as_the_hermitian_path(args, kwargs)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("ghosts, message", [
    ((0.09, 0.09, 0.09, 0.09), "matrix entries must be finite (no NaN/Inf)"),  # trace 0
    ((0.06, 0.09, 0.06, 0.09), "density operator has eigenvalue"),  # trace -0.06
    ((0.09, 0.06, 0.09, 0.06), None),  # trace 0.06: the states pass
])
def test_pvm_embed_atom_of_zero_or_negative_trace(dtype, ghosts, message):
    """A kept atom of trace zero is refused as a non-finite state, one of
    negative trace by its density check, with no floating-point warning, in
    the reference's order and message."""
    labels, projections, subsets = _ghost_pvm(2, ghosts, None, np.random.default_rng(0))
    projections = [p.astype(dtype) for p in projections]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        calls = _atom_channel_calls(labels, projections, subsets, 0.1)
        assert len(calls) == 1
        got = _assert_atom_states_as_the_hermitian_path(*calls[0])
    assert (got is None) == (message is None) and (message is None or message in got)


def test_atom_states_are_returned_unchanged_by_as_hermitian():
    """The states of the pinching witness and of `pvm_embed`'s atom channel, on
    real and complex input, are exactly Hermitian: `as_hermitian` returns each
    bit for bit, so running it on them leaves every state as it was formed."""
    rng = np.random.default_rng(29)
    for d in range(1, 7):
        for u in (np.linalg.qr(rng.standard_normal((d, d)))[0], random_unitary(d, rng)):
            witness = _pinching_witness(u)
            n_labels = int(rng.integers(1, d + 1))
            owner = rng.permutation(np.arange(d) % n_labels)
            labels = list(range(n_labels))
            projections = [u[:, owner == i] @ dagger(u[:, owner == i]) for i in labels]
            embedding = pvm_embed(labels, projections, [{0}, set(labels[1::2])])
            for s in witness.states + embedding.states:
                assert as_hermitian(s).tobytes() == s.tobytes()
