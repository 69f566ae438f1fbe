import numpy as np
import pytest

from families import (
    random_commuting_states,
    random_density,
    random_eb_channel,
    random_noncommuting_states,
    random_pvm,
    random_unitary,
)

from broadcastlab.channels import MeasurePrepareChannel, choi_transform
from broadcastlab.config import DimensionCapError
from broadcastlab.contextuality import (
    AxiomViolationError,
    FeasibilityProblem,
    approx_check,
    broadcaster_from_commuting,
    check_measurements_feasibility,
    check_states,
    extend_effect_functional,
    pvm_embed,
)
from broadcastlab.operators import (
    DiscretePOVM,
    NotCommutingError,
    OperatorError,
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
    assert back.kind == "measure_prepare"
    for got, want in zip(back.states, v.broadcaster.states):
        np.testing.assert_array_equal(got, want)


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
    assert verdict.witness_choi is None
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


def test_feasibility_dimension_cap():
    with pytest.raises(DimensionCapError):
        FeasibilityProblem([np.eye(4) / 1.0], cap=8)


def test_pvm_embed_effects_feasible():
    rng = np.random.default_rng(55)
    projs = random_pvm(3, rng, n_outcomes=3)
    emb = pvm_embed([0, 1, 2], projs, [{0, 1}, {2}])
    effects = [sum(projs[i] for i in kk) for kk in ({0, 1}, {2})]
    verdict = check_measurements_feasibility(FeasibilityProblem(effects))
    assert verdict.status == "feasible"


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
