"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing one pass/fail line (run with -s to see the lines as they pass)."""

import json
import time

import numpy as np
import pytest

from families import (
    random_commuting_states,
    random_density,
    random_eb_channel,
    random_hermitian,
    random_noncommuting_states,
    random_pvm,
)

from broadcastlab.cli import main
from broadcastlab.contextuality import (
    FeasibilityProblem,
    check_measurements_feasibility,
    check_states,
    extend_effect_functional,
    pvm_embed,
)
from broadcastlab.cvmodels import (
    FockTruncation,
    qchannel_build,
    qchannel_element,
    qchannel_element_quadrature,
    qchannel_fixed_analysis,
    shift_channel_build,
    shift_channel_study,
)
from broadcastlab.fixedpoint import (
    BroadcastingAlgebra,
    atomic_decomposition,
    broadcasting_product,
    choi_effros_compare,
)
from broadcastlab.operators import (
    commutator_defect,
    dagger,
    frob_norm,
    hermitian_basis,
    partial_trace,
    trace_norm,
)
from broadcastlab.serialization import operator_to_json

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def _report(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_state_set_consistency_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    for case in range(100):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        states = random_commuting_states(d, n, rng)
        defect, _ = commutator_defect(states)
        verdict = check_states(states, tol=1e-9)
        assert verdict.verdict == ("confirming" if defect > 1e-9 else "non_confirming")
        assert verdict.verdict == "non_confirming", f"case {case}"
        for rho in states:
            assert trace_norm(verdict.witness.apply_schrodinger(rho) - rho) <= 1e-9
            out = verdict.broadcaster.apply_schrodinger(rho)
            assert trace_norm(partial_trace(out, (d, d), side=2) - rho) <= 1e-10
            assert trace_norm(partial_trace(out, (d, d), side=1) - rho) <= 1e-10
    for case in range(100):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(2, 6))
        states = random_noncommuting_states(d, n, rng)
        defect, _ = commutator_defect(states)
        verdict = check_states(states, tol=1e-9)
        assert verdict.verdict == ("confirming" if defect > 1e-9 else "non_confirming")
        assert verdict.verdict == "confirming", f"case {case}"
        assert verdict.commutator_norm == pytest.approx(defect)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"
    _report(1, "state-set verdicts, witnesses, and broadcasters")


def test_criterion_2_pvm_partition_exactness():
    rng = np.random.default_rng(1002)
    for _ in range(50):
        d = int(rng.integers(2, 9))
        n_out = int(rng.integers(2, d + 1))
        projs = random_pvm(d, rng, n_outcomes=n_out)
        labels = list(range(n_out))
        n_sub = int(rng.integers(1, 5))
        subsets = []
        for _ in range(n_sub):
            size = int(rng.integers(1, n_out + 1))
            subsets.append(set(rng.choice(n_out, size=size, replace=False).tolist()))
        emb = pvm_embed(labels, projs, subsets)
        assert emb.max_fix_residual <= 1e-12
    # structural reproduction of the two-subset partition
    projs = random_pvm(4, rng, n_outcomes=4)
    emb = pvm_embed(["a", "b", "c", "d"], projs, [{"a", "b"}, {"b", "c"}])
    atom_map = dict(emb.atom_sets)
    assert atom_map[0] == frozenset({"d"})
    assert atom_map[1] == frozenset({"a"})
    assert atom_map[2] == frozenset({"c"})
    assert atom_map[3] == frozenset({"b"})
    assert emb.index_sets == (frozenset({1, 3}), frozenset({2, 3}))
    _report(2, "PVM partition embedding exactness")


def _algebra_suite_channels():
    rng = np.random.default_rng(1003)
    kinds = ["pinching", "norm1", "generic"]
    for i in range(50):
        d = int(rng.integers(2, 6))
        yield rng, BroadcastingAlgebra(random_eb_channel(d, rng, kind=kinds[i % 3]))


def test_criterion_3_broadcasting_algebra_suite():
    for rng, alg in _algebra_suite_channels():
        d, m = alg.d, alg.space.dim
        assert alg.commutativity_residual <= 1e-8
        assert alg.associativity_residual <= 1e-8
        a = alg.from_coefficients(rng.standard_normal(m))
        np.testing.assert_allclose(broadcasting_product(alg, a, np.eye(d)), a,
                                   atol=1e-8)
        x = alg.from_coefficients(rng.standard_normal(m))
        y = alg.from_coefficients(rng.standard_normal(m))
        pos_a = x - min(0.0, np.linalg.eigvalsh(x).min()) * np.eye(d)
        pos_b = y - min(0.0, np.linalg.eigvalsh(y).min()) * np.eye(d)
        assert np.linalg.eigvalsh(
            broadcasting_product(alg, pos_a, pos_b)).min() >= -1e-8
        for _ in range(20):
            a = alg.from_coefficients(rng.standard_normal(m))
            b = alg.from_coefficients(rng.standard_normal(m))
            assert frob_norm(broadcasting_product(alg, a, b)
                             - broadcasting_product(alg, b, a)) <= 1e-8
            assert choi_effros_compare(alg, a, b) <= 1e-8
    _report(3, "broadcasting product laws and quotient-product agreement")


def test_criterion_4_atomic_reconstruction_and_schrodinger_cross_check():
    for rng, alg in _algebra_suite_channels():
        dec = atomic_decomposition(alg, tol=1e-8, seed=7)
        m = len(dec.atoms)
        pairing = np.array([[np.real(np.trace(s @ g)) for g in dec.atoms]
                            for s in dec.states])
        assert np.max(np.abs(pairing - np.eye(m))) <= 1e-8
        rebuilt = dec.rebuilt_channel()
        for b in alg.space.basis:
            assert frob_norm(rebuilt.apply_heisenberg(b) - b) <= 1e-8
        # Schrodinger cross-check on constructed fixed and perturbed states
        probs = rng.dirichlet(np.ones(m))
        fixed = sum(p * s for p, s in zip(probs, dec.states))
        assert frob_norm(alg.channel.apply_schrodinger(fixed) - fixed) <= 1e-8
        assert frob_norm(rebuilt.apply_schrodinger(fixed) - fixed) <= 1e-8
        tau = random_density(alg.d, rng)
        while frob_norm(alg.channel.apply_schrodinger(tau) - tau) <= 1e-6:
            tau = random_density(alg.d, rng)
        perturbed = 0.7 * fixed + 0.3 * tau
        assert frob_norm(alg.channel.apply_schrodinger(perturbed) - perturbed) > 1e-8
        assert frob_norm(rebuilt.apply_schrodinger(perturbed) - perturbed) > 1e-8
    _report(4, "atomic reconstruction and state-side cross-check")


def test_criterion_5_measurement_feasibility():
    start = time.monotonic()
    feasible = check_measurements_feasibility(
        FeasibilityProblem([KET0, KET1], budget=20000, tol=1e-7))
    assert feasible.status == "feasible"
    assert feasible.cycles <= 20000
    assert max(feasible.final_residuals.values()) <= 1e-7
    stalled = check_measurements_feasibility(
        FeasibilityProblem([KET0, KET1, PLUS, MINUS], budget=20000, tol=1e-7))
    assert stalled.status == "infeasible_stalled"
    assert min(stalled.residual_history) >= 1e-3
    assert any("PPT exact" in note for note in stalled.notes)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(5, "measurement feasibility verdicts")


def test_criterion_6_qchannel_example_shadow():
    worst = 0.0
    for m in range(12):
        for n in range(12):
            for j in range(12):
                for k in range(12):
                    worst = max(worst, abs(qchannel_element(m, n, j, k)
                                           - qchannel_element_quadrature(m, n, j, k)))
    assert worst <= 1e-8

    channel = qchannel_build(FockTruncation(24))
    vac = np.zeros((24, 24), dtype=complex)
    vac[0, 0] = 1.0
    diag = np.real(np.diag(channel.apply(vac)))
    np.testing.assert_allclose(diag, [0.5 ** (m + 1) for m in range(24)], atol=1e-10)

    report = qchannel_fixed_analysis(channel, window=8, n_terms=4096, seed=1)
    assert report["final_window_distance"] < 1e-3
    dists = [v for _, v in sorted(((int(k), v) for k, v in
                                   report["window_distance_by_terms"].items()))]
    assert dists[-1] < dists[0]

    rng = np.random.default_rng(1006)
    for _ in range(10):
        a, b = random_hermitian(24, rng), random_hermitian(24, rng)
        lhs = np.trace(channel.apply(a) @ b)
        rhs = np.trace(a @ channel.apply(b))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
    _report(6, "coherent-state smoothing channel shadow")


def test_criterion_7_shift_channel_shadow():
    trunc = FockTruncation(32)
    channel = shift_channel_build(trunc)
    state = np.zeros((32, 32), dtype=complex)
    state[0, 0] = 1.0
    for k in range(1, 32):
        state = channel.apply(state)
        want = np.zeros((32, 32), dtype=complex)
        want[k, k] = 1.0
        assert frob_norm(state - want) == 0.0
    report = shift_channel_study(trunc, n_steps=(10, 100, 1000), window=4,
                                 nullspace_tol=1e-9)
    for steps in ("10", "100", "1000"):
        for mass in report["window_mass"][steps]:
            assert mass <= 4.0 / int(steps) + 1e-12
    assert report["fixed_space_dimension"] == 0
    _report(7, "shift channel shadow")


def test_criterion_8_effect_functional_extension():
    d = 3
    rng = np.random.default_rng(1008)
    effects = [np.eye(d, dtype=complex)]
    for b in hermitian_basis(d):
        w = np.linalg.eigvalsh(b)
        effects.append((b - w.min() * np.eye(d)) / max(1.0, 1.001 * (w.max() - w.min())))
    samples = [random_density(d, rng) for _ in range(4)]
    values = np.array([[np.real(np.trace(r @ e)) for r in samples] for e in effects])
    fun = extend_effect_functional(effects, values, d)

    for _ in range(50):
        h = random_hermitian(d, rng)
        canonical = fun.stage_hermitian(h)
        for _ in range(2):
            shift = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            shift = shift @ dagger(shift)
            w, v = np.linalg.eigh(h)
            plus = (v * np.clip(w, 0.0, None)) @ dagger(v) + shift
            minus = (v * np.clip(-w, 0.0, None)) @ dagger(v) + shift
            alt = fun.stage_hermitian(h, decomposition=(plus, minus))
            assert np.max(np.abs(alt - canonical)) <= 1e-12

    for _ in range(100):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        got = fun.evaluate(a)
        want = np.array([np.trace(r @ a) for r in samples])
        assert np.max(np.abs(got - want)) <= 1e-10
    _report(8, "quasi-linear effect functional extension")


def test_criterion_9_determinism(tmp_path, monkeypatch):
    states_doc = {"states": [operator_to_json(np.diag([0.5, 0.5])),
                             operator_to_json(np.diag([0.25, 0.75]))]}
    pinch_doc = {"channel": {
        "kind": "measure_prepare", "d_in": 2, "d_out": 2,
        "povm": [operator_to_json(KET0), operator_to_json(KET1)],
        "states": [operator_to_json(KET0), operator_to_json(KET1)],
    }}
    payloads = {}
    for run in ("one", "two"):
        workdir = tmp_path / run
        workdir.mkdir()
        (workdir / "states.json").write_text(json.dumps(states_doc))
        (workdir / "channel.json").write_text(json.dumps(pinch_doc))
        monkeypatch.chdir(workdir)
        assert main(["check-states", "--input", "states.json",
                     "--output", "states_report.json", "--seed", "42"]) == 0
        assert main(["fixpoints", "--input", "channel.json",
                     "--output", "fix_report.json", "--seed", "42"]) == 0
        assert main(["cv-shift", "--levels", "12",
                     "--output", "shift_report.json", "--seed", "42"]) == 0
        payloads[run] = tuple((workdir / name).read_bytes()
                              for name in ("states_report.json", "fix_report.json",
                                           "shift_report.json"))
    assert payloads["one"] == payloads["two"]
    _report(9, "seeded determinism of reports")
