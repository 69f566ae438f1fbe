import numpy as np
import pytest

from broadcastlab.contextuality import pvm_embed
from broadcastlab.cvmodels import (
    FockTruncation,
    binned_position_pvm,
    hermite_functions,
    position_embedding_sweep,
    qchannel_build,
    qchannel_element,
    qchannel_element_quadrature,
    qchannel_fixed_analysis,
    repair_to_commuting_projections,
    TruncatedChannel,
    shift_channel_build,
    shift_channel_study,
    sweep_rows_to_csv,
)
from broadcastlab.operators import (OperatorError, as_effect, dagger, frob_norm, max_op_norm,
                                    op_norm)


def test_vacuum_element_is_half():
    # oracle: quadrature of the Gaussian overlap integral
    quad = qchannel_element_quadrature(0, 0, 0, 0)
    assert quad == pytest.approx(0.5, abs=1e-12)
    assert qchannel_element(0, 0, 0, 0) == pytest.approx(quad, abs=1e-12)


def test_vacuum_output_is_thermal():
    ch = qchannel_build(FockTruncation(20))
    vac = np.zeros((20, 20), dtype=complex)
    vac[0, 0] = 1.0
    out = ch.apply(vac)
    diag = np.real(np.diag(out))
    # oracle: geometric series (1/2)^(m+1)
    np.testing.assert_allclose(diag, [0.5 ** (m + 1) for m in range(20)], atol=1e-10)
    assert abs(sum(0.5 ** (m + 1) for m in range(60)) - 1.0) < 1e-15
    off = out - np.diag(np.diag(out))
    assert frob_norm(off) <= 1e-12


def test_phase_selection_rule():
    for (m, n, j, k) in [(0, 1, 0, 0), (2, 0, 1, 0), (3, 1, 1, 2)]:
        if m + k != n + j:
            assert qchannel_element(m, n, j, k) == 0.0
            assert abs(qchannel_element_quadrature(m, n, j, k)) <= 1e-12


def test_closed_form_matches_quadrature_low_indices():
    worst = 0.0
    for m in range(8):
        for n in range(8):
            for j in range(8):
                for k in range(8):
                    worst = max(worst, abs(qchannel_element(m, n, j, k)
                                           - qchannel_element_quadrature(m, n, j, k)))
    assert worst <= 1e-8


def test_qchannel_is_cp_and_trace_defect_logged():
    ch = qchannel_build(FockTruncation(12))  # CP validated on construction
    assert 0.0 < ch.trace_defect_bound < 1.0


def test_qchannel_hilbert_schmidt_self_adjoint():
    ch = qchannel_build(FockTruncation(16))
    rng = np.random.default_rng(70)
    for _ in range(10):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        b = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        a, b = 0.5 * (a + dagger(a)), 0.5 * (b + dagger(b))
        lhs = np.trace(ch.apply(a) @ b)
        rhs = np.trace(a @ ch.apply(b))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_qchannel_analysis_identity_input():
    ch = qchannel_build(FockTruncation(16))
    rep = qchannel_fixed_analysis(ch, window=6, n_terms=64, inputs="identity")
    # Cesaro length 1 is the input itself: the window block is exactly I_w
    assert rep["window_distance_by_terms"]["1"] == 0.0
    # longer averages stay within the logged truncation defect scale
    assert rep["final_window_distance"] <= 5.0 * rep["trace_defect_bound"]
    assert rep["trace_defect_bound"] > 0.0


def test_qchannel_analysis_flattens_random_input():
    ch = qchannel_build(FockTruncation(16))
    rep = qchannel_fixed_analysis(ch, window=5, n_terms=4096, seed=2)
    dists = [v for _, v in sorted(((int(k), v) for k, v in
                                   rep["window_distance_by_terms"].items()))]
    assert dists[-1] < dists[0]
    assert rep["final_window_distance"] <= 2e-3
    assert 0.0 < rep["second_largest_modulus"] < 1.0


def test_qchannel_number_operator_window_drifts_from_flat_slower():
    ch = qchannel_build(FockTruncation(16))
    rnd = qchannel_fixed_analysis(ch, window=5, n_terms=2048, seed=2)
    num = qchannel_fixed_analysis(ch, window=5, n_terms=2048, inputs="number")
    # the number operator's window block hugs the identity line while the
    # random input's normalized block never flattens in shape
    assert num["final_window_shape_distance"] < rnd["final_window_shape_distance"]
    # boundary leakage shows up as a late drift away from the flat line
    shape = [v for _, v in sorted(((int(k), v) for k, v in
                                   num["window_shape_distance_by_terms"].items()))]
    assert min(shape) <= num["final_window_shape_distance"]


def test_qchannel_level_cap():
    with pytest.raises(OperatorError):
        qchannel_build(FockTruncation(65))


def _dense_action(n, element):
    """Brute-force n^2 x n^2 superoperator, <m|L(|j><k|)|nn> at row m*n+nn, column j*n+k."""
    action = np.zeros((n * n, n * n))
    for m in range(n):
        for nn in range(n):
            for j in range(n):
                for k in range(n):
                    action[m * n + nn, j * n + k] = element(m, nn, j, k)
    return action


def _shift_element(n):
    return lambda m, nn, j, k: float(j == k and j + 1 < n and (m, nn) == (j + 1, k + 1))


def _substochastic(n, seed):
    """A classical trace-decreasing map |j><j| -> sum_m P[m, j] |m><m| with
    column sums below 1, unequal to its row sums; it lives in the diagonal sector."""
    p = np.random.default_rng(seed).random((n, n))
    p *= np.linspace(0.3, 0.9, n) / p.sum(axis=0)
    action = np.zeros((2 * n - 1, n, n))
    action[n - 1] = p
    return (TruncatedChannel(action, n),
            _dense_action(n, lambda m, nn, j, k: p[m, j] if (m == nn and j == k) else 0.0))


def _references(n):
    return [(qchannel_build(FockTruncation(n)), _dense_action(n, qchannel_element)),
            (shift_channel_build(FockTruncation(n)), _dense_action(n, _shift_element(n))),
            _substochastic(n, seed=n)]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_sector_apply_matches_dense_reference(n):
    rng = np.random.default_rng(n)
    for ch, ref in _references(n):
        for _ in range(3):
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            want = (ref @ t.reshape(-1)).reshape(n, n)
            assert np.max(np.abs(ch.apply(t) - want)) <= 1e-14
        traces = [np.trace(ref[:, j * n + j].reshape(n, n)) for j in range(n)]
        assert ch.trace_defect_bound == pytest.approx(1.0 - min(traces), abs=1e-14)


@pytest.mark.parametrize("n", [6, 8])
def test_choi_blocks_match_dense_choi_spectrum(n):
    for ch, ref in _references(n):
        # J[a*n+m, b*n+nn] = <m|L(|a><b|)|nn>
        dense = ref.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)
        blocks = ch.choi()
        for g, block in zip(range(-(n - 1), n), blocks):
            rows = [a * n + a + g for a in range(max(-g, 0), n - max(g, 0))]
            np.testing.assert_allclose(block, dense[np.ix_(rows, rows)], rtol=0, atol=1e-15)
        got = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
        np.testing.assert_allclose(got, np.linalg.eigvalsh(dense), rtol=0, atol=1e-13)


def test_cp_check_runs_above_32_levels():
    ch = qchannel_build(FockTruncation(40))
    with pytest.raises(OperatorError, match="not CP"):
        TruncatedChannel(-ch.action, 40)


def test_apply_rejects_wrong_operand_shape():
    ch = shift_channel_build(FockTruncation(6))
    for shape in [(7, 7), (6, 7), (5, 5)]:
        with pytest.raises(OperatorError):
            ch.apply(np.zeros(shape))


def test_shift_ladder_action():
    ch = shift_channel_build(FockTruncation(8))
    state = np.zeros((8, 8), dtype=complex)
    state[0, 0] = 1.0
    for _ in range(3):
        state = ch.apply(state)
    want = np.zeros((8, 8), dtype=complex)
    want[3, 3] = 1.0
    np.testing.assert_array_equal(state, want)


def test_shift_study_window_mass_bound():
    rep = shift_channel_study(FockTruncation(32), n_steps=(10, 100, 1000), window=4)
    assert rep["ladder_exact"]
    for steps, masses in rep["window_mass"].items():
        bound = rep["window_mass_bound"][steps]
        for m in masses:
            # oracle: each level is occupied at most once while in the window
            assert m <= bound + 1e-12


def test_shift_study_masses_independent_of_step_order():
    trunc = FockTruncation(8)
    forward = shift_channel_study(trunc, n_steps=(10, 100))["window_mass"]
    backward = shift_channel_study(trunc, n_steps=(100, 10))["window_mass"]
    assert forward == backward


def test_shift_fixed_space_trivial():
    rep = shift_channel_study(FockTruncation(24))
    assert rep["fixed_space_dimension"] == 0
    assert rep["smallest_singular_value"] > 1e-6


def test_shift_trace_decreasing_by_design():
    ch = shift_channel_build(FockTruncation(4))
    top = np.zeros((4, 4), dtype=complex)
    top[3, 3] = 1.0
    assert abs(np.trace(ch.apply(top))) <= 1e-15
    assert ch.trace_defect_bound == pytest.approx(1.0)


def test_hermite_functions_orthonormal():
    xs = np.linspace(-12, 12, 4001)
    h = hermite_functions(6, xs)
    gram = h @ h.T * (xs[1] - xs[0])
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-6)


def test_full_line_bin_is_identity():
    effs, comp = binned_position_pvm(-20.0, 20.0, 1, FockTruncation(12))
    assert op_norm(effs[0] - np.eye(12)) <= 1e-10
    assert op_norm(comp) <= 1e-10


def test_half_line_diagonal_is_half():
    # oracle: h_m^2 is even, so the half-line integral is half the full one
    effs, _ = binned_position_pvm(-20.0, 0.0, 1, FockTruncation(10))
    np.testing.assert_allclose(np.real(np.diag(effs[0])), np.full(10, 0.5), atol=1e-10)


def test_symmetric_bin_parity_selection():
    effs, _ = binned_position_pvm(-1.5, 1.5, 1, FockTruncation(10))
    q = effs[0]
    for m in range(10):
        for n in range(10):
            if (m + n) % 2 == 1:
                assert abs(q[m, n]) <= 1e-12


def test_bin_effects_hermitian_psd_and_near_commuting():
    effs, comp = binned_position_pvm(-3.0, 3.0, 4, FockTruncation(16))
    family = effs + [comp]
    projectivity = max(op_norm(e @ e - e) for e in family)
    for e in family:
        np.testing.assert_allclose(e, dagger(e), atol=1e-12)
        assert np.linalg.eigvalsh(e).min() >= -1e-10
    # truncation breaks exact commutativity; the defect stays at the
    # projectivity scale, which the repair step removes
    worst = max(op_norm(a @ b - b @ a) for i, a in enumerate(family)
                for b in family[i + 1:])
    assert worst <= 2.0 * projectivity


def test_repair_and_embed_binned_position():
    effs, comp = binned_position_pvm(-3.0, 3.0, 4, FockTruncation(16))
    family = effs + [comp]
    projections, distance = repair_to_commuting_projections(family)
    assert 0.0 < distance < 1.0
    for i, p in enumerate(projections):
        assert op_norm(p @ p - p) <= 1e-12
        for q in projections[i + 1:]:
            assert op_norm(p @ q) <= 1e-12
    emb = pvm_embed(list(range(5)), projections, [{0}, {1}, {2}, {3}])
    assert emb.max_fix_residual <= 1e-12


def test_position_pvm_checks_take_no_svd(monkeypatch):
    """On a valid 17-projection position PVM at 32 levels, the idempotency,
    orthogonality, completeness and atom checks of `pvm_embed` are all decided
    on Frobenius bounds; only the reported maximum takes SVDs."""
    import broadcastlab.contextuality as ctx

    effs, comp = binned_position_pvm(-3.0, 3.0, 16, FockTruncation(32))
    projections, _ = repair_to_commuting_projections(effs + [comp])
    projections = [as_effect(p) for p in projections]  # exactly Hermitian
    svds = {"checks": 0, "maximum": 0}
    where = ["checks"]
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        svds[where[-1]] += 1
        return svd(*args, **kwargs)

    def maximum(mats):
        where.append("maximum")
        try:
            return max_op_norm(mats)
        finally:
            where.pop()

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(ctx, "max_op_norm", maximum)
    emb = pvm_embed(list(range(17)), projections, [{i} for i in range(16)])
    monkeypatch.undo()
    assert svds["checks"] == 0
    assert 0 < svds["maximum"] <= 16
    # the repair leaves some bins empty: their zero atoms are dropped, also
    # without an SVD
    assert len(emb.atom_effects) == sum(p.any() for p in projections) < 17
    a_ks = [projections[i] for i in range(16)]
    assert emb.max_fix_residual == max(op_norm(emb.channel.apply_heisenberg(a) - a)
                                       for a in a_ks)


def test_bin_refinement_sweep_residual_grows():
    rows = position_embedding_sweep([2, 4, 8, 16], FockTruncation(32))
    resids = [row["residual"] for row in rows]
    assert all(earlier < later for earlier, later in zip(resids, resids[1:]))
    for row in rows:
        assert row["window_distance"] <= 1e-12  # embedding exact after repair
    csv_text = sweep_rows_to_csv(rows)
    assert csv_text.splitlines()[0] == "parameter,residual,window_distance,trace_defect"
    assert len(csv_text.splitlines()) == 5


def test_binned_position_input_validation():
    with pytest.raises(OperatorError):
        binned_position_pvm(3.0, -3.0, 2, FockTruncation(8))
    with pytest.raises(OperatorError):
        binned_position_pvm(-3.0, 3.0, 0, FockTruncation(8))
    with pytest.raises(OperatorError):
        FockTruncation(1)
