import numpy as np
import pytest

from broadcastlab.contextuality import pvm_embed
from broadcastlab.fixedpoint import _cesaro_means
from broadcastlab.cvmodels import (
    FockTruncation,
    binned_position_pvm,
    binned_position_pvms,
    hermite_functions,
    position_embedding_sweep,
    qchannel_build,
    qchannel_element,
    qchannel_element_quadrature,
    qchannel_fixed_analysis,
    repair_to_commuting_projections,
    TruncatedChannel,
    _sector_coords,
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


def _dense_action(n, element, dtype=float):
    """Brute-force n^2 x n^2 superoperator, <m|L(|j><k|)|nn> at row m*n+nn, column j*n+k."""
    action = np.zeros((n * n, n * n), dtype=dtype)
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


def _rotated(n, theta=0.7):
    """The smoothing channel followed by the phase rotation exp(i theta N): sector
    m - l picks up exp(i theta (m - l)).  CP as a unitary composed with a CP map,
    and stored complex."""
    phases = np.exp(1j * theta * np.arange(-(n - 1), n))
    action = qchannel_build(FockTruncation(n)).action * phases[:, None, None]
    return (TruncatedChannel(action, n),
            _dense_action(n, lambda m, nn, j, k: np.exp(1j * theta * (m - nn))
                          * qchannel_element(m, nn, j, k), dtype=complex))


def _references(n):
    return [(qchannel_build(FockTruncation(n)), _dense_action(n, qchannel_element)),
            (shift_channel_build(FockTruncation(n)), _dense_action(n, _shift_element(n))),
            _substochastic(n, seed=n), _rotated(n)]


@pytest.mark.parametrize("n", [6, 7, 8])
def test_sector_apply_matches_dense_reference(n):
    rng = np.random.default_rng(n)
    for ch, ref in _references(n):
        for _ in range(3):
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            want = (ref @ t.reshape(-1)).reshape(n, n)
            assert np.max(np.abs(ch.apply(t) - want)) <= 1e-14
        traces = [np.trace(ref[:, j * n + j].reshape(n, n)).real for j in range(n)]
        assert ch.trace_defect_bound == pytest.approx(1.0 - min(traces), abs=1e-14)


@pytest.mark.parametrize("n", [6, 8])
def test_apply_heisenberg_is_the_dual(n):
    """tr(L(rho) A) = tr(rho L*(A)) within 1e-14 for the shift, the smoothing
    channel and the phase-rotated complex channel, and L* is the conjugate
    transpose of the dense reference; the shift's dual takes |1><1| to |0><0|."""
    rng = np.random.default_rng(n + 4)
    smoothing, shift, _, rotated = _references(n)
    for ch, ref in (smoothing, shift, rotated):
        for _ in range(3):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            rho = g @ dagger(g) / np.trace(g @ dagger(g))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = 0.5 * (a + dagger(a))
            a /= op_norm(a)
            dual = ch.apply_heisenberg(a)
            assert abs(np.trace(ch.apply(rho) @ a) - np.trace(rho @ dual)) <= 1e-14
            want = (dagger(ref) @ a.reshape(-1)).reshape(n, n)
            assert np.max(np.abs(dual - want)) <= 1e-14
    ket1, ket0 = np.diag(np.arange(n) == 1), np.diag(np.arange(n) == 0)
    np.testing.assert_array_equal(shift[0].apply_heisenberg(ket1), ket0)
    np.testing.assert_array_equal(shift[0].apply_heisenberg(ket0), np.zeros((n, n)))


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


@pytest.mark.parametrize("n", [6, 8])
def test_cesaro_means_match_brute_force_sums(n):
    """Sum_{k<t} L^k x / t term by term with the dense reference, at t = 1, 2, 3, 10."""
    rng = np.random.default_rng(n + 1)
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for ch, ref in _references(n):
        means = ch.cesaro_means(t, {1, 2, 3, 10})
        term, total = t.reshape(-1), np.zeros(n * n, dtype=complex)
        for k in range(1, 11):
            total += term
            term = ref @ term
            if k in means:
                want = (total / k).reshape(n, n)
                assert np.max(np.abs(means[k] - want)) <= 1e-14 * max(1.0, np.abs(want).max())


def test_builders_store_real_actions_and_the_shift_fills_one_sector():
    for n in (2, 8, 32):
        q, shift = qchannel_build(FockTruncation(n)), shift_channel_build(FockTruncation(n))
        assert q.action.dtype == shift.action.dtype == np.float64
        np.testing.assert_array_equal(np.flatnonzero(shift.action.any(axis=(1, 2))), [n - 1])
        assert shift._filled == slice(n - 1, n)
        assert shift._to_sectors(shift._padded(np.eye(n))).shape == (1, n, 2)
        assert q._filled == slice(0, 2 * n - 1)
    assert _rotated(6)[0].action.dtype == np.complex128


@pytest.mark.parametrize("n", [6, 32])
def test_cesaro_means_on_filled_sectors_equal_the_full_stack(n):
    """Skipping the empty sectors changes no bit: there only the k = 0 term is left."""
    rng = np.random.default_rng(n + 2)
    marks = {1, 3, 10, 100, 1000}
    m, k, valid = _sector_coords(n)
    gather = np.where(valid, m * n + k, n * n)  # every sector, padding at slot n*n
    for ch in (shift_channel_build(FockTruncation(n)), _substochastic(n, seed=n)[0]):
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        padded = np.append(t.reshape(-1), 0.0)
        full = _cesaro_means(ch.action, padded[gather][..., None].view(float), marks)
        for length, mean in ch.cesaro_means(t, marks).items():
            want = np.zeros(n * n + 1, dtype=complex)
            want[gather] = full[length][..., 0] + 1j * full[length][..., 1]
            np.testing.assert_array_equal(mean, want[:-1].reshape(n, n))


@pytest.mark.parametrize("n", [6, 32])
def test_real_and_complex_storage_agree(n):
    rng = np.random.default_rng(n + 3)
    t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for real in (qchannel_build(FockTruncation(n)), shift_channel_build(FockTruncation(n))):
        cplx = TruncatedChannel(real.action.astype(complex), n)
        assert cplx.action.dtype == np.complex128
        assert real.trace_defect_bound == cplx.trace_defect_bound
        assert np.max(np.abs(real.apply(t) - cplx.apply(t))) <= 1e-14 * np.abs(t).max()
        marks = {1, 7, 64, 4096}
        means_r, means_c = real.cesaro_means(t, marks), cplx.cesaro_means(t, marks)
        for length in marks:
            assert np.max(np.abs(means_r[length] - means_c[length])) <= 1e-14 * np.abs(t).max()
        for br, bc in zip(real.choi(), cplx.choi()):
            assert np.max(np.abs(br - bc), initial=0.0) <= 1e-14


@pytest.mark.parametrize("bad", ["nan", "inf", "object", "str", "shape"])
def test_truncated_channel_refuses_invalid_actions(bad):
    action = qchannel_build(FockTruncation(4)).action
    if bad == "nan":
        action = action.copy()
        action[3, 1, 2] = np.nan
    elif bad == "inf":
        action = action.astype(complex)
        action[0, 0, 0] = complex(0.0, np.inf)
    elif bad == "object":
        action = action.astype(object)
    elif bad == "str":
        action = action.astype(str)
    else:
        action = action.tolist()[:-1]
    with pytest.raises(OperatorError):
        TruncatedChannel(action, 4)


def test_truncated_channel_reads_a_nested_list():
    ch = qchannel_build(FockTruncation(5))
    listed = TruncatedChannel(ch.action.tolist(), 5)
    assert listed.action.dtype == np.float64
    np.testing.assert_array_equal(listed.action, ch.action)
    assert listed.trace_defect_bound == ch.trace_defect_bound


def test_zero_channel_fills_no_sector():
    ch = TruncatedChannel(np.zeros((7, 4, 4)), 4)
    t = np.arange(16.0).reshape(4, 4) * (1 + 2j)
    assert ch.trace_defect_bound == 1.0
    np.testing.assert_array_equal(ch.apply(t), np.zeros((4, 4)))
    for length, mean in ch.cesaro_means(t, {1, 5}).items():
        # real and imaginary parts divided separately, correctly rounded
        np.testing.assert_array_equal(mean, t.real / length + 1j * (t.imag / length))


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


def test_position_sweep_decomposes_only_real_matrices(monkeypatch, tmp_path):
    """Every matrix that one `cv-position` call at 32 levels hands to `eigh`,
    `eigvalsh` or `svd` is float64: the bins, the repair, the embedding's checks
    and its fixed-point gate all stay in real arithmetic."""
    from broadcastlab.cli import main

    seen = []

    def recording(fn):
        def wrapped(a, *args, **kwargs):
            seen.append((fn.__name__, np.asarray(a).dtype))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    assert main(["cv-position", "--levels", "32", "--seed", "11",
                 "--output", str(tmp_path / "report.json")]) == 0
    monkeypatch.undo()
    assert {name for name, _ in seen} == {"eigh", "eigvalsh", "svd"}
    assert [(name, dtype) for name, dtype in seen if dtype != np.float64] == []


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


def _direct_bin(lo, hi, n_levels):
    """int_lo^hi h_m h_n dx of one bin by its own node-doubling Gauss-Legendre rule."""
    prev = None
    for n_nodes in (64, 128, 256, 512, 1024):
        xs, ws = np.polynomial.legendre.leggauss(n_nodes)
        h = hermite_functions(n_levels, 0.5 * (hi - lo) * xs + 0.5 * (hi + lo))
        mat = (h * (0.5 * (hi - lo) * ws)) @ h.T
        if prev is not None and np.max(np.abs(mat - prev)) <= 1e-10:
            return mat
        prev = mat
    raise AssertionError(f"reference bin [{lo}, {hi}] did not converge")


@pytest.mark.parametrize("levels", [8, 24, 32, 64])
@pytest.mark.parametrize("bins", [(2, 4, 8, 16), (3, 4, 5), (1,), (16, 2)])
def test_shared_quadrature_matches_each_bin_integrated_alone(levels, bins):
    """Every requested bin, summed from the intervals of the union of all
    grids' edges, equals its own direct Gauss-Legendre integral within 1e-14,
    nested or not, and is real; the complement completes each family to the
    identity."""
    pvms = binned_position_pvms(-3.0, 3.0, bins, FockTruncation(levels))
    assert len(pvms) == len(bins)
    for n_bins, (effects, complement) in zip(bins, pvms):
        edges = np.linspace(-3.0, 3.0, n_bins + 1)
        assert len(effects) == n_bins
        for lo, hi, e in zip(edges[:-1], edges[1:], effects):
            assert e.dtype == np.float64
            assert np.abs(e - _direct_bin(lo, hi, levels)).max() <= 1e-14
        np.testing.assert_array_equal(complement, np.eye(levels) - sum(effects))
        # one grid alone takes the same path
        alone, alone_complement = binned_position_pvm(-3.0, 3.0, n_bins, FockTruncation(levels))
        for a, e in zip(alone, effects):
            assert np.abs(a - e).max() <= 1e-14


@pytest.mark.parametrize("bins", [(1,), (2, 1), (1, 3)])
def test_shared_quadrature_that_cannot_converge_raises(bins):
    """A range far wider than the Hermite functions at 64 levels is not resolved
    by 1024 nodes per interval: no bin is accepted without the 1e-10 test."""
    with pytest.raises(OperatorError, match="did not converge to 1.0e-10"):
        binned_position_pvms(-1000.0, 1000.0, bins, FockTruncation(64))


def test_shared_quadrature_input_validation():
    assert binned_position_pvms(-3.0, 3.0, (), FockTruncation(8)) == []
    with pytest.raises(OperatorError):
        binned_position_pvms(3.0, -3.0, (2,), FockTruncation(8))
    with pytest.raises(OperatorError):
        binned_position_pvms(-3.0, 3.0, (4, 0), FockTruncation(8))


def _loop_repair(effects, seed):
    """The repair with one diagonal and one projection per effect, for comparison,
    in the effects' own dtype."""
    ops = [np.asarray(e) for e in effects]
    coeffs = 1.0 + np.random.default_rng(seed).random(len(ops))
    generic = sum(c * 0.5 * (e + dagger(e)) for c, e in zip(coeffs, ops))
    _, u = np.linalg.eigh(generic)
    diags = np.stack([np.real(np.diag(dagger(u) @ e @ u)) for e in ops])
    assignment = np.argmax(diags, axis=0)
    return [(u * np.where(assignment == i, 1.0, 0.0)) @ dagger(u) for i in range(len(ops))]


@pytest.mark.parametrize("levels", [8, 24, 32])
@pytest.mark.parametrize("seed", [0, 1, 5, 11])
def test_repair_assignment_is_unchanged(levels, seed):
    """The batched repair equals the per-effect loop bit for bit, and the shared
    quadrature's families round to the same one-hot assignment (the same
    projection ranks) as families of bins integrated one by one.  The real
    family and its complex128 copy give the same ranks and a repair distance
    within 1e-13 relative."""
    bins = (2, 4, 8, 16)
    for n_bins, (effects, complement) in zip(
            bins, binned_position_pvms(-3.0, 3.0, bins, FockTruncation(levels))):
        family = effects + [complement]
        projections, distance = repair_to_commuting_projections(family, seed=seed)
        for p, q in zip(projections, _loop_repair(family, seed)):
            np.testing.assert_array_equal(p, q)
        assert distance == max_op_norm(p - e for p, e in zip(projections, family))[0]
        edges = np.linspace(-3.0, 3.0, n_bins + 1)
        direct = [_direct_bin(lo, hi, levels) for lo, hi in zip(edges[:-1], edges[1:])]
        reference = _loop_repair(direct + [np.eye(levels) - sum(direct)], seed)
        ranks = [round(np.trace(p).real) for p in projections]
        assert ranks == [round(np.trace(p).real) for p in reference]
        cplx, cplx_distance = repair_to_commuting_projections(
            [e.astype(complex) for e in family], seed=seed)
        assert all(p.dtype == np.float64 for p in projections)
        assert all(p.dtype == np.complex128 for p in cplx)
        assert [round(np.trace(p).real) for p in cplx] == ranks
        assert cplx_distance == pytest.approx(distance, rel=1e-13, abs=0.0)


def test_sweep_trace_defect_is_the_projectivity_norm():
    """The sweep reads ||E^2 - E|| from the eigenvalues of the Hermitian bin
    effects; it agrees with the operator norm to rounding."""
    trunc = FockTruncation(24)
    rows = position_embedding_sweep([2, 4, 8, 16], trunc)
    for row, (effects, complement) in zip(rows, binned_position_pvms(-3.0, 3.0, (2, 4, 8, 16),
                                                                      trunc)):
        family = effects + [complement]
        want = max_op_norm(e @ e - e for e in family)[0]
        assert row["trace_defect"] == pytest.approx(want, rel=1e-13)


def _choi_blocks_one_by_one(action, n):
    """The Choi blocks as each was built alone, one gather per grading g."""
    blocks = []
    for g in range(-(n - 1), n):
        idx = np.arange(n - abs(g))
        low = np.minimum.outer(idx, idx)
        sector = np.subtract.outer(idx, idx) + n - 1
        b = action[sector, low + max(g, 0), low + max(-g, 0)]
        blocks.append(0.5 * (b + dagger(b)))
    return blocks


def _unchecked(action, n):
    """A `TruncatedChannel` holding `action` without its constructor's checks."""
    ch = TruncatedChannel.__new__(TruncatedChannel)
    ch.action, ch.levels = action, n
    return ch


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("complex_action", [False, True])
def test_choi_blocks_equal_the_one_by_one_gathers(n, complex_action):
    """On random actions, real and complex, the blocks of one gather equal the
    blocks built one grading at a time, bit for bit."""
    rng = np.random.default_rng(10 * n + complex_action)
    action = rng.standard_normal((2 * n - 1, n, n))
    if complex_action:
        action = action + 1j * rng.standard_normal((2 * n - 1, n, n))
    got = _unchecked(action, n).choi()
    want = _choi_blocks_one_by_one(action, n)
    assert len(got) == len(want) == 2 * n - 1
    for b, w in zip(got, want):
        assert b.shape == w.shape and b.dtype == w.dtype
        assert b.tobytes() == w.tobytes()


@pytest.mark.parametrize("n", [8, 24, 32])
def test_smoothing_sectors_are_exactly_symmetric(n):
    """Every sector block of the smoothing channel equals its transpose bit for
    bit, so the analysis takes `eigvalsh`; the moduli agree with those of
    `eigvals` within 1e-14."""
    ch = qchannel_build(FockTruncation(n))
    want = []
    for b in ch.sector_blocks():
        assert (b == b.T).all()
        want.append(np.abs(np.linalg.eigvals(b)))
    want = np.sort(np.concatenate(want))[::-1]
    report = qchannel_fixed_analysis(ch, window=2, n_terms=4)
    np.testing.assert_allclose(report["eigenvalue_moduli_top"], want[:10], rtol=0, atol=1e-14)
    assert abs(report["second_largest_modulus"] - want[1]) <= 1e-14


def test_cp_check_refuses_a_negative_eigenvalue_in_a_graded_block():
    """A classical transition matrix at 4 levels with one coherence, |0><1| ->
    |2><3|, too large for the populations it joins: the only negative Choi
    eigenvalue, -0.3, sits in block g = 2, which the check decides together
    with block g = -2."""
    n = 4
    action = np.zeros((2 * n - 1, n, n))
    action[n - 1] = [[0.5, 0, 0, 0], [0, 0.5, 0, 0], [0.5, 0, 1, 0], [0, 0.5, 0, 1]]
    action[n - 2, 2, 0] = action[n, 2, 0] = 0.8
    blocks = _unchecked(action, n).choi()
    lowest = [np.linalg.eigvalsh(b).min() for b in blocks]
    assert lowest[n - 1 + 2] == pytest.approx(-0.3)
    assert min(lowest[:n + 1] + lowest[n + 2:]) >= 0.0
    with pytest.raises(OperatorError,
                       match=r"^truncated channel is not CP: min Choi eigenvalue -3\.000e-01$"):
        TruncatedChannel(action, n)
