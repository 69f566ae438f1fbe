"""The Dykstra feasibility search on the Choi matrix, each piece checked against
a reference built here from `hermitian_basis`, partial traces and the
pseudo-inverse of the affine rows."""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from families import commuting_pair, random_density, random_unitary, rotated_mub_effects

from broadcastlab.contextuality import (
    FeasibilityProblem,
    _constraint_rows,
    _verify_witness,
    _herm_from_real_form,
    _real_form,
    check_measurements_feasibility,
    extend_effect_functional,
)
from broadcastlab.operators import (
    OperatorError,
    hermitian_basis,
    partial_transpose,
)

KET0 = np.diag([1.0, 0.0]).astype(complex)
KET1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def _basis_coords(a, n):
    """Re tr(h^dagger a) for each h in hermitian_basis(n), batched over leading axes."""
    return np.einsum("rab,...ab->...r", np.conj(hermitian_basis(n)), a).real


def _random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# -- the real form -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coordinates_match_basis_inner_products(n):
    """The affine rows act on the real form Re A + Im A: its dot products with the
    real forms of hermitian_basis(n) are the coordinates Re tr(h^dagger a) of a
    Hermitian a, and `_herm_from_real_form` inverts it."""
    rng = np.random.default_rng(100 + n)
    a = _random_complex(rng, n, n)
    h = a + a.conj().T
    basis = _real_form(np.array(hermitian_basis(n))).reshape(n * n, n * n)
    assert np.allclose(basis @ _real_form(h).ravel(), _basis_coords(h, n), atol=1e-14, rtol=0)
    assert np.allclose(_herm_from_real_form(_real_form(h)), h, atol=1e-14, rtol=0)


def test_functional_extension_rejects_operators_of_another_size():
    # the real form of a larger operator would not match the expansion matrix
    with pytest.raises(OperatorError):
        extend_effect_functional([np.eye(3)], [[1.0]], dim=2)
    fun = extend_effect_functional([KET0, KET1], [[1.0], [0.0]], dim=2)
    with pytest.raises(OperatorError):
        fun.evaluate(np.eye(3))


# -- affine system -------------------------------------------------------------


def _reference_affine(effects, picture):
    """The affine rows over hermitian_basis(d^2) coordinates and the right-hand
    side: column i holds the coordinates of the constraint images of the i-th
    basis element, computed for all elements at once."""
    d = effects[0].shape[0]
    eye = np.eye(d)
    h = np.array(hermitian_basis(d * d))

    def ptrace(a, side):
        """Partial trace of a stack of d^2 x d^2 matrices over factor `side`."""
        t = a.reshape(-1, d, d, d, d)
        return np.einsum("xijkj->xik", t) if side == 2 else np.einsum("xijik->xjk", t)

    images = [ptrace(h, 2)]
    for e in effects:
        if picture == "heisenberg":
            images.append(ptrace(h @ np.kron(eye, e), 2).transpose(0, 2, 1))
        else:
            images.append(ptrace(h @ np.kron(e.T, eye), 1))
    columns = _basis_coords(np.stack(images, axis=1), d).reshape(len(h), -1)
    rhs = _basis_coords(np.stack([eye] + list(effects)), d).ravel()
    return columns.T, rhs


def _coordinate_rows(problem):
    """The problem's affine rows over hermitian_basis(d^2) coordinates: the value
    of each row on the real form of each basis element."""
    n = problem.dim ** 2
    basis = _real_form(np.array(hermitian_basis(n))).reshape(n * n, n * n)
    return _constraint_rows(problem.effects, problem.picture) @ basis.T


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("d", [2, 3])
def test_affine_system_matches_basis_loop(d, picture):
    rng = np.random.default_rng(130 + d)
    effects = [random_density(d, rng) for _ in range(3)]
    problem = FeasibilityProblem(effects, picture=picture)
    a, b = _reference_affine(problem.effects, picture)
    rows = _coordinate_rows(problem)
    assert rows.shape == a.shape
    assert np.max(np.abs(rows - a)) <= 1e-13
    assert np.max(np.abs(problem.affine_rhs - b)) <= 1e-13


# -- affine step against the pseudo-inverse --------------------------------------

# rank of the affine rows of the 2d rotated-MUB effects at d = 2..5
MUB_RANKS = {"heisenberg": (12, 45, 112, 225), "schrodinger": (13, 49, 121, 241)}


def _check_affine_against_pinv(problem, a, b, rng):
    """project_affine and the affine residual against x - pinv(A) (A x - b)."""
    n = problem.dim ** 2
    pinv = np.linalg.pinv(a, rcond=1e-12)
    for _ in range(3):
        x = rng.standard_normal(n * n)
        step = pinv @ (a @ x - b)
        j = problem.choi_from_coords(x)
        out = _basis_coords(problem.project_affine(j), n)
        assert np.max(np.abs(out - (x - step))) <= 1e-12
        assert problem.residuals(j)["affine"] == pytest.approx(np.linalg.norm(step), abs=1e-12)


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_affine_step_matches_pseudo_inverse(d, picture):
    rng = np.random.default_rng(160 + d)
    problem = FeasibilityProblem(rotated_mub_effects(d, rng), picture=picture)
    a, b = _reference_affine(problem.effects, picture)
    assert a.shape == (d * d * (2 * d + 1), d ** 4)
    assert np.linalg.matrix_rank(a) == MUB_RANKS[picture][d - 2]
    _check_affine_against_pinv(problem, a, b, rng)


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
def test_one_dimensional_effect_feasible_at_cycle_zero(picture):
    problem = FeasibilityProblem([[[0.5]]], picture=picture)
    a, b = _reference_affine(problem.effects, picture)
    _check_affine_against_pinv(problem, a, b, np.random.default_rng(170))
    verdict = check_measurements_feasibility(problem)
    assert verdict.status == "feasible"
    assert verdict.cycles == 0


# -- residuals -----------------------------------------------------------------


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("d", [2, 3])
def test_residuals_equal_projection_distances(d, picture):
    rng = np.random.default_rng(140 + d)
    problem = FeasibilityProblem([random_density(d, rng) for _ in range(2)], picture=picture)
    for _ in range(3):
        x = problem.choi_from_coords(rng.standard_normal(d ** 4))
        res = problem.residuals(x)
        assert res["psd"] == pytest.approx(
            np.linalg.norm(x - problem.project_psd(x)), abs=1e-12)
        assert res["ppt"] == pytest.approx(
            np.linalg.norm(x - problem.project_ppt(x)), abs=1e-12)
        assert res["affine"] == pytest.approx(
            np.linalg.norm(x - problem.project_affine(x)), abs=1e-12)


# -- properties of the projections ------------------------------------------------


@st.composite
def _problems_and_inputs(draw):
    """A problem on 1-3 random effects at d = 2 or 3 in either picture, and two
    Hermitian d^2 x d^2 matrices given by their coordinates."""
    d = draw(st.sampled_from([2, 3]))
    picture = draw(st.sampled_from(["heisenberg", "schrodinger"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    effects = []
    for _ in range(draw(st.integers(1, 3))):
        u = random_unitary(d, rng)
        effects.append(u @ np.diag(rng.uniform(0.0, 1.0, d)) @ u.conj().T)
    problem = FeasibilityProblem(effects, picture=picture)
    coords = arrays(np.float64, d ** 4, elements=st.floats(-4.0, 4.0))
    return problem, problem.choi_from_coords(draw(coords)), problem.choi_from_coords(draw(coords))


def _tiny_entries_case(tiny=1.716e-159):
    """A Choi matrix whose coordinates over hermitian_basis(4) are all `tiny` but
    one, 1.5: `np.linalg.eigvalsh` alone reads its spectrum 1e-7 off, and the
    error grows as `tiny` shrinks."""
    problem = FeasibilityProblem([np.diag([0.3, 0.7])])
    coords = np.full(16, tiny)
    coords[4] = 1.5
    return problem, problem.choi_from_coords(coords), np.zeros((4, 4), dtype=complex)


@pytest.mark.parametrize("tiny", [1.716e-159, 1e-160])
def test_spectra_exact_beside_entries_far_below_the_rest(tiny):
    problem, x, _ = _tiny_entries_case(tiny)
    res = problem.residuals(x)
    assert res["psd"] == pytest.approx(np.linalg.norm(x - problem.project_psd(x)), abs=1e-12)
    assert res["ppt"] == pytest.approx(np.linalg.norm(x - problem.project_ppt(x)), abs=1e-12)
    checked = _verify_witness(problem, x)
    assert checked["min_eigenvalue"] == pytest.approx(np.linalg.eigh(x)[0][0], abs=1e-12)
    pt = partial_transpose(x, (2, 2), side=1)
    assert checked["min_ppt_eigenvalue"] == pytest.approx(np.linalg.eigh(pt)[0][0], abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(_problems_and_inputs())
@example(_tiny_entries_case())
def test_projections_are_nonexpansive_idempotent_and_land_in_their_sets(case):
    problem, x, y = case
    d = problem.dim
    projections = {"psd": problem.project_psd, "ppt": problem.project_ppt,
                   "affine": problem.project_affine}
    res = problem.residuals(x)
    for name, project in projections.items():
        px = project(x)
        assert np.max(np.abs(project(px) - px)) <= 1e-10
        assert np.linalg.norm(px - project(y)) <= np.linalg.norm(x - y) + 1e-12
        assert res[name] == pytest.approx(np.linalg.norm(x - px), abs=1e-12)
    assert np.linalg.eigvalsh(problem.project_psd(x)).min() >= -1e-12
    ppt = partial_transpose(problem.project_ppt(x), (d, d), side=1)
    assert np.linalg.eigvalsh(ppt).min() >= -1e-12
    a, b = _reference_affine(problem.effects, problem.picture)
    coords = _basis_coords(problem.project_affine(x), d * d)
    assert np.max(np.abs(a @ coords - b)) <= 1e-12


@pytest.mark.parametrize("picture", ["heisenberg", "schrodinger"])
@pytest.mark.parametrize("d", [2, 3])
def test_cone_projections_drop_an_anti_hermitian_part(d, picture):
    """The loop feeds the cones j + correction, Hermitian only up to rounding: the
    projections act on the Hermitian part and return Hermitian matrices."""
    rng = np.random.default_rng(150 + d)
    problem = FeasibilityProblem([random_density(d, rng) for _ in range(2)], picture=picture)
    for scale in (1e-15, 1e-3):
        x = problem.choi_from_coords(rng.standard_normal(d ** 4))
        b = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        skewed = x + scale * (b - b.conj().T)
        for project in (problem.project_psd, problem.project_ppt):
            out = project(skewed)
            assert np.max(np.abs(out - out.conj().T)) <= 1e-13
            assert np.max(np.abs(out - project(x))) <= 1e-12


# -- the search loop -------------------------------------------------------------


def _reference_search(problem):
    """Dykstra on the Choi matrix with a correction on all three sets and
    residuals from the projections: (status, cycles, residual history)."""
    d = problem.dim
    names = ("psd", "ppt", "affine")
    project = {"psd": problem.project_psd, "ppt": problem.project_ppt,
               "affine": problem.project_affine}

    def rmax(x):
        return max(np.linalg.norm(x - project[n](x)) for n in names)

    x = np.eye(d * d, dtype=complex) / d
    corrections = {n: np.zeros_like(x) for n in names}
    history = [rmax(x)]
    if history[0] <= problem.tol:
        return "feasible", 0, history
    best, last = history[0], 0
    for t in range(1, problem.budget + 1):
        for n in names:
            y = project[n](x + corrections[n])
            corrections[n] = x + corrections[n] - y
            x = y
        history.append(rmax(x))
        if history[-1] <= problem.tol:
            return "feasible", t, history
        if history[-1] < best * (1.0 - 1e-3):
            best, last = history[-1], t
        if t - last >= problem.stall_window and best > 10.0 * problem.tol:
            return "infeasible_stalled", t, history
    return "inconclusive", problem.budget, history


def _random_pair_d2():
    rng = np.random.default_rng(3)
    return [random_density(2, rng) for _ in range(2)]


# In the Heisenberg picture a commuting pair at d = 3 is feasible after one
# cycle; the Schrodinger picture takes hundreds, which exercises the loop.  On
# both of those instances plain alternating projections give the same
# iterates; on the random pair the cone corrections change them.  The
# commuting pair at d = 4 is feasible after 55 cycles; the rotated MUB pair at
# d = 3 stalls.
@pytest.mark.parametrize("effects, picture, status", [
    ([KET0, KET1, PLUS, MINUS], "heisenberg", "infeasible_stalled"),
    (commuting_pair(((0.9, 0.5, 0.1), (0.2, 0.7, 0.4)), np.random.default_rng(150)),
     "schrodinger", "feasible"),
    (_random_pair_d2(), "schrodinger", "infeasible_stalled"),
    (commuting_pair(((0.75, 0.5, 0.25, 0.0), (0.1, 0.1, 0.8, 0.8)),
                    np.random.default_rng(151)), "heisenberg", "feasible"),
    (rotated_mub_effects(3, np.random.default_rng(152)), "heisenberg", "infeasible_stalled"),
], ids=["zx", "commuting-d3", "random-d2", "commuting-d4", "mub-d3"])
def test_search_matches_loop_with_affine_correction(effects, picture, status):
    problem = FeasibilityProblem(effects, picture=picture)
    verdict = check_measurements_feasibility(problem)
    ref_status, ref_cycles, ref_history = _reference_search(problem)
    assert verdict.status == ref_status == status
    assert verdict.cycles == ref_cycles
    assert len(verdict.residual_history) == len(ref_history)
    assert np.max(np.abs(np.array(verdict.residual_history) - ref_history)) <= 1e-10


def test_search_logs_progress_every_100_cycles(caplog):
    problem = FeasibilityProblem([KET0, KET1, PLUS, MINUS])
    quiet = check_measurements_feasibility(problem)
    with caplog.at_level(logging.DEBUG, logger="broadcastlab.contextuality"):
        verdict = check_measurements_feasibility(problem)
    assert verdict.residual_history == quiet.residual_history
    assert verdict.cycles == quiet.cycles
    records = [r for r in caplog.records if r.name == "broadcastlab.contextuality"]
    cycles = [r.args[0] for r in records]
    assert cycles == list(range(100, verdict.cycles + 1, 100))
    for r in records:
        t, psd, ppt, affine, best, since = r.args
        assert r.levelno == logging.DEBUG
        assert max(psd, ppt, affine) == verdict.residual_history[t]
        assert best <= verdict.residual_history[0]
        assert 0 <= since <= t
        assert f"cycle {t}:" in r.getMessage()
