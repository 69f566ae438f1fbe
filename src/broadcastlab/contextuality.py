"""Deciders and witness constructors for contextuality non-confirming sets:
the commutativity test for state sets with its broadcasting witness, the
PVM-partition embedding, the entanglement-breaking fixed-point feasibility
search for measurement sets, the finite epsilon-criterion, and the
constructive extension of quasi-linear effect functionals."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .channels import (ChannelError, ChoiChannel, MeasurePrepareChannel, SymmetricLift,
                       choi_to_kraus)
from .config import DimensionCapError, dimension_cap
from .operators import (
    DiscretePOVM,
    NotCommutingError,
    OperatorError,
    as_complex_matrix,
    as_density,
    as_effect,
    as_hermitian,
    commutator_defect,
    dagger,
    frob_norm,
    hermitian_basis,
    max_op_norm,
    op_norm,
    op_norm_exceeds,
    partial_trace,
    partial_transpose,
    simultaneous_diagonalize,
    trace_norm,
)

__all__ = [
    "StateSetVerdict",
    "check_states",
    "broadcaster_from_commuting",
    "PartitionEmbedding",
    "pvm_embed",
    "FeasibilityProblem",
    "MeasSetVerdict",
    "check_measurements_feasibility",
    "ApproxCheckResult",
    "approx_check",
    "AxiomViolationError",
    "ExtendedFunctional",
    "extend_effect_functional",
]

PPT_NOTE = "PPT exact for 2x2 and 2x3, relaxation otherwise"
# cycles between two progress records of the Dykstra search
PROGRESS_EVERY = 100

_log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# state sets


@dataclass(frozen=True)
class StateSetVerdict:
    verdict: str  # "non_confirming" | "confirming"
    witness: MeasurePrepareChannel | None = None
    broadcaster: MeasurePrepareChannel | None = None
    confirming_pair: tuple | None = None
    commutator_norm: float = 0.0
    max_fix_residual: float | None = None
    max_marginal_residual: float | None = None
    notes: tuple = ()


def _pinching_witness(u):
    """Pinching channel onto the common eigenbasis and its symmetric lift, the broadcaster."""
    projections = [u[:, k:k + 1] @ dagger(u[:, k:k + 1]) for k in range(u.shape[1])]
    witness = MeasurePrepareChannel(DiscretePOVM(tuple(projections)), projections)
    return witness, SymmetricLift(witness)


def _koashi_imoto_note(states, u) -> str:
    """Commuting-case cross-check: joint-eigenvalue blocks all have trivial
    multiplicity factors, matching the commutativity verdict."""
    patterns = {}
    for k in range(u.shape[1]):
        e = u[:, k]
        key = tuple(np.round(np.real(np.einsum("i,ij,j->", e.conj(), rho, e)), 8)
                    for rho in states)
        patterns.setdefault(key, 0)
        patterns[key] += 1
    sizes = sorted(patterns.values(), reverse=True)
    return (f"koashi_imoto: {len(sizes)} joint blocks of sizes {sizes}; "
            "multiplicity factors all one-dimensional (commuting case)")


def check_states(states, tol: float = 1e-9, seed: int = 0,
                 fix_tol: float = 1e-9, marginal_tol: float = 1e-10) -> StateSetVerdict:
    """Decide whether a state set admits an entanglement-breaking fixed-point
    explanation, i.e. whether it is pairwise commuting.

    Non-confirming sets come with the pinching witness channel fixing every
    state and the broadcasting channel reproducing both marginals; confirming
    sets report the offending pair and its commutator norm.
    """
    rhos = [as_density(r) for r in states]
    if not rhos:
        raise OperatorError("need at least one state")
    d = rhos[0].shape[0]
    if any(r.shape != (d, d) for r in rhos):
        raise OperatorError("states must share one dimension")

    defect, pair = commutator_defect(rhos)
    if defect > tol:
        return StateSetVerdict(verdict="confirming", confirming_pair=pair,
                               commutator_norm=defect)

    u = simultaneous_diagonalize(rhos, tol=tol, seed=seed)
    witness, broadcaster = _pinching_witness(u)

    fix_resid = max(trace_norm(witness.apply_schrodinger(r) - r) for r in rhos)
    if fix_resid > fix_tol:
        raise RuntimeError(
            f"pinching witness fails to fix an input state: residual {fix_resid:.3e}"
        )
    marg = 0.0
    for r in rhos:
        out = broadcaster.apply_schrodinger(r)
        marg = max(marg, trace_norm(partial_trace(out, (d, d), side=2) - r))
        marg = max(marg, trace_norm(partial_trace(out, (d, d), side=1) - r))
    if marg > marginal_tol:
        raise RuntimeError(f"broadcaster marginal residual {marg:.3e} exceeds tolerance")

    return StateSetVerdict(
        verdict="non_confirming",
        witness=witness,
        broadcaster=broadcaster,
        commutator_norm=defect,
        max_fix_residual=fix_resid,
        max_marginal_residual=marg,
        notes=(_koashi_imoto_note(rhos, u),),
    )


def broadcaster_from_commuting(states, tol: float = 1e-9, seed: int = 0) -> MeasurePrepareChannel:
    """Broadcasting channel H -> H (x) H for a commuting state family: the
    broadcaster of `check_states`, with its fix and marginal checks.

    Raises NotCommutingError (reporting the pair) on non-commuting input.
    """
    verdict = check_states(states, tol=tol, seed=seed)
    if verdict.verdict == "confirming":
        raise NotCommutingError(verdict.confirming_pair, verdict.commutator_norm)
    return verdict.broadcaster


# ---------------------------------------------------------------------------
# PVM partition embedding


@dataclass(frozen=True)
class PartitionEmbedding:
    """Boolean-algebra refinement of PVM subsets with its exact EB witness."""

    atom_sets: tuple          # (pattern, frozenset of labels) pairs, pattern 0..2^n-1
    index_sets: tuple         # per subset k: patterns whose atoms make up K_k
    atom_effects: tuple
    states: tuple
    channel: MeasurePrepareChannel
    max_fix_residual: float


def pvm_embed(labels, projections, subsets, tol: float = 1e-10,
              max_subsets: int = 20) -> PartitionEmbedding:
    """Embed PVM effects A(K_1)..A(K_n) as exact fixed points of an EB channel.

    `labels` and `projections` give the underlying discrete PVM at atom level;
    `subsets` are the outcome sets K_k.  The Boolean atoms X_v of {K_k} are
    indexed by membership pattern (bit k-1 of v set iff X_v is inside K_k,
    v = 0 for the complement of the union); zero atoms are dropped, and each
    kept atom gets the maximally mixed state on its range.
    """
    labels = list(labels)
    projs = [as_effect(p) for p in projections]
    if len(labels) != len(projs):
        raise OperatorError("one projection per outcome label is required")
    if not projs:
        raise OperatorError("need at least one outcome")
    if len(set(labels)) != len(labels):
        raise OperatorError("outcome labels must be distinct")
    n = len(subsets)
    if n < 1:
        raise OperatorError("need at least one subset")
    if n > max_subsets:
        raise OperatorError(f"{n} subsets exceed the atom blow-up guard ({max_subsets})")
    d = projs[0].shape[0]
    label_set = set(labels)
    for k, kk in enumerate(subsets):
        if not set(kk) <= label_set:
            raise OperatorError(f"subset {k} uses labels outside the outcome alphabet")

    # single-PVM check at atom level: idempotent, mutually orthogonal, complete
    for i, p in enumerate(projs):
        if op_norm_exceeds(p @ p - p, tol):
            raise OperatorError(f"outcome {labels[i]!r} is not a projection")
        for j in range(i + 1, len(projs)):
            if op_norm_exceeds(p @ projs[j], tol):
                raise OperatorError(
                    f"outcomes {labels[i]!r} and {labels[j]!r} are not orthogonal; "
                    "inputs are not effects of a single PVM"
                )
    if op_norm_exceeds(sum(projs) - np.eye(d), tol):
        raise OperatorError("atom-level projections do not sum to the identity")

    proj_by_label = dict(zip(labels, projs))
    subset_sets = [frozenset(kk) for kk in subsets]

    def pattern_of(label):
        v = 0
        for k, kk in enumerate(subset_sets):
            if label in kk:
                v |= 1 << k
        return v

    atom_labels: dict[int, set] = {}
    for lab in labels:
        atom_labels.setdefault(pattern_of(lab), set()).add(lab)

    kept = []
    for v in sorted(atom_labels):
        # sum in `labels` order: set order follows string hashing, which
        # changes from process to process
        eff = sum(proj_by_label[lab] for lab in labels if lab in atom_labels[v])
        if op_norm_exceeds(eff, tol):
            kept.append((v, frozenset(atom_labels[v]), eff))

    atom_effects = tuple(e for _, _, e in kept)
    states = tuple(e / np.real(np.trace(e)) for e in atom_effects)
    channel = MeasurePrepareChannel(
        DiscretePOVM(atom_effects, labels=tuple(v for v, _, _ in kept)), states
    )

    index_sets = tuple(
        frozenset(v for v, _, _ in kept if v != 0 and (v >> k) & 1)
        for k in range(n)
    )

    a_ks = (sum((proj_by_label[lab] for lab in labels if lab in kk),
                np.zeros((d, d), dtype=complex)) for kk in subset_sets)
    worst = max_op_norm(channel.apply_heisenberg(a_k) - a_k for a_k in a_ks)[0]
    if worst > 1e-12:
        raise RuntimeError(f"partition embedding fixed-point residual {worst:.3e} > 1e-12")

    return PartitionEmbedding(
        atom_sets=tuple((v, s) for v, s, _ in kept),
        index_sets=index_sets,
        atom_effects=atom_effects,
        states=states,
        channel=channel,
        max_fix_residual=worst,
    )


# ---------------------------------------------------------------------------
# measurement-set feasibility (Dykstra alternating projections)


def _real_form(a: np.ndarray) -> np.ndarray:
    """Re A + Im A, batched.  For Hermitian A the real part is symmetric and the
    imaginary part antisymmetric, so this is a Hilbert-Schmidt isometry from the
    Hermitian n x n matrices onto all real n x n matrices: Re tr(A B) is the dot
    product of the real forms of A and B."""
    return a.real + a.imag


def _herm_from_real_form(s: np.ndarray) -> np.ndarray:
    """The Hermitian matrix whose real form is the real n x n matrix `s`: real part
    the symmetric part of `s`, imaginary part its antisymmetric part."""
    out = np.empty(s.shape, dtype=complex)
    out.real = s + s.T
    out.imag = s - s.T
    out *= 0.5
    return out


def _psd_part(z: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix to the Hermitian part of `z` in the Frobenius norm: that
    part minus its negative spectral part."""
    z = 0.5 * (z + dagger(z))
    w, v = np.linalg.eigh(z)
    k = int(np.searchsorted(w, 0.0))  # eigenvalues come in ascending order
    neg = v[:, :k]
    return z - (neg * w[:k]) @ dagger(neg)


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """`np.linalg.eigvalsh` of a fresh Hermitian matrix or stack `a`, after zeroing in
    place every real and imaginary part below 1e-140 of the largest.  LAPACK's
    eigenvalue-only path is off by up to 1e-4 relative on entries that far below the
    rest (`eigh` is not); by Weyl's inequality the flush moves no eigenvalue by more
    than about n 1e-140 ||a||."""
    parts = a.view(float)
    size = np.abs(parts)
    np.copyto(parts, 0.0, where=size < 1e-140 * size.max(initial=0.0))
    return np.linalg.eigvalsh(a)


def _constraint_rows(effects, picture: str) -> np.ndarray:
    """Rows of the affine system over the real form of the Choi matrix J, one
    block per constraint, row r of a block indexed by the element g_r of
    `hermitian_basis(d)`.

    The constraint reads Re tr(g_r L(J)) = Re tr(L*(g_r) J), so row r is the real
    form of L*(g_r), the adjoint of the constraint map L applied to g_r: one
    batched image per constraint.  Trace preservation L(J) = tr_2 J has
    L*(g) = g (x) I; the Heisenberg condition L(J) = tr_2[J (I (x) E)]^T has
    L*(g) = g^T (x) E; the Schrodinger one L(J) = tr_1[J (E^T (x) I)] has
    L*(g) = E^T (x) g.
    """
    d = effects[0].shape[0]
    n = d * d
    out_basis = np.array(hermitian_basis(d))

    def block(left, right):
        images = np.einsum("...ab,...ij->...aibj", left, right).reshape(n, n, n)
        return _real_form(images).reshape(n, n * n)

    blocks = [block(out_basis, np.eye(d))]
    for e in effects:
        if picture == "heisenberg":
            blocks.append(block(out_basis.transpose(0, 2, 1), e))
        else:
            blocks.append(block(e.T, out_basis))
    return np.concatenate(blocks)


class FeasibilityProblem:
    """Affine-plus-cone description of the EB fixed-point search.

    The variable is the Choi matrix J of a candidate channel on C^d, a Hermitian
    d^2 x d^2 matrix; the projections take and return such matrices and are
    orthogonal in the Frobenius metric.  Affine rows enforce trace preservation
    and the fixed-point conditions for each effect; cone membership (PSD and
    PPT, the EB relaxation) is handled by projection.  `picture` selects whether
    the effects are fixed by the Heisenberg dual (the broadcastability
    condition) or by the Schrodinger action; the two coincide on the commuting
    instances decided here.

    The affine system is A x = b over the real form x = Re J + Im J
    (`_real_form`), with the rows of `_constraint_rows` and `affine_rhs`, the
    values Re tr(g_r E) over `hermitian_basis(d)` of the identity and of each
    effect.  One SVD at set-up gives the orthonormal rows Q of the row space
    (singular values above 1e-12 of the largest) and c = Q pinv(A) b: the affine
    projection is x - Q^T (Q x - c) and the affine distance ||Q x - c||.
    """

    def __init__(self, effects, picture: str = "heisenberg", budget: int = 20000,
                 tol: float = 1e-7, stall_window: int = 500, cap: int | None = None):
        self.effects = tuple(as_effect(e) for e in effects)
        if not self.effects:
            raise OperatorError("need at least one effect")
        d = self.effects[0].shape[0]
        if any(e.shape != (d, d) for e in self.effects):
            raise OperatorError("effects must share one dimension")
        cap = cap if cap is not None else dimension_cap()
        if d * d > cap:
            raise DimensionCapError(f"d^2 = {d * d} exceeds cap {cap}")
        if picture not in ("heisenberg", "schrodinger"):
            raise ValueError(f"unknown picture {picture!r}")
        self.dim = d
        self.picture = picture
        self.budget = int(budget)
        if self.budget < 1:
            raise ValueError(f"budget must be a positive cycle count, got {budget}")
        self.tol = float(tol)
        self.stall_window = int(stall_window)

        real_rows = _constraint_rows(self.effects, picture)
        targets = np.stack((np.eye(d),) + self.effects)
        self.affine_rhs = np.einsum("rab,kba->kr", np.array(hermitian_basis(d)),
                                    targets).real.ravel()
        u, s, vh = np.linalg.svd(real_rows, full_matrices=False)
        rank = int(np.count_nonzero(s > 1e-12 * s[0]))
        self._rows = vh[:rank]
        # the row space vanishes wherever every row does; clear the SVD's rounding there
        self._rows[:, ~real_rows.any(axis=0)] = 0.0
        self._rhs = (self.affine_rhs @ u[:, :rank]) / s[:rank]

    # projections of Hermitian d^2 x d^2 matrices, orthogonal in the Frobenius metric
    def _affine_gap(self, s: np.ndarray) -> np.ndarray:
        """Q x - c, from the real form `s` of J."""
        return self._rows @ s.ravel() - self._rhs

    def project_affine(self, j: np.ndarray) -> np.ndarray:
        s = _real_form(j)
        s -= (self._affine_gap(s) @ self._rows).reshape(s.shape)
        return _herm_from_real_form(s)

    def project_psd(self, j: np.ndarray) -> np.ndarray:
        return _psd_part(j)

    def project_ppt(self, j: np.ndarray) -> np.ndarray:
        d = self.dim
        return partial_transpose(_psd_part(partial_transpose(j, (d, d))), (d, d))

    def residuals(self, j: np.ndarray) -> dict:
        """Distances from `j` to the three sets: for the cones, the norm of the
        negative eigenvalues of J and of its partial transpose (one batched
        `eigvalsh`); for the affine set, ||Q x - c||."""
        d = self.dim
        w = _eigvalsh(np.stack((j, partial_transpose(j, (d, d)))))
        psd, ppt = np.linalg.norm(np.minimum(w, 0.0), axis=1)
        return {
            "psd": float(psd),
            "ppt": float(ppt),
            "affine": float(np.linalg.norm(self._affine_gap(_real_form(j)))),
        }

    def choi_from_coords(self, x: np.ndarray) -> np.ndarray:
        """The Choi matrix with coordinates `x` over `hermitian_basis(d^2)`."""
        return np.tensordot(x, hermitian_basis(self.dim ** 2), 1)


@dataclass(frozen=True)
class MeasSetVerdict:
    status: str  # "feasible" | "infeasible_stalled" | "inconclusive"
    witness_choi: np.ndarray | None
    witness_channel: MeasurePrepareChannel | None
    residual_history: tuple
    final_residuals: dict
    cycles: int
    notes: tuple
    verification: dict = field(default_factory=dict)


def _rank_one_regroup(choi: ChoiChannel, tol: float = 1e-6) -> MeasurePrepareChannel | None:
    """Measure-prepare form from a Choi matrix whose Kraus operators are rank one."""
    try:
        kraus = choi_to_kraus(choi, tol=1e-9).kraus_ops
    except ChannelError:
        return None
    effects, states = [], []
    for k in kraus:
        u, s, vh = np.linalg.svd(k)
        if len(s) > 1 and s[1] > tol * s[0]:
            return None
        effects.append((s[0] ** 2) * np.outer(vh[0].conj(), vh[0]))
        states.append(np.outer(u[:, 0], u[:, 0].conj()))
    try:
        return MeasurePrepareChannel(DiscretePOVM(tuple(effects), tol=1e-6), states)
    except (OperatorError, ValueError):
        return None


def check_measurements_feasibility(problem: FeasibilityProblem) -> MeasSetVerdict:
    """Search for an entanglement-breaking (PPT-relaxed) channel fixing the
    effects, by Dykstra alternating projections on PSD -> PPT -> affine.

    The cones carry Dykstra corrections; the affine set needs none, because
    its correction lies in the row space of the constraint matrix, which the
    affine projection removes again: P_A(x + c) = P_A(x).

    Feasibility means every residual fell below `problem.tol` within budget;
    stalling (no relative progress over `stall_window` cycles while the best
    residual stays above 10 * tol) is reported as such, never as an
    infeasibility certificate.  Every `PROGRESS_EVERY` cycles one DEBUG record
    gives the cycle, the three residuals, the best residual and the cycles
    since it last improved.
    """
    d = problem.dim
    j = np.eye(d * d, dtype=complex) / d
    corrections = {"psd": np.zeros_like(j), "ppt": np.zeros_like(j)}
    projections = {"psd": problem.project_psd, "ppt": problem.project_ppt}

    notes = [PPT_NOTE]
    if d > 3:
        notes.append("d > 3: PPT feasibility does not certify an entanglement-breaking witness")

    history = []
    res = problem.residuals(j)
    rmax = max(res.values())
    history.append(rmax)
    best = rmax
    last_improvement = 0
    status = "inconclusive"
    cycles = 0

    if rmax <= problem.tol:
        status = "feasible"
    else:
        for t in range(1, problem.budget + 1):
            cycles = t
            for name in ("psd", "ppt"):
                z = j + corrections[name]
                j = projections[name](z)
                corrections[name] = z - j
            j = problem.project_affine(j)
            res = problem.residuals(j)
            rmax = max(res.values())
            history.append(rmax)
            if rmax <= problem.tol:
                status = "feasible"
                break
            if rmax < best * (1.0 - 1e-3):
                best = rmax
                last_improvement = t
            if t % PROGRESS_EVERY == 0:
                _log.debug("dykstra cycle %d: psd %.3e ppt %.3e affine %.3e, best %.3e, "
                           "%d cycles since improvement", t, res["psd"], res["ppt"],
                           res["affine"], best, t - last_improvement)
            if (t - last_improvement >= problem.stall_window
                    and best > 10.0 * problem.tol):
                status = "infeasible_stalled"
                break

    witness_matrix = j
    witness_channel = None
    verification: dict = {}
    if status == "feasible":
        verification = _verify_witness(problem, witness_matrix)
        if verification["max_residual"] > 100.0 * problem.tol:
            raise RuntimeError(
                "solver reported feasibility but independent verification "
                f"found residual {verification['max_residual']:.3e}"
            )
        # the checks above passed at 100 * tol, so this constructor accepts the matrix
        choi = ChoiChannel(witness_matrix, d, d, tol=max(1e-8, 100.0 * problem.tol))
        witness_channel = _rank_one_regroup(choi)
        if witness_channel is None:
            notes.append("measure-prepare extraction unavailable; witness kept in Choi form")

    return MeasSetVerdict(
        status=status,
        witness_choi=witness_matrix if status == "feasible" else None,
        witness_channel=witness_channel,
        residual_history=tuple(history),
        final_residuals=res,
        cycles=cycles,
        notes=tuple(notes),
        verification=verification,
    )


def _verify_witness(problem: FeasibilityProblem, j: np.ndarray) -> dict:
    """Constraint check of a Choi witness, independent of the solver loop."""
    d = problem.dim
    jh = 0.5 * (j + dagger(j))
    w, wt = _eigvalsh(np.stack((jh, partial_transpose(jh, (d, d), side=1))))
    tp = op_norm(partial_trace(jh, (d, d), side=2) - np.eye(d))
    fixing = []
    eye = np.eye(d)
    for e in problem.effects:
        if problem.picture == "heisenberg":
            img = partial_trace(jh @ np.kron(eye, e), (d, d), side=2).T
        else:
            img = partial_trace(jh @ np.kron(e.T, eye), (d, d), side=1)
        fixing.append(op_norm(img - e))
    out = {
        "min_eigenvalue": float(w.min()),
        "min_ppt_eigenvalue": float(wt.min()),
        "trace_preservation": float(tp),
        "fixing": [float(f) for f in fixing],
    }
    out["max_residual"] = max(max(0.0, -out["min_eigenvalue"]),
                              max(0.0, -out["min_ppt_eigenvalue"]),
                              out["trace_preservation"], *out["fixing"])
    return out


# ---------------------------------------------------------------------------
# finite epsilon-criterion


@dataclass(frozen=True)
class ApproxCheckResult:
    deviations: tuple
    epsilon: float
    passed: bool


def approx_check(effects, channel, epsilon: float) -> ApproxCheckResult:
    """Per-effect deviation max |eig(Lambda*(E) - E)| against the threshold.

    For Hermitian X the supremum of |tr(rho X)| over states equals the largest
    eigenvalue magnitude, so this is exactly the worst state-wise deviation.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    devs = []
    for e in effects:
        e = as_effect(e)
        diff = channel.apply_heisenberg(e) - e
        w = np.linalg.eigvalsh(0.5 * (diff + dagger(diff)))
        devs.append(float(np.max(np.abs(w))))
    return ApproxCheckResult(tuple(devs), float(epsilon), all(v < epsilon for v in devs))


# ---------------------------------------------------------------------------
# constructive extension of quasi-linear effect functionals


class AxiomViolationError(ValueError):
    """Supplied effect-functional values violate one of the quasi-linearity axioms."""

    def __init__(self, axiom: str, where: str):
        self.axiom = axiom
        self.where = where
        super().__init__(f"axiom violated ({axiom}): {where}")


class ExtendedFunctional:
    """Linear extension of a quasi-linear functional defined on effects.

    Evaluation follows the three-stage construction: positive operators by
    operator-norm scaling, Hermitian operators by a positive-part split
    (independent of the chosen split), and general operators by the
    real/imaginary-part combination.  Values are vectors over the sample
    points the input functional was tabulated on.
    """

    def __init__(self, effects, values, dim: int, tol: float = 1e-9):
        self.dim = int(dim)
        self.tol = float(tol)
        self.effects = tuple(as_effect(e, tol=max(tol, 1e-9)) for e in effects)
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape[0] != len(self.effects):
            raise OperatorError("one row of values per supplied effect is required")
        self.values = vals
        self.n_samples = vals.shape[1]
        if any(e.shape != (self.dim, self.dim) for e in self.effects):
            raise OperatorError(f"effects must be {self.dim} x {self.dim}")
        mat = _real_form(np.stack(self.effects)).reshape(len(self.effects), -1).T
        self._expand_matrix = mat
        self._expand_pinv = np.linalg.pinv(mat, rcond=1e-12)
        self._validate()

    # -- input validation -------------------------------------------------
    def _validate(self):
        v = self.values
        if v.min() < -self.tol or v.max() > 1.0 + self.tol:
            i, s = np.unravel_index(int(np.argmax(np.abs(v - np.clip(v, 0, 1)))), v.shape)
            raise AxiomViolationError(
                "0 <= T(E) <= 1", f"effect {i}, sample {s}: value {v[i, s]!r}")

        coeffs, resid = self._expand(np.eye(self.dim))
        if resid > self.tol:
            raise AxiomViolationError(
                "T(I) = 1", "identity is not in the span of the supplied effects")
        unit = coeffs @ self.values
        if np.max(np.abs(unit - 1.0)) > 1e-6:
            s = int(np.argmax(np.abs(unit - 1.0)))
            raise AxiomViolationError("T(I) = 1", f"sample {s}: T(I) = {unit[s]!r}")

        # additivity (E_i + E_j = E_k, i <= j, E_i + E_j <= I) and homogeneity
        # (E_i = t E_j, 0 < t <= 1) on the generating set.  The Gram matrix of the
        # real forms screens every triple and pair (a squared distance from it
        # carries rounding of order 1e-16 ||E||^2); the distance itself decides,
        # and np.argwhere keeps the order of the nested loops
        eff = np.stack(self.effects)
        gram = self._expand_matrix.T @ self._expand_matrix
        sq = np.diag(gram)
        screen = self.tol ** 2 + 1e-9 * sq.max()
        fits = np.triu(np.linalg.eigvalsh(eff[:, None] + eff[None, :])[..., -1] <= 1.0 + self.tol)
        dist2 = (sq[:, None, None] + sq[None, :, None] + sq[None, None, :]
                 + 2.0 * (gram[:, :, None] - gram[:, None, :] - gram[None, :, :]))
        i, j, k = np.argwhere(fits[:, :, None] & (dist2 <= screen)).T
        close = np.linalg.norm(eff[i] + eff[j] - eff[k], axis=(1, 2)) <= self.tol
        drift = np.abs(v[i] + v[j] - v[k]).max(axis=1)
        bad = np.flatnonzero(close & (drift > 1e-6))
        if bad.size:
            m = bad[0]
            raise AxiomViolationError(
                "T(E+F) = T(E) + T(F)", f"effects {i[m]}+{j[m]} vs {k[m]}, drift {drift[m]:.3e}")
        t = np.divide(gram.T, sq, out=np.zeros_like(gram), where=sq > 0)  # <E_j, E_i> / <E_j, E_j>
        pairs = (sq[:, None] > 0) & ~np.eye(len(eff), dtype=bool) & (t > 0) & (t <= 1 + self.tol)
        i, j = np.argwhere(pairs & (sq[:, None] - 2.0 * t * gram + t ** 2 * sq <= screen)).T
        t = t[i, j]
        close = np.linalg.norm(eff[i] - t[:, None, None] * eff[j], axis=(1, 2)) <= self.tol
        drift = np.abs(v[i] - t[:, None] * v[j]).max(axis=1)
        bad = np.flatnonzero(close & (drift > 1e-6))
        if bad.size:
            m = bad[0]
            raise AxiomViolationError(
                "T(tE) = tT(E)", f"effects {i[m]} = {t[m]:.6f} * {j[m]}, drift {drift[m]:.3e}")

        # global consistency: each sample column must come from a linear functional
        w_all = np.linalg.lstsq(self._expand_matrix.T, self.values, rcond=None)[0]
        drift = self._expand_matrix.T @ w_all - self.values
        worst = float(np.max(np.abs(drift))) if drift.size else 0.0
        if worst > 1e-6:
            i, s = np.unravel_index(int(np.argmax(np.abs(drift))), drift.shape)
            raise AxiomViolationError(
                "linearity", f"values at effect {i}, sample {s} are inconsistent "
                             f"with any linear functional (residual {worst:.3e})")

    # -- evaluation stages -------------------------------------------------
    def _expand(self, a) -> tuple[np.ndarray, float]:
        if np.shape(a) != (self.dim, self.dim):
            raise OperatorError(f"operator must be {self.dim} x {self.dim}, got {np.shape(a)}")
        target = _real_form(np.asarray(a)).ravel()
        coeffs = self._expand_pinv @ target
        resid = float(np.linalg.norm(self._expand_matrix @ coeffs - target))
        return coeffs, resid

    def _t_effect(self, e) -> np.ndarray:
        coeffs, resid = self._expand(e)
        if resid > self.tol * max(1.0, frob_norm(e)):
            raise OperatorError(
                f"operator is outside the span of the supplied effects (residual {resid:.3e})")
        return coeffs @ self.values

    def stage_positive(self, a) -> np.ndarray:
        """T'(A) = ||A|| T(A / ||A||) for positive A."""
        a = as_hermitian(a)
        w = np.linalg.eigvalsh(a)
        if w.min() < -self.tol * max(1.0, abs(w.max())):
            raise OperatorError(f"stage_positive needs a PSD operator, min eig {w.min():.3e}")
        nrm = float(w.max())
        if nrm <= 0.0:
            return np.zeros(self.n_samples)
        return nrm * self._t_effect(a / nrm)

    def stage_hermitian(self, a, decomposition=None) -> np.ndarray:
        """T''(A) = T'(A+) - T'(A-), independent of the positive-part split."""
        a = as_hermitian(a)
        if decomposition is None:
            w, v = np.linalg.eigh(a)
            plus = (v * np.clip(w, 0.0, None)) @ dagger(v)
            minus = (v * np.clip(-w, 0.0, None)) @ dagger(v)
        else:
            plus, minus = (as_hermitian(p) for p in decomposition)
            if frob_norm((plus - minus) - a) > self.tol * max(1.0, frob_norm(a)):
                raise OperatorError("supplied decomposition does not reproduce the operator")
        return self.stage_positive(plus) - self.stage_positive(minus)

    def evaluate(self, a) -> np.ndarray:
        """Full linear extension on arbitrary operators."""
        a = as_complex_matrix(a)
        re = 0.5 * self.stage_hermitian(a + dagger(a))
        im = 0.5 * self.stage_hermitian(-1j * (a - dagger(a)))
        return re + 1j * im


def extend_effect_functional(effects, values, dim: int, tol: float = 1e-9) -> ExtendedFunctional:
    """Extend tabulated quasi-linear effect values to a linear functional."""
    return ExtendedFunctional(effects, values, dim, tol=tol)
