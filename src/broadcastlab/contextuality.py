"""Deciders and witness constructors for contextuality non-confirming sets:
the commutativity test for state sets with its broadcasting witness, the
PVM-partition embedding, the entanglement-breaking fixed-point feasibility
search for measurement sets, the finite epsilon-criterion, and the
constructive extension of quasi-linear effect functionals."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (ChoiChannel, MeasurePrepareChannel, SymmetricLift, _choi_action,
                       channel_matrix, choi_from_superoperator)
from .config import DimensionCapError, dimension_cap
from .operators import (
    PSD_TOL,
    TRACE_TOL,
    DiscretePOVM,
    NotCommutingError,
    OperatorError,
    _check_density,
    _exceeding,
    _frob_norms,
    _trace,
    as_densities,
    as_effects,
    as_hermitian,
    as_matrix,
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
    square_family,
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
    "decide_measurements",
    "check_measurements_feasibility",
    "ApproxCheckResult",
    "approx_check",
    "AxiomViolationError",
    "ExtendedFunctional",
    "extend_effect_functional",
]

PPT_NOTE = "PPT exact for 2x2 and 2x3, relaxation otherwise"
PINCHING_NOTE = ("witness: the pinching onto a common eigenbasis of the effects, "
                 "measure-and-prepare and hence entanglement breaking")
# cycles between two progress records of the Dykstra search
PROGRESS_EVERY = 100
# cycles without relative progress after which the Dykstra search reports a stall
STALL_WINDOW = 500

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


def _pinching_witness(u) -> MeasurePrepareChannel:
    """Pinching channel onto the orthonormal basis given by the columns of `u`:
    Lambda(X) = sum_k <k|X|k> |k><k|, measure-and-prepare and its own dual."""
    projections = [u[:, k:k + 1] @ dagger(u[:, k:k + 1]) for k in range(u.shape[1])]
    return _atom_channel(projections)


def _atom_channel(effects, labels=None, povm_tol: float = PSD_TOL, traces=None,
                  state_tols=None) -> MeasurePrepareChannel:
    """The measure-and-prepare channel that measures `DiscretePOVM(effects,
    labels, povm_tol)` and prepares each (symmetrized) effect divided by its
    trace in `traces`, or the effect itself when `traces` is None, each state
    checked at its `state_tols` entry (default `PSD_TOL`).  The states are
    checked on the POVM's one stacked `eigvalsh`: a state's spectrum is its
    effect's divided by the trace.  The refusals are those, in the order, of the
    POVM followed by `as_density` of each state in turn."""
    povm = DiscretePOVM(tuple(effects), labels=labels, tol=povm_tol)
    states, spectra = povm.effects, povm._spectra
    if traces is not None:
        with np.errstate(all="ignore"):  # a state made non-finite by its trace is refused below
            states = tuple(e / t for e, t in zip(states, traces))
            spectra = spectra / np.array(traces)[:, None]
    checked = []
    for k, (s, w) in enumerate(zip(states, spectra)):
        s = as_hermitian(s)
        _check_density(w, _trace(s), state_tols[k] if state_tols else PSD_TOL, TRACE_TOL)
        checked.append(s)
    channel = MeasurePrepareChannel.__new__(MeasurePrepareChannel)
    channel._prepare(povm, checked)
    return channel


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


def check_states(states, tol: float = 1e-9, seed: int = 0) -> StateSetVerdict:
    """Decide whether a state set admits an entanglement-breaking fixed-point
    explanation, i.e. whether it is pairwise commuting.

    Non-confirming sets come with the pinching witness channel fixing every
    state and the broadcasting channel reproducing both marginals; confirming
    sets report the offending pair and its commutator norm.
    """
    rhos, d = square_family(as_densities(states), "state", OperatorError)

    defect, pair = commutator_defect(rhos)
    if defect > tol:
        return StateSetVerdict(verdict="confirming", confirming_pair=pair,
                               commutator_norm=defect)

    u = simultaneous_diagonalize(rhos, tol=tol, seed=seed)
    witness = _pinching_witness(u)
    broadcaster = SymmetricLift(witness)

    fix_resid = max(trace_norm(witness.apply_schrodinger(r) - r) for r in rhos)
    if fix_resid > 1e-9:
        raise RuntimeError(
            f"pinching witness fails to fix an input state: residual {fix_resid:.3e}"
        )
    marg = 0.0
    for r in rhos:
        out = broadcaster.apply_schrodinger(r)
        marg = max(marg, trace_norm(partial_trace(out, (d, d), side=2) - r))
        marg = max(marg, trace_norm(partial_trace(out, (d, d), side=1) - r))
    if marg > 1e-10:
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


def pvm_embed(labels, projections, subsets, tol: float = 1e-10) -> PartitionEmbedding:
    """Embed PVM effects A(K_1)..A(K_n) as exact fixed points of an EB channel.

    `labels` and `projections` give the underlying discrete PVM at atom level;
    `subsets` are the outcome sets K_k.  The Boolean atoms X_v of {K_k} are
    indexed by membership pattern (bit k-1 of v set iff X_v is inside K_k,
    v = 0 for the complement of the union); zero atoms are dropped, and each
    kept atom gets the maximally mixed state on its range.
    """
    labels = list(labels)
    projs, d = square_family(map(as_hermitian, projections), "projection", OperatorError)
    if len(labels) != len(projs):
        raise OperatorError("one projection per outcome label is required")
    if len(set(labels)) != len(labels):
        raise OperatorError("outcome labels must be distinct")
    n = len(subsets)
    if n < 1:
        raise OperatorError("need at least one subset")
    if n > 20:
        raise OperatorError(f"{n} subsets exceed the atom blow-up guard (20)")
    label_set = set(labels)
    for k, kk in enumerate(subsets):
        if not set(kk) <= label_set:
            raise OperatorError(f"subset {k} uses labels outside the outcome alphabet")

    # single-PVM check at atom level: idempotent, mutually orthogonal, complete;
    # `defect` is the largest Frobenius norm of a P_a^2 - P_a or P_a P_b (a != b).
    # Row i is one stacked product P_i [P_i, P_i+1, ...], decided in order.
    stack = np.array(projs)
    defect = 0.0
    for i, p in enumerate(projs):
        row = p @ stack[i:]
        row[0] -= p
        norms = _frob_norms(row)
        j = next(_exceeding(row, tol, norms), None)
        if j == 0:
            raise OperatorError(f"outcome {labels[i]!r} is not a projection")
        if j is not None:
            raise OperatorError(
                f"outcomes {labels[i]!r} and {labels[i + j]!r} are not orthogonal; "
                "inputs are not effects of a single PVM"
            )
        # fmax, like max(defect, f), passes over a NaN norm
        defect = float(np.fmax.reduce(norms, initial=defect))
    complete = sum(projs) - np.eye(d)
    if op_norm_exceeds(complete, tol):
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

    patterns = sorted(atom_labels)
    # sum in `labels` order: set order follows string hashing, which
    # changes from process to process
    effs = [sum(proj_by_label[lab] for lab in labels if lab in atom_labels[v]) for v in patterns]
    stack = np.array(effs)
    norms = _frob_norms(stack)
    exceeding = set(_exceeding(stack, tol, norms))
    kept = []
    for k, (v, eff, f) in enumerate(zip(patterns, effs, norms.tolist())):
        if k in exceeding:
            kept.append((v, frozenset(atom_labels[v]), eff))
        else:
            defect = max(defect, f)

    # The kept atoms form a POVM up to bound = c + L·defect, c = ||sum_a P_a - I||_F,
    # for the L labels (norms in exact arithmetic; the operator norm is at most the
    # Frobenius norm). A negative eigenvalue l of P_a has |l| <= l² - l <= defect, and
    # one above 1 has l - 1 <= l² - l <= defect, so -defect <= P_a <= 1 + defect: the
    # checks above decide each projection's spectrum at `tol`. Hence
    # E_v = sum_{a in v} P_a >= -|v|·defect, and
    # E_v = I + (sum_a P_a - I) - sum_{b not in v} P_b <= (1 + c + (L - |v|)·defect) I.
    # sum_kept E_v - I is sum_a P_a - I minus the dropped atoms, each of norm at most
    # defect. So spectra lie in [-bound, 1 + bound] and the sum is within bound of I.
    # Checked at max(PSD_TOL, 2·bound), at least PSD_TOL / 2 is left for rounding;
    # an exact PVM, with c and defect at rounding level, keeps the PSD_TOL check.
    povm_tol = max(PSD_TOL, 2.0 * (frob_norm(complete) + len(labels) * defect))
    atom_effects = tuple(e for _, _, e in kept)
    # The atom states are s_v = E_v / t_v, t_v = tr E_v. For t_v > 0, E_v >= -bound gives
    # s_v >= -bound / t_v, checked at max(PSD_TOL, povm_tol / t_v), which leaves at least
    # half for rounding as above. A trace t_v <= 0 bounds nothing: PSD_TOL stays.
    # The states are checked on the effects' computed spectra divided by t_v: the
    # eigensolver's backward error on E_v, divided by t_v, is one on s_v of the same
    # relative size, and the division adds one rounding, so that half still covers it.
    traces = [float(np.real(np.trace(e))) for e in atom_effects]
    state_tols = [max(PSD_TOL, povm_tol / t) if t > 0 else PSD_TOL for t in traces]
    channel = _atom_channel(atom_effects, labels=tuple(v for v, _, _ in kept),
                            povm_tol=povm_tol, traces=traces, state_tols=state_tols)

    index_sets = tuple(
        frozenset(v for v, _, _ in kept if v != 0 and (v >> k) & 1)
        for k in range(n)
    )

    a_ks = np.array([sum((proj_by_label[lab] for lab in labels if lab in kk),
                         np.zeros((d, d), dtype=projs[0].dtype)) for kk in subset_sets])
    worst = max_op_norm(channel.apply_heisenberg(a_ks) - a_ks)[0]
    # Gate: with atoms E_v (kept or dropped) of |v| of the L labels and A_k the sum
    # of those inside K_k, Phi*(A_k) - A_k = sum_kept (n_vk / tr E_v) E_v - (dropped
    # atoms inside K_k), n_vk = tr(E_v A_k) - [v inside K_k] tr E_v. n_vk sums at most
    # |v|·L traces of a P_a P_b (a != b) or P_a^2 - P_a, each <= sqrt(d)·defect;
    # s_v = E_v / tr E_v passed the density check at eps = max(state_tols), so
    # ||E_v|| <= |tr E_v|·(1 + d·eps); a dropped atom has ||E_v|| <= defect. So the
    # exact residual is at most ((1 + d·eps)·sqrt(d)·L² + L)·defect, plus rounding: the
    # 1e-12 that was the whole gate before, and still is for an exact PVM (defect 0).
    n_labels = len(labels)
    gate = 1e-12 + ((1.0 + d * max(state_tols)) * np.sqrt(d) * n_labels ** 2
                    + n_labels) * defect
    if worst > gate:
        raise RuntimeError(f"partition embedding fixed-point residual {worst:.3e} > {gate:.3e}")

    return PartitionEmbedding(
        atom_sets=tuple((v, s) for v, s, _ in kept),
        index_sets=index_sets,
        atom_effects=atom_effects,
        states=channel.states,
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
    than about n 1e-140 ||a||.  A NaN or infinite entry is refused as `as_matrix`
    refuses it."""
    parts = a.view(float)
    size = np.abs(parts)
    top = size.max(initial=0.0)
    if not math.isfinite(top):
        raise OperatorError("matrix entries must be finite (no NaN/Inf)")
    np.copyto(parts, 0.0, where=size < 1e-140 * top)
    return np.linalg.eigvalsh(a)


def _projector(f: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of the columns of `f`, whose rank counts
    the singular values above 1e-12 of the largest (none of a zero `f`)."""
    u, s, _ = np.linalg.svd(f, full_matrices=False)
    q = u[:, s > 1e-12 * s[0]]
    return q @ dagger(q)


def _checked_effects(effects, picture: str, budget: int) -> tuple:
    """The effects as validated arrays, after the checks every measurement-set
    decision makes before any work: at least one effect, one shared d x d shape,
    d^2 within `dimension_cap()`, a known picture and a positive cycle budget."""
    effects, d = square_family(as_effects(effects), "effect", OperatorError)
    cap = dimension_cap()
    if d * d > cap:
        raise DimensionCapError(f"d^2 = {d * d} exceeds cap {cap}")
    if picture not in ("heisenberg", "schrodinger"):
        raise ValueError(f"unknown picture {picture!r}")
    if int(budget) < 1:
        raise ValueError(f"budget must be a positive cycle count, got {budget}")
    return effects


class FeasibilityProblem:
    """Affine-plus-cone description of the EB fixed-point search.

    The variable is the Choi matrix J of a candidate channel on C^d, a Hermitian
    d^2 x d^2 matrix; the projections take and return such matrices and are
    orthogonal in the Frobenius metric.  Affine constraints enforce trace
    preservation and the fixed-point condition of each effect; cone membership
    (PSD and PPT, the EB relaxation) is handled by projection.  `picture`
    selects whether the effects are fixed by the Heisenberg dual (the
    broadcastability condition) or by the Schrodinger action; the two coincide
    on the commuting instances decided here.

    The constraints act on the realigned Choi matrix
    M[(a,b),(i,j)] = J[(a,i),(b,j)], a permutation of the entries of J and so
    a Frobenius isometry.  With vec(X) the row-major vector of X, trace
    preservation reads M vec(I) = vec(I), the Heisenberg condition on E reads
    M vec(E^T) = vec(E^T) and the Schrodinger one vec(E^T)^H M = vec(E^T)^H.
    So the affine set is M P_R = P_R, P_L M = P_L for the projectors P_R and
    P_L onto the spans of the right and the left vectors (P_L = 0 in the
    Heisenberg picture), each from one SVD at set-up that keeps the singular
    values above 1e-12 of the largest.  The identity channel, M = I, meets
    every constraint, so the affine projection is
    M -> I + (I - P_L)(M - I)(I - P_R), and the affine distance is the norm of
    the part of M - I that it removes.  The partial transpose and the
    realignment are each one index gather, with index arrays built at set-up.
    """

    def __init__(self, effects, picture: str = "heisenberg", budget: int = 20000,
                 tol: float = 1e-7):
        self.effects = _checked_effects(effects, picture, budget)
        d = self.dim = self.effects[0].shape[0]
        self.picture = picture
        self.budget = int(budget)
        self.tol = float(tol)

        n = d * d
        idx = np.arange(n * n).reshape(d, d, d, d)
        self._pt = idx.transpose(2, 1, 0, 3).reshape(n, n)  # transpose of factor 1
        self._realign = idx.transpose(0, 2, 1, 3).reshape(n, n)  # J -> M, and back
        # J, its partial transpose and M, in one gather
        self._residual_gather = np.stack((idx.reshape(n, n), self._pt, self._realign))
        # columns vec(I), vec(E_1^T), ..., vec(E_m^T)
        vecs = np.stack((np.eye(d),) + self.effects).transpose(0, 2, 1).reshape(-1, n).T
        heisenberg = picture == "heisenberg"
        left = np.zeros((n, n)) if heisenberg else _projector(vecs[:, 1:])
        right = _projector(vecs if heisenberg else vecs[:, :1])
        # M projects to (I - P_L) M (I - P_R) + offset; the Heisenberg picture skips I - P_L = I
        self._offset = left + right - left @ right
        self._keep_left = None if heisenberg else np.eye(n) - left
        self._keep_right = np.eye(n) - right

    # projections of Hermitian d^2 x d^2 matrices, orthogonal in the Frobenius metric
    def _project_realigned(self, m: np.ndarray) -> np.ndarray:
        """The affine projection I + (I - P_L)(M - I)(I - P_R) of the realigned `m`."""
        out = m @ self._keep_right
        if self._keep_left is not None:
            out = self._keep_left @ out
        out += self._offset
        return out

    def project_affine(self, j: np.ndarray) -> np.ndarray:
        return self._project_realigned(j.take(self._realign)).take(self._realign)

    def project_psd(self, j: np.ndarray) -> np.ndarray:
        return _psd_part(j)

    def project_ppt(self, j: np.ndarray) -> np.ndarray:
        # `as_matrix` refuses a NaN or infinite entry before it reaches `eigh`
        return _psd_part(as_matrix(j).take(self._pt)).take(self._pt)

    def residuals(self, j: np.ndarray) -> dict:
        """Distances from `j` to the three sets: for the cones, the norm of the
        negative eigenvalues of J and of its partial transpose (one batched
        `eigvalsh`); for the affine set, the norm of the part of M - I that the
        affine projection removes."""
        stack = j.take(self._residual_gather)
        neg = np.minimum(_eigvalsh(stack[:2]), 0.0)
        psd, ppt = np.sqrt((neg * neg).sum(axis=1))
        gap = (stack[2] - self._project_realigned(stack[2])).view(float).ravel()
        return {"psd": float(psd), "ppt": float(ppt), "affine": math.sqrt(gap @ gap)}

    def choi_from_coords(self, x: np.ndarray) -> np.ndarray:
        """The Choi matrix with coordinates `x` over `hermitian_basis(d^2)`."""
        return np.tensordot(x, hermitian_basis(self.dim ** 2), 1)


@dataclass(frozen=True)
class MeasSetVerdict:
    status: str  # "feasible" | "infeasible_stalled" | "inconclusive"
    # the pinching (measure-and-prepare) or the Dykstra loop's Choi matrix
    witness_channel: MeasurePrepareChannel | ChoiChannel | None
    residual_history: tuple
    final_residuals: dict
    cycles: int
    notes: tuple
    verification: dict = field(default_factory=dict)


def decide_measurements(effects, picture: str = "heisenberg", budget: int = 20000,
                        tol: float = 1e-7) -> MeasSetVerdict:
    """Decide whether an entanglement-breaking channel fixes the effects.

    Commuting effects are decided exactly, before any Dykstra cycle.  The
    pinching onto a common eigenbasis, Lambda(X) = sum_k <k|X|k> |k><k|, is
    measure-and-prepare and its own dual, and it fixes every operator that is
    diagonal in that basis, in both pictures.  It is accepted when
    `_verify_witness` reads at most `tol`, the loop's own stopping level.  Every
    other set, and a pinching that misses `tol`, goes to
    `check_measurements_feasibility` on a `FeasibilityProblem` built from the
    same arguments.  The input is validated first, with the problem's own
    checks, so both paths refuse the same inputs; on the fall-through path
    `FeasibilityProblem` repeats those checks on the validated effects.
    """
    effects = _checked_effects(effects, picture, budget)
    try:
        u = simultaneous_diagonalize(effects, tol=1e-9, seed=0)
    except OperatorError:  # the effects do not commute, or no common basis was found
        pass
    else:
        witness = _pinching_witness(u)
        choi = choi_from_superoperator(channel_matrix(witness, "schrodinger"), *u.shape)
        verification = _verify_witness(effects, picture, choi)
        if verification["max_residual"] <= tol:
            return MeasSetVerdict(
                status="feasible",
                witness_channel=witness,
                residual_history=(verification["max_residual"],),
                final_residuals={
                    "psd": max(0.0, -verification["min_eigenvalue"]),
                    "ppt": max(0.0, -verification["min_ppt_eigenvalue"]),
                    "affine": max(verification["trace_preservation"], *verification["fixing"]),
                },
                cycles=0,
                notes=(PPT_NOTE, PINCHING_NOTE),
                verification=verification,
            )
    return check_measurements_feasibility(
        FeasibilityProblem(effects, picture=picture, budget=budget, tol=tol))


def check_measurements_feasibility(problem: FeasibilityProblem) -> MeasSetVerdict:
    """Search for an entanglement-breaking (PPT-relaxed) channel fixing the
    effects, by Dykstra alternating projections on PSD -> PPT -> affine.

    The cones carry Dykstra corrections; the affine set needs none, because
    its correction lies in the normal space of the affine set, which the
    affine projection removes again: P_A(x + c) = P_A(x).

    Feasibility means every residual fell below `problem.tol` within budget;
    stalling (no relative progress over `STALL_WINDOW` cycles while the best
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
    if d >= 3:  # the Choi matrix lives on C^d (x) C^d; PPT is separability only for 2 x 2
        notes.append("d >= 3: PPT feasibility does not certify an entanglement-breaking witness")

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
            if t - last_improvement >= STALL_WINDOW and best > 10.0 * problem.tol:
                status = "infeasible_stalled"
                break

    witness_channel = None
    verification: dict = {}
    if status == "feasible":
        verification = _verify_witness(problem.effects, problem.picture, j)
        if verification["max_residual"] > 100.0 * problem.tol:
            raise RuntimeError(
                "solver reported feasibility but independent verification "
                f"found residual {verification['max_residual']:.3e}"
            )
        # the checks above passed at 100 * tol, so this constructor accepts the matrix
        witness_channel = ChoiChannel(j, d, d, tol=max(1e-8, 100.0 * problem.tol))

    return MeasSetVerdict(
        status=status,
        witness_channel=witness_channel,
        residual_history=tuple(history),
        final_residuals=res,
        cycles=cycles,
        notes=tuple(notes),
        verification=verification,
    )


def _verify_witness(effects, picture: str, j: np.ndarray) -> dict:
    """Constraint check of a Choi witness `j` for the d x d `effects` in
    `picture`, independent of the solver loop."""
    d = effects[0].shape[0]
    jh = 0.5 * (j + dagger(j))
    w, wt = _eigvalsh(np.stack((jh, partial_transpose(jh, (d, d), side=1))))
    tp = op_norm(partial_trace(jh, (d, d), side=2) - np.eye(d))
    fixing = [op_norm(_choi_action(jh, e, d, d, picture) - e) for e in effects]
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
    for e in as_effects(effects):
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
        self.effects = as_effects(effects, tol=max(tol, 1e-9))
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
        a = as_matrix(a)
        re = 0.5 * self.stage_hermitian(a + dagger(a))
        im = 0.5 * self.stage_hermitian(-1j * (a - dagger(a)))
        return re + 1j * im


def extend_effect_functional(effects, values, dim: int, tol: float = 1e-9) -> ExtendedFunctional:
    """Extend tabulated quasi-linear effect values to a linear functional."""
    return ExtendedFunctional(effects, values, dim, tol=tol)
