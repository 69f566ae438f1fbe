"""Dense complex operator algebra: validated state/effect types, Hermitian
eigendecomposition, tensor-factor operations, and simultaneous diagonalization
of commuting families."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

_log = logging.getLogger(__name__)

__all__ = [
    "OperatorError",
    "NotCommutingError",
    "as_complex_matrix",
    "as_hermitian",
    "as_density",
    "as_effect",
    "DiscretePOVM",
    "dagger",
    "op_norm",
    "trace_norm",
    "frob_norm",
    "hs_inner",
    "vec",
    "unvec",
    "eig_hermitian",
    "partial_trace",
    "partial_transpose",
    "commutator_defect",
    "simultaneous_diagonalize",
    "hermitian_basis",
]

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10


class OperatorError(ValueError):
    """An operator violates a structural invariant (shape, hermiticity, cone, trace)."""


class NotCommutingError(OperatorError):
    """A family expected to commute does not.

    Attributes
    ----------
    pair : (int, int)
        Indices of the offending operators.
    norm : float
        Operator norm of their commutator.
    """

    def __init__(self, pair, norm):
        self.pair = pair
        self.norm = norm
        super().__init__(
            f"operators {pair[0]} and {pair[1]} do not commute "
            f"(commutator norm {norm:.3e})"
        )


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a finite complex 2-D array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise OperatorError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise OperatorError("matrix entries must be finite (no NaN/Inf)")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(a).T


def op_norm(a) -> float:
    """Largest singular value: `np.linalg.norm(a, 2)` bit for bit, without
    its axis handling."""
    return float(np.linalg.svd(np.atleast_2d(a), compute_uv=False).max(initial=0.0))


def trace_norm(a) -> float:
    """Sum of singular values."""
    return float(np.sum(np.linalg.svd(np.atleast_2d(a), compute_uv=False)))


def frob_norm(a) -> float:
    return float(np.linalg.norm(a))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^dagger b)."""
    return complex(np.vdot(a, b))


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major vectorization; |k><l| maps to basis index k*d+l."""
    return np.asarray(a, dtype=complex).reshape(-1)

def unvec(v: np.ndarray, d_row: int, d_col: int | None = None) -> np.ndarray:
    if d_col is None:
        d_col = d_row
    return np.asarray(v, dtype=complex).reshape(d_row, d_col)


def as_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Symmetrize to (A + A^dagger)/2, rejecting drift beyond tol * ||A||_op.

    When (A + A^dagger)/2 equals A entry for entry, the residual A - H is
    exactly 0 and passes the test at any scale, so neither norm is taken."""
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise OperatorError(f"expected a square matrix, got {a.shape}")
    h = 0.5 * (a + dagger(a))
    if tol >= 0.0 and (h == a).all():
        return h
    scale = max(op_norm(a), 1.0)
    resid = op_norm(a - h)
    if resid > tol * scale:
        raise OperatorError(
            f"matrix is not Hermitian: anti-Hermitian residual {resid:.3e} "
            f"exceeds {tol:.1e} * scale"
        )
    if resid > 0.0:
        _log.debug("hermitian symmetrization absorbed residual %.3e", resid)
    return h


def as_density(rho, psd_tol: float = PSD_TOL, trace_tol: float = TRACE_TOL) -> np.ndarray:
    """Validated density operator: Hermitian, eigenvalues >= -psd_tol, trace 1."""
    h = as_hermitian(rho)
    w = np.linalg.eigvalsh(h)
    if w.min() < -psd_tol:
        raise OperatorError(f"density operator has eigenvalue {w.min():.3e} < -{psd_tol:.1e}")
    tr = float(np.real(np.trace(h)))
    if abs(tr - 1.0) > trace_tol:
        raise OperatorError(f"density operator has trace {tr!r}, |trace - 1| > {trace_tol:.1e}")
    return h


def as_effect(e, tol: float = PSD_TOL) -> np.ndarray:
    """Validated effect: Hermitian with spectrum in [-tol, 1 + tol]."""
    h = as_hermitian(e)
    w = np.linalg.eigvalsh(h)
    if w.min() < -tol or w.max() > 1.0 + tol:
        raise OperatorError(
            f"effect spectrum [{w.min():.3e}, {w.max():.3e}] leaves [0, 1] by more than {tol:.1e}"
        )
    return h


@dataclass(frozen=True)
class DiscretePOVM:
    """Ordered finite POVM: effects summing to the identity.

    Effects are validated on construction; labels default to 0..n-1.
    """

    effects: tuple
    labels: tuple = field(default=None)  # type: ignore[assignment]
    tol: float = PSD_TOL

    def __post_init__(self):
        effs = tuple(as_effect(e, tol=self.tol) for e in self.effects)
        object.__setattr__(self, "effects", effs)
        if not effs:
            raise OperatorError("a POVM needs at least one effect")
        d = effs[0].shape[0]
        if any(e.shape != (d, d) for e in effs):
            raise OperatorError("POVM effects must share one dimension")
        labels = self.labels if self.labels is not None else tuple(range(len(effs)))
        if len(labels) != len(effs):
            raise OperatorError("labels and effects must have equal length")
        object.__setattr__(self, "labels", tuple(labels))
        resid = op_norm(sum(effs) - np.eye(d))
        if resid > self.tol:
            raise OperatorError(
                f"POVM effects sum to identity only up to {resid:.3e} > {self.tol:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self) -> int:
        return len(self.effects)


def eig_hermitian(a, tol: float = PSD_TOL):
    """Eigendecomposition of a Hermitian matrix with a deterministic convention.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    each eigenvector's largest-magnitude component rotated to be real positive.
    Eigenvectors are the columns of a unitary matrix.
    """
    h = as_hermitian(a)
    w, v = np.linalg.eigh(h)
    w = w[::-1]
    v = v[:, ::-1]
    for j in range(v.shape[1]):
        col = v[:, j]
        k = int(np.argmax(np.abs(col)))
        phase = col[k] / abs(col[k]) if abs(col[k]) > 0 else 1.0
        v[:, j] = col / phase
    scale = max(op_norm(h), 1.0)
    resid = op_norm(v @ np.diag(w) @ dagger(v) - h)
    if resid > tol * scale:
        raise OperatorError(f"eigendecomposition residual {resid:.3e} exceeds tolerance")
    return w, v


def _check_bipartite(a: np.ndarray, dims) -> tuple[int, int]:
    d1, d2 = int(dims[0]), int(dims[1])
    if a.shape != (d1 * d2, d1 * d2):
        raise OperatorError(
            f"matrix of shape {a.shape} does not factor over dims ({d1}, {d2})"
        )
    return d1, d2


def partial_trace(a, dims, side: int) -> np.ndarray:
    """Trace out tensor factor `side` (1 or 2) of an operator on dims (d1, d2)."""
    a = as_complex_matrix(a)
    d1, d2 = _check_bipartite(a, dims)
    t = a.reshape(d1, d2, d1, d2)
    if side == 1:
        return np.einsum("ijik->jk", t)
    if side == 2:
        return np.einsum("ijkj->ik", t)
    raise OperatorError(f"side must be 1 or 2, got {side!r}")


def partial_transpose(a, dims, side: int = 1) -> np.ndarray:
    """Transpose tensor factor `side` of an operator on dims (d1, d2)."""
    a = as_complex_matrix(a)
    d1, d2 = _check_bipartite(a, dims)
    t = a.reshape(d1, d2, d1, d2)
    if side == 1:
        t = t.transpose(2, 1, 0, 3)
    elif side == 2:
        t = t.transpose(0, 3, 2, 1)
    else:
        raise OperatorError(f"side must be 1 or 2, got {side!r}")
    return t.reshape(d1 * d2, d1 * d2)


def commutator_defect(family) -> tuple[float, tuple[int, int]]:
    """Largest pairwise commutator norm and the pair achieving it."""
    ops = [as_complex_matrix(a) for a in family]
    worst, pair = 0.0, (0, 0)
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            nrm = op_norm(ops[i] @ ops[j] - ops[j] @ ops[i])
            if nrm > worst:
                worst, pair = nrm, (i, j)
    return worst, pair


def simultaneous_diagonalize(family, tol: float = 1e-9, seed: int = 0,
                             max_attempts: int = 4, offdiag_tol: float = 1e-8) -> np.ndarray:
    """Common eigenbasis of a commuting Hermitian family.

    Diagonalizes a random real combination of the family; degenerate draws
    are retried with fresh coefficients. Raises NotCommutingError carrying
    the offending pair and commutator norm when the family does not commute
    within tol (relative to the squared operator-norm scale).
    """
    ops = [as_hermitian(a) for a in family]
    if not ops:
        raise OperatorError("empty family")
    d = ops[0].shape[0]
    if any(a.shape != (d, d) for a in ops):
        raise OperatorError("family members must share one dimension")

    scale = max(1.0, max(op_norm(a) for a in ops) ** 2)
    worst, pair = commutator_defect(ops)
    if worst > tol * scale:
        raise NotCommutingError(pair, worst)

    if all(op_norm(a - np.diag(np.diag(a))) <= 1e-13 * max(1.0, op_norm(a)) for a in ops):
        return np.eye(d, dtype=complex)

    rng = np.random.default_rng(seed)
    best_u, best_resid = None, np.inf
    for _ in range(max_attempts):
        coeffs = rng.standard_normal(len(ops))
        generic = sum(c * a for c, a in zip(coeffs, ops))
        _, u = np.linalg.eigh(generic)
        resid = 0.0
        for a in ops:
            rot = dagger(u) @ a @ u
            resid = max(resid, op_norm(rot - np.diag(np.diag(rot))))
        if resid < best_resid:
            best_u, best_resid = u, resid
        if resid <= offdiag_tol * max(1.0, max(op_norm(a) for a in ops)):
            return u
    raise OperatorError(
        f"simultaneous diagonalization failed: off-diagonal residual {best_resid:.3e} "
        f"after {max_attempts} generic draws"
    )


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Hilbert-Schmidt-orthonormal basis of the d x d Hermitian matrices."""
    basis = []
    for k in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[k, k] = 1.0
        basis.append(e)
    for k in range(d):
        for l in range(k + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = e[l, k] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            f = np.zeros((d, d), dtype=complex)
            f[k, l] = -1j / np.sqrt(2.0)
            f[l, k] = 1j / np.sqrt(2.0)
            basis.append(f)
    return basis

