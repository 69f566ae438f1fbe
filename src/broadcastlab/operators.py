"""Dense operator algebra, in `float64` for real operators and `complex128` for
all others: validated state/effect types, Hermitian eigendecomposition,
tensor-factor operations, and simultaneous diagonalization of commuting
families."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

_log = logging.getLogger(__name__)

__all__ = [
    "OperatorError",
    "NotCommutingError",
    "as_matrix",
    "as_hermitian",
    "as_density",
    "as_effect",
    "as_effects",
    "as_densities",
    "DiscretePOVM",
    "square_family",
    "dagger",
    "op_norm",
    "trace_norm",
    "frob_norm",
    "op_norm_exceeds",
    "max_op_norm",
    "hs_inner",
    "kron",
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


_MATRIX_DTYPES = (np.dtype(float), np.dtype(complex))


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D array: `float64` stays `float64`, so a real
    operator stays real, and every other dtype becomes `complex128`. A `float64`
    or `complex128` array is returned as it is, not copied."""
    m = np.asarray(a)
    if m.dtype not in _MATRIX_DTYPES:
        m = m.astype(complex)
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


NORM_BOUND_SLACK = 2.0 ** -26
"""Relative rounding margin of the Frobenius bounds on `op_norm`, valid for
float64 and complex128 matrices of at most 64² entries whose Frobenius norm
lies in [2^-480, 2^480].

With u = 2^-53, N ≤ 4096 entries and r = min(m, n) ≤ 64 (so mn ≤ 4096):

- `frob_norm` is sqrt(x_re·x_re + x_im·x_im), two real dot products of
  length N (`nrm2`'s sum of squares). In any summation order, with or
  without FMA, each is off by at most γ_N = Nu/(1 - Nu) relative; the sum and
  the square root add one rounding each, so the norm is off by at most
  γ_N/2 + 2u < 2^11.1 u. Inside [2^-480, 2^480] no square overflows, and
  the squares that underflow add less than N·2^-1074 to a sum of at least
  2^-960, under 2^-100 relative.
- `np.linalg.svd` (LAPACK gesdd) bidiagonalizes by at most 2r Householder
  reflections of length at most max(m, n), a backward error
  ‖E‖_F ≤ 2r·γ̃_max(m,n)·‖A‖_F ≤ 2·16·mn·u·√r·‖A‖₂ ≤ 2^20 u·‖A‖₂
  (Higham, *Accuracy and Stability of Numerical Algorithms*, Lemma 19.3,
  taking the unnamed constant of γ̃ as 16). It then finds the bidiagonal's
  singular values to relative accuracy 69r²u < 2^18.2 u (Demmel & Kahan
  1990). By Weyl's inequality the computed largest singular value is within
  2^20.4 u·‖A‖₂ of ‖A‖₂.
- Forming a bound from the computed Frobenius norm takes at most three more
  roundings.

Together these stay below 2^20.5 u = 2^-32.5, which the margin 2^-26 covers
ninetyfold. Since ‖A‖_F/√r ≤ ‖A‖₂ ≤ ‖A‖_F (Golub & Van Loan, *Matrix
Computations*, §2.3), the computed f = `frob_norm(a)` gives
(1 - slack)·f/√r ≤ `op_norm(a)` ≤ (1 + slack)·f."""

_BOUND_MAX_ENTRIES = 64 * 64
_BOUND_DTYPES = (np.dtype(float), np.dtype(complex))
_BOUND_FLOOR = 2.0 ** -480
_BOUND_CEIL = 2.0 ** 480


def _frob_norms(a: np.ndarray) -> np.ndarray:
    """`frob_norm` of each matrix of a C-contiguous stack (k, m, n), bit for bit:
    the same dot products of the raveled real and imaginary parts, one per matrix."""
    def squares(x):
        x = x.reshape(len(x), 1, -1)
        return np.matmul(x, x.transpose(0, 2, 1))[:, 0, 0]

    with np.errstate(over="ignore", invalid="ignore"):  # an inf norm is refused by the bounds
        return np.sqrt(squares(a.real) + squares(a.imag) if a.dtype.kind == "c" else squares(a))


def _op_norm_bounds(a: np.ndarray, f=None):
    """(lo, hi) with lo <= op_norm(a) <= hi, from the Frobenius norm f of `a`
    (computed unless given): floats for a matrix, or for a C-contiguous stack
    (k, m, n) two arrays with one bound per matrix, each equal to the matrix's
    own.  A pair is (-inf, inf), which decides nothing, where `NORM_BOUND_SLACK`
    does not cover the rounding (another dtype, too many entries, a norm that
    under- or overflows its squares, a non-finite entry)."""
    if a.ndim == 2:
        if a.dtype not in _BOUND_DTYPES or a.size > _BOUND_MAX_ENTRIES:
            return -math.inf, math.inf
        if f is None:
            with np.errstate(over="ignore"):  # squares past 2^1024 give inf, refused below
                f = frob_norm(a)
        if not _BOUND_FLOOR <= f <= _BOUND_CEIL:
            # an all-zero matrix has operator norm exactly 0.0
            return (0.0, 0.0) if f == 0.0 and not a.any() else (-math.inf, math.inf)
        return (1.0 - NORM_BOUND_SLACK) * f / math.sqrt(min(a.shape)), (1.0 + NORM_BOUND_SLACK) * f
    rows, cols = a.shape[1:]
    if a.dtype not in _BOUND_DTYPES or rows * cols > _BOUND_MAX_ENTRIES:
        return np.full(len(a), -math.inf), np.full(len(a), math.inf)
    if f is None:
        f = _frob_norms(a)
    lo = (1.0 - NORM_BOUND_SLACK) * f / math.sqrt(min(rows, cols))
    hi = (1.0 + NORM_BOUND_SLACK) * f
    outside = ~((f >= _BOUND_FLOOR) & (f <= _BOUND_CEIL))
    if outside.any():
        lo[outside], hi[outside] = -math.inf, math.inf
        zero = outside & (f == 0.0)
        zero[zero] = ~a[zero].any(axis=(1, 2))
        lo[zero] = hi[zero] = 0.0
    return lo, hi


def op_norm_exceeds(a, tol: float) -> bool:
    """`op_norm(a) > tol`, taking the SVD only where the Frobenius bounds of
    `NORM_BOUND_SLACK` do not decide it."""
    a = np.atleast_2d(a)
    lo, hi = _op_norm_bounds(a)
    return lo > tol or (hi > tol and op_norm(a) > tol)


def _exceeding(stack, tol: float, f=None):
    """The indices k, in order, of the matrices of a C-contiguous stack with
    `op_norm_exceeds(stack[k], tol)`, found lazily: a matrix whose bounds (from the
    Frobenius norms f, computed unless given) do not decide it has its SVD taken
    only when the search reaches it."""
    lo, hi = _op_norm_bounds(stack, f)
    for k in np.flatnonzero(hi > tol).tolist():
        if lo[k] > tol or op_norm(stack[k]) > tol:
            yield k


def max_op_norm(mats) -> tuple[float, int | None]:
    """Largest `op_norm` over `mats` (matrices, or a stack (k, m, n)), starting
    from 0.0, and the index of the first matrix attaining it (None when no norm
    exceeds 0.0).

    Value and index equal those of a scan of `op_norm(a) for a in mats` that
    keeps the first maximum, bit for bit.  The SVDs are taken in descending
    order of the Frobenius upper bounds of `_op_norm_bounds` (index order among
    equal bounds), and stop once no bound left can beat the maximum found: a
    matrix whose bound only equals it is still decomposed if it comes first."""
    if isinstance(mats, np.ndarray) and mats.ndim == 3:
        mats = np.ascontiguousarray(mats)
        bounds = _op_norm_bounds(mats)[1].tolist()
    else:
        mats = [np.atleast_2d(a) for a in mats]
        bounds = [_op_norm_bounds(a)[1] for a in mats]
    best, arg = 0.0, None
    # a stable sort keeps index order among equal bounds, also in reverse
    for k in sorted(range(len(mats)), key=bounds.__getitem__, reverse=True):
        if bounds[k] < best:
            break
        if bounds[k] == best and (arg is None or k > arg):
            continue
        nrm = op_norm(mats[k])
        if nrm > best or (nrm == best and arg is not None and k < arg):
            best, arg = nrm, k
    return best, arg


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product tr(a^dagger b)."""
    return complex(np.vdot(a, b))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.kron(a, b)` of two 2-D arrays, or of each matrix of a stack (k, m, n) in
    either place, bit for bit (signed zeros included), without its call overhead."""
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * p, n * q))


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major vectorization; |k><l| maps to basis index k*d+l."""
    return np.asarray(a, dtype=complex).reshape(-1)

def unvec(v: np.ndarray, d_row: int, d_col: int | None = None) -> np.ndarray:
    if d_col is None:
        d_col = d_row
    return np.asarray(v, dtype=complex).reshape(d_row, d_col)


def as_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Symmetrize to (A + A^dagger)/2, rejecting a residual ||A - H||_op beyond
    tol * max(1, ||A||_op).

    When (A + A^dagger)/2 equals A entry for entry, the residual A - H is
    exactly 0 and passes the test at any scale, so neither norm is taken.
    Otherwise the Frobenius bounds of `_op_norm_bounds` decide where they can:
    hi(A - H) <= tol * max(1, lo(A)) accepts and lo(A - H) > tol * max(1, hi(A))
    refuses, as the SVD form would, at every log level. The SVDs are taken where
    the bounds do not decide, and for the residual a refusal reports."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise OperatorError(f"expected a square matrix, got {a.shape}")
    h = 0.5 * (a + dagger(a))
    if tol >= 0.0 and (h == a).all():
        return h
    r = a - h
    bounds_a, bounds_r = _op_norm_bounds(a), _op_norm_bounds(r)
    if bounds_r[1] <= tol * max(1.0, bounds_a[0]):
        _log.debug("hermitian symmetrization absorbed residual at most %.3e", bounds_r[1])
        return h
    refused = bounds_r[0] > tol * max(1.0, bounds_a[1])
    resid = op_norm(r)
    if refused or resid > tol * max(op_norm(a), 1.0):
        raise OperatorError(
            f"matrix is not Hermitian: anti-Hermitian residual {resid:.3e} "
            f"exceeds {tol:.1e} * scale"
        )
    _log.debug("hermitian symmetrization absorbed residual %.3e", resid)
    return h


def as_density(rho, psd_tol: float = PSD_TOL, trace_tol: float = TRACE_TOL) -> np.ndarray:
    """Validated density operator: Hermitian, eigenvalues >= -psd_tol, trace 1."""
    h = as_hermitian(rho)
    _check_density(np.linalg.eigvalsh(h), _trace(h), psd_tol, trace_tol)
    return h


def as_densities(states) -> tuple:
    """`as_density(s)` of each state s, raising the first refusal in order, from
    one stacked `eigvalsh`."""
    return _spectral_checks(
        states, lambda h, w: _check_density(w, _trace(h), PSD_TOL, TRACE_TOL))[0]


def _spectral_checks(mats, check) -> tuple:
    """(`as_hermitian` of each of `mats`, their eigenvalues): each matrix is passed
    with its eigenvalues to `check(h, w)`, which raises on a refusal.  The first
    refusal in order is raised, as by a loop of per-matrix checks.  The spectra
    come from one `eigvalsh` of the stack where all matrices share one shape."""
    hs, refusal = [], None
    for a in mats:
        try:
            hs.append(as_hermitian(a))
        except OperatorError as exc:
            refusal = exc
            break
    spectra = (np.linalg.eigvalsh(np.array(hs)) if len({h.shape for h in hs}) == 1
               else [np.linalg.eigvalsh(h) for h in hs])
    for h, w in zip(hs, spectra):
        check(h, w)
    if refusal is not None:
        raise refusal
    return tuple(hs), spectra


def _trace(h) -> float:
    """tr(h) of a Hermitian matrix: the sum of its real diagonal, added in one
    order for float64 and complex128 (the real part of a complex128 `np.trace`
    adds in another order from d = 4 on, an ulp apart)."""
    return float(np.trace(h.real))


def _check_density(w, tr: float, psd_tol: float, trace_tol: float) -> None:
    """Refuse a density operator's eigenvalues `w` below -psd_tol or trace `tr` off 1."""
    if w.min() < -psd_tol:
        raise OperatorError(f"density operator has eigenvalue {w.min():.3e} < -{psd_tol:.1e}")
    if abs(tr - 1.0) > trace_tol:
        raise OperatorError(f"density operator has trace {tr!r}, |trace - 1| > {trace_tol:.1e}")


def square_family(ops, what: str, error: type) -> tuple[tuple, int]:
    """`ops`, already converted, as a tuple, and their dimension d, after raising
    `error` unless there is at least one operator and all share one d x d shape."""
    ops = tuple(ops)
    if not ops:
        raise error(f"need at least one {what}")
    d = ops[0].shape[0]
    if any(a.shape != (d, d) for a in ops):
        raise error(f"{what}s must share one dimension")
    return ops, d


def as_effect(e, tol: float = PSD_TOL) -> np.ndarray:
    """Validated effect: Hermitian with spectrum in [-tol, 1 + tol]."""
    h = as_hermitian(e)
    _check_effect(np.linalg.eigvalsh(h), tol)
    return h


def as_effects(effects, tol: float = PSD_TOL) -> tuple:
    """`as_effect(e, tol)` of each effect, raising the first refusal in order,
    from one stacked `eigvalsh`."""
    return _spectral_checks(effects, lambda h, w: _check_effect(w, tol))[0]


def _check_effect(w, tol: float) -> None:
    """Refuse an effect's eigenvalues `w` outside [-tol, 1 + tol]."""
    if w.min() < -tol or w.max() > 1.0 + tol:
        raise OperatorError(
            f"effect spectrum [{w.min():.3e}, {w.max():.3e}] leaves [0, 1] by more than {tol:.1e}"
        )


@dataclass(frozen=True)
class DiscretePOVM:
    """Ordered finite POVM: effects summing to the identity.

    Effects are validated on construction; labels default to 0..n-1.
    """

    effects: tuple
    labels: tuple = field(default=None)  # type: ignore[assignment]
    tol: float = PSD_TOL

    def __post_init__(self):
        checked, spectra = _spectral_checks(self.effects, lambda h, w: _check_effect(w, self.tol))
        effs, d = square_family(checked, "POVM effect", OperatorError)
        object.__setattr__(self, "effects", effs)
        # the effects' eigenvalues, one row each, which a measure-and-prepare channel
        # whose states are the effects over their traces checks its states on
        object.__setattr__(self, "_spectra", spectra)
        labels = self.labels if self.labels is not None else tuple(range(len(effs)))
        if len(labels) != len(effs):
            raise OperatorError("labels and effects must have equal length")
        object.__setattr__(self, "labels", tuple(labels))
        resid = sum(effs) - np.eye(d)
        if op_norm_exceeds(resid, self.tol):
            raise OperatorError(
                f"POVM effects sum to identity only up to {op_norm(resid):.3e} > {self.tol:.1e}"
            )

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self) -> int:
        return len(self.effects)


def eig_hermitian(a):
    """Eigendecomposition of a Hermitian matrix with a deterministic convention.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted descending and
    each eigenvector's largest-magnitude component rotated to be real positive.
    Eigenvectors are the columns of a unitary matrix; the reconstruction must
    match within `PSD_TOL` * max(1, ||a||).
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
    if resid > PSD_TOL * scale:
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
    a = as_matrix(a)
    d1, d2 = _check_bipartite(a, dims)
    if side not in (1, 2):
        raise OperatorError(f"side must be 1 or 2, got {side!r}")
    return _trace_out(a, d1, d2, side)


def _trace_out(a: np.ndarray, d1: int, d2: int, side: int) -> np.ndarray:
    """`partial_trace` of an operator on (d1, d2), or of each operator of a stack
    (k, d1 d2, d1 d2), unchecked."""
    t = a.reshape(a.shape[:-2] + (d1, d2, d1, d2))
    return np.einsum("...ijik->...jk" if side == 1 else "...ijkj->...ik", t)


def partial_transpose(a, dims, side: int = 1) -> np.ndarray:
    """Transpose tensor factor `side` of an operator on dims (d1, d2)."""
    a = as_matrix(a)
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
    """Largest pairwise commutator norm and the first pair achieving it
    ((0, 0) when every pair commutes exactly)."""
    ops = [as_matrix(a) for a in family]
    pairs = [(i, j) for i in range(len(ops)) for j in range(i + 1, len(ops))]
    worst, k = max_op_norm(ops[i] @ ops[j] - ops[j] @ ops[i] for i, j in pairs)
    return worst, (0, 0) if k is None else pairs[k]


def simultaneous_diagonalize(family, tol: float = 1e-9, seed: int = 0) -> np.ndarray:
    """Common eigenbasis of a commuting Hermitian family.

    Diagonalizes a random real combination of the family; a degenerate draw,
    whose basis leaves an off-diagonal part above 1e-8 * max(1, largest member
    norm) in some member, is retried with fresh coefficients, four draws in
    all. Raises NotCommutingError carrying the offending pair and
    commutator norm when the family does not commute within tol (relative to
    the squared operator-norm scale).
    """
    ops, d = square_family((as_hermitian(a) for a in family), "family member", OperatorError)

    top = max_op_norm(ops)[0]
    worst, pair = commutator_defect(ops)
    if worst > tol * max(1.0, top ** 2):
        raise NotCommutingError(pair, worst)

    def offdiag(a):
        return a - np.diag(np.diag(a))

    # a norm at most 1e-13 passes 1e-13 * max(1, ||a||) whatever ||a|| is
    if all(not op_norm_exceeds(offdiag(a), 1e-13)
           or op_norm(offdiag(a)) <= 1e-13 * max(1.0, op_norm(a)) for a in ops):
        return np.eye(d, dtype=np.result_type(*ops))

    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(4):
        coeffs = rng.standard_normal(len(ops))
        generic = sum(c * a for c, a in zip(coeffs, ops))
        _, u = np.linalg.eigh(generic)
        if not any(op_norm_exceeds(offdiag(dagger(u) @ a @ u), 1e-8 * max(1.0, top))
                   for a in ops):
            return u
        draws.append(u)
    best_resid = min((max_op_norm(offdiag(dagger(u) @ a @ u) for a in ops)[0] for u in draws),
                     default=np.inf)
    raise OperatorError(
        f"simultaneous diagonalization failed: off-diagonal residual {best_resid:.3e} "
        f"after {len(draws)} generic draws"
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

