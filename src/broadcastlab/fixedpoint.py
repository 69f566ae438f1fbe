"""Fixed-point analysis of Heisenberg channel actions: nullspace extraction,
the Cesaro projector onto the fixed-point space, the broadcasting product,
its comparison with the quotient (Choi-Effros) product, and the atomic
decomposition into an eigenvalue-1 POVM with dual states."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import MeasurePrepareChannel, apply, channel_matrix, choi_from_superoperator
from .config import DimensionCapError, dimension_cap
from .operators import (
    DiscretePOVM,
    OperatorError,
    as_complex_matrix,
    dagger,
    frob_norm,
    hs_inner,
    unvec,
    vec,
)

__all__ = [
    "FixedPointError",
    "FixedPointSpace",
    "CesaroResult",
    "BroadcastingAlgebra",
    "AtomicDecomposition",
    "fixed_space",
    "cesaro_apply",
    "psi0_matrix",
    "broadcasting_product",
    "choi_effros_compare",
    "atomic_decomposition",
    "fixedpoint_report",
]


class FixedPointError(RuntimeError):
    """Fixed-point analysis could not be completed reliably."""


@dataclass(frozen=True)
class FixedPointSpace:
    """Hilbert-Schmidt-orthonormal Hermitian basis of Fix of a Heisenberg action."""

    channel: object
    basis: tuple
    tol: float
    singular_values: tuple  # ascending ladder of sigma(L - id)

    @property
    def dim(self) -> int:
        return len(self.basis)


def _heisenberg_matrix(channel, cap: int | None = None) -> np.ndarray:
    """The d^2 x d^2 Heisenberg matrix L of a square channel, built after the cap check."""
    if channel.d_in != channel.d_out:
        raise OperatorError("fixed points need a square channel (d_in == d_out)")
    cap = cap if cap is not None else dimension_cap()
    if channel.d_out > cap:
        raise DimensionCapError(f"dimension {channel.d_out} exceeds cap {cap}")
    return channel_matrix(channel, picture="heisenberg")


def _null_vectors(lmat: np.ndarray, rel_tol: float):
    """Right and left null vectors of L - I and the ascending singular-value ladder.

    One SVD L - I = U S V^dagger gives both: the columns of V (right) and of U
    (left) whose singular values fall below `rel_tol` times the largest, so the
    two counts always agree.
    """
    n = lmat.shape[0]
    u, s, vh = np.linalg.svd(lmat - np.eye(n))
    s_asc = np.sort(s)
    smax = s.max(initial=0.0)
    if smax == 0.0:
        return np.eye(n, dtype=complex), np.eye(n, dtype=complex), s_asc
    thr = rel_tol * smax
    keep = s <= thr
    k = int(keep.sum())
    if 0 < k < n and s_asc[k] < 10.0 * thr:
        raise FixedPointError(
            "singular-value threshold separates no spectral gap; ladder: "
            + np.array2string(s_asc, precision=3)
        )
    return vh.conj().T[:, keep], u[:, keep], s_asc


def _spectral_projector(right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Oblique projector R (L^dagger R)^-1 L^dagger onto the right null vectors
    along the orthogonal complement of the left ones."""
    n = right.shape[0]
    if right.shape[1] == 0:
        return np.zeros((n, n), dtype=complex)
    proj = right @ np.linalg.solve(left.conj().T @ right, left.conj().T)
    if frob_norm(proj @ proj - proj) > 1e-8 * max(1.0, frob_norm(proj)):
        raise FixedPointError("spectral fixed-point projector is not idempotent")
    return proj


def _hermitian_fixed_basis(cols: np.ndarray, d: int) -> list[np.ndarray]:
    """Hermitian HS-orthonormal basis spanning the (adjoint-closed) column span."""
    m = cols.shape[1]
    candidates = []
    for c in cols.T:
        b = unvec(c, d)
        candidates.append(0.5 * (b + dagger(b)))
        candidates.append((b - dagger(b)) / 2j)
    out: list[np.ndarray] = []
    for x in candidates:
        y = x.copy()
        for _ in range(2):  # reorthogonalize once to keep the basis tight
            for b in out:
                y = y - np.real(hs_inner(b, y)) * b
        nrm = frob_norm(y)
        if nrm > 1e-7:
            out.append(y / nrm)
        if len(out) == m:
            break
    if len(out) != m:
        raise FixedPointError(
            f"failed to extract a Hermitian basis: got {len(out)} of {m} elements"
        )
    return out


def fixed_space(channel, tol: float = 1e-9, cap: int | None = None) -> FixedPointSpace:
    """Fixed-point space of the Heisenberg action via a vectorized nullspace.

    The basis spans the numerical nullspace of (Lambda* - id) at relative
    singular-value threshold `tol`, orthonormal in the Hilbert-Schmidt inner
    product and closed under the adjoint.
    """
    right, _, ladder = _null_vectors(_heisenberg_matrix(channel, cap), tol)
    return _space_from(channel, right, ladder, tol)


def _space_from(channel, right: np.ndarray, ladder: np.ndarray, tol: float) -> FixedPointSpace:
    """The fixed-point space spanned by the right null vectors of L - I."""
    basis = _hermitian_fixed_basis(right, channel.d_out) if right.shape[1] else []
    for b in basis:
        resid = frob_norm(apply(channel, b, "heisenberg") - b)
        if resid > 100 * max(tol, 1e-12) * max(1.0, float(ladder[-1]) if len(ladder) else 1.0):
            raise FixedPointError(f"basis element fails the fixed-point check: {resid:.3e}")
    return FixedPointSpace(channel=channel, basis=tuple(basis), tol=tol,
                           singular_values=tuple(float(s) for s in ladder))


@dataclass(frozen=True)
class CesaroResult:
    matrix: np.ndarray
    n_terms: int
    residual: float
    converged: bool


def cesaro_apply(channel, a, n_terms: int = 1000, early_stop_tol: float = 1e-12,
                 picture: str = "heisenberg") -> CesaroResult:
    """Truncated Cesaro average (1/n) sum_{k<n} Lambda^k(a), built by doubling.

    The residual is the Frobenius distance between the averages of n and n - 1
    terms (infinite at n = 1), and `converged` says whether it is at most
    `early_stop_tol`; non-convergence is reported, not raised.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    x = as_complex_matrix(a)
    means = _cesaro_means(channel_matrix(channel, picture), vec(x), {n_terms, max(n_terms - 1, 1)})
    residual = frob_norm(means[n_terms] - means[n_terms - 1]) if n_terms > 1 else np.inf
    return CesaroResult(unvec(means[n_terms], x.shape[0]), n_terms, residual,
                        residual <= early_stop_tol)


def _cesaro_means(mat, x, marks) -> dict:
    """Cesaro means {t: S_t x / t}, S_t = sum_{k<t} mat^k, at every t in `marks`.

    Built by doubling, with one power, one partial sum and one accumulator per
    mark: P = mat^(2^j) and s = S_(2^j) x step to s + P s and P P, and a length
    t with bit j set folds in as acc_t <- s + P acc_t (S_(2^j + r) = S_(2^j) +
    mat^(2^j) S_r).  Each mean costs O(log t) products; `mat` may be a stack of
    matrices acting on a stack of operands.
    """
    if min(marks) < 1:
        raise ValueError("Cesaro lengths must be >= 1")
    acc = dict.fromkeys(marks)
    power, s = mat, x
    bits = max(marks).bit_length()
    for j in range(bits):
        for t in marks:
            if (t >> j) & 1:
                acc[t] = s if acc[t] is None else s + power @ acc[t]
        if j + 1 < bits:
            s = s + power @ s
            power = power @ power
    return {t: a / t for t, a in acc.items()}


def psi0_matrix(channel, method: str = "spectral", tol: float = 1e-9,
                n_terms: int = 4096) -> np.ndarray:
    """Matrix of the fixed-point projector psi_0 on vectorized operators.

    "spectral" builds the eigenvalue-1 eigenprojector of the vectorized
    Heisenberg action L (the Cesaro limit; the peripheral spectrum is
    semisimple for channel duals) from one SVD of L - I. "cesaro" returns
    the truncated average, built by doubling in O(log n) products, which
    converges like 1/n and serves as an independent witness.
    """
    lmat = _heisenberg_matrix(channel)
    if method == "cesaro":
        return _cesaro_means(lmat, np.eye(len(lmat), dtype=complex), {n_terms})[n_terms]
    if method != "spectral":
        raise ValueError(f"unknown psi_0 method {method!r}")
    right, left, _ = _null_vectors(lmat, tol)
    return _spectral_projector(right, left)


class BroadcastingAlgebra:
    """Fixed points of an entanglement-breaking channel with the broadcasting
    product A * B = psi_0(Phi*(A (x) B)).

    One Heisenberg matrix L and one SVD of L - I give the fixed basis and the
    spectral psi_0 (cross-checked against a truncated Cesaro average of L);
    the product table over the Hermitian fixed basis is one contraction of
    the channel's POVM and states.
    """

    def __init__(self, channel: MeasurePrepareChannel, tol: float = 1e-9,
                 validate_tol: float = 1e-8, cesaro_terms: int = 4096):
        if not isinstance(channel, MeasurePrepareChannel):
            raise OperatorError("broadcasting algebra needs a measure-prepare channel")
        self.channel = channel
        self.d = d = channel.d_in
        self.tol = tol
        lmat = _heisenberg_matrix(channel)
        right, left, ladder = _null_vectors(lmat, tol)
        self.space = _space_from(channel, right, ladder, tol)
        self.projector = p = _spectral_projector(right, left)
        self.intertwining_residual = float(frob_norm(p @ lmat - p))
        self.idempotency_residual = float(frob_norm(p @ p - p))
        cesaro = _cesaro_means(lmat, np.eye(d * d, dtype=complex), {cesaro_terms})[cesaro_terms]
        self.cesaro_cross_residual = float(frob_norm(cesaro - p))

        # table[i, j, k] = <B_k, psi_0(Phi*(B_i (x) B_j))>, where
        # Phi*(a (x) b) = sum_x tr(s_x a) tr(s_x b) G_x
        m = self.space.dim
        basis = np.reshape(self.space.basis, (m, d * d))
        traces = np.einsum("xab,iba->xi", np.array(channel.states), basis.reshape(m, d, d))
        phi = np.einsum("xi,xj,xab->ijab", traces, traces, np.array(channel.povm.effects))
        table = (phi.reshape(m * m, d * d) @ (basis.conj() @ p).T).reshape(m, m, m)
        self.product_table = t = table.real
        self.table_imag_drift = float(np.abs(table.imag).max(initial=0.0))
        self.commutativity_residual = float(np.abs(t - t.transpose(1, 0, 2)).max(initial=0.0))
        # (B_i * B_j) * B_k vs B_i * (B_j * B_k), contracted through the table
        assoc = np.einsum("ijm,mkl->ijkl", t, t) - np.einsum("jkm,iml->ijkl", t, t)
        self.associativity_residual = float(np.abs(assoc).max(initial=0.0))
        choi = choi_from_superoperator(p, d, d)
        w = np.linalg.eigvalsh(0.5 * (choi + dagger(choi)))
        self.psi0_cp_residual = max(0.0, -float(w[0]))
        worst = max(self.idempotency_residual, self.commutativity_residual,
                    self.associativity_residual, self.psi0_cp_residual)
        if worst > validate_tol:
            raise FixedPointError(
                f"broadcasting algebra validation failed: worst residual {worst:.3e}"
            )

    def project(self, a) -> np.ndarray:
        """Apply psi_0."""
        return unvec(self.projector @ vec(as_complex_matrix(a)), self.d)

    def coefficients_product(self, a_coeffs, b_coeffs) -> np.ndarray:
        """Broadcasting product in basis coefficients."""
        return np.einsum("i,j,ijk->k", a_coeffs, b_coeffs, self.product_table)

    def multiplication_matrix(self, coeffs) -> np.ndarray:
        """Matrix of x -> a * x on basis coefficients."""
        return np.einsum("i,ijk->kj", coeffs, self.product_table)

    def from_coefficients(self, coeffs) -> np.ndarray:
        return sum(c * b for c, b in zip(coeffs, self.space.basis))

    def product(self, a, b, membership_tol: float = 1e-8) -> np.ndarray:
        """A * B = psi_0(Phi*(A (x) B)) for fixed-point operands, through the
        product table on the coefficients of psi_0(A) and psi_0(B)."""
        for name, x in (("left", a), ("right", b)):
            x = as_complex_matrix(x)
            resid = frob_norm(self.project(x) - x)
            if resid > membership_tol * max(1.0, frob_norm(x)):
                raise OperatorError(
                    f"{name} operand lies outside the fixed-point space "
                    f"(projection residual {resid:.3e})"
                )
        ca, cb = ([hs_inner(bk, p) for bk in self.space.basis] for p in map(self.project, (a, b)))
        return self.from_coefficients(self.coefficients_product(ca, cb))


def broadcasting_product(algebra: BroadcastingAlgebra, a, b) -> np.ndarray:
    return algebra.product(a, b)


def choi_effros_compare(algebra: BroadcastingAlgebra, a, b) -> float:
    """max deviation || psi_0(Phi*(A (x) B)) - psi_0(AB) ||_F."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    return float(frob_norm(algebra.product(a, b) - algebra.project(a @ b)))


@dataclass(frozen=True)
class AtomicDecomposition:
    """Eigenvalue-1 POVM {G_i} with dual states {sigma_i}, tr(sigma_i G_j) = delta_ij."""

    povm: DiscretePOVM
    states: tuple
    algebra: BroadcastingAlgebra = field(repr=False)
    state_repair_residual: float
    redraws: int

    @property
    def atoms(self):
        return self.povm.effects

    def rebuilt_channel(self) -> MeasurePrepareChannel:
        """Measure-prepare channel psi_n(A) = sum_i tr(sigma_i A) G_i."""
        return MeasurePrepareChannel(self.povm, self.states)


def atomic_decomposition(algebra: BroadcastingAlgebra, tol: float = 1e-8,
                         seed: int = 0, max_redraws: int = 8) -> AtomicDecomposition:
    """Minimal projections of the broadcasting algebra and their dual states.

    A generic self-adjoint fixed element (seeded random real combination of
    the basis, redrawn on a degenerate spectrum) is diagonalized inside the
    algebra; its spectral idempotents are the atoms.  Dual states are the
    densities of the characters composed with psi_0, repaired to the density
    cone with the repair distance recorded.
    """
    m = algebra.space.dim
    basis = algebra.space.basis
    rng = np.random.default_rng(seed)

    atoms_coeffs = None
    redraws = 0
    for attempt in range(max_redraws):
        coeffs = rng.standard_normal(m)
        mult = algebra.multiplication_matrix(coeffs)
        evals, evecs = np.linalg.eig(mult)
        if np.max(np.abs(evals.imag)) > 1e-7 * max(1.0, np.max(np.abs(evals))):
            redraws += 1
            continue
        evals = evals.real
        spread = max(1.0, float(evals.max() - evals.min()) if m > 1 else 1.0)
        if m > 1:
            gaps = np.abs(evals[:, None] - evals[None, :])
            np.fill_diagonal(gaps, np.inf)
            if gaps.min() < 1e-6 * spread:
                redraws += 1
                continue
        candidates = []
        ok = True
        for v in evecs.T:
            v = v.real if np.max(np.abs(v.imag)) < 1e-9 else v
            sq = algebra.coefficients_product(v, v)
            scale = np.vdot(v, sq) / np.vdot(v, v)
            if abs(scale) < 1e-10:
                ok = False
                break
            g = np.asarray(v / scale, dtype=float if np.isrealobj(v) else complex)
            # one idempotent-polish step: g <- 3 g*g - 2 g*(g*g)
            gg = algebra.coefficients_product(g, g)
            ggg = algebra.coefficients_product(g, gg)
            g = 3.0 * gg - 2.0 * ggg
            candidates.append(np.real(g))
        if ok:
            atoms_coeffs = candidates
            break
        redraws += 1
    if atoms_coeffs is None:
        raise FixedPointError(
            f"atomic decomposition: degeneracy unresolved after {max_redraws} redraws"
        )

    # deterministic ordering: descending trace, then lexicographic coefficients
    def _key(g):
        mat = algebra.from_coefficients(g)
        return (-round(float(np.real(np.trace(mat))), 9),
                tuple(np.round(g, 9)))

    atoms_coeffs.sort(key=_key)
    atoms = [algebra.from_coefficients(g) for g in atoms_coeffs]

    resid_sum = frob_norm(sum(atoms) - np.eye(algebra.d))
    if resid_sum > 10 * tol:
        raise FixedPointError(f"atoms do not sum to the identity: residual {resid_sum:.3e}")
    for i, gi in enumerate(atoms_coeffs):
        for j, gj in enumerate(atoms_coeffs):
            prod = algebra.coefficients_product(gi, gj)
            target = gi if i == j else np.zeros(m)
            if np.max(np.abs(prod - target)) > 10 * tol:
                raise FixedPointError(
                    f"atoms {i},{j} are not orthogonal idempotents in the product"
                )

    # characters: B_k = sum_i char_i(B_k) G_i  =>  char matrix = inv([g_1 .. g_m])
    gmat = np.stack(atoms_coeffs, axis=1)
    char = np.linalg.inv(gmat)  # char[i, k] = char_i(B_k)

    states = []
    repair = 0.0
    for i in range(m):
        q = algebra.from_coefficients(char[i])
        sigma = dagger(unvec(algebra.projector.conj().T @ vec(q), algebra.d))
        sigma = 0.5 * (sigma + dagger(sigma))
        w, v = np.linalg.eigh(sigma)
        w_clipped = np.clip(w, 0.0, None)
        total = w_clipped.sum()
        if total <= 0:
            raise FixedPointError(f"dual state {i} collapsed under cone repair")
        w_clipped /= total
        repaired = v @ np.diag(w_clipped) @ dagger(v)
        repair = max(repair, frob_norm(repaired - sigma))
        states.append(repaired)

    decomposition = AtomicDecomposition(
        povm=DiscretePOVM(tuple(atoms), tol=max(tol, 1e-8)),
        states=tuple(states),
        algebra=algebra,
        state_repair_residual=float(repair),
        redraws=redraws,
    )

    pairing = np.array([[np.real(np.trace(s @ g)) for g in atoms] for s in states])
    if np.max(np.abs(pairing - np.eye(m))) > 10 * tol:
        raise FixedPointError("dual states do not pair with the atoms as delta_ij")
    psi_n = decomposition.rebuilt_channel()
    for b in basis:
        if frob_norm(psi_n.apply_heisenberg(b) - b) > 10 * tol:
            raise FixedPointError("atomic reconstruction fails on a basis element")
    return decomposition


def fixedpoint_report(channel, tol: float = 1e-9, seed: int = 0) -> dict:
    """JSON-ready fixed-point report: basis dimension, singular-value ladder,
    product-table residuals, and atoms with the tolerances that produced them."""
    algebra = None
    if isinstance(channel, MeasurePrepareChannel):
        algebra = BroadcastingAlgebra(channel, tol=tol)
    space = algebra.space if algebra is not None else fixed_space(channel, tol=tol)
    report = {
        "dimension": channel.d_in,
        "tolerance": tol,
        "seed": seed,
        "basis_dimension": space.dim,
        "singular_value_ladder": list(space.singular_values),
        "singular_part": "identically zero at finite dimension; not probed here",
    }
    if algebra is not None:
        decomp = atomic_decomposition(algebra, seed=seed)
        from .serialization import operator_to_json  # local import to avoid a cycle

        report["product_table_residuals"] = {
            "commutativity": algebra.commutativity_residual,
            "associativity": algebra.associativity_residual,
            "psi0_idempotency": algebra.idempotency_residual,
            "psi0_intertwining": algebra.intertwining_residual,
            "psi0_complete_positivity": algebra.psi0_cp_residual,
            "cesaro_cross_check": algebra.cesaro_cross_residual,
            "table_imag_drift": algebra.table_imag_drift,
        }
        report["atoms"] = [
            {
                "effect": operator_to_json(g),
                "dual_state": operator_to_json(s),
                "trace": float(np.real(np.trace(g))),
            }
            for g, s in zip(decomp.atoms, decomp.states)
        ]
        report["atom_provenance"] = {
            "tolerance": 1e-8,
            "generic_element_seed": seed,
            "redraws": decomp.redraws,
            "state_repair_residual": decomp.state_repair_residual,
        }
    return report
