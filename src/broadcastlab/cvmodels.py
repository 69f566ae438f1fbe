"""Truncated continuous-variable models: the coherent-state smoothing channel
with closed-form Fock matrix elements, the photon-number shift channel, and
binned position PVMs from Hermite-function overlaps.

These are finite shadows of genuinely infinite-dimensional channels; trace
loss under truncation is tracked, never silently renormalized."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fixedpoint import _cesaro_means
from .operators import (
    OperatorError,
    as_complex_matrix,
    dagger,
    frob_norm,
    max_op_norm,
    op_norm,
    unvec,
    vec,
)

__all__ = [
    "FockTruncation",
    "TruncatedChannel",
    "qchannel_element",
    "qchannel_element_quadrature",
    "qchannel_build",
    "qchannel_fixed_analysis",
    "shift_channel_build",
    "shift_channel_study",
    "hermite_functions",
    "binned_position_pvm",
    "repair_to_commuting_projections",
    "position_embedding_sweep",
    "sweep_rows_to_csv",
]

FOCK_LEVEL_CAP = 64


def _check_levels(n: int) -> int:
    if n > FOCK_LEVEL_CAP:
        raise OperatorError(f"{n} levels exceed the cap {FOCK_LEVEL_CAP}")
    return n


@dataclass(frozen=True)
class FockTruncation:
    """Photon-number truncation to levels 0..levels-1."""

    levels: int

    def __post_init__(self):
        if self.levels < 2:
            raise OperatorError(f"need at least 2 levels, got {self.levels}")


def _sector_coords(n: int):
    """Fock indices of the photon-number-difference sectors.

    Row s holds the sector m - k = s - (n-1); its i-th element is |m><k| with
    min(m, k) = i.  Returns (m, k, valid), each of shape (2n-1, n); positions
    past the end of a sector (i >= n - |m - k|) are padding, marked invalid.
    """
    diff = np.arange(-(n - 1), n)[:, None]
    i = np.arange(n)
    return i + np.maximum(diff, 0), i + np.maximum(-diff, 0), i < n - np.abs(diff)


class TruncatedChannel:
    """Phase-covariant channel restricted to a finite Fock window.

    The channel maps |j><k| onto the |m><l| with m - l = j - k, so it is
    stored as `action`, a complex array of shape (2n-1, n, n): block s is the
    action within the sector m - l = s - (n-1), in the element order of
    `_sector_coords`, zero-padded past the sector's n - |s - (n-1)| elements.

    Trace-non-increasing by construction; the worst trace loss over basis
    states is recorded in `trace_defect_bound`.  Complete positivity is
    checked on the grading blocks of the Choi matrix.
    """

    def __init__(self, action: np.ndarray, levels: int, cp_tol: float = 1e-10):
        n = levels
        if action.shape != (2 * n - 1, n, n):
            raise OperatorError(f"sector action shape {action.shape} does not match {n} levels")
        self.action = np.asarray(action, dtype=complex)
        self.levels = n
        self.d_in = n
        self.d_out = n
        m, k, valid = _sector_coords(n)
        self._gather = np.where(valid, m * n + k, n * n)
        self._scatter = np.empty(n * n, dtype=np.intp)
        self._scatter[self._gather[valid]] = np.flatnonzero(valid)
        # tr L(|j><j|) is column j's sum in the diagonal sector; summing the
        # transposed block along contiguous rows adds in the order np.trace uses
        traces = np.ascontiguousarray(self.action[n - 1].T).sum(axis=1)
        self.trace_defect_bound = float(np.max(1.0 - np.real(traces)))
        w = np.concatenate([np.linalg.eigvalsh(b) for b in self.choi()])
        if w.min() < -cp_tol * max(1.0, w.max()):
            raise OperatorError(f"truncated channel is not CP: min Choi eigenvalue {w.min():.3e}")

    def _to_sectors(self, t) -> np.ndarray:
        """Gather vec(t) into sector columns of shape (2n-1, n, 1), zero-padded."""
        t = as_complex_matrix(t)
        n = self.levels
        if t.shape != (n, n):
            raise OperatorError(f"operand shape {t.shape} does not match {n} levels")
        padded = np.zeros(n * n + 1, dtype=complex)
        padded[:-1] = vec(t)
        return padded[self._gather][..., None]

    def _from_sectors(self, x: np.ndarray) -> np.ndarray:
        return unvec(x.reshape(-1)[self._scatter], self.levels)

    def apply(self, t) -> np.ndarray:
        return self._from_sectors(self.action @ self._to_sectors(t))

    # the smoothing channel is Hilbert-Schmidt self-adjoint and the shift study
    # works in the Schrodinger picture, so both pictures act by the stored matrix
    def apply_schrodinger(self, t) -> np.ndarray:
        return self.apply(t)

    def apply_heisenberg(self, t) -> np.ndarray:
        return self.apply(t)

    def sector_blocks(self) -> list[np.ndarray]:
        """The unpadded sector blocks, s = 0..2n-2 (views into `action`)."""
        n = self.levels
        return [self.action[s, :n - abs(s - n + 1), :n - abs(s - n + 1)]
                for s in range(2 * n - 1)]

    def choi(self) -> list[np.ndarray]:
        """Choi matrix J = sum_ab |a><b| (x) L(|a><b|) as its diagonal blocks.

        Phase covariance makes J block-diagonal in the grading g = m - a of its
        basis |a>|m>; block g (g = -(n-1)..n-1) has rows |a>|a+g> ordered by
        min(a, a+g).  Its entry (i, l) lies in the action's sector i - l.
        """
        n = self.levels
        blocks = []
        for g in range(-(n - 1), n):
            idx = np.arange(n - abs(g))
            low = np.minimum.outer(idx, idx)
            sector = np.subtract.outer(idx, idx) + n - 1
            b = self.action[sector, low + max(g, 0), low + max(-g, 0)]
            blocks.append(0.5 * (b + dagger(b)))
        return blocks


def qchannel_element(m: int, n: int, j: int, k: int) -> float:
    """Closed-form matrix element <m| Lambda(|j><k|) |n> of the coherent-state
    smoothing channel: delta_{m+k, n+j} (m+k)! / (2^{m+k+1} sqrt(m! n! j! k!)),
    with factorials in log space."""
    if m + k != n + j:
        return 0.0
    s = m + k
    lg = _log_factorials(s + 1)
    logval = (lg[s] - (s + 1) * np.log(2.0)
              - 0.5 * (lg[m] + lg[n] + lg[j] + lg[k]))
    return float(np.exp(logval))


def _log_factorials(size: int) -> np.ndarray:
    """log k! for k = 0..size-1."""
    return np.array([math.lgamma(k + 1) for k in range(size)])


@lru_cache(maxsize=16)
def _laguerre_nodes(order: int):
    return np.polynomial.laguerre.laggauss(order)


@lru_cache(maxsize=16)
def _legendre_nodes(order: int):
    return np.polynomial.legendre.leggauss(order)


def qchannel_element_quadrature(m: int, n: int, j: int, k: int,
                                n_radial: int = 80, n_angular: int | None = None) -> float:
    """The same matrix element by 2-D quadrature of the coherent-state integral.

    Angular part on a uniform grid (exact for the trigonometric monomials
    appearing here), radial part by Gauss-Laguerre after u = 2 r^2.
    Kept independent of the closed form; used as its oracle.
    """
    tot_deg = m + n + j + k
    if n_angular is None:
        n_angular = tot_deg + 2
    l = (m + k) - (n + j)
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    angular = np.sum(np.exp(1j * l * theta)) * (2.0 * np.pi / n_angular)
    if abs(angular) < 1e-30:
        return 0.0
    u, w = _laguerre_nodes(n_radial)
    radial = 0.25 * np.sum(w * (u / 2.0) ** (tot_deg / 2.0))
    lg = _log_factorials(max(m, n, j, k) + 1)
    lognorm = -0.5 * (lg[m] + lg[n] + lg[j] + lg[k])
    return float(np.real(angular) / np.pi * radial * np.exp(lognorm))


def qchannel_build(trunc: FockTruncation) -> TruncatedChannel:
    """Coherent-state smoothing channel restricted to the truncation window.

    Entries follow `qchannel_element` term by term, from a log-factorial table."""
    n = _check_levels(trunc.levels)
    first, second, valid = _sector_coords(n)
    s, p, q = np.nonzero(valid[:, :, None] & valid[:, None, :])
    m, nn, j, k = first[s, p], second[s, p], first[s, q], second[s, q]
    lg = _log_factorials(2 * n - 1)
    logval = (lg[m + k] - (m + k + 1) * np.log(2.0)
              - 0.5 * (lg[m] + lg[nn] + lg[j] + lg[k]))
    action = np.zeros((2 * n - 1, n, n), dtype=complex)
    action[s, p, q] = np.exp(logval)
    return TruncatedChannel(action, n)


def qchannel_fixed_analysis(channel: TruncatedChannel, window: int,
                            n_terms: int = 4096, seed: int = 0,
                            inputs: str = "random") -> dict:
    """Eigenvalue ladder and windowed Cesaro flattening of the smoothing channel.

    Inputs are normalized to unit operator norm.  The flattening diagnostic is
    the Frobenius distance of the Cesaro average's window block to its best
    multiple of the identity, reported per Cesaro length: it decreases with
    the length for generic inputs (the non-flat structure drifts toward the
    truncation boundary), while structured inputs such as the number operator
    hold their window shape and decay slower.  The shape-only distance
    (relative to the block norm) is reported alongside; it floors at the
    boundary-contamination level of the truncated map.
    """
    n = channel.levels
    if window > n // 2:
        raise OperatorError(f"window {window} exceeds half the truncation {n}")
    evals = np.concatenate([np.linalg.eigvals(b) for b in channel.sector_blocks()])
    moduli = np.sort(np.abs(evals))[::-1]

    rng = np.random.default_rng(seed)
    if inputs == "random":
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = 0.5 * (g + dagger(g))
    elif inputs == "identity":
        a = np.eye(n, dtype=complex)
    elif inputs == "number":
        a = np.diag(np.arange(n)).astype(complex)
    else:
        raise ValueError(f"unknown input kind {inputs!r}")
    a = a / op_norm(a)

    def window_distance(mat):
        block = mat[:window, :window]
        c = np.trace(block) / window
        dev = frob_norm(block - c * np.eye(window))
        return float(dev), float(dev / max(frob_norm(block), 1e-300))

    marks = {2 ** k for k in range(14) if 2 ** k < n_terms} | {n_terms}
    means = _cesaro_means(channel.action, channel._to_sectors(a), marks)
    dist = {t: window_distance(channel._from_sectors(mean)) for t, mean in means.items()}
    return {
        "levels": n,
        "window": window,
        "input": inputs,
        "seed": seed,
        "eigenvalue_moduli_top": [float(v) for v in moduli[:10]],
        "second_largest_modulus": float(moduli[1]) if len(moduli) > 1 else 0.0,
        "window_distance_by_terms": {str(t): v[0] for t, v in dist.items()},
        "window_shape_distance_by_terms": {str(t): v[1] for t, v in dist.items()},
        "final_window_distance": dist[n_terms][0],
        "final_window_shape_distance": dist[n_terms][1],
        "trace_defect_bound": channel.trace_defect_bound,
    }


def shift_channel_build(trunc: FockTruncation) -> TruncatedChannel:
    """Shift channel with absorbing boundary: populations move one level up,
    mass at the top level leaves the window, coherences are discarded."""
    n = _check_levels(trunc.levels)
    action = np.zeros((2 * n - 1, n, n), dtype=complex)
    action[n - 1, np.arange(1, n), np.arange(n - 1)] = 1.0
    return TruncatedChannel(action, n)


def shift_channel_study(trunc: FockTruncation, n_steps=(10, 100, 1000),
                        window: int = 4, nullspace_tol: float = 1e-9,
                        seed: int = 0) -> dict:
    """Ladder action, Cesaro window-mass bound, and triviality of the
    trace-class fixed space for the truncated shift channel."""
    n = trunc.levels
    channel = shift_channel_build(trunc)

    ladder_exact = True
    state = np.zeros((n, n), dtype=complex)
    state[0, 0] = 1.0
    for k in range(1, n):
        state = channel.apply(state)
        expected = np.zeros((n, n), dtype=complex)
        expected[k, k] = 1.0
        if frob_norm(state - expected) > 1e-14:
            ladder_exact = False
            break

    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    random_state = g @ dagger(g)
    random_state /= np.real(np.trace(random_state))
    ground = np.zeros((n, n), dtype=complex)
    ground[0, 0] = 1.0

    means = [_cesaro_means(channel.action, channel._to_sectors(rho), set(n_steps))
             for rho in (ground, random_state)]
    masses = {steps: [float(np.real(np.trace(channel._from_sectors(m[steps])[:window, :window])))
                      for m in means]
              for steps in n_steps}

    svals = np.concatenate([np.linalg.svd(b - np.eye(len(b)), compute_uv=False)
                            for b in channel.sector_blocks()])
    smax = svals.max()
    fixed_dim = int(np.count_nonzero(svals <= nullspace_tol * smax)) if smax > 0 else n * n

    return {
        "levels": n,
        "window": window,
        "seed": seed,
        "ladder_exact": ladder_exact,
        "window_mass": {str(k): v for k, v in masses.items()},
        "window_mass_bound": {str(k): window / k for k in n_steps},
        "fixed_space_dimension": fixed_dim,
        "nullspace_tol": nullspace_tol,
        "smallest_singular_value": float(svals.min()),
        "trace_defect_bound": channel.trace_defect_bound,
    }


def hermite_functions(n_levels: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_{n_levels-1} at points x, by the
    stable three-term recurrence."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_levels, len(x)))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_levels > 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for m in range(2, n_levels):
        out[m] = np.sqrt(2.0 / m) * x * out[m - 1] - np.sqrt((m - 1) / m) * out[m - 2]
    return out


def _bin_overlap_matrix(lo: float, hi: float, n_levels: int, tol: float) -> np.ndarray:
    """int_lo^hi h_m(x) h_n(x) dx for all m, n, by node-doubling Gauss-Legendre."""
    prev = None
    for n_nodes in (64, 128, 256, 512, 1024):
        xs, ws = _legendre_nodes(n_nodes)
        xs = 0.5 * (hi - lo) * xs + 0.5 * (hi + lo)
        ws = 0.5 * (hi - lo) * ws
        h = hermite_functions(n_levels, xs)
        mat = (h * ws) @ h.T
        if prev is not None and np.max(np.abs(mat - prev)) <= tol:
            return mat
        prev = mat
    raise OperatorError(
        f"bin quadrature on [{lo}, {hi}] did not converge to {tol:.1e}")


def binned_position_pvm(a: float, b: float, n_bins: int, trunc: FockTruncation,
                        quad_tol: float = 1e-10):
    """Truncated position-measurement effects for n_bins equal bins of [a, b].

    Returns (effects, complement): the complement is I minus the bin effects,
    so the family sums to the identity exactly by construction.
    """
    if not a < b:
        raise OperatorError(f"need a < b, got ({a}, {b})")
    if n_bins < 1:
        raise OperatorError("need at least one bin")
    n = trunc.levels
    edges = np.linspace(a, b, n_bins + 1)
    effects = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mat = _bin_overlap_matrix(float(lo), float(hi), n, quad_tol)
        effects.append(mat.astype(complex))
    complement = np.eye(n, dtype=complex) - sum(effects)
    return effects, complement


def repair_to_commuting_projections(effects, seed: int = 0):
    """Nearest-commuting-projection repair: joint diagonalization by a generic
    combination, then one-hot rounding of the rotated diagonals so the family
    is an exact orthogonal partition of the identity.

    Returns (projections, repair_distance) with the distance in operator norm.
    """
    ops = [as_complex_matrix(e) for e in effects]
    n = ops[0].shape[0]
    rng = np.random.default_rng(seed)
    coeffs = 1.0 + rng.random(len(ops))
    generic = sum(c * 0.5 * (e + dagger(e)) for c, e in zip(coeffs, ops))
    _, u = np.linalg.eigh(generic)
    diags = np.stack([np.real(np.diag(dagger(u) @ e @ u)) for e in ops])
    assignment = np.argmax(diags, axis=0)
    projections = []
    for i in range(len(ops)):
        sel = np.where(assignment == i, 1.0, 0.0)
        projections.append((u * sel) @ dagger(u))
    distance = max_op_norm(p - e for p, e in zip(projections, ops))[0]
    return projections, distance


def position_embedding_sweep(n_bins_list, trunc: FockTruncation, a: float = -3.0,
                             b: float = 3.0, quad_tol: float = 1e-10,
                             seed: int = 0) -> list[dict]:
    """Bin-refinement study: repair distance and embedding residual per bin count.

    The repair distance is the diagnostic: it grows as the bins refine at a
    fixed truncation, tracing how the continuum measurement escapes the
    finite window.
    """
    from .contextuality import pvm_embed  # deferred to avoid a module cycle

    rows = []
    for n_bins in n_bins_list:
        effects, complement = binned_position_pvm(a, b, int(n_bins), trunc, quad_tol)
        family = effects + [complement]
        projections, distance = repair_to_commuting_projections(family, seed=seed)
        labels = list(range(len(family)))
        embedding = pvm_embed(labels, projections, [{i} for i in range(len(effects))])
        projectivity = max_op_norm(e @ e - e for e in family)[0]
        rows.append({
            "parameter": int(n_bins),
            "residual": distance,
            "window_distance": embedding.max_fix_residual,
            "trace_defect": float(projectivity),
        })
    return rows


def sweep_rows_to_csv(rows) -> str:
    """Serialize sweep rows as CSV with the fixed column set."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=["parameter", "residual",
                                             "window_distance", "trace_defect"])
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
