"""Quantum channel representations (Kraus, Choi, measure-and-prepare) with
Schrodinger and Heisenberg actions, swap symmetrization, and the symmetric
lift of a measure-and-prepare channel."""

from __future__ import annotations

import numpy as np

from .operators import (
    PSD_TOL,
    TRACE_TOL,
    DiscretePOVM,
    as_complex_matrix,
    as_density,
    as_hermitian,
    dagger,
    op_norm,
    op_norm_exceeds,
    partial_trace,
    vec,
    unvec,
)

__all__ = [
    "ChannelError",
    "KrausChannel",
    "ChoiChannel",
    "MeasurePrepareChannel",
    "SymmetricLift",
    "apply",
    "choi_transform",
    "choi_from_superoperator",
    "choi_to_kraus",
    "symmetrize",
    "symmetric_lift",
    "channel_matrix",
    "swap_unitary",
]

TP_TOL = 1e-10


class ChannelError(ValueError):
    """A channel representation violates complete positivity or trace preservation."""


def swap_unitary(d: int) -> np.ndarray:
    """Swap unitary on C^d (x) C^d."""
    s = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


class KrausChannel:
    """Channel given by Kraus operators K_i (d_out x d_in), sum K_i^dag K_i = I."""

    kind = "kraus"

    def __init__(self, kraus_ops, tol: float = TP_TOL):
        ops = [as_complex_matrix(k) for k in kraus_ops]
        if not ops:
            raise ChannelError("a Kraus channel needs at least one operator")
        d_out, d_in = ops[0].shape
        if any(k.shape != (d_out, d_in) for k in ops):
            raise ChannelError("Kraus operators must share one shape")
        resid = sum(dagger(k) @ k for k in ops) - np.eye(d_in)
        if op_norm_exceeds(resid, tol):
            raise ChannelError(
                "Kraus operators are not trace preserving: "
                f"residual {op_norm(resid):.3e} > {tol:.1e}"
            )
        self.kraus_ops = ops
        self.d_in = d_in
        self.d_out = d_out

    def apply_schrodinger(self, rho) -> np.ndarray:
        rho = as_complex_matrix(rho)
        if rho.shape != (self.d_in, self.d_in):
            raise ChannelError(f"operand shape {rho.shape} does not match d_in={self.d_in}")
        return sum(k @ rho @ dagger(k) for k in self.kraus_ops)

    def apply_heisenberg(self, a) -> np.ndarray:
        a = as_complex_matrix(a)
        if a.shape != (self.d_out, self.d_out):
            raise ChannelError(f"operand shape {a.shape} does not match d_out={self.d_out}")
        return sum(dagger(k) @ a @ k for k in self.kraus_ops)


class ChoiChannel:
    """Channel via its Choi matrix J = sum_kl |k><l| (x) Lambda(|k><l|)."""

    kind = "choi"

    def __init__(self, matrix, d_in: int, d_out: int, tol: float = TP_TOL):
        j = as_hermitian(matrix, tol=1e-10)
        if j.shape != (d_in * d_out, d_in * d_out):
            raise ChannelError(
                f"Choi matrix shape {j.shape} does not match dims ({d_in}, {d_out})"
            )
        w = np.linalg.eigvalsh(j)
        if w.min() < -tol * max(1.0, w.max()):
            raise ChannelError(f"Choi matrix is not PSD: min eigenvalue {w.min():.3e}")
        resid = partial_trace(j, (d_in, d_out), side=2) - np.eye(d_in)
        if op_norm_exceeds(resid, tol):
            raise ChannelError(
                f"Choi matrix is not trace preserving: tr_2(J) - I residual {op_norm(resid):.3e}"
            )
        self.matrix = j
        self.d_in = d_in
        self.d_out = d_out

    def apply_schrodinger(self, rho) -> np.ndarray:
        rho = as_complex_matrix(rho)
        lifted = np.kron(rho.T, np.eye(self.d_out))
        return partial_trace(self.matrix @ lifted, (self.d_in, self.d_out), side=1)

    def apply_heisenberg(self, a) -> np.ndarray:
        a = as_complex_matrix(a)
        lifted = np.kron(np.eye(self.d_in), a)
        return partial_trace(self.matrix @ lifted, (self.d_in, self.d_out), side=2).T


class MeasurePrepareChannel:
    """Entanglement-breaking channel Lambda(T) = sum_i tr(G_i T) sigma_i.

    The Heisenberg dual is Lambda*(A) = sum_i tr(sigma_i A) G_i.  Prepared
    states may live on a different (e.g. bipartite) output space.
    """

    kind = "measure_prepare"

    def __init__(self, povm, states, labels=None):
        self.povm = povm if isinstance(povm, DiscretePOVM) else DiscretePOVM(tuple(povm), labels)
        self.states = tuple(as_density(s) for s in states)
        if len(self.states) != len(self.povm):
            raise ChannelError("need exactly one prepared state per POVM effect")
        self.d_in = self.povm.dim
        self.d_out = self.states[0].shape[0]
        if any(s.shape != (self.d_out, self.d_out) for s in self.states):
            raise ChannelError("prepared states must share one dimension")

    def apply_schrodinger(self, rho) -> np.ndarray:
        rho = as_complex_matrix(rho)
        if rho.shape != (self.d_in, self.d_in):
            raise ChannelError(f"operand shape {rho.shape} does not match d_in={self.d_in}")
        out = np.zeros((self.d_out, self.d_out), dtype=complex)
        for g, s in zip(self.povm.effects, self.states):
            out += np.trace(g @ rho) * s
        return out

    def apply_heisenberg(self, a) -> np.ndarray:
        a = as_complex_matrix(a)
        if a.shape != (self.d_out, self.d_out):
            raise ChannelError(f"operand shape {a.shape} does not match d_out={self.d_out}")
        out = np.zeros((self.d_in, self.d_in), dtype=complex)
        for g, s in zip(self.povm.effects, self.states):
            out += np.trace(s @ a) * g
        return out

    def choi(self) -> ChoiChannel:
        return choi_transform(self)


class SymmetricLift(MeasurePrepareChannel):
    """Symmetric broadcasting channel of a square measure-and-prepare channel.

    The measure-and-prepare channel with the base's POVM that prepares
    sigma_i (x) sigma_i on H (x) H: Phi*(X) = sum_i tr((sigma_i (x) sigma_i) X) G_i,
    so Phi*(A (x) I) = Phi*(I (x) A) = Lambda*(A).  The lift keeps its base,
    which determines it: its JSON form is the base's.
    """

    kind = "symmetric_lift"

    def __init__(self, base: MeasurePrepareChannel):
        if base.d_in != base.d_out:
            raise ChannelError("symmetric lift needs a square measure-prepare channel")
        # s (x) s has trace tr(s)^2 and eigenvalues lambda_i lambda_j. A base
        # state passes |tr(s) - 1| <= delta and lambda >= -eps, so its largest
        # eigenvalue is at most 1 + delta + d eps, |tr(s)^2 - 1| <= delta (2 + delta)
        # and lambda_i lambda_j >= -eps (1 + delta + d eps). The d^2-term sums
        # and the eigensolver round by at most a further 8 d^2 ulps.
        d, delta, eps = base.d_out, TRACE_TOL, PSD_TOL
        rounding = 8.0 * d * d * np.finfo(float).eps
        self.povm = base.povm
        self.states = tuple(
            as_density(np.kron(s, s), psd_tol=eps * (1.0 + delta + d * eps) + rounding,
                       trace_tol=delta * (2.0 + delta) + rounding)
            for s in base.states)
        self.d_in, self.d_out = d, d * d
        self.base = base

    # the two methods below only delegate: the benchmark tracer wraps the
    # methods a class defines itself, so each must stay on this class
    def apply_schrodinger(self, rho) -> np.ndarray:
        return super().apply_schrodinger(rho)

    def apply_heisenberg(self, a) -> np.ndarray:
        return super().apply_heisenberg(a)


def apply(channel, operand, picture: str = "schrodinger") -> np.ndarray:
    """Apply a channel in the requested picture."""
    if picture == "schrodinger":
        return channel.apply_schrodinger(operand)
    if picture == "heisenberg":
        return channel.apply_heisenberg(operand)
    raise ValueError(f"picture must be 'schrodinger' or 'heisenberg', got {picture!r}")


def choi_transform(channel) -> ChoiChannel:
    """Choi matrix of any channel, J = sum_kl |k><l| (x) Lambda(|k><l|)."""
    if isinstance(channel, ChoiChannel):
        return channel
    d_in, d_out = channel.d_in, channel.d_out
    m = channel_matrix(channel, "schrodinger")
    return ChoiChannel(choi_from_superoperator(m, d_in, d_out), d_in, d_out)


def choi_from_superoperator(m, d_in: int, d_out: int) -> np.ndarray:
    """Choi matrix of the map whose Schrodinger-picture `channel_matrix` is m:
    J[k*d_out + a, l*d_out + b] = m[a*d_out + b, k*d_in + l]."""
    blocks = np.asarray(m).reshape(d_out, d_out, d_in, d_in)
    return blocks.transpose(2, 0, 3, 1).reshape(d_in * d_out, d_in * d_out)


def choi_to_kraus(choi: ChoiChannel, tol: float = 1e-12) -> KrausChannel:
    """Kraus operators from the Choi eigendecomposition, keeping eigenvalues > tol."""
    w, v = np.linalg.eigh(choi.matrix)
    kraus = []
    for lam, col in zip(w[::-1], v[:, ::-1].T):
        if lam <= tol:
            break
        kraus.append(np.sqrt(lam) * unvec(col, choi.d_in, choi.d_out).T)
    if not kraus:
        raise ChannelError("Choi matrix has no eigenvalue above the cutoff")
    return KrausChannel(kraus)


def symmetrize(channel) -> KrausChannel:
    """Swap-symmetrized version of a channel H -> H (x) H.

    Theta_sym(rho) = (Theta(rho) + S Theta(rho) S)/2, realized by doubling the
    Kraus family; the Heisenberg dual is (Theta* + Theta* o V_swap)/2.
    """
    f = int(round(np.sqrt(channel.d_out)))
    if f * f != channel.d_out:
        raise ChannelError(f"output dimension {channel.d_out} is not a perfect square")
    if isinstance(channel, KrausChannel):
        ops = channel.kraus_ops
    else:
        ops = choi_to_kraus(choi_transform(channel)).kraus_ops
    s = swap_unitary(f)
    doubled = [k / np.sqrt(2.0) for k in ops] + [s @ k / np.sqrt(2.0) for k in ops]
    return KrausChannel(doubled)


def symmetric_lift(eb: MeasurePrepareChannel) -> SymmetricLift:
    """Symmetric broadcasting lift of an entanglement-breaking channel."""
    return SymmetricLift(eb)


def channel_matrix(channel, picture: str = "heisenberg") -> np.ndarray:
    """Matrix of the channel action on row-major vectorized operators."""
    d = channel.d_out if picture == "heisenberg" else channel.d_in
    d_target = channel.d_in if picture == "heisenberg" else channel.d_out
    m = np.zeros((d_target ** 2, d ** 2), dtype=complex)
    for k in range(d):
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = 1.0
            m[:, k * d + l] = vec(apply(channel, e, picture))
    return m
