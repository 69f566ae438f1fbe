"""Quantum channel representations (Kraus, Choi, measure-and-prepare) with
Schrodinger and Heisenberg actions, swap symmetrization, and the symmetric
lift of a measure-and-prepare channel.  Every action takes one operand or a
stack (k, d, d) of them, and gives each image bit for bit as it gives it alone."""

from __future__ import annotations

import numpy as np

from .operators import (
    PSD_TOL,
    TRACE_TOL,
    DiscretePOVM,
    _check_density,
    _trace,
    _trace_out,
    as_densities,
    as_hermitian,
    as_matrix,
    dagger,
    kron,
    op_norm,
    op_norm_exceeds,
    partial_trace,
    square_family,
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
CHOI_CHUNK_ENTRIES = 1 << 20  # of the products J (x^T (x) I) in one chunk of a stack


class ChannelError(ValueError):
    """A channel representation violates complete positivity or trace preservation."""


def swap_unitary(d: int) -> np.ndarray:
    """Swap unitary on C^d (x) C^d."""
    return np.eye(d * d).reshape(d, d, d * d).transpose(1, 0, 2).reshape(d * d, d * d)


class KrausChannel:
    """Channel given by Kraus operators K_i (d_out x d_in), sum K_i^dag K_i = I."""

    kind = "kraus"

    def __init__(self, kraus_ops):
        ops = [as_matrix(k) for k in kraus_ops]
        if not ops:
            raise ChannelError("a Kraus channel needs at least one operator")
        d_out, d_in = ops[0].shape
        if any(k.shape != (d_out, d_in) for k in ops):
            raise ChannelError("Kraus operators must share one shape")
        resid = sum(dagger(k) @ k for k in ops) - np.eye(d_in)
        if op_norm_exceeds(resid, TP_TOL):
            raise ChannelError(
                "Kraus operators are not trace preserving: "
                f"residual {op_norm(resid):.3e} > {TP_TOL:.1e}"
            )
        self.kraus_ops = ops
        self.d_in = d_in
        self.d_out = d_out

    def apply_schrodinger(self, rho) -> np.ndarray:
        rho = _operand(rho, self.d_in, "d_in")
        return sum(k @ rho @ dagger(k) for k in self.kraus_ops)

    def apply_heisenberg(self, a) -> np.ndarray:
        a = _operand(a, self.d_out, "d_out")
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
        rho = _operand(rho, self.d_in, "d_in")
        return _choi_action(self.matrix, rho, self.d_in, self.d_out, "schrodinger")

    def apply_heisenberg(self, a) -> np.ndarray:
        a = _operand(a, self.d_out, "d_out")
        return _choi_action(self.matrix, a, self.d_in, self.d_out, "heisenberg")


def _operand(x, d: int, side: str) -> np.ndarray:
    """`x` by `as_matrix`, after raising `ChannelError` unless it is d x d,
    where d is the channel's `side` dimension ("d_in" or "d_out"), or a stack
    (k, d, d) of k >= 1 operands, each coerced and checked alike."""
    x = np.asarray(x)
    if x.ndim == 3 and len(x):
        x = as_matrix(x.reshape(-1, x.shape[-1])).reshape(x.shape)
    else:
        x = as_matrix(x)
    if x.shape[-2:] != (d, d):
        raise ChannelError(f"operand shape {x.shape} does not match {side}={d}")
    return x


def _choi_action(j, x, d_in: int, d_out: int, picture: str) -> np.ndarray:
    """The action on `x` of the map with Choi matrix `j`: tr_1[J (x^T (x) I)] in the
    Schrodinger picture, tr_2[J (I (x) x)]^T in the Heisenberg picture."""
    step = max(1, CHOI_CHUNK_ENTRIES // (d_in * d_out) ** 2)
    if x.ndim == 3 and len(x) > step:
        return np.concatenate([_choi_action(j, x[s:s + step], d_in, d_out, picture)
                               for s in range(0, len(x), step)])
    if picture == "schrodinger":
        return _trace_out(j @ kron(np.swapaxes(x, -1, -2), np.eye(d_out)), d_in, d_out, 1)
    return np.swapaxes(_trace_out(j @ kron(np.eye(d_in), x), d_in, d_out, 2), -1, -2)


class MeasurePrepareChannel:
    """Entanglement-breaking channel Lambda(T) = sum_i tr(G_i T) sigma_i.

    The Heisenberg dual is Lambda*(A) = sum_i tr(sigma_i A) G_i.  Prepared
    states may live on a different (e.g. bipartite) output space.  Both actions
    take their weights from one product of a stacked family and add the terms
    in order.
    """

    kind = "measure_prepare"

    def __init__(self, povm: DiscretePOVM, states):
        self._prepare(povm, as_densities(states))

    def _prepare(self, povm: DiscretePOVM, states):
        """Take `povm` and the `states`, each already checked as a density
        operator: one per effect, all of one shape."""
        self.states, self.d_out = square_family(states, "prepared state", ChannelError)
        if len(self.states) != len(povm):
            raise ChannelError("need exactly one prepared state per POVM effect")
        self.povm, self.d_in = povm, povm.dim
        # np.array stacks the equal-shaped matrices at a fraction of np.stack's call cost
        self._effect_stack, self._state_stack = np.array(povm.effects), np.array(self.states)

    def _prepared(self):
        return self.states

    def _state_weights(self, a):
        return _traces(self._state_stack, a)

    def apply_schrodinger(self, rho) -> np.ndarray:
        rho = _operand(rho, self.d_in, "d_in")
        return _weighted_sum(_traces(self._effect_stack, rho), self._prepared(), self.d_out)

    def apply_heisenberg(self, a) -> np.ndarray:
        a = _operand(a, self.d_out, "d_out")
        return _weighted_sum(self._state_weights(a), self.povm.effects, self.d_in)

    def choi(self) -> ChoiChannel:
        return choi_transform(self)


def _traces(stack, a):
    """tr(m a) for each matrix m of `stack`: shape (n,) for one operand `a`, (n, k)
    for a stack of k."""
    if a.ndim == 2:
        return np.trace(stack @ a, axis1=1, axis2=2)
    return np.trace(stack @ a[:, None], axis1=2, axis2=3).T


def _weighted_sum(weights, ops, d: int) -> np.ndarray:
    """sum_i weights[i] ops[i] on d x d, added term by term in order; a weight
    that is an array of k numbers gives a stack of k such sums, each bit for bit
    its own.  The sum starts real and is promoted at the first term of another
    dtype, so it is real only if every weight and operator is."""
    stack = np.shape(weights[0])
    if stack:
        weights = [np.asarray(c)[:, None, None] for c in weights]
    out = np.zeros(stack + (d, d))
    for c, g in zip(weights, ops):
        term = c * g
        if term.dtype == out.dtype:
            out += term
        else:
            out = out + term
    return out


class SymmetricLift(MeasurePrepareChannel):
    """Symmetric broadcasting channel of a square measure-and-prepare channel.

    The measure-and-prepare channel with the base's POVM that prepares
    sigma_i (x) sigma_i on H (x) H: Phi*(X) = sum_i tr((sigma_i (x) sigma_i) X) G_i,
    so Phi*(A (x) I) = Phi*(I (x) A) = Lambda*(A).  It stores only its base, forms
    each sigma_i (x) sigma_i where an action or `states` reads it, and is written as its base.
    """

    kind = "symmetric_lift"

    def __init__(self, base: MeasurePrepareChannel):
        if base.d_in != base.d_out:
            raise ChannelError("symmetric lift needs a square measure-prepare channel")
        # s (x) s has trace tr(s)^2 and eigenvalues lambda_i lambda_j, so it is checked
        # on the d x d spectrum of s. A base state passes |tr(s) - 1| <= delta and
        # lambda >= -eps, so its largest eigenvalue is at most 1 + delta + d eps,
        # |tr(s)^2 - 1| <= delta (2 + delta) and lambda_i lambda_j >= -eps (1 + delta + d eps).
        # The d x d eigensolver and the products round by less than a further 8 d^2 ulps.
        d, delta, eps = base.d_out, TRACE_TOL, PSD_TOL
        rounding = 8.0 * d * d * np.finfo(float).eps
        for s, w in zip(base.states, np.linalg.eigvalsh(np.array(base.states))):
            _check_density(np.multiply.outer(w, w), _trace(s) ** 2,
                           psd_tol=eps * (1.0 + delta + d * eps) + rounding,
                           trace_tol=delta * (2.0 + delta) + rounding)
        self.base, self.povm, self.d_in, self.d_out = base, base.povm, d, d * d
        self._effect_stack = base._effect_stack

    @property
    def states(self) -> tuple:
        return tuple(self._prepared())

    def _prepared(self):
        return (kron(s, s) for s in self.base.states)

    def _state_weights(self, a):
        # one s (x) s at a time: a stack of them would hold k d^4 entries
        return [np.trace(s @ a, axis1=-2, axis2=-1) for s in self._prepared()]

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


def choi_to_kraus(choi: ChoiChannel) -> KrausChannel:
    """Kraus operators from the Choi eigendecomposition, keeping eigenvalues > 1e-12."""
    w, v = np.linalg.eigh(choi.matrix)
    kraus = []
    for lam, col in zip(w[::-1], v[:, ::-1].T):
        if lam <= 1e-12:
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
    """Matrix of the channel action on row-major vectorized operators, from one
    stacked `apply` on the matrix units, or, where their dimension d exceeds the
    images' d_t, stacks of d_t^2 units, none of more entries than the matrix."""
    d = channel.d_out if picture == "heisenberg" else channel.d_in
    d_target = channel.d_in if picture == "heisenberg" else channel.d_out
    n, step = d * d, min(d, d_target) ** 2
    m = np.empty((d_target ** 2, n), dtype=complex)
    for s in range(0, n, step):
        units = np.eye(min(step, n - s), n, s, dtype=complex).reshape(-1, d, d)
        m[:, s:s + len(units)] = apply(channel, units, picture).reshape(len(units), -1).T
    return m
