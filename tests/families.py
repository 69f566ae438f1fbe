"""Seeded random instance generators shared by the unit and acceptance tests."""

import numpy as np

from broadcastlab.channels import KrausChannel, MeasurePrepareChannel
from broadcastlab.operators import (
    DiscretePOVM,
    commutator_defect,
    dagger,
)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR with phase fixing."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_kraus_channel(d_in: int, d_out: int, n_ops: int, rng: np.random.Generator):
    """Kraus operators cut from the first d_in columns of a random unitary."""
    u = random_unitary(d_out * n_ops, rng)[:, :d_in]
    return KrausChannel([u[k * d_out:(k + 1) * d_out] for k in range(n_ops)])


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density operator (full rank by default)."""
    r = rank if rank is not None else d
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = g @ dagger(g)
    return rho / np.real(np.trace(rho))


def random_commuting_states(d, n, rng):
    """States diagonal in one random basis."""
    u = random_unitary(d, rng)
    out = []
    for _ in range(n):
        p = rng.dirichlet(np.ones(d))
        out.append(u @ np.diag(p.astype(complex)) @ dagger(u))
    return out


def random_noncommuting_states(d, n, rng, min_defect=1e-6):
    while True:
        states = [random_density(d, rng) for _ in range(n)]
        if commutator_defect(states)[0] > min_defect:
            return states


def _random_partition(indices, n_parts, rng):
    """Split indices into n_parts nonempty groups."""
    idx = list(indices)
    rng.shuffle(idx)
    cuts = sorted(rng.choice(np.arange(1, len(idx)), size=n_parts - 1, replace=False)) \
        if n_parts > 1 else []
    parts, start = [], 0
    for c in list(cuts) + [len(idx)]:
        parts.append(idx[start:c])
        start = c
    return parts


def random_eb_channel(d, rng, kind=None):
    """Measure-prepare channel with a controlled fixed-point structure.

    kind "pinching": atoms are orthogonal projections; "norm1": eigenvalue-1
    POVM with non-projective atoms sharing a leftover block; "generic":
    unstructured POVM and states (fixed space generically trivial).
    """
    if kind is None:
        kind = rng.choice(["pinching", "norm1", "generic"])
    u = random_unitary(d, rng)

    if kind == "generic":
        n_out = int(rng.integers(2, d + 2))
        raw = []
        for _ in range(n_out):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            raw.append(g @ dagger(g))
        total = sum(raw)
        w, v = np.linalg.eigh(total)
        inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
        effects = [inv_sqrt @ a @ inv_sqrt for a in raw]
        states = [random_density(d, rng) for _ in range(n_out)]
        return MeasurePrepareChannel(DiscretePOVM(tuple(effects)), states)

    n_atoms = int(rng.integers(1, min(d, 3) + 1))
    if kind == "norm1" and d - n_atoms >= 1 and n_atoms >= 1:
        leftover = max(1, int(rng.integers(1, d - n_atoms + 1))) if d > n_atoms else 0
    else:
        leftover = 0
    block_indices = _random_partition(range(d - leftover), n_atoms, rng)
    left_indices = list(range(d - leftover, d))

    effects, states = [], []
    weights = rng.dirichlet(np.ones(n_atoms), size=len(left_indices)) if left_indices else None
    for i, block in enumerate(block_indices):
        g = np.zeros((d, d), dtype=complex)
        for b in block:
            g[b, b] = 1.0
        for li, l in enumerate(left_indices):
            g[l, l] = weights[li][i]
        effects.append(u @ g @ dagger(u))
        # dual state supported inside the block (the eigenvalue-1 eigenspace)
        sub = random_density(len(block), rng)
        s = np.zeros((d, d), dtype=complex)
        for a, ia in enumerate(block):
            for b, ib in enumerate(block):
                s[ia, ib] = sub[a, b]
        states.append(u @ s @ dagger(u))
    return MeasurePrepareChannel(DiscretePOVM(tuple(effects)), states)


def random_pvm(d, rng, n_outcomes=None):
    """Orthogonal projections partitioning the identity in a random basis."""
    if n_outcomes is None:
        n_outcomes = int(rng.integers(2, d + 1))
    u = random_unitary(d, rng)
    parts = _random_partition(range(d), n_outcomes, rng)
    projs = []
    for block in parts:
        p = np.zeros((d, d), dtype=complex)
        for b in block:
            p[b, b] = 1.0
        projs.append(u @ p @ dagger(u))
    return projs


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return 0.5 * (g + dagger(g))


def fourier_basis(d: int) -> np.ndarray:
    """Columns are the discrete Fourier basis of C^d."""
    k = np.arange(d)
    return np.exp(2j * np.pi * np.outer(k, k) / d) / np.sqrt(d)


def rotated_mub_effects(d, rng):
    """Rank-one effects of the computational and Fourier bases, both rotated by
    one random unitary: 2d effects that no entanglement-breaking channel fixes."""
    u = random_unitary(d, rng)
    return [np.outer(v, v.conj()) for basis in (np.eye(d), fourier_basis(d))
            for v in (u @ basis).T]


def commuting_pair(spectra, rng):
    """Two commuting effects with the given eigenvalues in a random common basis."""
    u = random_unitary(len(spectra[0]), rng)
    return [u @ np.diag(np.asarray(ev, dtype=complex)) @ dagger(u) for ev in spectra]
