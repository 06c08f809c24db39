"""Operator algebra on the emitter (x) truncated-Fock Hilbert space.

Basis ordering is fixed as TLS (x) Fock with index k = s*(n_max+1) + n,
s in {g=0, e=1}.  Matrices are dense; the spaces involved are tiny.
"""

from dataclasses import dataclass

import numpy as np


class DimensionMismatchError(ValueError):
    """Operator/state dimensions disagree."""


@dataclass(frozen=True)
class HilbertSpec:
    n_max: int = 3

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be at least 1")

    @property
    def n_fock(self):
        return self.n_max + 1

    @property
    def dim(self):
        return 2 * self.n_fock


def annihilation(space):
    """Collection-mode annihilation operator: identity-on-TLS (x) a."""
    a_f = np.diag(np.sqrt(np.arange(1, space.n_fock, dtype=float)), 1)
    return np.kron(np.eye(2), a_f).astype(complex)


def sigma_minus(space):
    """Emitter lowering operator |g><e| (x) identity-on-Fock."""
    low = np.zeros((2, 2))
    low[0, 1] = 1.0
    return np.kron(low, np.eye(space.n_fock)).astype(complex)


def ground_state(space):
    """Density matrix |g,0><g,0|."""
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def expectation(rho, op):
    """Tr(rho op)."""
    if rho.shape != op.shape:
        raise DimensionMismatchError(f"{rho.shape} vs {op.shape}")
    return np.trace(rho @ op)


def partial_trace_tls(rho, space):
    """Trace out the Fock factor, leaving the 2x2 emitter state; a stack
    (..., dim, dim) gives a stack (..., 2, 2)."""
    if rho.shape[-2:] != (space.dim, space.dim):
        raise DimensionMismatchError(f"{rho.shape} vs dim {space.dim}")
    blocks = rho.reshape(rho.shape[:-2] + (2, space.n_fock, 2, space.n_fock))
    return np.einsum("...anbn->...ab", blocks)


def check_density_matrix(rho, herm_tol=1e-10, trace_tol=1e-8, eig_tol=1e-8):
    """Validate Hermiticity, unit trace, and positivity of rho."""
    if np.abs(rho - rho.conj().T).max() > herm_tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > trace_tol:
        raise ValueError("density matrix trace deviates from 1")
    if np.linalg.eigvalsh(rho).min() < -eig_tol:
        raise ValueError("density matrix has a significantly negative eigenvalue")
