"""The alcove involution phi(lam) = gamma - w1(lam) and the simple current gamma.

gamma = ((ell-2k)/2, ..., (ell-2k)/2) is the unique alcove label of maximal
length and w1 is the Weyl element that reverses the coordinates; tensoring
with V_gamma permutes the simple objects by phi, and phi flips every
character at most by a sign.  ``phi_rows`` is the one place that computes
phi, on an array of doubled weights; ``phi_weight`` is its one-weight view.
The diagram side's Psi and its generator phi(Lambda_1) call them too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fusion import AlcoveParams, FusionTable, alcove_enumerate, label_positions
from .rootdata import Weight


def phi_rows(k: int, ell: int, rows: np.ndarray) -> np.ndarray:
    """phi(lam) = gamma - w1(lam) at rank k and level ell for each row of
    ``rows``, an (m, k) int64 array of doubled weights; gamma =
    ((ell-2k)/2, ..., (ell-2k)/2) is phi of the zero weight."""
    return ell - 2 * k - rows[:, ::-1]


def phi_weight(k: int, ell: int, lam: Weight) -> Weight:
    """phi of the one weight lam: ``phi_rows`` on a single row."""
    return Weight(tuple(phi_rows(k, ell, np.array([lam.doubled], dtype=np.int64))[0].tolist()))


@dataclass(frozen=True)
class InvolutionData:
    """gamma and phi as a permutation of the alcove."""

    gamma: Weight
    perm: tuple[int, ...]

    @classmethod
    def build(cls, alcove: AlcoveParams) -> "InvolutionData":
        if alcove.datum.family != "B":
            raise DomainError("the involution is defined on the type B alcove")
        k, ell = alcove.datum.rank, alcove.ell
        labels = alcove_enumerate(alcove)
        images = phi_rows(k, ell, np.array([w.doubled for w in labels], dtype=np.int64))
        perm = label_positions(alcove, images)
        if (perm < 0).any():
            i = int(np.argmax(perm < 0))
            raise AssertionError(
                f"phi({labels[i]}) = {Weight(tuple(images[i].tolist()))} escaped the alcove")
        if not np.array_equal(perm[perm], np.arange(len(perm))):
            raise AssertionError("phi is not an involution")
        if (perm == np.arange(len(perm))).any():
            raise AssertionError("phi has a fixed point")
        return cls(phi_weight(k, ell, Weight.zero(k)), tuple(perm.tolist()))

    def permutation_matrix(self) -> np.ndarray:
        n = len(self.perm)
        P = np.zeros((n, n), dtype=np.int64)
        P[self.perm, np.arange(n)] = 1
        return P


def verify_simple_current(table: FusionTable, data: InvolutionData) -> bool:
    """V_gamma (x) V_mu = V_phi(mu): N_gamma is phi's permutation matrix, squaring to 1.

    Once N_gamma equals the permutation matrix of ``data.perm``, it squares to
    the identity exactly when perm[perm] is the identity, an O(n) test.
    """
    if not np.array_equal(table.fusion_matrix(data.gamma), data.permutation_matrix()):
        return False
    perm = np.asarray(data.perm)
    return bool(np.array_equal(perm[perm], np.arange(len(perm))))


def phi_sign(k: int, q_ell_sign: int) -> int:
    """The sign s with dim(V_phi(lam)) = s * dim(V_lam), from the rank mod 4.

    For q^ell = -1 the sign is + exactly when k = 0, 1 mod 4; for q^ell = +1
    exactly when k = 0, 3 mod 4.
    """
    if q_ell_sign not in (1, -1):
        raise DomainError(f"q_ell_sign must be +-1, got {q_ell_sign}")
    if q_ell_sign == -1:
        return 1 if k % 4 in (0, 1) else -1
    return 1 if k % 4 in (0, 3) else -1
