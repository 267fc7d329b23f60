"""The alcove involution phi(lam) = gamma - w1(lam) and the simple current gamma.

gamma = ((ell-2k)/2, ..., (ell-2k)/2) is the unique alcove label of maximal
length and w1 is the Weyl element that reverses the coordinates; tensoring
with V_gamma permutes the simple objects by phi, and phi flips every
character at most by a sign.  ``phi_weight`` is the one place that computes
phi; the diagram side's Psi and its generator phi(Lambda_1) call it too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fusion import AlcoveParams, FusionTable, alcove_enumerate
from .rootdata import Weight


def phi_weight(k: int, ell: int, lam: Weight) -> Weight:
    """phi(lam) = gamma - w1(lam) at rank k and level ell, for any weight lam;
    gamma = ((ell-2k)/2, ..., (ell-2k)/2) is phi of the zero weight."""
    return Weight(tuple(ell - 2 * k - x for x in reversed(lam.doubled)))


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
        index = {w: i for i, w in enumerate(labels)}
        perm = []
        for lam in labels:
            img = phi_weight(k, ell, lam)
            if img not in index:
                raise AssertionError(f"phi({lam}) = {img} escaped the alcove")
            perm.append(index[img])
        perm = tuple(perm)
        if any(perm[perm[i]] != i for i in range(len(perm))):
            raise AssertionError("phi is not an involution")
        if any(perm[i] == i for i in range(len(perm))):
            raise AssertionError("phi has a fixed point")
        return cls(phi_weight(k, ell, Weight.zero(k)), perm)

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
