"""Quantum integers, q-characters, categorical dimensions, and the positive character.

All character arithmetic is floating point, except ``qdim_signs``, which
decides the sign of qdim in integers, and the singular-denominator decision
of ``chi_vector``; fusion stays exact on the integer side.

Evaluation happens at q = exp(z*pi*i/ell) with gcd(z, ell) = 1, so q^2 is a
primitive ell-th root of unity and q^ell = (-1)^z.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (CertificationError, DimensionMismatchError, DomainError,
                     SingularParameterError)
from .fusion import AlcoveParams, FusionTable, alcove_enumerate
from .rootdata import RootDatum, Weight, make_root_datum


@dataclass(frozen=True)
class QuantumParams:
    """An alcove together with the exponent z selecting q = exp(z*pi*i/ell)."""

    alcove: AlcoveParams
    z: int

    def __post_init__(self):
        ell = self.alcove.ell
        if not 1 <= self.z <= ell - 1:
            raise DomainError(f"z must lie in [1, {ell - 1}], got {self.z}")
        if math.gcd(self.z, ell) != 1:
            raise DomainError(f"z={self.z} is not coprime to ell={ell}")

    @property
    def ell(self) -> int:
        return self.alcove.ell

    @property
    def datum(self) -> RootDatum:
        return self.alcove.datum

    @property
    def q(self) -> complex:
        return cmath.exp(1j * math.pi * self.z / self.ell)

    @property
    def q_ell_sign(self) -> int:
        """q^ell = (-1)^z."""
        return -1 if self.z % 2 else 1

    def q_power(self, exponent) -> complex:
        """q**exponent for an exact (half-)integer exponent."""
        return cmath.exp(1j * math.pi * self.z * float(exponent) / self.ell)


def admissible_z(ell: int) -> tuple[int, ...]:
    """All z in [1, ell-1] coprime to ell."""
    return tuple(z for z in range(1, ell) if math.gcd(z, ell) == 1)


def quantum_integer(params: QuantumParams, n) -> float:
    """[n] = (q^n - q^-n)/(q - q^-1) = sin(n z pi/ell)/sin(z pi/ell)."""
    x = math.pi * params.z / params.ell
    return math.sin(float(n) * x) / math.sin(x)


def twist_exponent(datum: RootDatum, lam: Weight) -> Fraction:
    """c_lam = <lam + 2 rho, lam>; the twist acts on V_lam by q^{c_lam}."""
    two_rho = Weight(tuple(2 * x for x in datum.rho.doubled))
    return datum.form(lam + two_rho, lam)


# -- alternating Weyl sums -------------------------------------------------

def alternating_sum(params: QuantumParams, shifted, nu: Weight) -> np.ndarray:
    """sum_w eps(w) q^<w(v), nu> for each v in ``shifted``: the Weyl numerator
    of chi_lam(H_nu) at v = lam + rho, and the Weyl denominator at v = rho.

    W is the signed permutations of the coordinates, and summing out the
    signs leaves the determinantal Weyl character formula (Fulton-Harris,
    Lecture 24): the sum is (2i)^k det[sin(pi z v_j nu_m / (d ell))], where
    <a, b> = a.b / d in doubled coordinates (d = 2 on B, 4 on C).  The integer
    z v_j nu_m is reduced mod the sine's period 2 d ell before it becomes a
    float, and one batched det covers every row.
    """
    k = params.datum.rank
    d = 2 if params.datum.family == "B" else 4
    period = 2 * d * params.ell
    rows = np.asarray([v.doubled for v in shifted], dtype=np.int64).reshape(-1, k)
    nu_z = np.asarray(nu.doubled, dtype=np.int64) * params.z % period
    sines = np.sin(rows[:, :, None] * nu_z % period * (math.pi / (d * params.ell)))
    return (2j) ** k * np.linalg.det(sines)


def weyl_denominator(params: QuantumParams, nu: Weight) -> float:
    """delta(H_nu) = prod_{alpha > 0} [<alpha, nu>/2] for nu in the root lattice."""
    datum = params.datum
    if not datum.in_root_lattice(nu):
        raise DomainError(f"{nu} is not in the root lattice")
    val = 1.0
    for a in datum.positive_roots:
        val *= quantum_integer(params, datum.form(a, nu) / 2)
    return val


def chi(params: QuantumParams, lam: Weight, nu: Weight) -> float:
    """The q-character chi_lam(H_nu) as a real number."""
    return float(chi_vector(params, nu, (lam,))[0])


def chi_vector(params: QuantumParams, nu: Weight, lambdas) -> np.ndarray:
    """chi_lam(H_nu) for many lam at once (one batched determinant).

    The Weyl denominator prod_{alpha > 0} (q^{<alpha,nu>/2} - q^{-<alpha,nu>/2})
    vanishes exactly when some z <alpha, nu> is 0 mod 2 ell, an integer test.
    """
    datum = params.datum
    if not datum.in_root_lattice(nu):
        raise DomainError(f"{nu} is not in the root lattice")
    pairings = _root_pairings(datum, np.array([nu.doubled], dtype=np.int64))
    if (params.z * pairings % (2 * params.ell) == 0).any():
        raise SingularParameterError(f"Weyl denominator vanishes at nu={nu}, z={params.z}")
    rho = datum.rho
    sums = alternating_sum(params, [rho] + [lam + rho for lam in lambdas], nu)
    # numerators and denominator share the factor (2i)^k, so the ratio is real
    return (sums[1:] / sums[0]).real


@lru_cache(maxsize=None)
def _pairing_rows(family: str, rank: int,
                  coroot: bool) -> tuple[tuple[tuple[int, ...], int, float], ...]:
    """(alpha.doubled, d, <rho, .>) per positive root alpha, where <v, alpha>
    (or <v, alpha_check> with ``coroot``) = dot(v.doubled, alpha.doubled) / d.

    The form is dot/2 on B and dot/4 on C, and the coroot pairing
    2<v, alpha>/<alpha, alpha> is dot / (|alpha.doubled|^2 / 2) on both.
    Int true division is correctly rounded, as float(Fraction) is.
    """
    datum = make_root_datum(family, rank)
    rho = datum.rho.doubled
    rows = []
    for a in datum.positive_roots:
        d = sum(x * x for x in a.doubled) // 2 if coroot else (2 if family == "B" else 4)
        rows.append((a.doubled, d, sum(x * y for x, y in zip(rho, a.doubled)) / d))
    return tuple(rows)


def _root_pairings(datum: RootDatum, vectors: np.ndarray) -> np.ndarray:
    """<v, alpha> as exact ints, one row per doubled vector v and one column per
    positive root alpha; every pairing must be integral."""
    rows = _pairing_rows(datum.family, datum.rank, False)
    dots = vectors @ np.array([a for a, _, _ in rows], dtype=np.int64).T
    d = np.array([d for _, d, _ in rows], dtype=np.int64)
    if (dots % d).any():
        raise AssertionError("a root pairing is not an integer")
    return dots // d


def _weyl_product(params: QuantumParams, lam: Weight, coroot: bool) -> float:
    """prod_{alpha > 0} [<lam + rho, alpha>] / [<rho, alpha>], or with alpha_check."""
    datum = params.datum
    shifted = (lam + datum.rho).doubled
    x = math.pi * params.z / params.ell
    sin_x = math.sin(x)
    val = 1.0
    for a, d, at_rho in _pairing_rows(datum.family, datum.rank, coroot):
        at_shifted = sum(u * v for u, v in zip(shifted, a)) / d
        val *= (math.sin(at_shifted * x) / sin_x) / (math.sin(at_rho * x) / sin_x)
    return val


def qdim(params: QuantumParams, mu: Weight) -> float:
    """Categorical dimension of V_mu by the q-deformed Weyl product formula."""
    datum = params.datum
    if not mu.is_dominant:
        raise DomainError(f"{mu} is not dominant")
    if datum.form_doubled(mu + datum.rho, datum.theta_check) > 2 * params.ell:
        raise DomainError(f"{mu} is outside the closed alcove at ell={params.ell}")
    return _weyl_product(params, mu, coroot=False)


# int32 entries of one (labels, roots, z) block of qdim_signs
_SIGN_BLOCK_ENTRIES = 1 << 20


def qdim_signs(alcove: AlcoveParams, labels, zs) -> np.ndarray:
    """sign(qdim(mu)) at q = exp(z pi i/ell), exactly: int8 of shape (len(labels), len(zs)).

    Each factor of the Weyl product is [n] / [m] with n = <mu + rho, alpha> and
    m = <rho, alpha> positive integers, and [n] has the sign of sin(n z pi/ell):
    with r = n z mod 2 ell, 0 when r is 0 or ell, +1 when r < ell and -1 when
    r > ell.  The sign of qdim is the product over the positive roots, 0 where
    some numerator vanishes.  No denominator does: m < ell at every level that
    ``AlcoveParams`` admits.  Everything is integer numpy; no float and no
    tolerance enters.  Labels and z obey qdim's preconditions.
    """
    datum, ell = alcove.datum, alcove.ell
    admissible = admissible_z(ell)
    for z in zs:
        if z not in admissible:
            raise DomainError(f"z={z} is not in [1, {ell - 1}] and coprime to ell={ell}")
    if any(mu.rank != datum.rank for mu in labels):
        raise DimensionMismatchError(f"every label must have rank {datum.rank}")
    lab = np.array([mu.doubled for mu in labels], dtype=np.int64).reshape(-1, datum.rank)
    # qdim's domain: dominant, and 2<mu + rho, theta_check> <= 2 ell
    rho = np.array(datum.rho.doubled, dtype=np.int64)
    theta = (lab + rho) @ np.array(datum.theta_check.doubled, dtype=np.int64)
    outside = ~((lab[:, :-1] >= lab[:, 1:]).all(axis=1) & (lab[:, -1] >= 0)) \
        | ((theta if datum.family == "B" else theta // 2) > 2 * ell)
    if outside.any():
        raise DomainError(f"{labels[int(outside.argmax())]} is not dominant in the closed "
                          f"alcove at ell={ell}")
    # row 0 pairs rho (the denominators), row 1 + i pairs labels[i] + rho
    pairings = _root_pairings(datum, np.vstack([rho, lab + rho]))
    if (pairings <= 0).any():
        raise AssertionError("a root pairing of a dominant weight plus rho is not positive")
    # the sign of [n] at z depends on n mod 2 ell only, and then n z < 2 ell^2
    dtype = np.int32 if 2 * ell * ell < 2 ** 31 else np.int64
    n = (pairings % (2 * ell)).astype(dtype)
    zs = np.asarray(zs, dtype=dtype)
    out = np.empty((len(labels), len(zs)), dtype=np.int8)
    step = max(1, _SIGN_BLOCK_ENTRIES // n.size)
    for lo in range(0, len(zs), step):
        r = n[:, :, None] * zs[lo:lo + step] % (2 * ell)
        odd = (r > ell).sum(axis=1) % 2
        zero = (r[1:] % ell == 0).any(axis=1)
        out[:, lo:lo + step] = np.where(zero, 0, 1 - 2 * (odd[1:] ^ odd[0]))
    return out


def dim_mu_vector(params: QuantumParams, mu: Weight, lambdas) -> np.ndarray:
    """dim^mu(V_lam) = chi_lam(H_{mu+rho}) for half-integral dominant mu, per lam."""
    if params.datum.family != "B":
        raise DomainError("dim^mu characters are defined on the type B side only")
    if not (mu.is_dominant and mu.has_uniform_parity and mu.parity == -1):
        raise DomainError(f"mu={mu} must be a half-integral dominant weight")
    return chi_vector(params, mu + params.datum.rho, lambdas)


def spin_character_product(params: QuantumParams, lam: Weight) -> float:
    """dim^{Lambda_k}(V_lam) as the coroot product of quantum-integer ratios.

    The alternating sum over W at H_{Lambda_k + rho} factors through the Weyl
    denominator of the dual (type C) root system, which turns the character
    into prod_{coroots} [<lam+rho, alpha_check>] / [<rho, alpha_check>].
    """
    if params.datum.family != "B":
        raise DomainError("the spin character product is a type B construction")
    return _weyl_product(params, lam, coroot=True)


# -- characters of the fusion ring ----------------------------------------

@dataclass(frozen=True)
class CharacterVector:
    """A character of the fusion ring: one real value per alcove label."""

    labels: tuple[Weight, ...]
    values: dict[Weight, float] = field(compare=False)
    name: str = ""

    def __getitem__(self, w: Weight) -> float:
        return self.values[w]

    def as_array(self) -> np.ndarray:
        return np.array([self.values[w] for w in self.labels])


def character_vector(params: QuantumParams, mu: Weight, name: str = "") -> CharacterVector:
    """The CharacterVector lam -> dim^mu(V_lam) over the alcove."""
    labels = alcove_enumerate(params.alcove)
    vals = dim_mu_vector(params, mu, labels)
    return CharacterVector(labels, dict(zip(labels, map(float, vals))), name or f"dim^{mu}@z={params.z}")


def positive_character(alcove: AlcoveParams) -> CharacterVector:
    """The unique positive character: the spin character evaluated at z = 1."""
    params = QuantumParams(alcove, 1)
    labels = alcove_enumerate(alcove)
    values = {w: spin_character_product(params, w) for w in labels}
    if any(v <= 0 for v in values.values()):
        raise AssertionError("positive character has a nonpositive value; convention bug")
    return CharacterVector(labels, values, "Dim")


def character_law_defect(vec: CharacterVector, table: FusionTable) -> float:
    """max over label pairs of |f(lam)f(mu) - sum_nu N f(nu)| / (1 + |f(lam)f(mu)|)."""
    f = vec.as_array()
    lhs = np.outer(f, f)
    rhs = np.array([s @ f for s in table.coeffs])  # one n x n slice at a time, never n^3
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))


@dataclass(frozen=True)
class PFCertificate:
    """Witness that the positive character is the only positive one."""

    s: int
    positive_count: int
    eigenvalue: float
    eigenvector: dict[Weight, float]


def pf_certify_unique(table: FusionTable) -> PFCertificate:
    """Perron-Frobenius certificate on M = N_spin^s + N_spin^{s+1}.

    Finds the smallest odd s making M entrywise positive, diagonalizes the
    symmetric M, and counts eigenvectors that are strictly positive after
    sign normalization.  Exactly one must remain.
    """
    datum = table.params.datum
    A = table.fusion_matrix(datum.spin_weight if datum.family == "B" else datum.fundamental_weight_1)
    n = table.size
    # 0/1 patterns as float64 so the products run through BLAS; every entry of
    # a product is a count of at most n, exact in float64
    adj = (A > 0).astype(np.float64)

    def step(pattern: np.ndarray) -> np.ndarray:
        return ((pattern @ adj) > 0).astype(np.float64)

    # cur = positivity pattern of A^s (paths of exactly length s), s odd
    s, cur = 1, adj
    nxt = step(cur)
    found = None
    while s <= 2 * n:
        if ((cur + nxt) > 0).all():
            found = s
            break
        cur = step(nxt)
        nxt = step(cur)
        s += 2
    if found is None:
        raise CertificationError(f"no odd s <= {2 * n} with N^s + N^(s+1) positive")
    Af = A.astype(np.float64)
    M = np.linalg.matrix_power(Af, found) + np.linalg.matrix_power(Af, found + 1)
    if not (M > 0).all():
        raise AssertionError("positivity pattern disagreed with boolean reachability")
    evals, evecs = np.linalg.eigh(M)
    positive = 0
    pf_vec, pf_val = None, None
    for i in range(n):
        v = evecs[:, i]
        v = v / v[np.argmax(np.abs(v))]
        if (v > 1e-9).all():
            positive += 1
            pf_vec, pf_val = v, float(evals[i])
    if positive != 1:
        raise CertificationError(f"expected exactly one positive eigenvector, found {positive}")
    unit = table.index(Weight.zero(table.params.rank))
    pf_vec = pf_vec / pf_vec[unit]
    return PFCertificate(found, positive, pf_val, dict(zip(table.labels, map(float, pf_vec))))
