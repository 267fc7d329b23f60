"""Quantum integers, q-characters, categorical dimensions, and the positive character.

Every pairing <v, alpha> is an exact integer from ``rootdata.root_pairings``;
character values are floating point from there.  ``qdim_signs`` decides the
sign of qdim, and ``chi_vector`` a vanishing Weyl denominator, in integers.

Evaluation happens at q = exp(z*pi*i/ell) with gcd(z, ell) = 1, so q^2 is a
primitive ell-th root of unity and q^ell = (-1)^z.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (CertificationError, DimensionMismatchError, DomainError,
                     SingularParameterError)
from .fusion import AlcoveParams, FusionTable, alcove_enumerate
from .rootdata import RootDatum, Weight, root_pairings


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
    """delta(H_nu) = prod_{alpha > 0} [<alpha, nu>/2] for nu in the root lattice.

    [p/2] = sin(p z pi/(2 ell)) / sin(z pi/ell), and the sine has period 4 ell
    in p z and changes sign every 2 ell: p z is folded into [0, 2 ell) in
    integers first, so a vanishing factor is an exact 0.
    """
    datum, ell = params.datum, params.ell
    if not datum.in_root_lattice(nu):
        raise DomainError(f"{nu} is not in the root lattice")
    t = root_pairings(datum, [nu.doubled])[0] * params.z % (4 * ell)
    sines = np.where(t < 2 * ell, 1, -1) * np.sin(t % (2 * ell) * (math.pi / (2 * ell)))
    return float(np.prod(sines / math.sin(math.pi * params.z / ell)))


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
    if (params.z * root_pairings(datum, [nu.doubled]) % (2 * params.ell) == 0).any():
        raise SingularParameterError(f"Weyl denominator vanishes at nu={nu}, z={params.z}")
    rho = datum.rho
    sums = alternating_sum(params, [rho] + [lam + rho for lam in lambdas], nu)
    # numerators and denominator share the factor (2i)^k, so the ratio is real
    return (sums[1:] / sums[0]).real


def _label_pairings(alcove: AlcoveParams, labels, zs, coroot: bool = False) -> np.ndarray:
    """The ``root_pairings`` rows [rho; mu + rho for mu in labels], the one domain
    check of the Weyl products: every z is admissible, and each label is a
    lattice weight, dominant (for those, every <mu + rho, alpha> > 0) and in the
    closed alcove, <mu + rho, theta_check> <= ell (theta is short: one column for
    both pairings).
    """
    datum, ell = alcove.datum, alcove.ell
    if not all(1 <= z < ell and math.gcd(z, ell) == 1 for z in zs):
        raise DomainError(f"every z must be in [1, {ell - 1}] and coprime to ell={ell}: {zs}")
    for mu in labels:
        if mu.rank != datum.rank:
            raise DimensionMismatchError(f"every label must have rank {datum.rank}")
        datum.check_lattice_weight(mu)
    rho = np.array(datum.rho.doubled, dtype=np.int64)
    lab = np.array([mu.doubled for mu in labels], dtype=np.int64).reshape(-1, datum.rank)
    pairings = root_pairings(datum, np.vstack([rho, lab + rho]), coroot)
    theta = pairings[1:, datum.positive_roots.index(datum.theta)]
    outside = (pairings[1:] <= 0).any(axis=1) | (theta > ell)
    if outside.any():
        raise DomainError(f"{labels[int(outside.argmax())]} is not dominant in the closed "
                          f"alcove at ell={ell}")
    return pairings


def weyl_products(alcove: AlcoveParams, labels, zs, coroot: bool = False) -> np.ndarray:
    """prod_{alpha > 0} [<mu + rho, alpha>] / [<rho, alpha>] at q = exp(z pi i/ell):
    float64 of shape (len(labels), len(zs)), [n] = sin(n z pi/ell) / sin(z pi/ell).

    Without ``coroot`` this is qdim(mu).  With ``coroot`` (alpha_check in place
    of alpha) it is dim^{Lambda_k}(V_mu) on type B: the alternating sum over W
    at H_{Lambda_k + rho} factors through the Weyl denominator of the dual
    (type C) root system.  The float twin of ``qdim_signs``, with the same
    pairings and domain check; each factor is ([n] / [m]), multiplied into a
    running product one root at a time in ``positive_roots`` order.
    """
    # row 0 pairs rho (the denominators), row 1 + i pairs labels[i] + rho
    pairings = _label_pairings(alcove, labels, zs, coroot)
    x = math.pi * np.asarray(zs, dtype=np.int64) / alcove.ell
    sin_x = np.sin(x)
    ratios = np.sin(pairings[:, :, None] * x) / sin_x
    factors = ratios[1:] / ratios[0]
    out = np.ones((len(labels), len(zs)))
    for j in range(pairings.shape[1]):
        out *= factors[:, j]
    return out


def qdim(params: QuantumParams, mu: Weight) -> float:
    """Categorical dimension of V_mu by the q-deformed Weyl product formula."""
    return float(weyl_products(params.alcove, [mu], [params.z])[0, 0])


def qdim_signs(alcove: AlcoveParams, labels, zs) -> np.ndarray:
    """sign(qdim(mu)) at q = exp(z pi i/ell), exactly: int8 of shape (len(labels), len(zs)).

    Each factor of the Weyl product is [n] / [m] with n = <mu + rho, alpha> and
    m = <rho, alpha> positive integers, and [n] has the sign of sin(n z pi/ell):
    with r = n z mod 2 ell, 0 when r is 0 or ell, +1 when r < ell and -1 when
    r > ell.  The sign of qdim is the product over the positive roots, 0 where
    some numerator vanishes.  No denominator does: m < ell at every level that
    ``AlcoveParams`` admits.  The labels pass qdim's domain check, and one
    integer numpy pass covers every (label, root, z); no float or tolerance enters.
    """
    ell = alcove.ell
    pairings = _label_pairings(alcove, labels, zs)
    r = pairings[:, :, None] * np.asarray(zs, dtype=np.int64) % (2 * ell)
    odd = (r > ell).sum(axis=1) % 2
    zero = (r[1:] % ell == 0).any(axis=1)
    return np.where(zero, 0, 1 - 2 * (odd[1:] ^ odd[0])).astype(np.int8)


def dim_mu_vector(params: QuantumParams, mu: Weight, lambdas) -> np.ndarray:
    """dim^mu(V_lam) = chi_lam(H_{mu+rho}) for half-integral dominant mu, per lam."""
    if params.datum.family != "B":
        raise DomainError("dim^mu characters are defined on the type B side only")
    if not (mu.is_dominant and mu.has_uniform_parity and mu.parity == -1):
        raise DomainError(f"mu={mu} must be a half-integral dominant weight")
    return chi_vector(params, mu + params.datum.rho, lambdas)


# -- characters of the fusion ring ----------------------------------------

def positive_character(alcove: AlcoveParams) -> dict[Weight, float]:
    """The unique positive character, lam -> Dim(lam) in alcove order: the spin
    character at z = 1, the coroot Weyl product."""
    if alcove.datum.family != "B":
        raise DomainError("the positive character is the spin character, a type B construction")
    labels = alcove_enumerate(alcove)
    values = weyl_products(alcove, labels, (1,), coroot=True)[:, 0]
    if (values <= 0).any():
        raise AssertionError("positive character has a nonpositive value; convention bug")
    return dict(zip(labels, values.tolist()))


def character_law_defect(f: np.ndarray, table: FusionTable) -> float:
    """max over label pairs of |f(lam)f(mu) - sum_nu N f(nu)| / (1 + |f(lam)f(mu)|),
    for f an array in alcove order."""
    lhs = np.outer(f, f)
    # one n x n slice at a time, never n^3; each integer slice is cast to float64 by @
    rhs = np.array([s @ f for s in table.coeffs])
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(lhs))))


@dataclass(frozen=True)
class PFCertificate:
    """Witness that the positive character is the only positive one; only
    ``pf_certify_unique`` makes one, and only when exactly one eigenvector is."""

    s: int
    eigenvector: np.ndarray = field(compare=False)  # in alcove order, 1 at the unit


def pf_certify_unique(table: FusionTable) -> PFCertificate:
    """Perron-Frobenius certificate on M = A^s + A^{s+1}, A = N_spin (type B)
    or N_vector (type C).

    Finds the smallest odd s making M entrywise positive, exactly: the 0/1
    products below count paths, at most n per entry.  M > 0 makes M's top
    eigenvalue simple.  M is a polynomial in the symmetric A, so the two share
    eigenvectors, and they are read off ``eigh(A)``.  It counts eigenvectors
    that are strictly positive after sign normalization; exactly one must remain.
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
    evecs = np.linalg.eigh(A.astype(np.float64))[1]
    # each eigenvector scaled by its entry of largest modulus
    scaled = evecs / evecs[np.abs(evecs).argmax(axis=0), np.arange(n)]
    positive = (scaled > 1e-9).all(axis=0)
    if positive.sum() != 1:
        raise CertificationError(
            f"expected exactly one positive eigenvector, found {positive.sum()}")
    pf_vec = scaled[:, int(positive.argmax())]
    unit = table.index(Weight.zero(table.params.rank))
    return PFCertificate(found, pf_vec / pf_vec[unit])
