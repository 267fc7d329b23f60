"""Quantum integers, q-characters, categorical dimensions, and the positive character.

Every pairing <v, alpha> is an exact integer from ``rootdata.root_pairings``;
character values are floating point from there.  ``qdim_signs`` decides the
sign of qdim, ``chi_table`` a vanishing Weyl denominator, and
``pf_certify_unique`` that N_spin is irreducible (so the positive character
is the only one), in integers; no eigensolver enters.  On type B the n
characters at z = 1 (``character_table``) rebuild any fusion row by the
Verlinde sum (``verlinde_rows``), with no fusion kernel and no inverse.

Evaluation happens at q = exp(z*pi*i/ell) with gcd(z, ell) = 1, so q^2 is a
primitive ell-th root of unity and q^ell = (-1)^z.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (CertificationError, DimensionMismatchError, DomainError,
                     SingularParameterError)
from .fusion import _CHUNK_ROWS, AlcoveParams, FusionTable, alcove_enumerate
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

def alternating_sum(params: QuantumParams, shifted: np.ndarray, nus: np.ndarray) -> np.ndarray:
    """sum_w eps(w) q^<w(v), nu> for each nu in ``nus`` (rows) and v in
    ``shifted`` (columns): the Weyl numerator of chi_lam(H_nu) at v = lam + rho,
    and the Weyl denominator at v = rho.  Both are (m, rank) int64 arrays of
    doubled coordinates, one vector a row.

    W is the signed permutations of the coordinates, and summing out the
    signs leaves the determinantal Weyl character formula (Fulton-Harris,
    Lecture 24): the sum is (2i)^k det[sin(pi z v_j nu_m / (d ell))], where
    <a, b> = a.b / d in doubled coordinates (d = 2 on B, 4 on C).  The integer
    z v_j nu_m is reduced mod the sine's period 2 d ell before it becomes a
    float.  Batched dets cover the (nu, v) grid a block of nu at a time, at
    most _CHUNK_ROWS determinants a block (fusion's chunk): the whole grid at
    once raised verify's process peak at (5,23) from 1.64 to 1.88 GiB.  Each
    entry is the same whatever the block.
    """
    k = params.datum.rank
    d = 2 if params.datum.family == "B" else 4
    period = 2 * d * params.ell
    nu_z = nus * params.z % period
    out = np.empty((len(nu_z), len(shifted)), dtype=complex)
    step = max(1, _CHUNK_ROWS // max(1, len(shifted)))
    for lo in range(0, len(nu_z), step):
        turns = shifted[:, :, None] * nu_z[lo:lo + step, None, None, :] % period
        out[lo:lo + step] = (2j) ** k * np.linalg.det(np.sin(turns * (math.pi / (d * params.ell))))
    return out


def chi(params: QuantumParams, lam: Weight, nu: Weight) -> float:
    """The q-character chi_lam(H_nu) as a real number."""
    return float(chi_vector(params, nu, (lam,))[0])


def chi_vector(params: QuantumParams, nu: Weight, lambdas) -> np.ndarray:
    """chi_lam(H_nu) for many lam at once: the one row of ``chi_table`` at nu."""
    return chi_table(params, (nu,), lambdas)[0]


def chi_table(params: QuantumParams, nus, lambdas) -> np.ndarray:
    """chi_lam(H_nu) for every nu in ``nus`` (rows) and lam in ``lambdas``
    (columns), from one batched ``alternating_sum``.

    The Weyl denominator prod_{alpha > 0} (q^{<alpha,nu>/2} - q^{-<alpha,nu>/2})
    vanishes exactly when some z <alpha, nu> is 0 mod 2 ell, an integer test.
    """
    datum = params.datum
    for nu in nus:
        if not datum.in_root_lattice(nu):
            raise DomainError(f"{nu} is not in the root lattice")
    doubled = np.array([nu.doubled for nu in nus], dtype=np.int64).reshape(-1, datum.rank)
    pairings = root_pairings(datum, doubled)
    singular = (params.z * pairings % (2 * params.ell) == 0).any(axis=1)
    if singular.any():
        raise SingularParameterError(
            f"Weyl denominator vanishes at nu={nus[singular.argmax()]}, z={params.z}")
    for lam in lambdas:
        if lam.rank != datum.rank:
            raise DimensionMismatchError(f"rank mismatch: {lam.rank} vs {datum.rank}")
    rho = np.array(datum.rho.doubled, dtype=np.int64)
    lams = np.array([lam.doubled for lam in lambdas], dtype=np.int64).reshape(-1, datum.rank)
    sums = alternating_sum(params, np.vstack([rho, lams + rho]), doubled)
    # numerators and denominator share the factor (2i)^k, so the ratio is real
    return (sums[:, 1:] / sums[:, :1]).real


def _label_pairings(alcove: AlcoveParams, labels, zs, coroot: bool = False) -> np.ndarray:
    """The ``root_pairings`` rows [rho; mu + rho for mu in labels], the one domain
    check of the Weyl products: every z is admissible, and each label is a
    lattice weight, dominant (for those, every <mu + rho, alpha> > 0) and in the
    closed alcove, <mu + rho, theta_check> <= ell (theta is short: one column for
    both pairings).

    ``labels`` is a list of Weights or an (m, rank) int64 array of doubled
    coordinates; a list becomes that array on entry, and one array pass checks
    every label.  An error names the first label that fails.
    """
    datum, ell = alcove.datum, alcove.ell
    if not all(1 <= z < ell and math.gcd(z, ell) == 1 for z in zs):
        raise DomainError(f"every z must be in [1, {ell - 1}] and coprime to ell={ell}: {zs}")
    if not isinstance(labels, np.ndarray):
        if any(mu.rank != datum.rank for mu in labels):
            raise DimensionMismatchError(f"every label must have rank {datum.rank}")
        labels = np.array([mu.doubled for mu in labels], dtype=np.int64).reshape(-1, datum.rank)
    if labels.ndim != 2 or labels.shape[1] != datum.rank:
        raise DimensionMismatchError(f"every label must have rank {datum.rank}")
    # uniform parity on B, every doubled entry even on C
    parity = labels & 1
    off_lattice = (parity != (0 if datum.family == "C" else parity[:, :1])).any(axis=1)
    if off_lattice.any():
        datum.check_lattice_weight(_weight(labels[off_lattice.argmax()]))  # raises
    rho = np.array(datum.rho.doubled, dtype=np.int64)
    pairings = root_pairings(datum, np.vstack([rho, labels + rho]), coroot)
    theta = pairings[1:, _theta_column(datum)]
    outside = (pairings[1:] <= 0).any(axis=1) | (theta > ell)
    if outside.any():
        raise DomainError(f"{_weight(labels[outside.argmax()])} is not dominant in the closed "
                          f"alcove at ell={ell}")
    return pairings


@lru_cache(maxsize=None)
def _theta_column(datum: RootDatum) -> int:
    return datum.positive_roots.index(datum.theta)


def _weight(row: np.ndarray) -> Weight:
    return Weight(tuple(row.tolist()))


def weyl_products(alcove: AlcoveParams, labels, zs, coroot: bool = False) -> np.ndarray:
    """prod_{alpha > 0} [<mu + rho, alpha>] / [<rho, alpha>] at q = exp(z pi i/ell):
    float64 of shape (len(labels), len(zs)), [n] = sin(n z pi/ell) / sin(z pi/ell).
    ``labels`` are Weights or an (m, rank) int64 array of doubled coordinates.

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
    """sign(qdim(mu)) at q = exp(z pi i/ell), exactly: int8 of shape (len(labels), len(zs)),
    for Weights or an (m, rank) int64 array of doubled coordinates.

    Each factor of the Weyl product is [n] / [m] with n = <mu + rho, alpha> and
    m = <rho, alpha> positive integers, and [n] has the sign of sin(n z pi/ell):
    with r = n z mod 2 ell, 0 when r is 0 or ell, +1 when r < ell and -1 when
    r > ell.  The sign of qdim is the product over the positive roots, 0 where
    some numerator vanishes.  No denominator does: m < ell at every level that
    ``AlcoveParams`` admits.  The labels pass qdim's domain check.  The rule is
    tabulated once per call, for every pairing n up to the largest and every
    z, as a code: 1 for a negative factor and R + 1 for a vanishing one, with R
    the number of positive roots.  A label's codes summed over its roots then
    exceed R exactly when a factor vanishes, and otherwise count its negative
    factors.  One gather and one unsigned sum, in the narrowest dtype that
    holds R (R + 1), cover every (label, root, z); no float or tolerance enters.
    """
    ell = alcove.ell
    pairings = _label_pairings(alcove, labels, zs)
    n_roots = pairings.shape[1]
    # code[z, n]; the gather keeps the roots last, so the sum runs along contiguous memory
    r = np.asarray(zs, dtype=np.int64)[:, None] * np.arange(pairings.max() + 1) % (2 * ell)
    code = np.where(r % ell == 0, n_roots + 1, r > ell).astype(
        np.min_scalar_type(n_roots * (n_roots + 1)))
    total = np.take(code, pairings, axis=1).sum(axis=2, dtype=code.dtype).T
    odd = (total[1:] ^ total[0]) & 1
    return np.where(total[1:] > n_roots, 0, np.where(odd, -1, 1)).astype(np.int8)


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


def character_table(alcove: AlcoveParams) -> np.ndarray:
    """The characters of the type B fusion ring at z = 1, one row each, labels
    in alcove order: f_mu = chi_.(H_{mu+rho}) (``dim_mu_vector``) for each
    half-integral label mu, from one ``chi_table`` pass, then eps * f_mu with
    eps = +1 on the integral labels and -1 on the half-integral ones.  eps is
    a character because fusion respects the sector grading, so each eps * f_mu
    is one too.  That makes n rows for n labels."""
    if alcove.datum.family != "B":
        raise DomainError("the z = 1 character table is built on the type B side only")
    labels = alcove_enumerate(alcove)
    rho = alcove.datum.rho
    f = chi_table(QuantumParams(alcove, 1), [mu + rho for mu in labels if mu.parity == -1], labels)
    return np.vstack([f, f * np.array([mu.parity for mu in labels])])


def verlinde_rows(alcove: AlcoveParams, pairs) -> tuple[np.ndarray, float, float]:
    """(rows, orthogonality, rounding): N_{a,b}^c for each label pair (a, b),
    row p and column c in alcove order, from the characters alone.

    With the rows chi_i of ``character_table``, real since every label is
    self-dual, N_{a,b}^c = sum_i chi_i(a) chi_i(b) chi_i(c) / |chi_i|^2: no
    matrix is inverted and no fusion kernel runs.  rows is that sum rounded
    to int64, orthogonality the largest |cos| between two character rows and
    rounding max |sum - rint(sum)|; both are magnitudes for the caller to
    bound, and n orthogonal characters of an n-label ring are all of them.
    A table with another number of rows than labels is a CertificationError.
    """
    labels = alcove_enumerate(alcove)
    chars = character_table(alcove)
    if chars.shape != (len(labels), len(labels)):
        raise CertificationError(f"{len(chars)} characters for {len(labels)} labels")
    index = {w: i for i, w in enumerate(labels)}
    try:
        a, b = (np.array([index[p[i]] for p in pairs], dtype=np.int64) for i in (0, 1))
    except KeyError as exc:
        raise DomainError(f"{exc.args[0]} is not an alcove label") from None
    norms = np.einsum("ij,ij->i", chars, chars)
    cos = np.abs(chars @ chars.T) / np.sqrt(np.outer(norms, norms))
    np.fill_diagonal(cos, 0.0)
    sums = (chars[:, a] * chars[:, b] / norms[:, None]).T @ chars
    rounded = np.rint(sums)
    return rounded.astype(np.int64), float(cos.max()), float(np.abs(sums - rounded).max(initial=0.0))


@dataclass(frozen=True)
class PFCertificate:
    """Witness that N_spin is irreducible, so the positive character is the
    only positive one; only ``pf_certify_unique`` makes one."""

    s: int


def pf_certify_unique(table: FusionTable) -> PFCertificate:
    """Perron-Frobenius certificate on M = A^s + A^{s+1}, A = N_spin (type B)
    or N_vector (type C).

    Finds the smallest odd s making M entrywise positive, exactly: the 0/1
    products below count paths, at most n per entry.  M > 0 makes A
    irreducible (spin fusion flips the parity sector, so on type B A is
    bipartite and never primitive).  An irreducible nonnegative matrix has one
    nonnegative eigenvector up to scale, and a positive character f satisfies
    A f = f(spin) f with f(unit) = 1, so there is at most one positive
    character.  No s <= 2n is a ``CertificationError``.
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
    while s <= 2 * n:
        if ((cur + nxt) > 0).all():
            return PFCertificate(s)
        cur = step(nxt)
        nxt = step(cur)
        s += 2
    raise CertificationError(f"no odd s <= {2 * n} with N^s + N^(s+1) positive")
