import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcfusion.bmwdual import gamma_set
from bcfusion.errors import (CertificationError, DimensionMismatchError, DomainError,
                             SingularParameterError)
from bcfusion.fusion import AlcoveParams, FusionTable, alcove_enumerate, classical_tensor
from bcfusion.qchar import (QuantumParams, admissible_z, alternating_sum, character_law_defect,
                            chi, dim_mu_vector, pf_certify_unique, positive_character, qdim,
                            qdim_signs, quantum_integer, twist_exponent, weyl_denominator,
                            weyl_products)
from bcfusion.rootdata import Weight, make_root_datum, root_pairings

from conftest import w
from oracles import (alternating_sum_group, pf_certify_powers, psi, weyl_product_fraction,
                     weyl_product_scalar)


@pytest.fixture(scope="module")
def q29(params29):
    return QuantumParams(params29, 1)


def test_quantum_integer_values(q29):
    assert quantum_integer(q29, 1) == pytest.approx(1.0)
    assert quantum_integer(q29, 9) == pytest.approx(0.0, abs=1e-12)
    assert quantum_integer(q29, 2) == pytest.approx(2 * math.cos(math.pi / 9), abs=1e-12)


def test_quantum_params_validation(params29):
    with pytest.raises(DomainError):
        QuantumParams(params29, 0)
    with pytest.raises(DomainError):
        QuantumParams(params29, 9)
    with pytest.raises(DomainError):
        QuantumParams(params29, 3)  # gcd(3, 9) = 3
    assert admissible_z(9) == (1, 2, 4, 5, 7, 8)
    assert len(admissible_z(15)) == 8


def test_q_ell_sign(params29):
    assert QuantumParams(params29, 1).q_ell_sign == -1
    assert QuantumParams(params29, 2).q_ell_sign == 1
    q = QuantumParams(params29, 5)
    assert q.q ** 9 == pytest.approx((-1) ** 5)


def test_weyl_denominator_product_vs_sum(q29, b2):
    two_rho = Weight(tuple(2 * x for x in b2.rho.doubled))
    prod = weyl_denominator(q29, two_rho)
    sum_form = alternating_sum(q29, (b2.rho,), two_rho)[0]
    qq = q29.q - 1 / q29.q
    assert sum_form / qq ** 4 == pytest.approx(prod, rel=1e-9)
    assert prod > 0  # all arguments strictly inside (0, pi) at z = 1
    # the factor [form(rho, alpha)] appears for each positive root
    expected = 1.0
    for a in b2.positive_roots:
        expected *= quantum_integer(q29, b2.form(b2.rho, a))
    assert prod == pytest.approx(expected, rel=1e-12)


def test_weyl_denominator_wall_vanishes(q29):
    # nu = (9, 0): <eps_1, nu> / 2 = 9 = ell kills the short-root factor
    assert weyl_denominator(q29, w(9, 0)) == 0.0


def test_weyl_denominator_vanishes_exactly_near_z_ell_minus_one():
    # the unreduced float product read -1.19e-9 here: rounding of sin(n z pi/ell)
    # divided by sin(z pi/ell) once per positive root
    params = QuantumParams(AlcoveParams(make_root_datum("B", 3), 19), 18)
    assert weyl_denominator(params, w(1, 6, 25)) == 0.0


def test_weyl_denominator_needs_root_lattice(q29):
    with pytest.raises(DomainError):
        weyl_denominator(q29, w("1/2", "1/2"))


def test_chi_unit_is_one(q29, b2):
    # regular nu only: orthogonality to a root kills the Weyl denominator
    for nu in (w(2, 1), w(3, 1), w(4, 2)):
        assert chi(q29, Weight.zero(2), nu) == pytest.approx(1.0, abs=1e-12)


def test_chi_at_two_rho_is_qdim(q29, b2, params29):
    two_rho = Weight(tuple(2 * x for x in b2.rho.doubled))
    for lam in alcove_enumerate(params29):
        assert chi(q29, lam, two_rho) == pytest.approx(qdim(q29, lam), abs=1e-9)
    # labels on the affine wall belong to the closure: both sides vanish there
    for lam in (w(3, 0), w(3, 1), w(3, 3)):
        assert qdim(q29, lam) == pytest.approx(0.0, abs=1e-9)
        assert chi(q29, lam, two_rho) == pytest.approx(0.0, abs=1e-9)


def test_chi_singular_denominator(params29):
    q = QuantumParams(params29, 1)
    with pytest.raises(SingularParameterError):
        chi(q, w(1, 0), w(9, 9))  # both short-root factors vanish at ell


@st.composite
def _root_lattice_cases(draw):
    family = draw(st.sampled_from("BC"))
    k = draw(st.integers(2, 3))
    ell = draw(st.sampled_from(range(2 * k + 1, 2 * k + 16, 2)))
    z = draw(st.sampled_from(admissible_z(ell)))
    coords = draw(st.lists(st.integers(-2 * ell, 2 * ell), min_size=k, max_size=k))
    if family == "C" and sum(coords) % 2:  # the C root lattice has even coordinate sum
        coords[-1] += 1
    alcove = AlcoveParams(make_root_datum(family, k), ell)
    return QuantumParams(alcove, z), Weight(tuple(2 * c for c in coords))


@given(_root_lattice_cases())
def test_chi_singular_decision_is_the_denominator_zero(case):
    """chi raises exactly where the product form of the Weyl denominator is
    exactly 0: both decide z <alpha, nu> = 0 mod 2 ell in integers."""
    params, nu = case
    assert params.datum.in_root_lattice(nu)
    den = weyl_denominator(params, nu)
    try:
        chi(params, Weight.zero(params.datum.rank), nu)
        singular = False
    except SingularParameterError:
        singular = True
    assert singular == (den == 0.0), (nu, params.z, den)


def test_character_law_at_fixed_nu(q29, b2):
    nu = b2.spin_weight + b2.rho  # (2, 1), a root-lattice point
    pairs = [(w(1, 0), w(1, 0)), (w(1, 0), w(1, 1)), (w("1/2", "1/2"), w("1/2", "1/2")),
             (w("1/2", "1/2"), w(1, 1)), (w(2, 0), w(1, 1))]
    for lam, mu in pairs:
        product = chi(q29, lam, nu) * chi(q29, mu, nu)
        total = sum(m * chi(q29, kappa, nu) for kappa, m in classical_tensor(b2, lam, mu).items())
        assert product == pytest.approx(total, rel=1e-9, abs=1e-9)


def test_affine_antisymmetry_of_numerator(q29, b2):
    """The chi numerator flips sign under the ell-reflection dot action."""
    rng = np.random.default_rng(7)
    ell = 9
    for _ in range(10):
        kappa = Weight(tuple(int(x) for x in rng.integers(-4, 5, size=2) * 2))
        nu = Weight(tuple(int(x) for x in rng.integers(-3, 4, size=2) * 2))
        shifted = kappa + b2.rho
        pairing = b2.form(shifted, b2.theta)
        reflected = Weight((shifted.doubled[0] + 2 * int(ell - pairing), shifted.doubled[1]))
        # t.kappa + rho = reflected, so the numerators at t.kappa and kappa are these sums
        lhs, rhs = alternating_sum(q29, (reflected, shifted), nu)
        assert lhs == pytest.approx(-rhs, rel=1e-9, abs=1e-9)


@st.composite
def _alternating_sum_cases(draw):
    family = draw(st.sampled_from("BC"))
    k = draw(st.integers(2, 5))
    ell = draw(st.sampled_from(range(2 * k + 1, 2 * k + 12, 2)))
    z = draw(st.sampled_from(admissible_z(ell)))
    entries = st.lists(st.integers(-2 * ell - 1, 2 * ell + 1), min_size=k, max_size=k)
    nu = Weight(tuple(draw(entries)))
    shifted = [Weight(tuple(v)) for v in draw(st.lists(entries, min_size=1, max_size=4))]
    return QuantumParams(AlcoveParams(make_root_datum(family, k), ell), z), shifted, nu


@settings(deadline=None)  # the first rank-5 draw builds the 3,840-element group
@given(_alternating_sum_cases())
def test_alternating_sum_is_the_whole_group_sum(case):
    """The determinant equals the sum over all 2^k k! signed permutations."""
    params, shifted, nu = case
    got = alternating_sum(params, shifted, nu)
    ref = alternating_sum_group(params, shifted, nu)
    assert got.shape == ref.shape == (len(shifted),)
    assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_qdim_basics(q29, params29):
    assert qdim(q29, Weight.zero(2)) == pytest.approx(1.0)
    assert qdim(q29, w(3, 0)) == pytest.approx(0.0, abs=1e-9)  # affine wall
    with pytest.raises(DomainError):
        qdim(q29, w(4, 0))  # outside the closed alcove


def _closed_alcove(alcove):
    """Labels of the alcove one level up that qdim accepts at alcove.ell: the
    open alcove plus its affine wall, where qdim vanishes."""
    wider = AlcoveParams(alcove.datum, alcove.ell + 2)
    datum = alcove.datum
    return [mu for mu in alcove_enumerate(wider)
            if datum.form_doubled(mu + datum.rho, datum.theta) <= 2 * alcove.ell]


@st.composite
def _sign_cases(draw):
    k = draw(st.integers(2, 6))
    ell = draw(st.sampled_from(range(2 * k + 3, 2 * k + 12, 2)))
    alcove = AlcoveParams(make_root_datum("B", k), ell)
    pool = draw(st.sampled_from(["alcove", "gamma", "closed"]))
    if pool == "alcove":
        labels = alcove_enumerate(alcove)
    elif pool == "gamma":
        labels = [psi(k, ell, tau) for tau in gamma_set(k, ell)]
    else:
        labels = _closed_alcove(alcove)
    picked = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=12))
    zs = draw(st.lists(st.sampled_from(admissible_z(ell)), min_size=1, max_size=6))
    return alcove, picked, zs


@given(_sign_cases())
def test_qdim_signs_are_the_float_signs(case):
    """The exact kernel agrees with sign(qdim) wherever |qdim| > 1e-6, and
    returns 0 only where |qdim| < 1e-9."""
    alcove, labels, zs = case
    signs = qdim_signs(alcove, labels, zs)
    assert signs.dtype == np.int8 and signs.shape == (len(labels), len(zs))
    for j, z in enumerate(zs):
        params = QuantumParams(alcove, z)
        for i, mu in enumerate(labels):
            value = qdim(params, mu)
            if abs(value) > 1e-6:
                assert signs[i, j] == np.sign(value), (mu, z, value)
            if signs[i, j] == 0:
                assert abs(value) < 1e-9, (mu, z, value)


@pytest.mark.parametrize("family,rank,ell", [("B", 2, 9), ("B", 3, 13), ("C", 3, 11)])
def test_qdim_signs_on_a_whole_closed_alcove(family, rank, ell):
    alcove = AlcoveParams(make_root_datum(family, rank), ell)
    labels = _closed_alcove(alcove)
    signs = qdim_signs(alcove, labels, admissible_z(ell))
    floats = np.array([[qdim(QuantumParams(alcove, z), mu) for z in admissible_z(ell)]
                       for mu in labels])
    assert np.array_equal(signs, np.where(np.abs(floats) < 1e-9, 0, np.sign(floats)))
    assert set(np.unique(signs)) == {-1, 0, 1}


def test_qdim_signs_domain(params29):
    assert qdim_signs(params29, [], (1, 2)).shape == (0, 2)
    assert qdim_signs(params29, [w(3, 0), Weight.zero(2)], (1,)).tolist() == [[0], [1]]
    for z in (0, 3, 9):
        with pytest.raises(DomainError):
            qdim_signs(params29, [Weight.zero(2)], (z,))
    for mu in (w(4, 0), w(0, 1)):  # outside the closed alcove; not dominant
        with pytest.raises(DomainError):
            qdim_signs(params29, [Weight.zero(2), mu], (1,))
    with pytest.raises(DimensionMismatchError):
        qdim_signs(params29, [Weight.zero(3)], (1,))


def test_weights_off_the_lattice_raise_domain_error(params29):
    """Doubled (2,1,0) mixes parities and (3,1,1) is half-integral, so neither
    is a C_3 weight, and (2,1,0) is no B_3 weight either."""
    c311 = AlcoveParams(make_root_datum("C", 3), 11)
    b311 = AlcoveParams(make_root_datum("B", 3), 11)
    for alcove, mu in ((c311, Weight((2, 1, 0))), (c311, Weight((3, 1, 1))),
                       (b311, Weight((2, 1, 0)))):
        with pytest.raises(DomainError, match="weight lattice"):
            qdim(QuantumParams(alcove, 1), mu)
        with pytest.raises(DomainError, match="weight lattice"):
            qdim_signs(alcove, [Weight.zero(3), mu], (1,))
        with pytest.raises(DomainError, match="weight lattice"):
            alcove.datum.weyl_dim(mu)
    with pytest.raises(DomainError, match="weight lattice"):
        weyl_products(b311, [Weight((2, 1, 0))], (1,), coroot=True)
    # the coroot product shares qdim's domain: dominant, in the closed alcove
    for mu in (w(0, 1), w(4, 0)):
        with pytest.raises(DomainError, match="closed alcove"):
            weyl_products(params29, [mu], (1,), coroot=True)


def _as_rows(labels, rank):
    return np.array([mu.doubled for mu in labels], dtype=np.int64).reshape(-1, rank)


@pytest.mark.parametrize("family,rank,ell", [("B", 2, 9), ("B", 3, 13), ("C", 3, 11),
                                             ("B", 4, 17)])
def test_qdim_signs_on_doubled_rows_is_the_weight_route(family, rank, ell):
    alcove = AlcoveParams(make_root_datum(family, rank), ell)
    labels = _closed_alcove(alcove)
    zs = admissible_z(ell)
    by_weight = qdim_signs(alcove, labels, zs)
    assert np.array_equal(qdim_signs(alcove, _as_rows(labels, rank), zs), by_weight)
    assert np.array_equal(qdim_signs(alcove, _as_rows(labels[::-1], rank), zs[::-1]),
                          by_weight[::-1, ::-1])
    assert np.array_equal(weyl_products(alcove, _as_rows(labels, rank), zs),
                          weyl_products(alcove, labels, zs))


@pytest.mark.parametrize("family,good,bad,error,message", [
    ("B", (2, 0, 0), (2, 1, 0), DomainError, "1,1/2,0 is not in the weight lattice of B_3"),
    ("C", (2, 0, 0), (3, 1, 1), DomainError, "3/2,1/2,1/2 is not in the weight lattice of C_3"),
    ("B", (2, 0, 0), (2, 0), DimensionMismatchError, "every label must have rank 3"),
    ("B", (2, 0, 0), (14, 0, 0), DomainError, "7,0,0 is not dominant in the closed alcove"),
    ("B", (2, 0, 0), (0, 2, 0), DomainError, "0,1,0 is not dominant in the closed alcove"),
    ("C", (2, 2, 0), (14, 0, 0), DomainError, "7,0,0 is not dominant in the closed alcove"),
])
def test_bad_label_raises_alike_on_both_routes(family, good, bad, error, message):
    """A mixed-parity row, a wrong rank and a label outside the closed alcove:
    the same class and message from a Weight list and from a doubled array,
    naming the first bad label, which follows a good one."""
    alcove = AlcoveParams(make_root_datum(family, 3), 11)
    labels = [Weight(good), Weight(bad), Weight(bad[::-1])]
    routes = [labels]
    if len(bad) == len(good):
        routes.append(_as_rows(labels, 3))
    else:
        routes.append(np.array([bad, bad], dtype=np.int64))
    for route in routes:
        for kernel in (qdim_signs, weyl_products):
            with pytest.raises(error) as err:
                kernel(alcove, route, (1, 2))
            assert str(err.value).startswith(message), (route, str(err.value))


def test_generator_dimension_identity(params29):
    """|qdim(phi(Lambda_1))| = |[4k]/[2] + 1| for every z (k = 2, ell = 9)."""
    V = w("5/2", "3/2")
    for z in admissible_z(9):
        q = QuantumParams(params29, z)
        lhs = abs(qdim(q, V))
        rhs = abs(quantum_integer(q, 8) / quantum_integer(q, 2) + 1)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_dim_mu_examples(q29, params29):
    spin = w("1/2", "1/2")
    assert dim_mu_vector(q29, spin, (Weight.zero(2),))[0] == pytest.approx(1.0)
    vals = dim_mu_vector(q29, spin, alcove_enumerate(params29))
    assert vals.shape == (12,) and (vals > 0).all()  # one value per label, positive at z = 1
    gamma = w("5/2", "5/2")
    assert dim_mu_vector(q29, spin, (gamma,))[0] == pytest.approx(1.0, abs=1e-9)


def test_dim_mu_requires_half_integral(q29):
    with pytest.raises(DomainError):
        dim_mu_vector(q29, w(1, 0), (w(1, 1),))


def test_spin_product_matches_weyl_sum(params29, params313):
    for params in (params29, params313, AlcoveParams(make_root_datum("B", 5), 21)):
        labels = alcove_enumerate(params)
        spin = params.datum.spin_weight
        zs = admissible_z(params.ell)
        products = weyl_products(params, labels, zs, coroot=True)
        for j, z in enumerate(zs):
            sums = dim_mu_vector(QuantumParams(params, z), spin, labels)
            assert products[:, j] == pytest.approx(sums, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("family,rank,ell", [("B", 2, 9), ("B", 3, 13), ("B", 4, 17),
                                             ("C", 3, 11), ("C", 4, 15)])
def test_weyl_products_equal_the_fraction_route(family, rank, ell):
    # the integer pairings must give the very floats the Fraction pairings gave
    alcove = AlcoveParams(make_root_datum(family, rank), ell)
    for z in admissible_z(ell):
        params = QuantumParams(alcove, z)
        for lam in alcove_enumerate(alcove):
            assert qdim(params, lam) == weyl_product_fraction(params, lam, coroot=False)
            if family == "B":
                assert weyl_products(alcove, [lam], (z,), coroot=True)[0, 0] == \
                    weyl_product_fraction(params, lam, coroot=True)


@pytest.mark.parametrize("family,rank,ell,coroots",
                         [("B", 2, 9, (False, True)), ("B", 3, 13, (False, True)),
                          ("B", 4, 15, (False, True)), ("B", 4, 17, (False, True)),
                          ("C", 3, 11, (False,)), ("C", 4, 15, (False,))])
def test_weyl_products_equal_the_scalar_loop(family, rank, ell, coroots):
    """The batched kernel is bit for bit the per-label, per-z loop, at every
    label and every admissible z."""
    alcove = AlcoveParams(make_root_datum(family, rank), ell)
    datum, labels, zs = alcove.datum, alcove_enumerate(alcove), admissible_z(ell)
    for coroot in coroots:
        got = weyl_products(alcove, labels, zs, coroot)
        assert got.dtype == np.float64 and got.shape == (len(labels), len(zs))
        for i, lam in enumerate(labels):
            pairings = root_pairings(datum, [datum.rho.doubled, (lam + datum.rho).doubled], coroot)
            for j, z in enumerate(zs):
                assert got[i, j] == weyl_product_scalar(QuantumParams(alcove, z), pairings)
        if coroot:
            dims = positive_character(alcove)
            assert list(dims) == list(labels)
            assert all(dims[lam] == got[i, zs.index(1)] for i, lam in enumerate(labels))


def test_positive_character(params29, table29):
    vec = positive_character(params29)
    assert vec[Weight.zero(2)] == pytest.approx(1.0)
    assert all(v > 0 for v in vec.values())
    f = np.array(list(vec.values()))
    assert character_law_defect(f, table29) < 1e-7
    # the whole-table contraction it replaced, to rounding
    whole = np.tensordot(table29.coeffs.astype(np.float64), f, axes=([2], [0]))
    lhs = np.outer(f, f)
    assert character_law_defect(f, table29) == pytest.approx(
        np.max(np.abs(lhs - whole) / (1.0 + np.abs(lhs))), abs=1e-14)
    # direct sin-product over the four positive coroots at (1, 0)
    ell = 9.0
    shifted = [2.5, 0.5]  # (1,0) + rho
    rho = [1.5, 0.5]
    def sinprod(v):
        args = [v[0] - v[1], v[0] + v[1], 2 * v[0], 2 * v[1]]
        out = 1.0
        for a in args:
            out *= math.sin(a * math.pi / ell)
        return out
    assert vec[w(1, 0)] == pytest.approx(sinprod(shifted) / sinprod(rho), rel=1e-12)


def test_pf_certificate(table29, table211, table313):
    for table in (table29, table211, table313):
        vec = positive_character(table.params)
        cert = pf_certify_unique(table)
        assert cert.s % 2 == 1
        assert list(vec) == list(table.labels)
        _, eigenvector = pf_certify_powers(table)
        assert eigenvector == pytest.approx(np.array(list(vec.values())), rel=1e-6, abs=1e-6)


def test_pf_certificate_rejects_a_reducible_spin_matrix(table29):
    """With the spin slice replaced by the identity, no N^s + N^(s+1) is positive."""
    coeffs = table29.coeffs.copy()
    coeffs[table29.index(table29.params.datum.spin_weight)] = np.eye(table29.size, dtype=coeffs.dtype)
    with pytest.raises(CertificationError):
        pf_certify_unique(FusionTable(table29.params, table29.labels, coeffs))


@pytest.mark.parametrize("family,rank,ell", [("B", 2, 9), ("B", 3, 13), ("B", 4, 15), ("B", 4, 17),
                                             ("B", 4, 19), ("C", 3, 11), ("C", 4, 13)])
def test_pf_eigenvector_matches_powers_route(family, rank, ell):
    """The certificate's s is the one the powers route N^s + N^(s+1) finds, and
    that route's eigenvector is the coroot Weyl product at z = 1."""
    table = FusionTable.build(AlcoveParams(make_root_datum(family, rank), ell))
    cert = pf_certify_unique(table)
    s, eigenvector = pf_certify_powers(table)
    assert cert.s == s
    expected = weyl_products(table.params, table.labels, (1,), coroot=True)[:, 0]
    assert np.max(np.abs(eigenvector - expected) / np.abs(expected)) < 1e-9


def test_spin_fusion_matrix_symmetric(table29):
    M = table29.fusion_matrix(table29.params.datum.spin_weight)
    assert np.array_equal(M, M.T)
    assert np.all(np.isreal(np.linalg.eigvalsh(M.astype(float))))


def test_twist_exponents(b2, b3):
    assert twist_exponent(b2, w(1, 0)) == 8          # 4k with k = 2
    assert twist_exponent(b2, w(2, 0)) == 20         # 8k + 4
    assert twist_exponent(b2, w(1, 1)) == 12         # 8k - 4
    assert twist_exponent(b3, w(1, 0, 0)) == 12
    assert twist_exponent(b2, w("5/2", "3/2")) == 35
    # gamma at (2, 9): k ell (ell - 2k) / 2
    assert twist_exponent(b2, w("5/2", "5/2")) == 45
    from fractions import Fraction
    assert twist_exponent(b3, w("1/2", "1/2", "1/2")) == Fraction(21, 2)


@given(st.integers(1, 8))
def test_quantum_integer_reflection(n):
    from bcfusion.fusion import AlcoveParams

    q = QuantumParams(AlcoveParams(make_root_datum("B", 2), 9), 1)
    assert quantum_integer(q, 9 - n) == pytest.approx(quantum_integer(q, n), abs=1e-9)
    assert quantum_integer(q, -n) == pytest.approx(-quantum_integer(q, n), abs=1e-9)
