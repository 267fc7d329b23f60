import re

import numpy as np
import pytest

from bcfusion import symmetry
from bcfusion.errors import DomainError
from bcfusion.fusion import AlcoveParams, FusionTable, alcove_enumerate, fuse
from bcfusion.qchar import QuantumParams, admissible_z, dim_mu_vector, qdim
from bcfusion.rootdata import Weight, make_root_datum
from bcfusion.symmetry import InvolutionData, phi_rows, phi_sign, phi_weight, verify_simple_current

import oracles
from conftest import w


@pytest.fixture(scope="module")
def inv29(params29):
    return InvolutionData.build(params29)


def test_gamma_value(inv29):
    assert inv29.gamma == w("5/2", "5/2")


def test_phi_examples(inv29):
    assert phi_weight(2, 9, Weight.zero(2)) == inv29.gamma
    assert phi_weight(2, 9, w(1, 0)) == w("5/2", "3/2")
    assert phi_weight(2, 9, w("1/2", "1/2")) == w(2, 2)


def test_phi_is_involution_without_fixed_points(params29):
    for lam in alcove_enumerate(params29):
        img = phi_weight(2, 9, lam)
        assert img != lam
        assert phi_weight(2, 9, img) == lam


@pytest.mark.parametrize("k,ell", [(2, 9), (3, 13), (4, 17), (5, 21)])
def test_phi_rows_is_phi_weight_on_every_label(k, ell):
    labels = alcove_enumerate(AlcoveParams(make_root_datum("B", k), ell))
    images = phi_rows(k, ell, np.array([lam.doubled for lam in labels], dtype=np.int64))
    assert images.dtype == np.int64 and images.shape == (len(labels), k)
    got = [Weight(tuple(row)) for row in images.tolist()]
    assert got == [phi_weight(k, ell, lam) for lam in labels]
    assert got == [oracles.phi_weight(k, ell, lam) for lam in labels]


def test_a_phi_that_lets_labels_escape_names_the_first(monkeypatch, params29):
    """Two labels' images are moved off the alcove by 2 ell in every entry;
    the build names the first of them and its image."""
    labels = alcove_enumerate(params29)
    real = symmetry.phi_rows
    moved = np.array([labels[3].doubled, labels[7].doubled])

    def leaky(k, ell, rows):
        out = real(k, ell, rows)
        out[(rows[:, None] == moved).all(axis=2).any(axis=1)] += 2 * ell
        return out

    monkeypatch.setattr(symmetry, "phi_rows", leaky)
    image = Weight(tuple(x + 18 for x in oracles.phi_weight(2, 9, labels[3]).doubled))
    with pytest.raises(AssertionError,
                       match=re.escape(f"phi({labels[3]}) = {image} escaped the alcove")):
        InvolutionData.build(params29)


def test_simple_current(table29, inv29, params29):
    assert verify_simple_current(table29, inv29)
    gamma = inv29.gamma
    assert fuse(params29, gamma, gamma) == {Weight.zero(2): 1}
    assert fuse(params29, gamma, w(1, 0)) == {w("5/2", "3/2"): 1}


@pytest.mark.parametrize("k,ell", [(2, 7), (2, 11), (3, 13)])
def test_simple_current_other_instances(k, ell):
    params = AlcoveParams(make_root_datum("B", k), ell)
    table = FusionTable.build(params)
    data = InvolutionData.build(params)
    assert verify_simple_current(table, data)


def test_simple_current_rejects_a_perm_that_is_not_an_involution(table29, inv29):
    """A hand-built phi whose permutation matrix is N_gamma of an edited table
    but which does not square to the identity fails the check."""
    perm = list(inv29.perm)
    a, b, c = 0, 1, 2
    perm[a], perm[b], perm[c] = inv29.perm[b], inv29.perm[c], inv29.perm[a]
    assert any(perm[perm[i]] != i for i in range(len(perm)))
    data = InvolutionData(inv29.gamma, tuple(perm))
    coeffs = table29.coeffs.copy()
    coeffs[table29.index(inv29.gamma)] = data.permutation_matrix().T
    table = FusionTable(table29.params, table29.labels, coeffs)
    assert np.array_equal(table.fusion_matrix(inv29.gamma), data.permutation_matrix())
    assert not verify_simple_current(table, data)


def test_current_multiplication_identity(table29, inv29):
    N_gamma = table29.fusion_matrix(inv29.gamma)
    for lam in table29.labels:
        N_lam = table29.fusion_matrix(lam)
        assert np.array_equal(table29.fusion_matrix(phi_weight(2, 9, lam)), N_gamma @ N_lam)
        assert np.array_equal(N_gamma @ N_lam @ N_gamma, N_lam)


def test_phi_sign_table():
    # q^ell = -1: + for k = 0, 1 mod 4
    assert [phi_sign(k, -1) for k in (4, 5, 6, 7, 8)] == [1, 1, -1, -1, 1]
    # q^ell = +1: + for k = 0, 3 mod 4
    assert [phi_sign(k, 1) for k in (4, 5, 6, 7, 8)] == [1, -1, -1, 1, 1]
    assert phi_sign(2, -1) == -1
    assert phi_sign(1, 1) == -1
    with pytest.raises(DomainError):
        phi_sign(2, 0)


@pytest.mark.parametrize("k,ell", [(2, 9), (2, 11), (3, 13), (4, 17), (5, 21)])
def test_phi_sign_table_numerically(k, ell):
    """qdim(phi(lam)) = phi_sign(k, q^ell) * qdim(lam) across z and labels."""
    params = AlcoveParams(make_root_datum("B", k), ell)
    data = InvolutionData.build(params)
    labels = alcove_enumerate(params)
    zs = [z for z in admissible_z(ell)][:4] if ell > 13 else admissible_z(ell)
    for z in zs:
        q = QuantumParams(params, z)
        sign = phi_sign(k, q.q_ell_sign)
        for i, lam in enumerate(labels):
            lhs = qdim(q, labels[data.perm[i]])
            rhs = sign * qdim(q, lam)
            assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)


def test_phi_preserves_character_magnitudes(params29, params313):
    """|dim^mu(V_lam)| = |dim^mu(V_phi(lam))| for half-integral mu, all z."""
    for params in (params29, params313):
        data = InvolutionData.build(params)
        labels = alcove_enumerate(params)
        datum = params.datum
        samples = [datum.spin_weight, datum.rho, datum.rho + datum.fundamental_weight_1]
        for z in admissible_z(params.ell):
            q = QuantumParams(params, z)
            for mu in samples:
                vals = dim_mu_vector(q, mu, labels)
                for i in range(len(labels)):
                    assert abs(vals[i]) == pytest.approx(abs(vals[data.perm[i]]),
                                                         rel=1e-7, abs=1e-9)
