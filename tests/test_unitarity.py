import math

import pytest

from bcfusion import bmwdual, unitarity
from bcfusion.bmwdual import BOX
from bcfusion.cli import main
from bcfusion.errors import DomainError
from bcfusion.fusion import AlcoveParams
from bcfusion.qchar import QuantumParams, positive_character, qdim, qdim_signs, weyl_products
from bcfusion.rootdata import make_root_datum
from bcfusion.unitarity import WITNESS_TOL, audit, audit_grid, dim_box, h

from oracles import bar_map, gamma_set_brute, psi


def test_h_values():
    assert h(2, 11, 1) == pytest.approx(1 - math.sin(4 * math.pi / 11) / math.sin(math.pi / 11))
    assert h(2, 11, 1) == pytest.approx(-2.228707415, abs=1e-8)
    with pytest.raises(DomainError):
        h(2, 15, 3)  # gcd(3, 15) != 1
    with pytest.raises(DomainError):
        h(2, 11, 11)


def test_h_change_of_variables():
    # h(ell - z') = sin(2k z' pi/ell)/sin(z' pi/ell) + 1
    for (k, ell, zp) in [(2, 11, 1), (2, 13, 2), (3, 15, 4)]:
        g = math.sin(2 * k * zp * math.pi / ell) / math.sin(zp * math.pi / ell) + 1
        assert h(k, ell, ell - zp) == pytest.approx(g, rel=1e-12)


def test_dim_box_values():
    assert dim_box(2, 11) == pytest.approx(math.sin(5 * math.pi / 11) / math.sin(math.pi / 11))
    assert dim_box(2, 11) == pytest.approx(3.513337092, abs=1e-8)
    for (k, ell) in [(2, 7), (2, 11), (3, 9), (4, 11)]:
        assert dim_box(k, ell) > 1
    with pytest.raises(DomainError):
        dim_box(5, 11)


def test_dim_box_is_positive_character_at_box():
    for (k, ell) in [(2, 11), (2, 13), (3, 15)]:
        params = AlcoveParams(make_root_datum("B", k), ell)
        vec = positive_character(params)
        box_label = psi(k, ell, BOX)
        assert dim_box(k, ell) == pytest.approx(vec[box_label], rel=1e-7)


def test_audit_2_11():
    report = audit(2, 11)
    assert report.conclusive
    assert report.all_witnessed
    assert report.all_distinct
    assert report.strict_below_boundary
    assert len(report.per_z) == 10
    # the strict inequality is violated exactly at the boundary z = ell - 1
    strict = {row.z: row.strict for row in report.per_z}
    assert strict == {z: z != 10 for z in strict}
    assert report.passed
    assert not report.all_strict


def test_audit_witnesses_are_even_and_negative():
    report = audit(2, 11)
    params = AlcoveParams(make_root_datum("B", 2), 11)
    for row in report.per_z:
        tau = row.negative_even_witness
        assert tau is not None and tau.size % 2 == 0
        value = qdim(QuantumParams(params, row.z), psi(2, 11, tau))
        assert value == pytest.approx(row.witness_value) and value < -1e-9


# the conclusive cells to ell = 25, and the cells with a z that has no
# witness, where the audit walks all of Gamma
CONCLUSIVE_TO_25 = [(k, ell) for ell in range(11, 26, 2) for k in range(2, 6)
                    if 2 * (2 * k + 1) < ell]
NO_WITNESS_CELLS = [(2, 7), (3, 9), (4, 11), (5, 13)]


@pytest.mark.parametrize("k,ell", CONCLUSIVE_TO_25 + NO_WITNESS_CELLS)
def test_witness_is_first_negative_even_diagram(k, ell):
    alcove = AlcoveParams(make_root_datum("B", k), ell)
    even = [tau for tau in gamma_set_brute(k, ell) if tau.size % 2 == 0]
    report = audit(k, ell)
    for row in report.per_z:
        params = QuantumParams(alcove, row.z)
        values = ((tau, qdim(params, bar_map(k, tau))) for tau in even)
        first = next(((tau, v) for tau, v in values if v < -WITNESS_TOL), (None, None))
        assert (row.negative_even_witness, row.witness_value) == first, row.z
    if (k, ell) in NO_WITNESS_CELLS:
        assert not report.all_witnessed


def test_audit_never_builds_all_of_gamma(monkeypatch):
    def refuse(k, ell):
        raise AssertionError("the audit built all of Gamma")

    walked = []

    def counted_walk(k, ell):
        for same_size in bmwdual.gamma_rows(k, ell):
            walked.extend(same_size)
            yield same_size

    monkeypatch.setattr(bmwdual, "gamma_set", refuse)
    monkeypatch.setattr(unitarity, "gamma_set", refuse, raising=False)
    monkeypatch.setattr(unitarity, "gamma_rows", counted_walk)
    for k, ell in [(3, 15), (5, 23)]:
        walked.clear()
        assert audit(k, ell).passed
        gamma = gamma_set_brute(k, ell)
        even = [tau for tau in gamma if tau.size % 2 == 0]
        # every row the walk generated, odd sizes included
        assert 0 < len(walked) < len(even) < len(gamma)


@pytest.mark.parametrize("k,ell", [(3, 17), (4, 21), (5, 23)])
def test_witness_blocks_stay_within_the_byte_budget(monkeypatch, k, ell):
    """With _SLICE_BYTES a few KiB, every qdim_signs call of the witness search
    fits the budget unless it decides one row, and the report is unchanged."""
    expected = audit(k, ell).to_json_dict()
    budget = 1 << 13
    n_roots = len(make_root_datum("B", k).positive_roots)
    calls = []

    def recorded(alcove, labels, zs):
        calls.append((len(labels), len(zs)))
        return qdim_signs(alcove, labels, zs)

    monkeypatch.setattr(unitarity, "_SLICE_BYTES", budget)
    monkeypatch.setattr(unitarity, "qdim_signs", recorded)
    assert audit(k, ell).to_json_dict() == expected
    assert calls
    for rows, n_z in calls:
        assert rows == 1 or rows * n_roots * n_z * 8 <= budget


@pytest.mark.parametrize("k,ell", [(2, 11), (3, 17), (2, 7), (5, 23)])
def test_audit_evaluates_every_witness_in_one_kernel_call(monkeypatch, k, ell):
    calls = []

    def counted(alcove, labels, zs, coroot=False):
        calls.append((list(labels), list(zs), weyl_products(alcove, labels, zs, coroot)))
        return calls[-1][2]

    monkeypatch.setattr(unitarity, "weyl_products", counted)
    report = audit(k, ell)
    witnessed = {row.z: bar_map(k, row.negative_even_witness)
                 for row in report.per_z if row.negative_even_witness is not None}
    assert len(calls) == 1
    labels, zs, values = calls[0]
    # one row per distinct witness, one column per witnessed z
    assert sorted(zs) == sorted(witnessed)
    assert len(labels) == len(set(labels)) == len(set(witnessed.values()))
    for row in report.per_z:
        if row.z in witnessed:
            assert row.witness_value == values[labels.index(witnessed[row.z]), zs.index(row.z)]
            assert row.witness_value == weyl_products(
                AlcoveParams(make_root_datum("B", k), ell), [witnessed[row.z]], [row.z])[0, 0]
    if (k, ell) == (2, 7):
        assert len(witnessed) < len(report.per_z)
    if (k, ell) == (5, 23):
        assert len(labels) < len(zs)


def test_audit_2_9_not_conclusive():
    report = audit(2, 9)
    assert not report.conclusive  # 2(2k+1) = 10 > 9
    assert not report.passed


def test_audit_3_15_parameter_count():
    report = audit(3, 15)
    assert report.conclusive
    assert len(report.per_z) == 8  # euler phi(15)


def test_audit_grid():
    reports = audit_grid(max_ell=17)
    cells = {(r.k, r.ell) for r in reports}
    assert cells == {(2, 11), (2, 13), (2, 15), (3, 15), (2, 17), (3, 17)}
    for r in reports:
        assert r.passed
        assert r.strict_below_boundary


def test_report_serialization():
    report = audit(2, 11)
    payload = report.to_json_dict()
    assert payload["k"] == 2 and payload["conclusive"]
    assert len(payload["per_z"]) == 10
    row = payload["per_z"][0]
    assert set(row) == {"z", "h", "dim_box", "margin", "strict", "distinct",
                        "witness", "witness_value"}
    table = report.format_table()
    assert "z = ell-1" in table  # boundary note present
    assert str(report.per_z[0].negative_even_witness) in table


# the grid scan is `bcfusion unitarity --max-ell N`
@pytest.mark.parametrize("max_ell", ["3", "9", "10"])
def test_unitarity_scan_rejects_empty_grid(max_ell, capsys):
    with pytest.raises(SystemExit) as err:
        main(["unitarity", "--max-ell", max_ell])
    assert err.value.code == 2
    assert "selects no conclusive cell" in capsys.readouterr().err


def test_unitarity_scan_smallest_grid(capsys):
    assert main(["unitarity", "--max-ell", "11"]) == 0
    assert capsys.readouterr().out == audit(2, 11).format_table() + "\n"
