from fractions import Fraction

import pytest

from isods.checks import check_delta
from isods.orbits import AdjointOrbit, Block, NilpotentOrbit
from isods.rigidity import (
    closed_form_delta,
    coxeter_delta_column,
    delta,
    is_cohomologically_rigid,
    non_resonant,
    rigid_predicate,
    rigidity_report,
    scan_rigid,
)
from isods.root_data import lie_type, slope
from isods.solver import ds_solve, o_nu


def test_delta_examples():
    B2 = lie_type("B", 2)
    assert delta(B2, slope(3, 4), NilpotentOrbit(B2, (2, 2, 1))) == 0
    F4 = lie_type("F4")
    assert delta(F4, slope(5, 6), NilpotentOrbit(F4, label="A1")) == 2
    E8 = lie_type("E8")
    assert delta(E8, slope(7, 30), NilpotentOrbit(E8, label="A4+2A1")) == 0


def test_delta_equals_induced_value_for_adjoint():
    C3 = lie_type("C", 3)
    a = AdjointOrbit(C3, (Block("a", 1, (1,)),), (2, 2))
    assert delta(C3, slope(1, 6), a) == delta(C3, slope(1, 6), NilpotentOrbit(C3, (4, 2)))


def test_rigid_examples():
    C2 = lie_type("C", 2)
    assert is_cohomologically_rigid(C2, slope(1, 4), NilpotentOrbit(C2, (4,)))
    B2 = lie_type("B", 2)
    assert is_cohomologically_rigid(B2, slope(3, 4), NilpotentOrbit(B2, (2, 2, 1)))
    A2 = lie_type("A", 2)
    assert is_cohomologically_rigid(A2, slope(2, 3), NilpotentOrbit(A2, (2, 1)))
    with pytest.raises(ValueError):
        is_cohomologically_rigid(B2, slope(3, 4), NilpotentOrbit(B2, (1, 1, 1, 1, 1)))


def test_rigid_false_when_not_elliptic():
    # m = 3 is regular but not elliptic for B3: delta may vanish, rigid must not hold
    B3 = lie_type("B", 3)
    rep = rigidity_report(B3, slope(2, 3), o_nu(B3, slope(2, 3)))
    assert rep.delta == 0 and not rep.m_elliptic and rep.rigid is False


def test_ds_solve_rigidity_fields():
    C3, s = lie_type("C", 3), slope(1, 6)
    # symbolic and rational tags: Delta is defined, the resonance undecidable
    mixed = AdjointOrbit(C3, (Block("a", 1, (1,)), Block(Fraction(1, 3), 2, (2,))), ())
    ans = ds_solve(C3, s, mixed)
    assert ans.affirmative is True and ans.delta == 0 and ans.rigid == "n/a"
    assert ans.to_json()["delta"] == "0" and ans.to_json()["rigid"] == "n/a"
    assert rigidity_report(C3, s, mixed).rigid is None
    # the resonance is undecidable again, but Delta = 5 decides rigid as false
    # (it once printed "n/a"), as rigidity_report does
    A3, s5 = lie_type("A", 3), slope(5, 4)
    mixed = AdjointOrbit(A3, (Block("a1", 1, (1,)), Block(Fraction(1, 2), 1, (1,))), (1, 1))
    ans = ds_solve(A3, s5, mixed)
    assert ans.affirmative is True and ans.delta == 5 and ans.rigid is False
    assert rigidity_report(A3, s5, mixed).rigid is False
    # resonant: the long root doubles 1/2 to 1
    resonant = AdjointOrbit(C3, (Block(Fraction(1, 2), 3, (3,)),), ())
    ans = ds_solve(C3, s, resonant)
    assert ans.affirmative is True and ans.delta == 0 and ans.rigid is False
    B2, s = lie_type("B", 2), slope(3, 4)
    ans = ds_solve(B2, s, NilpotentOrbit(B2, (1,) * 5))
    assert ans.affirmative is False and ans.delta is None and ans.rigid == "n/a"
    ans = ds_solve(B2, s, NilpotentOrbit(B2, (2, 2, 1)))
    assert ans.affirmative is True and ans.delta == 0 and ans.rigid is True
    # affirmative, but Delta needs a centralizer dimension that is not embedded
    E7 = lie_type("E7")
    ans = ds_solve(E7, slope(19, 18), NilpotentOrbit(E7, label="A6"))
    assert ans.affirmative is True and ans.delta is None and ans.rigid == "n/a"


def test_closed_form_examples():
    A6 = lie_type("A", 6)
    assert closed_form_delta(A6, slope(2, 7)) == 0
    B2 = lie_type("B", 2)
    assert closed_form_delta(B2, slope(3, 4)) == 0
    assert coxeter_delta_column(B2, 3) == 0
    E7 = lie_type("E7")
    assert coxeter_delta_column(E7, 7) == 0
    assert coxeter_delta_column(lie_type("E8"), 29) == 21


def test_closed_form_matches_direct_rank8():
    cells, skipped, failure = check_delta(8)
    assert failure is None, failure
    assert cells and skipped


def test_non_resonant_examples():
    C2 = lie_type("C", 2)
    a = AdjointOrbit(C2, (Block(Fraction(1, 2), 2, (2,)),), ())
    assert non_resonant(a) is False  # the long root doubles 1/2 to 1
    a = AdjointOrbit(C2, (Block(Fraction(1, 3), 2, (2,)),), ())
    assert non_resonant(a) is True
    A3 = lie_type("A", 3)
    a = AdjointOrbit(A3, (Block(Fraction(0), 2, (1, 1)), Block(Fraction(1), 2, (2,))), ())
    assert non_resonant(a) is False  # difference 1
    a = AdjointOrbit(A3, (Block("x", 2, (1, 1)), Block("y", 2, (2,))), ())
    assert non_resonant(a) is True  # symbolic-generic
    with pytest.raises(ValueError):
        non_resonant(AdjointOrbit(A3, (Block("x", 2, (1, 1)), Block(Fraction(1), 2, (2,))), ()))
    # nilpotent: all eigenvalues zero
    B2 = lie_type("B", 2)
    assert non_resonant(AdjointOrbit(B2, (), (5,))) is True


def test_scan_rigid_row_examples():
    rows = scan_rigid("C", 4)
    assert {(r["m"], r["d"]) for r in rows if r["rank"] == 4} >= {(8, 3), (8, 7), (8, 9), (2, 1), (4, 1), (8, 1)}
    rows = scan_rigid("B", 4)
    assert (4, 3) in {(r["m"], r["d"]) for r in rows if r["rank"] == 4}  # m = n even, d = 3
    rows = scan_rigid("A", 6)
    assert {(r["m"], r["d"]) for r in rows if r["rank"] == 6} == {(7, 1), (7, 2), (7, 3), (7, 4), (7, 6), (7, 8)}


def test_scan_rigid_exceptional_numerics():
    rows = scan_rigid("E7", 7)
    tagged = {(r["d"], r["m"], r["orbit"]): r["existence"] for r in rows}
    assert tagged[(7, 18, "A2+3A1")] == "yes"
    assert tagged[(7, 18, "2A2")] == "no"
    assert tagged[(3, 14, "D5(a1)")] == "numerics-only"


def test_rigid_predicate_spot_values():
    assert rigid_predicate("C", 4, 8, 3)
    assert not rigid_predicate("C", 4, 4, 3)  # proper even divisor: only d = 1
    assert rigid_predicate("B", 4, 4, 3)
    assert rigid_predicate("D", 4, 4, 3)  # mirror of the B row
    assert rigid_predicate("A", 6, 7, 8)  # the 1 + 1/h slope
    assert not rigid_predicate("A", 6, 7, 5)
