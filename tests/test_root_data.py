from math import gcd

import pytest

from isods.root_data import (
    affine_marks,
    coxeter_number,
    dim_cartan_fixed,
    exponents,
    highest_root,
    is_elliptic_regular,
    is_regular,
    levi_factor_types,
    lie_type,
    parse_slope,
    phi_count,
    positive_roots,
    slope,
    slope_cells,
)

ALL_TYPES = (
    [lie_type("A", n) for n in range(1, 11)]
    + [lie_type("B", n) for n in range(2, 11)]
    + [lie_type("C", n) for n in range(2, 11)]
    + [lie_type("D", n) for n in range(3, 11)]
    + [lie_type(f) for f in ("G2", "F4", "E6", "E7", "E8")]
)


def test_lie_type_validation():
    with pytest.raises(ValueError):
        lie_type("D", 2)
    with pytest.raises(ValueError):
        lie_type("F4", 5)
    assert lie_type("B4").family == "B" and lie_type("B4").rank == 4
    assert str(lie_type("E7")) == "E7"


def test_slope_reduction():
    s = slope(2, 4)
    assert (s.d, s.m) == (1, 2)
    assert str(parse_slope("3/4")) == "3/4"
    with pytest.raises(ValueError):
        slope(0, 3)


@pytest.mark.parametrize("text,want", [("3", "3/1"), ("6/16", "3/8"), ("03/08", "3/8")])
def test_parse_slope_reads_ascii_digits(text, want):
    assert str(parse_slope(text)) == want


# a truncated fraction, digit separators, non-ASCII digits, signs, spaces
@pytest.mark.parametrize("text", ["1/", "/4", "/", "", "1_0/3", "3/1_0", "\u0663/\u0664", "3/\u0664", "\u00b2",
                                  "\uff13/8", "+3/8", "3/+8", " 3/8", "3/8 ", "-1/2", "1/2/3", "3.0/8", "0x3/8"])
def test_parse_slope_rejects_everything_else(text):
    with pytest.raises(ValueError, match="slope must be d or d/m in ASCII digits"):
        parse_slope(text)


def test_phi_count_examples():
    assert phi_count(lie_type("B", 2)) == 8
    assert phi_count(lie_type("F4")) == 48
    assert phi_count(lie_type("A", 3)) == 12


def test_phi_count_matches_enumeration():
    for t in ALL_TYPES:
        assert 2 * len(positive_roots(t)) == phi_count(t)


def test_exponents_examples():
    assert exponents(lie_type("C", 2)) == (1, 3)
    assert exponents(lie_type("D", 4)) == (1, 3, 3, 5)
    assert exponents(lie_type("A", 4)) == (1, 2, 3, 4)


def test_exponents_shape():
    for t in ALL_TYPES:
        es = exponents(t)
        assert len(es) == t.rank
        assert max(es) + 1 == coxeter_number(t)
        assert sum(es) == phi_count(t) // 2


def test_coxeter_numbers():
    assert coxeter_number(lie_type("B", 2)) == 4
    assert coxeter_number(lie_type("E8")) == 30
    for n in range(1, 9):
        assert coxeter_number(lie_type("A", n)) == n + 1


def test_affine_marks():
    assert affine_marks(lie_type("G2")).marks == (1, 2, 3)
    assert affine_marks(lie_type("F4")).marks == (1, 2, 3, 4, 2)
    for n in range(1, 8):
        marks = affine_marks(lie_type("A", n)).marks
        assert set(marks) == {1}
    for t in ALL_TYPES:
        assert sum(affine_marks(t).marks) == coxeter_number(t)


def test_highest_root_e8():
    assert sum(highest_root(lie_type("E8"))) == coxeter_number(lie_type("E8")) - 1


def test_highest_root_is_the_top_of_the_root_closure():
    types = [lie_type(f, n) for f in "ABCD" for n in range({"A": 1, "D": 3}.get(f, 2), 13)]
    for t in types + [lie_type(f) for f in ("G2", "F4", "E6", "E7", "E8")]:
        assert highest_root(t) == positive_roots(t)[-1], t


def test_classical_marks_at_high_rank():
    n = 100
    assert affine_marks(lie_type("A", n)).marks == (1,) * (n + 1)
    assert affine_marks(lie_type("B", n)).marks == (1, 1) + (2,) * (n - 1)
    assert affine_marks(lie_type("C", n)).marks == (1,) + (2,) * (n - 1) + (1,)
    assert affine_marks(lie_type("D", n)).marks == (1, 1) + (2,) * (n - 3) + (1, 1)


def test_slope_cells():
    cells = list(slope_cells("B", 2, lambda t: range(1, 5), lambda m: range(1, m)))
    B2 = lie_type("B", 2)
    assert cells == [(B2, 2, 1, slope(1, 2)), (B2, 4, 1, slope(1, 4)), (B2, 4, 3, slope(3, 4))]
    cells = list(slope_cells("D", 5, lambda t: range(1, 2 * t.rank + 1), lambda m: range(1, 2 * m)))
    assert [t.rank for t, *_ in cells] == sorted(t.rank for t, *_ in cells)
    assert {t.rank for t, *_ in cells} == {3, 4, 5}
    assert all(is_regular(t, m) and gcd(d, m) == 1 and s == slope(d, m) for t, m, d, s in cells)
    assert not list(slope_cells("A", 1, lambda t: (2,), lambda m: range(1, 4)))
    assert [(t.rank, d) for t, _, d, _ in slope_cells("A", 1, lambda t: (2,), lambda m: range(1, 4), min_rank=1)] == [
        (1, 1), (1, 3),
    ]


def test_levi_factors():
    B4 = lie_type("B", 4)
    assert levi_factor_types(B4, {1, 3, 4}) == ("A1", "B2")
    assert levi_factor_types(B4, {4}) == ("B1",)
    D5 = lie_type("D", 5)
    assert levi_factor_types(D5, {4, 5}) == ("D2",)
    assert levi_factor_types(D5, {1, 4}) == ("A1", "A1")
    assert levi_factor_types(D5, {3, 4, 5}) == ("D3",)
    F4 = lie_type("F4")
    assert levi_factor_types(F4, {1, 2, 4}) == ("A2", "~A1")
    assert levi_factor_types(F4, {2, 3, 4}) == ("C3",)
    assert levi_factor_types(lie_type("E7"), {2, 3, 5, 7}) == ("A1", "A1", "A1", "A1")
    with pytest.raises(ValueError):
        levi_factor_types(lie_type("A", 3), {0, 1})


def test_regular_examples():
    assert is_regular(lie_type("D", 4), 3)
    assert not is_regular(lie_type("C", 3), 4)
    assert is_regular(lie_type("B", 2), 4)
    assert is_elliptic_regular(lie_type("A", 4), 5)
    assert not is_elliptic_regular(lie_type("D", 4), 3)
    assert is_elliptic_regular(lie_type("C", 4), 8)
    with pytest.raises(ValueError):
        is_elliptic_regular(lie_type("C", 3), 4)


def test_elliptic_iff_no_fixed_vectors():
    for t in ALL_TYPES:
        for m in range(1, coxeter_number(t) + 1):
            if not is_regular(t, m):
                continue
            assert is_elliptic_regular(t, m) == (dim_cartan_fixed(t, m) == 0), (t, m)


def test_elliptic_implies_regular():
    # membership is only defined on regular m; the exceptional data lists agree
    for t in ALL_TYPES:
        for m in range(1, coxeter_number(t) + 1):
            if is_regular(t, m) and is_elliptic_regular(t, m):
                assert is_regular(t, m)
