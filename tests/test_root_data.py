from fractions import Fraction
from math import gcd

import pytest

from isods.coxeter import orbit_J_reg
from isods.root_data import (
    LieType,
    affine_marks,
    cartan_matrix,
    coxeter_number,
    dim_cartan_fixed,
    exponents,
    highest_root,
    is_elliptic_regular,
    is_regular,
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


def test_lie_type_hands_out_one_shared_instance_per_type():
    b4 = lie_type("B", 4)
    assert b4 is lie_type("B4") is lie_type(" B4 ") is lie_type("B", "4")
    assert lie_type("E8") is lie_type("E8", 8) and lie_type("E8") is not lie_type("E7")
    # the constructor still builds a fresh object, equal to the shared one
    fresh = LieType("B", 4)
    assert fresh is not LieType("B", 4) and fresh is not b4 and fresh == b4 and hash(fresh) == hash(b4)
    cells = list(slope_cells("B", 6, lambda t: range(1, 2 * t.rank + 1), lambda m: range(1, 2 * m), min_rank=4))
    assert cells and all(t is lie_type("B", t.rank) for t, _, _, _ in cells)
    assert {t.rank for t, _, _, _ in cells} == {4, 5, 6}


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


def test_exceptional_exponents_from_root_heights():
    # the exponents as tabulated (Bourbaki, Lie groups, ch. VI, planches)
    assert {f: exponents(lie_type(f)) for f in ("G2", "F4", "E6", "E7", "E8")} == {
        "G2": (1, 5),
        "F4": (1, 5, 7, 11),
        "E6": (1, 4, 5, 7, 8, 11),
        "E7": (1, 5, 7, 9, 11, 13, 17),
        "E8": (1, 7, 11, 13, 17, 19, 23, 29),
    }


def test_exponents_shape():
    for t in ALL_TYPES:
        es = exponents(t)
        assert len(es) == t.rank
        assert max(es) + 1 == coxeter_number(t)
        assert sum(es) == phi_count(t) // 2


def test_exponents_ascend_so_the_last_is_the_largest():
    # coxeter_number reads the last exponent
    types = [lie_type(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 41)]
    for t in types + [lie_type(f) for f in ("G2", "F4", "E6", "E7", "E8")]:
        es = exponents(t)
        assert list(es) == sorted(es), t
        assert coxeter_number(t) == max(es) + 1, t


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


def _dense_highest_root(t):
    """Reference: the walk over the dense Cartan matrix, each step taking the
    first least pairing and recomputing every pairing, as it once ran."""
    A, found = cartan_matrix(t), []
    for end in (0, t.rank - 1):
        beta, pair = [int(i == end) for i in range(t.rank)], [row[end] for row in A]
        while (c := min(pair)) < 0:
            i = pair.index(c)
            beta[i] -= c
            pair = [x - c * row[i] for x, row in zip(pair, A)]
        found.append(tuple(beta))
    return max(found, key=sum)


def test_highest_root_equals_the_dense_walk():
    types = [lie_type(f, n) for f in "ABCD" for n in range({"A": 1, "D": 3}.get(f, 2), 61)]
    types += [lie_type(f) for f in ("G2", "F4", "E6", "E7", "E8")]
    assert len(types) == 241
    for t in types:
        assert highest_root(t) == _dense_highest_root(t), t


def test_highest_root_at_the_cli_rank_bound_is_the_closed_form():
    n = 1000
    assert highest_root(lie_type("A", n)) == (1,) * n
    assert highest_root(lie_type("B", n)) == (1,) + (2,) * (n - 1)
    assert highest_root(lie_type("C", n)) == (2,) * (n - 1) + (1,)
    assert highest_root(lie_type("D", n)) == (1,) + (2,) * (n - 3) + (1, 1)


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
    # a classical Levi factor shows in the Jordan type of its regular orbit
    B4 = lie_type("B", 4)
    assert orbit_J_reg(B4, {1, 3, 4}).partition == (5, 2, 2)
    assert orbit_J_reg(B4, {4}).partition == (3, 1, 1, 1, 1, 1, 1)
    D5 = lie_type("D", 5)
    assert orbit_J_reg(D5, {4, 5}).partition == (3,) + (1,) * 7
    assert orbit_J_reg(D5, {1, 4}).partition == (2, 2, 2, 2, 1, 1)
    assert orbit_J_reg(D5, {3, 4, 5}).partition == (5, 1, 1, 1, 1, 1)
    with pytest.raises(ValueError, match=r"nodes \[0\] are not finite diagram nodes of A3"):
        orbit_J_reg(lie_type("A", 3), {0, 1})


def test_regular_examples():
    assert is_regular(lie_type("D", 4), 3)
    assert not is_regular(lie_type("C", 3), 4)
    assert is_regular(lie_type("B", 2), 4)
    assert is_elliptic_regular(lie_type("A", 4), 5)
    assert not is_elliptic_regular(lie_type("D", 4), 3)
    assert is_elliptic_regular(lie_type("C", 4), 8)
    with pytest.raises(ValueError):
        is_elliptic_regular(lie_type("C", 3), 4)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _coxeter_element(t):
    # s_1 ... s_r on the root lattice: s_i(alpha_j) = alpha_j - A[i][j] alpha_i
    A = cartan_matrix(t)
    r = t.rank
    c = [[int(k == j) for j in range(r)] for k in range(r)]
    for i in range(r):
        s = [[int(k == j) - (A[i][j] if k == i else 0) for j in range(r)] for k in range(r)]
        c = _matmul(c, s)
    return c


def _matrix_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((k for k in range(rank, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for k in range(len(rows)):
            if k != rank and rows[k][col]:
                f = rows[k][col] / rows[rank][col]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[rank])]
        rank += 1
    return rank


def test_elliptic_iff_no_fixed_vectors():
    # c^(h/m), c a Coxeter element, is regular of order m for every m | h;
    # its fixed space on the Cartan, read off the reflection matrices, has
    # the dimension dim_cartan_fixed gives and is zero exactly when m is
    # elliptic
    for t in ALL_TYPES:
        h, r = coxeter_number(t), t.rank
        c = _coxeter_element(t)
        for m in (m for m in range(1, h + 1) if h % m == 0):
            assert is_regular(t, m), (t, m)
            w = [[int(k == j) for j in range(r)] for k in range(r)]
            for _ in range(h // m):
                w = _matmul(w, c)
            fixed = r - _matrix_rank([[w[k][j] - (k == j) for j in range(r)] for k in range(r)])
            assert dim_cartan_fixed(t, m) == fixed, (t, m)
            assert is_elliptic_regular(t, m) == (fixed == 0), (t, m)


def test_elliptic_implies_regular():
    # ellipticity is only defined on regular m: an m dividing no exponent but
    # missing from the family ladders below is refused, and every elliptic m
    # is regular there
    for t in ALL_TYPES:
        for m in range(1, 2 * coxeter_number(t) + 3):
            if not _regular_reference(t, m):
                with pytest.raises(ValueError):
                    is_elliptic_regular(t, m)
            elif is_elliptic_regular(t, m):
                assert is_regular(t, m) and dim_cartan_fixed(t, m) == 0, (t, m)


# The per-family ladders and the exceptional list of regular numbers that
# `is_regular` and `is_elliptic_regular` once embedded, kept as an
# independent reference for the derivation from the exponents.
_REGULAR_EXC = {
    "G2": {1, 2, 3, 6},
    "F4": {1, 2, 3, 4, 6, 8, 12},
    "E6": {1, 2, 3, 4, 6, 8, 9, 12},
    "E7": {1, 2, 3, 6, 7, 9, 14, 18},
    "E8": {1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30},
}


def _regular_reference(t, m):
    if m < 1:
        return False
    fam, n = t.family, t.rank
    if fam == "A":
        N = n + 1
        return N % m == 0 or (N - 1) % m == 0
    if fam in ("B", "C"):
        return (2 * n) % m == 0 or n % m == 0
    if fam == "D":
        return n % m == 0 or (2 * n - 2) % m == 0 or (n - 1) % m == 0
    return m in _REGULAR_EXC[fam]


def _elliptic_reference(t, m):
    if not _regular_reference(t, m):
        raise ValueError(f"{m} is not a regular number for {t}")
    fam, n = t.family, t.rank
    if fam == "A":
        return m == n + 1
    if fam in ("B", "C"):
        return m % 2 == 0 and (2 * n) % m == 0
    if fam == "D":
        if m % 2 == 0 and n % m == 0:
            return True
        return (2 * n - 2) % m == 0 and ((2 * n - 2) // m) % 2 == 1
    return dim_cartan_fixed(t, m) == 0


def test_regular_and_elliptic_match_the_family_ladders():
    types = [lie_type(f, n) for f in "ABCD" for n in range({"A": 1, "D": 3}.get(f, 2), 61)]
    for t in types + [lie_type(f) for f in ("G2", "F4", "E6", "E7", "E8")]:
        for m in range(-2, 4 * coxeter_number(t) + 5):
            regular = is_regular(t, m)
            assert regular == _regular_reference(t, m), (t, m)
            if regular:
                assert is_elliptic_regular(t, m) == _elliptic_reference(t, m), (t, m)
            else:
                with pytest.raises(ValueError):
                    is_elliptic_regular(t, m)
