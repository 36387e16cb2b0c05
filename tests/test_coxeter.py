import re

import pytest

from isods.coxeter import (
    UnsupportedSlopeError,
    _witness,
    coxeter_candidates,
    coxeter_solve,
    enumerate_d_allowable,
    levi_labels,
    minimal_allowable_in_finite,
    orbit_J_reg,
    orbit_labels,
)
from isods.orbits import closure_le
from isods.root_data import affine_marks, coxeter_number, lie_type


def test_g2_allowable_example():
    allow = enumerate_d_allowable(lie_type("G2"), 5)
    sets = {tuple(sorted(a.J)) for a in allow}
    assert sets == {(0,), (1,), (2,), (1, 2)}
    assert {tuple(sorted(a.J)) for a in allow if a.is_minimal} == {(0,), (1,), (2,)}


def test_witnesses_verify():
    for t in (lie_type("G2"), lie_type("F4"), lie_type("B", 4)):
        marks = affine_marks(t).marks
        for d in (1, 3, 5, 7):
            for a in enumerate_d_allowable(t, d):
                assert sum(marks[node] * k for node, k in a.witness.items()) == d
                assert set(a.witness) == set(range(len(marks))) - set(a.J)
                assert all(k >= 1 for k in a.witness.values())


def test_f4_minimal_sets():
    F4 = lie_type("F4")
    assert {tuple(sorted(J)) for J in minimal_allowable_in_finite(F4, 5)} == {
        (2, 3),
        (1, 2, 4),
        (1, 3, 4),
    }
    assert {tuple(sorted(J)) for J in minimal_allowable_in_finite(F4, 7)} == {
        (1, 2),
        (1, 3),
        (2, 3),
        (2, 4),
        (3, 4),
    }


def test_minimal_finite_agrees_with_full_enumeration():
    for t in (lie_type("G2"), lie_type("F4"), lie_type("B", 3), lie_type("D", 4), lie_type("A", 4)):
        h = coxeter_number(t)
        for d in range(1, h + 3):
            full = {
                tuple(sorted(a.J))
                for a in enumerate_d_allowable(t, d)
                if a.is_minimal and 0 not in a.J
            }
            fast = {tuple(sorted(J)) for J in minimal_allowable_in_finite(t, d)}
            assert full == fast, (t, d)


def test_orbit_J_reg_examples():
    B4 = lie_type("B", 4)
    assert orbit_J_reg(B4, {1, 3, 4}).partition == (5, 2, 2)
    A4 = lie_type("A", 4)
    assert orbit_J_reg(A4, {1, 2, 4}).partition == (3, 2)
    F4 = lie_type("F4")
    assert orbit_J_reg(F4, {1, 2, 4}).label == "A2+~A1"
    assert orbit_J_reg(F4, {1, 3, 4}).label == "~A2+A1"
    assert orbit_J_reg(F4, {2, 3}).label == "B2"
    assert orbit_J_reg(F4, {1, 2, 3, 4}).label == "F4"
    assert orbit_J_reg(F4, set()).label == "0"
    G2 = lie_type("G2")
    assert orbit_J_reg(G2, {1}).label == "A1"
    assert orbit_J_reg(G2, {2}).label == "~A1"
    with pytest.raises(ValueError):
        orbit_J_reg(B4, {0, 1})


def test_orbit_J_reg_type_d_fork():
    D5 = lie_type("D", 5)
    assert orbit_J_reg(D5, {4, 5}).partition == (3, 1, 1, 1, 1, 1, 1, 1)
    assert orbit_J_reg(D5, {3, 4, 5}).partition == (5, 1, 1, 1, 1, 1)
    assert orbit_J_reg(D5, {4}).partition == (2, 2, 1, 1, 1, 1, 1, 1)
    assert orbit_J_reg(D5, set(range(1, 6))).partition == (9, 1)


def test_growing_J_grows_orbit():
    import random

    rng = random.Random(2)
    for fam in ("A", "B", "C", "D"):
        for _ in range(200):
            n = rng.randint(3, 8)
            t = lie_type(fam, n)
            nodes = list(range(1, n + 1))
            J = frozenset(x for x in nodes if rng.random() < 0.4)
            sub = frozenset(x for x in J if rng.random() < 0.6)
            assert closure_le(orbit_J_reg(t, sub), orbit_J_reg(t, J)), (t, sub, J)


def test_coxeter_solve_examples():
    assert coxeter_solve(lie_type("B", 2), 3).partition == (2, 2, 1)
    assert coxeter_solve(lie_type("G2"), 5).label == "A1"
    assert coxeter_solve(lie_type("F4"), 5).label == "A2+~A1"
    with pytest.raises(UnsupportedSlopeError):
        coxeter_solve(lie_type("F4"), 2)  # shares a factor with h = 12


def test_coxeter_solve_zero_orbit_beyond_h():
    t = lie_type("C", 3)
    assert coxeter_solve(t, 7).partition == (1,) * 6
    assert coxeter_solve(lie_type("G2"), 7).label == "0"


def test_e7_prime_classes():
    E7 = lie_type("E7")
    assert orbit_J_reg(E7, {2, 3, 5}).label == "(3A1)'"
    assert orbit_J_reg(E7, {2, 5, 7}).label == "(3A1)''"
    assert orbit_J_reg(E7, {1, 3, 4, 5, 6}).label == "(A5)'"
    assert orbit_J_reg(E7, {2, 4, 5, 6, 7}).label == "(A5)''"
    assert orbit_J_reg(E7, {1, 3, 4, 6}).label == "(A3+A1)'"
    assert orbit_J_reg(E7, {2, 4, 5, 7}).label == "(A3+A1)''"


def test_levi_labels_catalogue():
    from isods import exceptional_data as xd

    embedded = (
        set(xd.DIM_C)
        | {(f, label) for (f, _), (label, _) in xd.EXC_COXETER.items()}
        | {(f, label) for f, _, label, _ in xd.POTENTIALLY_RIGID_EXC}
    )
    for fam, size in (("E6", 17), ("E7", 32), ("E8", 41)):
        labels = levi_labels(lie_type(fam))
        assert len(labels) == size
        assert {"0", fam} <= labels
        # every embedded label names a Levi subalgebra once its (a_k)/(b_k) suffixes are removed
        levis = {re.sub(r"\([ab]\d\)", "", label) for f, label in embedded if f == fam}
        assert len(levis) >= 8 and levis <= labels
    assert {"(3A1)'", "(3A1)''", "(A3+A1)'", "(A3+A1)''", "(A5)'", "(A5)''"} <= levi_labels(lie_type("E7"))
    assert not {"3A1", "A5", "D4+2A1"} & levi_labels(lie_type("E7"))
    assert "D6+A1" not in levi_labels(lie_type("E8"))


def test_orbit_labels_catalogue():
    from isods import exceptional_data as xd

    embedded = (
        set(xd.DIM_C)
        | {(f, label) for (f, _), (label, _) in xd.EXC_COXETER.items()}
        | {(f, label) for f, _, label, _ in xd.POTENTIALLY_RIGID_EXC}
    )
    # the orbit counts of E6, E7 and E8 (Collingwood-McGovern ch. 8)
    for fam, size in (("E6", 21), ("E7", 45), ("E8", 70)):
        t = lie_type(fam)
        labels = orbit_labels(t)
        assert len(labels) == size and levi_labels(t) < labels
        assert {label for f, label in embedded if f == fam} <= labels
    assert {"E6(a1)", "E6(a3)", "D4(a1)", "D5(a1)"} == orbit_labels(lie_type("E6")) - levi_labels(lie_type("E6"))
    assert {"E7(a5)", "D6(a2)", "D5(a1)+A1", "D4(a1)+A1"} <= orbit_labels(lie_type("E7"))
    assert {"E8(b4)", "E8(a7)", "D7(a2)", "E6(a3)+A1", "D4(a1)+A2"} <= orbit_labels(lie_type("E8"))
    assert not {"E6(a2)", "E7(b4)", "D4(a2)", "D6(a3)"} & orbit_labels(lie_type("E7"))


def test_affine_marks_are_read_only():
    B4 = lie_type("B", 4)
    with pytest.raises(TypeError):
        affine_marks(B4).marks[2] = 1
    assert coxeter_solve(B4, 3).partition == (3, 3, 3)


def test_candidates_contain_table_answer_quick():
    E8 = lie_type("E8")
    labels = {c.label for c in coxeter_candidates(E8, 7)}
    assert "A4+A2+A1" in labels


def _subset_scan_candidates(t, d):
    """The candidate list from the 2^rank subset scan: orbit_J_reg over the
    minimal subsets in sorted(J) order, first occurrences kept."""
    out = []
    for J in sorted(minimal_allowable_in_finite(t, d), key=sorted):
        o = orbit_J_reg(t, J)
        if o not in out:
            out.append(o)
    return out


def test_chain_shape_walk_equals_subset_scan():
    cells = 0
    for fam in ("A", "B", "C", "D"):
        for n in range(1 if fam == "A" else (3 if fam == "D" else 2), 11):
            t = lie_type(fam, n)
            for d in range(1, 3 * coxeter_number(t)):
                assert coxeter_candidates(t, d) == _subset_scan_candidates(t, d), (t, d)
                cells += 1
    assert cells == 1071


def _witness_search(marks, d):
    """The backtracking coin search: positive k_a with sum k_a * n_a = d,
    nodes by falling mark, the first success in lexicographic order."""
    nodes = sorted(marks, key=lambda nm: -nm[1])
    if sum(n for _, n in nodes) > d:
        return None
    out = {}

    def go(i, rem):
        if i == len(nodes):
            return rem == 0
        node, n = nodes[i]
        tail = sum(m for _, m in nodes[i + 1 :])
        k = 1
        while n * k + tail <= rem:
            out[node] = k
            if go(i + 1, rem - n * k):
                return True
            k += 1
        out.pop(node, None)
        return False

    return dict(out) if go(0, d) else None


def test_witness_equals_coin_search():
    types = [lie_type(f, n) for f in "ABCD" for n in range({"A": 1, "D": 3}.get(f, 2), 7)]
    types += [lie_type(x) for x in ("G2", "F4", "E6")]
    cases = 0
    for t in types:
        marks = affine_marks(t).marks
        for mask in range(1, 2 ** len(marks)):
            comp = [(a, n) for a, n in enumerate(marks) if mask >> a & 1]
            for d in range(1, 41):
                assert _witness(comp, d) == _witness_search(comp, d), (t, comp, d)
                cases += 1
    assert cases == 40 * sum(2 ** (t.rank + 1) - 1 for t in types)


def test_witness_bounded_in_d():
    # B4 marks 1, 1, 2, 2, 2: the last node takes the remainder, whatever d is
    comp = list(enumerate(affine_marks(lie_type("B", 4)).marks))
    w = _witness(comp, 10**9 + 1)
    assert w == {2: 1, 3: 1, 4: 1, 0: 1, 1: 10**9 + 1 - 7}
    assert _witness([(a, n) for a, n in comp if n == 2], 10**9 + 1) is None
