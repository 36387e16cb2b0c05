import re
import sys
from itertools import combinations
from math import gcd

import pytest

from isods import coxeter
from isods.checks import _coxeter_closed_form
from isods.catalogue import exceptional_label, label_table, levi_labels, orbit_labels
from isods.coxeter import (
    UnsupportedSlopeError,
    _classical_levi_partition,
    _runs_partition,
    _witness,
    coxeter_candidates,
    coxeter_solve,
    enumerate_d_allowable,
    minimal_allowable_in_finite,
    orbit_J_reg,
)
from isods.cli import COXETER_MAX_RANK
from isods.orbits import NilpotentOrbit, closure_le, zero_orbit
from isods.partitions import ParityClass, dominance_le, is_valid, lambda_evenly, partition
from isods.root_data import affine_marks, components, coxeter_number, defining_dim, lie_type


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
                witness = dict(a.witness)
                assert sum(marks[node] * k for node, k in witness.items()) == d
                assert set(witness) == set(range(len(marks))) - set(a.J)
                assert all(k >= 1 for k in witness.values())


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


def _mask_loop_minimal(t, d):
    """The per-call scan the subset table replaced: every subset of the
    finite diagram by mask, kept when its mark sum reaches h - d and every
    single-node removal falls below it."""
    diag = affine_marks(t)
    nodes = diag.finite_nodes
    need = coxeter_number(t) - d
    if need <= 0:
        return [frozenset()]
    out = []
    for mask in range(2 ** len(nodes)):
        J = [nodes[i] for i in range(len(nodes)) if mask >> i & 1]
        s = sum(diag.marks[a] for a in J)
        if s >= need and all(s - diag.marks[a] < need for a in J):
            out.append(frozenset(J))
    return out


def test_minimal_finite_equals_the_mask_loop():
    types = [lie_type(fam) for fam in ("G2", "F4", "E6", "E7", "E8")]
    types += [lie_type(fam, n) for fam in "ABCD" for n in range({"A": 1, "D": 3}.get(fam, 2), 11)]
    cells = 0
    for t in types:
        for d in range(1, 2 * coxeter_number(t)):
            assert minimal_allowable_in_finite(t, d) == _mask_loop_minimal(t, d), (t, d)
            cells += 1
    assert cells == sum(2 * coxeter_number(t) - 1 for t in types)


def test_label_table_is_exceptional_label_by_mask():
    subsets = 0
    for fam in ("G2", "F4", "E6", "E7", "E8"):
        t = lie_type(fam)
        table = label_table(t)
        assert len(table) == 2 ** t.rank
        for mask, label in enumerate(table):
            J = frozenset(a for a in range(1, t.rank + 1) if mask >> (a - 1) & 1)
            assert label == exceptional_label(t, J) == orbit_J_reg(t, J).label, (t, J)
            subsets += 1
        assert levi_labels(t) == frozenset(table)
    assert subsets == 468


def test_orbit_J_reg_off_the_finite_diagram_is_the_components_error():
    for t, J in ((lie_type("E6"), {0, 1}), (lie_type("G2"), {3}), (lie_type("B", 4), {0, 1})):
        with pytest.raises(ValueError) as want:
            components(t, J)
        with pytest.raises(ValueError) as got:
            orbit_J_reg(t, J)
        assert str(got.value) == str(want.value), t


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
    # the orbit counts of G2, F4, E6, E7 and E8 (Collingwood-McGovern ch. 8)
    for fam, size in (("G2", 5), ("F4", 16), ("E6", 21), ("E7", 45), ("E8", 70)):
        t = lie_type(fam)
        labels = orbit_labels(t)
        assert len(labels) == size and levi_labels(t) < labels
        assert {label for f, label in embedded if f == fam} <= labels
    # G2 and F4 embed every orbit, and G2(a1), C3(a1) and F4(a1)-F4(a3) are not Levi labels
    for fam, levis in (("G2", 4), ("F4", 12)):
        t = lie_type(fam)
        assert orbit_labels(t) == {label for f, label in xd.DIM_C if f == fam}
        assert len(levi_labels(t)) == levis
    assert {"E6(a1)", "E6(a3)", "D4(a1)", "D5(a1)"} == orbit_labels(lie_type("E6")) - levi_labels(lie_type("E6"))
    assert {"E7(a5)", "D6(a2)", "D5(a1)+A1", "D4(a1)+A1"} <= orbit_labels(lie_type("E7"))
    assert {"E8(b4)", "E8(a7)", "D7(a2)", "E6(a3)+A1", "D4(a1)+A2"} <= orbit_labels(lie_type("E8"))
    assert not {"E6(a2)", "E7(b4)", "D4(a2)", "D6(a3)"} & orbit_labels(lie_type("E7"))


def _levi_factor_strings(t, J):
    """The classical Levi factor types as strings, the tail as B_k, C_k or
    D_k: the route `_classical_levi_partition` replaced."""
    fam, n = t.family, t.rank
    out = []
    comps = components(t, J)
    for comp in comps:
        if fam in ("B", "C"):
            out.append(f"{fam}{len(comp)}" if n in comp else f"A{len(comp)}")
        elif fam != "D" or not (comp & {n - 1, n} and {n - 1, n} <= J):
            out.append(f"A{len(comp)}")
    if fam == "D" and {n - 1, n} <= J:
        out.append(f"D{len(frozenset().union(*(c for c in comps if c & {n - 1, n})))}")
    return out


def test_classical_levi_partition_matches_the_factor_strings():
    subsets = 0
    for fam in ("A", "B", "C", "D"):
        for n in range(1 if fam == "A" else (3 if fam == "D" else 2), 11):
            t = lie_type(fam, n)
            for k in range(n + 1):
                for J in map(frozenset, combinations(range(1, n + 1), k)):
                    factors = _levi_factor_strings(t, J)
                    runs = [int(f[1:]) for f in factors if f[0] == "A"]
                    tail = sum(int(f[1:]) for f in factors if f[0] != "A")
                    assert _classical_levi_partition(t, J) == _runs_partition(t, runs, tail), (t, J)
                    subsets += 1
    assert subsets == 8174


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


def test_candidates_from_masks_equal_the_subset_scan():
    # labels and partitions read by mask, against orbit_J_reg over the
    # minimal subsets as node sets, order included
    types = [(lie_type(fam), 2) for fam in ("G2", "F4", "E6", "E7", "E8")]
    types += [(lie_type(fam, n), 3) for fam in "ABCD" for n in range({"A": 1, "D": 3}.get(fam, 2), 11)]
    cells = 0
    for t, k in types:
        for d in range(1, k * coxeter_number(t)):
            assert coxeter_candidates(t, d) == _subset_scan_candidates(t, d), (t, d)
            cells += 1
    assert cells == 1071 + sum(2 * coxeter_number(t) - 1 for t, k in types if t.is_exceptional)


def _subset_scan_partitions(t, d):
    """`_subset_scan_candidates` as partitions, the shape of
    `_configuration_candidates`."""
    return [o.partition for o in _subset_scan_candidates(t, d)]


def _chain_shape_walk(t, d):
    """The distinct partitions of the orbits of the minimal d-allowable
    subsets of a classical finite diagram, in the order of `sorted(J)`, by a
    walk over chain shapes: the reference for `coxeter_solve` at ranks past
    the subset scan.

    The walk adds nodes in increasing order, so its preorder is the
    lexicographic order of sorted(J).  A state is (last node, open run
    length, sorted closed run lengths, tail length, mark sum, smallest mark
    in J): the orbit of every completion depends only on it, so a state seen
    before can only yield orbits already emitted and is skipped.  A walk
    stops once the mark sum reaches h - d (supersets of an allowable subset
    are not minimal) or can no longer reach it.
    """
    fam, n = t.family, t.rank
    marks = affine_marks(t).marks
    need = coxeter_number(t) - d
    if need <= 0:
        return [(1,) * defining_dim(t)]
    # reach[k]: the mark sum of the nodes after k
    reach = [sum(marks[a] for a in range(k + 1, n + 1)) for k in range(n + 1)]
    out = {}
    seen = set()
    # J empty: `low` is never read, since need > 0
    stack = [(0, 0, (), 0, 0, max(marks))]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        last, run, closed, tail, s, low = state
        if s >= need:
            if s - low < need:
                out[_runs_partition(t, closed + (run,) if run else closed, tail)] = None
            continue
        if s + reach[last] < need:
            continue
        # a node not adjacent to the run closes it and starts its own
        restart = (1, tuple(sorted(closed + (run,))) if run else closed, 0)
        children = []
        for k in range(last + 1, n + 1):
            if fam == "D" and k == n and last == n - 1:
                k_run, k_closed, k_tail = 0, closed, run + 1  # both fork nodes: the so(2c) tail
            elif last == (k - 2 if fam == "D" and k == n else k - 1):
                k_run, k_closed, k_tail = run + 1, closed, 0  # k joins the run of its lower neighbour
            else:
                k_run, k_closed, k_tail = restart
            if k == n and fam in ("B", "C"):
                k_run, k_tail = 0, k_run
            m = marks[k]
            children.append((k, k_run, k_closed, k_tail, s + m, m if m < low else low))
        stack.extend(reversed(children))
    return list(out)


def test_chain_shape_walk_equals_subset_scan():
    cells = 0
    for fam in ("A", "B", "C", "D"):
        for n in range(1 if fam == "A" else (3 if fam == "D" else 2), 11):
            t = lie_type(fam, n)
            for d in range(1, 3 * coxeter_number(t)):
                assert _chain_shape_walk(t, d) == _subset_scan_partitions(t, d), (t, d)
                cells += 1
    assert cells == 1071


def _outcome(t, d, solve=coxeter_solve):
    try:
        return solve(t, d)
    except (UnsupportedSlopeError, AssertionError) as e:
        return type(e), str(e)


def _classical_cells(ranks):
    for fam in ("A", "B", "C", "D"):
        for n in ranks:
            if n >= (1 if fam == "A" else (3 if fam == "D" else 2)):
                t = lie_type(fam, n)
                yield from ((t, d) for d in range(1, 3 * coxeter_number(t)))


def _sorting_runs_partition(t, runs, tail):
    """`_runs_partition` through `partition()`, with the tail's parts read
    from a per-family list: the builder the one-sort builder replaced."""
    fam = t.family
    if fam == "A":
        parts = [r + 1 for r in runs]
    else:
        parts = [r + 1 for r in runs for _ in (0, 1)]
        if tail:
            parts += {"B": [2 * tail + 1], "C": [2 * tail], "D": [2 * tail - 1, 1]}[fam]
    parts += [1] * (defining_dim(t) - sum(parts))
    return partition(parts)


def _counting_candidates(t, d):
    """`_configuration_candidates` with each tail's mark-1 nodes counted
    afresh per configuration and the partitions of
    `_sorting_runs_partition`: the candidate lists of the counting route."""
    fam, n = t.family, t.rank
    need = coxeter_number(t) - d
    if need <= 0:
        return [(1,) * defining_dim(t)]
    if fam == "A":
        return [_sorting_runs_partition(t, lambda_evenly(need, min(need, n - need + 1)), 0)]
    marks = affine_marks(t).marks
    ones = [a for a in range(1, n + 1) if marks[a] == 1]
    shapes = [(c, max(n - c - 1, 0), n - c > 1 and marks[1] == 1) for c in range(n + 1) if fam != "D" or c > 1]
    if fam == "D":
        shapes.append((0, n - 1, 2))
    out = {}
    for c, length, ends in shapes:
        for p in range(ends + 1):
            m1 = p + sum(a > n - c for a in ones)
            S = (need + m1 + 1) // 2 - c
            L = length - ends + p
            s = 2 * (S + c) - m1
            if s - (1 if m1 else 2) < need and p <= S <= L and (p < 2 or 2 * S > L):
                runs = lambda_evenly(S, min(S, L - S + 1)) if S else ()
                out[_sorting_runs_partition(t, runs, c)] = None
    return list(out)


def _two_pass_solve(t, d):
    """The classical `coxeter_solve` of the counting route: a gate per mark,
    then the least of `_counting_candidates` by `dominance_le` in two
    passes, one to it and one to check that it lies below them all."""
    h = coxeter_number(t)
    if d < 1:
        raise UnsupportedSlopeError(f"d={d} is not positive")
    if gcd(d, h) != 1:
        raise UnsupportedSlopeError(f"d={d} is not coprime to the Coxeter number {h}")
    if any(gcd(d, n) != 1 for n in affine_marks(t).marks):
        raise UnsupportedSlopeError(f"d={d} shares a factor with a mark; stabilizers may be non-parabolic")
    cands = _counting_candidates(t, d)
    if d >= h:
        assert cands == [(1,) * defining_dim(t)]
        return zero_orbit(t)
    least = cands[0]
    for c in cands[1:]:
        if dominance_le(c, least):
            least = c
    if not all(dominance_le(least, c) for c in cands):
        raise AssertionError(f"no unique closure-minimal candidate for {t}, d={d}: {cands}")
    return NilpotentOrbit(t, least)


def test_candidates_and_outcomes_equal_the_counting_route():
    # candidate lists, order included, and the solve or its exception type and
    # text, on every classical cell of rank <= 20 with d < 3h
    cells = solved = 0
    for t, d in _classical_cells(range(1, 21)):
        assert coxeter._configuration_candidates(t, d) == _counting_candidates(t, d), (t, d)
        got = _outcome(t, d)
        assert got == _outcome(t, d, _two_pass_solve), (t, d)
        cells += 1
        solved += isinstance(got, NilpotentOrbit)
    assert (cells, solved) == (4256, 1917)


def test_coxeter_solve_at_the_cli_rank_bound_is_the_closed_form():
    for fam in "BCD":
        t = lie_type(fam, COXETER_MAX_RANK)
        h = coxeter_number(t)
        for d in (1, 7, 659, h - 1):
            assert coxeter_solve(t, d).partition == _coxeter_closed_form(t, d), (t, d)


def test_configurations_give_the_least_scan_candidate(monkeypatch):
    cells = [(t, d, _outcome(t, d)) for t, d in _classical_cells(range(1, 11))]
    # the same solve with the candidate list of the subset scan
    monkeypatch.setattr(coxeter, "_configuration_candidates", _subset_scan_partitions)
    assert [(t, d, _outcome(t, d)) for t, d, _ in cells] == cells
    assert len(cells) == 1071 and sum(isinstance(o, tuple) for *_, o in cells) == 576


def test_configuration_candidates_are_distinct():
    for t, d in _classical_cells(range(1, 21)):
        cands = coxeter._configuration_candidates(t, d)
        assert len(set(cands)) == len(cands), (t, d)


def test_configuration_candidates_are_valid_partitions():
    # coxeter_solve builds a NilpotentOrbit only for the candidate it
    # returns, so the orbit checks of the others are made here
    cells = 0
    for fam in "ABCD":
        for n in range({"A": 1, "D": 3}.get(fam, 2), 14):
            t = lie_type(fam, n)
            for d in range(1, 2 * coxeter_number(t)):
                cands = coxeter._configuration_candidates(t, d)
                assert cands and len(set(cands)) == len(cands), (t, d)
                for p in cands:
                    assert type(p) is tuple and p == partition(p) and sum(p) == defining_dim(t), (t, d, p)
                    assert fam == "A" or is_valid(p, ParityClass[fam]), (t, d, p)
                cells += 1
    assert cells == 1188


def test_configurations_give_the_least_walk_candidate(monkeypatch):
    cells = [(t, d, _outcome(t, d)) for t, d in _classical_cells(range(11, 21)) if d < coxeter_number(t)]
    monkeypatch.setattr(coxeter, "_configuration_candidates", _chain_shape_walk)
    assert [(t, d, _outcome(t, d)) for t, d, _ in cells] == cells


@pytest.mark.parametrize("fam", "ABCD")
def test_coxeter_solve_scans_no_subsets_and_builds_no_roots(monkeypatch, fam):
    def refuse(*args):
        raise AssertionError("the classical route scanned subsets or built the root system")

    for name, module in list(sys.modules.items()):
        for fn in ("_subset_marks", "minimal_allowable_in_finite", "positive_roots"):
            if name.startswith("isods") and hasattr(module, fn):
                monkeypatch.setattr(module, fn, refuse)
    t = lie_type(fam, 40)
    h = coxeter_number(t)
    for d in [d for d in range(1, 8) if gcd(d, 2 * h) == 1] + [h - 1, h + 1]:
        assert coxeter_solve(t, d).partition == _coxeter_closed_form(t, d), d


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
