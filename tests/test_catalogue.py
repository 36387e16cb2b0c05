"""The exceptional label catalogue against the family tables it replaced:
short nodes by family, and Levi factor types by family branch, with the F4
mixed factors listed by hand and the E factors typed by walking their arms.
The references are kept here."""

from itertools import combinations

import pytest

from isods.catalogue import levi_factor_types, short_nodes
from isods.root_data import adjacency, components, lie_type

EXCEPTIONAL = ("G2", "F4", "E6", "E7", "E8")


def _family_short_nodes(t):
    fam, r = t.family, t.rank
    if fam == "B":
        return frozenset({r})
    if fam == "C":
        return frozenset(range(1, r))
    return {"G2": frozenset({2}), "F4": frozenset({3, 4})}.get(fam, frozenset())


_F4_MIXED = {
    frozenset({2, 3}): "B2",
    frozenset({1, 2, 3}): "B3",
    frozenset({2, 3, 4}): "C3",
    frozenset({1, 2, 3, 4}): "F4",
}


def _arm_walk_type(t, comp):
    adj = adjacency(t)
    branch = [x for x in comp if len(adj[x] & comp) == 3]
    if not branch:
        return ("A", len(comp))
    assert len(branch) == 1, comp
    arms = []
    for first in sorted(adj[branch[0]] & comp):
        length, prev, cur = 1, branch[0], first
        while nxt := [y for y in adj[cur] & comp if y != prev]:
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    assert arms[0] == 1 and arms[1] in (1, 2), comp
    return ("D" if arms[1] == 1 else "E", len(comp))


def _family_levi_factor_types(t, J):
    shorts = _family_short_nodes(t)
    out = []
    for comp in components(t, J):
        if t.family == "G2":
            out.append("G2" if len(comp) == 2 else ("~A1" if comp <= shorts else "A1"))
        elif t.family == "F4":
            if comp & shorts and comp - shorts:
                out.append(_F4_MIXED[comp])
            else:
                out.append(("~" if comp <= shorts else "") + f"A{len(comp)}")
        else:
            cf, cr = _arm_walk_type(t, comp)
            out.append(f"{cf}{cr}")
    return tuple(sorted(out))


def test_short_nodes_from_the_cartan_matrix():
    types = [lie_type(f) for f in EXCEPTIONAL] + [
        lie_type(fam, n) for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 31)
    ]
    for t in types:
        assert short_nodes(t) == _family_short_nodes(t), t


def test_levi_factor_types_match_the_family_rules():
    subsets = 0
    for fam in EXCEPTIONAL:
        t = lie_type(fam)
        for k in range(t.rank + 1):
            for J in combinations(range(1, t.rank + 1), k):
                assert levi_factor_types(t, J) == _family_levi_factor_types(t, J), (t, J)
                subsets += 1
    assert subsets == 468


def test_levi_factor_examples():
    F4 = lie_type("F4")
    assert levi_factor_types(F4, {1, 2, 4}) == ("A2", "~A1")
    assert levi_factor_types(F4, {2, 3}) == ("B2",)
    assert levi_factor_types(F4, {2, 3, 4}) == ("C3",)
    assert levi_factor_types(lie_type("G2"), {1, 2}) == ("G2",)
    assert levi_factor_types(lie_type("E7"), {2, 3, 5, 7}) == ("A1", "A1", "A1", "A1")
    with pytest.raises(ValueError, match=r"nodes \[0\] are not finite diagram nodes of E6"):
        levi_factor_types(lie_type("E6"), {0, 1})
