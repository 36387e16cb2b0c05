import random
import sys
from functools import lru_cache
from math import gcd
from operator import ge

import pytest
from hypothesis import example, given, settings, strategies as st

from isods.coxeter import UnsupportedSlopeError
from isods.orbits import AdjointOrbit, Block, NilpotentOrbit, cone_contains, ls_induction
from isods.partitions import (
    ParityClass,
    dominance_le,
    is_valid,
    is_very_even,
    lambda_evenly,
    least_clearing,
    partition,
    partitions_of,
    prefix_sums,
    sum_parts,
    union_parts,
    valid_partitions,
)
from isods.root_data import defining_dim, is_regular, lie_type, slope, slope_cells
from isods.solver import (
    QCandidate,
    _anchor_bounds,
    _cand_le,
    _mult_groups,
    ds_solve,
    ds_solve_q,
    o_nu,
    o_nu_rows,
    q_candidates,
)


def test_o_nu_examples():
    assert o_nu(lie_type("C", 3), slope(5, 6)).partition == (2, 1, 1, 1, 1)
    assert o_nu(lie_type("D", 5), slope(1, 4)).partition == (5, 3, 1, 1)
    assert o_nu(lie_type("F4"), slope(5, 8)).label == "~A1"
    assert o_nu(lie_type("B", 4), slope(3, 8)).partition == (3, 3, 3)
    # nu >= 1 collapses to the zero orbit
    assert o_nu(lie_type("C", 3), slope(7, 6)).partition == (1,) * 6
    assert o_nu(lie_type("E8"), slope(31, 30)).label == "0"


def test_threshold_just_below_one_is_minimal_orbit():
    # at slope 1 - 1/h the threshold is the minimal nilpotent orbit, so the
    # verdict is affirmative precisely for nonzero orbits
    from isods.root_data import coxeter_number

    minimal = {
        "A": lambda n: (2,) + (1,) * (n - 1),
        "B": lambda n: (2, 2) + (1,) * (2 * n - 3),
        "C": lambda n: (2,) + (1,) * (2 * n - 2),
        "D": lambda n: (2, 2) + (1,) * (2 * n - 4),
    }
    for fam in ("A", "B", "C", "D"):
        for n in range(3, 8):
            t = lie_type(fam, n)
            h = coxeter_number(t)
            assert o_nu(t, slope(h - 1, h)).partition == minimal[fam](n), (fam, n)
    for fam in ("G2", "F4", "E6", "E7", "E8"):
        t = lie_type(fam)
        h = coxeter_number(t)
        assert o_nu(t, slope(h - 1, h)).label == "A1"


def test_o_nu_unsupported():
    with pytest.raises(UnsupportedSlopeError):
        o_nu(lie_type("B", 3), slope(1, 5))  # 5 not regular for B3
    with pytest.raises(UnsupportedSlopeError):
        o_nu(lie_type("E7"), slope(5, 14))  # non-Coxeter exceptional slope
    with pytest.raises(UnsupportedSlopeError):
        o_nu(lie_type("F4"), slope(1, 8))  # F4 small denominators cover 5/6, 5/8, 7/8 only


def test_o_nu_never_very_even():
    for t, m, d, s in slope_cells("D", 10, lambda t: range(2, 2 * t.rank + 1), lambda m: range(1, m)):
        p = o_nu(t, s).partition
        assert not is_very_even(p), (t.rank, m, d, p)


def test_row_overlap_spot_instance():
    # D4 at m = 2, d = 1: both table rows apply and agree
    rows = o_nu_rows(lie_type("D", 4), slope(1, 2))
    assert len(rows) >= 2
    assert {r.orbit.partition for r in rows} == {(3, 2, 2, 1)}


def _ladder_rows(t, s):
    """(row_id, partition, parts_bound) of each classical t_completecl row
    for (t, s), written out row by row: the reference for o_nu_rows."""
    d, m = s.d, s.m
    if not is_regular(t, m):
        raise UnsupportedSlopeError(f"{m} is not a regular number for {t}")
    if d >= m:
        return [("nu_ge_1", (1,) * defining_dim(t), 0)]
    fam, n = t.family, t.rank

    def edge(ell, tail):
        return partition((m + 1,) + (m,) * (ell - 2) + (m - 1,) + tail)

    rows = []
    if fam == "A":
        N = n + 1
        if N % m == 0:
            e = N * d // m
            rows.append(("A1", lambda_evenly(N, e), e))
        if (N - 1) % m == 0:
            e = (N - 1) * d // m
            rows.append(("A2", union_parts(lambda_evenly(N - 1, e), (1,)), e))
    elif fam == "B":
        e = 2 * n * d // m
        ell = 2 * n // m
        if e % 2 == 1:
            rows.append(("B1", lambda_evenly(2 * n + 1, e), e))
        elif d > 1 or m % 2 == 1:
            rows.append(("B2", union_parts(lambda_evenly(2 * n, e), (1,)), e))
        else:
            rows.append(("B3", edge(ell, (1,)), e))
    elif fam == "C":
        e = 2 * n * d // m
        rows.append(("C1", lambda_evenly(2 * n, e), e))
    else:
        if n % m == 0:
            e = 2 * n * d // m
            ell = 2 * n // m
            if d > 1 or m % 2 == 1:
                rows.append(("D1", lambda_evenly(2 * n, e), e))
            else:
                rows.append(("D2", edge(ell, ()), e))
        if (2 * n - 2) % m == 0:
            e = (2 * n - 2) * d // m
            ell = (2 * n - 2) // m
            if e % 2 == 1:
                rows.append(("D3", union_parts(lambda_evenly(2 * n - 1, e), (1,)), e))
            if (n - 1) % m == 0:
                if d > 1 or m % 2 == 1:
                    rows.append(("D4", union_parts(lambda_evenly(2 * n - 2, e), (1, 1)), e))
                else:
                    rows.append(("D5", edge(ell, (1, 1)), e))
    return rows


# the parts 1 each ladder row adds to its spread or edge partition
_LADDER_ONES = {"A2": 1, "B2": 1, "B3": 1, "D3": 1, "D4": 2, "D5": 2}


def test_o_nu_rows_match_the_hand_written_ladder():
    cells = 0
    for fam in "ABCD":
        for n in range(1, 17):
            try:
                t = lie_type(fam, n)
            except ValueError:
                continue
            for m in range(1, 2 * n + 4):
                for d in (d for d in range(1, 3 * m + 2) if gcd(d, m) == 1):
                    cells += 1
                    s = slope(d, m)
                    try:
                        want = _ladder_rows(t, s)
                    except UnsupportedSlopeError as exc:
                        with pytest.raises(UnsupportedSlopeError) as got:
                            o_nu_rows(t, s)
                        assert type(got.value) is type(exc) and str(got.value) == str(exc)
                        continue
                    rows = o_nu_rows(t, s)
                    assert [(r.row_id, r.orbit.partition, r.parts_bound) for r in rows] == want, (t, s)
                    for r in rows:
                        assert r.ones == _LADDER_ONES.get(r.row_id, 0), (t, s, r.row_id)
                        p, e = r.orbit.partition, r.parts_bound
                        core = p[: len(p) - r.ones]
                        if r.row_id == "nu_ge_1":
                            shape = (1,) * len(p)
                        elif r.row_id in ("B3", "D2", "D5"):
                            shape = (m + 1,) + (m,) * (e - 2) + (m - 1,)
                        else:
                            shape = lambda_evenly(sum(core), e)
                        assert p == core + (1,) * r.ones and core == shape, (t, s, r.row_id)
    assert cells == 31018


def test_ds_solve_examples():
    B2 = lie_type("B", 2)
    assert ds_solve(B2, slope(3, 4), NilpotentOrbit(B2, (3, 1, 1))).affirmative is True
    assert ds_solve(B2, slope(3, 4), NilpotentOrbit(B2, (1, 1, 1, 1, 1))).affirmative is False
    # nu >= 1 is always affirmative
    C3 = lie_type("C", 3)
    assert ds_solve(C3, slope(7, 6), NilpotentOrbit(C3, (1,) * 6)).affirmative is True
    # regular adjoint orbits are always affirmative
    a = AdjointOrbit(C3, (Block("a", 3, (3,)),), ())
    assert ds_solve(C3, slope(1, 6), a).affirmative is True


def test_a_repeated_query_at_nu_ge_1_builds_only_the_induced_orbit(monkeypatch):
    # the threshold at nu >= 1 is the zero orbit of the type, built once
    built = []
    init = NilpotentOrbit.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    C3, B4, E8 = lie_type("C", 3), lie_type("B", 4), lie_type("E8")
    cells = [
        (C3, slope(7, 6), NilpotentOrbit(C3, (2, 2, 1, 1)), AdjointOrbit(C3, (Block("a", 2, (2,)),), (1, 1))),
        (B4, slope(9, 8), NilpotentOrbit(B4, (3, 3, 3)), AdjointOrbit(B4, (Block("a", 3, (2, 1)),), (3,))),
        (E8, slope(31, 30), NilpotentOrbit(E8, label="A1"), None),
    ]
    for t, s, nil, adj in cells:
        ds_solve(t, s, nil)
        monkeypatch.setattr(NilpotentOrbit, "__init__", counting_init)
        assert ds_solve(t, s, nil).affirmative is True and built == [], (t, built)
        if adj is not None:
            ans = ds_solve(t, s, adj)
            assert len(built) == 1, (t, built)
            monkeypatch.undo()
            assert ans.affirmative is True and ans.o_nil == ls_induction(adj) and built[0][1] == ans.o_nil.partition
        monkeypatch.undo()
        built.clear()


def test_ds_solve_monotone_in_cone_order():
    rng = random.Random(9)
    for fam in ("B", "C", "D"):
        cls = ParityClass[fam]
        for _ in range(200):
            n = rng.randint(3, 7)
            t = lie_type(fam, n)
            ms = [m for m in range(2, 2 * n + 1) if is_regular(t, m)]
            m = rng.choice(ms)
            ds = [d for d in range(1, m) if gcd(d, m) == 1]
            if not ds:
                continue
            s = slope(rng.choice(ds), m)
            zero_mult = rng.randint(0, n)
            rest = n - zero_mult
            mults = []
            while rest:
                x = rng.randint(1, rest)
                mults.append(x)
                rest -= x
            eps = 1 if fam == "B" else 0
            tails = [p for p in partitions_of(2 * zero_mult + eps) if is_valid(p, cls)] or [()]
            blocks = tuple(
                Block(f"a{i}", mm, rng.choice(list(partitions_of(mm)))) for i, mm in enumerate(mults)
            )
            a = AdjointOrbit(t, blocks, rng.choice(tails))
            o_prime = ls_induction(a)
            if ds_solve(t, s, o_prime).affirmative:
                assert cone_contains(o_nu(t, s), a) == ds_solve(t, s, a).affirmative
                assert ds_solve(t, s, a).affirmative is True


def test_ds_solve_exceptional():
    F4 = lie_type("F4")
    ans = ds_solve(F4, slope(5, 8), NilpotentOrbit(F4, label="B2"))
    assert ans.affirmative is True  # ~A1 <= B2 in the embedded Hasse diagram
    ans = ds_solve(F4, slope(5, 8), NilpotentOrbit(F4, label="A1"))
    assert ans.affirmative is False
    E6 = lie_type("E6")
    ans = ds_solve(E6, slope(5, 12), NilpotentOrbit(E6, label="A2"))
    assert ans.affirmative == "unknown-needs-hasse"


def test_ds_answer_serialization_roundtrip():
    import json

    B2 = lie_type("B", 2)
    ans = ds_solve(B2, slope(3, 4), NilpotentOrbit(B2, (3, 1, 1)))
    data = json.loads(json.dumps(ans.to_json()))
    assert data["affirmative"] is True
    assert data["o_nu"]["partition"] == [2, 2, 1]


def test_q_candidates_row_shapes():
    # A3 at 3/4: every block gets the 2-part even minimum
    t = lie_type("A", 3)
    cands = q_candidates(t, slope(3, 4), (2, 2), 0)
    assert [c.linear for c in cands] == [((1, 1), (1, 1))]
    # B row with odd 2n*nu: single candidate (l^{m_1,3}, ..., l^{2m_s+1,3})
    t = lie_type("B", 4)
    cands = q_candidates(t, slope(3, 8), (1, 1), 2)
    assert [(c.linear, c.tail) for c in cands] == [(((1,), (1,)), (2, 2, 1))]
    # the lambda-tilde substitution row: B, d=1, m even, l even, l | gcd
    t = lie_type("B", 6)
    cands = q_candidates(t, slope(1, 6), (2, 2), 2)
    tails = {c.tail for c in cands}
    linears = {c.linear for c in cands}
    assert ((1, 1), (1, 1)) in linears and (3, 1, 1) in tails
    assert ((2,), (1, 1)) in linears  # the degenerate factor bump


def test_ds_solve_q_equals_ds_solve_exhaustive_rank3():
    import itertools

    for fam in ("A", "B", "C", "D"):
        n = 3
        t = lie_type(fam, n)
        cap = n + 1 if fam == "A" else n
        for m in range(1, 2 * cap + 1):
            if not is_regular(t, m):
                continue
            for d in range(1, 2 * m):
                if gcd(d, m) != 1:
                    continue
                s = slope(d, m)
                for zero_mult in range(cap + 1):
                    rest = cap - zero_mult
                    for mults in {p for p in partitions_of(rest)}:
                        eps = 1 if fam == "B" else 0
                        tail_total = zero_mult if fam == "A" else 2 * zero_mult + eps
                        if fam == "A":
                            tails = list(partitions_of(tail_total)) if tail_total else [()]
                        else:
                            tails = [
                                p for p in partitions_of(tail_total) if is_valid(p, ParityClass[fam])
                            ] or [()]
                        pools = [list(partitions_of(x)) for x in mults]
                        for combo in itertools.product(*pools):
                            for tl in tails:
                                blocks = tuple(
                                    Block(f"a{i}", mults[i], combo[i]) for i in range(len(mults))
                                )
                                a = AdjointOrbit(t, blocks, tl)
                                assert (
                                    ds_solve(t, s, a).affirmative
                                    == ds_solve_q(t, s, a).affirmative
                                ), (fam, n, str(s), a.to_json())


def _clears(prefixes, bound):
    return all(map(ge, prefixes, bound))


def _dominance_minimal(pool, prefixes, order, bound):
    """Reference: the dominance-minimal members of a pool of partitions of
    one total among those whose prefix sums clear bound, once each, in pool
    order.  prefixes[i] are the prefix sums of pool[i] to one width, and
    order lists the indices sorted by them, a linear extension of dominance:
    scanning in it, an element is minimal iff no element kept so far lies
    below it."""
    kept = []
    for i in order:
        if _clears(prefixes[i], bound) and not any(_clears(prefixes[i], prefixes[k]) for k in kept):
            kept.append(i)
    return [pool[i] for i in sorted(kept)]


@lru_cache(maxsize=None)
def _valid_pool(n, cls, width):
    pool = valid_partitions(n, cls)
    prefixes = [prefix_sums(p, width) for p in pool]
    return pool, prefixes, sorted(range(len(pool)), key=prefixes.__getitem__)


def _scan_reference(n, cls, bound):
    """The dominance-minimal partitions of n in the parity class cls whose
    prefix sums clear bound, by a scan of every valid partition of n."""
    return _dominance_minimal(*_valid_pool(n, cls, len(bound)), list(bound))


def _pairwise_minimal(pool):
    """Reference: minimal members by comparing every pair, in pool order."""
    out = []
    for p in pool:
        if any(q != p and dominance_le(q, p) for q in pool):
            continue
        if p not in out:
            out.append(p)
    return out


@st.composite
def partition_pools(draw):
    """A random subset, in random order, of the partitions of n <= 12,
    optionally only those valid for a B/C/D parity class."""
    n = draw(st.integers(0, 12))
    parts = list(partitions_of(n))
    fam = draw(st.sampled_from((None, "B", "C", "D")))
    if fam is not None:
        parts = [p for p in parts if is_valid(p, ParityClass[fam])]
    if not parts:
        return []
    return draw(st.lists(st.sampled_from(parts), unique=True))


@settings(max_examples=300, deadline=None)
@given(partition_pools(), st.integers(0, 3), st.data())
def test_dominance_minimal_matches_pairwise(pool, pad, data):
    width = max(map(len, pool), default=0) + pad
    prefixes = [prefix_sums(p, width) for p in pool]
    order = sorted(range(len(pool)), key=prefixes.__getitem__)
    top = max(map(sum, pool), default=0)
    bound = data.draw(st.lists(st.integers(-2, top + 1), min_size=width, max_size=width))
    cleared = [p for p, pp in zip(pool, prefixes) if _clears(pp, bound)]
    assert _dominance_minimal(pool, prefixes, order, bound) == _pairwise_minimal(cleared)
    assert _dominance_minimal(pool, prefixes, order, [0] * width) == _pairwise_minimal(pool)


def test_q_route_tails_are_the_least_clearing_tail(monkeypatch):
    """Every tail bound that q_candidates builds in B, C and D at ranks up to
    8, for every regular d/m with d < 2m, every zero multiplicity and every
    multiplicity list of up to 3 slots: the minimal valid tails that clear
    it, by a scan of the valid tails, are the least clearing tail alone, or
    none when no tail clears (the proof in q_candidates' docstring).  Every
    candidate the route returns has a valid tail and works."""
    import isods.solver as solver

    tail_bounds = []

    def spy(c, p_o, linear, tail):
        out = _anchor_bounds(c, p_o, linear, tail)
        tail_bounds.append(out[1])
        return out

    monkeypatch.setattr(solver, "_anchor_bounds", spy)
    calls = 0
    for fam in "BCD":
        cls = ParityClass[fam]
        for t, _, _, s in slope_cells(fam, 8, lambda t: range(1, 2 * t.rank + 1), lambda m: range(1, 2 * m)):
            for zero_mult in range(t.rank + 1):
                tail_total = 2 * zero_mult + (fam == "B")
                for mults in partitions_of(t.rank - zero_mult):
                    if len(mults) > 3:
                        continue
                    tail_bounds.clear()
                    cands = q_candidates(t, s, mults, zero_mult)
                    for bound in tail_bounds:
                        lam = least_clearing(tail_total, bound)
                        want = [] if lam is None else [lam]
                        assert _scan_reference(tail_total, cls, bound) == want, (t, s, mults, zero_mult, bound)
                        calls += 1
                    o_part = cands.threshold.partition
                    for cand in cands:
                        assert is_valid(cand.tail, cls), (t, s, mults, zero_mult, cand)
                        assert _works_reference(t, o_part, cand.linear, cand.tail), (t, s, mults, zero_mult, cand)
    assert calls == 11583


def test_ds_solve_q_reads_the_threshold_once(monkeypatch):
    """ds_solve_q takes the threshold from the q_candidates result, which
    compares and counts as the plain list of its candidates."""
    import isods.solver as solver

    calls = {"o_nu_rows": 0, "q_candidates": 0}
    results = []

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            out = fn(*args)
            if name == "q_candidates":
                results.append(out)
            return out

        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name, getattr(solver, name)))
    cells = (
        ("A", 3, slope(3, 4), (Block("a", 2, (1, 1)), Block("b", 2, (2,))), ()),
        ("B", 4, slope(3, 8), (Block("a", 1, (1,)), Block("b", 1, (1,))), (3, 1, 1)),
        ("C", 6, slope(1, 4), (Block("a", 1, (1,)),), (4, 4, 2)),
        ("D", 5, slope(1, 4), (Block("a", 2, (2,)),), (3, 1, 1, 1)),
    )
    for fam, n, s, blocks, tail in cells:
        t = lie_type(fam, n)
        calls.update(o_nu_rows=0, q_candidates=0)
        ans = ds_solve_q(t, s, AdjointOrbit(t, blocks, tail))
        assert calls == {"o_nu_rows": 1, "q_candidates": 1}, (fam, calls)
        cands = results[-1]
        plain = list(cands)
        assert plain and cands == plain and len(cands) == len(plain)
        assert ans.o_nu == cands.threshold == o_nu(t, s)


def test_closed_forms_list_no_partitions(monkeypatch):
    """lambda_tilde, both solvers, the classical Coxeter route and the
    lattice oracle answer with partitions_of refusing every call."""
    from isods.coxeter import coxeter_solve
    from isods.partitions import lambda_tilde
    from isods.skeleton import minimal_jordan_type

    def refuse(*args):
        raise AssertionError(f"partitions_of{args} was called")

    for mod in [m for name, m in sys.modules.items() if name == "isods" or name.startswith("isods.")]:
        if hasattr(mod, "partitions_of"):
            monkeypatch.setattr(mod, "partitions_of", refuse)
    t, s = lie_type("B", 4), slope(3, 8)
    assert lambda_tilde(9, 3) == (4, 3, 2) and lambda_tilde(12, 4) == (4, 3, 3, 2)
    assert ds_solve(t, s, NilpotentOrbit(t, (3, 3, 3))).affirmative is True
    adjoint = AdjointOrbit(t, (Block("a", 2, (2,)),), (3, 1, 1))
    assert ds_solve_q(t, s, adjoint).affirmative is ds_solve(t, s, adjoint).affirmative is True
    assert coxeter_solve(t, 3).partition == (3, 3, 3)
    assert minimal_jordan_type(t, slope(1, 4)) == o_nu(t, slope(1, 4)).partition


def _all_pairs_q_candidates(t, s, mults, zero_mult):
    """q_candidates as it was before its anchors skipped the replacements
    the base anchor makes: every distinct anchor replaces every slot and the
    tail, each slot bound comes from its own sum of the other factors, and
    every candidate is a QCandidate before the pairwise pruning."""
    fam = t.family
    if t.is_exceptional:
        raise ValueError("fixed-characteristic-polynomial route is classical only")
    if any(M < 1 for M in mults):
        raise ValueError(f"multiplicities must be positive, got {list(mults)}")
    if zero_mult < 0:
        raise ValueError(f"zero multiplicity must be >= 0, got {zero_mult}")
    cap = t.rank + 1 if fam == "A" else t.rank
    if sum(mults) + zero_mult != cap:
        raise ValueError(
            f"multiplicities {list(mults)} and zero multiplicity {zero_mult} sum to"
            f" {sum(mults) + zero_mult}, expected {cap} for {t}"
        )
    row = o_nu_rows(t, s)[0]
    e = row.parts_bound
    slots = list(mults) + ([zero_mult] if fam == "A" and zero_mult else [])
    tail_total = 0 if fam == "A" else 2 * zero_mult + (fam == "B")
    base = [lambda_evenly(M, e) if e else (1,) * M for M in slots]
    if not e:
        base_tail = (1,) * tail_total
    elif row.ones == 1 and tail_total:
        base_tail = union_parts(lambda_evenly(tail_total - 1, e), (1,))
    else:
        base_tail = lambda_evenly(tail_total, e)
    anchors = [(tuple(base), base_tail)]
    if e:
        if row.ones == 2 and tail_total >= 2:
            anchors.append((tuple(base), union_parts(lambda_evenly(tail_total - 2, e), (1, 1))))
        for k, M in enumerate(slots):
            placed = list(base)
            placed[k] = union_parts(lambda_evenly(M - 1, e), (1,))
            anchors.append((tuple(placed), base_tail))
    width = len(row.orbit.partition)
    c = 1 if fam == "A" else 2
    p_o = prefix_sums(row.orbit.partition, width)
    found = {}
    for anchor_lin, anchor_tail in dict.fromkeys(anchors):
        p_lin = [prefix_sums(p, width) for p in anchor_lin]
        p_tail = prefix_sums(anchor_tail, width)
        lin_sum = [sum(col) for col in zip(*p_lin)] if p_lin else [0] * width
        for j, pl in enumerate(p_lin):
            bound = [-((c * (ls - pj) + pt - o) // c) for o, pt, ls, pj in zip(p_o, p_tail, lin_sum, pl)]
            mu = least_clearing(slots[j], bound)
            if mu is not None:
                lin = list(anchor_lin)
                lin[j] = mu
                found[QCandidate(tuple(lin), anchor_tail)] = None
        if fam != "A":
            tl = least_clearing(tail_total, [o - c * ls for o, ls in zip(p_o, lin_sum)])
            if tl is not None:
                found[QCandidate(anchor_lin, tl)] = None
    groups = _mult_groups(slots)

    def le(c1, c2):
        return _cand_le((c1.linear, c1.tail), (c2.linear, c2.tail), groups)

    cands = list(found)
    return [x for x in cands if not any(o is not x and le(o, x) and not le(x, o) for o in cands)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, UnsupportedSlopeError) as exc:
        return type(exc), str(exc)


def test_q_candidates_equal_the_all_pairs_anchor_loop():
    """Skipping a placed anchor's own slot and the alternate anchor's tail,
    the common slot bound and the tuples kept until pruning give the same
    candidates in the same order, and the same refusals: A-D at ranks up to
    6, every d/m with m <= 2n + 2 and d <= 2m, every zero multiplicity, and
    every multiplicity list of up to 3 slots in both orders."""
    calls = answered = 0
    for fam, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(low, 7):
            t = lie_type(fam, n)
            cap = n + 1 if fam == "A" else n
            for m in range(1, 2 * n + 3):
                for d in range(1, 2 * m + 1):
                    if gcd(d, m) != 1:
                        continue
                    s = slope(d, m)
                    for zero_mult in range(cap + 1):
                        for p in partitions_of(cap - zero_mult):
                            if len(p) > 3:
                                continue
                            for mults in dict.fromkeys((p, p[::-1])):
                                got = _outcome(q_candidates, t, s, mults, zero_mult)
                                want = _outcome(_all_pairs_q_candidates, t, s, mults, zero_mult)
                                assert got == want, (t, s, mults, zero_mult)
                                calls += 1
                                answered += isinstance(got, list)
    assert (calls, answered) == (35068, 7552)


def test_q_candidates_lists_no_partition_pool(monkeypatch):
    """The B/C/D zero sector is generated: the route never lists the
    partitions, valid or not, of a tail or slot size."""

    def refuse(*args):
        raise AssertionError(f"q_candidates listed a partition pool {args}")

    for mod in [m for name, m in sys.modules.items() if name == "isods" or name.startswith("isods.")]:
        for name in ("valid_partitions", "partitions_of"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, refuse)
    cells = 0
    for fam, n, m in (("B", 16, 32), ("C", 16, 32), ("D", 16, 30), ("C", 26, 4)):
        t = lie_type(fam, n)
        for d in range(1, m, 2 if fam != "D" else 1):
            if gcd(d, m) == 1:
                for mults, zero_mult in (((n // 3,), n - n // 3), ((), n), ((1,), n - 1)):
                    assert q_candidates(t, slope(d, m), mults, zero_mult)
                    cells += 1
    assert cells == 3 * (16 + 16 + 8 + 2)


@st.composite
def clearing_cases(draw):
    """A slot size M <= 22, a width from M to 34 and a bound of that width:
    the prefix sums of a partition of M lowered at random (so some partition
    clears it, and it is often negative or not monotone), optionally with an
    entry above M before the last position, or entries drawn at random."""
    M = draw(st.integers(0, 22))
    width = draw(st.integers(M, 34))
    kind = draw(st.sampled_from(("lowered", "above", "random")))
    if kind == "random":
        return M, draw(st.lists(st.integers(-3, M + 2), min_size=width, max_size=width))
    p = draw(st.sampled_from(partitions_of(M)))
    drops = draw(st.lists(st.integers(0, 4 if kind == "lowered" else M + 3), min_size=width, max_size=width))
    bound = [x - y for x, y in zip(prefix_sums(p, width), drops)]
    if kind == "above" and width >= 2:
        k = draw(st.one_of(st.just(width - 2), st.integers(0, width - 2)))
        bound[k] = M + draw(st.integers(1, 3))
    return M, bound


@settings(max_examples=400, deadline=None)
@given(clearing_cases())
@example((3, [0, 0, 4, 0]))  # above M before the last position, unseen from the ends
@example((1, [1, 0, 0, 1]))  # needs the ceiling
def test_least_clearing_matches_enumeration(case):
    M, bound = case
    width = len(bound)
    cleared = [p for p in partitions_of(M) if _clears(prefix_sums(p, width), bound)]
    least = least_clearing(M, bound)
    assert _pairwise_minimal(cleared) == ([least] if least is not None else [])


def _works_reference(t, o_part, linear, tail):
    """Reference works test at the partition level: the threshold lies below
    the sum of the factors (doubled outside type A) and the tail."""
    if t.family == "A":
        total = sum_parts(list(linear) + [tail])
    else:
        total = sum_parts([tuple(2 * x for x in sum_parts(linear)), tail])
    return dominance_le(o_part, total)


@st.composite
def random_anchors(draw):
    """A classical type of rank <= 8, a regular slope (nu >= 1 included), an
    eigenvalue structure and an arbitrary orbit of it as the anchor."""
    fam = draw(st.sampled_from("ABCD"))
    n = draw(st.integers({"A": 1, "B": 2, "C": 2, "D": 3}[fam], 8))
    t = lie_type(fam, n)
    cap = n + 1 if fam == "A" else n
    m = draw(st.sampled_from([m for m in range(1, 2 * cap + 1) if is_regular(t, m)]))
    d = draw(st.sampled_from([d for d in range(1, 2 * m + 1) if gcd(d, m) == 1]))
    zero_mult = draw(st.integers(0, cap))
    rest, slots = cap - zero_mult, []
    while rest:
        slots.append(draw(st.integers(1, rest)))
        rest -= slots[-1]
    if fam == "A":
        slots += [zero_mult] if zero_mult else []
        tails = [()]
    else:
        tail_total = 2 * zero_mult + (1 if fam == "B" else 0)
        tails = [p for p in partitions_of(tail_total) if is_valid(p, ParityClass[fam])]
    linear = tuple(draw(st.sampled_from(partitions_of(M))) for M in slots)
    return t, slope(d, m), slots, linear, draw(st.sampled_from(tails)), tails


@pytest.mark.parametrize("width_of", [sum, len], ids=["sum", "len"])
@settings(max_examples=300, deadline=None)
@given(random_anchors())
def test_prefix_sum_works_test_matches_partition_reference(width_of, case):
    # q_candidates takes the prefix sums to len(threshold); the entries up to
    # sum(threshold) decide the same
    t, s, slots, linear, tail, tails = case
    o_part = o_nu_rows(t, s)[0].orbit.partition
    width = width_of(o_part)
    p_o = prefix_sums(o_part, width)
    slot_bounds, tail_bound = _anchor_bounds(1 if t.family == "A" else 2, p_o, linear, tail)
    # the anchor works exactly when its own slots and tail clear their bounds
    own = [_clears(prefix_sums(p, width), bound) for p, bound in zip(linear, slot_bounds)]
    own.append(_clears(prefix_sums(tail, width), tail_bound))
    assert all(own) == _works_reference(t, o_part, linear, tail)
    for j, bound in enumerate(slot_bounds):
        for mu in partitions_of(slots[j]):
            lin = linear[:j] + (mu,) + linear[j + 1:]
            assert _clears(prefix_sums(mu, width), bound) == _works_reference(t, o_part, lin, tail), (j, mu)
    for tl in tails:
        assert _clears(prefix_sums(tl, width), tail_bound) == _works_reference(t, o_part, linear, tl), tl
