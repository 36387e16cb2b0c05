import random
import re
import time
from collections import Counter
from itertools import accumulate, product
from typing import Sequence

import pytest
from hypothesis import given, settings, strategies as st

from isods.partitions import (
    ParityClass,
    collapse,
    dominance_le,
    is_valid,
    is_very_even,
    lambda_evenly,
    lambda_tilde,
    least_clearing,
    partition,
    partitions_of,
    prefix_sums,
    sum_parts,
    transpose,
    valid_partitions,
)


def test_partition_normalizes():
    assert partition([1, 3, 2, 0]) == (3, 2, 1)
    assert partition([]) == ()
    assert partition(iter((True, 2.0, 0, 5))) == (5, 2, 1)
    with pytest.raises(ValueError):
        partition([2, -1])


def test_transpose_examples():
    assert transpose((3, 1)) == (2, 1, 1)
    assert transpose(()) == ()
    assert transpose((2, 2, 2)) == (3, 3)


def test_transpose_involutive():
    for p in partitions_of(9):
        assert transpose(transpose(p)) == p


def test_dominance_examples():
    assert dominance_le((2, 2, 1), (3, 1, 1))
    assert not dominance_le((3, 1, 1), (2, 2, 1))
    assert dominance_le((2, 2), (2, 2))
    with pytest.raises(ValueError):
        dominance_le((2, 1), (2, 2))


def test_dominance_partial_order():
    for n in range(0, 13):
        ps = partitions_of(n)
        for p in ps:
            assert dominance_le(p, p)
        for p in ps:
            for q in ps:
                if dominance_le(p, q) and dominance_le(q, p):
                    assert p == q
    ps = partitions_of(10)
    rng = random.Random(1)
    for _ in range(4000):
        p, q, r = (rng.choice(ps) for _ in range(3))
        if dominance_le(p, q) and dominance_le(q, r):
            assert dominance_le(p, r)


def _index_walk_le(p: Sequence[int], q: Sequence[int]) -> bool:
    """Reference: the former dominance_le, one index walk over both."""
    if sum(p) != sum(q):
        raise ValueError(f"dominance needs equal totals: {p} vs {q}")
    sp = sq = 0
    for i in range(max(len(p), len(q))):
        sp += p[i] if i < len(p) else 0
        sq += q[i] if i < len(q) else 0
        if sp > sq:
            return False
    return True


def test_dominance_equals_the_index_walk():
    pairs = 0
    for n in range(11):
        ps = partitions_of(n)
        for p, q in product(ps, ps):
            assert dominance_le(p, q) == _index_walk_le(p, q), (p, q)
            pairs += 1
    assert pairs == 3583
    # any integer tuples of one total, with zeros and negative entries
    rng = random.Random(20261020)
    for _ in range(50000):
        p = tuple(rng.randint(-3, 5) for _ in range(rng.randint(0, 7)))
        q = tuple(rng.randint(-3, 5) for _ in range(rng.randint(0, 6)))
        q += (sum(p) - sum(q),)
        assert dominance_le(p, q) == _index_walk_le(p, q), (p, q)
        assert dominance_le(q, p) == _index_walk_le(q, p), (q, p)
    for p, q in (((2, 1), (2, 2)), ((), (1,)), ((1, -1), (1,))):
        with pytest.raises(ValueError, match=f"dominance needs equal totals: {re.escape(str(p))} vs"):
            dominance_le(p, q)


def test_lambda_evenly_examples():
    assert lambda_evenly(5, 3) == (2, 2, 1)
    assert lambda_evenly(21, 5) == (5, 4, 4, 4, 4)
    assert lambda_evenly(7, 9) == (1,) * 7
    assert lambda_evenly(0, 4) == ()


def test_lambda_evenly_matches_sorted_reference_exhaustive():
    # the closed form is returned unsorted; the reference sorts and drops zeros
    for n in range(41):
        for r in range(1, 41):
            k, rem = divmod(n, r)
            assert lambda_evenly(n, r) == partition((k + 1,) * rem + (k,) * (r - rem)), (n, r)


def test_lambda_evenly_is_dominance_minimum():
    for n in range(1, 15):
        for r in range(1, n + 2):
            lam = lambda_evenly(n, r)
            assert len(lam) <= r
            for q in partitions_of(n):
                if len(q) <= r:
                    assert dominance_le(lam, q)


def _worklist_reference(n: int, bound: Sequence[int]):
    """least_clearing as a worklist relaxation: the least fixed point of
    P_k >= max(b_k, 0, ceil((P_{k-1} + P_{k+1}) / 2)) with P_W = n, reached by
    raising prefix sums one step at a time."""
    if max(bound, default=0) > n or (not bound and n):
        return None
    width = min(len(bound), n)
    prefix = [0, *(max(b, 0) for b in bound[:width])]
    prefix[width] = n
    todo = list(range(1, width))
    while todo:
        k = todo.pop()
        need = (prefix[k - 1] + prefix[k + 1] + 1) // 2
        if need > prefix[k]:
            if need > n:
                return None
            prefix[k] = need
            if k > 1:
                todo.append(k - 1)
            if k < width - 1:
                todo.append(k + 1)
    return tuple(b - a for a, b in zip(prefix, prefix[1:]) if b > a)


def _check_least_clearing(n, bound):
    least = least_clearing(n, bound)
    assert least == _worklist_reference(n, bound), (n, bound)
    if max(bound, default=0) > n or (not bound and n):
        assert least is None, (n, bound)
    else:
        assert sum(least) == n and len(least) <= len(bound), (n, bound, least)
        assert list(least) == sorted(least, reverse=True), (n, bound, least)
        assert all(p >= b for p, b in zip(prefix_sums(least, len(bound)), bound)), (n, bound, least)


def test_least_clearing_matches_worklist_exhaustive():
    # every bound of width <= 5 with entries in [-1, n + 1], n <= 7
    for n in range(8):
        for width in range(6):
            for bound in product(range(-1, n + 2), repeat=width):
                _check_least_clearing(n, bound)


def test_least_clearing_matches_worklist_random():
    rng = random.Random(20261019)
    for i in range(3000):
        n = rng.randint(0, 300)
        bound = [rng.randint(-3, n + 2) for _ in range(rng.randint(0, 60))]
        if i % 2:
            bound.sort()
        _check_least_clearing(n, bound)


def test_least_clearing_none_contract():
    assert least_clearing(0, []) == ()
    assert least_clearing(3, []) is None
    assert least_clearing(3, [0, 4]) is None
    assert least_clearing(3, [4, 0, 0]) is None
    assert least_clearing(3, [3]) == (3,)
    assert least_clearing(3, [0, 0, 3]) == (1, 1, 1)
    assert least_clearing(0, [-2, 0]) == ()
    # at most len(bound) parts, so a bound shorter than n pins P_W = n
    assert least_clearing(6, [1, 4, 5]) == (2, 2, 2)
    assert least_clearing(6, [1, 4, 5, 6]) == (2, 2, 1, 1)
    # spreads between the points where the least element meets the bound
    assert least_clearing(10, [4, 4, 9, 10]) == (4, 3, 2, 1)
    assert least_clearing(7, [-1, 5, 5, 7]) == (3, 2, 1, 1)


def test_least_clearing_answers_the_even_spread_first():
    # on the exhaustive domain, every cell with an answer: where the even
    # spread E(n, min(W, n)) clears the bound it is the answer, and where it
    # does not the answer differs from it
    spread_cells = other_cells = 0
    for n in range(8):
        for width in range(6):
            for bound in product(range(-1, n + 2), repeat=width):
                least = least_clearing(n, bound)
                if least is None:
                    continue
                w = min(width, n)
                spread = lambda_evenly(n, w) if w else ()
                if all(p >= b for p, b in zip(accumulate(spread), bound)):
                    assert least == spread, (n, bound)
                    spread_cells += 1
                else:
                    assert least != spread, (n, bound)
                    other_cells += 1
    assert (spread_cells, other_cells) == (32081, 106428)


def test_lambda_tilde_examples():
    assert lambda_tilde(6, 2) == (4, 2)
    assert lambda_tilde(4, 2) == (3, 1)
    assert lambda_tilde(9, 3) == (4, 3, 2)
    with pytest.raises(ValueError):
        lambda_tilde(3, 3)


def _lambda_tilde_reference(n, r):
    """lambda_tilde by enumeration: the partitions of n with exactly r parts
    other than lambda_evenly(n, r), and the one below all the others."""
    if r < 1 or n <= r:
        raise ValueError(f"lambda_tilde undefined for n={n}, r={r}")
    lam = lambda_evenly(n, r)
    pool = [p for p in partitions_of(n) if len(p) == r and p != lam]
    if not pool:
        raise ValueError(f"no partition of {n} with {r} parts other than {lam}")
    # the least prefix sums in lexicographic order, a linear extension of dominance
    best = min(pool, key=lambda p: list(accumulate(p)))
    if not all(dominance_le(best, q) for q in pool):
        raise ValueError(f"no unique next-smallest partition for n={n}, r={r}")
    return best


def test_lambda_tilde_properties():
    # the closed form against enumeration, error messages included; always
    # defined when 1 < r < n and r | n
    for n in range(31):
        for r in range(-1, n + 2):
            try:
                want = _lambda_tilde_reference(n, r)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    lambda_tilde(n, r)
                assert str(info.value) == str(exc), (n, r)
                assert not (1 < r < n and n % r == 0), (n, r)
                continue
            assert lambda_tilde(n, r) == want, (n, r)


def test_parity_examples():
    assert is_valid((2, 2, 1), ParityClass.B)
    assert not is_valid((3, 2, 1), ParityClass.C)
    assert is_valid((4, 4), ParityClass.D) and is_very_even((4, 4))
    assert not is_valid((4, 3, 2), ParityClass.B)  # two violations
    assert not is_valid((2, 2), ParityClass.B)  # wrong total parity


def _counter_rule(p, cls):
    total_parity, paired = cls.value
    return sum(p) % 2 == total_parity and all(c % 2 == 0 for v, c in Counter(p).items() if v % 2 == paired)


def test_is_valid_equals_the_counter_rule():
    cases = 0
    for cls in ParityClass:
        for n in range(26):
            for p in partitions_of(n):
                assert is_valid(p, cls) == _counter_rule(p, cls), (p, cls)
                cases += 1
    assert cases == 3 * sum(len(partitions_of(n)) for n in range(26))


def test_is_valid_equals_the_counter_rule_on_any_tuple():
    # rises, zeros and negative entries fall back to a count per value
    rng = random.Random(20261020)
    for _ in range(200000):
        p = tuple(rng.randint(-2, 5) for _ in range(rng.randint(0, 8)))
        cls = rng.choice(list(ParityClass))
        assert is_valid(p, cls) == _counter_rule(p, cls), (p, cls)


def test_is_valid_is_linear_in_the_parts():
    # a count per distinct value took 1.2 s here
    big = tuple(sorted([2 * i + 1 for i in range(500)] * 2 + [2] * 250500, reverse=True))
    start = time.perf_counter()
    assert is_valid(big, ParityClass.C)
    assert not is_valid(big[:-2] + (2, 1, 1), ParityClass.D)  # an odd run of 2s, found at its end
    assert time.perf_counter() - start < 0.2


def test_valid_partitions_filters_and_memoises():
    for cls in ParityClass:
        for n in range(12):
            valid = valid_partitions(n, cls)
            assert valid == tuple(p for p in partitions_of(n) if is_valid(p, cls))
            assert valid_partitions(n, cls) is valid
    assert valid_partitions(4, ParityClass.C) == ((4,), (2, 2), (2, 1, 1), (1, 1, 1, 1))


def test_collapse_examples():
    assert collapse((4, 3, 2), ParityClass.B) == (3, 3, 3)
    assert collapse((3, 2, 1), ParityClass.C) == (2, 2, 2)
    assert collapse((2, 2, 1), ParityClass.B) == (2, 2, 1)
    with pytest.raises(ValueError):
        collapse((2, 2), ParityClass.B)


def exhaustive_collapse(p, cls):
    dominated = [q for q in partitions_of(sum(p)) if is_valid(q, cls) and dominance_le(q, p)]
    best = max(dominated, key=lambda q: [sum(q[:i]) for i in range(1, len(p) + 2)])
    for q in dominated:
        assert dominance_le(q, best)
    return best


def test_collapse_matches_exhaustive_small():
    for cls in ParityClass:
        parity = 1 if cls is ParityClass.B else 0
        for n in range(1, 11):
            if n % 2 != parity:
                continue
            for p in partitions_of(n):
                assert collapse(p, cls) == exhaustive_collapse(p, cls), (p, cls)


def _greedy_collapse(p, cls):
    """The fixed-point loop collapse had before its scan over runs: one unit
    move at a time, recounting the parts after each."""
    total_parity, bad_residue = cls.value
    if sum(p) % 2 != total_parity:
        raise ValueError(f"{cls.name}-collapse needs {'odd' if total_parity else 'even'} total")
    parts = list(p)
    while True:
        counts = Counter(parts)
        viols = [v for v, c in counts.items() if v % 2 == bad_residue and c % 2 == 1]
        if not viols:
            break
        v = max(viols)
        i = max(ix for ix, x in enumerate(parts) if x == v)
        parts[i] -= 1
        j = i + 1
        while j < len(parts):
            if parts[j] + 1 <= parts[j - 1]:
                parts[j] += 1
                break
            j += 1
        else:
            parts.append(1)
    return partition(parts)


def _outcome(fn, p, cls):
    try:
        return fn(p, cls)
    except ValueError as exc:
        return str(exc)


def test_collapse_matches_the_greedy_loop_up_to_30():
    pairs = 0
    for n in range(31):
        for p in partitions_of(n):
            for cls in ParityClass:
                assert _outcome(collapse, p, cls) == _outcome(_greedy_collapse, p, cls), (p, cls)
                pairs += 1
    assert pairs == 85887


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 12), max_size=20), st.sampled_from(ParityClass), st.randoms(use_true_random=False))
def test_collapse_reads_a_permuted_or_zero_padded_partition_canonically(parts, cls, rng):
    if sum(parts) % 2 != cls.value[0]:
        parts.append(1)
    rng.shuffle(parts)
    want = collapse(partition(parts), cls)
    assert collapse(tuple(parts), cls) == want
    assert collapse(tuple(parts) + (0,) * 5, cls) == want


def test_partition_cuts_many_zeros_fast():
    # stripping one trailing zero per tuple slice took 2.8 s here
    start = time.perf_counter()
    assert partition([5] + [0] * 40000) == (5,)
    assert time.perf_counter() - start < 0.5


def test_collapse_idempotent_and_monotone():
    rng = random.Random(3)
    for cls in ParityClass:
        parity = 1 if cls is ParityClass.B else 0
        n = 9 if parity else 10
        ps = partitions_of(n)
        for p in ps:
            c = collapse(p, cls)
            assert collapse(c, cls) == c
        for _ in range(2000):
            p, q = rng.choice(ps), rng.choice(ps)
            if dominance_le(p, q):
                assert dominance_le(collapse(p, cls), collapse(q, cls))


def test_sum_parts_examples():
    assert sum_parts([(1, 1), (2, 1)]) == (3, 2)
    assert sum_parts([(3,)]) == (3,)
    assert sum_parts([(2, 2), (2, 2), (1,)]) == (5, 4)
    assert sum_parts([]) == ()


def _sum_parts_by_column(ps):
    """The per-column body sum_parts had before its single zip pass."""
    ps = list(ps)
    if not ps:
        return ()
    width = max((len(p) for p in ps), default=0)
    return partition(tuple(sum(p[i] if i < len(p) else 0 for p in ps) for i in range(width)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 40), max_size=12), max_size=8))
def test_sum_parts_matches_the_per_column_reference(ps):
    ps = [tuple(p) for p in ps]
    assert sum_parts(ps) == _sum_parts_by_column(ps)
    assert sum_parts(iter(ps)) == _sum_parts_by_column(ps)
