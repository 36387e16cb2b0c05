import random
import time
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from isods import linalg, orbits
from isods.checks import _random_adjoint, check_centralizer_oracle
from isods.linalg import sparse_rank
from isods.orbits import (
    AdjointOrbit,
    Block,
    HasseDiagram,
    NilpotentOrbit,
    UnsupportedComparisonError,
    builtin_hasse,
    closure_le,
    closure_le_detail,
    cone_contains,
    dim_centralizer,
    dim_centralizer_oracle,
    ls_induction,
    zero_orbit,
)
from isods.partitions import (
    ParityClass,
    collapse,
    dominance_le,
    is_valid,
    partition,
    partitions_of,
    sum_parts,
    transpose,
)
from isods.root_data import LieType, defining_dim, lie_type


def test_orbit_validation():
    B2 = lie_type("B", 2)
    with pytest.raises(ValueError):
        NilpotentOrbit(B2, (4, 1))  # B-invalid
    with pytest.raises(ValueError):
        NilpotentOrbit(B2, (3, 1))  # wrong total
    with pytest.raises(ValueError):
        NilpotentOrbit(lie_type("D", 4), (5, 3), very_even_label="I")  # not very even
    NilpotentOrbit(lie_type("D", 4), (4, 4), very_even_label="II")
    with pytest.raises(ValueError):
        NilpotentOrbit(lie_type("F4"))  # no label


def test_zero_orbit_is_built_once_per_type():
    types = [lie_type(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)) for n in range(lo, 13)]
    for t in types + [lie_type(f) for f in ("G2", "F4", "E6", "E7", "E8")]:
        z = zero_orbit(t)
        assert zero_orbit(t) is z and zero_orbit(LieType(t.family, t.rank)) is z
        fresh = NilpotentOrbit(t, label="0") if t.is_exceptional else NilpotentOrbit(t, (1,) * defining_dim(t))
        assert z == fresh and z is not fresh


def test_dim_centralizer_examples():
    A3 = lie_type("A", 3)
    assert dim_centralizer(NilpotentOrbit(A3, (4,))) == 3  # regular: rank
    B2 = lie_type("B", 2)
    assert dim_centralizer(NilpotentOrbit(B2, (2, 2, 1))) == 6
    assert dim_centralizer(NilpotentOrbit(lie_type("F4"), label="A1")) == 36
    with pytest.raises(ValueError):
        dim_centralizer(NilpotentOrbit(lie_type("F4"), label="Z9"))


def _dim_centralizer_by_columns(fam, p):
    """dim C from the squared column lengths of p, Collingwood-McGovern 6.1."""
    sq = sum(x * x for x in transpose(p))
    odd = sum(1 for x in p if x % 2)
    return {"A": sq - 1, "C": (sq + odd) // 2}.get(fam, (sq - odd) // 2)


def _classical_types(p):
    """(family, type) for each classical type where p is a valid orbit."""
    total = sum(p)
    out = [("A", lie_type("A", total - 1))] if total > 1 else []
    for fam, n in (("B", (total - 1) // 2), ("C", total // 2), ("D", total // 2)):
        if n >= (3 if fam == "D" else 2) and defining_dim(lie_type(fam, n)) == total and is_valid(p, ParityClass[fam]):
            out.append((fam, lie_type(fam, n)))
    return out


def test_dim_centralizer_matches_the_column_reference():
    seen = set()
    for total in range(2, 21):
        for p in partitions_of(total):
            for fam, t in _classical_types(p):
                assert dim_centralizer(NilpotentOrbit(t, p)) == _dim_centralizer_by_columns(fam, p), (t, p)
                seen.add(fam)
    assert seen == {"A", "B", "C", "D"}


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(st.integers(1, 60), max_size=12), st.lists(st.integers(1, 4), max_size=80))
       .filter(lambda xs: 6 <= sum(xs) <= 299))
def test_dim_centralizer_matches_the_column_reference_at_random(parts):
    p = partition(parts)
    for fam in ("B", "C", "D"):
        # a part 1 more fixes the parity of the total, the collapse that of the parts
        total_odd = fam == "B"
        q = collapse(p if sum(p) % 2 == total_odd else partition(p + (1,)), ParityClass[fam])
        n = sum(q) // 2
        t = lie_type(fam, n)
        assert dim_centralizer(NilpotentOrbit(t, q)) == _dim_centralizer_by_columns(fam, q), (t, q)
    t = lie_type("A", sum(p) - 1)
    assert dim_centralizer(NilpotentOrbit(t, p)) == _dim_centralizer_by_columns("A", p), p


def test_dim_centralizer_of_a_long_hook_is_fast():
    # the column route took 0.9 s on this hook, quadratic in the rank
    o = NilpotentOrbit(lie_type("B", 8000), (8001,) + (1,) * 8000)
    start = time.perf_counter()
    dim = dim_centralizer(o)
    assert time.perf_counter() - start < 0.5
    # the hook (2k+1, 1^2k) of B_2k: sq = (2k+1)^2 + 2k, one odd part per row
    assert dim == ((8001 ** 2 + 8000) - 8001) // 2


def test_oracle_examples():
    assert dim_centralizer_oracle(NilpotentOrbit(lie_type("C", 2), (4,))) == 2
    assert dim_centralizer_oracle(NilpotentOrbit(lie_type("C", 3), (2, 2, 2))) == 9
    assert dim_centralizer_oracle(NilpotentOrbit(lie_type("B", 2), (3, 1, 1))) == 4
    with pytest.raises(ValueError):
        dim_centralizer_oracle(NilpotentOrbit(lie_type("B", 8), (17,)), bound=14)


def test_oracle_agrees_small():
    for fam, dim_of, lo in (("B", lambda n: 2 * n + 1, 2), ("C", lambda n: 2 * n, 2), ("D", lambda n: 2 * n, 3)):
        for n in range(lo, 6):
            t = lie_type(fam, n)
            for p in partitions_of(dim_of(n)):
                if not is_valid(p, ParityClass[fam]):
                    continue
                o = NilpotentOrbit(t, p)
                assert dim_centralizer(o) == dim_centralizer_oracle(o), (fam, n, p)
    for n in range(2, 9):
        t = lie_type("A", n - 1)
        for p in partitions_of(n):
            o = NilpotentOrbit(t, p)
            assert dim_centralizer(o) == dim_centralizer_oracle(o)



def _unsplit_oracle(o: NilpotentOrbit) -> int:
    """The centralizer dimension from all N² (type A) or N(N±1)/2 rows of
    ad(e) at once, with no splitting by block pairs: the reference for the
    blockwise kernel."""
    p = o.partition
    N = sum(p)
    if o.type.family == "A":
        entries, _ = orbits._jordan_shift_entries(p)
        by_c: dict[int, list[int]] = {}
        by_r: dict[int, list[int]] = {}
        for (r, c) in entries:
            by_c.setdefault(c, []).append(r)
            by_r.setdefault(r, []).append(c)
        # ad(e) on gl_N: E_(a,b) -> e E_(a,b) - E_(a,b) e
        rows = []
        for a in range(N):
            for b in range(N):
                out: dict[int, int] = {}
                for r in by_c.get(a, ()):
                    out[r * N + b] = out.get(r * N + b, 0) + 1
                for c in by_r.get(b, ()):
                    out[a * N + c] = out.get(a * N + c, 0) - 1
                rows.append({k: v for k, v in out.items() if v})
        return N * N - sparse_rank(rows) - 1

    symplectic = o.type.family == "C"
    entries, form = orbits._form_blocks(p, symplectic)
    # g = { B^{-1} S } with S antisymmetric (orthogonal) / symmetric (symplectic);
    # ad(e) corresponds to S -> e^T S + S e on that space.
    if symplectic:
        basis = [(a, b) for a in range(N) for b in range(a, N)]
    else:
        basis = [(a, b) for a in range(N) for b in range(a + 1, N)]
    coord = {ab: i for i, ab in enumerate(basis)}

    def add(target: dict[int, int], a: int, b: int, v: int):
        if a == b:
            if symplectic:
                target[coord[(a, b)]] = target.get(coord[(a, b)], 0) + v
            return
        if a < b:
            target[coord[(a, b)]] = target.get(coord[(a, b)], 0) + v
        else:
            sgn = 1 if symplectic else -1
            target[coord[(b, a)]] = target.get(coord[(b, a)], 0) + sgn * v

    by_r = {}
    for (r, c) in entries:
        by_r.setdefault(r, []).append(c)
    sym_sign = 1 if symplectic else -1
    rows = []
    for (a, b) in basis:
        # S = E_(a,b) + sym_sign E_(b,a) (single term when a == b)
        out = {}
        pairs = [(a, b, 1)]
        if a != b:
            pairs.append((b, a, sym_sign))
        for (x, y, v) in pairs:
            # each entry (x, c) of e adds S_(x, y) to (e^T S)_(c, y), and
            # each entry (y, c) adds it to (S e)_(x, c)
            for c in by_r.get(x, ()):
                add(out, c, y, v)
            for c in by_r.get(y, ()):
                add(out, x, c, v)
        rows.append({k: v for k, v in out.items() if v})
    return len(basis) - sparse_rank(rows)


def _oracle_types(max_total):
    """Every valid Jordan type of total at most max_total, as check_centralizer_oracle walks them."""
    for fam in "ABCD":
        for n in range(3 if fam == "D" else (1 if fam == "A" else 2), max_total):
            t = lie_type(fam, n)
            if defining_dim(t) > max_total:
                break
            for p in partitions_of(defining_dim(t)):
                if fam == "A" or is_valid(p, ParityClass[fam]):
                    yield NilpotentOrbit(t, p)


def test_blockwise_oracle_matches_unsplit_kernel():
    cases = 0
    for o in _oracle_types(10):
        assert dim_centralizer_oracle(o, bound=10) == _unsplit_oracle(o), (o.type, o.partition)
        cases += 1
    assert cases == 242  # as check_centralizer_oracle(10) counts
    # a partition that no orthogonal or symplectic form admits (the orbit
    # type rejects it, so a bare object carries it), and a total above bound
    for fam, n, p in (("B", 2, (4, 1)), ("C", 2, (3, 1)), ("D", 4, (4, 2, 1, 1))):
        with pytest.raises(ValueError, match="not valid for this form"):
            dim_centralizer_oracle(SimpleNamespace(type=lie_type(fam, n), partition=p))
    with pytest.raises(ValueError, match="exceeds oracle bound"):
        dim_centralizer_oracle(NilpotentOrbit(lie_type("A", 10), (11,)), bound=10)


def _block_pair_oracle(o):
    """The matrix-kernel oracle as it once counted pieces: one entry per
    ordered pair of Jordan blocks in A, per pair i < j and per block in
    B/C/D, with the same per-shape ranks."""
    p, N = o.partition, sum(o.partition)
    if o.type.family == "A":
        pieces = Counter((a, b, 0) for a in p for b in p)
        down, dim = False, N * N - 1
    else:
        sym = 1 if o.type.family == "C" else -1
        pieces = Counter((a, b, 0) for i, a in enumerate(p) for b in p[i + 1:])
        pieces.update((a, a, sym) for a in p)
        down, dim = True, N * (N + sym) // 2
    return dim - sum(n * orbits._shift_piece_rank(a, b, down, s) for (a, b, s), n in pieces.items())


def test_multiplicity_counts_match_the_block_pair_enumeration():
    cases = 0
    for o in _oracle_types(20):
        assert dim_centralizer_oracle(o, bound=20) == _block_pair_oracle(o), (o.type, o.partition)
        cases += 1
    assert cases == 4141


def test_cached_piece_ranks_match_uncached():
    piece = orbits._shift_piece_rank
    for a in range(1, 15):
        for b in range(1, 15):
            for down in (True, False):
                for sym in (-1, 0, 1) if a == b else (0,):
                    assert piece(a, b, down, sym) == piece.__wrapped__(a, b, down, sym), (a, b, down, sym)


def test_one_elimination_per_piece_shape(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(1)
        return sparse_rank(rows)

    monkeypatch.setattr(linalg, "sparse_rank", counting)
    orbits._shift_piece_rank.cache_clear()
    assert check_centralizer_oracle(14) == (842, None)
    assert len(calls) == orbits._shift_piece_rank.cache_info().currsize == 161


def test_oracle_same_with_cold_and_warm_piece_cache():
    cold = []
    for o in _oracle_types(14):
        orbits._shift_piece_rank.cache_clear()
        cold.append(dim_centralizer_oracle(o))
    assert len(cold) == 842
    assert [dim_centralizer_oracle(o) for o in _oracle_types(14)] == cold


def test_oracle_rejects_a_form_e_is_not_skew_adjoint_for(monkeypatch):
    form_blocks = orbits._form_blocks

    def flipped(p, symplectic):  # one sign of the form flipped, on both sides
        entries, form = form_blocks(p, symplectic)
        (i, j), v = next((ij, v) for ij, v in form.items() if ij[0] != ij[1])
        return entries, {**form, (i, j): -v, (j, i): -form[(j, i)]}

    monkeypatch.setattr(orbits, "_form_blocks", flipped)
    for fam, n, p in (("B", 3, (5, 1, 1)), ("C", 3, (4, 2)), ("D", 4, (3, 3, 1, 1))):
        with pytest.raises(ValueError, match="not skew-adjoint"):
            dim_centralizer_oracle(NilpotentOrbit(lie_type(fam, n), p))

def test_ls_induction_examples():
    A3 = lie_type("A", 3)
    a = AdjointOrbit(A3, (Block("a", 2, (1, 1)), Block("b", 2, (2,))), ())
    assert ls_induction(a).partition == (3, 1)
    B4 = lie_type("B", 4)
    a = AdjointOrbit(B4, (Block("a", 2, (2,)),), (3, 1, 1))
    assert ls_induction(a).partition == (7, 1, 1)
    a = AdjointOrbit(B4, (), (3, 3, 1, 1, 1))
    assert ls_induction(a).partition == (3, 3, 1, 1, 1)


def test_ls_induction_valid_and_monotone():
    rng = random.Random(5)
    for fam in ("B", "C", "D"):
        cls = ParityClass[fam]
        for _ in range(400):
            n = rng.randint(3, 8)
            t = lie_type(fam, n)
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
                Block(f"a{i}", m, rng.choice(list(partitions_of(m)))) for i, m in enumerate(mults)
            )
            a = AdjointOrbit(t, blocks, rng.choice(tails))
            ind = ls_induction(a)
            assert is_valid(ind.partition, cls)
            if mults:
                # enlarging one block partition never decreases the induction
                j = rng.randrange(len(mults))
                bigger = [q for q in partitions_of(mults[j]) if dominance_le(blocks[j].partition, q)]
                b2 = list(blocks)
                b2[j] = Block(blocks[j].tag, mults[j], rng.choice(bigger))
                a2 = AdjointOrbit(t, tuple(b2), a.zero_block)
                assert dominance_le(ind.partition, ls_induction(a2).partition)


def _doubling_loop_induction(a):
    """The B/C/D induction as a hand-written loop: the componentwise sum of
    the nonzero blocks, each part doubled and the zero block's part added,
    then the parity collapse."""
    t = a.type
    d = sum_parts([b.partition for b in a.blocks])
    f = a.zero_block
    width = max(len(d), len(f))
    p = partition(tuple(2 * (d[i] if i < len(d) else 0) + (f[i] if i < len(f) else 0) for i in range(width)))
    return NilpotentOrbit(t, collapse(p, ParityClass[t.family]))


def test_ls_induction_equals_the_doubling_loop():
    rng = random.Random(11)
    draws = 0
    for fam in ("B", "C", "D"):
        for n in range(3 if fam == "D" else 2, 11):
            for _ in range(30):
                t, _, a = _random_adjoint(rng, fam, n)
                assert ls_induction(a) == _doubling_loop_induction(a), a
                draws += 1
    assert draws == 30 * (9 + 9 + 8)


def test_ls_induction_of_many_blocks_and_a_long_zero_block_is_fast():
    # padding every block to the zero block's length took 0.5-0.8 s here
    t = lie_type("B", 40400)
    a = AdjointOrbit(t, tuple(Block(Fraction(i, 10007), 1, (1,)) for i in range(1, 401)), (1,) * 80001)
    start = time.perf_counter()
    o = ls_induction(a)
    assert time.perf_counter() - start < 0.2
    assert o.partition == (801,) + (1,) * 80000


def test_zero_eigenvalue_belongs_to_the_zero_block():
    zero = Fraction(0)
    for t, block, z in (
        (lie_type("A", 3), Block(zero, 2, (2,)), (1, 1)),
        (lie_type("B", 2), Block(zero, 1, (1,)), (1, 1, 1)),
        (lie_type("C", 2), Block(zero, 2, (2,)), ()),
        (lie_type("D", 3), Block(zero, 2, (1, 1)), (1, 1)),
    ):
        with pytest.raises(ValueError, match="eigenvalue 0"):
            AdjointOrbit(t, (block,), z)
        assert AdjointOrbit(t, (Block("a", block.mult, block.partition),), z).zero_block == z
    # type A may write 0 as a block while its zero block is empty
    AdjointOrbit(lie_type("A", 3), (Block(zero, 2, (2,)), Block("a", 2, (1, 1))), ())


def test_cone_contains():
    A3 = lie_type("A", 3)
    a = AdjointOrbit(A3, (Block("a", 2, (1, 1)), Block("b", 2, (2,))), ())
    assert cone_contains(NilpotentOrbit(A3, (3, 1)), a)
    B2 = lie_type("B", 2)
    a = AdjointOrbit(B2, (Block("a", 1, (1,)),), (1, 1, 1))
    assert ls_induction(a).partition == (3, 1, 1)
    assert cone_contains(NilpotentOrbit(B2, (2, 2, 1)), a)
    assert not cone_contains(NilpotentOrbit(B2, (5,)), a)


def test_closure_exceptional():
    F4 = lie_type("F4")
    le = lambda a, b: closure_le(NilpotentOrbit(F4, label=a), NilpotentOrbit(F4, label=b))
    assert le("A1", "~A1")
    assert not le("B3", "C3") and not le("C3", "B3")
    assert le("0", "A1") and le("B2", "F4")
    assert not le("A2", "~A2") and not le("~A2", "A2")
    E6 = lie_type("E6")
    with pytest.raises(UnsupportedComparisonError):
        closure_le(NilpotentOrbit(E6, label="2A2"), NilpotentOrbit(E6, label="A4+A1"))
    # zero and regular short-circuit without Hasse data
    assert closure_le(NilpotentOrbit(E6, label="0"), NilpotentOrbit(E6, label="2A2"))
    assert closure_le(NilpotentOrbit(E6, label="2A2"), NilpotentOrbit(E6, label="E6"))


def test_user_supplied_hasse():
    E6 = lie_type("E6")
    h = HasseDiagram(("0", "A1", "A2"), (("A2", "A1"), ("A1", "0")), {"A2": 30, "A1": 56, "0": 78})
    assert closure_le(NilpotentOrbit(E6, label="A1"), NilpotentOrbit(E6, label="A2"), hasse=h)


def test_very_even_rule():
    D4 = lie_type("D", 4)
    one = NilpotentOrbit(D4, (4, 4), very_even_label="I")
    two = NilpotentOrbit(D4, (4, 4), very_even_label="II")
    assert not closure_le(one, two) and not closure_le(two, one)
    assert closure_le(one, one)
    unlabeled = NilpotentOrbit(D4, (4, 4))
    ok, ambiguous = closure_le_detail(unlabeled, one)
    assert ok and ambiguous
    # Every pair of very even orbits of D4, D6 and D8, each labelled I, II or
    # not at all: distinct partitions compare by dominance whatever their
    # labels, and one partition by its labels, ambiguously if one is missing
    # (Collingwood-McGovern, Thm 6.2.5).
    for n in (4, 6, 8):
        t = lie_type("D", n)
        very_even = [p for p in partitions_of(2 * n) if is_valid(p, ParityClass.D) and all(x % 2 == 0 for x in p)]
        assert len(very_even) >= 2
        orbs = [NilpotentOrbit(t, p, very_even_label=lab) for p in very_even for lab in ("I", "II", None)]
        for o1 in orbs:
            for o2 in orbs:
                a, b = o1.very_even_label, o2.very_even_label
                if o1.partition != o2.partition:
                    want = (dominance_le(o1.partition, o2.partition), False)
                else:
                    want = (a == b, False) if a and b else (True, True)
                assert closure_le_detail(o1, o2) == want, (o1, o2)


def test_f4_hasse_closure_is_transitive_closure_of_covers():
    h = builtin_hasse("F4")
    # recompute reachability independently and compare
    import itertools

    labels = sorted(h.orbits)
    below = {a: {a} for a in labels}
    changed = True
    while changed:
        changed = False
        for hi, lo in h.covers:
            for x in list(below[lo]):
                if x not in below[hi]:
                    below[hi].add(x)
                    changed = True
    for a, b in itertools.product(labels, labels):
        assert h.le(a, b) == (a in below[b])
