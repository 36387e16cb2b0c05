"""Rigidity index, cohomological-rigidity predicate, closed forms and the
classification scan over elliptic slopes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .orbits import AdjointOrbit, NilpotentOrbit, dim_centralizer, ls_induction
from .root_data import (
    EXCEPTIONAL_RANK,
    FrozenRecord,
    LieType,
    Slope,
    UnsupportedSlopeError,
    coxeter_number,
    dim_cartan_fixed,
    is_elliptic_regular,
    is_regular,
    phi_count,
    slope_cells,
)


class RigidityReport(FrozenRecord):
    """Delta = (nu_phi - dim_c + dim_tw) / 2 with its three terms, and the
    rigidity verdict: rigid needs an elliptic denominator, a non-resonant
    orbit and Delta = 0.  orbit_nonresonant is None when undecidable, and so
    is rigid when the denominator is elliptic and Delta = 0."""

    __slots__ = ("delta", "nu_phi", "dim_c", "dim_tw", "rigid", "m_elliptic", "orbit_nonresonant")


def _twice_m_delta(t: LieType, s: Slope, o_nil: NilpotentOrbit) -> int:
    """The integer 2m * Delta = d|Phi| - m(dim C - dim t^w) of a nilpotent
    orbit; an UnsupportedSlopeError when m is not regular."""
    if not is_regular(t, s.m):
        raise UnsupportedSlopeError(f"{s.m} is not regular for {t}")
    return s.d * phi_count(t) - s.m * (dim_centralizer(o_nil) - dim_cartan_fixed(t, s.m))


def delta_of_orbit(t: LieType, s: Slope, o_nil: NilpotentOrbit) -> Fraction:
    """Delta = (nu*|Phi| - dim C + dim t^w) / 2 for a nilpotent orbit; adjoint
    orbits share the value of their induced nilpotent orbit."""
    return Fraction(_twice_m_delta(t, s, o_nil), 2 * s.m)


def delta(t: LieType, s: Slope, orbit: NilpotentOrbit | AdjointOrbit) -> Fraction:
    """Delta of a nilpotent orbit, or of the induced orbit of an adjoint one."""
    return delta_of_orbit(t, s, ls_induction(orbit) if isinstance(orbit, AdjointOrbit) else orbit)


def rigidity_verdict(
    t: LieType, s: Slope, orbit: NilpotentOrbit | AdjointOrbit, o_nil: NilpotentOrbit
) -> RigidityReport:
    """The report for an orbit whose induced nilpotent orbit o_nil is already
    known, each term of Delta computed once: dim C is read back from 2m *
    Delta.  A nilpotent orbit is non-resonant."""
    twice_m_delta = _twice_m_delta(t, s, o_nil)
    d_phi, dim_tw = s.d * phi_count(t), dim_cartan_fixed(t, s.m)
    try:
        nonres = non_resonant(orbit) if isinstance(orbit, AdjointOrbit) else True
    except ValueError:
        nonres = None
    ell = dim_tw == 0  # m is regular, or _twice_m_delta has raised
    return RigidityReport(
        Fraction(twice_m_delta, 2 * s.m), Fraction(d_phi, s.m), (d_phi - twice_m_delta) // s.m + dim_tw, dim_tw,
        nonres if ell and twice_m_delta == 0 else False, ell, nonres,
    )


def rigidity_report(t: LieType, s: Slope, orbit: NilpotentOrbit | AdjointOrbit) -> RigidityReport:
    return rigidity_verdict(t, s, orbit, ls_induction(orbit) if isinstance(orbit, AdjointOrbit) else orbit)


def is_cohomologically_rigid(t: LieType, s: Slope, orbit) -> bool | None:
    """Requires an affirmative verdict; true iff the denominator is elliptic,
    the orbit is non-resonant, and Delta vanishes.  None when the denominator
    is elliptic and Delta vanishes but the resonance is undecidable."""
    from .solver import ds_solve

    ans = ds_solve(t, s, orbit)
    if ans.affirmative is not True:
        raise ValueError(f"verdict for ({t}, {s}) is not affirmative: {ans.affirmative}")
    return rigidity_verdict(t, s, orbit, ans.o_nil).rigid


# ---------------------------------------------------------------------------
# Resonance
# ---------------------------------------------------------------------------


def non_resonant(a: AdjointOrbit) -> bool:
    """No root takes a nonzero integer value on the semisimple part s of the
    residue: alpha(s) is not in Z minus 0 for every root alpha, the usual
    statement for a regular singular point, as ad(s) has the eigenvalues
    alpha(s) and 0.  (The source paper's own wording of the condition is not
    reproduced in this repository.)  Symbolic tags are treated as generic; a
    symbolic/rational mix is undecidable.

    In coordinates, s repeats each tag mult times and has m_s zeros (the
    eigenvalue 0 in A).  The root values are x_i - x_j in A, and +-x_i +- x_j
    for i != j in B/C/D, with +-x_i in B and +-2x_i in C.  So for one tag x
    they are x - y and x + y against the other tags y; x when the zero block
    is nonempty (always in B); and 2x in C, or for a block of multiplicity at
    least 2 (x_i + x_j with x_i = x_j = x).  x is an integer only when 2x is.

    One pass over the classes mod 1: x = n/d in lowest terms has the class
    (n mod d, d), so x - y is an integer iff x and y share a class, x + y
    iff class(x) = class(-y), and 2x iff class(x) = class(-x), that is
    d <= 2.  Within a class two values are equal iff their numerators are,
    so each class keeps the numerator of its first tag: a later tag of the
    class with another numerator lies a nonzero integer away.  In A the
    eigenvalue 0 of a nonempty zero block joins the tags.  In B/C/D a tag is
    resonant through x + y when an earlier tag y has the class of -x; a pair
    y = -x gives x + y = 0 and is not resonant through it."""
    rat = [b for b in a.blocks if isinstance(b.tag, (int, Fraction))]
    if len(rat) < len(a.blocks):
        if rat:
            raise ValueError("mixed symbolic and rational eigenvalue tags are undecidable")
        return True
    fam = a.type.family
    first: dict[tuple[int, int], int] = {(0, 1): 0} if fam == "A" and a.zero_block else {}
    for b in rat:
        n, d = b.tag.numerator, b.tag.denominator
        if fam != "A":
            if n and d <= 2 and (fam == "C" or b.mult > 1 or d == 1 and a.zero_block):
                return False
            y = first.get((-n % d, d))
            if y is not None and y != -n:
                return False
        if first.setdefault((n % d, d), n) != n:
            return False
    return True


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def _kd(m: int, d: int) -> tuple[int, int]:
    k = m // d
    return k, m - k * d


def _orthogonal_row(ell: int, m: int, d: int) -> int:
    """4 Delta_nu on the B/D row where m divides an orthogonal block count
    (2n in B, 2n or 2n - 2 in D) into ell blocks; ell is odd only for even m."""
    k, dp = _kd(m, d)
    lead = ell * (ell - 1) * dp * (d - dp)
    if ell % 2:
        if k % 2 == 0:
            return lead + ell * dp * (d - dp - 1)
        return lead + ell * (dp + 1) * (d - dp - 2) + 2 * (ell - 1)
    if m % 2 == 0 and d == 1:
        return 0
    shift = 2 if m % 2 == 0 else 1
    if k % 2 == 0:
        return lead + ell * ((dp - 2) * (d - dp - 1) - shift)
    return lead + ell * ((dp - 1) * (d - dp - 2) - shift)


def closed_form_delta(t: LieType, s: Slope) -> Fraction:
    """Row formulas for Delta_nu in the classical types.

    Valid for nu < 1 at every regular denominator, and for every d at the
    Coxeter denominator except past the Airy slope in type D; outside that
    domain the rows do not compute Delta of the zero orbit and an
    UnsupportedSlopeError is raised.  All four families carry the common
    leading term l(l-1)/4 d'(d-d'), with l the block count of the matching
    divisibility.  Each row computes the integer 4 Delta_nu.
    """
    d, m = s.d, s.m
    fam, n = t.family, t.rank
    if t.is_exceptional:
        raise UnsupportedSlopeError("closed-form Delta rows are classical")
    if not is_regular(t, m):
        raise UnsupportedSlopeError(f"{m} not regular for {t}")
    if d >= m and m != coxeter_number(t):
        raise UnsupportedSlopeError(
            f"Delta rows apply for nu < 1 or m = h; got {s} for {t}"
        )
    if fam == "D" and d > m + 1:
        # the D rows extend past nu = 1 only to the Airy slope 1 + 1/h
        raise UnsupportedSlopeError(f"Delta rows for D stop at d = h + 1; got {s}")
    k, dp = _kd(m, d)
    if fam == "A":
        vals = [
            2 * ell * (ell - 1) * dp * (d - dp) + 2 * ell * (dp - 1) * (d - dp - 1)
            for ell in (N // m for N in (n + 1, n) if N % m == 0)
        ]
    elif fam == "C":
        ell = 2 * n // m
        # odd m adds one inside the bracket
        bracket = dp * (d - dp - 1) if k % 2 == 0 else (dp - 1) * (d - dp)
        vals = [ell * (ell - 1) * dp * (d - dp) + ell * (bracket + m % 2)]
    else:
        # B carries one orthogonal block count, 2n; D two, 2n and 2n - 2
        counts = (2 * n, 2 * n - 2) if fam == "D" else (2 * n,)
        vals = [_orthogonal_row(c // m, m, d) for c in counts if c % m == 0]
    if not vals:
        raise UnsupportedSlopeError(f"no Delta row matches {t} at {s}")
    assert all(v == vals[0] for v in vals), (t, s, vals)
    return Fraction(vals[0], 4)


def coxeter_delta_column(t: LieType, d: int) -> Fraction:
    """Delta at slope d/h from the Coxeter-solution table columns.

    Here k and d' come from writing N = d*k + d' for the relevant defining
    count N (n+1, 2n+1, 2n, 2n-1).  The classical columns hold on the domain
    of closed_form_delta at m = h: d >= 1 prime to h, and d <= h + 1 in
    type D.  Any other d raises UnsupportedSlopeError, as does an
    exceptional d without a table entry.
    """
    fam, n = t.family, t.rank
    if t.is_exceptional:
        from . import exceptional_data as xd

        key = (fam, d)
        if key not in xd.EXC_COXETER:
            raise UnsupportedSlopeError(f"no Coxeter table entry for {key}")
        return Fraction(xd.EXC_COXETER[key][1])
    h = coxeter_number(t)
    if d < 1 or gcd(d, h) != 1:
        raise UnsupportedSlopeError(f"Coxeter columns need d >= 1 prime to h = {h}; got d = {d} for {t}")
    if fam == "D" and d > h + 1:
        raise UnsupportedSlopeError(f"Coxeter columns for D stop at d = h + 1; got d = {d} for {t}")
    N = {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n - 1}[fam]
    k, dp = divmod(N, d)
    # 4 Delta; B and D swap the two brackets of C
    if fam == "A":
        v = 2 * (dp - 1) * (d - dp - 1)
    elif (fam == "C") == (k % 2 == 0):
        v = dp * (d - dp - 1)
    else:
        v = (dp - 1) * (d - dp)
    return Fraction(v, 4)


# ---------------------------------------------------------------------------
# Classification scan
# ---------------------------------------------------------------------------


def rigid_predicate(fam: str, n: int, m: int, d: int) -> bool:
    """Elliptic slopes d/m with Delta = 0, row by row.

    Two rows are delicate: the C-row divisibility d | m+-1 only holds at
    m = 2n (proper even divisors admit d = 1 alone), and D carries the
    family m = n even, d = 3, mirroring the B row.  The only slopes with
    nu > 1 are d = h + 1 at m = h.
    """
    h = {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2}[fam]
    if d > m and not (m == h and d == h + 1):
        return False
    if fam == "A":
        return m == n + 1 and ((n + 2) % d == 0 or n % d == 0)
    if fam == "B":
        if m == 2 * n and ((n + 1) % d == 0 or (2 * n + 1) % d == 0):
            return True
        if m == n and n % 2 == 0 and d == 3:
            return True
        return m % 2 == 0 and (2 * n) % m == 0 and d == 1
    if fam == "C":
        if m == 2 * n and ((2 * n - 1) % d == 0 or (2 * n + 1) % d == 0):
            return True
        return (2 * n) % m == 0 and m % 2 == 0 and d == 1
    # D
    if m % 2 == 0 and n % m == 0 and d == 1:
        return True
    if (2 * n - 2) % m == 0 and (n - 1) % m != 0 and d == 1:
        return True
    if m == n and n % 2 == 0 and d == 3:
        return True
    return m == 2 * n - 2 and ((2 * n) % d == 0 or (2 * n - 1) % d == 0)


def scan_rigid(family: str, max_rank: int):
    """All (rank, m, d) with elliptic m, gcd(d, m) = 1, d < 2m and Delta = 0,
    each with its threshold orbit.  For exceptional families, returns the
    embedded numerics rows instead."""
    if family in EXCEPTIONAL_RANK:
        from . import exceptional_data as xd

        out = []
        for fam, nu, lbl, exist in xd.POTENTIALLY_RIGID_EXC:
            if fam == family:
                out.append(
                    {
                        "rank": EXCEPTIONAL_RANK[fam],
                        "m": nu.denominator,
                        "d": nu.numerator,
                        "orbit": lbl,
                        "existence": exist or "numerics-only",
                    }
                )
        return out
    from .solver import o_nu

    out = []
    cells = slope_cells(family, max_rank, lambda t: range(2, coxeter_number(t) + 1), lambda m: range(1, 2 * m))
    for t, m, d, s in cells:
        if not is_elliptic_regular(t, m):
            continue
        orbit = o_nu(t, s)
        if _twice_m_delta(t, s, orbit) == 0:
            out.append({"rank": t.rank, "m": m, "d": d, "orbit": list(orbit.partition)})
    return out
