"""Deterministic CSV regeneration of the solution and rigidity tables.

Each generator builds its rows as tuples, writing each partition with
`_part`, and `_csv` writes every line, each cell by `str`.  Each generator
imports the engine modules it runs, so a process that prints an embedded
exceptional table compiles no classical solver."""

from __future__ import annotations

from . import exceptional_data as xd
from .root_data import EXCEPTIONAL_RANK, TABLE_NAMES, UnsupportedSlopeError, coxeter_number, lie_type, phi_count, slope_cells


def _part(p) -> str:
    """A partition as one cell: [p1,p2,...]."""
    return "[" + ",".join([str(x) for x in p]) + "]"


def _csv(header, rows) -> str:
    """The header line, then one line per row, each cell written by str."""
    # One %-format per line: "%s" is str, and under CPython 3.11 it costs
    # less than a str call per cell or a str.format per line.
    line = ",".join(["%s"] * len(header)) + "\n"
    return "".join(map(line.__mod__, (header, *rows)))


def _denominators(t):
    return range(2, 2 * t.rank + 2)


def t_clCox(family: str, max_rank: int) -> str:
    from .rigidity import delta_of_orbit
    from .solver import o_nu

    def rows():
        for t, _, d, s in slope_cells(family, max_rank, lambda t: (coxeter_number(t),), lambda h: range(1, h)):
            orbit = o_nu(t, s)
            yield family, t.rank, d, _part(orbit.partition), delta_of_orbit(t, s, orbit)

    return _csv(("family", "rank", "d", "o_nu", "delta"), rows())


def t_excCox() -> str:
    return _csv(
        ("family", "d", "o_nu", "delta"),
        ((fam, d, label, delta) for (fam, d), (label, delta) in sorted(xd.EXC_COXETER.items())),
    )


def t_completecl(family: str, max_rank: int) -> str:
    from .solver import o_nu_rows

    return _csv(
        ("family", "rank", "m", "d", "row", "o_nu"),
        (
            (family, t.rank, m, d, row.row_id, _part(row.orbit.partition))
            for t, m, d, s in slope_cells(family, max_rank, _denominators, lambda m: range(1, m))
            for row in o_nu_rows(t, s)
        ),
    )


def t_clq(family: str, rank: int, s, mults: tuple[int, ...], zero_mult: int) -> str:
    from .solver import q_candidates

    return _csv(
        ("family", "rank", "slope", "linear_factors", "zero_sector"),
        (
            (family, rank, s, ";".join([_part(p) for p in c.linear]), _part(c.tail))
            for c in q_candidates(lie_type(family, rank), s, mults, zero_mult)
        ),
    )


def t_cl_index_rig(family: str, max_rank: int) -> str:
    from .rigidity import closed_form_delta

    def rows():
        for t, m, d, s in slope_cells(family, max_rank, _denominators, lambda m: range(1, 2 * m)):
            try:
                delta = closed_form_delta(t, s)
            except UnsupportedSlopeError:
                continue
            yield family, t.rank, m, d, delta

    return _csv(("family", "rank", "m", "d", "delta"), rows())


def t_cl_ell_rig(family: str, max_rank: int) -> str:
    from .rigidity import scan_rigid

    # An exceptional scan names its orbits by label; a classical one lists partitions.
    orbit = str if family in EXCEPTIONAL_RANK else _part
    return _csv(
        ("family", "rank", "m", "d", "o_nu"),
        ((family, e["rank"], e["m"], e["d"], orbit(e["orbit"])) for e in scan_rigid(family, max_rank)),
    )


def dssoln_f4() -> str:
    return _csv(("nu", "o_nu", "delta"), ((nu, label, delta) for nu, (label, delta) in sorted(xd.F4_SMALL.items())))


def potigexc_numerics() -> str:
    from .orbits import NilpotentOrbit, dim_centralizer

    def rows():
        for fam, nu, label, exist in xd.POTENTIALLY_RIGID_EXC:
            t = lie_type(fam)
            dc = dim_centralizer(NilpotentOrbit(t, label=label))
            yield fam, nu, label, nu * phi_count(t), dc, exist or "numerics-only"

    return _csv(("family", "nu", "o_nil", "nu_phi", "dim_c", "existence"), rows())


def generate(name: str, family: str | None = None, max_rank: int = 6, **kw) -> str:
    family = family or "B"
    if name == "t_clCox":
        return t_clCox(family, max_rank)
    if name == "t_excCox":
        return t_excCox()
    if name == "t_completecl":
        return t_completecl(family, max_rank)
    if name == "t_cl_index_rig":
        return t_cl_index_rig(family, max_rank)
    if name == "t_cl_ell_rig":
        return t_cl_ell_rig(family, max_rank)
    if name == "DSsolnF4":
        return dssoln_f4()
    if name == "potigexc-numerics":
        return potigexc_numerics()
    if name == "t_clq":
        return t_clq(family, kw["rank"], kw["slope"], kw["mults"], kw["zero_mult"])
    raise ValueError(f"unknown table {name!r}; choose one of {TABLE_NAMES}")
