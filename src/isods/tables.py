"""Deterministic CSV regeneration of the solution and rigidity tables.

Each generator imports the engine modules it runs, so a process that prints
an embedded exceptional table compiles no classical solver."""

from __future__ import annotations

import io

from . import exceptional_data as xd
from .root_data import TABLE_NAMES, UnsupportedSlopeError, coxeter_number, lie_type, phi_count, slope_cells


def _fmt_partition(p) -> str:
    return "[" + ",".join(str(x) for x in p) + "]"


def _csv(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _denominators(t):
    return range(2, 2 * t.rank + 2)


def t_clCox(family: str, max_rank: int) -> str:
    from .rigidity import delta_of_orbit
    from .solver import o_nu

    rows = []
    for t, _, d, s in slope_cells(family, max_rank, lambda t: (coxeter_number(t),), lambda h: range(1, h)):
        orbit = o_nu(t, s)
        delta = delta_of_orbit(t, s, orbit)
        rows.append([family, str(t.rank), str(d), _fmt_partition(orbit.partition), str(delta)])
    return _csv(["family", "rank", "d", "o_nu", "delta"], rows)


def t_excCox() -> str:
    rows = []
    for (fam, d), (label, delta) in sorted(xd.EXC_COXETER.items()):
        rows.append([fam, str(d), label, str(delta)])
    return _csv(["family", "d", "o_nu", "delta"], rows)


def t_completecl(family: str, max_rank: int) -> str:
    from .solver import o_nu_rows

    rows = []
    for t, m, d, s in slope_cells(family, max_rank, _denominators, lambda m: range(1, m)):
        for row in o_nu_rows(t, s):
            rows.append([family, str(t.rank), str(m), str(d), row.row_id, _fmt_partition(row.orbit.partition)])
    return _csv(["family", "rank", "m", "d", "row", "o_nu"], rows)


def t_clq(family: str, rank: int, s, mults: tuple[int, ...], zero_mult: int) -> str:
    from .solver import q_candidates

    t = lie_type(family, rank)
    cands = q_candidates(t, s, mults, zero_mult)
    rows = []
    for c in cands:
        rows.append(
            [
                family,
                str(rank),
                str(s),
                ";".join(_fmt_partition(p) for p in c.linear),
                _fmt_partition(c.tail),
            ]
        )
    return _csv(["family", "rank", "slope", "linear_factors", "zero_sector"], rows)


def t_cl_index_rig(family: str, max_rank: int) -> str:
    from .rigidity import closed_form_delta

    rows = []
    for t, m, d, s in slope_cells(family, max_rank, _denominators, lambda m: range(1, 2 * m)):
        try:
            delta = closed_form_delta(t, s)
        except UnsupportedSlopeError:
            continue
        rows.append([family, str(t.rank), str(m), str(d), str(delta)])
    return _csv(["family", "rank", "m", "d", "delta"], rows)


def t_cl_ell_rig(family: str, max_rank: int) -> str:
    from .rigidity import scan_rigid

    rows = []
    for entry in scan_rigid(family, max_rank):
        rows.append(
            [
                family,
                str(entry["rank"]),
                str(entry["m"]),
                str(entry["d"]),
                _fmt_partition(entry["orbit"]) if isinstance(entry["orbit"], list) else str(entry["orbit"]),
            ]
        )
    return _csv(["family", "rank", "m", "d", "o_nu"], rows)


def dssoln_f4() -> str:
    rows = []
    for nu, (label, delta) in sorted(xd.F4_SMALL.items()):
        rows.append([f"{nu.numerator}/{nu.denominator}", label, str(delta)])
    return _csv(["nu", "o_nu", "delta"], rows)


def potigexc_numerics() -> str:
    from .orbits import NilpotentOrbit, dim_centralizer

    rows = []
    for fam, nu, label, exist in xd.POTENTIALLY_RIGID_EXC:
        t = lie_type(fam)
        nuphi = nu * phi_count(t)
        dc = dim_centralizer(NilpotentOrbit(t, label=label))
        rows.append(
            [
                fam,
                f"{nu.numerator}/{nu.denominator}",
                label,
                str(nuphi),
                str(dc),
                exist or "numerics-only",
            ]
        )
    return _csv(["family", "nu", "o_nil", "nu_phi", "dim_c", "existence"], rows)


def generate(name: str, family: str | None = None, max_rank: int = 6, **kw) -> str:
    if name == "t_clCox":
        return t_clCox(family or "B", max_rank)
    if name == "t_excCox":
        return t_excCox()
    if name == "t_completecl":
        return t_completecl(family or "B", max_rank)
    if name == "t_cl_index_rig":
        return t_cl_index_rig(family or "B", max_rank)
    if name == "t_cl_ell_rig":
        return t_cl_ell_rig(family or "B", max_rank)
    if name == "DSsolnF4":
        return dssoln_f4()
    if name == "potigexc-numerics":
        return potigexc_numerics()
    if name == "t_clq":
        return t_clq(family or "B", kw["rank"], kw["slope"], kw["mults"], kw["zero_mult"])
    raise ValueError(f"unknown table {name!r}; choose one of {TABLE_NAMES}")
