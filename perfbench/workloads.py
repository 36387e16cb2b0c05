"""The four benchmark workloads.

Each workload is a closed loop with one caller.  It yields its operations in
cycles of fixed composition; the loop in ``run.py`` times each operation and
then runs the operation's correctness gate outside the timed span.  Calls
into the package go through module attributes (``solver.ds_solve``), so the
tracer's wrappers see them.

- query_stream: in-process ds_solve / rigidity_report queries, the everyday
  library use.  Its gate (ds_solve_q and the matrix-kernel centralizer) runs
  outside the timed span, so the q route and the Coxeter route are bypassed.
- cli_cold: one `ds` process at a time over a mix of verbs, including
  documented errors; what a shell user pays per query.  The only workload
  where the cli layer does most work.  The known input-boundary defects are
  probed once per run, outside the timed mix (known_defects).
- oracle_sweep: one pass of the independent routes over a fixed scope per
  cycle; the verification use (`ds check`, acceptance).
- q_growth: ds_solve_q over a grid of slot sizes up to 16 and slopes across
  (0, 1); the only workload where the candidate route does most of the work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable, Iterator

from isods import cli, coxeter, orbits, rigidity, skeleton, solver, tables
from isods import exceptional_data as xd
from isods.coxeter import UnsupportedSlopeError
from isods.orbits import AdjointOrbit, NilpotentOrbit
from isods.partitions import ParityClass, is_valid
from isods.root_data import (
    coxeter_number, dim_g, is_elliptic_regular, is_regular, lie_type, phi_count, positive_roots, slope,
)

import hostspeed
import inputs as gen

ROOT = Path(__file__).resolve().parent.parent
DS_MAIN = "import sys; from isods.cli import main; sys.exit(main())"


@dataclass
class Op:
    """One timed operation.  `run` is timed; `check` is its correctness gate,
    run after the timed span, returning None when the answer is right and a
    message otherwise."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    key: Callable[[], object] | None = None  # identity of the input, for the repeat share


class Workload:
    name = ""
    why = ""
    trace_cycles = 1  # cycles a traced run processes (fixed work, so counts repeat)
    reference = staticmethod(hostspeed.fraction_loop_ms)  # host-speed reference

    def cycles(self, rng) -> Iterator[list[Op]]:
        raise NotImplementedError

    def warm_up(self, seed: int) -> None:
        """Untimed set-up: the timed operations on inputs from the warm-up
        seed stream.  Gates are left out, so the cost of set-up does not
        depend on how expensive one seed's cross-checks happen to be."""
        for op in next(self.cycles(gen.rng_for(seed, f"{self.name}/warm"))):
            op.run()

    def timed_cycles(self, seed: int) -> Iterator[list[Op]]:
        return self.cycles(gen.rng_for(seed, f"{self.name}/timed"))


# ---------------------------------------------------------------------------
# Reference answers used by the gates
# ---------------------------------------------------------------------------


def evenly(n: int, r: int) -> tuple[int, ...]:
    """The partition of n into r parts as equal as possible (zeros dropped);
    written here so that the gate does not reuse the tables' own code."""
    k, rem = divmod(n, r)
    return tuple(x for x in (k + 1,) * rem + (k,) * (r - rem) if x)


def coxeter_closed_form(fam: str, n: int, d: int) -> tuple[int, ...]:
    """Threshold orbit at a classical Coxeter slope d/h (the t_clCox column)."""
    if fam == "D":
        return tuple(sorted(evenly(2 * n - 1, d) + (1,), reverse=True))
    return evenly({"A": n + 1, "B": 2 * n + 1, "C": 2 * n}[fam], d)


def exceptional_le(fam: str, a: str, b: str) -> bool | None:
    """a <= b in the closure order from the embedded covering relations, or
    None when the comparison needs Hasse data the package does not embed."""
    if a == b or a == "0" or b == fam:
        return True
    if b == "0" or a == fam:
        return False
    covers = {"G2": xd.G2_HASSE_COVERS, "F4": xd.F4_HASSE_COVERS}.get(fam)
    if covers is None:
        return None
    below, frontier = {b}, [b]
    while frontier:
        x = frontier.pop()
        for hi, lo in covers:
            if hi == x and lo not in below:
                below.add(lo)
                frontier.append(lo)
    return a in below


# Weighted Dynkin diagrams of the G2 and F4 orbits (Collingwood-McGovern),
# in the node order of root_data: long simple roots first.
WEIGHTED_DYNKIN = {
    "G2": {"0": (0, 0), "A1": (1, 0), "~A1": (0, 1), "G2(a1)": (2, 0), "G2": (2, 2)},
    "F4": {
        "0": (0, 0, 0, 0), "A1": (1, 0, 0, 0), "~A1": (0, 0, 0, 1), "A1+~A1": (0, 1, 0, 0),
        "A2": (2, 0, 0, 0), "~A2": (0, 0, 0, 2), "A2+~A1": (0, 0, 1, 0), "B2": (2, 0, 0, 1),
        "~A2+A1": (0, 1, 0, 1), "C3(a1)": (1, 0, 1, 0), "F4(a3)": (0, 2, 0, 0), "B3": (2, 2, 0, 0),
        "C3": (1, 0, 1, 2), "F4(a2)": (0, 2, 0, 2), "F4(a1)": (2, 2, 0, 2), "F4": (2, 2, 2, 2),
    },
}


def exceptional_dim_c(t, label: str) -> int | None:
    """dim C of an exceptional orbit without the embedded DIM_C table.  G2
    and F4: dim g_0 + dim g_1 of the grading by the weighted Dynkin diagram.
    E-types: dim g for the zero orbit, the rank for the regular one, and
    otherwise nu|Phi| - 2 Delta of an embedded solution row naming the
    orbit.  None when no row names it."""
    if t.family in WEIGHTED_DYNKIN:
        w = WEIGHTED_DYNKIN[t.family][label]
        heights = [sum(c * x for c, x in zip(root, w)) for root in positive_roots(t)]
        return t.rank + 2 * heights.count(0) + heights.count(1)
    if label == "0":
        return dim_g(t)
    if label == t.family:
        return t.rank
    for (fam, d), (lbl, delta) in xd.EXC_COXETER.items():
        if (fam, lbl) == (t.family, label):
            return d * t.rank - 2 * delta
    for fam, nu, lbl, _ in xd.POTENTIALLY_RIGID_EXC:
        if (fam, lbl) == (t.family, label):
            return nu * phi_count(t)
    return None


def _mismatch(what, got, want, *context) -> str | None:
    if got == want:
        return None
    return f"{what}: got {got!r}, want {want!r} at {' '.join(map(str, context))}"


# ---------------------------------------------------------------------------
# query_stream
# ---------------------------------------------------------------------------


class QueryStream(Workload):
    name = "query_stream"
    why = "in-process ds_solve and rigidity_report on seeded orbits, classical ranks 2-12 and exceptional cells"
    trace_cycles = 3
    chunks_per_cycle = 10  # 200 queries back to back, as a caller issuing many queries in a row
    # Measured: this workload's times spread less across seeds with the
    # integer loop than with the Fraction loop (see README).
    reference = staticmethod(hostspeed.integer_loop_ms)

    def __init__(self):
        self._coxeter_ref: dict = {}

    def cycles(self, rng):
        while True:
            yield [self._op(q) for _ in range(self.chunks_per_cycle) for q in gen.query_chunk(rng)]

    def _op(self, q: gen.Query) -> Op:
        t, s, o = q.type, q.slope, q.orbit
        if q.kind == "solve":
            return Op("query.solve", lambda: solver.ds_solve(t, s, o), lambda ans: self._check_solve(q, ans), key=q.key)
        return Op("query.rigidity", lambda: rigidity.rigidity_report(t, s, o), lambda rep: self._check_rigidity(q, rep), key=q.key)

    def _check_solve(self, q, ans) -> str | None:
        t, s, o = q.type, q.slope, q.orbit
        if t.is_exceptional:
            return self._check_exceptional(t, s, o, ans)
        adj = o if isinstance(o, AdjointOrbit) else gen.as_adjoint(o)
        other = solver.ds_solve_q(t, s, adj).affirmative
        return _mismatch("ds_solve vs ds_solve_q", ans.affirmative, other, t, s, gen.orbit_json(o))

    def _threshold_ref(self, t, s):
        """Threshold label(s) from a route other than the table lookup, where
        one exists."""
        fam, h = t.family, coxeter_number(t)
        if s.nu >= 1:
            return {"0"}
        if s.m == h:
            key = (fam, s.d)
            if key not in self._coxeter_ref:
                if fam in ("G2", "F4"):
                    self._coxeter_ref[key] = {coxeter.coxeter_solve(t, s.d).label}
                else:  # E-types: the table orbit must be among the candidates
                    self._coxeter_ref[key] = {c.label for c in coxeter.coxeter_candidates(t, s.d)}
            return self._coxeter_ref[key]
        # F4 at 5/6, 5/8, 7/8: no other route covers these slopes, so this
        # only pins the solver to the embedded table.
        return {xd.F4_SMALL[s.nu][0]}

    def _check_exceptional(self, t, s, o, ans) -> str | None:
        threshold = ans.o_nu.label
        if threshold not in self._threshold_ref(t, s):
            return f"threshold {threshold} not from the Coxeter route at {t} {s}"
        le = exceptional_le(t.family, threshold, o.label)
        return _mismatch("exceptional verdict", ans.affirmative, "unknown-needs-hasse" if le is None else le, t, s, o.label)

    def _check_rigidity(self, q, rep) -> str | None:
        t, s, o = q.type, q.slope, q.orbit
        if 2 * rep.delta != rep.nu_phi - rep.dim_c + rep.dim_tw or rep.nu_phi != s.nu * phi_count(t):
            return f"Delta identity fails at {t} {s} {gen.orbit_json(o)}"
        if rep.rigid != bool(rep.m_elliptic and rep.orbit_nonresonant and rep.delta == 0):
            return f"rigid flag inconsistent at {t} {s} {gen.orbit_json(o)}"
        if t.is_exceptional:
            want = exceptional_dim_c(t, o.label)
            return None if want is None else _mismatch("dim C vs root-system route", rep.dim_c, want, t, o.label)
        o_nil = orbits.ls_induction(o) if isinstance(o, AdjointOrbit) else o
        if sum(o_nil.partition) <= 12:
            oracle = orbits.dim_centralizer_oracle(o_nil, bound=12)
            return _mismatch("dim C vs matrix kernel", rep.dim_c, oracle, t, o_nil.partition)
        return None


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def spawn_ds(argv) -> tuple[int, str]:
    """One cold `ds` process, as the console script runs it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", DS_MAIN, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout


def ds_in_process(argv) -> tuple[int, str]:
    """cli.main in this process; an uncaught exception ends a real process
    with a traceback and exit code 1, so it maps to 1 here."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # noqa: BLE001 - the process boundary: report, do not raise
            code = 1
    return code, out.getvalue()


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def cli_reference(case: gen.CliCase) -> tuple[int, str]:
    """Exit code and stdout the CLI must produce, from the library directly."""
    verb, spec = case.verb, case.spec
    if verb == "error":
        return spec[0], ""
    if verb == "solve":
        ans = solver.ds_solve(*spec)
        return (3 if ans.affirmative == "unknown-needs-hasse" else 0), _dumps(ans.to_json())
    if verb == "solve-q":
        return 0, _dumps(solver.ds_solve_q(*spec).to_json())
    if verb == "delta":
        rep = rigidity.rigidity_report(*spec)
        return 0, _dumps({"delta": str(rep.delta), "rigid": rep.rigid})
    if verb == "coxeter":
        return 0, _dumps({"o_nu": coxeter.coxeter_solve(*spec).to_json()})
    if verb == "oracle":
        t, s, seed = spec
        p, certified = skeleton.minimal_jordan_type_report(t, s, search_budget=1000, seed=seed)
        return (0 if certified else 4), _dumps({"jordan_type": list(p), "certified": certified})
    if verb == "tables":
        return 0, tables.t_excCox()
    raise ValueError(f"unknown verb {verb!r}")


def known_defects(seed: int) -> list[str]:
    """Names of the input-boundary defects in gen.KNOWN_DEFECTS that the CLI
    still shows: one in-process `ds` call each, outside any timed span, so
    the timed mix has no operation that fails on purpose."""
    rng = gen.rng_for(seed, "cli_cold/defects")
    present = []
    for name, make in gen.KNOWN_DEFECTS.items():
        case = make(rng)
        if ds_in_process(case.argv) != cli_reference(case):
            present.append(name)
    return present


class CliCold(Workload):
    name = "cli_cold"
    why = "one cold ds process per query over a seeded verb mix with documented error exits"
    trace_cycles = 3
    # A `ds` process spends its time starting up, which host contention
    # slows about as much as it slows the integer loop (see README).
    reference = staticmethod(hostspeed.integer_loop_ms)

    def __init__(self, in_process: bool = False):
        self.in_process = in_process
        if not in_process:
            # One core for this process and its `ds` children: the two cores
            # drift independently, and the reference timed here must see the
            # speed the children run at.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def cycles(self, rng):
        runner = ds_in_process if self.in_process else spawn_ds
        while True:
            yield [self._op(case, runner) for case in gen.cli_cycle(rng)]

    def _op(self, case, runner) -> Op:
        def check(result):
            want = cli_reference(case)
            return _mismatch("ds exit code and stdout", result, want, *case.argv)

        return Op(f"cli.{case.verb}", lambda: runner(case.argv), check)

    def warm_up(self, seed: int) -> None:
        # Every timed `ds` process starts cold; set-up is this process's
        # side, which computes the reference answers in-process.
        for case in gen.cli_cycle(gen.rng_for(seed, f"{self.name}/warm")):
            ds_in_process(case.argv)


# ---------------------------------------------------------------------------
# oracle_sweep
# ---------------------------------------------------------------------------


def _classical_types(max_rank: int):
    for fam in gen.CLASSICAL:
        for n in range(3 if fam == "D" else 2, max_rank + 1):
            yield lie_type(fam, n)


def _elliptic_slopes(t):
    """Every d/m with m elliptic regular (m = n+1 in type A) and d < 2m."""
    fam, n = t.family, t.rank
    for m in range(2, 2 * n + 2):
        if not is_regular(t, m) or (m != n + 1 if fam == "A" else not is_elliptic_regular(t, m)):
            continue
        for d in range(1, 2 * m):
            if gcd(d, m) == 1:
                yield slope(d, m)


def oracle_scope(coxeter_rank: int, lattice_rank: int, max_total: int, delta_rank: int, table_rank: int) -> list[tuple]:
    """The cells of one sweep: (kind, *arguments)."""
    cells: list[tuple] = []
    for t in _classical_types(coxeter_rank):
        h = coxeter_number(t)
        cells += [("coxeter", t, d) for d in range(1, 2 * h) if gcd(d, h) == 1]
    cells += [("coxeter", lie_type(fam), d) for fam, d in sorted(xd.EXC_COXETER)]
    for fam in gen.CLASSICAL:
        for n in range(1 if fam == "A" else (3 if fam == "D" else 2), lattice_rank + 1):
            t = lie_type(fam, n)
            cells += [("lattice", t, s) for s in _elliptic_slopes(t)]
    for fam in gen.CLASSICAL:
        for n in range(1 if fam == "A" else (3 if fam == "D" else 2), max_total + 1):
            t = lie_type(fam, n)
            size = gen.defining_dim(t)
            if size > max_total:
                break
            for p in gen.all_partitions(size):
                if fam == "A" or is_valid(p, ParityClass[fam]):
                    cells.append(("centralizer", NilpotentOrbit(t, p)))
    for t in _classical_types(delta_rank):
        for m in range(1, 2 * t.rank + 2):
            if is_regular(t, m):
                cells += [("delta", t, slope(d, m)) for d in range(1, 2 * m) if gcd(d, m) == 1]
    for fam in gen.CLASSICAL:
        cells += [("table", name, fam, table_rank) for name in ("t_clCox", "t_completecl", "t_cl_index_rig", "t_cl_ell_rig")]
    cells += [("table", name, None, 0) for name in ("t_excCox", "DSsolnF4", "potigexc-numerics")]
    return cells


_CSV_FIELD = re.compile(r"\[[^\]]*\]|[^,]+")


def _csv_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, _CSV_FIELD.findall(line))) for line in lines[1:]]


def _parts(field: str) -> tuple[int, ...]:
    return tuple(int(x) for x in field.strip("[]").split(",") if x)


def check_table(name: str, text: str) -> str | None:
    """Each table column against a route the generator does not use."""
    rows = _csv_rows(text)
    if not rows:
        return f"table {name} is empty"
    for r in rows:
        if name in ("t_clCox", "t_completecl", "t_cl_index_rig", "t_cl_ell_rig"):
            fam, n = r["family"], int(r["rank"])
            t = lie_type(fam, n)
            m = int(r.get("m", coxeter_number(t)))
            s = slope(int(r["d"]), m)
        if name == "t_clCox":
            bad = _mismatch("t_clCox o_nu", _parts(r["o_nu"]), coxeter_closed_form(fam, n, s.d), fam, n, s)
            bad = bad or _mismatch("t_clCox delta", Fraction(r["delta"]), rigidity.closed_form_delta(t, s), fam, n, s)
        elif name == "t_completecl":
            want = coxeter_closed_form(fam, n, s.d) if m == coxeter_number(t) else solver.o_nu(t, s).partition
            bad = _mismatch("t_completecl row", _parts(r["o_nu"]), want, fam, n, s, r["row"])
        elif name == "t_cl_index_rig":
            direct = rigidity.delta_of_orbit(t, s, solver.o_nu(t, s))
            bad = _mismatch("closed-form vs direct Delta", Fraction(r["delta"]), direct, fam, n, s)
        elif name == "t_cl_ell_rig":
            bad = _mismatch("rigid row Delta", rigidity.delta_of_orbit(t, s, NilpotentOrbit(t, _parts(r["o_nu"]))), 0, fam, n, s)
            bad = bad or _mismatch("rigid predicate", rigidity.rigid_predicate(fam, n, m, s.d), True, fam, n, s)
        elif name in ("t_excCox", "DSsolnF4"):
            fam = r.get("family", "F4")
            nu_phi = int(r["d"]) * lie_type(fam).rank if name == "t_excCox" else Fraction(r["nu"]) * phi_count(lie_type("F4"))
            bad = _mismatch("nu|Phi| - 2 Delta", nu_phi - 2 * int(r["delta"]), xd.DIM_C[(fam, r["o_nu"])], name, fam, r["o_nu"])
        else:  # potigexc-numerics
            want = Fraction(r["nu"]) * phi_count(lie_type(r["family"]))
            bad = _mismatch("nu|Phi| = dim C", (Fraction(r["nu_phi"]), int(r["dim_c"])), (want, want), r["family"], r["nu"])
        if bad:
            return bad
    return None


def _unsupported_delta_allowed(t, s) -> bool:
    """The closed-form rows stop at nu = 1 away from m = h (and at the Airy
    slope in type D)."""
    h = coxeter_number(t)
    return s.nu >= 1 and (s.m != h or (t.family == "D" and s.d > s.m + 1))


def _closed_form_or_none(t, s):
    try:
        return rigidity.closed_form_delta(t, s)
    except UnsupportedSlopeError:
        return None


def oracle_op(cell: tuple, seed: int) -> Op:
    kind = cell[0]
    if kind == "coxeter":
        _, t, d = cell
        h = coxeter_number(t)
        if t.family in gen.CLASSICAL:
            return Op("oracle.coxeter", lambda: coxeter.coxeter_solve(t, d),
                      lambda o: _mismatch("Coxeter route vs table", o.partition, solver.o_nu(t, slope(d, h)).partition, t, d))
        label = xd.EXC_COXETER[(t.family, d)][0]
        if t.family in ("G2", "F4"):
            return Op("oracle.coxeter", lambda: coxeter.coxeter_solve(t, d),
                      lambda o: _mismatch("Coxeter route vs table", o.label, label, t, d))
        return Op("oracle.coxeter", lambda: coxeter.coxeter_candidates(t, d),
                  lambda cands: None if label in {c.label for c in cands} else f"{label} not among the candidates at {t} {d}")
    if kind == "lattice":
        _, t, s = cell
        return Op("oracle.lattice", lambda: skeleton.minimal_jordan_type_report(t, s, seed=seed),
                  lambda r: _mismatch("lattice model vs table", r, (solver.o_nu(t, s).partition, True), t, s))
    if kind == "centralizer":
        _, o = cell
        return Op("oracle.centralizer", lambda: orbits.dim_centralizer_oracle(o, bound=sum(o.partition)),
                  lambda dim: _mismatch("matrix kernel vs closed form", dim, orbits.dim_centralizer(o), o.type, o.partition))
    if kind == "delta":
        _, t, s = cell

        def check(cf):
            if cf is None:
                return None if _unsupported_delta_allowed(t, s) else f"closed form unexpectedly unsupported at {t} {s}"
            return _mismatch("closed-form vs direct Delta", cf, rigidity.delta_of_orbit(t, s, solver.o_nu(t, s)), t, s)

        return Op("oracle.delta", lambda: _closed_form_or_none(t, s), check)
    _, name, fam, rank = cell
    return Op("oracle.table", lambda: tables.generate(name, fam, rank), lambda text: check_table(name, text))


class OracleSweep(Workload):
    name = "oracle_sweep"
    why = "one pass of the independent routes (Coxeter, lattice, matrix kernel, closed forms, tables) per cycle"
    scope = dict(coxeter_rank=13, lattice_rank=7, max_total=14, delta_rank=10, table_rank=10)
    warm_scope = dict(coxeter_rank=6, lattice_rank=4, max_total=8, delta_rank=4, table_rank=4)

    def __init__(self):
        self._cells = oracle_scope(**self.scope)

    def cycles(self, rng, cells=None):
        cells = list(cells or self._cells)
        while True:
            rng.shuffle(cells)
            yield [oracle_op(cell, rng.randrange(10**6)) for cell in cells]

    def warm_up(self, seed: int) -> None:
        for op in next(self.cycles(gen.rng_for(seed, f"{self.name}/warm"), oracle_scope(**self.warm_scope))):
            op.run()


# ---------------------------------------------------------------------------
# q_growth
# ---------------------------------------------------------------------------


class QGrowth(Workload):
    name = "q_growth"
    why = "ds_solve_q on one-slot, several-slot and zero-heavy structures with slots up to 16, every d/m in (0, 1)"
    trace_cycles = 1

    def cycles(self, rng):
        while True:
            yield [self._op(*cell) for cell in gen.q_cycle(rng)]

    @staticmethod
    def _op(t, s, a) -> Op:
        def check(ans):
            want = solver.ds_solve(t, s, a).affirmative
            return _mismatch("ds_solve_q vs ds_solve", ans.affirmative, want, t, s, gen.orbit_json(a))

        return Op("q.solve_q", lambda: solver.ds_solve_q(t, s, a), check, key=lambda: (str(t), str(s), gen.orbit_json(a)))

    def warm_up(self, seed: int) -> None:
        # The cheapest cell of each family and structure (smallest nu): it
        # enumerates the largest slot and tail sizes the grid reads.
        rng = gen.rng_for(seed, f"{self.name}/warm")
        seen = set()
        for t, s, a in gen.q_cycle(rng):
            key = (t, tuple(b.mult for b in a.blocks))
            if s.d == 1 and key not in seen:
                seen.add(key)
                self._op(t, s, a).run()


WORKLOADS = {w.name: w for w in (QueryStream, CliCold, OracleSweep, QGrowth)}
