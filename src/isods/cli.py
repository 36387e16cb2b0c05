"""Command-line surface: solve / solve-q / coxeter / delta / rigid / oracle /
tables / check, with JSON and CSV output.

Exit codes: 0 decided, 2 invalid input, 3 needs Hasse data, 4 oracle
non-certified.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from math import isfinite
from typing import TYPE_CHECKING

from .root_data import (
    TABLE_NAMES,
    LieType,
    UnsupportedComparisonError,
    UnsupportedSlopeError,
    lie_type,
    parse_slope,
)

if TYPE_CHECKING:
    from .orbits import HasseDiagram, NilpotentOrbit

# Engine modules are imported inside the functions that call them, after the
# input is parsed and validated, so that a cold `ds` process compiles only the
# modules of its verb and malformed input exits before any of them loads.


class CliError(Exception):
    def __init__(self, message: str, code: int = 2):
        super().__init__(message)
        self.code = code


def _parse_type(args) -> LieType:
    try:
        return lie_type(args.type, getattr(args, "rank", None))
    except ValueError as exc:
        raise CliError(str(exc))


def _labelled_orbit(t: LieType, label: str) -> NilpotentOrbit:
    """An orbit by Bala-Carter label.  In G2-E8 the label must be in
    `catalogue.orbit_labels`: a Levi label whose factors carry only the
    (a_k)/(b_k) suffixes of their distinguished orbits.  Other labels are
    invalid input, as is any label of a classical type."""
    from .orbits import NilpotentOrbit

    if t.is_exceptional:
        from .catalogue import orbit_labels

        if label not in orbit_labels(t):
            raise CliError(f"unknown {t.family} orbit label {label!r}")
    return NilpotentOrbit(t, label=label)


_JSON_TYPES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _json(value, cls: type, what: str):
    """value if its JSON type is cls, else invalid input.  The type must match
    exactly: 7.5, 1e400 and true are not integers."""
    if type(value) is not cls:
        raise CliError(f"{what} must be {_JSON_TYPES[cls]}, got {json.dumps(value)}")
    return value


def _json_list(value, cls: type, what: str) -> list:
    """A JSON list whose entries all have JSON type cls."""
    return [_json(x, cls, f"an entry of {what}") for x in _json(value, list, what)]


def _key(data: dict, key: str, owner: str):
    """data[key], else invalid input naming the key and its owner."""
    if key not in data:
        raise CliError(f"{owner} has no {key!r}")
    return data[key]


def _orbit_from_json(t: LieType, data):
    from .orbits import AdjointOrbit, Block, NilpotentOrbit
    from .partitions import partition

    _json(data, dict, "an orbit")
    kind = data.get("kind", "nilpotent")
    if kind == "nilpotent":
        if "label" in data:
            return _labelled_orbit(t, _json(data["label"], str, "label"))
        return NilpotentOrbit(
            t,
            partition(_json_list(_key(data, "partition", "the orbit"), int, "partition")),
            very_even_label=data.get("very_even_label"),
        )
    if kind == "adjoint":
        blocks = tuple(
            Block(_tag(_key(b, "eig", "a block")), _json(_key(b, "mult", "a block"), int, "mult"),
                  partition(_json_list(_key(b, "partition", "a block"), int, "partition")))
            for b in _json_list(_key(data, "blocks", "the orbit"), dict, "blocks")
        )
        return AdjointOrbit(t, blocks, partition(_json_list(data.get("zero_block", []), int, "zero_block")))
    raise CliError(f"unknown orbit kind {kind!r}")


def _tag(value):
    """An eigenvalue tag from a JSON string or finite number: rational when it
    reads as one, else symbolic."""
    numeric = type(value) is int or type(value) is float and isfinite(value)
    if not (numeric or type(value) is str and value.strip()):
        raise CliError(f"eig must be a nonempty string or a number, got {json.dumps(value)}")
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        return str(value)


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {what} {path!r}: {exc.strerror or exc}")


def _load_orbit(t: LieType, args):
    """--orbit-file, or an --orbit that is a JSON object, a JSON partition or
    a G2-E8 label, as the object that `_orbit_from_json` reads."""
    if getattr(args, "orbit_file", None):
        data = _read_json(args.orbit_file, "orbit file")
    elif getattr(args, "orbit", None):
        text = args.orbit.strip()
        if text.startswith("{"):
            data = json.loads(text)
        elif text.startswith("["):
            data = {"partition": _json_list(json.loads(text), int, "an orbit partition")}
        elif t.is_exceptional:
            data = {"label": text}
        else:
            raise CliError(f"classical orbits are given as JSON partitions, got {text!r}")
    else:
        raise CliError("an orbit is required (--orbit or --orbit-file)")
    return _orbit_from_json(t, data)


def _load_hasse(t: LieType, args) -> HasseDiagram | None:
    """The closure order of a --hasse-file, refused outside G2-E8 before the
    file is read.  The checks run in this order, and a file with several
    faults reports the first: JSON shape; labels in `catalogue.orbit_labels`;
    each file `dimC` against the embedded `exceptional_data.DIM_C`; cycles
    and dimension order over one diagram of the file's covers, the file's
    and the embedded dimensions and, in G2 and F4, `orbits.builtin_hasse`."""
    path = getattr(args, "hasse_file", None)
    if not path:
        return None
    if not t.is_exceptional:
        raise CliError(f"--hasse-file applies to G2-E8 only, not to {t.family}")
    from . import exceptional_data as xd
    from .catalogue import orbit_labels
    from .orbits import HasseDiagram, builtin_hasse

    data = _json_list(_read_json(path, "Hasse file"), dict, "a Hasse file")
    for item in data:
        for key in ("from", "to", "label"):
            if key in item:
                _json(item[key], str, f"{key!r} in a Hasse file")
        if "dimC" in item:
            _json(item["dimC"], int, "'dimC' in a Hasse file")
        if "from" in item and "to" not in item:
            raise CliError("an item with 'from' in the Hasse file has no 'to'")
        if "label" in item and "from" not in item and "dimC" not in item:
            raise CliError("an item with 'label' in the Hasse file has no 'dimC'")
    covers = [(item["from"], item["to"]) for item in data if "from" in item]
    dims = {item["label"]: item["dimC"] for item in data if "label" in item and "from" not in item}
    orbs = {*dims, *(o for cover in covers for o in cover)}
    unknown = sorted(orbs - orbit_labels(t))
    if unknown:
        raise CliError(f"unknown {t.family} orbit labels in the Hasse file: {', '.join(map(repr, unknown))}")
    # in G2 and F4 the file adds to the embedded order, and each cover is
    # checked against the embedded dimensions too: a cover that contradicts
    # either closes a cycle or fails a dimension
    builtin = builtin_hasse(t.family) or HasseDiagram((), ())
    orbs.update(builtin.orbits)
    embedded = {o: xd.DIM_C[(t.family, o)] for o in orbs if (t.family, o) in xd.DIM_C}
    clash = [f"{o!r} ({dim}, embedded {embedded[o]})" for o, dim in sorted(dims.items()) if embedded.get(o, dim) != dim]
    if clash:
        raise CliError(f"dimC in the Hasse file disagrees with the embedded {t.family} values: {', '.join(clash)}")
    return HasseDiagram(tuple(sorted(orbs)), (*covers, *builtin.covers), {**dims, **embedded})


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def cmd_solve(args) -> int:
    t = _parse_type(args)
    s = parse_slope(args.slope)
    orbit = _load_orbit(t, args)
    hasse = _load_hasse(t, args)
    from .solver import ds_solve

    ans = ds_solve(t, s, orbit, hasse=hasse)
    _emit(ans.to_json())
    return 3 if ans.affirmative == "unknown-needs-hasse" else 0


def cmd_solve_q(args) -> int:
    t = _parse_type(args)
    s = parse_slope(args.slope)
    orbit = _load_orbit(t, args)
    from .orbits import AdjointOrbit

    if not isinstance(orbit, AdjointOrbit):
        raise CliError("solve-q expects an adjoint orbit (kind=adjoint)")
    from .solver import ds_solve_q

    ans = ds_solve_q(t, s, orbit)
    _emit(ans.to_json())
    return 0


# `coxeter --show-subsets` lists every allowable subset of the affine
# diagram: 2^(rank+1) subsets, each with a witness search whose cost does not
# grow with d.  The slowest d of B took about 0.2 s at rank 12, 0.5 s at rank
# 13 and 1.4 s at rank 14 on a shared 2-core host, and the listing itself
# doubles with each rank.
SHOW_SUBSETS_MAX_RANK = 12

# The classical Coxeter route builds O(rank) candidates of O(rank) parts
# each, so its time grows about as rank^2.  In a cold process on a shared
# 2-core host (best of 3), the slowest d of B (the slowest family) took
# 0.07 s at rank 250, 0.13 s at 500 and 0.16 s at 1000, about 0.07 s of it
# start-up.
COXETER_MAX_RANK = 1000

# `ds oracle` eliminates the image chain of a lattice model's operator and
# its Q/L coordinates, whose integer entries grow with the rank.  The slowest
# elliptic cells are B at m = 2 and 4: in a cold process on a shared 2-core
# host, by a child-process timer (best of 7), the slowest (B at 1/2) took
# 0.07 s at rank 30, 0.08 s at 40 and 0.10 s at 50, about 0.07 s of it start-up.
ORACLE_MAX_RANK = 50

# `ds tables` and `ds rigid` sweep every classical rank up to --max-rank and
# O(rank) slopes at each, so their time grows about as rank^3.  In a cold
# process on a shared 2-core host (best of 3), the slowest (t_cl_ell_rig and
# rigid, B and D) took 0.23 s at rank 60, 0.64-0.72 s at 100 and 1.05-1.28 s
# at 120; t_clCox of C at 1000 took 119 s.
TABLES_MAX_RANK = 100


def _check_max_rank(args) -> None:
    if args.max_rank > TABLES_MAX_RANK:
        raise CliError(
            f"the tables take time about rank^3; --max-rank {args.max_rank} is above the bound {TABLES_MAX_RANK}"
        )


def cmd_coxeter(args) -> int:
    t = _parse_type(args)
    if args.show_subsets and t.rank > SHOW_SUBSETS_MAX_RANK:
        raise CliError(f"--show-subsets scans 2^(rank+1) subsets; rank {t.rank} is above the bound {SHOW_SUBSETS_MAX_RANK}")
    if t.rank > COXETER_MAX_RANK:
        raise CliError(f"the Coxeter route takes time about rank^2; rank {t.rank} is above the bound {COXETER_MAX_RANK}")
    from .coxeter import coxeter_candidates, coxeter_solve, enumerate_d_allowable

    orbit = coxeter_solve(t, args.d)
    out = {"o_nu": orbit.to_json()}
    if args.show_subsets:
        out["allowable"] = [
            {
                "J": sorted(a.J),
                "witness": {str(k): v for k, v in a.witness},
                "minimal": a.is_minimal,
            }
            for a in enumerate_d_allowable(t, args.d)
        ]
        out["candidates"] = [c.to_json() for c in coxeter_candidates(t, args.d)]
    _emit(out)
    return 0


def cmd_delta(args) -> int:
    t = _parse_type(args)
    s = parse_slope(args.slope)
    orbit = _load_orbit(t, args)
    from .rigidity import rigidity_report

    rep = rigidity_report(t, s, orbit)
    _emit({"delta": str(rep.delta), "rigid": "n/a" if rep.rigid is None else rep.rigid})
    return 0


def cmd_rigid(args) -> int:
    _check_max_rank(args)
    if args.format == "json":
        from .rigidity import scan_rigid

        _emit(scan_rigid(args.family, args.max_rank))
    else:
        from .tables import t_cl_ell_rig

        sys.stdout.write(t_cl_ell_rig(args.family, args.max_rank))
    return 0


def cmd_oracle(args) -> int:
    t = _parse_type(args)
    s = parse_slope(args.slope)
    if args.budget < 0:
        raise CliError(f"--budget {args.budget} is negative; it must be at least 0, and the answer does not depend on it")
    if t.rank > ORACLE_MAX_RANK:
        raise CliError(f"the lattice models grow steeply with the rank; rank {t.rank} is above the bound {ORACLE_MAX_RANK}")
    from .skeleton import minimal_jordan_type_report

    p, certified = minimal_jordan_type_report(t, s)
    _emit({"jordan_type": list(p), "certified": certified})
    return 0 if certified else 4


def cmd_tables(args) -> int:
    _check_max_rank(args)
    kw = {}
    if args.name == "t_clq":
        if None in (args.rank, args.slope, args.mults):
            raise CliError("t_clq needs --rank, --slope and --mults")
        mults = args.mults.split(",") if args.mults else []  # "" lists no multiplicity
        if "" in mults:
            raise CliError(f"--mults {args.mults!r} has an empty entry")
        try:
            mults = tuple(map(int, mults))
        except ValueError:
            raise CliError(f"--mults {args.mults!r} has an entry that is not an integer") from None
        kw = {
            "rank": args.rank,
            "slope": parse_slope(args.slope),
            "mults": mults,
            "zero_mult": args.zero_mult,
        }
    from .tables import generate

    sys.stdout.write(generate(args.name, args.family, args.max_rank, **kw))
    return 0


# The q-equivalence check draws orbits of D_3 and up, so ds check needs a
# rank bound of at least 3.
CHECK_MIN_RANK = 3

# ds check draws its random orbits from every valid tail of size up to
# 2*rank+1 and every partition of each block, so its time and memory grow
# with the partition count p(2*rank+1).  In a cold process on a shared 2-core
# host (best of 3), it took 0.55 s at rank 15, 1.2 s (57 MB) at 20, 1.8 s
# (125 MB) at 22 and 3.0 s (235 MB) at 25.
CHECK_MAX_RANK = 20


def cmd_check(args) -> int:
    if args.max_rank < CHECK_MIN_RANK:
        raise CliError(f"--max-rank {args.max_rank} is below {CHECK_MIN_RANK}, the least rank ds check runs at")
    if args.max_rank > CHECK_MAX_RANK:
        raise CliError(
            f"ds check lists the partitions of 2*rank+1; --max-rank {args.max_rank} is above the bound {CHECK_MAX_RANK}"
        )
    from .checks import run_all

    report = run_all(max_rank=args.max_rank)
    _emit(report)
    return 0 if all(v == "ok" for v in report.values()) else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ds", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    def add_type(p):
        p.add_argument("--type", required=True, help="A/B/C/D/G2/F4/E6/E7/E8")
        p.add_argument("--rank", type=int, help="rank (classical families)")

    def add_query(p):
        add_type(p)
        p.add_argument("--slope", required=True)
        p.add_argument("--orbit")
        p.add_argument("--orbit-file")

    p = sub.add_parser("solve", help="existence verdict for an orbit and slope")
    add_query(p)
    p.add_argument("--hasse-file")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("solve-q", help="verdict via the fixed-eigenvalue candidates")
    add_query(p)
    p.set_defaults(fn=cmd_solve_q)

    p = sub.add_parser("coxeter", help="threshold orbit at slope d/h via allowable subsets")
    add_type(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--show-subsets", action="store_true",
                   help=f"also list the allowable subsets (rank <= {SHOW_SUBSETS_MAX_RANK})")
    p.set_defaults(fn=cmd_coxeter)

    p = sub.add_parser("delta", help="index of rigidity for an orbit")
    add_query(p)
    p.set_defaults(fn=cmd_delta)

    p = sub.add_parser("rigid", help="rigid classification scan")
    p.add_argument("--family", required=True)
    p.add_argument("--max-rank", type=int, default=10, help=f"at most {TABLES_MAX_RANK}")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_rigid)

    p = sub.add_parser("oracle", help="minimal Jordan type from the lattice models")
    add_type(p)
    p.add_argument("--slope", required=True)
    p.add_argument("--budget", type=int, default=10000, help="at least 0; does not change the answer")
    p.add_argument("--seed", type=int, default=0, help="does not change the answer")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("tables", help="regenerate a table as CSV")
    p.add_argument("--name", required=True, choices=TABLE_NAMES)
    p.add_argument("--family")
    p.add_argument("--max-rank", type=int, default=6, help=f"at most {TABLES_MAX_RANK}")
    p.add_argument("--rank", type=int)
    p.add_argument("--slope")
    p.add_argument("--mults", help="comma-separated nonzero multiplicities")
    p.add_argument("--zero-mult", type=int, default=0)
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("check", help="cross-validation suite")
    p.add_argument("--max-rank", type=int, default=5)
    p.set_defaults(fn=cmd_check)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except UnsupportedSlopeError as exc:
        sys.stderr.write(f"unsupported slope: {exc}\n")
        return 2
    except UnsupportedComparisonError as exc:
        sys.stderr.write(f"needs hasse data: {exc}\n")
        return 3
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
