"""Value semantics of the package's 13 value classes: equality and hash by
field tuple, read-only frozen classes, unhashable mutable ones, keyword
construction and defaults, validation messages, repr, copy and pickle; and
the binding of fields by the `Record` bases."""

import copy
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import isods
from isods.coxeter import AllowableSubset
from isods.orbits import AdjointOrbit, Block, HasseDiagram, NilpotentOrbit
from isods.rigidity import RigidityReport
from isods.root_data import AffineDiagram, LieType, Slope
from isods.skeleton import GradedModel
from isods.solver import DSAnswer, QCandidate, _Row

B4 = LieType("B", 4)
O333 = NilpotentOrbit(B4, (3, 3, 3))
BLOCK = Block("a1", 2, (2,))

# (class, field values by name in field order): each class once
CASES = [
    (LieType, {"family": "B", "rank": 4}),
    (Slope, {"d": 3, "m": 8}),
    (AffineDiagram, {"type": LieType("B", 2), "nodes": (0, 1, 2), "marks": (1, 2, 2)}),
    (NilpotentOrbit, {"type": B4, "partition": (3, 3, 3), "label": None, "very_even_label": None}),
    (Block, {"tag": Fraction(1, 3), "mult": 2, "partition": (2,)}),
    (AdjointOrbit, {"type": B4, "blocks": (BLOCK,), "zero_block": (3, 1, 1)}),
    (HasseDiagram, {"orbits": ("0", "A1"), "covers": (("A1", "0"),), "dims": (("0", 14), ("A1", 8))}),
    (DSAnswer, {"affirmative": True, "o_nu": O333, "o_nil": O333, "delta": Fraction(2), "rigid": False,
                "path": "table:B2", "notes": ("a note",)}),
    (_Row, {"row_id": "B2", "orbit": O333, "parts_bound": 3, "ones": 1}),
    (QCandidate, {"linear": ((2,), (1,)), "tail": (3, 1, 1)}),
    (RigidityReport, {"delta": Fraction(2), "nu_phi": Fraction(12), "dim_c": 14, "dim_tw": 0, "rigid": False,
                      "m_elliptic": True, "orbit_nonresonant": None}),
    (AllowableSubset, {"J": frozenset({1, 2}), "witness": ((0, 1), (3, 1)), "is_minimal": True}),
    (GradedModel, {"type": LieType("A", 1), "m": 2, "d": 1, "operator": [[0, 1], [0, 0]], "isolated_lines": 0}),
]
MUTABLE = {DSAnswer, GradedModel}
IDS = [cls.__name__ for cls, _ in CASES]


def make(cls, fields):
    """A fresh object with deep copies of the field values."""
    return cls(*copy.deepcopy(list(fields.values())))


def test_every_value_class_is_covered_once():
    import isods.checks  # noqa: F401 - with tables, imports every module that defines a value class
    import isods.tables  # noqa: F401
    from isods.root_data import FrozenRecord, Record

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    defined = {sub for sub in subclasses(Record) if sub.__module__.startswith("isods.")} - {FrozenRecord}
    assert defined == {cls for cls, _ in CASES} and len(CASES) == 13
    assert {cls for cls in defined if not issubclass(cls, FrozenRecord)} == MUTABLE


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_equal_fields_give_equal_objects_and_hashes(cls, fields):
    a, b = make(cls, fields), make(cls, fields)
    assert a == b and not a != b and a is not b
    if cls in MUTABLE:
        return
    assert hash(a) == hash(b) == hash(tuple(fields.values()))


# one field of each class and a second valid value for it
VARIED = {
    LieType: ("rank", 5), Slope: ("d", 5), AffineDiagram: ("nodes", (0, 2, 1)), NilpotentOrbit: ("partition", (5, 3, 1)),
    Block: ("mult", 3), AdjointOrbit: ("blocks", (Block("a1", 1, (1,)), Block("a2", 1, (1,)))), HasseDiagram: ("dims", {}), DSAnswer: ("rigid", True),
    _Row: ("parts_bound", 4), QCandidate: ("tail", ()), RigidityReport: ("orbit_nonresonant", True),
    AllowableSubset: ("is_minimal", False), GradedModel: ("isolated_lines", 1),
}


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_different_classes_or_fields_are_not_equal(cls, fields):
    twin = type("Twin", (cls,), {"__slots__": ()})
    a = make(cls, fields)
    assert a != make(twin, fields) and make(twin, fields) != a
    assert a != tuple(fields.values()) and a != list(fields.values())
    name, value = VARIED[cls]
    assert a != make(cls, dict(fields, **{name: value}))


@pytest.mark.parametrize("cls,fields", [(c, f) for c, f in CASES if c not in MUTABLE],
                         ids=[c.__name__ for c, _ in CASES if c not in MUTABLE])
def test_frozen_classes_are_read_only(cls, fields):
    a = make(cls, fields)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == make(cls, fields)


@pytest.mark.parametrize("cls,fields", [(c, f) for c, f in CASES if c in MUTABLE],
                         ids=[c.__name__ for c, _ in CASES if c in MUTABLE])
def test_mutable_classes_stay_mutable_and_unhashable(cls, fields):
    a = make(cls, fields)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    with pytest.raises(TypeError):
        {a}
    name = next(iter(fields))
    setattr(a, name, "changed")
    assert getattr(a, name) == "changed" and a != make(cls, fields)
    setattr(a, name, fields[name])
    assert a == make(cls, fields)


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_keyword_construction_and_repr(cls, fields):
    a = cls(**fields)
    assert a == make(cls, fields)
    assert all(getattr(a, name) is value for name, value in fields.items())
    assert repr(a) == f"{cls.__qualname__}(" + ", ".join(f"{n}={v!r}" for n, v in fields.items()) + ")"


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_fields_are_the_public_slots_in_order(cls, fields):
    assert cls._fields == tuple(fields) == tuple(n for n in cls.__slots__ if not n.startswith("_"))
    if "__init__" in vars(cls):
        # such an __init__ passes its parameters to the positional `_store`
        assert tuple(inspect.signature(cls.__init__).parameters)[1:] == cls._fields


@pytest.mark.parametrize("cls,fields", [(c, f) for c, f in CASES if "__init__" not in vars(c)],
                         ids=[c.__name__ for c, _ in CASES if "__init__" not in vars(c)])
def test_binder_refuses_missing_extra_and_unknown_fields(cls, fields):
    values = list(fields.values())
    first, *rest = fields
    for args, kwargs in [
        (values[:-1], {}),  # missing by position
        (values + [None], {}),  # extra by position
        ([], dict(fields, nope=1)),  # unknown
        ([], {name: fields[name] for name in rest}),  # missing by name
        (values, {first: fields[first]}),  # given twice
    ]:
        with pytest.raises(TypeError, match=f"^{cls.__qualname__} takes the fields {', '.join(fields)}; got "):
            cls(*args, **kwargs)
    assert cls(*values[:1], **{name: fields[name] for name in rest}) == make(cls, fields)


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
def test_fieldless_subclass_keeps_the_fields(cls, fields):
    twin = type("Twin", (cls,), {"__slots__": ()})
    assert twin._fields == cls._fields
    assert repr(make(twin, fields)) == repr(make(cls, fields)).replace(cls.__qualname__, "Twin", 1)


def test_defaults():
    e6 = LieType("E6", 6)
    o = NilpotentOrbit(e6, label="A1")
    assert (o.partition, o.label, o.very_even_label) == (None, "A1", None)
    assert NilpotentOrbit(B4, (3, 3, 3)) == NilpotentOrbit(type=B4, partition=(3, 3, 3), label=None)
    assert DSAnswer(True, O333, None, None, "n/a", "p").notes == ()
    assert GradedModel(e6, 2, 1, []).isolated_lines == 0
    assert dict(HasseDiagram(("0",), ()).dims) == {}
    assert HasseDiagram(("0", "A1"), (("A1", "0"),), {"A1": 8}).le("0", "A1")


def test_mapping_fields_are_stored_as_sorted_pairs():
    # a mapping in any insertion order, or its pairs, give one hashable value
    orbits, covers = ("0", "A1"), (("A1", "0"),)
    h = HasseDiagram(orbits, covers, {"A1": 8, "0": 14})
    assert h.dims == (("0", 14), ("A1", 8))
    assert h == HasseDiagram(orbits, covers, [("A1", 8), ("0", 14)]) and len({h, copy.deepcopy(h)}) == 1
    a = AllowableSubset(frozenset({1, 2}), {3: 1, 0: 1}, True)
    assert a.witness == ((0, 1), (3, 1))
    assert a == AllowableSubset(J=frozenset({1, 2}), witness={0: 1, 3: 1}, is_minimal=True)
    assert hash(a) == hash((frozenset({1, 2}), ((0, 1), (3, 1)), True))


D4 = LieType("D", 4)


@pytest.mark.parametrize("make_bad,message", [
    (lambda: LieType("Q", 2), "unknown family 'Q'"),
    (lambda: LieType("F4", 5), "F4 has rank 4"),
    (lambda: LieType("D", 2), "D-rank must be >= 3"),
    (lambda: Slope(0, 3), "slope needs positive numerator and denominator"),
    (lambda: Slope(2, 4), "slope 2/4 not in lowest terms"),
    (lambda: NilpotentOrbit(LieType("E6", 6), (1,), "A1"), "exceptional orbits carry a Bala-Carter label"),
    (lambda: NilpotentOrbit(LieType("E6", 6)), "exceptional orbits carry a Bala-Carter label"),
    (lambda: NilpotentOrbit(B4), "classical orbits carry a partition"),
    (lambda: NilpotentOrbit(B4, (3, 3, 1, 2)), "partition not canonical: (3, 3, 1, 2)"),
    (lambda: NilpotentOrbit(B4, (3, 3)), "partition of 6 does not fit B4"),
    (lambda: NilpotentOrbit(B4, (4, 3, 2)), "(4, 3, 2) violates the B-parity constraint"),
    (lambda: NilpotentOrbit(B4, (3, 3, 3), very_even_label="I"), "very-even label only on very even type-D orbits"),
    (lambda: NilpotentOrbit(D4, (2, 2, 2, 2), very_even_label="III"), "very-even label must be 'I' or 'II'"),
    (lambda: AdjointOrbit(LieType("G2", 2), (), ()), "adjoint orbits are modeled for classical types only"),
    (lambda: AdjointOrbit(B4, (BLOCK, BLOCK), (1,)), "eigenvalue tags must be pairwise distinct"),
    (lambda: AdjointOrbit(B4, (Block("a", 0, ()),), (9,)), "multiplicities must be positive, got 0 for eigenvalue a"),
    (lambda: AdjointOrbit(B4, (Block("a", 2, (1,)),), (5,)), "block partition (1,) must be of 2"),
    (lambda: AdjointOrbit(B4, (BLOCK,), (1, 3)), "zero block not canonical"),
    (lambda: AdjointOrbit(B4, (Block(0, 2, (2,)),), (5,)), "eigenvalue 0 goes in the zero block, not in a block"),
    (lambda: AdjointOrbit(B4, (BLOCK,), (2, 2)), "type B zero block must be a valid odd B-partition"),
    (lambda: AdjointOrbit(D4, (BLOCK,), (2, 1, 1)), "zero block (2, 1, 1) invalid for D"),
    (lambda: AdjointOrbit(B4, (BLOCK,), (3,)), "multiplicities sum to 7, expected 9"),
    (lambda: HasseDiagram(("0", "A1"), (("A1", "0"),), {"A1": 14, "0": 8}),
     "dim C must increase downward: A1 -> 0"),
    (lambda: HasseDiagram(("0", "A1"), (("A1", "0"), ("0", "A1"))), "covers form a cycle through A1 -> 0"),
    (lambda: HasseDiagram(("0",), (("0", "0"),)), "covers form a cycle through 0 -> 0"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_validation_messages(make_bad, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_bad()


ROUND_TRIPS = {"deepcopy": copy.deepcopy, "copy": copy.copy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@pytest.mark.parametrize("cls,fields", CASES, ids=IDS)
@pytest.mark.parametrize("roundtrip", list(ROUND_TRIPS.values()), ids=list(ROUND_TRIPS))
def test_copy_and_pickle_round_trip(cls, fields, roundtrip):
    a = make(cls, fields)
    b = roundtrip(a)
    assert type(b) is cls and b == a and repr(b) == repr(a)
    if cls in MUTABLE:
        return
    with pytest.raises(AttributeError):
        setattr(b, next(iter(fields)), None)
    assert hash(b) == hash(a)


_ROUND_TRIP_REPRS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from test_records import CASES, ROUND_TRIPS, make
objects = [make(cls, fields) for cls, fields in CASES]
print(json.dumps([f"{name}-{type(a).__name__}" for a in objects for name, roundtrip in ROUND_TRIPS.items()
                  if repr(roundtrip(a)) != repr(a)]))
"""


@pytest.mark.parametrize("hash_seed", ["7", "17"])
def test_round_trip_reprs_do_not_depend_on_the_hash_seed(hash_seed):
    # a string set rebuilt by a round trip may iterate in another order under
    # some hash seeds; HasseDiagram.orbits once was one
    src = str(Path(isods.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _ROUND_TRIP_REPRS, str(Path(__file__).parent)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_copied_hasse_diagram_keeps_its_closure_order():
    h = HasseDiagram(("0", "A1", "A2"), (("A1", "0"), ("A2", "A1")))
    for other in (copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert other == h and other.le("0", "A2") and not other.le("A2", "0")


def test_hasse_diagram_order_follows_its_covers():
    h = HasseDiagram(("0", "A1"), (("A1", "0"),))
    with pytest.raises(AttributeError, match="cannot assign to field 'covers'"):
        h.covers = ()
    assert h.le("0", "A1")
    assert not HasseDiagram(("0", "A1"), ()).le("0", "A1")
    with pytest.raises(KeyError):
        HasseDiagram(("0",), (("A1", "0"),))
