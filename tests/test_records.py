"""The record contract of the package's immutable value classes: equality and
hashing by fields within one class, never equal to a tuple, no assignment
after construction, keyword construction, and each class's normalization."""

import copy
import functools
import inspect
import pickle
from fractions import Fraction
from types import MappingProxyType

import pytest

from icx.alignment import AlignmentPartition, FeasibilityVerdict
from icx.bounds import BoundCertificate
from icx.errors import BadParams, DimensionMismatch, Record, SchemeMalformed
from icx.galois import BinaryField, Matrix, PrimeField, Subspace
from icx.model import Destination, FamilyTag, Instance
from icx.oracle import OracleResult
from icx.scheme import DimensionAudit, Diagnostic, LinearScheme, SimulationResult, VerificationReport
from icx.symmetric import BuiltinExample
from icx.unicast import RankChainStep, UnicastMap

GF2, GF5 = PrimeField(2), PrimeField(5)


def _instance():
    return Instance(
        num_messages=2,
        destinations=[Destination(1, {1}, [2]), Destination(2, {2}, ())],
        family=None,
    )


def _scheme():
    return LinearScheme(field=GF2, n=2, V={1: Matrix(GF2, 2, 1, (1, 0)), 2: Matrix(GF2, 2, 1, (0, 1))})


def _partition():
    return AlignmentPartition(L=1, subsets=(frozenset({1}), frozenset({2})))


# class -> the keyword arguments of one object; each call builds fresh values
CASES = {
    FamilyTag: lambda: dict(kind="neighboring-antidotes", params=(("U", 1), ("K", 5), ("D", 1))),
    Destination: lambda: dict(id=1, wants={1}, has=[2, 3]),
    Instance: lambda: dict(num_messages=2, destinations=list(_instance().destinations), family=None),
    PrimeField: lambda: dict(p=5),
    BinaryField: lambda: dict(m=3, poly=0),
    Matrix: lambda: dict(field=GF5, rows=2, cols=2, entries=(1, 7, 0, -1)),
    Subspace: lambda: dict(basis=Matrix(GF2, 2, 1, (1, 0))),
    LinearScheme: lambda: dict(field=GF2, n=2, V=dict(_scheme().V), U={(1, 1): Matrix(GF2, 1, 2, (1, 0))}),
    Diagnostic: lambda: dict(kind="property1", destination=1, message=2, interferer=3),
    VerificationReport: lambda: dict(valid=True, mode="rank", diagnostics=(), rates={1: Fraction(1, 2)}),
    SimulationResult: lambda: dict(ok=False, tuples_checked=4, counterexample={1: (1,)}, destination=1, message=1),
    DimensionAudit: lambda: dict(K=5, U=1, D=1, alpha=(2, 3), checks=((1, 2, Fraction(2), Fraction(0)),)),
    AlignmentPartition: lambda: dict(L=1, subsets=(frozenset({1, 2}),)),
    FeasibilityVerdict: lambda: dict(feasible=False, witness=(1, 2, 1), partition=_partition(), instance=_instance()),
    UnicastMap: lambda: dict(original=_instance(), transformed=_instance(), L=1, source_destinations=(1, 2)),
    RankChainStep: lambda: dict(message=1, copies_used=2, dim=1, lower_bound=0, slack=1),
    BuiltinExample: lambda: dict(id=1, instance=_instance(), scheme=_scheme(), claimed_rate=Fraction(1, 2)),
    BoundCertificate: lambda: dict(kind="chain", terms=(3, 1, 2, 1), rhs=2, provenance=(1, 2, 3, 2)),
    OracleResult: lambda: dict(
        query="minrank", value=1, search_space_size=16, witness_matrix=Matrix(GF2, 1, 1, (1,)), witness_scheme=None
    ),
}


def compared(obj) -> tuple:
    """The fields that equality, hashing and repr read, in signature order."""
    return tuple(fields(obj).values())


def fields(obj) -> dict:
    """Every field by name: what vars(obj) holds for a record with a
    __dict__, and the slots of one without."""
    return {name: getattr(obj, name) for name in CASES[type(obj)]()}


@pytest.fixture(params=list(CASES), ids=lambda cls: cls.__name__)
def pair(request):
    """Two objects of one class built from equal, separately made fields."""
    cls = request.param
    return cls(**CASES[cls]()), cls(**CASES[cls]())


def test_equal_fields_give_equal_objects(pair):
    a, b = pair
    assert a == b and not a != b
    try:
        expected = hash(compared(a))
    except TypeError:  # a dict or a mapping proxy among the fields: unhashable, as their tuple is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == expected


def test_copies_and_pickles_are_equal(pair):
    a, _ = pair
    if type(a) in (LinearScheme, BuiltinExample):  # a scheme's mapping proxies neither pickle nor deep-copy
        with pytest.raises(TypeError):
            pickle.dumps(a)
        return
    for copied in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(copied) is type(a) and fields(copied) == fields(a) and copied == a


def test_only_certificates_keep_their_fields_in_slots(pair):
    a, _ = pair
    assert hasattr(a, "__dict__") is (type(a) is not BoundCertificate)


def test_positional_construction_matches_keywords(pair):
    a, _ = pair
    cls = type(a)
    assert cls(*CASES[cls]().values()) == a


def test_never_equal_to_a_tuple(pair):
    a, _ = pair
    assert a != compared(a) and compared(a) != a


def test_attributes_cannot_be_set_or_deleted(pair):
    a, _ = pair
    for name in fields(a):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == pair[1]


def test_repr_names_the_fields(pair):
    a, _ = pair
    if type(a) in (PrimeField, BinaryField):
        assert repr(a) in ("GF(5)", "GF(2^3)")
    else:
        listed = ", ".join(f"{name}={value!r}" for name, value in fields(a).items())
        assert repr(a) == f"{type(a).__name__}({listed})"


def test_normalizations():
    d = Destination(**CASES[Destination]())
    assert type(d.wants) is frozenset and type(d.has) is frozenset and d.has == {2, 3}
    assert FamilyTag(**CASES[FamilyTag]()).params == (("D", 1), ("K", 5), ("U", 1))
    assert type(Instance(**CASES[Instance]()).destinations) is tuple
    assert BinaryField(3).poly == 0b1011
    assert Matrix(**CASES[Matrix]()).entries == (1, 2, 0, 4)
    cert = BoundCertificate(**CASES[BoundCertificate]())
    assert cert.terms == (1, 1, 2, 3) and type(cert.rhs) is Fraction and cert.rhs == 2
    scheme = LinearScheme(**CASES[LinearScheme]())
    assert type(scheme.V) is MappingProxyType and type(scheme.U) is MappingProxyType
    with pytest.raises(TypeError):
        scheme.V[3] = scheme.V[1]
    assert LinearScheme(GF2, 2, scheme.V).U is None


def test_validation_still_refuses():
    with pytest.raises(BadParams, match="unknown family kind"):
        FamilyTag("ring")
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        BinaryField(3, 0b1001)
    with pytest.raises(DimensionMismatch, match="needs 4 entries"):
        Matrix(GF5, 2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        Subspace(Matrix(GF2, 2, 1, (0, 1)).hstack(Matrix(GF2, 2, 1, (1, 1))))
    with pytest.raises(SchemeMalformed, match="V\\[1\\]"):
        LinearScheme(GF5, 2, {1: Matrix(GF2, 2, 1, (1, 0))})


def _record_classes(cls=Record) -> list:
    return [c for sub in cls.__subclasses__() if sub.__module__.startswith("icx.") for c in (sub, *_record_classes(sub))]


def test_fields_are_the_init_parameters():
    """Every record of the package is in CASES, and its fields are its
    __init__ parameters in order."""
    assert sorted(c.__name__ for c in _record_classes()) == sorted(c.__name__ for c in CASES)
    for cls in _record_classes():
        params = [name for name in inspect.signature(cls.__init__).parameters if name != "self"]
        assert cls._fields == tuple(params), cls.__name__


def _wrapped_init(cls):
    """cls.__init__ behind a *args wrapper, as the benchmark's tracer wraps LinearScheme's."""
    original = cls.__init__

    @functools.wraps(original)
    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    return wrapped


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:
        return None


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_an_init_wrapped_later_keeps_the_fields(monkeypatch, cls):
    before, fields = cls(**CASES[cls]()), cls._fields
    monkeypatch.setattr(cls, "__init__", _wrapped_init(cls))
    after = cls(**CASES[cls]())
    assert cls._fields == fields and after == before and _hash(after) == _hash(before)
    assert repr(after) == repr(before)


class Pair(Record):
    def __init__(self, left, right=0):
        total = left + right  # a local variable is not a field
        super().__init__(left, total - left)


def test_fields_are_read_when_the_class_is_made(monkeypatch):
    """A record takes its fields from its own __init__ when the class is
    made, and keeps them after a wrapper replaces it."""
    assert Pair._fields == ("left", "right")
    monkeypatch.setattr(Pair, "__init__", _wrapped_init(Pair))
    assert Pair._fields == ("left", "right")
    assert Pair(1, 2) == Pair(1, 2) != Pair(2, 1) and repr(Pair(1)) == "Pair(left=1, right=0)"
