"""Exception types and the record base shared across the package, and the
JSON layer of its file readers and writers."""

import json
import sys
from operator import attrgetter


class Record:
    """Base of the package's immutable records.  A subclass's fields are the
    parameters of its own ``__init__`` after ``self``, read once when the class
    is made; its ``__init__`` normalizes its arguments and passes the fields'
    values, in order, to this one, and nothing is set or deleted after that.
    Equality and hashing read those fields and hold only between objects of one
    class (never with a tuple); the repr is ``Name(field=value, ...)``.  A
    subclass that declares its fields in ``__slots__`` has no ``__dict__``; the
    others keep theirs."""

    __slots__ = ()

    def __init_subclass__(cls):
        # the code object, not inspect, which would slow every CLI start; read
        # now, so an __init__ wrapped later leaves the fields as they are
        code = vars(cls)["__init__"].__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        # one C getter per class: fields are compared on every matrix product
        cls._values = attrgetter(*cls._fields)

    def __init__(self, *values):
        # object.__setattr__ keeps the values inline in the object; filling
        # vars(self) instead takes about twice the memory per record
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._values(self) == self._values(other)

    def __hash__(self):
        values = self._values(self)  # one field's getter returns it bare; hash the tuple of the fields
        return hash(values if len(self._fields) > 1 else (values,))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class IcxError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(IcxError):
    """Operands belong to different finite fields."""


class DivisionByZero(IcxError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(IcxError):
    """Matrix or subspace dimensions are incompatible."""


class FieldTooSmall(IcxError):
    """The field does not have enough elements for the construction."""


class OddDimension(IcxError):
    """Spread construction requires an even ambient dimension."""


class BadParams(IcxError):
    """Family generator parameters violate the constructor preconditions."""


class CannotNormalize(IcxError):
    """Instance cannot be normalized to the requested demand size."""


class ParseError(IcxError):
    """Malformed instance or scheme file."""


class SchemeMalformed(IcxError):
    """Scheme matrices are inconsistent with the field/instance."""


class NoDecoderExists(IcxError):
    """Zero-forcing decoder synthesis failed (scheme is not resolvable)."""


class NotNormalized(IcxError):
    """Operation requires every destination to desire the same number of messages."""


class Infeasible(IcxError):
    """Requested symmetric rate is not achievable; carries the conflict witness."""

    def __init__(self, witness):
        super().__init__(f"rate infeasible, conflict witness {witness}")
        self.witness = witness


class UnsupportedFamily(IcxError):
    """Instance has no (or the wrong) family tag for this operation."""


class BudgetExceeded(IcxError):
    """Search or enumeration space exceeds the configured budget."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class TranslationFailed(IcxError):
    """Scheme translation produced an empty precoder for some message."""


def fraction_text(x) -> str:
    """A Fraction as JSON writes it: "n/d", "2/1" for an integer."""
    return f"{x.numerator}/{x.denominator}"


def is_int(value) -> bool:
    """JSON integers only: ``true`` and ``1.0`` are not integers in a file."""
    return type(value) is int


def _unique_keys(pairs) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ParseError(f"invalid JSON: key {json.dumps(key)} repeated in one object")
        obj[key] = value
    return obj


def parse_json(text: str):
    """Decode a file's JSON text; malformed or too deeply nested text, a key
    repeated in one object, or an integer past Python's digit limit, is a
    ParseError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    except ValueError:
        raise ParseError(f"invalid JSON: an integer has more than {sys.get_int_max_str_digits()} digits") from None


def read_record(obj, name: str, required, optional=()) -> tuple:
    """The values of a file's JSON object at its required keys, then at its
    optional ones (None where absent): the one rule for every object in a
    file.  One that is not an object, lacks a required key or holds any other
    key is a ParseError that names it."""
    if not isinstance(obj, dict):
        raise ParseError(f"{name} must be a JSON object")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ParseError(f"{name} needs {' and '.join(map(repr, missing))}")
    keys = (*required, *optional)
    unknown = obj.keys() - keys
    if unknown:
        raise ParseError(f"{name} has unknown keys {sorted(unknown)}")
    return tuple(map(obj.get, keys))


def read_file(path, parse):
    """parse(text) of a UTF-8 file; one that is not UTF-8 or does not parse is
    a ParseError that names it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except (ParseError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def write_file(path, text: str):
    """Write text to a file as UTF-8 with "\\n" line ends: the counterpart of read_file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def dump_json(obj) -> str:
    """The one output format: sorted keys, two-space indent, a final newline,
    and integers of any length (reading keeps Python's digit limit)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
