"""One declared rule per input field, and the error a broken rule raises.

Every value that comes in from outside (a constructor argument, a ``run
--config`` field, a command-line flag) meets one rule. A config declares the
rule of each field on the field itself (``rows: int = ROWS.field(3)``), and
:func:`checked` gathers them once, at import, into the class's ``RULES``; a
function that takes plain arguments declares a :class:`Rules` of its own. A
rule states the value's kind, its range, and whether None is allowed:

* :class:`Int`: an integer, not a bool; a numpy integer is stored as the
  Python int of the same value, and a Python int is kept as it is.
* :class:`Real`: a real number, not a bool, finite and in its range; kept as
  the same object, never coerced.
* :class:`Choice`: one of a fixed set of strings.
* :class:`Items`: a list or tuple whose items each meet one rule, stored as a
  tuple (the scheme and app names, the row seeds).
* :class:`Text`: a str that encodes as UTF-8 and holds no NUL, which no file
  name can hold; or an object of the other types the field takes (a
  ``Trace``).

``cli`` reads each ``run`` flag as its field's rule says (``Rule.parse``). A
rule that ties two fields together is written where the two meet.

A broken rule raises :class:`SpecError`, a ValueError that names its field,
in ``field`` and in its message; a value of the wrong kind raises
:class:`SpecTypeError`, which is a TypeError too.
"""

import copy
import dataclasses
import itertools
import math
import numbers
import operator


class SpecError(ValueError):
    """An input its rule refuses; ``field`` names it, as the message does."""

    code = "bad-arguments"

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class SpecTypeError(SpecError, TypeError):
    """An input of a kind its field does not take."""


def _span(lo, hi, open_lo: bool = False) -> str:
    """The range from ``lo`` to ``hi`` as a message names it. A wide ``hi`` of
    ``2**k - 1`` reads as ``2**k)`` after 0, the range of a k-bit word, and
    as ``2**k - 1]`` after any other ``lo``."""
    top = "inf)" if hi == math.inf else f"{hi}]"
    if 0xFFFF < hi < math.inf and not hi & (hi + 1):
        top = f"2**{hi.bit_length()}" + (")" if lo == 0 else " - 1]")
    return f"{'(' if open_lo else '['}{lo}, {top}"


def _refuse(name: str, value, kind: str):
    raise SpecTypeError(name, f"{name} must be {kind}, not {type(value).__name__}")


class Rule:
    """``rule.check(name, value)`` returns the value to store, or raises."""

    parse = str  # how the text of a command-line flag is read
    doc = None  # the flag's help
    none = False  # whether a field may be None

    def field(self, default=dataclasses.MISSING, none: bool = False):
        """A dataclass field of this rule, which allows None too if ``none``
        or if None is the default."""
        rule = copy.copy(self)
        rule.none = none or default is None
        return dataclasses.field(default=default, metadata={"rule": rule})


class Int(Rule):
    """An integer in ``[lo, hi]``, a multiple of ``step``."""

    parse = int

    def __init__(self, lo: float = -math.inf, hi: float = math.inf, step: int = 1) -> None:
        self.lo, self.hi, self.step, self.span = lo, hi, step, _span(lo, hi)

    def check(self, name: str, value) -> int:
        if type(value) is not int:
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                _refuse(name, value, "an integer")
            value = operator.index(value)
        if not self.lo <= value <= self.hi:
            raise SpecError(name, f"{name} must be in {self.span}")
        if value % self.step:
            raise SpecError(name, f"{name} must be a multiple of {self.step}")
        return value


class Real(Rule):
    """A finite real number in ``[lo, hi]``, or ``(lo, hi]`` if ``open_lo``."""

    parse = float

    def __init__(self, lo: float, hi: float = math.inf, open_lo: bool = False) -> None:
        self.lo, self.hi, self.open_lo, self.span = lo, hi, open_lo, _span(lo, hi, open_lo)

    def check(self, name: str, value):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            _refuse(name, value, "a real number")
        # compared, not converted: an int too large for a float is finite
        if not -math.inf < value < math.inf:
            raise SpecError(name, f"{name} must be finite")
        if (value <= self.lo if self.open_lo else value < self.lo) or value > self.hi:
            raise SpecError(name, f"{name} must be in {self.span}")
        return value


class Choice(Rule):
    """One of ``options``."""

    def __init__(self, options: tuple[str, ...]) -> None:
        self.options, self.doc = options, "one of " + ", ".join(options)

    def check(self, name: str, value) -> str:
        if not isinstance(value, str):
            _refuse(name, value, "a str")
        if value not in self.options:
            raise SpecError(name, f"unknown {name} {value!r}")
        return value


class Items(Rule):
    """A list or tuple of items that each meet ``item``, not empty if
    ``required`` and none repeated if ``unique``; stored as a tuple. A flag
    gives a comma list, the empty text the empty list."""

    parse = staticmethod(lambda text: text.split(",") if text else [])

    def __init__(self, item: Rule, required: bool = False, unique: bool = False) -> None:
        self.item, self.required, self.unique = item, required, unique
        self.doc = item.doc and f"comma list, each {item.doc}"

    def check(self, name: str, value) -> tuple:
        if not isinstance(value, (list, tuple)):
            _refuse(name, value, "a list or tuple")
        value = tuple(map(self.item.check, itertools.repeat(name), value))
        if self.required and not value:
            # the fields of lists are plurals: "schemes" names schemes
            raise SpecError(name, f"{name} must name at least one {name[:-1]}")
        if self.unique and len(set(value)) != len(value):
            raise SpecError(name, f"repeated {name}: {list(value)}")
        return value


class Text(Rule):
    """A str of UTF-8 text without NUL, or an object of a type in ``also``."""

    def __init__(self, kind: str = "a str", also: tuple[type, ...] = ()) -> None:
        self.kind, self.also = kind, also

    def check(self, name: str, value):
        if isinstance(value, self.also):
            return value
        if not isinstance(value, str):
            _refuse(name, value, self.kind)
        # a lone surrogate, from a JSON escape, encodes to no UTF-8
        if "\0" in value or value.encode(errors="replace").decode() != value:
            raise SpecError(name, f"{name} must be UTF-8 text without NUL")
        return value


class Rules(dict):
    """Names, each of a field or an argument, to their rules."""

    def apply(self, obj) -> None:
        """Check each field of ``obj``, storing what its rule returns where
        that is another object (a numpy int's Python int, a list's tuple)."""
        for name, rule in self.items():
            value = getattr(obj, name)
            if value is None and rule.none:
                continue
            if (kept := rule.check(name, value)) is not value:
                object.__setattr__(obj, name, kept)

    def args(self, **values) -> tuple:
        """What each rule returns for its argument, in the order given."""
        return tuple([self[name].check(name, value) for name, value in values.items()])


def checked(cls):
    """The dataclass ``cls``, with the rules of its fields in ``cls.RULES``."""
    cls.RULES = Rules({f.name: f.metadata["rule"] for f in dataclasses.fields(cls)})
    return cls
