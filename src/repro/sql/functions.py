"""Scalar SQL functions and the determinism classification.

Section 4.3: "To make the PL/SQL procedure deterministic, we have
restricted the usage of date/time library, random functions from the
mathematics library, sequence manipulation functions, and system
information functions."  Each builtin carries a ``deterministic`` flag; the
contracts layer rejects procedures referencing non-deterministic ones, and
the executor refuses to evaluate them inside a blockchain transaction.
Read-only client queries (e.g. the Table 3 provenance audits, which use
``now() - interval '24 hours'``) may still use them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from decimal import Decimal
from typing import Any, Callable, Dict, Optional, Sequence

from repro.errors import ExecutionError


@dataclass(frozen=True)
class SQLFunction:
    """A scalar builtin."""

    name: str
    fn: Callable[..., Any]
    min_args: int
    max_args: Optional[int]
    deterministic: bool = True


def _null_guard(fn: Callable[..., Any]) -> Callable[..., Any]:
    """Standard SQL semantics: any NULL argument yields NULL."""
    def wrapper(*args: Any) -> Any:
        if any(a is None for a in args):
            return None
        return fn(*args)
    return wrapper


def _coalesce(*args: Any) -> Any:
    for arg in args:
        if arg is not None:
            return arg
    return None


def _nullif(a: Any, b: Any) -> Any:
    return None if a == b else a


def _greatest(*args: Any) -> Any:
    present = [a for a in args if a is not None]
    return max(present) if present else None


def _least(*args: Any) -> Any:
    present = [a for a in args if a is not None]
    return min(present) if present else None


def _substr(s: str, start: int, length: Optional[int] = None) -> str:
    # SQL substr is 1-based.
    begin = max(int(start) - 1, 0)
    if length is None:
        return s[begin:]
    return s[begin:begin + max(int(length), 0)]


def _round(value: Any, digits: int = 0) -> Any:
    if isinstance(value, Decimal):
        return value.quantize(Decimal(10) ** -int(digits))
    return round(float(value), int(digits))


def _to_number(value: Any) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ExecutionError(f"cannot convert {value!r} to number") from None


_REGISTRY: Dict[str, SQLFunction] = {}


def _register(name: str, fn: Callable[..., Any], min_args: int,
              max_args: Optional[int], deterministic: bool = True,
              null_guard: bool = True) -> None:
    wrapped = _null_guard(fn) if null_guard else fn
    _REGISTRY[name] = SQLFunction(name=name, fn=wrapped, min_args=min_args,
                                  max_args=max_args,
                                  deterministic=deterministic)


# -- math -------------------------------------------------------------------
_register("abs", abs, 1, 1)
_register("ceil", lambda x: math.ceil(_to_number(x)), 1, 1)
_register("ceiling", lambda x: math.ceil(_to_number(x)), 1, 1)
_register("floor", lambda x: math.floor(_to_number(x)), 1, 1)
_register("round", _round, 1, 2)
_register("trunc", lambda x: math.trunc(_to_number(x)), 1, 1)
_register("mod", lambda a, b: a % b, 2, 2)
_register("power", lambda a, b: _to_number(a) ** _to_number(b), 2, 2)
_register("sqrt", lambda x: math.sqrt(_to_number(x)), 1, 1)
_register("exp", lambda x: math.exp(_to_number(x)), 1, 1)
_register("ln", lambda x: math.log(_to_number(x)), 1, 1)
_register("sign", lambda x: (x > 0) - (x < 0), 1, 1)

# -- strings ------------------------------------------------------------------
_register("length", lambda s: len(str(s)), 1, 1)
_register("char_length", lambda s: len(str(s)), 1, 1)
_register("lower", lambda s: str(s).lower(), 1, 1)
_register("upper", lambda s: str(s).upper(), 1, 1)
_register("trim", lambda s: str(s).strip(), 1, 1)
_register("ltrim", lambda s: str(s).lstrip(), 1, 1)
_register("rtrim", lambda s: str(s).rstrip(), 1, 1)
_register("substr", _substr, 2, 3)
_register("substring", _substr, 2, 3)
_register("replace", lambda s, a, b: str(s).replace(str(a), str(b)), 3, 3)
_register("concat", lambda *a: "".join(str(x) for x in a if x is not None),
          1, None, null_guard=False)
_register("strpos", lambda s, sub: str(s).find(str(sub)) + 1, 2, 2)
_register("left", lambda s, n: str(s)[:int(n)], 2, 2)
_register("right", lambda s, n: str(s)[-int(n):] if int(n) else "", 2, 2)

# -- null handling / conditionals --------------------------------------------
_register("coalesce", _coalesce, 1, None, null_guard=False)
_register("nullif", _nullif, 2, 2, null_guard=False)
_register("greatest", _greatest, 1, None, null_guard=False)
_register("least", _least, 1, None, null_guard=False)

# -- non-deterministic (banned in contracts, section 4.3) ---------------------
_register("now", lambda: time.time(), 0, 0, deterministic=False,
          null_guard=False)
_register("current_timestamp", lambda: time.time(), 0, 0,
          deterministic=False, null_guard=False)
_register("clock_timestamp", lambda: time.time(), 0, 0,
          deterministic=False, null_guard=False)
_register("timeofday", lambda: time.time(), 0, 0, deterministic=False,
          null_guard=False)
_register("random", lambda: __import__("random").random(), 0, 0,
          deterministic=False, null_guard=False)

def _banned_sequence(*_args: Any) -> Any:
    raise ExecutionError("sequence functions are not supported")

_register("nextval", _banned_sequence, 1, 1, deterministic=False)
_register("currval", _banned_sequence, 1, 1, deterministic=False)
_register("setval", _banned_sequence, 2, 2, deterministic=False)

# -- system information (banned in contracts) ---------------------------------
_register("version", lambda: "repro-blockchaindb 1.0", 0, 0,
          deterministic=False, null_guard=False)
_register("pg_backend_pid", lambda: 0, 0, 0, deterministic=False,
          null_guard=False)

AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})

NON_DETERMINISTIC_NAMES = frozenset(
    name for name, spec in _REGISTRY.items() if not spec.deterministic)


def lookup(name: str) -> SQLFunction:
    """Find a scalar builtin; raises :class:`ExecutionError` if unknown."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ExecutionError(f"unknown function {name!r}")
    return spec


def is_known(name: str) -> bool:
    return name in _REGISTRY


def call(name: str, args: Sequence[Any],
         allow_nondeterministic: bool = True) -> Any:
    """Invoke builtin ``name`` with ``args``."""
    spec = lookup(name)
    if not spec.deterministic and not allow_nondeterministic:
        raise ExecutionError(
            f"function {name}() is non-deterministic and not allowed in "
            f"blockchain transactions")
    if len(args) < spec.min_args or (spec.max_args is not None
                                     and len(args) > spec.max_args):
        raise ExecutionError(f"{name}() called with {len(args)} arguments")
    try:
        return spec.fn(*args)
    except ZeroDivisionError:
        raise ExecutionError("division by zero") from None
    except (TypeError, ValueError, ArithmeticError):
        # Type names only: the interpreter's own text reaches the ledger
        # as the abort reason and differs between Python versions.
        kinds = ", ".join(type(arg).__name__ for arg in args)
        raise ExecutionError(
            f"{name}() cannot be applied to ({kinds})") from None
