"""Column operator forms: batch Phase A's values, one column per slot.

The batch table (:mod:`repro.pipeline.batch`) runs a kernel body once
per plan node over every work-item of a launch. A value there is either
*uniform* — one Python object every row shares (a constant, a kernel
argument, a buffer name) — or a *column*: a 1-D ``int64`` or ``float64``
array with one entry per row. A private array is a :class:`PrivateArray`
with one row of elements per work-item; like the closures' per-row
list, it is truthy and compares unequal to a number, and any other
operation on it raises or aborts.

Each operator has one value-level form, the closure backend's
(:func:`repro.frontend.codegen._binop_fn` and friends), and the column
form here dispatches to it whenever every operand is uniform, so uniform
values keep exact Python semantics. A column operation is
**exact-or-abort**: for every row it yields exactly what the value-level
form yields on that row's Python values, or it raises
:class:`BatchAbort` naming why it cannot (an ``int64`` overflow, a shift
count outside 0-63, a zero divisor, ...), and the launch goes to the
next tier, which computes with the value-level forms.

Why ``int64``/``float64`` columns are exact: a row's Python value is an
``int`` (or ``bool``) or a ``float``. Ints that fit 64 bits behave the
same in both as long as no result leaves that range, which every
integer operation checks. Python converts an ``int`` to ``float`` with
one correctly rounded step, as numpy does, so ``+ - * /`` on a mixed
pair agree; only comparisons differ (Python compares mixed values
exactly), so those abort unless the int side is at most 2**53 in
magnitude. A column holds one type for every row, so a write that
would give some rows a ``float`` and others an ``int`` aborts.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

ndarray = np.ndarray

_I64_MIN = -(1 << 63)
_I64_MAX = (1 << 63) - 1
#: Ints up to this magnitude convert to float64 exactly.
_EXACT = 1 << 53
#: A product estimate below this cannot have overflowed int64.
_SAFE_PRODUCT = float(1 << 62)
_TWO_63 = float(1 << 63)

_INT = np.dtype(np.int64)
_FLOAT = np.dtype(np.float64)

#: The empty row set (``rows`` None is every row).
EMPTY = np.empty(0, dtype=np.intp)


class BatchAbort(Exception):
    """Phase A divergence/hazard: abort the table attempt; the engine's
    next tier times the launch."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class PrivateArray:
    """A private array: ``data[row]`` holds one work-item's elements.

    Assignment aliases it, as the closure backend's per-row list does;
    element stores write it in place.
    """

    __slots__ = ("data",)

    def __init__(self, data: ndarray) -> None:
        self.data = data


class Columns(list):
    """One launch's column frame: slot ``s`` holds a uniform value or a
    column over all :attr:`n` rows.

    ``rows`` arguments throughout are the active rows: None for every
    row, else an index array.
    """

    __slots__ = ("n", "tags", "memory", "compute_id", "_gid", "_all")

    def __init__(self, slots: list, n: int, tags: Any, memory: Any,
                 compute_id: int) -> None:
        super().__init__(slots)
        self.n = n
        self.tags = tags
        self.memory = memory
        self.compute_id = compute_id
        self._gid: Optional[ndarray] = None
        self._all: Optional[ndarray] = None

    def all_rows(self) -> ndarray:
        """Every row's index."""
        if self._all is None:
            self._all = np.arange(self.n)
        return self._all

    def gid(self, rows: Optional[ndarray]) -> ndarray:
        """``get_global_id(0)`` of the active rows: each tag's first
        component (the tag itself when it is an int)."""
        gid = self._gid
        if gid is None:
            tags = self.tags
            if hasattr(tags, "gids"):               # schedule.WorkItems
                gid = tags.gids()
            elif type(tags[0]) is tuple:
                gid = np.array([tag[0] for tag in tags])
            else:
                gid = np.array(list(tags))
            if gid.dtype != _INT:
                raise BatchAbort("work-item id is not an int64")
            self._gid = gid
        return gid if rows is None else gid[rows]


# -- operands -----------------------------------------------------------------


def operand(value: Any) -> Any:
    """``value`` as a numpy operand or column entry: a column, or a
    uniform int or float; abort when no column op could reproduce the
    Python value's semantics."""
    kind = type(value)
    if kind is ndarray:
        return value
    if kind is int or kind is bool:
        if _I64_MIN <= value <= _I64_MAX:
            return value
        raise BatchAbort("value does not fit int64")
    if kind is float or kind is np.float64 or kind is np.int64:
        return value
    if isinstance(value, PrivateArray):
        raise BatchAbort("private array used as a value")
    raise BatchAbort(f"{kind.__name__} operand in a column")


def _is_float(value: Any) -> bool:
    if type(value) is ndarray:
        return value.dtype.kind == "f"
    return isinstance(value, float)


def _any(test: Any) -> bool:
    return test.any() if type(test) is ndarray else bool(test)


def truth(value: Any) -> Any:
    """Python truthiness per row: 1/0 (a uniform value stays uniform)."""
    if type(value) is ndarray:
        return (value != 0).astype(np.int64)
    return 1 if value else 0


def same_kind(column: ndarray, value: Any) -> None:
    """Abort unless writing ``value`` keeps ``column`` all-int or
    all-float."""
    if (column.dtype.kind == "f") != _is_float(value):
        raise BatchAbort("int/float column mix")


def masked(old: Any, rows: ndarray, value: Any, n: int) -> ndarray:
    """``old`` with the active ``rows`` set to ``value``: a new column,
    so values aliasing ``old`` keep theirs."""
    value = operand(value)
    if type(old) is ndarray:
        column = old.copy()
    else:
        old = operand(old)
        column = np.full(n, old, dtype=_FLOAT if _is_float(old) else _INT)
    same_kind(column, value)
    column[rows] = value
    return column


def fresh(rows: Optional[ndarray], value: Any, n: int) -> Any:
    """A slot's new value when only the active ``rows`` will read it:
    the value itself when it is uniform or covers every row, else a full
    column (the inactive rows' entries are never read)."""
    if rows is None or type(value) is not ndarray:
        return value
    column = np.zeros(n, dtype=value.dtype)
    column[rows] = value
    return column


def widen(values: ndarray) -> ndarray:
    """Buffer elements as a column: ints and bools as ``int64``, floats
    as ``float64`` (the values ``tolist()`` gives, exactly)."""
    kind = values.dtype.kind
    if kind == "f" and values.dtype.itemsize <= 8:
        return values.astype(np.float64)
    if kind not in "iub":
        raise BatchAbort(f"{values.dtype} buffer")
    if kind == "u" and values.dtype.itemsize == 8 and len(values) \
            and values.max() > _I64_MAX:
        raise BatchAbort("value does not fit int64")
    return values.astype(np.int64)


def index_of(index: Any, size: int) -> Any:
    """``index`` (a column or uniform) checked against ``[0, size)`` on
    every active row."""
    if type(index) is ndarray:
        if index.dtype.kind != "i":
            raise BatchAbort("non-integer index")
        if index.min() < 0 or index.max() >= size:
            raise BatchAbort("index out of range")
        return index
    if type(index) is not int:
        raise BatchAbort("non-integer index")
    if not 0 <= index < size:
        raise BatchAbort("index out of range")
    return index


def _private(frame: Columns, rows: Optional[ndarray], array: Any,
             index: Any) -> tuple:
    """``(data, row selector, element selector)`` of ``array[index]`` on
    the active rows."""
    if type(array) is not PrivateArray:
        raise BatchAbort("subscript of a non-array")
    data = array.data
    index = index_of(index, data.shape[1])
    if type(index) is ndarray:
        return data, (frame.all_rows() if rows is None else rows), index
    return data, (slice(None) if rows is None else rows), index


def private_get(frame: Columns, rows: Optional[ndarray], array: Any,
                index: Any) -> ndarray:
    """``array[index]`` on the active rows."""
    data, at, element = _private(frame, rows, array, index)
    # A copy: a later element store must not change the value read.
    return data[at, element].copy()


def private_set(frame: Columns, rows: Optional[ndarray], array: Any,
                index: Any, value: Any) -> None:
    """``array[index] = value`` on the active rows."""
    data, at, element = _private(frame, rows, array, index)
    value = operand(value)
    same_kind(data, value)
    data[at, element] = value


# -- arithmetic, overflow-checked ---------------------------------------------


def _add(l: Any, r: Any) -> ndarray:
    result = l + r
    if not (_is_float(l) or _is_float(r)) and _any(
            ((l ^ result) & (r ^ result)) < 0):
        raise BatchAbort("int64 overflow on +")
    return result


def _sub(l: Any, r: Any) -> ndarray:
    result = l - r
    if not (_is_float(l) or _is_float(r)) and _any(
            ((l ^ r) & (l ^ result)) < 0):
        raise BatchAbort("int64 overflow on -")
    return result


def _mul(l: Any, r: Any) -> ndarray:
    result = l * r
    if _is_float(l) or _is_float(r):
        return result
    estimate = np.abs(np.multiply(l, r, dtype=np.float64))
    suspect = np.flatnonzero(estimate >= _SAFE_PRODUCT)
    if len(suspect):
        left, right = np.broadcast_arrays(l, r)
        for row in suspect.tolist():
            if not _I64_MIN <= int(left[row]) * int(right[row]) <= _I64_MAX:
                raise BatchAbort("int64 overflow on *")
    return result


def _check_divisor(r: Any, op: str) -> None:
    if _any(r == 0):
        raise BatchAbort(f"zero divisor in {op}")


def _truncate(values: ndarray) -> ndarray:
    """``int(value)`` of each float, as float64."""
    result = np.trunc(values)
    if not np.all(np.abs(result) < _TWO_63):
        # int() raises on inf/nan; a larger int leaves the int64 range.
        raise BatchAbort("value does not fit int64")
    return result


def whole(value: Any) -> Any:
    """``int(value)`` on every active row, as ``ops.Load``/``ops.Store``
    take their index."""
    if type(value) is not ndarray:
        return int(value)
    if value.dtype.kind == "f":
        return _truncate(value).astype(np.int64)
    return value


def _float_quotient(l: Any, r: Any) -> ndarray:
    """``int(l / r)`` per row, as float64 (the float branch of
    :func:`~repro.frontend.codegen._c_div`)."""
    return _truncate(np.true_divide(l, r))


def _div(l: Any, r: Any, op: str = "/") -> ndarray:
    """C's truncating ``l / r`` over columns (``_c_div``; a zero divisor
    aborts)."""
    _check_divisor(r, op)
    if _is_float(l) or _is_float(r):
        return _float_quotient(l, r).astype(np.int64)
    if _any((l == _I64_MIN) & (r == -1)):
        raise BatchAbort(f"int64 overflow on {op}")
    return (l - np.fmod(l, r)) // r


def _mod(l: Any, r: Any, op: str = "%") -> ndarray:
    """C's ``l % r`` over columns (``_c_mod``; a zero divisor aborts)."""
    _check_divisor(r, op)
    if _is_float(l) or _is_float(r):
        quotient = _float_quotient(l, r)
        if _is_float(r):
            return l - quotient * r
        # Python multiplies the int quotient by the int divisor exactly.
        return l - _mul(quotient.astype(np.int64), r)
    if _any(r == -1):
        return np.where(r == -1, 0, np.fmod(l, np.where(r == -1, 1, r)))
    return np.fmod(l, r)


def _compare(ufunc: Callable) -> Callable:
    def compare(l: Any, r: Any) -> ndarray:
        if _is_float(l) != _is_float(r):
            whole = r if _is_float(l) else l
            if _any(np.abs(whole) > _EXACT):
                raise BatchAbort("inexact int/float comparison")
        return ufunc(l, r).astype(np.int64)
    return compare


def _bitwise(ufunc: Callable, op: str) -> Callable:
    def bitwise(l: Any, r: Any) -> ndarray:
        if _is_float(l) or _is_float(r):
            raise BatchAbort(f"float operand of {op}")
        return ufunc(l, r)
    return bitwise


def _shift_count(l: Any, r: Any, op: str) -> None:
    if _is_float(l) or _is_float(r):
        raise BatchAbort(f"float operand of {op}")
    if _any(r < 0) or _any(r > 63):
        raise BatchAbort("shift count outside 0-63")


def _lshift(l: Any, r: Any) -> ndarray:
    _shift_count(l, r, "<<")
    result = np.left_shift(l, r)
    if _any(np.right_shift(result, r) != l):
        raise BatchAbort("<< loses bits")
    return result


def _rshift(l: Any, r: Any) -> ndarray:
    _shift_count(l, r, ">>")
    return np.right_shift(l, r)


_COLUMN_BINOPS = {
    "+": _add,
    "-": _sub,
    "*": _mul,
    "/": _div,
    "%": _mod,
    "<": _compare(np.less),
    ">": _compare(np.greater),
    "<=": _compare(np.less_equal),
    ">=": _compare(np.greater_equal),
    "==": _compare(np.equal),
    "!=": _compare(np.not_equal),
    "&": _bitwise(np.bitwise_and, "&"),
    "|": _bitwise(np.bitwise_or, "|"),
    "^": _bitwise(np.bitwise_xor, "^"),
    "<<": _lshift,
    ">>": _rshift,
}


def _dispatch(column: Callable, scalar: Callable) -> Callable:
    """``scalar`` when both operands are uniform, else ``column``."""
    def binop(l: Any, r: Any) -> Any:
        if type(l) is not ndarray and type(r) is not ndarray:
            return scalar(l, r)
        return column(operand(l), operand(r))
    return binop


def column_binop(op: str, scalar: Callable) -> Callable:
    """The column form of binary ``op`` whose value-level form is
    ``scalar``."""
    return _dispatch(_COLUMN_BINOPS[op], scalar)


def column_compound(op: str, scalar: Callable) -> Callable:
    """The column form of the update ``target <op>= value`` whose
    value-level form is ``scalar``."""
    if op in ("/=", "%="):
        column = _div if op == "/=" else _mod
        return _dispatch(lambda l, r: column(l, r, op), scalar)
    return _dispatch(_COLUMN_BINOPS[op[0]], scalar)


def _negate(value: ndarray) -> ndarray:
    if value.dtype.kind != "f" and _any(value == _I64_MIN):
        raise BatchAbort("int64 overflow on unary -")
    return -value


def _invert(value: ndarray) -> ndarray:
    if value.dtype.kind == "f":
        raise BatchAbort("float operand of ~")
    return ~value


_COLUMN_UNOPS = {
    "-": _negate,
    "!": lambda value: (value == 0).astype(np.int64),
    "~": _invert,
}


def column_unary(op: str, scalar: Callable) -> Callable:
    """The column form of unary ``op`` whose value-level form is
    ``scalar``."""
    column = _COLUMN_UNOPS[op]

    def unary(value: Any) -> Any:
        if type(value) is not ndarray:
            return scalar(value)
        return column(value)
    return unary


def split(condition: Any, rows: Optional[ndarray],
          all_rows: Callable[[], ndarray]) -> tuple:
    """``(taken, not taken)``: the active ``rows`` split by a branch
    condition's value on them; an empty side is :data:`EMPTY`."""
    if type(condition) is not ndarray:
        return (rows, EMPTY) if condition else (EMPTY, rows)
    taken = condition != 0
    count = int(np.count_nonzero(taken))
    if count == len(taken):
        return rows, EMPTY
    if count == 0:
        return EMPTY, rows
    base = all_rows() if rows is None else rows
    return base[taken], base[~taken]
