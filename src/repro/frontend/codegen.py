"""Closure codegen: lower parsed kernel bodies to slot-framed closures.

A tree-walking interpreter pays for every executed statement: each
expression is a generator frame, every name goes through a dict-chain
scope lookup, and control flow is exception-driven. That cost is paid
per simulated cycle, and after the engine-side overhauls it dominated
frontend workloads. That interpreter survives as the test oracle
``tests/frontend_oracle.py``.

This module compiles each kernel body **once** into a tree of nested
Python closures:

* Names are resolved at compile time to integer **slots** in a flat
  frame list — no dict-chain lookup at run time. ``#define`` values are
  folded as constants (unless the kernel mutates them, which AOCL-style
  object macros cannot anyway but the oracle's scope semantics allow).
* Pure arithmetic, logic, comparisons, private-array accesses and
  non-blocking channel operations compile to direct (non-generator)
  callables; constant subtrees fold at compile time.
* Only ops that must reach the scheduler stay yield points: global and
  local memory accesses, blocking channel reads/writes, barriers, HDL
  calls, and autorun cycle boundaries. The op stream — including the
  static ``site`` labels that identify LSUs — is **identical** to the
  oracle interpreter's, so timing, stats, and traces are too.
* Control flow threads small integer codes (break/continue/return) out
  of statement closures instead of raising exceptions.

Equivalence with the oracle interpreter is pinned by
``tests/test_prop_frontend_codegen.py`` (values, timestamps, engine and
LSU statistics on randomized kernels) and by running the frontend corner
suite under both.

Known (intentional) divergence: *conditionally executed* declarations
(a declaration as a braceless ``if``/loop branch, or inside a switch
case) read on a later loop iteration where the declaring statement did
*not* re-execute. The oracle's fresh-dict scopes raise ``undefined
identifier`` there; a codegen frame slot may still hold the previous
iteration's value. The first-ever read before any execution of the
declaration raises identically in both (``_UNDEF`` hazard check). Code
relying on this is UB-adjacent C.

One compiled body is reusable across fabrics: per-fabric values (buffer
names, channel endpoints, HDL modules, ``__local`` scratchpads) flow in
through the frame at :meth:`CompiledBody.make` time, which is what lets
:mod:`repro.frontend.compiler` cache whole program images.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.channels.channel import Channel
from repro.channels.registry import ChannelArray
from repro.frontend import ast_nodes as ast
from repro.frontend.lexer import error_at
from repro.memory.local_memory import LocalMemory
from repro.pipeline import columns, ops

#: Built-in constants the listings reference.
CONSTANTS = {
    "ULONG_MAX": (1 << 64) - 1,
    "UINT_MAX": (1 << 32) - 1,
    "INT_MAX": (1 << 31) - 1,
    "CLK_CHANNEL_MEM_FENCE": 1,
    "CLK_GLOBAL_MEM_FENCE": 2,
    "CLK_LOCAL_MEM_FENCE": 4,
}

#: The AOCL channel built-ins (Intel and legacy Altera spellings).
CHANNEL_BUILTINS = {
    "read_channel_altera", "read_channel_intel",
    "write_channel_altera", "write_channel_intel",
    "read_channel_nb_altera", "read_channel_nb_intel",
    "write_channel_nb_altera", "write_channel_nb_intel",
}


class _Break(Exception):
    """A ``break`` that escaped every loop of a kernel body."""


class _Continue(Exception):
    """A ``continue`` that escaped every loop of a kernel body."""

# Control codes threaded out of statement closures. ``None`` means the
# statement completed normally.
_BRK, _CNT, _RET = 1, 2, 3

#: The diagnostic of an unsupported ``&``.
_ADDRESS_OF_ONLY = ("& is only supported on __global buffer elements (and "
                    "as the valid-flag argument of non-blocking channel "
                    "reads)")

#: Placeholder for a frame slot whose declaration has not executed yet on
#: this path (only ever observable through hazard-checked slots).
_UNDEF = object()

#: Marks a :class:`_CExpr` with no compile-time-known value.
_NOCONST = object()

# Static value kinds per slot; only the four container kinds drive
# specialization, so mislabeling a scalar as K_INT is harmless.
K_UNKNOWN, K_INT, K_BUFFER, K_LOCAL, K_PRIVATE, K_CHANNEL, K_CHANARR = range(7)

#: The specialized subscript bases (sound only for pristine slots).
_CONTAINER_KINDS = (K_BUFFER, K_LOCAL, K_PRIVATE, K_CHANARR)


class _CExpr:
    """A compiled expression: ``fn(frame, ctx) -> value``.

    ``gen`` marks generator closures (the expression contains at least
    one yield point; drive with ``yield from``). ``const`` carries the
    folded value for compile-time constants (``_NOCONST`` otherwise).
    """

    __slots__ = ("fn", "gen", "const")

    def __init__(self, fn: Callable, gen: bool = False,
                 const: Any = _NOCONST) -> None:
        self.fn = fn
        self.gen = gen
        self.const = const


def _const(value: Any) -> _CExpr:
    return _CExpr(lambda f, c, _v=value: _v, False, value)


def _raise_expr(message: str, node: ast.Node) -> _CExpr:
    """An expression that fails at *run* time (preserving lazy errors)."""
    def fn(f, c):
        raise error_at(message, node)
    return _CExpr(fn)


#: (gen, fn) — a compiled statement; fn returns a control code or None.
_CStmt = Tuple[bool, Callable]

_NOOP: _CStmt = (False, lambda f, c: None)


class _SlotScope:
    """Compile-time lexical scope mapping names to frame slots."""

    __slots__ = ("parent", "slots")

    def __init__(self, parent: Optional["_SlotScope"] = None) -> None:
        self.parent = parent
        self.slots: Dict[str, int] = {}

    def resolve(self, name: str) -> Optional[int]:
        scope: Optional[_SlotScope] = self
        while scope is not None:
            slot = scope.slots.get(name)
            if slot is not None:
                return slot
            scope = scope.parent
        return None


class CompiledBody:
    """One kernel body lowered to closures, reusable across fabrics."""

    __slots__ = ("kernel_name", "n_slots", "binding_slots", "hdl_slots",
                 "entry")

    def __init__(self, kernel_name: str, n_slots: int,
                 binding_slots: List[Tuple[str, int]],
                 hdl_slots: List[Tuple[str, int]],
                 entry: Callable) -> None:
        self.kernel_name = kernel_name
        self.n_slots = n_slots
        self.binding_slots = binding_slots
        self.hdl_slots = hdl_slots
        self.entry = entry

    def make(self, ctx, bindings: Dict[str, Any],
             hdl_modules: Dict[str, Any]):
        """Instantiate the body generator for one iteration/compute unit."""
        frame = [_UNDEF] * self.n_slots
        for name, slot in self.binding_slots:
            frame[slot] = bindings[name]
        for name, slot in self.hdl_slots:
            frame[slot] = hdl_modules[name]
        return self.entry(frame, ctx)


def _c_div(l: Any, r: Any) -> Any:
    """C's truncating ``l / r``. Exact on integers (Python or numpy) of
    any width, where ``int(l / r)`` would round through a 53-bit float;
    float operands keep that float division."""
    if type(l) is not int or type(r) is not int:
        try:
            l, r = operator.index(l), operator.index(r)
        except TypeError:
            return int(l / r)
    quotient = abs(l) // abs(r)
    return quotient if (l < 0) == (r < 0) else -quotient


def _c_mod(l: Any, r: Any) -> Any:
    """C's ``l % r``: ``l - (l / r) * r`` with the truncating quotient."""
    return l - _c_div(l, r) * r


def _compound_fn(op: str) -> Callable:
    """The update applied by ``target <op>= value``: C truncating
    division, with the bare ``ZeroDivisionError`` of ``/=`` and ``%=``
    (no positioned error, unlike the binary operators)."""
    if op == "+=":
        return lambda cur, val: cur + val
    if op == "-=":
        return lambda cur, val: cur - val
    if op == "*=":
        return lambda cur, val: cur * val
    if op == "/=":
        return _c_div
    # "%=" — parser admits no other compound ops
    return _c_mod


def _unop_fn(op: str) -> Callable:
    """Value-level unary op: ``-``, ``!`` (0/1) or ``~``."""
    if op == "-":
        return lambda v: -v
    if op == "!":
        return lambda v: 0 if v else 1
    return lambda v: ~v


def _binop_fn(op: str, node: ast.Node) -> Callable:
    """Value-level binary op, C semantics: truncating ``/`` and ``%``
    (a zero divisor is a positioned error), comparisons and logic as
    0/1."""
    if op == "+":
        return lambda l, r: l + r
    if op == "-":
        return lambda l, r: l - r
    if op == "*":
        return lambda l, r: l * r
    if op == "/":
        def div(l, r):
            if r == 0:
                raise error_at("division by zero in kernel", node)
            return _c_div(l, r)
        return div
    if op == "%":
        def mod(l, r):
            if r == 0:
                raise error_at("modulo by zero in kernel", node)
            return _c_mod(l, r)
        return mod
    if op == "<":
        return lambda l, r: 1 if l < r else 0
    if op == ">":
        return lambda l, r: 1 if l > r else 0
    if op == "<=":
        return lambda l, r: 1 if l <= r else 0
    if op == ">=":
        return lambda l, r: 1 if l >= r else 0
    if op == "==":
        return lambda l, r: 1 if l == r else 0
    if op == "!=":
        return lambda l, r: 1 if l != r else 0
    if op == "&":
        return lambda l, r: l & r
    if op == "|":
        return lambda l, r: l | r
    if op == "^":
        return lambda l, r: l ^ r
    if op == "<<":
        return lambda l, r: l << r
    if op == ">>":
        return lambda l, r: l >> r
    return None


def _collect_mutations(root: ast.Node) -> set:
    """Identifiers whose bound *value* may be replaced after declaration.

    Covers assignment targets, ``++``/``--`` targets, non-blocking-read
    valid flags, and any name declared more than once (shadowing or
    same-scope redeclaration). Slots for these names are never kind-
    specialized; everything else is "pristine" and its declared kind is
    stable for the kernel's whole lifetime.
    """
    mutated: set = set()
    declared: set = set()
    for node in ast.all_nodes(root):
        if isinstance(node, ast.Assign) and isinstance(node.target, ast.Name):
            mutated.add(node.target.ident)
        elif isinstance(node, ast.IncDec):
            mutated.add(node.target.ident)
        elif (isinstance(node, ast.Call)
                and node.func.startswith("read_channel_nb")
                and len(node.args) > 1):
            flag = node.args[1]
            if isinstance(flag, ast.AddressOf) and isinstance(
                    flag.target, ast.Name):
                mutated.add(flag.target.ident)
        elif isinstance(node, ast.Declaration):
            for name, _ in node.names:
                if name in declared:
                    mutated.add(name)
                declared.add(name)
    return mutated


class _BodyCompiler:
    """Compiles one kernel definition into a :class:`CompiledBody`."""

    def __init__(self, definition: ast.KernelDef, site_table: Dict[int, str],
                 defines: Dict[str, int], channel_kinds: Dict[str, int],
                 hdl_names, autorun: bool) -> None:
        self._definition = definition
        self._sites = site_table
        self._autorun = autorun
        self._hdl_names = frozenset(hdl_names)
        self._loop_depth = 0
        self._n_slots = 0
        self._kinds: List[int] = []
        self._hazard: set = set()
        self._hdl_slots: Dict[str, int] = {}
        self._mutated = _collect_mutations(definition.body)
        # Root bindings mirror _CompiledMixin._bindings: params, then
        # defines, then channels — later names override earlier slots.
        self._root = _SlotScope()
        self._root_consts: Dict[str, Any] = {}
        for parameter in definition.parameters:
            if parameter.type_name == "void":
                continue
            kind = K_BUFFER if parameter.is_global_pointer else K_INT
            self._declare(self._root, parameter.name, kind)
        for name, value in defines.items():
            if name not in channel_kinds and name not in self._mutated:
                # Immutable define: fold as a compile-time constant.
                self._root_consts[name] = value
                self._root.slots.pop(name, None)
                continue
            self._declare(self._root, name, K_INT)
        for name, kind in channel_kinds.items():
            self._declare(self._root, name, kind)

    # -- slot bookkeeping --------------------------------------------------

    def _declare(self, scope: _SlotScope, name: str, kind: int,
                 hazard: bool = False) -> int:
        slot = scope.slots.get(name)
        if slot is None:
            slot = self._n_slots
            self._n_slots += 1
            scope.slots[name] = slot
            self._kinds.append(kind)
            if hazard:
                self._hazard.add(slot)
        else:
            # Same-scope redeclaration reuses the slot (the reference
            # _Scope.declare overwrites the dict entry).
            self._kinds[slot] = kind
        return slot

    def _site(self, node: ast.Node) -> str:
        return self._sites[node.node_id]

    def _pristine_kind(self, node: ast.Node,
                       scope: _SlotScope) -> Tuple[Optional[int], int]:
        """(slot, kind) when ``node`` is a Name whose slot is safe to
        kind-specialize; (None, K_UNKNOWN) otherwise."""
        if isinstance(node, ast.Name) and node.ident not in self._mutated:
            slot = scope.resolve(node.ident)
            if slot is not None and slot not in self._hazard:
                return slot, self._kinds[slot]
        return None, K_UNKNOWN

    def _static_kind(self, node: ast.Node, scope: _SlotScope) -> int:
        """Static kind of an initializer value, for alias declarations
        like ``int b = data;``. Must be *sound* for container kinds."""
        if isinstance(node, ast.Cast):
            return self._static_kind(node.operand, scope)
        if isinstance(node, ast.Name):
            if node.ident in self._mutated:
                # The slot's declared kind may no longer describe its
                # value — never propagate container kinds from it.
                return K_UNKNOWN
            slot = scope.resolve(node.ident)
            if slot is not None:
                return self._kinds[slot]
            return K_INT if (node.ident in self._root_consts
                             or node.ident in CONSTANTS) else K_UNKNOWN
        if isinstance(node, (ast.Subscript, ast.Call, ast.AddressOf)):
            # Could be a channel handle / HDL result — never specialize.
            return K_UNKNOWN
        return K_INT    # literals, arithmetic, comparisons, assignments

    # -- entry -------------------------------------------------------------

    def compile(self) -> CompiledBody:
        body_gen, body_fn = self._stmt(self._definition.body, self._root,
                                       hazard=False)

        def entry(frame, c):
            if body_gen:
                ctl = yield from body_fn(frame, c)
            else:
                ctl = body_fn(frame, c)
            # Mirror the oracle interpreter: break/continue escaping every
            # loop propagate out of the body generator as exceptions;
            # return just ends the iteration.
            if ctl == _BRK:
                raise _Break()
            if ctl == _CNT:
                raise _Continue()

        return CompiledBody(
            kernel_name=self._definition.name,
            n_slots=self._n_slots,
            binding_slots=sorted(self._root.slots.items()),
            hdl_slots=sorted(self._hdl_slots.items()),
            entry=entry)

    # -- names -------------------------------------------------------------

    def _read_name(self, ident: str, node: ast.Node,
                   scope: _SlotScope) -> _CExpr:
        slot = scope.resolve(ident)
        if slot is None:
            if ident in self._root_consts:
                return _const(self._root_consts[ident])
            if ident in CONSTANTS:
                return _const(CONSTANTS[ident])
            return _raise_expr(f"undefined identifier {ident!r}", node)
        if slot in self._hazard:
            def fn(f, c, _s=slot):
                value = f[_s]
                if value is _UNDEF:
                    raise error_at(f"undefined identifier {ident!r}", node)
                return value
            return _CExpr(fn)
        return _CExpr(lambda f, c, _s=slot: f[_s])

    def _store_name(self, ident: str, node: ast.Node,
                    scope: _SlotScope) -> Optional[Callable]:
        """``fn(frame, value)`` writing the slot, or None if undeclared
        (caller must raise after evaluating the rvalue, like the
        oracle interpreter's ``_Scope.assign``)."""
        slot = scope.resolve(ident)
        if slot is None:
            return None
        if slot in self._hazard:
            def fn(f, value, _s=slot):
                if f[_s] is _UNDEF:
                    raise error_at(
                        f"assignment to undeclared identifier {ident!r}",
                        node)
                f[_s] = value
            return fn

        def fn(f, value, _s=slot):
            f[_s] = value
        return fn

    # -- expressions -------------------------------------------------------

    def _expr(self, node: ast.Node, scope: _SlotScope) -> _CExpr:
        if isinstance(node, ast.IntLiteral):
            return _const(node.value)
        if isinstance(node, ast.Name):
            return self._read_name(node.ident, node, scope)
        if isinstance(node, ast.Cast):
            return self._expr(node.operand, scope)
        if isinstance(node, ast.Unary):
            return self._unary(node, scope)
        if isinstance(node, ast.Binary):
            return self._binary(node, scope)
        if isinstance(node, ast.Subscript):
            return self._subscript(node, scope)
        if isinstance(node, ast.AddressOf):
            return self._address_of(node, scope)
        if isinstance(node, ast.Assign):
            return self._assign(node, scope)
        if isinstance(node, ast.IncDec):
            return self._incdec(node, scope)
        if isinstance(node, ast.Call):
            return self._call(node, scope)
        return _raise_expr(f"cannot evaluate {type(node).__name__}", node)

    def _unary(self, node: ast.Unary, scope: _SlotScope) -> _CExpr:
        operand = self._expr(node.operand, scope)
        value_fn = _unop_fn(node.op)
        if operand.const is not _NOCONST:
            return _const(value_fn(operand.const))
        ofn, og = operand.fn, operand.gen
        if not og:
            return _CExpr(lambda f, c: value_fn(ofn(f, c)))

        def fn(f, c):
            value = yield from ofn(f, c)
            return value_fn(value)
        return _CExpr(fn, gen=True)

    def _binary(self, node: ast.Binary, scope: _SlotScope) -> _CExpr:
        left = self._expr(node.left, scope)
        op = node.op
        if op in ("&&", "||"):
            return self._short_circuit(node, left, scope)
        right = self._expr(node.right, scope)
        op_fn = _binop_fn(op, node)
        if op_fn is None:
            return _raise_expr(f"unknown operator {op!r}", node)
        if left.const is not _NOCONST and right.const is not _NOCONST:
            lc, rc = left.const, right.const
            try:
                return _const(op_fn(lc, rc))
            except Exception:
                # e.g. constant division by zero: fail when *executed*.
                return _CExpr(lambda f, c: op_fn(lc, rc))
        lf, lg = left.fn, left.gen
        rf, rg = right.fn, right.gen
        if not (lg or rg):
            return _CExpr(lambda f, c: op_fn(lf(f, c), rf(f, c)))

        def fn(f, c):
            l = (yield from lf(f, c)) if lg else lf(f, c)
            r = (yield from rf(f, c)) if rg else rf(f, c)
            return op_fn(l, r)
        return _CExpr(fn, gen=True)

    def _short_circuit(self, node: ast.Binary, left: _CExpr,
                       scope: _SlotScope) -> _CExpr:
        is_and = node.op == "&&"
        if left.const is not _NOCONST:
            if is_and and not left.const:
                return _const(0)        # right side never evaluated
            if not is_and and left.const:
                return _const(1)
            right = self._expr(node.right, scope)
            if right.const is not _NOCONST:
                return _const(1 if right.const else 0)
            rf, rg = right.fn, right.gen
            if not rg:
                return _CExpr(lambda f, c: 1 if rf(f, c) else 0)

            def fn(f, c):
                value = yield from rf(f, c)
                return 1 if value else 0
            return _CExpr(fn, gen=True)
        right = self._expr(node.right, scope)
        lf, lg = left.fn, left.gen
        rf, rg = right.fn, right.gen
        if not (lg or rg):
            if is_and:
                return _CExpr(
                    lambda f, c: (1 if rf(f, c) else 0) if lf(f, c) else 0)
            return _CExpr(
                lambda f, c: 1 if lf(f, c) else (1 if rf(f, c) else 0))

        def fn(f, c):
            l = (yield from lf(f, c)) if lg else lf(f, c)
            if is_and and not l:
                return 0
            if not is_and and l:
                return 1
            r = (yield from rf(f, c)) if rg else rf(f, c)
            return 1 if r else 0
        return _CExpr(fn, gen=True)

    def _subscript(self, node: ast.Subscript, scope: _SlotScope) -> _CExpr:
        index = self._expr(node.index, scope)
        ifn, ig = index.fn, index.gen
        slot, kind = self._pristine_kind(node.base, scope)
        if kind == K_PRIVATE:
            if not ig:
                def fn(f, c, _s=slot):
                    array = f[_s]
                    i = ifn(f, c)
                    if not 0 <= i < len(array):
                        raise error_at(
                            f"private array index {i} out of range "
                            f"[0, {len(array)})", node)
                    return array[i]
                return _CExpr(fn)

            def fn(f, c, _s=slot):
                array = f[_s]
                i = yield from ifn(f, c)
                if not 0 <= i < len(array):
                    raise error_at(
                        f"private array index {i} out of range "
                        f"[0, {len(array)})", node)
                return array[i]
            return _CExpr(fn, gen=True)
        if kind == K_CHANARR:
            if not ig:
                return _CExpr(lambda f, c, _s=slot: f[_s][ifn(f, c)])

            def fn(f, c, _s=slot):
                i = yield from ifn(f, c)
                return f[_s][i]
            return _CExpr(fn, gen=True)
        if kind == K_BUFFER:
            site = self._site(node)

            def fn(f, c, _s=slot, _site=site):
                i = (yield from ifn(f, c)) if ig else ifn(f, c)
                value = yield ops.Load(f[_s], i, site=_site)
                return value
            return _CExpr(fn, gen=True)
        if kind == K_LOCAL:
            site = self._site(node)

            def fn(f, c, _s=slot, _site=site):
                i = (yield from ifn(f, c)) if ig else ifn(f, c)
                value = yield ops.LoadLocal(f[_s], i, site=_site)
                return value
            return _CExpr(fn, gen=True)
        # Generic: replicate the oracle interpreter's runtime dispatch.
        base = self._expr(node.base, scope)
        bf, bg = base.fn, base.gen
        site = self._site(node)

        def fn(f, c, _site=site):
            b = (yield from bf(f, c)) if bg else bf(f, c)
            i = (yield from ifn(f, c)) if ig else ifn(f, c)
            if isinstance(b, ChannelArray):
                return b[i]
            if isinstance(b, list):
                if not 0 <= i < len(b):
                    raise error_at(
                        f"private array index {i} out of range "
                        f"[0, {len(b)})", node)
                return b[i]
            if isinstance(b, LocalMemory):
                value = yield ops.LoadLocal(b, i, site=_site)
                return value
            if isinstance(b, str):
                value = yield ops.Load(b, i, site=_site)
                return value
            raise error_at(
                f"cannot index a {type(b).__name__} (expected a __global "
                "buffer, __local/private array, or channel array)", node)
        return _CExpr(fn, gen=True)

    def _address_of(self, node: ast.AddressOf, scope: _SlotScope) -> _CExpr:
        target = node.target
        message = _ADDRESS_OF_ONLY
        if not isinstance(target, ast.Subscript):
            return _raise_expr(message, node)
        base = self._expr(target.base, scope)
        index = self._expr(target.index, scope)
        bf, bg = base.fn, base.gen
        ifn, ig = index.fn, index.gen
        if not (bg or ig):
            def fn(f, c):
                b = bf(f, c)
                i = ifn(f, c)
                if isinstance(b, str):
                    store = c._instance.fabric.memory.buffer(b)
                    return store.address_of(i)
                raise error_at(message, node)
            return _CExpr(fn)

        def fn(f, c):
            b = (yield from bf(f, c)) if bg else bf(f, c)
            i = (yield from ifn(f, c)) if ig else ifn(f, c)
            if isinstance(b, str):
                store = c._instance.fabric.memory.buffer(b)
                return store.address_of(i)
            raise error_at(message, node)
        return _CExpr(fn, gen=True)

    def _incdec(self, node: ast.IncDec, scope: _SlotScope) -> _CExpr:
        ident = node.target.ident
        delta = 1 if node.op == "++" else -1
        slot = scope.resolve(ident)
        if slot is None:
            # Matches the reference lookup failure (CONSTANTS are not
            # assignable either — assign raises after lookup succeeds).
            if ident in self._root_consts or ident in CONSTANTS:
                return _raise_expr(
                    f"assignment to undeclared identifier {ident!r}", node)
            return _raise_expr(f"undefined identifier {ident!r}", node)
        if slot in self._hazard:
            def fn(f, c, _s=slot, _d=delta):
                current = f[_s]
                if current is _UNDEF:
                    raise error_at(f"undefined identifier {ident!r}", node)
                f[_s] = current + _d
                return current
            return _CExpr(fn)

        def fn(f, c, _s=slot, _d=delta):
            current = f[_s]
            f[_s] = current + _d
            return current
        return _CExpr(fn)

    def _assign(self, node: ast.Assign, scope: _SlotScope) -> _CExpr:
        value = self._expr(node.value, scope)
        vf, vg = value.fn, value.gen
        target = node.target
        if isinstance(target, ast.Name):
            return self._assign_name(node, target, value, scope)
        # Subscript target: private/__local array or global buffer.
        index = self._expr(target.index, scope)
        ifn, ig = index.fn, index.gen
        compound = None if node.op == "=" else _compound_fn(node.op)
        slot, kind = self._pristine_kind(target.base, scope)
        if kind == K_PRIVATE:
            if not (vg or ig):
                def fn(f, c, _s=slot):
                    v = vf(f, c)
                    array = f[_s]
                    i = ifn(f, c)
                    if not 0 <= i < len(array):
                        raise error_at(
                            f"private array index {i} out of range "
                            f"[0, {len(array)})", node)
                    if compound is not None:
                        v = compound(array[i], v)
                    array[i] = v
                    return v
                return _CExpr(fn)

            def fn(f, c, _s=slot):
                v = (yield from vf(f, c)) if vg else vf(f, c)
                array = f[_s]
                i = (yield from ifn(f, c)) if ig else ifn(f, c)
                if not 0 <= i < len(array):
                    raise error_at(
                        f"private array index {i} out of range "
                        f"[0, {len(array)})", node)
                if compound is not None:
                    v = compound(array[i], v)
                array[i] = v
                return v
            return _CExpr(fn, gen=True)
        if kind == K_BUFFER:
            # Compound loads use the *target subscript*'s site, stores the
            # Assign node's site — same LSU identities as the reference.
            load_site = self._site(target)
            store_site = self._site(node)

            def fn(f, c, _s=slot, _ls=load_site, _ss=store_site):
                v = (yield from vf(f, c)) if vg else vf(f, c)
                i = (yield from ifn(f, c)) if ig else ifn(f, c)
                buffer = f[_s]
                if compound is not None:
                    current = yield ops.Load(buffer, i, site=_ls)
                    v = compound(current, v)
                yield ops.Store(buffer, i, v, site=_ss)
                return v
            return _CExpr(fn, gen=True)
        if kind == K_LOCAL:
            load_site = self._site(target)
            store_site = self._site(node)

            def fn(f, c, _s=slot, _ls=load_site, _ss=store_site):
                v = (yield from vf(f, c)) if vg else vf(f, c)
                i = (yield from ifn(f, c)) if ig else ifn(f, c)
                memory = f[_s]
                if compound is not None:
                    current = yield ops.LoadLocal(memory, i, site=_ls)
                    v = compound(current, v)
                yield ops.StoreLocal(memory, i, v, site=_ss)
                return v
            return _CExpr(fn, gen=True)
        # Generic subscript store (also covers channel-array bases, which
        # fail exactly like the oracle interpreter).
        base = self._expr(target.base, scope)
        bf, bg = base.fn, base.gen
        load_site = self._site(target)
        store_site = self._site(node)

        def fn(f, c, _ls=load_site, _ss=store_site):
            v = (yield from vf(f, c)) if vg else vf(f, c)
            b = (yield from bf(f, c)) if bg else bf(f, c)
            i = (yield from ifn(f, c)) if ig else ifn(f, c)
            if isinstance(b, list):
                if not 0 <= i < len(b):
                    raise error_at(
                        f"private array index {i} out of range "
                        f"[0, {len(b)})", node)
                if compound is not None:
                    v = compound(b[i], v)
                b[i] = v
                return v
            if isinstance(b, LocalMemory):
                if compound is not None:
                    current = yield ops.LoadLocal(b, i, site=_ls)
                    v = compound(current, v)
                yield ops.StoreLocal(b, i, v, site=_ss)
                return v
            if not isinstance(b, str):
                raise error_at(
                    "can only store into __global buffers or "
                    "__local/private arrays", node)
            if compound is not None:
                current = yield ops.Load(b, i, site=_ls)
                v = compound(current, v)
            yield ops.Store(b, i, v, site=_ss)
            return v
        return _CExpr(fn, gen=True)

    def _assign_name(self, node: ast.Assign, target: ast.Name,
                     value: _CExpr, scope: _SlotScope) -> _CExpr:
        vf, vg = value.fn, value.gen
        store = self._store_name(target.ident, target, scope)
        if store is None:
            ident = target.ident
            # Undeclared target. The oracle interpreter evaluates the
            # rvalue, then (for compound ops) *looks up* the current
            # value — which raises "undefined identifier" unless the name
            # is a builtin constant — and only then fails the assignment.
            compound = None if node.op == "=" else _compound_fn(node.op)
            current_fn = None
            if compound is not None:
                current_fn = self._read_name(target.ident, target, scope).fn

            def finish(f, c, v):
                if compound is not None:
                    compound(current_fn(f, c), v)
                raise error_at(
                    f"assignment to undeclared identifier {ident!r}", target)
            if not vg:
                return _CExpr(lambda f, c: finish(f, c, vf(f, c)))

            def fn(f, c):
                v = yield from vf(f, c)
                return finish(f, c, v)
            return _CExpr(fn, gen=True)
        if node.op == "=":
            if not vg:
                def fn(f, c):
                    v = vf(f, c)
                    store(f, v)
                    return v
                return _CExpr(fn)

            def fn(f, c):
                v = yield from vf(f, c)
                store(f, v)
                return v
            return _CExpr(fn, gen=True)
        compound = _compound_fn(node.op)
        current = self._read_name(target.ident, target, scope)
        cf = current.fn
        if not vg:
            def fn(f, c):
                v = vf(f, c)          # rvalue first (it may mutate target)
                v = compound(cf(f, c), v)
                store(f, v)
                return v
            return _CExpr(fn)

        def fn(f, c):
            v = yield from vf(f, c)
            v = compound(cf(f, c), v)
            store(f, v)
            return v
        return _CExpr(fn, gen=True)

    # -- calls -------------------------------------------------------------

    def _call(self, node: ast.Call, scope: _SlotScope) -> _CExpr:
        name = node.func
        if name in ("get_global_id", "get_global_size", "get_local_id"):
            if name == "get_global_id":
                return _CExpr(lambda f, c: c.global_id)
            return _const(0)
        if name == "get_compute_id":
            return _CExpr(lambda f, c: c.compute_id)
        if name == "mem_fence":
            return _const(0)            # zero-time, no op emitted
        if name == "barrier":
            site = self._site(node)

            def fn(f, c, _site=site):
                yield ops.Barrier(_site)
                return 0
            return _CExpr(fn, gen=True)
        if name in CHANNEL_BUILTINS:
            return self._channel_builtin(node, scope)
        if name in self._hdl_names:
            slot = self._hdl_slots.get(name)
            if slot is None:
                slot = self._n_slots
                self._n_slots += 1
                self._kinds.append(K_UNKNOWN)
                self._hdl_slots[name] = slot
            arg_exprs = [self._expr(arg, scope) for arg in node.args]
            site = self._site(node)

            def fn(f, c, _s=slot, _site=site):
                args = []
                for afn, ag in [(a.fn, a.gen) for a in arg_exprs]:
                    args.append((yield from afn(f, c)) if ag
                                else afn(f, c))
                value = yield ops.Call(f[_s], tuple(args), site=_site)
                return value
            return _CExpr(fn, gen=True)
        return _raise_expr(f"unknown function {name!r}", node)

    def _channel_builtin(self, node: ast.Call, scope: _SlotScope) -> _CExpr:
        name = node.func
        if len(node.args) < 1:
            # The oracle interpreter fails with IndexError when the body
            # executes; reproduce the laziness (degenerate source).
            def fn(f, c):
                raise IndexError("list index out of range")
            return _CExpr(fn)
        channel = self._expr(node.args[0], scope)
        chf, chg = channel.fn, channel.gen

        def get_channel(f, c):
            ch = chf(f, c)
            if not isinstance(ch, Channel):
                raise error_at(
                    f"{name} expects a channel, got {type(ch).__name__}",
                    node)
            return ch

        if name.startswith("read_channel_nb"):
            flag_store = None
            flag_fail = None
            if len(node.args) > 1:
                flag = node.args[1]
                if isinstance(flag, ast.AddressOf) and isinstance(
                        flag.target, ast.Name):
                    flag_store = self._store_name(flag.target.ident,
                                                  flag.target, scope)
                    if flag_store is None:
                        ident = flag.target.ident
                        flag_node = flag.target

                        def flag_fail(f, c):
                            raise error_at(
                                "assignment to undeclared identifier "
                                f"{ident!r}", flag_node)
                else:
                    def flag_fail(f, c):
                        raise error_at(
                            f"{name}: second argument must be &flag", node)

            if not chg:
                def fn(f, c):
                    ch = get_channel(f, c)
                    value, valid = c.read_channel_nb(ch)
                    if flag_store is not None:
                        flag_store(f, 1 if valid else 0)
                    elif flag_fail is not None:
                        flag_fail(f, c)
                    return value if valid else 0
                return _CExpr(fn)

            def fn(f, c):
                ch = yield from chf(f, c)
                if not isinstance(ch, Channel):
                    raise error_at(
                        f"{name} expects a channel, got {type(ch).__name__}",
                        node)
                value, valid = c.read_channel_nb(ch)
                if flag_store is not None:
                    flag_store(f, 1 if valid else 0)
                elif flag_fail is not None:
                    flag_fail(f, c)
                return value if valid else 0
            return _CExpr(fn, gen=True)

        if name.startswith("write_channel_nb"):
            if len(node.args) < 2:
                def fn(f, c):
                    get_channel(f, c)
                    raise IndexError("list index out of range")
                return _CExpr(fn)
            value = self._expr(node.args[1], scope)
            vf, vg = value.fn, value.gen
            if not (chg or vg):
                def fn(f, c):
                    ch = get_channel(f, c)
                    ok = c.write_channel_nb(ch, vf(f, c))
                    return 1 if ok else 0
                return _CExpr(fn)

            def fn(f, c):
                ch = (yield from chf(f, c)) if chg else chf(f, c)
                if not isinstance(ch, Channel):
                    raise error_at(
                        f"{name} expects a channel, got {type(ch).__name__}",
                        node)
                v = (yield from vf(f, c)) if vg else vf(f, c)
                ok = c.write_channel_nb(ch, v)
                return 1 if ok else 0
            return _CExpr(fn, gen=True)

        site = self._site(node)
        if name.startswith("read_channel"):
            def fn(f, c, _site=site):
                ch = (yield from chf(f, c)) if chg else chf(f, c)
                if not isinstance(ch, Channel):
                    raise error_at(
                        f"{name} expects a channel, got {type(ch).__name__}",
                        node)
                value = yield c.read_channel(ch, site=_site)
                return value
            return _CExpr(fn, gen=True)

        # blocking write
        if len(node.args) < 2:
            def fn(f, c):
                ch = (yield from chf(f, c)) if chg else chf(f, c)
                if not isinstance(ch, Channel):
                    raise error_at(
                        f"{name} expects a channel, got {type(ch).__name__}",
                        node)
                raise IndexError("list index out of range")
            return _CExpr(fn, gen=True)
        value = self._expr(node.args[1], scope)
        vf, vg = value.fn, value.gen

        def fn(f, c, _site=site):
            ch = (yield from chf(f, c)) if chg else chf(f, c)
            if not isinstance(ch, Channel):
                raise error_at(
                    f"{name} expects a channel, got {type(ch).__name__}",
                    node)
            v = (yield from vf(f, c)) if vg else vf(f, c)
            yield c.write_channel(ch, v, site=_site)
            return v
        return _CExpr(fn, gen=True)

    # -- statements --------------------------------------------------------

    def _stmt(self, node: ast.Node, scope: _SlotScope,
              hazard: bool) -> _CStmt:
        if isinstance(node, ast.Block):
            return self._block(node, scope)
        if isinstance(node, ast.Declaration):
            return self._declaration(node, scope, hazard)
        if isinstance(node, ast.ExprStatement):
            expr = self._expr(node.expr, scope)
            efn, eg = expr.fn, expr.gen
            if not eg:
                def fn(f, c):
                    efn(f, c)
                return False, fn

            def fn(f, c):
                yield from efn(f, c)   # discard value; no control code
            return True, fn
        if isinstance(node, ast.If):
            return self._if(node, scope)
        if isinstance(node, ast.For):
            return self._for(node, scope)
        if isinstance(node, ast.While):
            return self._while(node, scope)
        if isinstance(node, ast.Switch):
            return self._switch(node, scope)
        if isinstance(node, ast.Return):
            if node.value is None:
                return False, lambda f, c: _RET
            value = self._expr(node.value, scope)
            vfn, vg = value.fn, value.gen
            if not vg:
                def fn(f, c):
                    vfn(f, c)     # evaluated for side effects, then dropped
                    return _RET
                return False, fn

            def fn(f, c):
                yield from vfn(f, c)
                return _RET
            return True, fn
        if isinstance(node, ast.Break):
            return False, lambda f, c: _BRK
        if isinstance(node, ast.Continue):
            return False, lambda f, c: _CNT

        def fn(f, c):
            raise error_at(f"cannot execute {type(node).__name__}", node)
        return False, fn

    def _block(self, node: ast.Block, scope: _SlotScope) -> _CStmt:
        inner = _SlotScope(scope)
        stmts = [self._stmt(statement, inner, hazard=False)
                 for statement in node.statements]
        if not stmts:
            return _NOOP
        if len(stmts) == 1:
            return stmts[0]
        if not any(gen for gen, _ in stmts):
            fns = tuple(fn for _, fn in stmts)

            def fn(f, c):
                for sfn in fns:
                    ctl = sfn(f, c)
                    if ctl is not None:
                        return ctl
            return False, fn
        pairs = tuple(stmts)

        def fn(f, c):
            for sg, sfn in pairs:
                ctl = (yield from sfn(f, c)) if sg else sfn(f, c)
                if ctl is not None:
                    return ctl
        return True, fn

    def _declaration(self, node: ast.Declaration, scope: _SlotScope,
                     hazard: bool) -> _CStmt:
        parts: List[_CStmt] = []
        for name, initializer in node.names:
            if node.is_local and name in node.array_sizes:
                slot = self._declare(scope, name, K_LOCAL, hazard)

                def fn(f, c, _s=slot, _n=name):
                    f[_s] = c.local(_n)
                parts.append((False, fn))
                continue
            if name in node.array_sizes:
                size = node.array_sizes[name]
                # Size resolution happens *before* the (re)declaration,
                # exactly like the reference scope.lookup.
                if isinstance(size, str):
                    size_expr = self._read_name(size, node, scope)
                else:
                    size_expr = _const(size)
                slot = self._declare(scope, name, K_PRIVATE, hazard)
                sfn = size_expr.fn

                def fn(f, c, _s=slot, _n=name):
                    size_value = sfn(f, c)
                    if not isinstance(size_value, int) or size_value < 1:
                        raise error_at(
                            f"array {_n!r}: invalid size {size_value!r}",
                            node)
                    f[_s] = [0] * size_value
                parts.append((False, fn))
                continue
            if initializer is None:
                slot = self._declare(scope, name, K_INT, hazard)

                def fn(f, c, _s=slot):
                    f[_s] = 0
                parts.append((False, fn))
                continue
            kind = self._static_kind(initializer, scope)
            init = self._expr(initializer, scope)
            slot = self._declare(scope, name,
                                 kind if kind != K_UNKNOWN else K_UNKNOWN,
                                 hazard)
            vfn, vg = init.fn, init.gen
            if not vg:
                def fn(f, c, _s=slot):
                    f[_s] = vfn(f, c)
                parts.append((False, fn))
            else:
                def fn(f, c, _s=slot):
                    f[_s] = yield from vfn(f, c)
                parts.append((True, fn))
        if not parts:
            return _NOOP
        if len(parts) == 1:
            return parts[0]
        if not any(gen for gen, _ in parts):
            fns = tuple(fn for _, fn in parts)

            def fn(f, c):
                for pfn in fns:
                    pfn(f, c)
            return False, fn
        pairs = tuple(parts)

        def fn(f, c):
            for pg, pfn in pairs:
                if pg:
                    yield from pfn(f, c)
                else:
                    pfn(f, c)
        return True, fn

    def _if(self, node: ast.If, scope: _SlotScope) -> _CStmt:
        condition = self._expr(node.condition, scope)
        then_gen, then_fn = self._stmt(node.then_branch, scope, hazard=True)
        else_stmt: Optional[_CStmt] = None
        if node.else_branch is not None:
            else_stmt = self._stmt(node.else_branch, scope, hazard=True)
        if condition.const is not _NOCONST:
            # Both branches were compiled (their declarations claim slots
            # either way); only the taken one is emitted.
            if condition.const:
                return then_gen, then_fn
            return else_stmt if else_stmt is not None else _NOOP
        cfn, cg = condition.fn, condition.gen
        if not cg and not then_gen and (else_stmt is None or not else_stmt[0]):
            if else_stmt is None:
                def fn(f, c):
                    if cfn(f, c):
                        return then_fn(f, c)
                return False, fn
            else_fn = else_stmt[1]

            def fn(f, c):
                if cfn(f, c):
                    return then_fn(f, c)
                return else_fn(f, c)
            return False, fn

        if else_stmt is None:
            def fn(f, c):
                taken = (yield from cfn(f, c)) if cg else cfn(f, c)
                if taken:
                    return (yield from then_fn(f, c)) if then_gen \
                        else then_fn(f, c)
            return True, fn
        else_gen, else_fn = else_stmt

        def fn(f, c):
            taken = (yield from cfn(f, c)) if cg else cfn(f, c)
            if taken:
                return (yield from then_fn(f, c)) if then_gen \
                    else then_fn(f, c)
            return (yield from else_fn(f, c)) if else_gen else else_fn(f, c)
        return True, fn

    def _while(self, node: ast.While, scope: _SlotScope) -> _CStmt:
        self._loop_depth += 1
        boundary = self._autorun and self._loop_depth == 1
        condition = self._expr(node.condition, scope)
        body_gen, body_fn = self._stmt(node.body, scope, hazard=True)
        self._loop_depth -= 1
        cfn, cg = condition.fn, condition.gen
        if not (cg or body_gen or boundary):
            def fn(f, c):
                while True:
                    if not cfn(f, c):
                        return None
                    ctl = body_fn(f, c)
                    if ctl is not None:
                        if ctl == _BRK:
                            return None
                        if ctl == _RET:
                            return _RET
                        # _CNT: next iteration
            return False, fn

        def fn(f, c):
            while True:
                taken = (yield from cfn(f, c)) if cg else cfn(f, c)
                if not taken:
                    return None
                ctl = (yield from body_fn(f, c)) if body_gen \
                    else body_fn(f, c)
                if ctl is not None:
                    if ctl == _BRK:
                        return None       # break skips the cycle boundary
                    if ctl == _RET:
                        return _RET
                if boundary:
                    yield c.cycle()
        return True, fn

    def _for(self, node: ast.For, scope: _SlotScope) -> _CStmt:
        loop_scope = _SlotScope(scope)
        init_stmt: Optional[_CStmt] = None
        if node.init is not None:
            init_stmt = self._stmt(node.init, loop_scope, hazard=False)
        self._loop_depth += 1
        boundary = self._autorun and self._loop_depth == 1
        condition = None
        if node.condition is not None:
            condition = self._expr(node.condition, loop_scope)
        body_gen, body_fn = self._stmt(node.body, loop_scope, hazard=True)
        step = None
        if node.step is not None:
            step = self._expr(node.step, loop_scope)
        self._loop_depth -= 1

        init_gen, init_fn = init_stmt if init_stmt is not None else (False,
                                                                     None)
        cfn, cg = (condition.fn, condition.gen) if condition is not None \
            else (None, False)
        sfn, sg = (step.fn, step.gen) if step is not None else (None, False)
        all_pure = not (init_gen or cg or body_gen or sg or boundary)
        if all_pure:
            def fn(f, c):
                if init_fn is not None:
                    init_fn(f, c)
                while True:
                    if cfn is not None and not cfn(f, c):
                        return None
                    ctl = body_fn(f, c)
                    if ctl is not None:
                        if ctl == _BRK:
                            return None
                        if ctl == _RET:
                            return _RET
                    if sfn is not None:
                        sfn(f, c)
            return False, fn

        def fn(f, c):
            if init_fn is not None:
                if init_gen:
                    yield from init_fn(f, c)
                else:
                    init_fn(f, c)
            while True:
                if cfn is not None:
                    taken = (yield from cfn(f, c)) if cg else cfn(f, c)
                    if not taken:
                        return None
                ctl = (yield from body_fn(f, c)) if body_gen \
                    else body_fn(f, c)
                if ctl is not None:
                    if ctl == _BRK:
                        return None       # break skips boundary and step
                    if ctl == _RET:
                        return _RET
                if boundary:
                    yield c.cycle()
                if sfn is not None:
                    if sg:
                        yield from sfn(f, c)
                    else:
                        sfn(f, c)
        return True, fn

    def _switch(self, node: ast.Switch, scope: _SlotScope) -> _CStmt:
        subject = self._expr(node.subject, scope)
        switch_scope = _SlotScope(scope)
        cases: List[Tuple[Optional[_CExpr], Tuple[_CStmt, ...]]] = []
        for case in node.cases:
            label = None if case.label is None \
                else self._expr(case.label, scope)
            stmts = tuple(self._stmt(statement, switch_scope, hazard=True)
                          for statement in case.statements)
            cases.append((label, stmts))
        cases_t = tuple(cases)
        sfn, sg = subject.fn, subject.gen
        any_gen = (sg
                   or any(l is not None and l.gen for l, _ in cases_t)
                   or any(g for _, stmts in cases_t for g, _ in stmts))
        if not any_gen:
            def fn(f, c):
                value = sfn(f, c)
                start = default = None
                for idx, (label, _) in enumerate(cases_t):
                    if label is None:
                        default = idx
                        continue
                    # Every label is evaluated, even after a match.
                    lv = label.fn(f, c)
                    if lv == value and start is None:
                        start = idx
                if start is None:
                    start = default
                if start is None:
                    return None
                for _, stmts in cases_t[start:]:
                    for _, stmt_fn in stmts:
                        ctl = stmt_fn(f, c)
                        if ctl is not None:
                            if ctl == _BRK:
                                return None
                            return ctl    # _RET / _CNT propagate outward
                return None
            return False, fn

        def fn(f, c):
            value = (yield from sfn(f, c)) if sg else sfn(f, c)
            start = default = None
            for idx, (label, _) in enumerate(cases_t):
                if label is None:
                    default = idx
                    continue
                lv = (yield from label.fn(f, c)) if label.gen \
                    else label.fn(f, c)
                if lv == value and start is None:
                    start = idx
            if start is None:
                start = default
            if start is None:
                return None
            for _, stmts in cases_t[start:]:
                for stmt_gen, stmt_fn in stmts:
                    ctl = (yield from stmt_fn(f, c)) if stmt_gen \
                        else stmt_fn(f, c)
                    if ctl is not None:
                        if ctl == _BRK:
                            return None
                        return ctl
            return None
        return True, fn


def compile_kernel_body(definition: ast.KernelDef, *,
                        site_table: Dict[int, str],
                        defines: Dict[str, int],
                        channel_kinds: Dict[str, int],
                        hdl_names,
                        autorun: bool) -> CompiledBody:
    """Lower one kernel definition to a :class:`CompiledBody`.

    ``site_table`` must be the table from ``compiler.build_site_table``
    for this definition (shared with the oracle interpreter, so both emit
    identical LSU site labels). ``channel_kinds`` maps program channel
    names to ``K_CHANNEL``/``K_CHANARR``.
    """
    compiler = _BodyCompiler(definition, site_table, defines, channel_kinds,
                             hdl_names, autorun)
    return compiler.compile()


# ---------------------------------------------------------------------------
# Batch plans: the column program behind the batch table.
#
# A :class:`BatchPlan` is the same kernel body lowered for the batch
# table (:mod:`repro.pipeline.batch`), which runs it once per plan node
# over every work-item of a launch. Each statement becomes plan nodes:
# every global-memory access a :class:`BLoad`/:class:`BStore`, every
# ``if`` a :class:`BIf`, every loop a :class:`BLoop` with a
# :class:`BTest`, every ``break``/``continue``/``return`` a
# :class:`BExit`, and the code between them straight-line
# :class:`BPure` segments. Every expression is a *column closure*
# ``fn(frame, rows)``: it evaluates the expression for the active
# ``rows`` of a :class:`~repro.pipeline.columns.Columns` frame, through
# the column forms of the same value-level operators the closure backend
# uses (:mod:`repro.pipeline.columns`), so a plan computes exactly what
# the closures compute or aborts.
#
# Plans are deliberately partial: anything whose timing or shared state
# cannot be replayed analytically (channels, barriers, __local memory,
# HDL calls, autorun cycle boundaries, statically unresolved subscripts,
# switch statements) makes the kernel unplannable and
# ``compile_batch_plan`` returns a fallback reason instead. The closure
# backend remains the execution oracle.
# ---------------------------------------------------------------------------


class _PlanBail(Exception):
    """Raised during plan compilation when the body cannot be batched."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class _BNode:
    """Base class for plan nodes; ``kind`` drives executor dispatch."""

    __slots__ = ()
    kind = -1


class BPure(_BNode):
    """Straight-line segment without memory access: ``fn(frame, rows)``."""

    __slots__ = ("fn",)
    kind = 0

    def __init__(self, fn: Callable) -> None:
        self.fn = fn


class BLoad(_BNode):
    """One global-memory load site: ``frame[dst] = buffer[index_fn(...)]``."""

    __slots__ = ("base_slot", "index_fn", "dst_slot", "site")
    kind = 1

    def __init__(self, base_slot: int, index_fn: Callable, dst_slot: int,
                 site: str) -> None:
        self.base_slot = base_slot
        self.index_fn = index_fn
        self.dst_slot = dst_slot
        self.site = site


class BStore(_BNode):
    """One global-memory store site: ``buffer[index_fn(...)] = value_fn(...)``."""

    __slots__ = ("base_slot", "index_fn", "value_fn", "site")
    kind = 2

    def __init__(self, base_slot: int, index_fn: Callable, value_fn: Callable,
                 site: str) -> None:
        self.base_slot = base_slot
        self.index_fn = index_fn
        self.value_fn = value_fn
        self.site = site


class BIf(_BNode):
    """Conditional region; both arms are plan-node tuples."""

    __slots__ = ("cond_fn", "then_nodes", "else_nodes")
    kind = 3

    def __init__(self, cond_fn: Callable, then_nodes: tuple,
                 else_nodes: tuple) -> None:
        self.cond_fn = cond_fn
        self.then_nodes = then_nodes
        self.else_nodes = else_nodes


class BLoop(_BNode):
    """Loop region. ``continue`` jumps to ``nodes[continue_index:]`` (the
    for-step section) before re-entering from the top; the condition
    section at the head ends with a :class:`BTest`."""

    __slots__ = ("nodes", "continue_index")
    kind = 4

    def __init__(self, nodes: tuple, continue_index: int) -> None:
        self.nodes = nodes
        self.continue_index = continue_index


class BTest(_BNode):
    """Loop-condition probe: a row whose value is falsy leaves the
    enclosing loop."""

    __slots__ = ("cond_fn",)
    kind = 5

    def __init__(self, cond_fn: Callable) -> None:
        self.cond_fn = cond_fn


class BExit(_BNode):
    """``break``, ``continue`` or ``return`` (``code``: ``_BRK``,
    ``_CNT`` or ``_RET``): the rows reaching it leave."""

    __slots__ = ("code",)
    kind = 6

    def __init__(self, code: int) -> None:
        self.code = code


class BatchPlan:
    """A kernel body lowered to a plan-node program.

    ``binding_slots`` mirrors :attr:`CompiledBody.binding_slots`; frames
    are independent of the closure backend's (slot numbering differs)
    but are built from the same binding dict.
    """

    __slots__ = ("kernel_name", "n_slots", "binding_slots", "nodes",
                 "op_count")

    def __init__(self, kernel_name: str, n_slots: int,
                 binding_slots: List[Tuple[str, int]], nodes: tuple) -> None:
        self.kernel_name = kernel_name
        self.n_slots = n_slots
        self.binding_slots = binding_slots
        self.nodes = nodes
        self.op_count = _count_ops(nodes)

    def make_frame(self, bindings: Dict[str, Any]) -> list:
        """The launch's slots: the bindings, every other slot undefined."""
        frame = [_UNDEF] * self.n_slots
        for name, slot in self.binding_slots:
            frame[slot] = bindings[name]
        return frame


def _count_ops(nodes) -> int:
    count = 0
    for node in nodes:
        if node.kind in (1, 2):
            count += 1
        elif node.kind == 3:
            count += _count_ops(node.then_nodes)
            count += _count_ops(node.else_nodes)
        elif node.kind == 4:
            count += _count_ops(node.nodes)
    return count


def _merge_pure(nodes) -> tuple:
    """Collapse adjacent :class:`BPure` nodes into one segment closure."""
    out: list = []
    run: list = []

    def flush() -> None:
        if not run:
            return
        if len(run) == 1:
            out.append(run[0])
        else:
            fns = tuple(node.fn for node in run)

            def fn(f, rows, _fns=fns):
                for sfn in _fns:
                    sfn(f, rows)
            out.append(BPure(fn))
        run.clear()

    for node in nodes:
        if node.kind == 0:
            run.append(node)
            continue
        flush()
        if node.kind == 3:
            node = BIf(node.cond_fn, _merge_pure(node.then_nodes),
                       _merge_pure(node.else_nodes))
        elif node.kind == 4:
            head = _merge_pure(node.nodes[:node.continue_index])
            tail = _merge_pure(node.nodes[node.continue_index:])
            node = BLoop(head + tail, len(head))
        out.append(node)
    flush()
    return tuple(out)


def tier_scan(nodes: List[ast.Node], hdl_names) -> Tuple[
        Optional[str], Tuple[str, ...], Optional[str]]:
    """``(replay_reason, channels, batch_reason)`` from one walk of a
    kernel body (``nodes``: its
    :func:`~repro.frontend.ast_nodes.all_nodes`): the first construct
    that keeps a launch off each tier (None when there is none), and the
    channels its blocking reads name.

    The analytic launch replay runs bodies that yield only global loads
    and stores and blocking channel reads (:mod:`repro.pipeline.replay`);
    whether each read channel is a lazy service is decided per launch
    (:meth:`~repro.frontend.compiler._CompiledMixin.replay_gate`). A
    batch plan can contain no channel use at all: a non-blocking channel
    builtin mutates shared channel state even though it yields no op.
    """
    hdl = frozenset(hdl_names)
    reads: List[str] = []
    replay_reason = batch_reason = None
    for node in nodes:
        if isinstance(node, ast.Call):
            func = node.func
            if func == "barrier":
                blocker = replay_blocker = "work-group barrier"
            elif func in CHANNEL_BUILTINS:
                blocker, replay_blocker = "channel operation", None
                if "_nb_" in func:
                    replay_blocker = "non-blocking channel builtin"
                elif func.startswith("write"):
                    replay_blocker = "channel write"
                else:
                    target = node.args[0] if node.args else None
                    if isinstance(target, ast.Subscript):
                        target = target.base
                    if not isinstance(target, ast.Name):
                        replay_blocker = "blocking read of a computed channel"
                    elif target.ident not in reads:
                        reads.append(target.ident)
            elif func in hdl:
                blocker = replay_blocker = "HDL library call"
            else:
                continue
        elif isinstance(node, ast.Declaration) and node.is_local:
            blocker = replay_blocker = "__local memory"
        else:
            continue
        batch_reason = batch_reason or blocker
        replay_reason = replay_reason or replay_blocker
        if replay_reason is not None:
            return replay_reason, (), batch_reason
    return None, tuple(reads), batch_reason


# -- column helpers for the plan closures -------------------------------------


def _declare_fresh(f, s: int, rows, value) -> None:
    """A declaration: the rows that did not run it never read the slot
    before running it themselves."""
    f[s] = columns.fresh(rows, value, f.n)


def _declare_hazard(f, s: int, rows, value) -> None:
    """A declaration whose slot another row may read undeclared (see
    ``_UNDEF``): such a read must still fail, so a partly declared slot
    aborts."""
    if rows is not None:
        old = f[s]
        if old is _UNDEF:
            raise columns.BatchAbort("declaration by only some rows")
        value = columns.masked(old, rows, value, f.n)
    f[s] = value


class _PlanCompiler(_BodyCompiler):
    """Second lowering pass: the body as plan nodes over column frames.

    It reuses the closure compiler's scopes, slot kinds and site labels
    (so plan sites match the closure backend's LSU identities) and its
    value-level operators through their column forms; every closure it
    emits is a column closure ``fn(frame, rows)``.
    """

    # -- slots --------------------------------------------------------------

    def _temp(self) -> int:
        """Allocate an anonymous temporary slot."""
        slot = self._n_slots
        self._n_slots += 1
        self._kinds.append(K_UNKNOWN)
        return slot

    def _slot_read(self, slot: int) -> _CExpr:
        def fn(f, rows, _s=slot):
            value = f[_s]
            if rows is not None and type(value) is columns.ndarray:
                return value[rows]
            return value
        return _CExpr(fn)

    def _spill(self, expr: _CExpr, steps: list) -> _CExpr:
        """Force ``expr``'s evaluation (and side effects) to happen *now*
        in plan order, returning a temp-slot read in its place."""
        if expr.const is not _NOCONST:
            return expr
        slot = self._temp()
        fn = expr.fn

        def save(f, rows, _s=slot, _fn=fn):
            _declare_fresh(f, _s, rows, _fn(f, rows))
        steps.append(BPure(save))
        return self._slot_read(slot)

    def _plan_name(self, ident: str, node: ast.Node,
                   scope: _SlotScope) -> _CExpr:
        slot = scope.resolve(ident)
        if slot is None:
            return self._read_name(ident, node, scope)
        if slot not in self._hazard:
            return self._slot_read(slot)

        def fn(f, rows, _s=slot):
            value = f[_s]
            if value is _UNDEF:
                raise error_at(f"undefined identifier {ident!r}", node)
            if rows is not None and type(value) is columns.ndarray:
                return value[rows]
            return value
        return _CExpr(fn)

    def _plan_store(self, ident: str, node: ast.Node,
                    scope: _SlotScope) -> Optional[Callable]:
        """``fn(frame, rows, value)`` assigning the slot on the active
        rows, or None if undeclared (see :meth:`_store_name`)."""
        slot = scope.resolve(ident)
        if slot is None:
            return None
        hazard = slot in self._hazard

        def fn(f, rows, value, _s=slot):
            old = f[_s]
            if hazard and old is _UNDEF:
                raise error_at(
                    f"assignment to undeclared identifier {ident!r}", node)
            f[_s] = value if rows is None else columns.masked(
                old, rows, value, f.n)
        return fn

    # -- statements ---------------------------------------------------------

    def _plan_stmt(self, node: ast.Node, scope: _SlotScope,
                   hazard: bool) -> list:
        if isinstance(node, ast.Block):
            inner = _SlotScope(scope)
            nodes: list = []
            for statement in node.statements:
                nodes.extend(self._plan_stmt(statement, inner, hazard=False))
            return nodes
        if isinstance(node, ast.Declaration):
            return self._plan_declaration(node, scope, hazard)
        if isinstance(node, ast.ExprStatement):
            steps: list = []
            self._discard(self._plan_expr(node.expr, scope, steps), steps)
            return steps
        if isinstance(node, ast.If):
            return self._plan_if(node, scope)
        if isinstance(node, ast.For):
            return self._plan_for(node, scope)
        if isinstance(node, ast.While):
            return self._plan_while(node, scope)
        if isinstance(node, ast.Return):
            steps = []
            if node.value is not None:
                self._discard(self._plan_expr(node.value, scope, steps), steps)
            steps.append(BExit(_RET))
            return steps
        if isinstance(node, ast.Break):
            return [BExit(_BRK)]
        if isinstance(node, ast.Continue):
            return [BExit(_CNT)]
        if isinstance(node, ast.Switch):
            raise _PlanBail("switch statement")

        def fail(f, rows):
            raise error_at(f"cannot execute {type(node).__name__}", node)
        return [BPure(fail)]

    @staticmethod
    def _discard(expr: _CExpr, steps: list) -> None:
        """Evaluate ``expr`` for its side effects (and errors) only."""
        if expr.const is _NOCONST:
            fn = expr.fn

            def run(f, rows, _fn=fn):
                _fn(f, rows)
            steps.append(BPure(run))

    def _plan_declaration(self, node: ast.Declaration, scope: _SlotScope,
                          hazard: bool) -> list:
        steps: list = []
        for name, initializer in node.names:
            if node.is_local and name in node.array_sizes:
                raise _PlanBail("__local memory")
            if name in node.array_sizes:
                size = node.array_sizes[name]
                # Size resolution happens before the (re)declaration.
                if isinstance(size, str):
                    size_expr = self._plan_name(size, node, scope)
                else:
                    size_expr = _const(size)
                slot = self._declare(scope, name, K_PRIVATE, hazard)
                declare = _declare_hazard if hazard else _declare_fresh
                sfn = size_expr.fn

                def fn(f, rows, _s=slot, _n=name, _sfn=sfn, _node=node,
                       _declare=declare):
                    size_value = _sfn(f, rows)
                    if type(size_value) is columns.ndarray:
                        raise columns.BatchAbort("per-row private array size")
                    if not isinstance(size_value, int) or size_value < 1:
                        raise error_at(
                            f"array {_n!r}: invalid size {size_value!r}",
                            _node)
                    _declare(f, _s, rows, columns.PrivateArray(
                        columns.np.zeros((f.n, size_value),
                                         dtype=columns.np.int64)))
                steps.append(BPure(fn))
                continue
            if initializer is None:
                value = _const(0)
                slot = self._declare(scope, name, K_INT, hazard)
            else:
                kind = self._static_kind(initializer, scope)
                value = self._plan_expr(initializer, scope, steps)
                slot = self._declare(scope, name, kind, hazard)
            declare = _declare_hazard if hazard else _declare_fresh
            vfn = value.fn

            def fn(f, rows, _s=slot, _vfn=vfn, _declare=declare):
                _declare(f, _s, rows, _vfn(f, rows))
            steps.append(BPure(fn))
        return steps

    def _plan_if(self, node: ast.If, scope: _SlotScope) -> list:
        csteps: list = []
        condition = self._plan_expr(node.condition, scope, csteps)
        if condition.const is not _NOCONST:
            # Mirror _if constant folding: both branches claim slots,
            # only the taken one is emitted.
            if condition.const:
                taken = self._plan_stmt(node.then_branch, scope, hazard=True)
                if node.else_branch is not None:
                    self._stmt(node.else_branch, scope, hazard=True)
                return csteps + taken
            self._stmt(node.then_branch, scope, hazard=True)
            if node.else_branch is not None:
                return csteps + self._plan_stmt(node.else_branch, scope,
                                                hazard=True)
            return csteps
        then_nodes = tuple(self._plan_stmt(node.then_branch, scope,
                                           hazard=True))
        else_nodes: tuple = ()
        if node.else_branch is not None:
            else_nodes = tuple(self._plan_stmt(node.else_branch, scope,
                                               hazard=True))
        csteps.append(BIf(condition.fn, then_nodes, else_nodes))
        return csteps

    def _plan_while(self, node: ast.While, scope: _SlotScope) -> list:
        csteps: list = []
        condition = self._plan_expr(node.condition, scope, csteps)
        body_nodes = self._plan_stmt(node.body, scope, hazard=True)
        loop_nodes = csteps + [BTest(condition.fn)] + body_nodes
        return [BLoop(tuple(loop_nodes), len(loop_nodes))]

    def _plan_for(self, node: ast.For, scope: _SlotScope) -> list:
        loop_scope = _SlotScope(scope)
        nodes: list = []
        if node.init is not None:
            nodes.extend(self._plan_stmt(node.init, loop_scope, hazard=False))
        csteps: list = []
        condition = None
        if node.condition is not None:
            condition = self._plan_expr(node.condition, loop_scope, csteps)
        body_nodes = self._plan_stmt(node.body, loop_scope, hazard=True)
        ssteps: list = []
        if node.step is not None:
            self._discard(self._plan_expr(node.step, loop_scope, ssteps),
                          ssteps)
        loop_nodes = list(csteps)
        if condition is not None:
            loop_nodes.append(BTest(condition.fn))
        continue_index = len(loop_nodes) + len(body_nodes)
        loop_nodes.extend(body_nodes)
        loop_nodes.extend(ssteps)
        nodes.append(BLoop(tuple(loop_nodes), continue_index))
        return nodes

    # -- expressions --------------------------------------------------------

    def _plan_expr(self, node: ast.Node, scope: _SlotScope,
                   steps: list) -> _CExpr:
        """Compile ``node`` to a column closure; its memory accesses
        become plan nodes in ``steps``.

        Invariant: the returned expression is consumed (evaluated exactly
        once) before any plan node appended after this call executes, so
        side effects keep their program-order position."""
        if isinstance(node, ast.IntLiteral):
            return _const(node.value)
        if isinstance(node, ast.Name):
            return self._plan_name(node.ident, node, scope)
        if isinstance(node, ast.Cast):
            return self._plan_expr(node.operand, scope, steps)
        if isinstance(node, ast.Unary):
            operand = self._plan_expr(node.operand, scope, steps)
            scalar = _unop_fn(node.op)
            if operand.const is not _NOCONST:
                return _const(scalar(operand.const))
            ufn = columns.column_unary(node.op, scalar)
            ofn = operand.fn
            return _CExpr(lambda f, rows: ufn(ofn(f, rows)))
        if isinstance(node, ast.Binary):
            if node.op in ("&&", "||"):
                return self._plan_logic(node, scope, steps)
            left = self._plan_expr(node.left, scope, steps)
            rsteps: list = []
            right = self._plan_expr(node.right, scope, rsteps)
            if rsteps:
                # The left value (and its side effects) must land before
                # the right side's memory ops execute.
                left = self._spill(left, steps)
                steps.extend(rsteps)
            scalar = _binop_fn(node.op, node)
            if scalar is None:
                return _raise_expr(f"unknown operator {node.op!r}", node)
            if left.const is not _NOCONST and right.const is not _NOCONST:
                lc, rc = left.const, right.const
                try:
                    return _const(scalar(lc, rc))
                except Exception:
                    # e.g. constant division by zero: fail when *executed*.
                    return _CExpr(lambda f, rows: scalar(lc, rc))
            binop = columns.column_binop(node.op, scalar)
            lf, rf = left.fn, right.fn
            return _CExpr(lambda f, rows: binop(lf(f, rows), rf(f, rows)))
        if isinstance(node, ast.Subscript):
            return self._plan_subscript(node, scope, steps)
        if isinstance(node, ast.Assign):
            return self._plan_assign(node, scope, steps)
        if isinstance(node, ast.IncDec):
            return self._plan_incdec(node, scope)
        if isinstance(node, ast.AddressOf):
            return self._plan_address_of(node, scope, steps)
        if isinstance(node, ast.Call):
            return self._plan_call(node)
        return _raise_expr(f"cannot evaluate {type(node).__name__}", node)

    def _plan_logic(self, node: ast.Binary, scope: _SlotScope,
                    steps: list) -> _CExpr:
        """``&&``/``||``: the right side runs only on the rows the left
        side does not decide."""
        is_and = node.op == "&&"
        side_steps: list = []
        left = self._plan_expr(node.left, scope, side_steps)
        right = self._plan_expr(node.right, scope, side_steps)
        if side_steps:
            # A conditionally-evaluated side containing a memory op
            # cannot be flattened into an unconditional schedule.
            raise _PlanBail("short-circuit operator with memory operand")
        rf = right.fn
        if left.const is not _NOCONST:
            if bool(left.const) != is_and:
                return _const(0 if is_and else 1)   # right never evaluated
            if right.const is not _NOCONST:
                return _const(1 if right.const else 0)
            return _CExpr(lambda f, rows: columns.truth(rf(f, rows)))
        lf = left.fn

        def fn(f, rows):
            value = lf(f, rows)
            if type(value) is not columns.ndarray:
                if bool(value) != is_and:
                    return 0 if is_and else 1
                return columns.truth(rf(f, rows))
            truthy = value != 0
            undecided = truthy if is_and else ~truthy
            result = truthy.astype(columns.np.int64)
            count = int(columns.np.count_nonzero(undecided))
            if count:
                if count == len(value):
                    rest = rows
                else:
                    rest = (f.all_rows() if rows is None
                            else rows)[undecided]
                result[undecided] = columns.truth(rf(f, rest))
            return result
        return _CExpr(fn)

    def _plan_subscript(self, node: ast.Subscript, scope: _SlotScope,
                        steps: list) -> _CExpr:
        slot, kind = self._pristine_kind(node.base, scope)
        if kind == K_PRIVATE:
            ifn = self._plan_expr(node.index, scope, steps).fn

            def fn(f, rows, _s=slot):
                return columns.private_get(f, rows, f[_s], ifn(f, rows))
            return _CExpr(fn)
        if kind == K_BUFFER:
            idx = self._plan_expr(node.index, scope, steps)
            dst = self._temp()
            steps.append(BLoad(slot, idx.fn, dst, self._site(node)))
            return self._slot_read(dst)
        if kind == K_LOCAL:
            raise _PlanBail("__local memory")
        if kind == K_CHANARR:
            raise _PlanBail("channel array")
        raise _PlanBail("subscript with statically unresolved base")

    def _plan_assign(self, node: ast.Assign, scope: _SlotScope,
                     steps: list) -> _CExpr:
        target = node.target
        if isinstance(target, ast.Name):
            value = self._plan_expr(node.value, scope, steps)
            return self._plan_assign_name(node, target, value, scope)
        compound = None if node.op == "=" else columns.column_compound(
            node.op, _compound_fn(node.op))
        slot, kind = self._pristine_kind(target.base, scope)
        if kind == K_PRIVATE:
            value = self._plan_expr(node.value, scope, steps)
            isteps: list = []
            idx = self._plan_expr(target.index, scope, isteps)
            if isteps:
                value = self._spill(value, steps)
                steps.extend(isteps)
            vfn, ifn = value.fn, idx.fn

            def fn(f, rows, _s=slot):
                v = vfn(f, rows)
                array = f[_s]
                i = ifn(f, rows)
                if compound is not None:
                    v = compound(columns.private_get(f, rows, array, i), v)
                columns.private_set(f, rows, array, i, v)
                return v
            return _CExpr(fn)
        if kind == K_BUFFER:
            value = self._plan_expr(node.value, scope, steps)
            # Value before index, both exactly once, both before the
            # memory ops — the closure's evaluation order.
            value = self._spill(value, steps)
            idx = self._plan_expr(target.index, scope, steps)
            idx = self._spill(idx, steps)
            result = value
            if compound is not None:
                current = self._temp()
                steps.append(BLoad(slot, idx.fn, current,
                                   self._site(target)))
                combined = self._temp()
                cfn = self._slot_read(current).fn
                vfn = value.fn

                def combine(f, rows, _r=combined):
                    _declare_fresh(f, _r, rows,
                                   compound(cfn(f, rows), vfn(f, rows)))
                steps.append(BPure(combine))
                result = self._slot_read(combined)
            steps.append(BStore(slot, idx.fn, result.fn, self._site(node)))
            return result
        if kind == K_LOCAL:
            raise _PlanBail("__local memory")
        raise _PlanBail("subscript store with statically unresolved base")

    def _plan_assign_name(self, node: ast.Assign, target: ast.Name,
                          value: _CExpr, scope: _SlotScope) -> _CExpr:
        """:meth:`_assign_name` over columns."""
        vf = value.fn
        store = self._plan_store(target.ident, target, scope)
        compound = None if node.op == "=" else columns.column_compound(
            node.op, _compound_fn(node.op))
        current = None
        if compound is not None:
            current = self._plan_name(target.ident, target, scope).fn
        if store is None:
            ident = target.ident

            def fail(f, rows):
                v = vf(f, rows)
                if compound is not None:
                    compound(current(f, rows), v)
                raise error_at(
                    f"assignment to undeclared identifier {ident!r}", target)
            return _CExpr(fail)

        def fn(f, rows):
            v = vf(f, rows)           # rvalue first (it may mutate target)
            if compound is not None:
                v = compound(current(f, rows), v)
            store(f, rows, v)
            return v
        return _CExpr(fn)

    def _plan_incdec(self, node: ast.IncDec, scope: _SlotScope) -> _CExpr:
        ident = node.target.ident
        if scope.resolve(ident) is None:
            return self._incdec(node, scope)    # fails when it runs
        read = self._plan_name(ident, node.target, scope).fn
        store = self._plan_store(ident, node.target, scope)
        add = columns.column_binop("+", _binop_fn("+", node))
        delta = 1 if node.op == "++" else -1

        def fn(f, rows):
            current = read(f, rows)
            store(f, rows, add(current, delta))
            return current
        return _CExpr(fn)

    def _plan_address_of(self, node: ast.AddressOf, scope: _SlotScope,
                         steps: list) -> _CExpr:
        target = node.target
        if not isinstance(target, ast.Subscript):
            return self._address_of(node, scope)    # fails when it runs
        base = self._plan_expr(target.base, scope, steps)
        isteps: list = []
        idx = self._plan_expr(target.index, scope, isteps)
        if isteps:
            base = self._spill(base, steps)
            steps.extend(isteps)
        bf, ifn = base.fn, idx.fn

        def fn(f, rows):
            b = bf(f, rows)
            i = ifn(f, rows)
            if not isinstance(b, str):
                raise error_at(_ADDRESS_OF_ONLY, node)
            store = f.memory.buffer(b)
            if type(i) is not columns.ndarray:
                return store.address_of(i)
            i = columns.index_of(i, store.size)
            return store.base_address + i * store.itemsize
        return _CExpr(fn)

    def _plan_call(self, node: ast.Call) -> _CExpr:
        name = node.func
        if name == "get_global_id":
            return _CExpr(lambda f, rows: f.gid(rows))
        if name == "get_compute_id":
            return _CExpr(lambda f, rows: f.compute_id)
        if name in ("get_global_size", "get_local_id", "mem_fence"):
            return self._call(node, None)
        # A barrier, channel or HDL call never gets here (see tier_scan).
        return _raise_expr(f"unknown function {name!r}", node)

    # -- entry --------------------------------------------------------------

    def compile_plan(self) -> BatchPlan:
        nodes = self._plan_stmt(self._definition.body, self._root,
                                hazard=False)
        return BatchPlan(
            kernel_name=self._definition.name,
            n_slots=self._n_slots,
            binding_slots=sorted(self._root.slots.items()),
            nodes=_merge_pure(nodes))


def compile_batch_plan(definition: ast.KernelDef, *,
                       site_table: Dict[int, str],
                       defines: Dict[str, int],
                       channel_kinds: Dict[str, int],
                       hdl_names,
                       autorun: bool,
                       blocker: Optional[str]
                       ) -> Tuple[Optional[BatchPlan], str]:
    """Lower one kernel definition to a :class:`BatchPlan` if possible.

    Returns ``(plan, "")`` on success or ``(None, reason)`` when the body
    contains a construct the batch table cannot time analytically;
    ``blocker`` is the first one :func:`tier_scan` found. The other
    arguments mirror :func:`compile_kernel_body` and must be the same
    values, so plan sites match the closure backend's LSU identities.
    """
    if autorun:
        # Also the static rejection of the autorun-only ops (cycle
        # boundaries, ``await_data`` parking, ``drain`` feeds).
        return None, "autorun kernel"
    if blocker is not None:
        return None, blocker
    compiler = _PlanCompiler(definition, site_table, defines, channel_kinds,
                             hdl_names, autorun)
    try:
        return compiler.compile_plan(), ""
    except _PlanBail as bail:
        return None, bail.reason
