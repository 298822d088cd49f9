"""Compiler: OpenCL-C source → kernels installed on a fabric.

The frontend equivalent of ``aoc``: parses a program, declares its
channels in the fabric namespace (honouring ``depth`` attributes), builds
a :class:`~repro.pipeline.kernel.Kernel` object per kernel function —
autorun kernels start immediately, as programming the device would, and
those written exactly as Listing 1's timer or Listing 5's sequence
server start as lazy service channels (:func:`recognise_services`) —
and statically extracts each kernel's resource profile for the
synthesis model.

Kernel dispatch mode follows AOCL semantics: a kernel that calls
``get_global_id`` is an NDRange kernel (launch with ``__global_size`` in
its args); anything else is a single task. Compiled single-task kernels
execute their loop nests *serially* (the frontend is a correctness-level
compiler, like the emulator); use the native Python-IR kernels when
pipelined timing is the subject of study.

Each kernel body is lowered once to slot-framed Python closures
(:mod:`repro.frontend.codegen`): names become list indices, pure
arithmetic runs outside generator frames, and only scheduler ops yield.

Compilation artifacts that don't depend on the target fabric (the AST,
site tables, ``__local`` layouts, compiled closure bodies) are cached in
a process-wide LRU keyed by source text and compile options, so hosts
that re-program fabrics with the same ``.cl`` source skip the frontend
entirely. Inspect with :func:`program_cache_info`; reset with
:func:`program_cache_clear`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional

from repro.channels.channel import (CounterRegisterChannel, SequenceChannel,
                                    ServiceChannel)
from repro.channels.registry import ChannelArray
from repro.frontend import ast_nodes as ast
from repro.frontend.codegen import (
    CHANNEL_BUILTINS,
    K_CHANARR,
    K_CHANNEL,
    CompiledBody,
    compile_batch_plan,
    compile_kernel_body,
    tier_scan,
)
from repro.frontend.lexer import FrontendError
from repro.frontend.parser import parse
from repro.frontend.preprocessor import preprocess
from repro.hdl.library import HDLLibrary
from repro.pipeline.fabric import Fabric
from repro.pipeline.kernel import (
    AutorunKernel,
    Kernel,
    NDRangeKernel,
    PipelineConfig,
    ResourceProfile,
    SingleTaskKernel,
)


def _uses_global_id(nodes: List[ast.Node]) -> bool:
    return any(isinstance(node, ast.Call) and node.func == "get_global_id"
               for node in nodes)


def extract_profile(kernel_def: ast.KernelDef) -> ResourceProfile:
    """Static per-compute-unit hardware content of one compiled kernel."""
    profile = ResourceProfile(control_states=2)
    store_targets: set = set()
    for node in ast.all_nodes(kernel_def.body):
        if isinstance(node, ast.Assign) and isinstance(node.target,
                                                       ast.Subscript):
            profile.store_sites += 1
            store_targets.add(id(node.target))
        if isinstance(node, ast.Subscript):
            # Heuristic: a subscript that is not a store target and whose
            # base is a plain name is a candidate load site (channel-array
            # subscripts are filtered by the zero-cost of being wrong here).
            if id(node) not in store_targets and isinstance(
                    node.base, ast.Name):
                profile.load_sites += 1
        if isinstance(node, ast.Binary):
            if node.op in ("+", "-"):
                profile.adders += 1
            elif node.op == "*":
                profile.multipliers += 1
            else:
                profile.logic_ops += 1
        if isinstance(node, ast.IncDec) or (
                isinstance(node, ast.Assign) and node.op in ("+=", "-=")):
            profile.adders += 1
        if isinstance(node, (ast.For, ast.While)):
            profile.control_states += 4
        if isinstance(node, ast.If):
            profile.control_states += 2
        if isinstance(node, ast.Call):
            if node.func in CHANNEL_BUILTINS:
                profile.channel_endpoints += 1
            elif node.func not in ("get_global_id", "get_compute_id",
                                   "get_global_size", "get_local_id",
                                   "mem_fence"):
                profile.hdl_modules += 1
    return profile


def build_site_table(kernel_name: str,
                     nodes: List[ast.Node]) -> Dict[int, str]:
    """Precompute the static site label of every AST node in a kernel
    (``nodes``: its body's :func:`~repro.frontend.ast_nodes.all_nodes`).

    Site labels (``"<kernel>:n<node_id>"``) name the hardware unit an op
    maps to; they are a pure function of the AST, so the compiler computes
    them once per kernel instead of formatting one per executed op.
    """
    return {node.node_id: f"{kernel_name}:n{node.node_id}"
            for node in nodes}


def _collect_local_arrays(nodes: List[ast.Node],
                          defines: Dict[str, Any]) -> Dict[str, int]:
    """All ``__local type name[size]`` declarations among a kernel body's
    ``nodes``."""
    found: Dict[str, int] = {}
    for current in nodes:
        if isinstance(current, ast.Declaration) and current.is_local:
            for name, _ in current.names:
                size = current.array_sizes.get(name)
                if size is None:
                    raise FrontendError(
                        f"__local variable {name!r} must be an array")
                if isinstance(size, str):
                    size = defines.get(size)
                if not isinstance(size, int) or size < 1:
                    raise FrontendError(
                        f"__local array {name!r}: size must be a positive "
                        "constant (or a define)")
                found[name] = size
    return found


# -- persistent services (Listings 1 and 5) ---------------------------------

_TIMER_WRITES = ("write_channel_nb_altera", "write_channel_nb_intel")
_SEQUENCE_WRITES = ("write_channel_altera", "write_channel_intel")

#: Why an autorun kernel whose body has neither service shape steps.
NOT_A_SERVICE = "body is not Listing 1's timer or Listing 5's server loop"


def _is_name(node: Any, ident: str) -> bool:
    return isinstance(node, ast.Name) and node.ident == ident


def _service_loop(body: ast.Block) -> Optional[tuple]:
    """``(kind, channel expression)`` when ``body`` is exactly Listing 1's
    timer (``"timer"``) or Listing 5's sequence server (``"sequence"``):

    ``int count = 0; while (1) { [bool f;] count++; [f =]
    write_channel_nb_altera(CH, count); }`` or ``int count = 0;
    while (1) { count++; write_channel_altera(CH, count); }`` (any
    counter and flag names, either vendor spelling); else None.
    """
    if len(body.statements) != 2:
        return None
    declaration, loop = body.statements
    if not (isinstance(declaration, ast.Declaration)
            and declaration.type_name == "int" and not declaration.is_local
            and not declaration.array_sizes and len(declaration.names) == 1):
        return None
    counter, initial = declaration.names[0]
    if not (isinstance(initial, ast.IntLiteral) and initial.value == 0
            and isinstance(loop, ast.While)
            and isinstance(loop.condition, ast.IntLiteral)
            and loop.condition.value == 1
            and isinstance(loop.body, ast.Block)):
        return None
    statements = list(loop.body.statements)
    flag = None
    if statements and isinstance(statements[0], ast.Declaration):
        flag_declaration = statements.pop(0)
        if not (flag_declaration.type_name == "bool"
                and not flag_declaration.is_local
                and not flag_declaration.array_sizes
                and len(flag_declaration.names) == 1
                and flag_declaration.names[0][1] is None
                and flag_declaration.names[0][0] != counter):
            return None
        flag = flag_declaration.names[0][0]
    if len(statements) != 2:
        return None
    step, write = statements
    if not (isinstance(step, ast.ExprStatement)
            and isinstance(step.expr, ast.IncDec) and step.expr.op == "++"
            and _is_name(step.expr.target, counter)
            and isinstance(write, ast.ExprStatement)):
        return None
    call = write.expr
    if isinstance(call, ast.Assign):
        if not (flag is not None and call.op == "="
                and _is_name(call.target, flag)
                and isinstance(call.value, ast.Call)
                and call.value.func in _TIMER_WRITES):
            return None
        call = call.value
    if not (isinstance(call, ast.Call) and len(call.args) == 2
            and _is_name(call.args[1], counter)
            and not _is_name(call.args[0], counter)
            and not _is_name(call.args[0], flag)):
        return None
    if call.func in _TIMER_WRITES:
        return "timer", call.args[0]
    if call.func in _SEQUENCE_WRITES and flag is None:
        return "sequence", call.args[0]
    return None


def recognise_services(program: ast.Program) -> Dict[str, tuple]:
    """How each autorun kernel of ``program`` is modelled.

    Maps the kernel's name to ``(kind, channel)`` for a Listing 1 timer
    or Listing 5 sequence server that the emulator runs as a lazy
    channel (:class:`~repro.channels.channel.CounterRegisterChannel` or
    :class:`~repro.channels.channel.SequenceChannel`), else to
    ``(reason, None)``: the kernel runs eagerly, stepping every cycle.
    A service needs a parameterless single-compute-unit kernel whose
    body is exactly the listing's (see :func:`_service_loop`), writing a
    scalar depth-0 channel that no other kernel writes; a timer's
    channel must also not be read by an autorun kernel declared before
    it (that kernel would read in the same early phase, before the
    counter's write of the cycle).
    """
    if not any(definition.is_autorun for definition in program.kernels):
        return {}
    channels = {declaration.name: declaration
                for declaration in program.channels}
    writers: Dict[str, List[str]] = {}
    autorun_readers: Dict[str, List[int]] = {}
    for index, definition in enumerate(program.kernels):
        for node in ast.all_nodes(definition.body):
            if not (isinstance(node, ast.Call)
                    and node.func in CHANNEL_BUILTINS and node.args):
                continue
            target = node.args[0]
            if isinstance(target, ast.Subscript):
                target = target.base
            if not isinstance(target, ast.Name):
                continue
            if node.func.startswith("write"):
                writers.setdefault(target.ident, []).append(definition.name)
            elif definition.is_autorun:
                autorun_readers.setdefault(target.ident, []).append(index)

    def classify(index: int, definition: ast.KernelDef) -> tuple:
        if any(parameter.type_name != "void"
               for parameter in definition.parameters):
            return "kernel has parameters", None
        units = definition.num_compute_units
        if units != 1:
            return f"num_compute_units({units})", None
        shape = _service_loop(definition.body)
        if shape is None:
            return NOT_A_SERVICE, None
        kind, target = shape
        if isinstance(target, ast.Subscript):
            return "writes a channel-array element", None
        if not isinstance(target, ast.Name) or target.ident not in channels:
            return "writes no file-scope channel", None
        name = target.ident
        declaration = channels[name]
        if declaration.count is not None:
            return f"channel {name!r} is a channel array", None
        depth = declaration.depth
        if depth != 0:
            return (f"channel {name!r} has depth "
                    f"{1 if depth is None else depth}, not 0"), None
        others = [writer for writer in writers.get(name, ())
                  if writer != definition.name]
        if others:
            return (f"channel {name!r} is also written by kernel "
                    f"{others[0]!r}"), None
        if kind == "timer" and any(reader < index for reader
                                   in autorun_readers.get(name, ())):
            return (f"channel {name!r} is read by an autorun kernel "
                    "declared before it"), None
        return kind, name

    return {definition.name: classify(index, definition)
            for index, definition in enumerate(program.kernels)
            if definition.is_autorun}


# -- fabric-independent compilation artifacts --------------------------------

class KernelArtifacts:
    """Everything compiled once per (kernel, options), reused per fabric."""

    __slots__ = ("definition", "kind", "site_table", "local_arrays",
                 "compiled_body", "replay_reason", "read_channels",
                 "_plan_inputs", "_batch_plan", "_batch_reason")

    def __init__(self, definition: ast.KernelDef, kind: str,
                 site_table: Dict[int, str], local_arrays: Dict[str, int],
                 compiled_body: CompiledBody, replay: tuple,
                 plan_inputs: tuple) -> None:
        self.definition = definition
        self.kind = kind                      # "autorun" | "ndrange" | "task"
        self.site_table = site_table
        self.local_arrays = local_arrays
        self.compiled_body = compiled_body
        #: Why a launch can never replay (None when it can), and the
        #: channels its blocking reads name (see :func:`tier_scan`).
        self.replay_reason, self.read_channels = replay
        # (defines, channel_kinds, hdl, the first construct no plan holds)
        self._plan_inputs = plan_inputs
        # Batch plan, compiled at the kernel's first launch, so a
        # compile_source that launches nothing never pays for it.
        self._batch_plan = None
        self._batch_reason: Optional[str] = None   # None = not compiled yet

    def batch_plan(self) -> tuple:
        """``(plan, reason)`` for the batch table, compiled on first
        request and cached on the artifact (shared by the program LRU)."""
        if self._batch_reason is None:
            defines, channel_kinds, hdl_names, blocker = self._plan_inputs
            self._batch_plan, self._batch_reason = compile_batch_plan(
                self.definition,
                site_table=self.site_table,
                defines=defines,
                channel_kinds=channel_kinds,
                hdl_names=hdl_names,
                autorun=self.kind == "autorun",
                blocker=blocker)
        return self._batch_plan, self._batch_reason


def build_kernel_artifacts(definition: ast.KernelDef,
                           defines: Dict[str, Any],
                           channel_kinds: Dict[str, int],
                           hdl_names) -> KernelArtifacts:
    """Compile one kernel definition's fabric-independent artifacts."""
    nodes = ast.all_nodes(definition.body)
    if definition.is_autorun:
        kind = "autorun"
    elif _uses_global_id(nodes):
        kind = "ndrange"
    else:
        kind = "task"
    site_table = build_site_table(definition.name, nodes)
    local_arrays = _collect_local_arrays(nodes, defines)
    compiled_body = compile_kernel_body(
        definition,
        site_table=site_table,
        defines=defines,
        channel_kinds=channel_kinds,
        hdl_names=hdl_names,
        autorun=kind == "autorun")
    replay_reason, read_channels, batch_blocker = tier_scan(nodes,
                                                            hdl_names)
    return KernelArtifacts(definition, kind, site_table, local_arrays,
                           compiled_body, (replay_reason, read_channels),
                           plan_inputs=(dict(defines), dict(channel_kinds),
                                        tuple(hdl_names), batch_blocker))


class _ProgramImage:
    """Parsed + codegenned program, independent of any fabric."""

    __slots__ = ("ast", "macros", "artifacts", "services")

    def __init__(self, program_ast: ast.Program, macros: Dict[str, str],
                 artifacts: Dict[str, KernelArtifacts]) -> None:
        self.ast = program_ast
        self.macros = macros
        self.artifacts = artifacts
        #: Autorun kernel name -> ``(kind, channel)`` or ``(reason, None)``
        #: (see :func:`recognise_services`).
        self.services = recognise_services(program_ast)


def _build_image(source: str, defines: Dict[str, Any],
                 hdl_names) -> _ProgramImage:
    expanded, macros = preprocess(source)
    program_ast = parse(expanded)
    channel_kinds = {
        declaration.name: (K_CHANNEL if declaration.count is None
                           else K_CHANARR)
        for declaration in program_ast.channels
    }
    artifacts = {
        definition.name: build_kernel_artifacts(
            definition, defines, channel_kinds, hdl_names)
        for definition in program_ast.kernels
    }
    return _ProgramImage(program_ast, macros, artifacts)


#: Process-wide LRU of program images, keyed by source + compile options.
#: Guarded by ``_CACHE_LOCK``: the emulation server's sessions (and its
#: inline executor threads) compile concurrently against one process-wide
#: cache, so lookup+insert must be atomic — N concurrent compiles of the
#: same source must cost exactly one miss.
_PROGRAM_CACHE: "OrderedDict[Any, _ProgramImage]" = OrderedDict()
_PROGRAM_CACHE_MAXSIZE = 128
_CACHE_LOCK = threading.RLock()
_cache_hits = 0
_cache_misses = 0
_cache_evictions = 0


def _load_image(source: str, defines: Dict[str, Any],
                hdl_names) -> _ProgramImage:
    global _cache_hits, _cache_misses, _cache_evictions
    with _CACHE_LOCK:
        try:
            key = (source, tuple(sorted(defines.items())),
                   tuple(sorted(hdl_names)))
            hash(key)
        except TypeError:
            # Unhashable options (exotic define values): compile uncached.
            _cache_misses += 1
            return _build_image(source, defines, hdl_names)
        image = _PROGRAM_CACHE.get(key)
        if image is not None:
            _cache_hits += 1
            _PROGRAM_CACHE.move_to_end(key)
            return image
        # Build under the lock: a second thread asking for the same key
        # must block and then hit, not compile the image twice.
        _cache_misses += 1
        image = _build_image(source, defines, hdl_names)
        _PROGRAM_CACHE[key] = image
        if len(_PROGRAM_CACHE) > _PROGRAM_CACHE_MAXSIZE:
            _PROGRAM_CACHE.popitem(last=False)
            _cache_evictions += 1
        return image


def program_cache_info() -> Dict[str, int]:
    """Program-image cache statistics (for tests and capacity tuning).

    ``hits``/``misses``/``evictions`` are monotonic counters (reset only
    by :func:`program_cache_clear`); the snapshot is taken atomically
    under the cache lock, so concurrent compiles never yield torn reads.
    """
    with _CACHE_LOCK:
        return {"hits": _cache_hits, "misses": _cache_misses,
                "evictions": _cache_evictions,
                "size": len(_PROGRAM_CACHE),
                "maxsize": _PROGRAM_CACHE_MAXSIZE}


def program_cache_clear() -> None:
    """Drop all cached program images and reset the hit/miss counters."""
    global _cache_hits, _cache_misses, _cache_evictions
    with _CACHE_LOCK:
        _PROGRAM_CACHE.clear()
        _cache_hits = 0
        _cache_misses = 0
        _cache_evictions = 0


# -- compiled kernel objects -------------------------------------------------

class _CompiledMixin:
    """Shared launch-time binding and execution for compiled kernels."""

    def _init_compiled(self, definition, channel_bindings, hdl_modules,
                       defines,
                       artifacts: Optional[KernelArtifacts]) -> None:
        self._definition = definition
        self._channel_bindings = channel_bindings
        self._hdl_modules = hdl_modules
        self._defines = dict(defines or {})
        if artifacts is None:
            # Direct construction (no program image): infer the channel
            # kinds from the live bindings and compile on the spot.
            channel_kinds = {
                name: (K_CHANARR if isinstance(value, ChannelArray)
                       else K_CHANNEL)
                for name, value in channel_bindings.items()
            }
            artifacts = build_kernel_artifacts(
                definition, self._defines, channel_kinds,
                hdl_modules.keys())
        self._artifacts = artifacts
        self._local_arrays = artifacts.local_arrays
        self._compiled_body = artifacts.compiled_body

    def create_locals(self, fabric, compute_id: int) -> Dict[str, Any]:
        """Instantiate this kernel's ``__local`` arrays as block RAM."""
        from repro.memory.local_memory import LocalMemory

        return {name: LocalMemory(fabric.sim,
                                  f"{self.name}.cu{compute_id}.{name}", size)
                for name, size in self._local_arrays.items()}

    def _bindings(self, ctx) -> Dict[str, Any]:
        bindings: Dict[str, Any] = {}
        for parameter in self._definition.parameters:
            if parameter.type_name == "void":
                continue
            try:
                value = ctx.args[parameter.name]
            except KeyError:
                raise FrontendError(
                    f"kernel {self.name!r}: missing argument "
                    f"{parameter.name!r}") from None
            if parameter.is_global_pointer and not isinstance(value, str):
                raise FrontendError(
                    f"kernel {self.name!r}: argument {parameter.name!r} is a "
                    "__global pointer; pass a buffer name")
            bindings[parameter.name] = value
        bindings.update(self._defines)
        bindings.update(self._channel_bindings)
        return bindings

    def body(self, ctx):
        return self._compiled_body.make(ctx, self._bindings(ctx),
                                        self._hdl_modules)

    def batch_plan(self) -> tuple:
        """``(plan, reason)`` for the batch table (lazily compiled)."""
        return self._artifacts.batch_plan()

    @property
    def replayable(self) -> bool:
        """True when the body yields only global loads and stores and
        blocking channel reads (:func:`tier_scan`)."""
        return self._artifacts.replay_reason is None

    @property
    def replay_blocker(self) -> str:
        """The construct that keeps the body off the replay."""
        return self._artifacts.replay_reason or Kernel.replay_blocker

    def replay_gate(self) -> Optional[str]:
        """A launch steps while a channel it reads is not a lazy service
        (a plain channel's values come from a stepping producer)."""
        bindings = self._channel_bindings
        for name in self._artifacts.read_channels:
            if not isinstance(bindings.get(name), ServiceChannel):
                return f"blocking read of eager channel {name!r}"
        return None

    def resource_profile(self) -> ResourceProfile:
        return extract_profile(self._definition)


class CompiledSingleTask(_CompiledMixin, SingleTaskKernel):
    """A compiled single-task kernel: the whole function is one serialized
    iteration (correctness-level execution)."""

    def __init__(self, definition, channel_bindings, hdl_modules,
                 defines=None,
                 artifacts: Optional[KernelArtifacts] = None) -> None:
        super().__init__(name=definition.name,
                         pipeline=PipelineConfig(ii=1, max_inflight=1))
        self._init_compiled(definition, channel_bindings, hdl_modules,
                            defines, artifacts)

    def iteration_space(self, args) -> List[int]:
        return [0]


class CompiledNDRange(_CompiledMixin, NDRangeKernel):
    """A compiled NDRange kernel: one iteration per work-item.

    Launch with ``{"__global_size": N, ...}``. Work-items pipeline with
    II=1; any loop inside the work-item executes serially within it.
    """

    def __init__(self, definition, channel_bindings, hdl_modules,
                 defines=None,
                 artifacts: Optional[KernelArtifacts] = None) -> None:
        super().__init__(name=definition.name)
        self._init_compiled(definition, channel_bindings, hdl_modules,
                            defines, artifacts)

    def global_size(self, args) -> int:
        try:
            return int(args["__global_size"])
        except KeyError:
            raise FrontendError(
                f"NDRange kernel {self.name!r} needs '__global_size' in its "
                "launch args") from None

    def trip_count(self, args) -> int:
        return 1


class CompiledAutorun(_CompiledMixin, AutorunKernel):
    """A compiled autorun kernel (Listings 1, 5, 8)."""

    def __init__(self, definition, channel_bindings, hdl_modules,
                 defines=None, phase: str = "early",
                 artifacts: Optional[KernelArtifacts] = None) -> None:
        super().__init__(name=definition.name,
                         num_compute_units=definition.num_compute_units,
                         phase=phase)
        self._init_compiled(definition, channel_bindings, hdl_modules,
                            defines, artifacts)


class CompiledProgram:
    """A compiled ``.cl`` program bound to one fabric.

    An autorun kernel recognised as Listing 1's timer or Listing 5's
    sequence server (see :func:`recognise_services`) starts as a lazy
    service: its channel is a
    :class:`~repro.channels.channel.CounterRegisterChannel` (counting
    from this cycle) or a :class:`~repro.channels.channel.SequenceChannel`
    (re-offering once per cycle, as the compiled loop does) under the
    declared name, and the kernel never steps. Every other autorun
    kernel starts eagerly. ``autorun_services`` reports each autorun
    kernel's model: ``"timer"``, ``"sequence"``, or why it is eager.
    """

    def __init__(self, fabric: Fabric, source: str,
                 hdl_library: Optional[HDLLibrary] = None,
                 autorun_args: Optional[Dict[str, Dict[str, Any]]] = None,
                 start_autorun: bool = True,
                 defines: Optional[Dict[str, int]] = None) -> None:
        self.fabric = fabric
        self.defines = dict(defines or {})
        self._hdl_modules: Dict[str, Any] = {}
        if hdl_library is not None:
            for module in hdl_library.modules():
                self._hdl_modules[module.name] = module

        image = _load_image(source, self.defines,
                            tuple(sorted(self._hdl_modules)))
        self.ast = image.ast
        self.macros = dict(image.macros)
        services = self._services(image)
        #: Autorun kernel name -> "timer", "sequence", or why it is eager.
        self.autorun_services: Dict[str, str] = {
            name: kind for name, (kind, _) in services.items()}
        # Channel name -> service kind, for the services started here.
        lazy = ({channel: kind for kind, channel in services.values()
                 if channel is not None} if start_autorun else {})

        # Channel declarations (file scope) go into the fabric namespace.
        self._channel_bindings: Dict[str, Any] = {}
        for declaration in self.ast.channels:
            depth = declaration.depth
            depth = 1 if depth is None else depth
            kind = lazy.get(declaration.name)
            if kind == "timer":
                channel = fabric.channels.adopt(CounterRegisterChannel(
                    fabric.sim, declaration.name,
                    start_cycle=fabric.sim.now))
            elif kind == "sequence":
                channel = fabric.channels.adopt(SequenceChannel(
                    fabric.sim, declaration.name, per_cycle=True))
            elif declaration.count is None:
                channel = fabric.channels.declare(declaration.name, depth=depth)
            else:
                channel = fabric.channels.declare_array(
                    declaration.name, declaration.count, depth=depth)
            self._channel_bindings[declaration.name] = channel

        self.kernels: Dict[str, Any] = {}
        for definition in self.ast.kernels:
            artifacts = image.artifacts[definition.name]
            if artifacts.kind == "autorun":
                kernel = CompiledAutorun(definition, self._channel_bindings,
                                         self._hdl_modules, self.defines,
                                         artifacts=artifacts)
            elif artifacts.kind == "ndrange":
                kernel = CompiledNDRange(definition, self._channel_bindings,
                                         self._hdl_modules, self.defines,
                                         artifacts=artifacts)
            else:
                kernel = CompiledSingleTask(definition, self._channel_bindings,
                                            self._hdl_modules, self.defines,
                                            artifacts=artifacts)
            self.kernels[definition.name] = kernel

        if start_autorun:
            for kernel in self.kernels.values():
                if not isinstance(kernel, CompiledAutorun):
                    continue
                channel_name = services[kernel.name][1]
                if channel_name is None:
                    args = (autorun_args or {}).get(kernel.name, {})
                    fabric.add_autorun(kernel, args)
                    continue
                channel = self._channel_bindings[channel_name]
                if isinstance(channel, SequenceChannel):
                    channel.start()
                fabric.add_lazy_service(kernel, channel)

    def _services(self, image: _ProgramImage) -> Dict[str, tuple]:
        """Each autorun kernel's ``(kind, channel)``, or ``(reason,
        None)`` to start it eagerly (see :func:`recognise_services`)."""
        return image.services

    def kernel(self, name: str):
        try:
            return self.kernels[name]
        except KeyError:
            raise FrontendError(
                f"no kernel named {name!r}; program defines "
                f"{sorted(self.kernels)}") from None

    def channel(self, name: str):
        try:
            return self._channel_bindings[name]
        except KeyError:
            raise FrontendError(f"no channel named {name!r}") from None


def compile_source(fabric: Fabric, source: str, **kwargs) -> CompiledProgram:
    """Convenience wrapper: ``aoc`` for the simulated fabric."""
    return CompiledProgram(fabric, source, **kwargs)
