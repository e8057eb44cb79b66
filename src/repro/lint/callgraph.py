"""Project-wide symbol table and call graph for the interprocedural rules.

The per-function AST rules of :mod:`repro.lint.rules` see one function at
a time, so a snapshot write hidden one call away or a shared-memory view
retained by a helper are invisible to them.  This module builds the
missing global picture in one pass over the already-parsed trees:

* a **symbol table** per module — top-level functions, classes and their
  methods, imports (``import x.y as z`` / ``from a import b as c``),
  module-level function aliases and *dispatch dicts*
  (``HANDLERS = {"k": handler}``);
* a **call graph** whose nodes are fully-qualified function names
  (``repro.core.sweep.compute_targets_vectorized``,
  ``repro.parallel.process_backend._SweepExecutor.compute_targets``,
  nested functions as ``outer.<locals>.inner``) and whose edges come in
  three kinds:

  - ``call``  — a direct invocation (``f(...)``, ``self.m(...)``,
    ``mod.f(...)``, ``DISPATCH[key](...)``);
  - ``ref``   — a function passed as a value (``Process(target=worker)``,
    ``backend.map(fn, items)``, ``functools.partial(f, x)``) — the callee
    is *reachable* even though no call expression names it;
  - ``partial`` — the ``functools.partial`` special case of ``ref``,
    kept distinct so tests can pin the shape.

Resolution is best-effort and *within the linted file set*: unresolvable
names (builtins, third-party calls) simply produce no edge.  That is the
right bias for a linter — a missing edge can only suppress a finding,
never invent one.

The dataflow engine (:mod:`repro.lint.dataflow`) consumes this graph to
propagate function summaries to a fixpoint; the interprocedural rules
(:mod:`repro.lint.iprules`) consume both.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.lint.rules import _attr_chain, _func_params, _snapshot_params_of

__all__ = [
    "CallGraph",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "build_callgraph",
    "module_name_for_path",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path.

    The name is rooted at the last ``repro`` path segment so real tree
    paths (``src/repro/core/sweep.py``) and synthetic fixture paths
    (``repro/parallel/bad.py``) resolve identically; paths outside a
    ``repro`` tree fall back to their stem.

    >>> module_name_for_path("src/repro/core/sweep.py")
    'repro.core.sweep'
    >>> module_name_for_path("repro/parallel/__init__.py")
    'repro.parallel'
    >>> module_name_for_path("scratch/standalone.py")
    'standalone'
    """
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "module"


@dataclass
class FunctionInfo:
    """One function (or method, or nested function) in the project."""

    qname: str
    module: str
    path: str
    node: ast.AST
    name: str
    params: tuple[str, ...]
    #: ``None`` when not ``@snapshot_kernel``-marked; the snapshot-state
    #: parameter names otherwise (the bare decorator form marks all).
    snapshot_params: "tuple[str, ...] | None" = None
    class_qname: "str | None" = None
    parent_qname: "str | None" = None
    decorators: tuple[str, ...] = ()

    @property
    def is_method(self) -> bool:
        return self.class_qname is not None

    def snapshot_param_names(self) -> frozenset[str]:
        """Resolved snapshot parameter names (empty when unmarked)."""
        return frozenset(self.snapshot_params or ())


@dataclass
class ClassInfo:
    qname: str
    module: str
    name: str
    #: Base-class names as written (resolved lazily through the graph).
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)  # name -> qname


@dataclass
class CallSite:
    """One resolved edge: ``caller`` invokes/references ``callee``."""

    caller: str
    callee: str
    line: int
    col: int
    kind: str = "call"  # "call" | "ref" | "partial"
    #: The call expression for ``kind == "call"`` (argument binding).
    node: "ast.Call | None" = None
    #: True when the callee was reached as ``self.method(...)`` /
    #: ``cls.method(...)`` (binds positionals past the ``self`` slot).
    bound: bool = False


@dataclass
class ModuleInfo:
    path: str
    modname: str
    tree: ast.Module
    #: local name -> dotted import target.
    imports: dict[str, str] = field(default_factory=dict)
    #: top-level def name -> qname.
    functions: dict[str, str] = field(default_factory=dict)
    #: top-level class name -> qname.
    classes: dict[str, str] = field(default_factory=dict)
    #: module-level alias name -> referenced top-level name.
    aliases: dict[str, str] = field(default_factory=dict)
    #: module-level dispatch dict name -> referenced value names.
    dispatch: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: module-level names bound to mutable containers (LOCK001 universe):
    #: name -> (line, col, constructor description).
    mutable_globals: dict[str, tuple[int, int, str]] = field(
        default_factory=dict
    )


class CallGraph:
    """Symbol table + edges over one set of parsed modules."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}        # modname -> info
        self.functions: dict[str, FunctionInfo] = {}    # qname -> info
        self.classes: dict[str, ClassInfo] = {}         # qname -> info
        self.calls: list[CallSite] = []
        self._calls_from: dict[str, list[CallSite]] = {}
        self._callers_of: dict[str, list[CallSite]] = {}

    # -- construction ---------------------------------------------------

    def add_module(self, path: str, tree: ast.Module) -> ModuleInfo:
        info = ModuleInfo(path=path, modname=module_name_for_path(path),
                          tree=tree)
        self.modules[info.modname] = info
        _collect_symbols(self, info)
        return info

    def finalize(self) -> None:
        """Second pass: extract and resolve call sites for every function."""
        self.calls = []
        for modname in sorted(self.modules):
            info = self.modules[modname]
            for qname in sorted(self.functions):
                fn = self.functions[qname]
                if fn.module != modname:
                    continue
                _extract_calls(self, info, fn)
        self._calls_from = {}
        self._callers_of = {}
        for site in self.calls:
            self._calls_from.setdefault(site.caller, []).append(site)
            self._callers_of.setdefault(site.callee, []).append(site)

    # -- queries --------------------------------------------------------

    def calls_from(self, qname: str) -> list[CallSite]:
        return self._calls_from.get(qname, [])

    def callers_of(self, qname: str) -> list[CallSite]:
        return self._callers_of.get(qname, [])

    def reachable(self, roots: Iterable[str]) -> set[str]:
        """Qnames reachable from ``roots`` over call/ref/partial edges."""
        seen: set[str] = set()
        stack = [r for r in roots if r in self.functions]
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            for site in self.calls_from(q):
                if site.callee not in seen:
                    stack.append(site.callee)
        return seen

    def path_between(self, src: str, dst: str) -> "list[str] | None":
        """Shortest call path ``src -> ... -> dst`` (BFS), or ``None``."""
        if src not in self.functions:
            return None
        prev: dict[str, str] = {}
        frontier = [src]
        seen = {src}
        while frontier:
            nxt: list[str] = []
            for q in frontier:
                for site in self.calls_from(q):
                    if site.callee in seen:
                        continue
                    seen.add(site.callee)
                    prev[site.callee] = q
                    if site.callee == dst:
                        out = [dst]
                        while out[-1] != src:
                            out.append(prev[out[-1]])
                        return list(reversed(out))
                    nxt.append(site.callee)
            frontier = nxt
        return None

    def method_qname(self, class_qname: str, method: str) -> "str | None":
        """Resolve ``method`` on a class, walking project base classes."""
        seen: set[str] = set()
        stack = [class_qname]
        while stack:
            cq = stack.pop()
            if cq in seen:
                continue
            seen.add(cq)
            cls = self.classes.get(cq)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method]
            mod = self.modules.get(cls.module)
            for base in cls.bases:
                resolved = _resolve_class_name(self, mod, base)
                if resolved is not None:
                    stack.append(resolved)
        return None

    def worker_entries(self) -> set[str]:
        """Worker-side entry points: ``Process/Thread(target=fn)`` refs
        plus the ``repro/parallel`` ``*worker*`` naming convention."""
        entries: set[str] = set()
        for site in self.calls:
            if site.kind != "ref" or site.node is None:
                continue
            chain = _attr_chain(site.node.func)
            if chain and chain[-1] in ("Process", "Thread"):
                entries.add(site.callee)
        for qname, fn in self.functions.items():
            if "worker" in fn.name.lower() and "repro/parallel/" in fn.path:
                entries.add(qname)
        return entries


# ---------------------------------------------------------------------------
# Symbol collection (pass 1)
# ---------------------------------------------------------------------------
_MUTABLE_CTORS = ("list", "dict", "set", "bytearray", "deque", "Counter",
                  "defaultdict", "OrderedDict")
_MUTABLE_NP = ("zeros", "empty", "ones", "full", "array", "arange")


def _mutable_ctor_desc(node: ast.AST) -> "str | None":
    """Describe a module-level mutable constructor, or ``None``."""
    if isinstance(node, ast.List):
        return "list literal"
    if isinstance(node, ast.Dict):
        return "dict literal"
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.Call):
        chain = _attr_chain(node.func)
        if chain is None:
            return None
        if len(chain) == 1 and chain[0] in _MUTABLE_CTORS:
            return f"{chain[0]}()"
        if (len(chain) == 2 and chain[0] in ("np", "numpy")
                and chain[1] in _MUTABLE_NP):
            return f"np.{chain[1]}(...)"
    return None


def _register_function(graph: CallGraph, info: ModuleInfo, node,
                       qname: str, class_qname: "str | None",
                       parent_qname: "str | None") -> FunctionInfo:
    decorators = tuple(
        ".".join(chain) for chain in (
            _attr_chain(d.func if isinstance(d, ast.Call) else d)
            for d in node.decorator_list
        ) if chain is not None
    )
    snap = _snapshot_params_of(node)
    fn = FunctionInfo(
        qname=qname,
        module=info.modname,
        path=info.path,
        node=node,
        name=node.name,
        params=tuple(_func_params(node)),
        snapshot_params=None if snap is None else tuple(sorted(snap)),
        class_qname=class_qname,
        parent_qname=parent_qname,
        decorators=decorators,
    )
    graph.functions[qname] = fn
    # Nested defs become their own nodes under <locals>.
    for child in ast.iter_child_nodes(node):
        _walk_nested(graph, info, child, f"{qname}.<locals>", qname)
    return fn


def _walk_nested(graph: CallGraph, info: ModuleInfo, node, prefix: str,
                 parent_qname: str) -> None:
    if isinstance(node, _FUNC_NODES):
        _register_function(graph, info, node, f"{prefix}.{node.name}",
                           class_qname=None, parent_qname=parent_qname)
        return
    if isinstance(node, ast.ClassDef):
        return  # nested classes: out of scope
    for child in ast.iter_child_nodes(node):
        _walk_nested(graph, info, child, prefix, parent_qname)


def _collect_symbols(graph: CallGraph, info: ModuleInfo) -> None:
    # Imports anywhere in the module share one namespace — good enough
    # for this codebase's function-local import convention.
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.imports[alias.asname or alias.name.split(".")[0]] = \
                    alias.name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                info.imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    for node in info.tree.body:
        if isinstance(node, _FUNC_NODES):
            qname = f"{info.modname}.{node.name}"
            info.functions[node.name] = qname
            _register_function(graph, info, node, qname, None, None)
        elif isinstance(node, ast.ClassDef):
            cq = f"{info.modname}.{node.name}"
            info.classes[node.name] = cq
            bases = tuple(
                ".".join(chain) for chain in
                (_attr_chain(b) for b in node.bases) if chain is not None
            )
            cls = ClassInfo(qname=cq, module=info.modname, name=node.name,
                            bases=bases)
            graph.classes[cq] = cls
            for item in node.body:
                if isinstance(item, _FUNC_NODES):
                    mq = f"{cq}.{item.name}"
                    cls.methods[item.name] = mq
                    _register_function(graph, info, item, mq, cq, None)
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            value = node.value
            if isinstance(value, ast.Name):
                info.aliases[name] = value.id
            elif isinstance(value, ast.Dict):
                refs = tuple(
                    v.id for v in value.values if isinstance(v, ast.Name)
                )
                if refs and len(refs) == len(value.values):
                    info.dispatch[name] = refs
            desc = _mutable_ctor_desc(value)
            if desc is not None:
                info.mutable_globals[name] = (
                    node.lineno, node.col_offset, desc
                )


# ---------------------------------------------------------------------------
# Call extraction + resolution (pass 2)
# ---------------------------------------------------------------------------
def _resolve_class_name(graph: CallGraph, info: "ModuleInfo | None",
                        name: str) -> "str | None":
    """Resolve a (possibly dotted) class name inside a module."""
    if info is None:
        return None
    base = name.split(".")[-1]
    if base in info.classes:
        return info.classes[base]
    target = info.imports.get(name) or info.imports.get(base)
    if target and target in graph.classes:
        return target
    return None


def _resolve_name(graph: CallGraph, info: ModuleInfo, fn: FunctionInfo,
                  name: str) -> "list[str]":
    """Candidate function qnames for a bare ``name`` used inside ``fn``."""
    # Nested function defined inside this (or an enclosing) function.
    scope = fn.qname
    while scope:
        candidate = f"{scope}.<locals>.{name}"
        if candidate in graph.functions:
            return [candidate]
        parent = graph.functions.get(scope)
        scope = parent.parent_qname if parent is not None else None
    if name in info.functions:
        return [info.functions[name]]
    if name in info.classes:
        ctor = graph.method_qname(info.classes[name], "__init__")
        return [ctor] if ctor else []
    if name in info.aliases:
        target = info.aliases[name]
        if target in info.functions:
            return [info.functions[target]]
    if name in info.dispatch:
        return [info.functions[v] for v in info.dispatch[name]
                if v in info.functions]
    target = info.imports.get(name)
    if target is not None:
        if target in graph.functions:
            return [target]
        if target in graph.classes:
            ctor = graph.method_qname(target, "__init__")
            return [ctor] if ctor else []
    return []


def _resolve_callee(graph: CallGraph, info: ModuleInfo, fn: FunctionInfo,
                    func: ast.AST) -> "tuple[list[str], bool]":
    """Resolve a call's function expression.

    Returns ``(candidate qnames, bound)`` — ``bound`` is True for
    ``self.m(...)``/``cls.m(...)`` calls whose first parameter slot is
    already filled.
    """
    if isinstance(func, ast.Name):
        return _resolve_name(graph, info, fn, func.id), False
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in ("self", "cls") and fn.class_qname is not None:
                mq = graph.method_qname(fn.class_qname, func.attr)
                return ([mq] if mq else []), True
            # Imported module attribute: mod.f(...)
            target = info.imports.get(base.id)
            if target is not None:
                dotted = f"{target}.{func.attr}"
                if dotted in graph.functions:
                    return [dotted], False
                if dotted in graph.classes:
                    ctor = graph.method_qname(dotted, "__init__")
                    return ([ctor] if ctor else []), False
            # Class attribute: ClassName.method(...) (unbound call).
            if base.id in info.classes:
                mq = graph.method_qname(info.classes[base.id], func.attr)
                return ([mq] if mq else []), False
        return [], False
    if isinstance(func, ast.Subscript):
        # DISPATCH[key](...) — every dict value is a candidate.
        base = func.value
        if isinstance(base, ast.Name) and base.id in info.dispatch:
            return [info.functions[v] for v in info.dispatch[base.id]
                    if v in info.functions], False
    return [], False


def _iter_own_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested functions."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNC_NODES + (ast.Lambda,)):
            continue
        yield child
        yield from _iter_own_nodes(child)


def _extract_calls(graph: CallGraph, info: ModuleInfo,
                   fn: FunctionInfo) -> None:
    for node in _iter_own_nodes(fn.node):
        if not isinstance(node, ast.Call):
            continue
        callees, bound = _resolve_callee(graph, info, fn, node.func)
        for callee in callees:
            graph.calls.append(CallSite(
                caller=fn.qname, callee=callee,
                line=node.lineno, col=node.col_offset,
                kind="call", node=node, bound=bound,
            ))
        # functools.partial(f, ...) — f is reachable (and usually called).
        chain = _attr_chain(node.func)
        is_partial = chain is not None and chain[-1] == "partial"
        # Function-valued arguments (Process(target=fn), map(fn, xs), ...)
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name):
                for ref in _resolve_name(graph, info, fn, arg.id):
                    graph.calls.append(CallSite(
                        caller=fn.qname, callee=ref,
                        line=node.lineno, col=node.col_offset,
                        kind="partial" if is_partial else "ref",
                        node=node,
                    ))


def build_callgraph(sources: "dict[str, ast.Module]") -> CallGraph:
    """Build the project call graph from ``{path: parsed tree}``."""
    graph = CallGraph()
    for path in sorted(sources):
        graph.add_module(path, sources[path])
    graph.finalize()
    return graph
