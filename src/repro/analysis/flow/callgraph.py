"""Module-level call-graph construction for the interprocedural flow pass.

The syntactic FP001–FP008 rules see one file at a time; the hazards PR 5
introduced (pool workers, shared-memory views, env-driven cutovers) only
exist *across* files: a nondeterministic source three calls away from
``AdaptiveReducer.reduce`` breaks the same guarantee as one inline.  This
module parses every ``.py`` file under the analysis roots once and lowers
them to a call graph the dataflow pass can walk to fixpoint.

Resolution is deliberately conservative-but-useful, in this order:

* plain names through function-local bindings, module symbols (including
  ``from x import y`` chains and package ``__init__`` re-exports), then
  builtins;
* ``self.method()`` / ``cls.method()`` through the enclosing class and its
  analyzed bases;
* ``NAME.method()`` where a module-level ``NAME = Class(...)`` binds an
  instance of an analyzed class (e.g. each C kernel's loader object);
* ``self.attr.method()`` and ``obj.method()`` through *attribute/variable
  typing*: ``__init__`` parameter annotations (``comm: SimComm``),
  constructor assignments (``self.policy = AnalyticPolicy()``) and return
  annotations of analyzed functions (``get_pool(...) -> WorkerPool``);
* ``functools.partial(fn, ...)`` peels to ``fn``;
* the pool indirection table: ``map_parallel(fn, ...)``, ``pool.map(fn,
  ...)``, ``executor.submit(fn, ...)`` and ``ProcessPoolExecutor(...,
  initializer=fn)`` all add a ``pool`` edge to ``fn`` — the callee runs in a
  *worker process*, which is what the FP010–FP012 hazard rules key on.

Unresolvable callees (NumPy internals, computed attributes) simply add no
edge; sources are detected syntactically in every function, so an
unresolved call can shorten a reported chain but never hide a source.

Edges are one of three kinds: ``call`` (direct invocation), ``ref`` (a
function object escapes into the callee's closure — nested defs, lambdas,
``partial``, callbacks), and ``pool`` (invoked inside a worker process).
All three propagate taint; only ``pool`` changes the concurrency domain.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutils import dotted_name

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "CallEdge",
    "CallGraph",
    "build_callgraph",
    "module_name_for",
]

#: callables that dispatch their first argument into a pool worker
_POOL_DISPATCH_NAMES = {"map_parallel"}
_POOL_DISPATCH_ATTRS = {"map", "submit"}
#: executor constructors whose ``initializer=`` runs in every worker
_EXECUTOR_CTORS = {"ProcessPoolExecutor", "ThreadPoolExecutor"}
#: container constructors whose module-level result is mutable shared state
_MUTABLE_CTORS = {
    "dict", "list", "set", "OrderedDict", "defaultdict", "Counter", "deque",
    "collections.OrderedDict", "collections.defaultdict",
    "collections.Counter", "collections.deque",
}
#: method names that mutate their receiver in place
MUTATOR_METHODS = {
    "append", "extend", "insert", "add", "update", "pop", "popitem",
    "remove", "discard", "clear", "setdefault", "move_to_end", "sort",
    "fill", "put",
}


@dataclass
class FunctionInfo:
    """One analyzed function, method, nested def or lambda."""

    qname: str  # "pkg.mod:Class.method" / "pkg.mod:fn" / "...<lambda>@12"
    module: str
    name: str  # qualified path inside the module
    node: ast.AST
    path: str  # display path of the defining file
    lineno: int
    class_qname: Optional[str] = None  # owning class for methods
    decorators: Tuple[str, ...] = ()
    is_lambda: bool = False

    @property
    def short(self) -> str:
        return f"{self.module}:{self.name}"


@dataclass
class ClassInfo:
    """One analyzed class: methods, bases, and inferred attribute types."""

    qname: str  # "pkg.mod:Class"
    module: str
    name: str
    bases: Tuple[str, ...] = ()  # raw dotted names, resolved lazily
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qname
    attr_types: Dict[str, str] = field(default_factory=dict)  # attr -> class qname
    lock_attrs: Set[str] = field(default_factory=set)  # threading.Lock attrs


@dataclass
class ModuleInfo:
    """One parsed module plus its symbol table."""

    name: str
    path: str
    source: str
    tree: ast.Module
    #: name -> ("func"|"class"|"module"|"instance"|"external", target)
    symbols: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: module-level names bound to mutable containers
    mutable_globals: Set[str] = field(default_factory=set)


@dataclass(frozen=True)
class CallEdge:
    """One resolved edge; ``kind`` is ``"call"``, ``"ref"`` or ``"pool"``."""

    caller: str
    callee: str
    kind: str
    lineno: int


def module_name_for(path: Path) -> str:
    """Dotted module name derived by walking up through ``__init__.py``."""
    path = Path(path)
    parts: List[str] = []
    d = path.parent
    while (d / "__init__.py").exists() and d.name:
        parts.insert(0, d.name)
        d = d.parent
    if path.stem != "__init__":
        parts.append(path.stem)
    return ".".join(parts) if parts else path.stem


class CallGraph:
    """The whole-program graph the dataflow pass walks."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.edges: List[CallEdge] = []
        #: functions registered to run in workers via ``initializer=`` or
        #: :func:`repro.util.pool.register_worker_state` factories
        self.registered_worker_init: Set[str] = set()
        #: callee qnames of every ``pool``-kind edge
        self.pool_targets: Set[str] = set()
        self._out: Dict[str, List[CallEdge]] = {}

    # -- graph accessors ------------------------------------------------------
    def add_edge(self, edge: CallEdge) -> None:
        self.edges.append(edge)
        self._out.setdefault(edge.caller, []).append(edge)
        if edge.kind == "pool":
            self.pool_targets.add(edge.callee)

    def out_edges(self, qname: str) -> List[CallEdge]:
        return self._out.get(qname, [])

    def resolve_method(self, class_qname: str, method: str) -> Optional[str]:
        """Look ``method`` up on a class, then on its analyzed bases."""
        seen: Set[str] = set()
        stack = [class_qname]
        while stack:
            cq = stack.pop(0)
            if cq in seen:
                continue
            seen.add(cq)
            info = self.classes.get(cq)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            mod = self.modules.get(info.module)
            for base in info.bases:
                target = _resolve_symbol_path(self, mod, base) if mod else None
                if target and target[0] == "class":
                    stack.append(target[1])
        return None

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _display(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


# -- pass 1: modules, defs, imports --------------------------------------------


def _collect_module(graph: CallGraph, path: Path) -> Optional[ModuleInfo]:
    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError):
        return None  # the syntactic engine reports parse errors (FP000)
    name = module_name_for(path)
    mod = ModuleInfo(name=name, path=_display(path), source=source, tree=tree)
    graph.modules[name] = mod
    _collect_defs(graph, mod, tree, prefix="", class_qname=None)
    _collect_imports(mod, tree)
    _collect_module_globals(graph, mod, tree)
    return mod


def _collect_defs(
    graph: CallGraph,
    mod: ModuleInfo,
    node: ast.AST,
    prefix: str,
    class_qname: Optional[str],
) -> None:
    """Register every function/class defined (at any depth) in ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}{child.name}"
            fq = f"{mod.name}:{qual}"
            info = FunctionInfo(
                qname=fq,
                module=mod.name,
                name=qual,
                node=child,
                path=mod.path,
                lineno=child.lineno,
                class_qname=class_qname,
                decorators=tuple(
                    d for d in (dotted_name(dec) for dec in child.decorator_list) if d
                ),
            )
            graph.functions[fq] = info
            if class_qname is not None:
                graph.classes[class_qname].methods[child.name] = fq
            elif not prefix:
                mod.symbols.setdefault(child.name, ("func", fq))
            _collect_defs(graph, mod, child, prefix=f"{qual}.", class_qname=None)
        elif isinstance(child, ast.ClassDef):
            qual = f"{prefix}{child.name}"
            cq = f"{mod.name}:{qual}"
            graph.classes[cq] = ClassInfo(
                qname=cq,
                module=mod.name,
                name=qual,
                bases=tuple(
                    b for b in (dotted_name(base) for base in child.bases) if b
                ),
            )
            if not prefix:
                mod.symbols.setdefault(child.name, ("class", cq))
            _collect_defs(graph, mod, child, prefix=f"{qual}.", class_qname=cq)
        else:
            _collect_defs(graph, mod, child, prefix=prefix, class_qname=class_qname)


def _collect_imports(mod: ModuleInfo, tree: ast.Module) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                mod.symbols[bound] = ("module", target)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                pkg_parts = mod.name.split(".")
                # inside pkg/__init__.py the module name IS the package
                if not mod.path.endswith("__init__.py"):
                    pkg_parts = pkg_parts[:-1]
                anchor = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                mod.symbols[bound] = ("import_from", f"{base}.{alias.name}")


def _collect_module_globals(graph: CallGraph, mod: ModuleInfo, tree: ast.Module) -> None:
    """Module-level bindings: mutable containers, instances, aliases."""
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            if _is_mutable_container(value):
                mod.mutable_globals.add(target.id)
            elif isinstance(value, ast.Call):
                mod.symbols.setdefault(target.id, ("callresult", _call_repr(value)))
            elif isinstance(value, ast.Lambda):
                mod.symbols.setdefault(
                    target.id, ("func", f"{mod.name}:<lambda>@{value.lineno}")
                )
            elif isinstance(value, ast.Name):
                existing = mod.symbols.get(value.id)
                if existing:
                    mod.symbols.setdefault(target.id, existing)


def _is_mutable_container(node: ast.expr) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in _MUTABLE_CTORS
    return False


def _call_repr(node: ast.Call) -> str:
    return dotted_name(node.func) or "<computed>"


# -- pass 2: symbol-chain resolution -------------------------------------------


def _resolve_import_chains(graph: CallGraph) -> None:
    """Resolve ``from x import y`` through analyzed modules (re-exports).

    Package ``__init__`` files that re-export (``from pkg.mod import fn``)
    chain; a few iterations reach a fixed point for any sane import depth.
    """
    for _ in range(6):
        changed = False
        for mod in graph.modules.values():
            for name, (kind, target) in list(mod.symbols.items()):
                if kind != "import_from":
                    continue
                resolved = _resolve_dotted(graph, target)
                if resolved is not None and resolved[0] != "import_from":
                    mod.symbols[name] = resolved
                    changed = True
        if not changed:
            break
    # anything still unresolved is external
    for mod in graph.modules.values():
        for name, (kind, target) in list(mod.symbols.items()):
            if kind == "import_from":
                mod.symbols[name] = ("external", target)


def _resolve_dotted(graph: CallGraph, dotted: str) -> Optional[Tuple[str, str]]:
    """Resolve ``pkg.mod.sym`` against the analyzed module set."""
    if dotted in graph.modules:
        return ("module", dotted)
    if "." not in dotted:
        return None
    parent, leaf = dotted.rsplit(".", 1)
    mod = graph.modules.get(parent)
    if mod is not None:
        sym = mod.symbols.get(leaf)
        if sym is not None:
            return sym
        fq = f"{parent}:{leaf}"
        if fq in graph.functions:
            return ("func", fq)
        if fq in graph.classes:
            return ("class", fq)
        return None
    # maybe pkg.mod.Class.method style — resolve the class first
    resolved = _resolve_dotted(graph, parent)
    if resolved and resolved[0] == "class":
        method = graph.classes[resolved[1]].methods.get(leaf)
        if method:
            return ("func", method)
    return None


def _resolve_symbol_path(
    graph: CallGraph, mod: Optional[ModuleInfo], dotted: str
) -> Optional[Tuple[str, str]]:
    """Resolve a dotted name as seen from inside ``mod``."""
    if mod is None:
        return None
    parts = dotted.split(".")
    sym = mod.symbols.get(parts[0])
    if sym is None:
        # fall back: a fully-qualified analyzed path used without import
        return _resolve_dotted(graph, dotted)
    kind, target = sym
    for attr in parts[1:]:
        if kind == "module":
            nxt = _resolve_dotted(graph, f"{target}.{attr}")
            if nxt is None:
                return ("external", f"{target}.{attr}")
            kind, target = nxt
        elif kind == "class":
            method = graph.resolve_method(target, attr)
            if method is None:
                return None
            kind, target = "func", method
        elif kind == "instance":
            method = graph.resolve_method(target, attr)
            if method is None:
                return None
            kind, target = "func", method
        elif kind == "external":
            target = f"{target}.{attr}"
        else:
            return None
    return (kind, target)


def _type_module_instances(graph: CallGraph) -> None:
    """Module-level ``NAME = Class(...)`` binds an instance of that class."""
    for mod in graph.modules.values():
        for name, (kind, target) in list(mod.symbols.items()):
            if kind == "callresult":
                ctor = _resolve_symbol_path(graph, mod, target)
                if ctor is not None and ctor[0] == "class":
                    mod.symbols[name] = ("instance", ctor[1])


# -- pass 3: class attribute typing --------------------------------------------

_ANNOT_SPLIT = ("Optional[", "]", '"', "'", "|", ",", " ")


def _annotation_class(graph: CallGraph, mod: ModuleInfo, annotation) -> Optional[str]:
    """Best-effort: the analyzed class an annotation refers to, if any."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        text = annotation.value
    else:
        name = dotted_name(annotation)
        if name is None:
            if isinstance(annotation, ast.Subscript):
                return _annotation_class(graph, mod, annotation.value)
            return None
        text = name
    for chunk in _split_annotation(text):
        resolved = _resolve_symbol_path(graph, mod, chunk)
        if resolved and resolved[0] == "class":
            return resolved[1]
    return None


def _split_annotation(text: str) -> List[str]:
    for tok in _ANNOT_SPLIT:
        text = text.replace(tok, " " if tok in ('"', "'", "|", ",", " ") else " ")
    return [t for t in text.split() if t and t not in {"None", "Optional"}]


def _infer_attr_types(graph: CallGraph) -> None:
    for cls in graph.classes.values():
        mod = graph.modules.get(cls.module)
        init_fq = cls.methods.get("__init__")
        if mod is None or init_fq is None:
            continue
        init = graph.functions[init_fq].node
        assert isinstance(init, (ast.FunctionDef, ast.AsyncFunctionDef))
        param_types: Dict[str, str] = {}
        for arg in list(init.args.args) + list(init.args.kwonlyargs):
            cq = _annotation_class(graph, mod, arg.annotation)
            if cq:
                param_types[arg.arg] = cq
        for node in ast.walk(init):
            target = None
            value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if (
                not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            attr = target.attr
            if isinstance(node, ast.AnnAssign):
                cq = _annotation_class(graph, mod, node.annotation)
                if cq:
                    cls.attr_types[attr] = cq
            if isinstance(value, ast.Name) and value.id in param_types:
                cls.attr_types[attr] = param_types[value.id]
            elif isinstance(value, ast.Call):
                name = dotted_name(value.func)
                if name in ("threading.Lock", "threading.RLock", "Lock", "RLock"):
                    cls.lock_attrs.add(attr)
                    continue
                resolved = _resolve_symbol_path(graph, mod, name) if name else None
                if resolved and resolved[0] == "class":
                    cls.attr_types[attr] = resolved[1]


# -- pass 4: call/ref/pool edges -----------------------------------------------


class _FunctionScanner:
    """Extract edges from one function body (nested defs excluded)."""

    def __init__(self, graph: CallGraph, mod: ModuleInfo, fn: FunctionInfo) -> None:
        self.graph = graph
        self.mod = mod
        self.fn = fn
        self.env: Dict[str, Tuple[str, str]] = {}  # local name -> symbol
        self._lambda_by_node: Dict[ast.AST, str] = {}

    # every statement/expression directly owned by this function
    def own_nodes(self):
        return iter_own_nodes(self.fn.node)

    def scan(self) -> None:
        node = self.fn.node
        # nested defs and lambdas: ref edges (closures escape into callers)
        for child in iter_own_children_defs(node):
            if isinstance(child, ast.Lambda):
                fq = self._lambda_qname(child)
                self._lambda_by_node[child] = fq
                self.graph.add_edge(
                    CallEdge(self.fn.qname, fq, "ref", child.lineno)
                )
            else:
                fq = f"{self.mod.name}:{self.fn.name}.{child.name}"
                if fq in self.graph.functions:
                    self.env[child.name] = ("func", fq)
                    self.graph.add_edge(
                        CallEdge(self.fn.qname, fq, "ref", child.lineno)
                    )
        self._prepass_locals()
        for sub in self.own_nodes():
            if isinstance(sub, ast.Call):
                self._scan_call(sub)

    def _lambda_qname(self, node: ast.Lambda) -> str:
        fq = f"{self.mod.name}:{self.fn.name}.<lambda>@{node.lineno}"
        if fq not in self.graph.functions:
            self.graph.functions[fq] = FunctionInfo(
                qname=fq,
                module=self.mod.name,
                name=f"{self.fn.name}.<lambda>@{node.lineno}",
                node=node,
                path=self.mod.path,
                lineno=node.lineno,
                is_lambda=True,
            )
        return fq

    def _prepass_locals(self) -> None:
        """Bind simple local assignments: lambdas, aliases, typed instances."""
        for sub in self.own_nodes():
            if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                continue
            target = sub.targets[0]
            if not isinstance(target, ast.Name):
                continue
            value = sub.value
            if isinstance(value, ast.Lambda):
                self.env[target.id] = ("func", self._lambda_qname(value))
            elif isinstance(value, ast.Name):
                sym = self._lookup(value.id)
                if sym:
                    self.env[target.id] = sym
            elif isinstance(value, ast.Call):
                resolved = self._resolve_callee(value)
                if resolved is None:
                    continue
                kind, fq = resolved
                if kind == "class":
                    self.env[target.id] = ("instance", fq)
                elif kind == "func":
                    ret = self._return_class(fq)
                    if ret:
                        self.env[target.id] = ("instance", ret)

    def _return_class(self, fn_fq: str) -> Optional[str]:
        info = self.graph.functions.get(fn_fq)
        if info is None or not isinstance(
            info.node, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            return None
        owner = self.graph.modules.get(info.module)
        if owner is None:
            return None
        return _annotation_class(self.graph, owner, info.node.returns)

    def _lookup(self, name: str) -> Optional[Tuple[str, str]]:
        sym = self.env.get(name)
        if sym is not None:
            return sym
        return self.mod.symbols.get(name)

    def _resolve_callee(self, call: ast.Call) -> Optional[Tuple[str, str]]:
        func = call.func
        if isinstance(func, ast.Lambda):
            return ("func", self._lambda_qname(func))
        name = dotted_name(func)
        if name is None:
            return None
        parts = name.split(".")
        head = parts[0]
        if head in ("self", "cls") and self.fn.class_qname is not None:
            return self._resolve_self_chain(parts[1:])
        sym = self._lookup(head)
        if sym is None:
            return _resolve_dotted(self.graph, name)
        kind, target = sym
        if len(parts) == 1:
            return sym
        return self._walk_chain(kind, target, parts[1:])

    def _resolve_self_chain(self, attrs: Sequence[str]) -> Optional[Tuple[str, str]]:
        if not attrs or self.fn.class_qname is None:
            return None
        cls = self.graph.classes.get(self.fn.class_qname)
        if cls is None:
            return None
        method = self.graph.resolve_method(cls.qname, attrs[0])
        if method is not None and len(attrs) == 1:
            return ("func", method)
        attr_cls = cls.attr_types.get(attrs[0])
        if attr_cls is not None and len(attrs) >= 2:
            return self._walk_chain("instance", attr_cls, attrs[1:])
        return None

    def _walk_chain(
        self, kind: str, target: str, attrs: Sequence[str]
    ) -> Optional[Tuple[str, str]]:
        for attr in attrs:
            if kind == "module":
                nxt = _resolve_dotted(self.graph, f"{target}.{attr}")
                if nxt is None:
                    return ("external", f"{target}.{attr}")
                kind, target = nxt
            elif kind in ("class", "instance"):
                method = self.graph.resolve_method(target, attr)
                if method is None:
                    cls = self.graph.classes.get(target)
                    attr_cls = cls.attr_types.get(attr) if cls else None
                    if attr_cls is None:
                        return None
                    kind, target = "instance", attr_cls
                else:
                    kind, target = "func", method
            elif kind == "external":
                target = f"{target}.{attr}"
            elif kind == "func":
                return None
            else:
                return None
        return (kind, target)

    def _arg_function(self, node: ast.expr) -> Optional[str]:
        """Resolve a call argument to a function qname (peeling partial)."""
        if isinstance(node, ast.Lambda):
            return self._lambda_qname(node)
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("functools.partial", "partial") and node.args:
                return self._arg_function(node.args[0])
            return None
        name = dotted_name(node)
        if name is None:
            return None
        resolved = (
            self._resolve_self_chain(name.split(".")[1:])
            if name.split(".")[0] in ("self", "cls")
            else None
        )
        if resolved is None:
            sym = self._lookup(name.split(".")[0])
            if sym is None:
                return None
            parts = name.split(".")
            resolved = sym if len(parts) == 1 else self._walk_chain(sym[0], sym[1], parts[1:])
        if resolved and resolved[0] == "func":
            return resolved[1]
        return None

    def _scan_call(self, call: ast.Call) -> None:
        lineno = call.lineno
        callee_name = dotted_name(call.func) or ""
        resolved = self._resolve_callee(call)
        if resolved is not None and resolved[0] == "func":
            self.graph.add_edge(CallEdge(self.fn.qname, resolved[1], "call", lineno))
        elif resolved is not None and resolved[0] == "class":
            init = self.graph.resolve_method(resolved[1], "__init__")
            if init:
                self.graph.add_edge(CallEdge(self.fn.qname, init, "call", lineno))

        # functools.partial / callbacks: the wrapped function escapes
        if callee_name in ("functools.partial", "partial", "atexit.register"):
            for arg in call.args[:1]:
                fq = self._arg_function(arg)
                if fq:
                    self.graph.add_edge(CallEdge(self.fn.qname, fq, "ref", lineno))
            return

        # pool indirection: first argument runs in a worker process
        leaf = callee_name.split(".")[-1]
        is_pool_call = leaf in _POOL_DISPATCH_NAMES or (
            isinstance(call.func, ast.Attribute) and call.func.attr in _POOL_DISPATCH_ATTRS
        )
        if is_pool_call and call.args:
            fq = self._arg_function(call.args[0])
            if fq:
                self.graph.add_edge(CallEdge(self.fn.qname, fq, "pool", lineno))
        if leaf in _EXECUTOR_CTORS:
            for kw in call.keywords:
                if kw.arg == "initializer":
                    fq = self._arg_function(kw.value)
                    if fq:
                        self.graph.add_edge(
                            CallEdge(self.fn.qname, fq, "pool", lineno)
                        )
                        self.graph.registered_worker_init.add(fq)
        if leaf == "register_worker_state" and len(call.args) >= 2:
            fq = self._arg_function(call.args[1])
            if fq:
                self.graph.registered_worker_init.add(fq)
                self.graph.add_edge(CallEdge(self.fn.qname, fq, "pool", lineno))


def _scan_module_registrations(graph: CallGraph, mod: ModuleInfo) -> None:
    """Record ``register_worker_state(name, factory)`` calls at module level.

    The protocol (:func:`repro.util.pool.register_worker_state`) says to
    register at *import time*, which is module-level code no function scanner
    owns — so the registration set is collected here, resolving the factory
    through the module symbol table (peeling ``functools.partial``).
    """
    for node in iter_own_nodes(mod.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func) or ""
        if name.split(".")[-1] != "register_worker_state" or len(node.args) < 2:
            continue
        factory = node.args[1]
        while (
            isinstance(factory, ast.Call)
            and (dotted_name(factory.func) or "").split(".")[-1] == "partial"
            and factory.args
        ):
            factory = factory.args[0]
        target = dotted_name(factory)
        if target is None:
            continue
        resolved = _resolve_symbol_path(graph, mod, target)
        if resolved and resolved[0] == "func":
            graph.registered_worker_init.add(resolved[1])
            graph.pool_targets.add(resolved[1])


def iter_own_children_defs(node: ast.AST):
    """Nested function/lambda nodes directly owned by ``node`` (not deeper)."""
    for sub in iter_own_nodes(node, include_defs=True):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield sub


def iter_own_nodes(node: ast.AST, include_defs: bool = False):
    """Walk a function body without descending into nested function bodies."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        sub = stack.pop()
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if include_defs:
                yield sub
            continue
        yield sub
        stack.extend(ast.iter_child_nodes(sub))


def build_callgraph(files: Sequence[Path]) -> CallGraph:
    """Parse ``files`` and lower them to a resolved call graph."""
    graph = CallGraph()
    for path in sorted(Path(f) for f in files):
        _collect_module(graph, path)
    _resolve_import_chains(graph)
    _type_module_instances(graph)
    _infer_attr_types(graph)
    for name in sorted(graph.modules):
        _scan_module_registrations(graph, graph.modules[name])
    for fq in sorted(graph.functions):
        fn = graph.functions[fq]
        mod = graph.modules.get(fn.module)
        if mod is not None:
            _FunctionScanner(graph, mod, fn).scan()
    return graph
