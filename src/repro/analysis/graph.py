"""Project-graph extraction: modules, imports, classes, and a function IR.

The whole-program passes (rules R11-R14 in :mod:`repro.analysis.passes`)
do not walk raw ASTs.  Each source file is *extracted* once into a
:class:`ModuleFacts` — a small, picklable summary of everything the
interprocedural analyses need:

* the module's **imports** (with their scope: top-level, inside a
  ``TYPE_CHECKING`` block, or deferred into a function body) for the
  layer-conformance pass,
* its **classes** with attribute-type facts (from annotations and
  constructor assignments) for the shared-state pass,
* its **functions**, each compiled to a linear event list over a tiny
  term IR (:class:`Term`) for the taint passes.

Extraction is the only phase that touches ``ast`` nodes; everything
downstream (summaries, fixpoint, findings) works on these facts.  That
is what makes the engine's ``--jobs`` driver possible — worker processes
ship facts, never syntax trees.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from .engine import SourceFile

# ---------------------------------------------------------------------------
# the term IR
# ---------------------------------------------------------------------------
#
# A Term is a tiny, picklable expression tree.  Taint policies interpret
# terms — extraction never decides what is tainted, it only records
# structure (what was called, what was read, how values were combined).


@dataclass(frozen=True, slots=True)
class Const:
    """A literal or otherwise inert expression."""


@dataclass(frozen=True, slots=True)
class NameRef:
    """A read of a local/parameter/global name."""

    name: str


@dataclass(frozen=True, slots=True)
class AttrOf:
    """An attribute read ``base.attr``."""

    base: "Term"
    attr: str


@dataclass(frozen=True, slots=True)
class Callee:
    """Who a call resolves to, as far as extraction can tell.

    ``kind`` is one of:

    * ``"local"`` — a function/class defined in the same module
      (``qualified`` is its in-module qualname);
    * ``"import"`` — a name bound by ``from X import Y``
      (``qualified`` is ``X.Y``);
    * ``"module_attr"`` — ``alias.f(...)`` where ``alias`` is an
      imported module (``qualified`` is ``module.f``);
    * ``"method"`` — ``self.f(...)`` (``qualified`` is ``Class.f``);
    * ``"attr_call"`` — ``obj.f(...)`` on an arbitrary receiver
      (``receiver`` carries the receiver term);
    * ``"name"`` — a bare name the module never defined or imported
      (builtins such as ``id`` land here).
    """

    kind: str
    name: str
    qualified: str | None = None
    receiver: "Term | None" = None


@dataclass(frozen=True, slots=True)
class CallT:
    """A call expression."""

    callee: Callee
    args: tuple["Term", ...]
    line: int
    #: keyword argument names present at the call (seed detection).
    keywords: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class Combine:
    """A structural combination of sub-terms.

    ``op`` names the syntax: ``binop``, ``unary``, ``boolop``,
    ``compare``, ``ifexp``, ``tuple``, ``listset``, ``dict``,
    ``subscript``, ``fstring``, ``starred``, ``await``, ``comp``.
    """

    op: str
    parts: tuple["Term", ...]


@dataclass(frozen=True, slots=True)
class IterOf:
    """The element produced by iterating ``base`` (``for x in base``)."""

    base: "Term"
    setlike: bool


Term = Const | NameRef | AttrOf | CallT | Combine | IterOf

_CONST = Const()


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AssignEv:
    """``targets = value`` (names only; attribute targets become StoreEv)."""

    targets: tuple[str, ...]
    value: Term
    line: int


@dataclass(frozen=True, slots=True)
class ReturnEv:
    """``return value`` (or ``yield value``)."""

    value: Term
    line: int


@dataclass(frozen=True, slots=True)
class StoreEv:
    """A state mutation anchored on an attribute of ``owner``.

    ``kind`` is ``assign`` (``owner.attr = v``), ``augassign``
    (``owner.attr += v``), ``subscript`` (``owner.attr[k] = v`` /
    ``del owner.attr[k]``), or ``mutcall:<name>``
    (``owner.attr.clear()`` and friends).
    """

    owner: Term
    attr: str
    kind: str
    line: int
    value: Term | None = None


Event = AssignEv | ReturnEv | StoreEv


# ---------------------------------------------------------------------------
# facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FunctionFacts:
    """One function (or method, or the module body) in IR form."""

    name: str
    qualname: str  # "<module rel_path>::Class.method" — globally unique
    module: str  # rel_path of the defining module
    class_name: str | None
    params: tuple[str, ...]
    line: int
    events: tuple[Event, ...]
    calls: tuple[CallT, ...]
    #: local/parameter name -> class name, from constructor assignments
    #: and annotations.
    local_types: Mapping[str, str] = field(default_factory=dict)
    #: class named by the return annotation, when recognisable.
    return_type: str | None = None

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_") or (
            self.name.startswith("__") and self.name.endswith("__")
        )


@dataclass(frozen=True, slots=True)
class ClassFacts:
    """One class definition: where it lives and what its attributes are."""

    name: str
    module: str
    line: int
    #: attribute name -> class name (from body annotations and
    #: ``self.x = ClassName(...)`` / ``self.x: ClassName`` in methods).
    attr_types: Mapping[str, str] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class ImportFact:
    """One cross-module import edge."""

    target: str  # dotted module, e.g. "repro.network.graph"
    names: tuple[str, ...]  # imported symbols ("*" for plain `import X`)
    line: int
    scope: str  # "toplevel" | "type_checking" | "deferred"


@dataclass(frozen=True, slots=True)
class ModuleFacts:
    """Everything the whole-program passes know about one file."""

    rel_path: str
    module_name: str  # dotted, e.g. "repro.core.ranking"
    package: str  # first component under repro, e.g. "core"
    is_test: bool
    imports: tuple[ImportFact, ...]
    functions: tuple[FunctionFacts, ...]
    classes: tuple[ClassFacts, ...]


@dataclass(slots=True)
class ProjectGraph:
    """The assembled project: module facts plus cross-module indexes."""

    modules: dict[str, ModuleFacts]  # rel_path -> facts
    functions: dict[str, FunctionFacts] = field(init=False, default_factory=dict)
    classes: dict[str, ClassFacts] = field(init=False, default_factory=dict)
    methods: dict[str, FunctionFacts] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        for facts in self.modules.values():
            for cls in facts.classes:
                # First definition wins; project class names are unique
                # in practice and the passes only key on well-known ones.
                self.classes.setdefault(cls.name, cls)
            for fn in facts.functions:
                self.functions[fn.qualname] = fn
                if fn.class_name is not None:
                    self.methods.setdefault(f"{fn.class_name}.{fn.name}", fn)

    def iter_functions(self) -> Iterator[FunctionFacts]:
        for facts in self.modules.values():
            yield from facts.functions

    def resolve_callee(self, call: CallT, module: ModuleFacts) -> FunctionFacts | None:
        """The :class:`FunctionFacts` a call dispatches to, when known."""
        callee = call.callee
        if callee.kind == "local" and callee.qualified is not None:
            return self.functions.get(f"{module.rel_path}::{callee.qualified}")
        if callee.kind == "method" and callee.qualified is not None:
            return self.functions.get(f"{module.rel_path}::{callee.qualified}")
        if callee.kind == "import" and callee.qualified is not None:
            dotted, _, symbol = callee.qualified.rpartition(".")
            for facts in self.modules.values():
                if facts.module_name == dotted:
                    return self.functions.get(f"{facts.rel_path}::{symbol}")
        return None

    def class_attr_type(self, class_name: str, attr: str) -> str | None:
        cls = self.classes.get(class_name)
        if cls is None:
            return None
        return cls.attr_types.get(attr)


# ---------------------------------------------------------------------------
# module naming
# ---------------------------------------------------------------------------


def module_identity(rel_path: str) -> tuple[str, str]:
    """``(dotted module name, package)`` for an analysis-relative path.

    Real runs are rooted at ``src/repro`` (rel paths like
    ``core/ranking.py``); fixture snippets use full repo-style paths
    (``src/repro/core/example.py``).  Both normalise to
    ``repro.core.<name>`` with package ``core``; top-level modules
    (``intervals.py``, ``__main__.py``) use their stem as the package.
    """
    parts = [p for p in rel_path.split("/") if p]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return "repro", "<root>"
    if parts[0] == "repro":
        parts = parts[1:]
    stem = parts[-1][:-3] if parts and parts[-1].endswith(".py") else (parts[-1] if parts else "")
    dirs = parts[:-1]
    if stem == "__init__":
        dotted = ".".join(["repro", *dirs]) if dirs else "repro"
    else:
        dotted = ".".join(["repro", *dirs, stem]) if stem else "repro"
    package = dirs[0] if dirs else (stem or "<root>")
    return dotted, package


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

_MUTATOR_METHODS = frozenset(
    {
        "clear",
        "pop",
        "popitem",
        "update",
        "setdefault",
        "append",
        "extend",
        "insert",
        "remove",
        "discard",
        "add",
    }
)

_SETLIKE_CALLS = frozenset({"set", "frozenset"})


_VALUE_CONTAINERS = frozenset(
    {"dict", "Dict", "Mapping", "MutableMapping", "defaultdict", "OrderedDict"}
)


def _annotation_class(node: ast.expr | None) -> str | None:
    """The class name an annotation refers to, when recognisable.

    Subscripted containers resolve to their *element* class
    (``dict[str, ResilientEndpoint]`` -> ``ResilientEndpoint``); the
    type-facts consumers pair this with subscript terms, so container
    and element conflate deliberately.
    """
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value.split("|")[0].strip()
        return text.split(".")[-1].strip("'\" ") or None
    if isinstance(node, ast.Subscript):
        inner = node.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            head = node.value
            head_name = head.id if isinstance(head, ast.Name) else None
            if head_name in _VALUE_CONTAINERS:
                return _annotation_class(inner.elts[-1])
            return _annotation_class(inner.elts[0])
        return _annotation_class(inner)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_class(node.left)
    return None


class _ModuleExtractor:
    """Compiles one parsed module into :class:`ModuleFacts`."""

    def __init__(self, source: SourceFile) -> None:
        self.source = source
        self.module_name, self.package = module_identity(source.rel_path)
        self.imports: list[ImportFact] = []
        self.functions: list[FunctionFacts] = []
        self.classes: list[ClassFacts] = []
        #: module alias -> dotted module ("import numpy as np")
        self.module_aliases: dict[str, str] = {}
        #: bare name -> "module.symbol" ("from time import perf_counter")
        self.from_imports: dict[str, str] = {}
        #: names of functions/classes defined at module level
        self.local_defs: set[str] = set()

    def extract(self) -> ModuleFacts:
        tree = self.source.tree
        self._collect_imports(tree)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self.local_defs.add(node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.local_defs.add(node.name)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                self._extract_class(node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(node, class_name=None)
        module_body = [
            stmt
            for stmt in tree.body
            if not isinstance(stmt, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        self.functions.append(
            _FunctionExtractor(self, "<module>", None, [], module_body, 1).extract()
        )
        return ModuleFacts(
            rel_path=self.source.rel_path,
            module_name=self.module_name,
            package=self.package,
            is_test=self.source.is_test,
            imports=tuple(self.imports),
            functions=tuple(self.functions),
            classes=tuple(self.classes),
        )

    # -- imports ----------------------------------------------------------

    def _collect_imports(self, tree: ast.Module) -> None:
        module_parts = self.module_name.split(".")
        is_package = self.source.rel_path.endswith("__init__.py")

        def resolve_relative(level: int, module: str | None) -> str:
            keep = len(module_parts) - level + (1 if is_package else 0)
            base = module_parts[: max(keep, 0)]
            if module:
                base = [*base, module]
            return ".".join(base)

        def record(node: ast.stmt, scope: str) -> None:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name.split(".")[0]] = alias.name
                    self.imports.append(
                        ImportFact(target=alias.name, names=("*",), line=node.lineno, scope=scope)
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    target = resolve_relative(node.level, node.module)
                else:
                    target = node.module or ""
                if not target:
                    return
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = f"{target}.{alias.name}"
                self.imports.append(
                    ImportFact(
                        target=target,
                        names=tuple(alias.name for alias in node.names),
                        line=node.lineno,
                        scope=scope,
                    )
                )

        def walk(body: Sequence[ast.stmt], scope: str) -> None:
            for node in body:
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    record(node, scope)
                elif isinstance(node, ast.If):
                    test = node.test
                    is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
                        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
                    )
                    inner = "type_checking" if is_tc else scope
                    walk(node.body, inner)
                    walk(node.orelse, inner)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    walk(node.body, "deferred")
                elif isinstance(node, ast.ClassDef):
                    walk(node.body, scope)
                elif isinstance(node, (ast.For, ast.While, ast.With, ast.Try)):
                    walk(getattr(node, "body", []), scope)
                    walk(getattr(node, "orelse", []), scope)
                    walk(getattr(node, "finalbody", []), scope)
                    for handler in getattr(node, "handlers", []):
                        walk(handler.body, scope)

        walk(tree.body, "toplevel")

    # -- classes ----------------------------------------------------------

    def _extract_class(self, node: ast.ClassDef) -> None:
        attr_types: dict[str, str] = {}
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                annotated = _annotation_class(stmt.annotation)
                if annotated is not None:
                    attr_types[stmt.target.id] = annotated
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._harvest_self_attr_types(stmt, attr_types)
        self.classes.append(
            ClassFacts(
                name=node.name,
                module=self.source.rel_path,
                line=node.lineno,
                attr_types=attr_types,
            )
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._extract_function(stmt, class_name=node.name)

    def _harvest_self_attr_types(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef, attr_types: dict[str, str]
    ) -> None:
        param_types: dict[str, str] = {}
        for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs):
            annotated = _annotation_class(arg.annotation)
            if annotated is not None:
                param_types[arg.arg] = annotated

        def value_class(value: ast.expr) -> str | None:
            if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
                return value.func.id
            if isinstance(value, ast.Name):
                return param_types.get(value.id)
            if isinstance(value, ast.IfExp):
                # `x if x is not None else Ctor(...)`: either arm may name
                # the class; prefer the concrete constructor.
                return value_class(value.body) or value_class(value.orelse)
            return None

        for node in ast.walk(fn):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(node, ast.AnnAssign):
                target = node.target
                annotated = _annotation_class(node.annotation)
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and annotated is not None
                ):
                    attr_types.setdefault(target.attr, annotated)
                continue
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            if (
                target is not None
                and value is not None
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                inferred = value_class(value)
                if inferred is not None:
                    attr_types.setdefault(target.attr, inferred)

    # -- functions --------------------------------------------------------

    def _extract_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef, class_name: str | None
    ) -> None:
        params = [
            arg.arg
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        ]
        extractor = _FunctionExtractor(
            self, node.name, class_name, params, node.body, node.lineno, node
        )
        self.functions.append(extractor.extract())
        for stmt in node.body:
            for inner in ast.walk(stmt):
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested_params = [
                        arg.arg
                        for arg in (
                            *inner.args.posonlyargs,
                            *inner.args.args,
                            *inner.args.kwonlyargs,
                        )
                    ]
                    nested = _FunctionExtractor(
                        self,
                        f"{node.name}.<locals>.{inner.name}",
                        class_name,
                        nested_params,
                        inner.body,
                        inner.lineno,
                        inner,
                    )
                    self.functions.append(nested.extract())


class _FunctionExtractor:
    """Compiles one function body into events + call sites."""

    def __init__(
        self,
        module: _ModuleExtractor,
        name: str,
        class_name: str | None,
        params: Sequence[str],
        body: Sequence[ast.stmt],
        line: int,
        node: ast.FunctionDef | ast.AsyncFunctionDef | None = None,
    ) -> None:
        self.module = module
        self.name = name
        self.class_name = class_name
        self.params = tuple(params)
        self.body = body
        self.line = line
        self.node = node
        self.events: list[Event] = []
        self.calls: list[CallT] = []
        self.local_types: dict[str, str] = {}
        #: names locally bound to set-typed values (for iteration order)
        self.set_names: set[str] = set()

    def extract(self) -> FunctionFacts:
        return_type: str | None = None
        if self.node is not None:
            args = self.node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                annotated = _annotation_class(arg.annotation)
                if annotated is not None:
                    self.local_types[arg.arg] = annotated
            return_type = _annotation_class(self.node.returns)
        self._walk(self.body)
        prefix = f"{self.class_name}." if self.class_name else ""
        return FunctionFacts(
            name=self.name,
            qualname=f"{self.module.source.rel_path}::{prefix}{self.name}",
            module=self.module.source.rel_path,
            class_name=self.class_name,
            params=self.params,
            line=self.line,
            events=tuple(self.events),
            calls=tuple(self.calls),
            local_types=self.local_types,
            return_type=return_type,
        )

    # -- statement walk ---------------------------------------------------

    def _walk(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._statement(stmt)

    def _statement(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs are extracted separately
        if isinstance(stmt, ast.Assign):
            value = self._term(stmt.value)
            names: list[str] = []
            for target in stmt.targets:
                names.extend(self._assign_target(target, value, stmt.lineno, stmt.value))
            if names:
                self.events.append(AssignEv(tuple(names), value, stmt.lineno))
        elif isinstance(stmt, ast.AnnAssign):
            value = self._term(stmt.value) if stmt.value is not None else _CONST
            annotated = _annotation_class(stmt.annotation)
            if isinstance(stmt.target, ast.Name):
                if annotated is not None:
                    self.local_types.setdefault(stmt.target.id, annotated)
                if stmt.value is not None:
                    self._note_value_type(stmt.target.id, stmt.value)
                    self.events.append(AssignEv((stmt.target.id,), value, stmt.lineno))
            elif stmt.value is not None:
                for _ in self._assign_target(stmt.target, value, stmt.lineno, stmt.value):
                    pass
        elif isinstance(stmt, ast.AugAssign):
            rhs = self._term(stmt.value)
            if isinstance(stmt.target, ast.Name):
                combined = Combine("binop", (NameRef(stmt.target.id), rhs))
                self.events.append(AssignEv((stmt.target.id,), combined, stmt.lineno))
            elif isinstance(stmt.target, ast.Attribute):
                self.events.append(
                    StoreEv(
                        owner=self._term(stmt.target.value),
                        attr=stmt.target.attr,
                        kind="augassign",
                        line=stmt.lineno,
                        value=rhs,
                    )
                )
            elif isinstance(stmt.target, ast.Subscript):
                self._subscript_store(stmt.target, rhs, stmt.lineno)
        elif isinstance(stmt, (ast.Return,)):
            if stmt.value is not None:
                self.events.append(ReturnEv(self._term(stmt.value), stmt.lineno))
        elif isinstance(stmt, ast.Expr):
            term = self._term(stmt.value)
            if isinstance(stmt.value, (ast.Yield, ast.YieldFrom)) and term is not _CONST:
                self.events.append(ReturnEv(term, stmt.lineno))
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    self._subscript_store(target, None, stmt.lineno)
        elif isinstance(stmt, ast.For):
            iter_term = self._term(stmt.iter)
            setlike = self._is_setlike(stmt.iter)
            element = IterOf(iter_term, setlike)
            for name in self._assign_target(stmt.target, element, stmt.lineno, None):
                self.events.append(AssignEv((name,), element, stmt.lineno))
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._term(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._term(stmt.test)
            self._walk(stmt.body)
            self._walk(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                term = self._term(item.context_expr)
                if item.optional_vars is not None:
                    for name in self._assign_target(
                        item.optional_vars, term, stmt.lineno, item.context_expr
                    ):
                        self.events.append(AssignEv((name,), term, stmt.lineno))
            self._walk(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._walk(stmt.body)
            for handler in stmt.handlers:
                self._walk(handler.body)
            self._walk(stmt.orelse)
            self._walk(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._term(child)

    def _assign_target(
        self,
        target: ast.expr,
        value: Term,
        line: int,
        value_node: ast.expr | None,
    ) -> list[str]:
        """Record attribute/subscript stores; return plain name targets."""
        names: list[str] = []
        if isinstance(target, ast.Name):
            names.append(target.id)
            if value_node is not None:
                self._note_value_type(target.id, value_node)
                if self._is_setlike(value_node):
                    self.set_names.add(target.id)
        elif isinstance(target, ast.Attribute):
            self.events.append(
                StoreEv(
                    owner=self._term(target.value),
                    attr=target.attr,
                    kind="assign",
                    line=line,
                    value=value,
                )
            )
        elif isinstance(target, ast.Subscript):
            self._subscript_store(target, value, line)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                names.extend(self._assign_target(element, value, line, None))
        elif isinstance(target, ast.Starred):
            names.extend(self._assign_target(target.value, value, line, None))
        return names

    def _subscript_store(self, target: ast.Subscript, value: Term | None, line: int) -> None:
        container = target.value
        if isinstance(container, ast.Attribute):
            self.events.append(
                StoreEv(
                    owner=self._term(container.value),
                    attr=container.attr,
                    kind="subscript",
                    line=line,
                    value=value,
                )
            )

    def _note_value_type(self, name: str, value: ast.expr) -> None:
        if isinstance(value, ast.Call) and isinstance(value.func, ast.Name):
            self.local_types.setdefault(name, value.func.id)
        elif isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute):
            self.local_types.setdefault(name, value.func.attr)

    def _is_setlike(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _SETLIKE_CALLS
        ):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.set_names or self.local_types.get(node.id) in _SETLIKE_CALLS
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitAnd, ast.BitOr, ast.Sub)):
            return self._is_setlike(node.left) or self._is_setlike(node.right)
        return False

    # -- expression -> term ----------------------------------------------

    def _term(self, node: ast.expr | None) -> Term:
        if node is None:
            return _CONST
        if isinstance(node, ast.Name):
            return NameRef(node.id)
        if isinstance(node, ast.Attribute):
            return AttrOf(self._term(node.value), node.attr)
        if isinstance(node, ast.Call):
            return self._call_term(node)
        if isinstance(node, ast.BinOp):
            return Combine("binop", (self._term(node.left), self._term(node.right)))
        if isinstance(node, ast.UnaryOp):
            return Combine("unary", (self._term(node.operand),))
        if isinstance(node, ast.BoolOp):
            return Combine("boolop", tuple(self._term(value) for value in node.values))
        if isinstance(node, ast.Compare):
            return Combine(
                "compare",
                (self._term(node.left), *(self._term(cmp) for cmp in node.comparators)),
            )
        if isinstance(node, ast.IfExp):
            self._term(node.test)
            return Combine("ifexp", (self._term(node.body), self._term(node.orelse)))
        if isinstance(node, (ast.Tuple,)):
            return Combine("tuple", tuple(self._term(elt) for elt in node.elts))
        if isinstance(node, (ast.List, ast.Set)):
            return Combine("listset", tuple(self._term(elt) for elt in node.elts))
        if isinstance(node, ast.Dict):
            parts = tuple(
                self._term(value) for value in (*node.keys, *node.values) if value is not None
            )
            return Combine("dict", parts)
        if isinstance(node, ast.Subscript):
            self._term(node.slice)
            return Combine("subscript", (self._term(node.value),))
        if isinstance(node, ast.JoinedStr):
            parts = tuple(
                self._term(value.value)
                for value in node.values
                if isinstance(value, ast.FormattedValue)
            )
            return Combine("fstring", parts)
        if isinstance(node, ast.Starred):
            return Combine("starred", (self._term(node.value),))
        if isinstance(node, ast.Await):
            return Combine("await", (self._term(node.value),))
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return self._term(node.value) if node.value is not None else _CONST
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._comp_term(node, (node.elt,))
        if isinstance(node, ast.DictComp):
            return self._comp_term(node, (node.key, node.value))
        if isinstance(node, ast.NamedExpr):
            term = self._term(node.value)
            if isinstance(node.target, ast.Name):
                self.events.append(AssignEv((node.target.id,), term, node.lineno))
            return term
        if isinstance(node, ast.Lambda):
            return _CONST
        return _CONST

    def _comp_term(
        self,
        node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp,
        results: tuple[ast.expr, ...],
    ) -> Term:
        parts: list[Term] = []
        for generator in node.generators:
            iter_term = self._term(generator.iter)
            element = IterOf(iter_term, self._is_setlike(generator.iter))
            for name in self._assign_target(generator.target, element, node.lineno, None):
                self.events.append(AssignEv((name,), element, node.lineno))
            parts.append(element)
        for result in results:
            parts.append(self._term(result))
        return Combine("comp", tuple(parts))

    def _call_term(self, node: ast.Call) -> CallT:
        func = node.func
        callee: Callee
        if isinstance(func, ast.Name):
            name = func.id
            if name in self.module.local_defs:
                callee = Callee(kind="local", name=name, qualified=name)
            elif name in self.module.from_imports:
                callee = Callee(
                    kind="import", name=name, qualified=self.module.from_imports[name]
                )
            else:
                callee = Callee(kind="name", name=name)
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id == "self" and self.class_name:
                callee = Callee(
                    kind="method",
                    name=func.attr,
                    qualified=f"{self.class_name}.{func.attr}",
                )
            elif (
                isinstance(receiver, ast.Name)
                and receiver.id in self.module.module_aliases
            ):
                dotted = self.module.module_aliases[receiver.id]
                callee = Callee(
                    kind="module_attr", name=func.attr, qualified=f"{dotted}.{func.attr}"
                )
            elif (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id in self.module.module_aliases
            ):
                # two-level module attribute, e.g. np.random.default_rng
                dotted = self.module.module_aliases[receiver.value.id]
                callee = Callee(
                    kind="module_attr",
                    name=func.attr,
                    qualified=f"{dotted}.{receiver.attr}.{func.attr}",
                )
            else:
                callee = Callee(
                    kind="attr_call", name=func.attr, receiver=self._term(receiver)
                )
        else:
            self._term(func)
            callee = Callee(kind="name", name="<dynamic>")
        args = tuple(self._term(arg) for arg in node.args)
        keywords = tuple(kw.arg for kw in node.keywords if kw.arg is not None)
        for kw in node.keywords:
            args = (*args, self._term(kw.value))
        call = CallT(callee=callee, args=args, line=node.lineno, keywords=keywords)
        self.calls.append(call)
        return call


def extract_module(source: SourceFile) -> ModuleFacts:
    """Compile one parsed file into facts."""
    return _ModuleExtractor(source).extract()


def build_graph(facts: Sequence[ModuleFacts]) -> ProjectGraph:
    """Assemble extracted modules into one :class:`ProjectGraph`."""
    return ProjectGraph(modules={f.rel_path: f for f in facts})
