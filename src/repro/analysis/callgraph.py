"""Project-wide call graph for the whole-program analyses.

The leaf rules in :mod:`repro.analysis.rules` see one file at a time, so
they can only flag a wall-clock read that is *lexically* inside a scoped
package.  The whole-program analyses (:mod:`repro.analysis.purity`,
:mod:`repro.analysis.seedflow`) instead ask reachability questions —
"can ``Simulation.run`` transitively reach ``time.time()``?" — and for
that they need a call graph over every module the pass indexes.

The graph is built in two phases:

* **extraction** (:func:`extract_module`) walks one parsed file and
  produces a :class:`ModuleSummary`: functions with their call sites,
  taint sinks, callable references and local type hints; classes with
  bases, methods and attribute types; the import alias table.
  :func:`repro.analysis.project.analyze_project` extracts from the tree
  the leaf rules already parsed, so each file is parsed once.
* **linking** (:func:`link`) resolves every recorded call site against
  the global symbol tables into a :class:`CallGraph` of qualified-name
  edges.  Linking is pure dictionary work over summaries.

Resolution strategy, in decreasing precision:

1. dotted chains rooted in an import alias (``mod.fn()``, aliased
   re-exports followed through package ``__init__`` chains);
2. ``self.method()`` / ``cls.method()`` through the class hierarchy
   (MRO walk), plus *virtual* edges to every subclass override — a call
   through ``DispatchPolicy.choose`` reaches each registered policy;
3. annotation- and constructor-driven typing of locals, parameters and
   ``self.attr`` instance attributes;
4. duck fallback: an untyped ``obj.method()`` resolves to every project
   method of that name, capped at :data:`DUCK_CAP` definitions (beyond
   the cap the dispatch is recorded as *unknown* and reported once per
   name — an over-approximation that wide would invent chains instead
   of finding them).

References to function objects (callbacks handed to
``Simulation.schedule``, ``observables()`` dict values, hook callables)
create *potential-call* edges from the referencing function, which is
what makes event-handler chains reachable from the hot roots without
simulating the scheduler.
"""

from __future__ import annotations

import ast
import fnmatch
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

__all__ = [
    "DUCK_CAP",
    "SinkRecord",
    "CallRecord",
    "RefRecord",
    "SeedCallRecord",
    "FunctionSummary",
    "ClassSummary",
    "ModuleSummary",
    "CallGraph",
    "extract_module",
    "link",
    "shortest_chains",
    "render_chain",
]

#: Maximum number of same-named project methods a duck-dispatched call
#: may fan out to; beyond this the call is recorded as unknown instead.
DUCK_CAP = 8

# --------------------------------------------------------------------------
# Sink tables (canonical external dotted names, post import-alias resolution)
# --------------------------------------------------------------------------

_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    # Common spellings once `datetime`/`date` are imported directly.
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
}

_NP_RANDOM_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
}

_ENV_READS = {"os.getenv", "os.environ.get", "os.environ.items", "os.environ.keys"}

#: Names whose call records also capture the task-callable argument for
#: the picklability analysis (resolved properly at link time).
_TASK_RUNNERS = {"run_tasks"}

#: Seed-derivation entry points traced by repro.analysis.seedflow.
_SEED_DERIVERS = {"derive_seed", "derive_seedseq", "derive_rng"}


# --------------------------------------------------------------------------
# Summary data model
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SinkRecord:
    """One impurity source inside a function body."""

    kind: str  # "wall-clock" | "global-rng" | "environ" | "set-iteration"
    line: int
    col: int
    detail: str  # e.g. "time.time()"


@dataclass(frozen=True)
class CallRecord:
    """One call site, unresolved (resolution happens at link time).

    ``kind`` is one of:

    * ``"name"`` — ``target`` is a bare identifier;
    * ``"dotted"`` — ``target`` is the full attribute chain (``a.b.c``);
    * ``"self"`` / ``"cls"`` — single-attribute call on the instance;
    * ``"recv"`` — single-attribute call on a named local (``recv``
      holds the receiver name for type lookup);
    * ``"duck"`` — anything else; only the terminal attribute survives.
    """

    kind: str
    target: str
    line: int
    col: int
    recv: str = ""
    fn_arg: str = ""  # task-callable descriptor for run_tasks-like calls


@dataclass(frozen=True)
class RefRecord:
    """A function-object reference (callback, hook, observables value)."""

    kind: str  # "name" | "self" | "dotted"
    target: str
    line: int


@dataclass(frozen=True)
class SeedCallRecord:
    """One ``derive_seed``/``derive_seedseq``/``derive_rng`` call site."""

    fn: str  # which deriver
    args: str  # normalized argument signature (ast.dump based)
    line: int
    col: int
    target_var: str = ""  # simple assignment target, if any
    discarded: bool = False  # statement-expression: result dropped
    in_arith: bool = False  # the call itself sits inside a BinOp


@dataclass
class FunctionSummary:
    """Everything the whole-program passes need to know about one function."""

    qualname: str
    name: str
    line: int
    class_name: str = ""  # enclosing class simple name, "" for free functions
    is_nested: bool = False
    decorators: list[str] = field(default_factory=list)
    params: list[str] = field(default_factory=list)
    param_types: dict[str, str] = field(default_factory=dict)
    local_types: dict[str, str] = field(default_factory=dict)
    calls: list[CallRecord] = field(default_factory=list)
    refs: list[RefRecord] = field(default_factory=list)
    sinks: list[SinkRecord] = field(default_factory=list)
    seed_calls: list[SeedCallRecord] = field(default_factory=list)
    seed_arith_vars: list[str] = field(default_factory=list)  # with lines below
    seed_arith_lines: list[int] = field(default_factory=list)


@dataclass
class ClassSummary:
    """One class: bases (raw dotted strings), methods, attribute types."""

    qualname: str
    name: str
    line: int
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname
    attr_types: dict[str, str] = field(default_factory=dict)  # self.x -> raw type


@dataclass
class ModuleSummary:
    """The extraction result for one file."""

    module: str
    path: str
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted target
    functions: dict[str, FunctionSummary] = field(default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)  # simple name ->


# --------------------------------------------------------------------------
# Extraction
# --------------------------------------------------------------------------


def _dotted(node: ast.AST) -> str | None:
    """Full dotted path of a Name/Attribute chain, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _annotation_str(node: ast.AST | None) -> str:
    """A usable dotted string for a type annotation, or ""."""
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # String annotation: "Station | None" — take the first dotted word.
        text = node.value.strip()
        for sep in ("|", "[", ","):
            text = text.split(sep)[0].strip()
        return text if all(p.isidentifier() for p in text.split(".")) and text else ""
    if isinstance(node, ast.Subscript):  # Optional[X], list[X]: use the head
        base = _dotted(node.value) or ""
        if base in ("Optional",):
            return _annotation_str(node.slice)
        return ""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        left = _annotation_str(node.left)
        return left or _annotation_str(node.right)
    dotted = _dotted(node)
    if dotted in ("None",):
        return ""
    return dotted or ""


class _ModuleExtractor(ast.NodeVisitor):
    """Single-pass extractor producing a :class:`ModuleSummary`."""

    def __init__(self, module: str, path: str):
        self.out = ModuleSummary(module=module, path=path)
        self._class_stack: list[ClassSummary] = []
        self._func_stack: list[FunctionSummary] = []

    # -- imports ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.out.imports[bound] = target

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:  # relative import: anchor inside this package
            pkg_parts = self.out.module.split(".")
            anchor = pkg_parts[: len(pkg_parts) - node.level]
            base = ".".join(anchor + ([base] if base else []))
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            self.out.imports[bound] = f"{base}.{alias.name}" if base else alias.name

    # -- classes and functions -------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        prefix = self._qual_prefix()
        summary = ClassSummary(
            qualname=f"{self.out.module}.{prefix}{node.name}",
            name=node.name,
            line=node.lineno,
            bases=[b for b in (_dotted(base) for base in node.bases) if b],
        )
        # Nested classes resolve like top-level ones (rare here).
        self.out.classes[node.name] = summary
        self._class_stack.append(summary)
        for child in node.body:
            self.visit(child)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def _qual_prefix(self) -> str:
        parts = [c.name for c in self._class_stack]
        parts += [f.name + ".<locals>" for f in self._func_stack[len(parts):]]
        # Order is approximate for exotic nesting; names stay unique enough.
        return ("".join(p + "." for p in parts)) if parts else ""

    def _handle_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        in_class = bool(self._class_stack) and not self._func_stack
        nested = bool(self._func_stack)
        if in_class:
            cls = self._class_stack[-1]
            qualname = f"{cls.qualname}.{node.name}"
        elif nested:
            qualname = f"{self._func_stack[-1].qualname}.<locals>.{node.name}"
        else:
            qualname = f"{self.out.module}.{node.name}"
        summary = FunctionSummary(
            qualname=qualname,
            name=node.name,
            line=node.lineno,
            class_name=self._class_stack[-1].name if in_class else "",
            is_nested=nested,
            decorators=[d for d in (_dotted(dec) for dec in node.decorator_list) if d],
        )
        args = node.args
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            summary.params.append(a.arg)
            ann = _annotation_str(a.annotation)
            if ann:
                summary.param_types[a.arg] = ann
        if in_class:
            self._class_stack[-1].methods[node.name] = qualname
        self.out.functions[qualname] = summary
        if nested:
            # Defining a nested function implies it may run: potential call.
            self._func_stack[-1].refs.append(
                RefRecord(kind="qual", target=qualname, line=node.lineno)
            )
        self._func_stack.append(summary)
        _BodyWalker(self, summary).walk(node)
        self._func_stack.pop()


class _BodyWalker:
    """Walks one function body (descending into lambdas, recursing into
    nested defs via the extractor so they become their own nodes)."""

    def __init__(self, extractor: _ModuleExtractor, fn: FunctionSummary):
        self.ex = extractor
        self.fn = fn
        self._binop_names: list[tuple[str, int]] = []

    def walk(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        for stmt in node.body:
            self._stmt(stmt)
        seed_vars = {sc.target_var for sc in self.fn.seed_calls if sc.target_var}
        for name, line in self._binop_names:
            if name in seed_vars:
                self.fn.seed_arith_vars.append(name)
                self.fn.seed_arith_lines.append(line)

    # -- statement dispatch ----------------------------------------------

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.ex._handle_function(node)
            return
        if isinstance(node, ast.ClassDef):
            self.ex.visit_ClassDef(node)
            return
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # Function-local imports (deferred to break cycles) bind names
            # the function then calls; fold them into the module alias
            # table so those calls resolve like top-level imports.
            self.ex.visit(node)
            return
        if isinstance(node, ast.Assign):
            self._record_assignment(node.targets, node.value)
        elif isinstance(node, ast.AnnAssign):
            ann = _annotation_str(node.annotation)
            if ann and isinstance(node.target, ast.Name):
                self.fn.local_types[node.target.id] = ann
            if isinstance(node.target, ast.Attribute) and ann:
                self._record_self_attr_type(node.target, ann)
            if node.value is not None:
                self._record_assignment([node.target], node.value)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            deriver = self._seed_deriver_name(node.value)
            if deriver:
                self._record_seed_call(node.value, deriver, target_var="",
                                       discarded=True)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, (ast.excepthandler, ast.withitem,
                                    ast.match_case)):
                for sub in ast.iter_child_nodes(child):
                    if isinstance(sub, ast.expr):
                        self._expr(sub)
                    elif isinstance(sub, ast.stmt):
                        self._stmt(sub)
        self._check_set_iteration(node)

    # -- assignments (type tracking + seed flow) -------------------------

    def _record_assignment(self, targets: Sequence[ast.expr], value: ast.expr) -> None:
        target_var = ""
        if len(targets) == 1 and isinstance(targets[0], ast.Name):
            target_var = targets[0].id
        if isinstance(value, ast.Call):
            ctor = _dotted(value.func)
            if target_var and ctor:
                # `x = Station(...)` types x as Station (resolved at link).
                self.fn.local_types.setdefault(target_var, ctor)
            deriver = self._seed_deriver_name(value)
            if deriver:
                self._record_seed_call(value, deriver, target_var=target_var)
        for t in targets:
            if isinstance(t, ast.Attribute):
                ann = ""
                if isinstance(value, ast.Name):
                    ann = self.fn.param_types.get(value.id, "")
                elif isinstance(value, ast.Call):
                    ann = _dotted(value.func) or ""
                if ann:
                    self._record_self_attr_type(t, ann)

    def _record_self_attr_type(self, target: ast.Attribute, ann: str) -> None:
        if (
            isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.fn.class_name
        ):
            cls = self.ex.out.classes.get(self.fn.class_name)
            if cls is not None:
                cls.attr_types.setdefault(target.attr, ann)

    # -- expressions ------------------------------------------------------

    def _expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Lambda):
            self._expr(node.body)
            return
        if isinstance(node, ast.Call):
            self._call(node)
        if isinstance(node, ast.BinOp):
            self._check_seed_arith(node)
        if isinstance(node, ast.Dict):
            for value in node.values:
                if value is not None:
                    self._ref(value)
        if isinstance(node, (ast.List, ast.Tuple)):
            for elt in node.elts:
                self._ref(elt)
        self._check_set_iteration(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.keyword):
                self._expr(child.value)
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter)
                for if_ in child.ifs:
                    self._expr(if_)

    def _check_seed_arith(self, node: ast.BinOp) -> None:
        """Track seed misuse material: operand names and in-BinOp derivations."""
        for side in (node.left, node.right):
            if isinstance(side, ast.Name):
                self._binop_names.append((side.id, node.lineno))
            elif isinstance(side, ast.Call):
                deriver = self._seed_deriver_name(side)
                if deriver:
                    self._record_seed_call(side, deriver, in_arith=True)

    # -- calls ------------------------------------------------------------

    def _canonical(self, dotted: str) -> str:
        """Resolve the chain's root through the import alias table."""
        head, _, rest = dotted.partition(".")
        target = self.ex.out.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def _seed_deriver_name(self, node: ast.Call) -> str:
        dotted = _dotted(node.func)
        if dotted is None:
            return ""
        leaf = dotted.rsplit(".", 1)[-1]
        return leaf if leaf in _SEED_DERIVERS else ""

    def _record_seed_call(self, node: ast.Call, deriver: str, *,
                          target_var: str = "", discarded: bool = False,
                          in_arith: bool = False) -> None:
        args = ",".join(
            ast.dump(a, annotate_fields=False) for a in node.args
        )
        self.fn.seed_calls.append(SeedCallRecord(
            fn=deriver, args=args, line=node.lineno, col=node.col_offset,
            target_var=target_var, discarded=discarded, in_arith=in_arith,
        ))

    def _call(self, node: ast.Call) -> None:
        func = node.func
        dotted = _dotted(func)
        # Taint sinks (canonical names through import aliases).
        if dotted is not None:
            self._check_sink(node, dotted)
        # functools.partial(f, ...): potential call of f.
        if dotted is not None and dotted.rsplit(".", 1)[-1] == "partial" and node.args:
            self._ref(node.args[0])
        # Seed calls in expression position (BinOp handled by caller).
        # Callable arguments become potential-call references.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            self._ref(arg)
        # The call record itself.  The leading-argument descriptor is
        # captured for every call (not just the runners) so the
        # picklability pass can chase callables through wrapper
        # parameters: `sweep(measure)` → `run_tasks(fn, ...)`.
        leaf = dotted.rsplit(".", 1)[-1] if dotted else ""
        fn_arg = self._fn_arg_descriptor(node, strict=leaf in _TASK_RUNNERS)
        if isinstance(func, ast.Name):
            self.fn.calls.append(CallRecord(
                kind="name", target=func.id, line=node.lineno,
                col=node.col_offset, fn_arg=fn_arg,
            ))
        elif isinstance(func, ast.Attribute):
            chain = _dotted(func)
            if chain is not None:
                root = chain.split(".")[0]
                n_attrs = chain.count(".")
                if root in ("self", "cls") and n_attrs == 1:
                    kind = "self" if root == "self" else "cls"
                    rec = CallRecord(kind=kind, target=func.attr,
                                     line=node.lineno, col=node.col_offset,
                                     fn_arg=fn_arg)
                elif n_attrs == 1:
                    rec = CallRecord(kind="recv", target=func.attr, recv=root,
                                     line=node.lineno, col=node.col_offset,
                                     fn_arg=fn_arg)
                else:
                    rec = CallRecord(kind="dotted", target=chain,
                                     line=node.lineno, col=node.col_offset,
                                     fn_arg=fn_arg)
                self.fn.calls.append(rec)
            else:
                # Chained/dynamic receiver expression: duck on the attr.
                self.fn.calls.append(CallRecord(
                    kind="duck", target=func.attr, line=node.lineno,
                    col=node.col_offset, fn_arg=fn_arg,
                ))

    def _fn_arg_descriptor(self, node: ast.Call, *, strict: bool) -> str:
        """Compact descriptor of a call's leading callable argument.

        ``strict`` (run_tasks sites) also honours the ``fn=`` keyword
        and records *any* argument shape; non-strict sites only record
        callable-looking args (lambda / partial / name) so wrapper calls
        stay chaseable without bloating the summaries.
        """
        arg: ast.expr | None = node.args[0] if node.args else None
        if strict:
            for kw in node.keywords:
                if kw.arg == "fn":
                    arg = kw.value
        if arg is None:
            return ""
        if not strict and not isinstance(arg, (ast.Lambda, ast.Call, ast.Name,
                                               ast.Attribute)):
            return ""
        return self._callable_descriptor(arg)

    def _callable_descriptor(self, arg: ast.expr) -> str:
        if isinstance(arg, ast.Lambda):
            return "lambda"
        if isinstance(arg, ast.Call):
            callee = _dotted(arg.func) or ""
            if callee.rsplit(".", 1)[-1] == "partial" and arg.args:
                inner = self._callable_descriptor(arg.args[0])
                return f"partial:{inner}" if inner else "partial:?"
            return f"call:{callee}"
        dotted = _dotted(arg)
        if dotted is not None:
            return f"name:{dotted}"
        return "?"

    # -- references -------------------------------------------------------

    def _ref(self, node: ast.expr) -> None:
        """Record ``node`` as a potential function-object reference."""
        if isinstance(node, ast.Lambda):
            return  # body is walked by the generic expression recursion
        if isinstance(node, ast.Name):
            self.fn.refs.append(RefRecord(kind="name", target=node.id,
                                          line=node.lineno))
            return
        chain = _dotted(node)
        if chain is None:
            return
        root, _, rest = chain.partition(".")
        if root == "self" and rest and "." not in rest:
            self.fn.refs.append(RefRecord(kind="self", target=rest,
                                          line=node.lineno))
        elif rest:
            self.fn.refs.append(RefRecord(kind="dotted", target=chain,
                                          line=node.lineno))

    # -- sinks -------------------------------------------------------------

    def _check_sink(self, node: ast.Call, dotted: str) -> None:
        canonical = self._canonical(dotted)
        leaf = canonical.rsplit(".", 1)[-1]
        if canonical in _WALL_CLOCK:
            self._sink("wall-clock", node, f"{canonical}()")
        elif canonical in _ENV_READS or canonical == "os.environ.__getitem__":
            self._sink("environ", node, f"{canonical}()")
        elif canonical.startswith("random.") and canonical.count(".") == 1:
            self._sink("global-rng", node, f"{canonical}()")
        elif canonical.startswith("numpy.random.") and leaf not in _NP_RANDOM_OK:
            self._sink("global-rng", node, f"{canonical}()")
        elif leaf == "default_rng" and not node.args and not node.keywords:
            self._sink("global-rng", node, "unseeded default_rng()")

    def _sink(self, kind: str, node: ast.AST, detail: str) -> None:
        self.fn.sinks.append(SinkRecord(
            kind=kind, line=getattr(node, "lineno", self.fn.line),
            col=getattr(node, "col_offset", 0), detail=detail,
        ))

    def _check_set_iteration(self, node: ast.AST) -> None:
        iters: list[ast.expr] = []
        if isinstance(node, ast.For):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters = [gen.iter for gen in node.generators]
        for it in iters:
            if isinstance(it, (ast.Set, ast.SetComp)) or (
                isinstance(it, ast.Call)
                and (_dotted(it.func) or "").rsplit(".", 1)[-1]
                in ("set", "frozenset")
            ):
                self._sink("set-iteration", it, "iteration over a set")

    # Environ subscript reads (os.environ[...]) are expressions, not calls.


def _find_environ_subscripts(tree: ast.AST, imports: Mapping[str, str]) -> list[SinkRecord]:
    out: list[SinkRecord] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript):
            continue
        chain = _dotted(node.value)
        if chain is None:
            continue
        head, _, rest = chain.partition(".")
        resolved = imports.get(head, head)
        canonical = f"{resolved}.{rest}" if rest else resolved
        if canonical == "os.environ":
            out.append(SinkRecord(kind="environ", line=node.lineno,
                                  col=node.col_offset, detail="os.environ[...]"))
    return out


def extract_module(module: str, path: str, tree: ast.Module) -> ModuleSummary:
    """Extract the whole-program summary for one parsed file."""
    ex = _ModuleExtractor(module, path)
    ex.visit(tree)
    # Attach environ-subscript sinks to the enclosing function by line span.
    subs = _find_environ_subscripts(tree, ex.out.imports)
    if subs:
        spans: list[tuple[int, int, FunctionSummary]] = []
        for fn in ex.out.functions.values():
            spans.append((fn.line, _end_line(tree, fn), fn))
        for sink in subs:
            best: FunctionSummary | None = None
            best_start = -1
            for start, end, fn in spans:
                if start <= sink.line <= end and start > best_start:
                    best, best_start = fn, start
            if best is not None and sink not in best.sinks:
                best.sinks.append(sink)
    return ex.out


def _end_line(tree: ast.Module, fn: FunctionSummary) -> int:
    # end_lineno is always present on 3.8+; fall back to start line.
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
            node.lineno == fn.line and node.name == fn.name
        ):
            return node.end_lineno or node.lineno
    return fn.line


# --------------------------------------------------------------------------
# Linking
# --------------------------------------------------------------------------


@dataclass
class CallGraph:
    """Resolved whole-program call graph.

    Attributes
    ----------
    functions:
        qualname -> (module summary, function summary).
    edges:
        qualname -> sorted callee qualnames (direct + virtual + potential).
    unknown:
        method name -> first (caller qualname, line) that failed to
        resolve — reported once per name ("unknown — warn once").
    """

    functions: dict[str, tuple[ModuleSummary, FunctionSummary]] = field(
        default_factory=dict)
    classes: dict[str, ClassSummary] = field(default_factory=dict)
    edges: dict[str, list[str]] = field(default_factory=dict)
    unknown: dict[str, tuple[str, int]] = field(default_factory=dict)

    def callers_of(self, qualname: str) -> list[str]:
        return sorted(
            src for src, dsts in self.edges.items() if qualname in dsts
        )


class _Linker:
    def __init__(self, summaries: Sequence[ModuleSummary]):
        self.summaries = {s.module: s for s in summaries}
        self.graph = CallGraph()
        # Global tables.
        self.modules: set[str] = set(self.summaries)
        self.func_table: dict[str, tuple[ModuleSummary, FunctionSummary]] = {}
        self.class_table: dict[str, ClassSummary] = {}
        self.class_by_module: dict[str, dict[str, ClassSummary]] = {}
        self.methods_by_name: dict[str, list[str]] = {}
        self.subclasses: dict[str, list[str]] = {}
        for s in summaries:
            self.class_by_module[s.module] = dict(s.classes)
            for fn in s.functions.values():
                self.func_table[fn.qualname] = (s, fn)
            for cls in s.classes.values():
                self.class_table[cls.qualname] = cls
                for name, q in cls.methods.items():
                    self.methods_by_name.setdefault(name, []).append(q)
        for lst in self.methods_by_name.values():
            lst.sort()
        self._build_hierarchy()

    # -- symbol resolution -------------------------------------------------

    def _resolve_symbol(self, module: str, dotted: str,
                        _seen: frozenset[tuple[str, str]] = frozenset()) -> str | None:
        """Resolve ``dotted`` as seen from ``module`` to a project qualname.

        Returns a function qualname, class qualname, or module name; None
        when the symbol is external or unknown.
        """
        if (module, dotted) in _seen or module not in self.summaries:
            return None
        seen = _seen | {(module, dotted)}
        summary = self.summaries[module]
        head, _, rest = dotted.partition(".")
        target = summary.imports.get(head)
        if target is None:
            # A module-level symbol of this module?
            qual = f"{module}.{head}"
            if qual in self.func_table:
                return qual if not rest else None
            if head in summary.classes:
                cls = summary.classes[head]
                if not rest:
                    return cls.qualname
                return self._resolve_in_class(cls, rest)
            # An absolute module path used directly (rare without import).
            return self._resolve_module_path(dotted)
        # Imported: target is a dotted module or module.symbol string.
        if target in self.modules:
            return self._resolve_symbol(target, rest, seen) if rest else target
        # `from pkg import name` → target = "pkg.name".
        t_mod, _, t_sym = target.rpartition(".")
        if t_mod in self.modules and t_sym:
            inner = t_sym + ("." + rest if rest else "")
            return self._resolve_symbol(t_mod, inner, seen)
        # Submodule import spelled as a symbol: `from repro import sim`.
        if target in self.modules:
            return target
        full = target + ("." + rest if rest else "")
        return self._resolve_module_path(full)

    def _resolve_module_path(self, dotted: str) -> str | None:
        """Resolve ``repro.sim.engine.Simulation.run``-style absolute paths."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            mod = ".".join(parts[:i])
            if mod in self.modules:
                rest = parts[i:]
                if not rest:
                    return mod
                summary = self.summaries[mod]
                head = rest[0]
                qual = f"{mod}.{head}"
                if qual in self.func_table and len(rest) == 1:
                    return qual
                if head in summary.classes:
                    cls = summary.classes[head]
                    if len(rest) == 1:
                        return cls.qualname
                    return self._resolve_in_class(cls, ".".join(rest[1:]))
                return None
        return None

    def _resolve_in_class(self, cls: ClassSummary, rest: str) -> str | None:
        if "." in rest:
            return None
        return self._mro_lookup(cls.qualname, rest)

    # -- class hierarchy ---------------------------------------------------

    def _build_hierarchy(self) -> None:
        self.base_map: dict[str, list[str]] = {}
        for module, classes in self.class_by_module.items():
            for cls in classes.values():
                resolved: list[str] = []
                for raw in cls.bases:
                    base_qual = self._resolve_symbol(module, raw)
                    if base_qual is not None and base_qual in self.class_table:
                        resolved.append(base_qual)
                        self.subclasses.setdefault(base_qual, []).append(
                            cls.qualname)
                self.base_map[cls.qualname] = resolved
        for lst in self.subclasses.values():
            lst.sort()

    def _mro_lookup(self, class_qual: str, method: str,
                    _seen: frozenset[str] = frozenset()) -> str | None:
        if class_qual in _seen:
            return None
        cls = self.class_table.get(class_qual)
        if cls is None:
            return None
        if method in cls.methods:
            return cls.methods[method]
        for base in self.base_map.get(class_qual, []):
            found = self._mro_lookup(base, method, _seen | {class_qual})
            if found is not None:
                return found
        return None

    def _virtual_targets(self, class_qual: str, method: str) -> list[str]:
        """Static target plus every subclass override (virtual dispatch)."""
        out: list[str] = []
        static = self._mro_lookup(class_qual, method)
        if static is not None:
            out.append(static)
        stack = list(self.subclasses.get(class_qual, []))
        seen: set[str] = set()
        while stack:
            sub = stack.pop()
            if sub in seen:
                continue
            seen.add(sub)
            sub_cls = self.class_table.get(sub)
            if sub_cls is not None and method in sub_cls.methods:
                out.append(sub_cls.methods[method])
            stack.extend(self.subclasses.get(sub, []))
        return sorted(set(out))

    # -- type resolution ---------------------------------------------------

    def _resolve_type(self, module: str, raw: str) -> str | None:
        """Resolve a raw annotation / constructor string to a class qualname."""
        if not raw:
            return None
        qual = self._resolve_symbol(module, raw)
        if qual is not None and qual in self.class_table:
            return qual
        return None

    # -- linking one function ---------------------------------------------

    def link(self) -> CallGraph:
        g = self.graph
        g.functions = dict(self.func_table)
        g.classes = dict(self.class_table)
        for qualname in sorted(self.func_table):
            summary, fn = self.func_table[qualname]
            targets: set[str] = set()
            for call in fn.calls:
                targets.update(self._resolve_call(summary, fn, call))
            for ref in fn.refs:
                targets.update(self._resolve_ref(summary, fn, ref))
            targets.discard(qualname)
            g.edges[qualname] = sorted(targets)
        return g

    def _receiver_class(self, summary: ModuleSummary,
                        fn: FunctionSummary) -> str | None:
        if not fn.class_name:
            return None
        cls = summary.classes.get(fn.class_name)
        return cls.qualname if cls is not None else None

    def _duck(self, summary: ModuleSummary, fn: FunctionSummary,
              name: str, line: int) -> list[str]:
        if name.startswith("__") and name.endswith("__"):
            # Dunder dispatch (super().__init__, __repr__, ...): constructor
            # edges already cover instantiation; the rest is protocol noise.
            return []
        candidates = self.methods_by_name.get(name, [])
        if not candidates:
            # No project method carries this name at all — the receiver is
            # external (stdlib/numpy), so nothing reachable is missed.
            return []
        if len(candidates) <= DUCK_CAP:
            return candidates
        if name not in self.graph.unknown:
            self.graph.unknown[name] = (fn.qualname, line)
        return []

    def _resolve_call(self, summary: ModuleSummary, fn: FunctionSummary,
                      call: CallRecord) -> list[str]:
        if call.kind == "name":
            name = call.target
            if name in fn.params or name in fn.local_types:
                # A local callable: typed constructor or higher-order param.
                cls_qual = self._resolve_type(summary.module,
                                              fn.local_types.get(name, ""))
                if cls_qual is not None:
                    return self._ctor_edges(cls_qual)
                return []  # param call: covered by caller-side refs
            qual = self._resolve_symbol(summary.module, name)
            return self._symbol_edges(qual)
        if call.kind in ("self", "cls"):
            cls_qual = self._receiver_class(summary, fn)
            if cls_qual is None:
                return self._duck(summary, fn, call.target, call.line)
            found = self._virtual_targets(cls_qual, call.target)
            if found:
                return found
            return self._duck(summary, fn, call.target, call.line)
        if call.kind == "recv":
            recv_type = fn.local_types.get(call.recv) or fn.param_types.get(call.recv)
            if recv_type:
                cls_qual = self._resolve_type(summary.module, recv_type)
                if cls_qual is not None:
                    found = self._virtual_targets(cls_qual, call.target)
                    if found:
                        return found
            # Receiver may be an imported module: `supervise.run_tasks(...)`.
            qual = self._resolve_symbol(summary.module,
                                        f"{call.recv}.{call.target}")
            if qual is not None:
                return self._symbol_edges(qual)
            imported = summary.imports.get(call.recv)
            if imported is not None and not imported.startswith("repro"):
                return []  # external receiver (argparse, threading, np, ...)
            return self._duck(summary, fn, call.target, call.line)
        if call.kind == "dotted":
            chain = call.target
            root = chain.split(".")[0]
            # `self.policy.choose()`: type self.policy via attr_types.
            if root == "self" and chain.count(".") == 2 and fn.class_name:
                cls = summary.classes.get(fn.class_name)
                attr = chain.split(".")[1]
                if cls is not None and attr in cls.attr_types:
                    cls_qual = self._resolve_type(summary.module,
                                                  cls.attr_types[attr])
                    if cls_qual is not None:
                        found = self._virtual_targets(
                            cls_qual, chain.rsplit(".", 1)[-1])
                        if found:
                            return found
            qual = self._resolve_symbol(summary.module, chain)
            if qual is not None:
                return self._symbol_edges(qual)
            imported = summary.imports.get(root)
            if imported is not None and not imported.startswith("repro"):
                return []  # chain rooted at an external import
            return self._duck(summary, fn, chain.rsplit(".", 1)[-1], call.line)
        # kind == "duck"
        return self._duck(summary, fn, call.target, call.line)

    def _symbol_edges(self, qual: str | None) -> list[str]:
        if qual is None:
            return []
        if qual in self.func_table:
            return [qual]
        if qual in self.class_table:
            return self._ctor_edges(qual)
        return []

    def _ctor_edges(self, class_qual: str) -> list[str]:
        init = self._mro_lookup(class_qual, "__init__")
        return [init] if init is not None else []

    def _resolve_ref(self, summary: ModuleSummary, fn: FunctionSummary,
                     ref: RefRecord) -> list[str]:
        if ref.kind == "qual":
            return [ref.target] if ref.target in self.func_table else []
        if ref.kind == "name":
            if ref.target in fn.params or ref.target in fn.local_types:
                return []
            qual = self._resolve_symbol(summary.module, ref.target)
            if qual is not None and qual in self.func_table:
                return [qual]
            return []
        if ref.kind == "self":
            cls_qual = self._receiver_class(summary, fn)
            if cls_qual is not None:
                found = self._mro_lookup(cls_qual, ref.target)
                if found is not None:
                    return [found]
            return []
        # dotted reference: only follow exact symbols (no duck for refs —
        # a stray attribute chain should not wire the graph together).
        qual = self._resolve_symbol(summary.module, ref.target)
        if qual is not None and qual in self.func_table:
            return [qual]
        return []


def link(summaries: Sequence[ModuleSummary]) -> CallGraph:
    """Link extracted module summaries into a resolved :class:`CallGraph`."""
    return _Linker(summaries).link()


# --------------------------------------------------------------------------
# Reachability
# --------------------------------------------------------------------------


def shortest_chains(graph: CallGraph, roots: Iterable[str]) -> dict[str, list[str]]:
    """BFS from ``roots``: qualname -> shortest call chain from a root.

    Roots may be exact qualnames or :mod:`fnmatch` patterns matched
    against every function in the graph.  The returned chain includes
    both endpoints (``[root, ..., target]``).
    """
    all_fns = sorted(graph.functions)
    seeds: list[str] = []
    for pattern in roots:
        if pattern in graph.functions:
            seeds.append(pattern)
        elif any(ch in pattern for ch in "*?["):
            seeds.extend(fn for fn in all_fns if fnmatch.fnmatchcase(fn, pattern))
    chains: dict[str, list[str]] = {}
    frontier: list[str] = []
    for seed in sorted(set(seeds)):
        chains[seed] = [seed]
        frontier.append(seed)
    while frontier:
        next_frontier: list[str] = []
        for src in frontier:
            base = chains[src]
            for dst in graph.edges.get(src, []):
                if dst not in chains:
                    chains[dst] = base + [dst]
                    next_frontier.append(dst)
        frontier = next_frontier
    return chains


def render_chain(chain: Sequence[str]) -> str:
    """``Simulation.run → _dispatch → handler`` — trimmed for humans."""
    return " → ".join(_short(q) for q in chain)


def _short(qualname: str) -> str:
    """Drop the module path, keep ``Class.method`` / function name."""
    parts = qualname.split(".")
    # Find the last segment starting with an uppercase letter (class name);
    # include it so methods read as Class.method.
    for i in range(len(parts) - 2, -1, -1):
        if parts[i][:1].isupper():
            return ".".join(parts[i:])
    return parts[-1]

