"""Engine lint: AST rules enforcing invariants distilled from past bugs.

Each rule encodes a bug class a previous PR actually fixed, so the linter is
a regression net for *patterns*, not just for the specific sites that were
patched (rationale and motivating PRs in ``docs/analysis.md``):

``unordered-iteration``
    No iteration over ``set``/``frozenset`` values whose order can leak into
    plan or output decisions — hash-seed-dependent iteration made plans
    differ across interpreter runs until the enumerator sorted its
    pending-Bloom walks.  Order-insensitive reductions (``sorted``, ``sum``,
    ``min``/``max``, ``any``/``all``, set-to-set operations) are exempt.
``mask-accessor-bypass``
    Inside ``executor/``, no ``np.*`` call may consume raw ``.column(...)``
    values directly: code must go through the ``(values, null_mask)``
    accessors (``resolve_masked`` / ``masked_resolver`` / ``null_mask``) so
    NULL filler can never be read as data.
``sentinel-fill``
    No sentinel fill constants (negative numeric literals or
    ``np.iinfo(...).min`` fed to ``np.full`` / ``ndarray.fill``): sentinels
    masquerading as data were exactly the NULL-handling bug the mask
    representation replaced.
``worker-shared-mutation``
    No mutation of shared state (``self`` attributes, module globals,
    closures via ``global``/``nonlocal``) from code reachable from
    thread-pool-submitted callables — a lightweight per-module call-graph
    "escapes-to-worker" race detector for the morsel executor.  Stores to
    known cross-thread-shared attributes (``_kernel_memo``) are flagged
    everywhere.
``untyped-def``
    In the strictly-typed packages (``core/``, ``executor/``, ``api/``,
    ``analysis/``, ``serving/``, ``faults/``) every ``def`` must annotate
    all parameters
    and its return type — the local enforcement arm of the strict mypy
    configuration (mypy itself is optional in the container; see
    ``make typecheck``).
``blocking-in-async``
    Inside ``serving/``, no ``async def`` body may call the sync engine
    (``execute`` / ``execute_many``), ``time.sleep`` or a future's
    ``.result()`` without ``await`` — any of these stalls the event loop
    for every tenant at once.  Engine work belongs on the worker threads;
    the coroutine side must only ``await``.  Awaited calls and nested sync
    ``def``s (which run on workers) are exempt.
``unaccounted-allocation``
    Inside the spill-capable operator modules (``executor/joins.py``,
    ``executor/aggregate.py``, ``executor/sort.py``), no data-sized array
    constructor (``np.empty`` / ``np.zeros`` / ``np.ones`` / ``np.full``)
    may run in a function without a ``budget`` parameter: allocations that
    bypass the :class:`~repro.executor.memory.MemoryBudget` reservation API
    are invisible to the governor, so a "within budget" query could still
    blow past its grant.  Constant-size allocations (a literal first
    argument) are exempt — they are O(1), not O(rows).
``broad-except-swallow``
    No bare ``except:`` or ``except BaseException:`` whose handler fails to
    ``raise``: a handler that catches *everything* and returns normally
    also swallows ``KeyboardInterrupt``, ``MemoryError`` and injected
    chaos faults, turning crashes into silent wrong answers — the exact
    failure mode the fault-injection framework (:mod:`repro.faults`)
    exists to surface.  Handlers that re-raise (cleanup-then-``raise``)
    are exempt; a handler that deliberately converts the exception into
    another channel (e.g. a future) must carry a suppression explaining
    where the error goes.

Deliberate exceptions carry ``# lint: allow(<rule>) — <reason>`` on the
flagged line or the line above; the reason is mandatory (a bare ``allow``
is itself reported as ``bad-suppression``).  Run as ``make lint`` or
``python -m repro.analysis.lint [paths...]``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Packages under strict typing: ``untyped-def`` fires only inside these.
STRICT_TYPED_PACKAGES = ("core", "executor", "api", "analysis", "serving",
                         "faults")

#: Attributes known to hold ``frozenset`` values in the engine.  Deliberately
#: *excludes* ``relations`` — ``PlanNode.relations`` is a frozenset but
#: ``QueryBlock.relations`` is an ordered list, and the two are syntactically
#: indistinguishable at an attribute access.
UNORDERED_ATTRIBUTES = frozenset({"pending_blooms", "delta", "all_relations"})

#: Zero-argument methods known to return ``frozenset`` values.
UNORDERED_METHODS = frozenset({"referenced_relations"})

#: Set-algebra methods whose result is again unordered.
SET_ALGEBRA_METHODS = frozenset({"intersection", "union", "difference",
                                 "symmetric_difference"})

#: Callees that consume an iterable order-insensitively, making iteration
#: order irrelevant for the caller.
ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "sum", "min", "max", "any", "all", "len", "set", "frozenset",
})

#: Methods that hand a callable argument to a worker pool, mapped to that
#: argument's (position, parameter name): the classic executor submission
#: points plus the morsel-backend dispatchers (``thread_map`` on
#: ``MorselPools``, the runtime's ``_segment_map`` and its span dispatcher
#: ``_map_spans``, which takes the spans first; ``process_map`` takes a
#: kernel *name*, covered by the module-level kernels the process workers
#: import).  ``Executor.submit`` takes its callable positional-only, so it
#: has no name.
WORKER_DISPATCH_METHODS: Dict[str, Tuple[int, Optional[str]]] = {
    "submit": (0, None), "map": (0, "fn"), "thread_map": (0, "fn"),
    "_segment_map": (0, "fn"), "_map_spans": (1, "local"),
}

#: Object attributes shared across worker threads: stores to these are
#: flagged everywhere, not only in worker-reachable code (the per-module
#: call graph cannot see cross-module reachability).
SHARED_ATTRIBUTES = frozenset({"_kernel_memo"})

#: Calls that run the sync engine and therefore block the event loop when
#: issued from a coroutine.
BLOCKING_ENGINE_CALLS = frozenset({"execute", "execute_many"})

#: Array constructors that materialise data-sized scratch; in spill-capable
#: operator modules these must run under a ``budget`` parameter so the
#: memory governor sees them.
ACCOUNTED_ALLOCATORS = frozenset({"empty", "zeros", "ones", "full"})

#: Executor modules with a spill path: the ``unaccounted-allocation`` rule
#: fires only inside these.
SPILL_OPERATOR_MODULES = frozenset({"joins.py", "aggregate.py", "sort.py"})

#: All rule ids, in reporting order (``bad-suppression`` guards the
#: suppression mechanism itself).
RULES = ("unordered-iteration", "mask-accessor-bypass", "sentinel-fill",
         "worker-shared-mutation", "untyped-def", "blocking-in-async",
         "unaccounted-allocation", "broad-except-swallow",
         "bad-suppression")

_ALLOW_RE = re.compile(
    r"#\s*lint:\s*allow\(([a-z-]+)\)\s*(?:—|–|-{1,2}|:)?\s*(.*)\s*$")


@dataclass(frozen=True)
class LintFinding:
    """One lint rule violation at a source location."""

    path: str
    line: int
    rule: str
    message: str

    def __str__(self) -> str:
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """``(line, text)`` for every comment token (docstrings excluded)."""
    import io
    import tokenize

    comments: List[Tuple[int, str]] = []
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for token in tokens:
        if token.type == tokenize.COMMENT:
            comments.append((token.start[0], token.string))
    return comments


def _parse_allows(source: str, path: str,
                  ) -> Tuple[Dict[int, Set[str]], List[LintFinding]]:
    """Suppressions per line plus findings for malformed ones.

    An ``allow`` comment covers its own line and the first code line below
    it (skipping the rest of its own comment block), so it works both
    trailing the flagged statement and as a standalone — possibly wrapped —
    comment above it.  Only real comment tokens count — a docstring may
    freely *mention* the suppression syntax.
    """
    allows: Dict[int, Set[str]] = {}
    findings: List[LintFinding] = []
    tokens = _comment_tokens(source)
    comment_lines = {lineno for lineno, _ in tokens}
    for lineno, text in tokens:
        match = _ALLOW_RE.search(text)
        if match is None:
            if "lint: allow" in text:
                findings.append(LintFinding(
                    path=path, line=lineno, rule="bad-suppression",
                    message="malformed suppression comment (expected "
                            "'# lint: allow(<rule>) — <reason>')"))
            continue
        rule, reason = match.group(1), match.group(2).strip()
        if rule not in RULES:
            findings.append(LintFinding(
                path=path, line=lineno, rule="bad-suppression",
                message="suppression names unknown rule %r" % rule))
            continue
        if not reason:
            findings.append(LintFinding(
                path=path, line=lineno, rule="bad-suppression",
                message="suppression of %r has no reason — every deliberate "
                        "exception must say why" % rule))
            continue
        allows.setdefault(lineno, set()).add(rule)
        covered = lineno + 1
        while covered in comment_lines:
            allows.setdefault(covered, set()).add(rule)
            covered += 1
        allows.setdefault(covered, set()).add(rule)
    return allows, findings


def _add_parents(tree: ast.AST) -> None:
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._lint_parent = node  # type: ignore[attr-defined]


def _parent(node: ast.AST) -> Optional[ast.AST]:
    return getattr(node, "_lint_parent", None)


# ---------------------------------------------------------------------------
# Rule: unordered-iteration
# ---------------------------------------------------------------------------


def _is_unordered(node: ast.AST) -> bool:
    """True if ``node`` evaluates to a set-like (hash-ordered) value."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in UNORDERED_METHODS:
                return True
            if func.attr in SET_ALGEBRA_METHODS:
                return True
    if isinstance(node, ast.Attribute) and node.attr in UNORDERED_ATTRIBUTES:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_unordered(node.left) or _is_unordered(node.right)
    return False


def _consumed_order_insensitively(comp: ast.AST) -> bool:
    """True if a comprehension's iteration order cannot reach its consumer."""
    if isinstance(comp, ast.SetComp):
        return True  # the result is itself a set: order never materialises
    parent = _parent(comp)
    if isinstance(parent, ast.Call):
        func = parent.func
        if isinstance(func, ast.Name) \
                and func.id in ORDER_INSENSITIVE_CONSUMERS:
            return True
        if isinstance(func, ast.Attribute) \
                and func.attr in SET_ALGEBRA_METHODS:
            return True
    return False


def _check_unordered_iteration(tree: ast.AST, path: str,
                               findings: List[LintFinding]) -> None:
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_unordered(node.iter):
                findings.append(LintFinding(
                    path=path, line=node.iter.lineno,
                    rule="unordered-iteration",
                    message="loop iterates a set in hash order; sort the "
                            "elements, rewrite as an order-insensitive "
                            "reduction, or annotate why order cannot "
                            "escape"))
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp,
                               ast.SetComp)):
            if _consumed_order_insensitively(node):
                continue
            for generator in node.generators:
                if _is_unordered(generator.iter):
                    findings.append(LintFinding(
                        path=path, line=generator.iter.lineno,
                        rule="unordered-iteration",
                        message="comprehension iterates a set in hash "
                                "order and its result is order-sensitive"))


# ---------------------------------------------------------------------------
# Rule: mask-accessor-bypass
# ---------------------------------------------------------------------------


def _check_mask_accessor_bypass(tree: ast.AST, path: str,
                                findings: List[LintFinding]) -> None:
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"):
            continue
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for inner in ast.walk(arg):
                if (isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Attribute)
                        and inner.func.attr == "column"):
                    findings.append(LintFinding(
                        path=path, line=inner.lineno,
                        rule="mask-accessor-bypass",
                        message="np.%s consumes raw .column(...) values; "
                                "use resolve_masked / masked_resolver (or "
                                "pair with null_mask) so NULL filler is "
                                "never read as data" % node.func.attr))


# ---------------------------------------------------------------------------
# Rule: sentinel-fill
# ---------------------------------------------------------------------------


def _is_sentinel_constant(node: ast.AST) -> bool:
    """Negative numeric literal or ``np.iinfo/np.finfo(...).min``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub) \
            and isinstance(node.operand, ast.Constant) \
            and isinstance(node.operand.value, (int, float)) \
            and node.operand.value != 0:
        return True
    if isinstance(node, ast.Attribute) and node.attr == "min" \
            and isinstance(node.value, ast.Call) \
            and isinstance(node.value.func, ast.Attribute) \
            and node.value.func.attr in ("iinfo", "finfo"):
        return True
    return False


def _check_sentinel_fill(tree: ast.AST, path: str,
                         findings: List[LintFinding]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        sentinel: Optional[ast.AST] = None
        if isinstance(func, ast.Attribute) and func.attr == "full" \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "np" and len(node.args) >= 2 \
                and _is_sentinel_constant(node.args[1]):
            sentinel = node.args[1]
        elif isinstance(func, ast.Attribute) and func.attr == "fill" \
                and node.args and _is_sentinel_constant(node.args[0]):
            sentinel = node.args[0]
        if sentinel is not None:
            findings.append(LintFinding(
                path=path, line=node.lineno, rule="sentinel-fill",
                message="sentinel fill constant: NULLs are represented by "
                        "null masks, never by in-band magic values"))


# ---------------------------------------------------------------------------
# Rule: worker-shared-mutation
# ---------------------------------------------------------------------------


def _function_defs(tree: ast.AST) -> Dict[str, List[ast.AST]]:
    """Every named def in the module, keyed by bare name."""
    defs: Dict[str, List[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    return defs


def _called_names(fn: ast.AST) -> Set[str]:
    """Names a def calls via ``name(...)`` or ``self.name(...)``."""
    names: Set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            names.add(func.id)
        elif isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id == "self":
            names.add(func.attr)
    return names


def _worker_entry_points(tree: ast.AST) -> Tuple[Set[str], List[ast.Lambda]]:
    """Callables handed to the thread pool: names + inline lambdas."""
    names: Set[str] = set()
    lambdas: List[ast.Lambda] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        slot = WORKER_DISPATCH_METHODS.get(node.func.attr)
        if slot is None:
            continue
        position, keyword = slot
        target = node.args[position] if len(node.args) > position \
            else next((kw.value for kw in node.keywords
                       if keyword and kw.arg == keyword), None)
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Lambda):
            lambdas.append(target)
    return names, lambdas


def _module_globals(tree: ast.Module) -> Set[str]:
    """Names bound by assignment at module top level."""
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    names.add(node.id)
    return names


def _store_root(node: ast.AST) -> Optional[ast.Name]:
    """The base Name of an Attribute/Subscript store target."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node if isinstance(node, ast.Name) else None


def _shared_attribute_store(target: ast.AST) -> Optional[str]:
    """The shared attribute name if the store hits one, else ``None``."""
    for node in ast.walk(target):
        if isinstance(node, ast.Attribute) and node.attr in SHARED_ATTRIBUTES:
            return node.attr
    return None


def _in_constructor(node: ast.AST) -> bool:
    """True if the statement sits inside ``__init__``/``__post_init__``."""
    current = _parent(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current.name in ("__init__", "__post_init__")
        current = _parent(current)
    return False


def _check_worker_body(fn: ast.AST, own_name: Optional[str],
                       module_globals: Set[str], path: str,
                       findings: List[LintFinding]) -> None:
    """Flag shared-state mutation inside one worker-reachable callable."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            findings.append(LintFinding(
                path=path, line=node.lineno, rule="worker-shared-mutation",
                message="%s rebinds enclosing state from code reachable "
                        "from a thread-pool worker"
                        % type(node).__name__.lower()))
            continue
        targets: List[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            root = _store_root(target)
            if root is None:
                continue
            if root.id == "self" and not isinstance(target, ast.Name):
                findings.append(LintFinding(
                    path=path, line=node.lineno,
                    rule="worker-shared-mutation",
                    message="store to self.* from code reachable from a "
                            "thread-pool worker (in %r): workers must only "
                            "touch per-morsel state"
                            % (own_name or "<lambda>")))
            elif isinstance(target, ast.Name) \
                    and target.id in module_globals:
                findings.append(LintFinding(
                    path=path, line=node.lineno,
                    rule="worker-shared-mutation",
                    message="store to module global %r from code reachable "
                            "from a thread-pool worker" % target.id))


def _check_worker_shared_mutation(tree: ast.Module, path: str,
                                  findings: List[LintFinding]) -> None:
    entry_names, entry_lambdas = _worker_entry_points(tree)
    defs = _function_defs(tree)
    module_globals = _module_globals(tree)
    # Transitive closure over the per-module call graph.
    reachable: Set[str] = set()
    frontier = {name for name in entry_names if name in defs}
    for lam in entry_lambdas:
        frontier |= {name for name in _called_names(lam) if name in defs}
    while frontier:
        name = frontier.pop()
        if name in reachable:
            continue
        reachable.add(name)
        for fn in defs[name]:
            frontier |= {called for called in _called_names(fn)
                         if called in defs and called not in reachable}
    for lam in entry_lambdas:
        _check_worker_body(lam, None, module_globals, path, findings)
    for name in sorted(reachable):
        for fn in defs[name]:
            _check_worker_body(fn, name, module_globals, path, findings)
    # Stores to attributes shared across threads are flagged regardless of
    # the (per-module) call graph: cross-module reachability is invisible
    # to it, and these attributes exist precisely to be shared.  Stores
    # inside ``__init__``/``__post_init__`` are construction, which
    # happens-before any sharing, and stay exempt.
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            attr = _shared_attribute_store(target)
            if attr is not None and not _in_constructor(node):
                findings.append(LintFinding(
                    path=path, line=node.lineno,
                    rule="worker-shared-mutation",
                    message="store into %r, which is shared across worker "
                            "threads" % attr))


# ---------------------------------------------------------------------------
# Rule: untyped-def
# ---------------------------------------------------------------------------


def _check_untyped_defs(tree: ast.AST, path: str,
                        findings: List[LintFinding]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        all_args = (args.posonlyargs + args.args + args.kwonlyargs
                    + ([args.vararg] if args.vararg else [])
                    + ([args.kwarg] if args.kwarg else []))
        unannotated = [a.arg for a in all_args if a.annotation is None]
        # The receiver of a method carries its type implicitly.
        if unannotated and unannotated[0] in ("self", "cls") \
                and (args.posonlyargs + args.args) \
                and (args.posonlyargs + args.args)[0].arg == unannotated[0]:
            unannotated = unannotated[1:]
        missing = []
        if unannotated:
            missing.append("parameter(s) %s" % ", ".join(unannotated))
        if node.returns is None:
            missing.append("return type")
        if missing:
            findings.append(LintFinding(
                path=path, line=node.lineno, rule="untyped-def",
                message="def %s is missing annotations: %s (this package "
                        "is strictly typed)"
                        % (node.name, "; ".join(missing))))


# ---------------------------------------------------------------------------
# Rule: blocking-in-async
# ---------------------------------------------------------------------------


def _coroutine_body(fn: ast.AsyncFunctionDef) -> Iterable[ast.AST]:
    """Nodes that run on the event loop inside one ``async def``.

    Nested ``def``s and lambdas are skipped: they execute wherever they are
    *called* (typically a worker thread), not in this coroutine.  Nested
    ``async def``s are skipped too — the outer walk visits them as
    coroutines of their own.
    """
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _blocking_call_reason(node: ast.Call) -> Optional[str]:
    """Why this call blocks the event loop, or ``None`` if it does not."""
    func = node.func
    if isinstance(func, ast.Attribute):
        if func.attr == "sleep" and isinstance(func.value, ast.Name) \
                and func.value.id == "time":
            return "time.sleep stalls the event loop; await asyncio.sleep"
        if func.attr == "result":
            return ".result() blocks on a future; await " \
                   "asyncio.wrap_future(...) instead"
        if func.attr in BLOCKING_ENGINE_CALLS:
            return "sync %s(...) runs the engine on the event loop; " \
                   "dispatch to the worker pool and await the future" \
                   % func.attr
    elif isinstance(func, ast.Name) and func.id in BLOCKING_ENGINE_CALLS:
        return "sync %s(...) runs the engine on the event loop; dispatch " \
               "to the worker pool and await the future" % func.id
    return None


def _check_blocking_in_async(tree: ast.AST, path: str,
                             findings: List[LintFinding]) -> None:
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.AsyncFunctionDef):
            continue
        for node in _coroutine_body(fn):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(_parent(node), ast.Await):
                continue
            reason = _blocking_call_reason(node)
            if reason is not None:
                findings.append(LintFinding(
                    path=path, line=node.lineno, rule="blocking-in-async",
                    message="blocking call inside async def %s: %s"
                            % (fn.name, reason)))


# ---------------------------------------------------------------------------
# Rule: unaccounted-allocation
# ---------------------------------------------------------------------------


def _is_constant_size(node: ast.AST) -> bool:
    """Literal int (or tuple of literal ints) shape: an O(1) allocation."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return True
    if isinstance(node, ast.Tuple):
        return bool(node.elts) and all(
            isinstance(elt, ast.Constant) and isinstance(elt.value, int)
            for elt in node.elts)
    return False


def _enclosing_function(node: ast.AST) -> Optional[ast.AST]:
    current = _parent(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = _parent(current)
    return None


def _has_budget_parameter(fn: ast.AST) -> bool:
    args = fn.args  # type: ignore[attr-defined]
    all_args = (args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else []))
    return any(arg.arg == "budget" for arg in all_args)


def _check_unaccounted_allocation(tree: ast.AST, path: str,
                                  findings: List[LintFinding]) -> None:
    """Data-sized ``np.*`` constructors outside budget-carrying functions.

    A function that takes a ``budget`` parameter participates in the
    reservation protocol — its caller reserved (or the function reserves)
    the bytes it materialises.  A data-sized allocation anywhere else in a
    spill-capable operator module bypasses the governor and must either
    move under the budget or carry a suppression explaining why the bytes
    are already accounted for.
    """
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ACCOUNTED_ALLOCATORS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"):
            continue
        if node.args and _is_constant_size(node.args[0]):
            continue
        fn = _enclosing_function(node)
        if fn is not None and _has_budget_parameter(fn):
            continue
        where = getattr(fn, "name", "<module>")
        findings.append(LintFinding(
            path=path, line=node.lineno, rule="unaccounted-allocation",
            message="np.%s allocates data-sized memory in %r, which has no "
                    "'budget' parameter: the reservation API cannot see "
                    "these bytes; thread the MemoryBudget through or "
                    "annotate why they are already accounted"
                    % (node.func.attr, where)))


# ---------------------------------------------------------------------------
# Rule: broad-except-swallow
# ---------------------------------------------------------------------------


def _catches_everything(handler: ast.ExceptHandler) -> Optional[str]:
    """What makes this handler catch-all, or ``None`` if it is typed.

    Only the genuinely unbounded forms count: a bare ``except:`` and any
    clause naming ``BaseException`` (alone or in a tuple).  ``except
    Exception`` stays legal — it already lets ``KeyboardInterrupt`` and
    ``SystemExit`` through, which is the property this rule protects.
    """
    if handler.type is None:
        return "bare except:"
    clauses = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    for clause in clauses:
        if isinstance(clause, ast.Name) and clause.id == "BaseException":
            return "except BaseException"
    return None


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """True if any code path in the handler body contains ``raise``.

    Nested ``def``s and lambdas are excluded — a ``raise`` inside a
    callback the handler merely *defines* does not re-raise the caught
    exception.
    """
    stack = list(handler.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.Raise):
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _check_broad_except_swallow(tree: ast.AST, path: str,
                                findings: List[LintFinding]) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = _catches_everything(node)
        if broad is None or _handler_reraises(node):
            continue
        findings.append(LintFinding(
            path=path, line=node.lineno, rule="broad-except-swallow",
            message="%s swallows every exception (KeyboardInterrupt, "
                    "MemoryError, injected faults) without re-raising; "
                    "catch the specific types, re-raise, or suppress with "
                    "a reason saying where the error goes" % broad))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _in_strict_package(path: str) -> bool:
    parts = Path(path).parts
    if "repro" not in parts:
        return False
    tail = parts[parts.index("repro") + 1:]
    return bool(tail) and tail[0] in STRICT_TYPED_PACKAGES


def _in_executor(path: str) -> bool:
    return "executor" in Path(path).parts


def _in_serving(path: str) -> bool:
    return "serving" in Path(path).parts


def _in_spill_operator(path: str) -> bool:
    p = Path(path)
    return "executor" in p.parts and p.name in SPILL_OPERATOR_MODULES


def lint_source(source: str, path: str = "<string>",
                strict_types: Optional[bool] = None,
                executor_rules: Optional[bool] = None,
                async_rules: Optional[bool] = None,
                spill_rules: Optional[bool] = None) -> List[LintFinding]:
    """Lint one module's source text; returns unsuppressed findings.

    ``strict_types`` / ``executor_rules`` / ``async_rules`` /
    ``spill_rules`` force the path-derived defaults for the
    ``untyped-def``, ``mask-accessor-bypass``, ``blocking-in-async`` and
    ``unaccounted-allocation`` rules (used by tests linting inline
    snippets).
    """
    if strict_types is None:
        strict_types = _in_strict_package(path)
    if executor_rules is None:
        executor_rules = _in_executor(path)
    if async_rules is None:
        async_rules = _in_serving(path)
    if spill_rules is None:
        spill_rules = _in_spill_operator(path)
    tree = ast.parse(source, filename=path)
    _add_parents(tree)
    allows, findings = _parse_allows(source, path)
    raw: List[LintFinding] = []
    _check_unordered_iteration(tree, path, raw)
    _check_sentinel_fill(tree, path, raw)
    _check_worker_shared_mutation(tree, path, raw)
    _check_broad_except_swallow(tree, path, raw)
    if executor_rules:
        _check_mask_accessor_bypass(tree, path, raw)
    if strict_types:
        _check_untyped_defs(tree, path, raw)
    if async_rules:
        _check_blocking_in_async(tree, path, raw)
    if spill_rules:
        _check_unaccounted_allocation(tree, path, raw)
    for finding in raw:
        if finding.rule in allows.get(finding.line, ()):
            continue
        findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.rule, f.message))
    return findings


def lint_paths(paths: Iterable[str]) -> List[LintFinding]:
    """Lint every ``.py`` file under the given files/directories."""
    files: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: List[LintFinding] = []
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, str(file_path)))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: lint the given paths (default ``src/repro``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Engine lint: repo-specific invariant rules "
                    "(see docs/analysis.md).")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    options = parser.parse_args(argv)
    findings = lint_paths(options.paths)
    for finding in findings:
        print(finding)
    if findings:
        print("%d finding(s)." % len(findings))
        return 1
    print("engine lint: clean.")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI
    raise SystemExit(main())
