"""buffer-lifecycle: every acquired MarshalBuffer must be closed.

PR 1 made the invocation hot path pool its communication buffers; a
buffer acquired from a domain free-list (``domain.acquire_buffer()``)
or constructed directly (``MarshalBuffer(kernel)``) must therefore be
**released**, **recycled**, **discarded**, or **returned to the caller**
on every control-flow path, and never touched again once released.

The rule runs a small abstract interpretation over each function body.
Each buffer-bound local is tracked through one of five states::

    OPEN ──release/recycle──▶ CLOSED
    OPEN ──discard──────────▶ DISCARDED   (counts as closed at exit)
    OPEN ──return buf / return f(buf)──▶ ESCAPED (ownership left)
    branch merge where only some paths closed ──▶ MAYBE

Explicit control flow (if/else, loops, try/finally, return, raise) is
modelled; implicit exception edges out of arbitrary calls are not — the
sanctioned patterns are exactly ``try/finally`` around the risky region
or a tail return, which is what the hot path uses.  A close that only
appears in a ``finally`` block protects every exit from its ``try``.

Violations reported:

* ``never released`` / ``not released on all control-flow paths``
* ``double release`` (second release/recycle on a CLOSED buffer)
* ``use after release`` (any read of a CLOSED buffer variable)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, Rule, SourceModule

__all__ = ["BufferLifecycleRule"]

OPEN = "open"
MAYBE = "maybe"
CLOSED = "closed"
DISCARDED = "discarded"
ESCAPED = "escaped"

_CLOSED_ISH = {CLOSED, DISCARDED, ESCAPED}

_ACQUIRE_METHODS = frozenset({"acquire_buffer"})
_CTOR_NAMES = frozenset({"MarshalBuffer"})
_RELEASERS = frozenset({"release", "recycle"})
_DISCARDERS = frozenset({"discard"})


class _Var:
    __slots__ = ("state", "line", "col")

    def __init__(self, state: str, line: int, col: int) -> None:
        self.state = state
        self.line = line
        self.col = col

    def copy(self) -> "_Var":
        return _Var(self.state, self.line, self.col)


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


class _FunctionAnalysis:
    """Abstract interpretation of one function body.

    The control-flow machinery is parameterized by class attributes so
    other paired-resource rules (span-balance) can subclass it with
    their own acquire/close vocabulary while reusing the walker.
    """

    #: call shapes that create a tracked resource
    acquire_methods: frozenset[str] = _ACQUIRE_METHODS
    ctor_names: frozenset[str] = _CTOR_NAMES
    #: method names that close / discard a tracked resource
    releasers: frozenset[str] = _RELEASERS
    discarders: frozenset[str] = _DISCARDERS
    #: message vocabulary ("buffer ... acquired ... never released")
    noun = "buffer"
    acquired_word = "acquired"
    closed_word = "released"
    release_word = "release"
    leak_hint = (
        "release()/recycle() it in a finally block, or return it to "
        "transfer ownership"
    )
    double_hint = (
        "the second release corrupts the pool at runtime "
        "(BufferLifecycleError); remove it"
    )
    use_hint = (
        "a released buffer may already belong to another "
        "caller; restructure so the release is last"
    )
    #: when True, ``with acquire() as x:`` (or ``with tracked_name:``)
    #: is balanced by definition — the context manager closes on exit.
    #: Buffers are not context managers, so this stays off here.
    context_managed = False

    def __init__(self, rule: "BufferLifecycleRule", module: SourceModule, func_name: str):
        self.rule = rule
        self.module = module
        self.func_name = func_name
        self.findings: list[Finding] = []
        #: (var, line) pairs already reported, to avoid duplicate noise
        self._reported: set[tuple[str, int, str]] = set()

    # -- finding helpers ------------------------------------------------

    def _emit(self, kind: str, name: str, line: int, col: int, message: str, hint: str) -> None:
        key = (name, line, kind)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(
            self.rule.finding(self.module, line, col, message, hint)
        )

    def _leak(self, name: str, var: _Var, why: str) -> None:
        self._emit(
            "leak",
            name,
            var.line,
            var.col,
            f"{self.noun} {name!r} {self.acquired_word} in {self.func_name!r} is {why}",
            self.leak_hint,
        )

    def _is_acquisition(self, node: ast.expr) -> bool:
        if isinstance(node, ast.IfExp):
            # ``span = tracer.begin_invoke(...) if tracer.enabled else None``
            return self._is_acquisition(node.body) or self._is_acquisition(node.orelse)
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in self.acquire_methods:
            return True
        if isinstance(func, ast.Name) and func.id in self.ctor_names:
            return True
        if isinstance(func, ast.Attribute) and func.attr in self.ctor_names:
            return True
        return False

    # -- interpretation -------------------------------------------------

    def run(self, body: list[ast.stmt]) -> None:
        env: dict[str, _Var] = {}
        terminated = self._block(body, env, protected=frozenset())
        if not terminated:
            self._check_fallthrough(env)

    def _check_fallthrough(self, env: dict[str, _Var]) -> None:
        for name, var in env.items():
            if var.state == OPEN:
                self._leak(name, var, f"never {self.closed_word}")
            elif var.state == MAYBE:
                self._leak(
                    name, var, f"not {self.closed_word} on all control-flow paths"
                )

    def _check_exit(self, env: dict[str, _Var], protected: frozenset[str], keep: set[str], why: str) -> None:
        """A return/raise leaves the function: open vars leak unless a
        pending finally closes them or they escape through this exit."""
        for name, var in env.items():
            if name in protected or name in keep:
                continue
            if var.state in (OPEN, MAYBE):
                self._leak(name, var, why)

    def _use_check(self, node: ast.AST, env: dict[str, _Var]) -> None:
        for name in _names_in(node):
            var = env.get(name)
            if var is not None and var.state == CLOSED:
                self._emit(
                    "use-after-release",
                    name,
                    getattr(node, "lineno", var.line),
                    getattr(node, "col_offset", 0),
                    f"{self.noun} {name!r} used after {self.release_word}",
                    self.use_hint,
                )

    def _merge(self, base: dict[str, _Var], branches: list[tuple[dict[str, _Var], bool]]) -> dict[str, _Var]:
        """Join branch environments; ``branches`` pairs env with a
        terminated flag (terminated branches don't constrain the join)."""
        live = [env for env, terminated in branches if not terminated]
        if not live:
            # Every branch returned/raised: nothing flows past the join.
            return {}
        names = set()
        for env in live:
            names |= set(env)
        merged: dict[str, _Var] = {}
        for name in names:
            states = {env[name].state if name in env else None for env in live}
            anchor = next(env[name] for env in live if name in env)
            if None in states:
                # Acquired in some branches only.
                states.discard(None)
                state = next(iter(states)) if states <= _CLOSED_ISH else MAYBE
                if states == {OPEN}:
                    state = MAYBE
            elif len(states) == 1:
                state = next(iter(states))
            elif states <= _CLOSED_ISH:
                state = CLOSED
            else:
                state = MAYBE
            merged[name] = _Var(state, anchor.line, anchor.col)
        return merged

    def _finally_closers(self, finalbody: list[ast.stmt]) -> set[str]:
        """Names closed (released/recycled/discarded) anywhere in a
        finally block."""
        closers: set[str] = set()
        for node in ast.walk(ast.Module(body=finalbody, type_ignores=[])):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in (self.releasers | self.discarders)
                and isinstance(node.func.value, ast.Name)
            ):
                closers.add(node.func.value.id)
        return closers

    def _block(self, stmts: list[ast.stmt], env: dict[str, _Var], protected: frozenset[str]) -> bool:
        """Interpret a statement list in place; returns True when the
        block always terminates (return/raise/break/continue)."""
        for stmt in stmts:
            if self._stmt(stmt, env, protected):
                return True
        return False

    def _stmt(self, stmt: ast.stmt, env: dict[str, _Var], protected: frozenset[str]) -> bool:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assign(stmt, env)
            return False

        if isinstance(stmt, ast.Expr):
            self._expr_stmt(stmt.value, env)
            return False

        if isinstance(stmt, ast.Return):
            keep: set[str] = set()
            if stmt.value is not None:
                returned = _names_in(stmt.value)
                for name in returned & set(env):
                    if env[name].state == CLOSED:
                        self._use_check(stmt, {name: env[name]})
                    env[name] = _Var(ESCAPED, env[name].line, env[name].col)
                keep = returned
            self._check_exit(
                env,
                protected,
                keep,
                f"not {self.closed_word} before return (line {stmt.lineno})",
            )
            return True

        if isinstance(stmt, ast.Raise):
            self._use_check(stmt, env)
            self._check_exit(
                env,
                protected,
                set(),
                f"not {self.closed_word} when raising (line {stmt.lineno})",
            )
            return True

        if isinstance(stmt, (ast.Break, ast.Continue)):
            return True

        if isinstance(stmt, ast.If):
            self._use_check(stmt.test, env)
            then_env = {k: v.copy() for k, v in env.items()}
            else_env = {k: v.copy() for k, v in env.items()}
            # ``if span is not None: span.end()``: on the other branch the
            # conditional acquisition yielded None, nothing is open.
            test = stmt.test
            if (
                isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name)
                and test.left.id in else_env
                and len(test.ops) == 1
                and isinstance(test.ops[0], ast.IsNot)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None
            ):
                else_env[test.left.id].state = ESCAPED
            t_term = self._block(stmt.body, then_env, protected)
            e_term = self._block(stmt.orelse, else_env, protected)
            env.clear()
            env.update(self._merge(env, [(then_env, t_term), (else_env, e_term)]))
            return t_term and e_term

        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._use_check(stmt.iter, env)
            self._loop_body(stmt.body, env, protected)
            self._block(stmt.orelse, env, protected)
            return False

        if isinstance(stmt, ast.While):
            self._use_check(stmt.test, env)
            self._loop_body(stmt.body, env, protected)
            self._block(stmt.orelse, env, protected)
            return False

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if self.context_managed and self._is_acquisition(item.context_expr):
                    # ``with begin_*(...) as name:`` — __exit__ closes it
                    # on every path, including exceptions.
                    if isinstance(item.optional_vars, ast.Name):
                        env[item.optional_vars.id] = _Var(
                            ESCAPED, stmt.lineno, stmt.col_offset
                        )
                    continue
                self._use_check(item.context_expr, env)
                ce = item.context_expr
                if (
                    self.context_managed
                    and isinstance(ce, ast.Name)
                    and ce.id in env
                    and env[ce.id].state in (OPEN, MAYBE)
                ):
                    # ``with tracked_name:`` — the context manager takes
                    # over closing responsibility.
                    env[ce.id] = _Var(ESCAPED, env[ce.id].line, env[ce.id].col)
                    if isinstance(item.optional_vars, ast.Name):
                        env[item.optional_vars.id] = _Var(
                            ESCAPED, stmt.lineno, stmt.col_offset
                        )
            return self._block(stmt.body, env, protected)

        if isinstance(stmt, ast.Try):
            return self._try(stmt, env, protected)

        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested scope capturing a tracked buffer takes ownership
            # decisions we cannot see; stop tracking captured names.
            captured = _names_in(stmt) & set(env)
            for name in captured:
                env[name] = _Var(ESCAPED, env[name].line, env[name].col)
            return False

        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id in env:
                    var = env[target.id]
                    if var.state in (OPEN, MAYBE):
                        self._leak(target.id, var, "deleted while still open")
                    del env[target.id]
            return False

        if isinstance(stmt, (ast.Global, ast.Nonlocal)):
            for name in stmt.names:
                env.pop(name, None)
            return False

        # Assert, Pass, Import, ExprStatement oddities...
        self._use_check(stmt, env)
        return False

    def _loop_body(self, body: list[ast.stmt], env: dict[str, _Var], protected: frozenset[str]) -> None:
        before = set(env)
        body_env = {k: v.copy() for k, v in env.items()}
        terminated = self._block(body, body_env, protected)
        for name, var in body_env.items():
            if name not in before and var.state in (OPEN, MAYBE) and not terminated:
                self._leak(
                    name,
                    var,
                    f"{self.acquired_word} inside a loop but not "
                    f"{self.closed_word} by the end of the loop body",
                )
        merged = self._merge({}, [(body_env, terminated), (dict(env), False)])
        env.clear()
        env.update(merged)

    def _try(self, stmt: ast.Try, env: dict[str, _Var], protected: frozenset[str]) -> bool:
        closers = self._finally_closers(stmt.finalbody)
        inner_protected = protected | closers
        entry_env = {k: v.copy() for k, v in env.items()}
        body_term = self._block(stmt.body, env, inner_protected)
        body_term = self._block(stmt.orelse, env, inner_protected) or body_term

        handler_branches: list[tuple[dict[str, _Var], bool]] = []
        for handler in stmt.handlers:
            handler_env = {k: v.copy() for k, v in entry_env.items()}
            h_term = self._block(handler.body, handler_env, inner_protected)
            handler_branches.append((handler_env, h_term))

        merged = self._merge({}, [(env, body_term), *handler_branches])
        env.clear()
        env.update(merged)
        final_term = self._block(stmt.finalbody, env, protected)
        return final_term or (body_term and all(t for _, t in handler_branches) and bool(stmt.handlers))

    # -- assignments and calls ------------------------------------------

    def _assign(self, stmt: ast.stmt, env: dict[str, _Var]) -> None:
        value = getattr(stmt, "value", None)
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        if value is None:
            return
        if self._is_acquisition(value):
            if len(targets) == 1 and isinstance(targets[0], ast.Name):
                name = targets[0].id
                prior = env.get(name)
                if prior is not None and prior.state in (OPEN, MAYBE):
                    self._leak(name, prior, "overwritten while still open")
                env[name] = _Var(OPEN, stmt.lineno, stmt.col_offset)
            # Acquisition into an attribute/subscript: ownership is
            # stored somewhere we cannot track; nothing to do.
            return
        self._use_check(value, env)
        for target in targets:
            if isinstance(target, ast.Name) and target.id in env:
                var = env[target.id]
                if isinstance(value, ast.Name) and value.id == target.id:
                    continue
                if var.state in (OPEN, MAYBE):
                    self._leak(target.id, var, "rebound while still open")
                del env[target.id]

    def _expr_stmt(self, value: ast.expr, env: dict[str, _Var]) -> None:
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id in env
        ):
            name = value.func.value.id
            var = env[name]
            method = value.func.attr
            if method in self.releasers:
                if var.state == CLOSED:
                    self._emit(
                        "double-release",
                        name,
                        value.lineno,
                        value.col_offset,
                        f"double {self.release_word} of {self.noun} {name!r}",
                        self.double_hint,
                    )
                else:
                    env[name] = _Var(CLOSED, var.line, var.col)
                for arg in value.args:
                    self._use_check(arg, env)
                return
            if method in self.discarders:
                if var.state not in _CLOSED_ISH:
                    env[name] = _Var(DISCARDED, var.line, var.col)
                return
        self._use_check(value, env)


class BufferLifecycleRule(Rule):
    name = "buffer-lifecycle"
    description = (
        "acquire_buffer()/MarshalBuffer() results must be released, "
        "discarded, recycled, or returned on every control-flow path; "
        "flags double release and use-after-release"
    )
    #: subclass hook: the walker class used per function (span-balance
    #: swaps in its own vocabulary)
    analysis_class = _FunctionAnalysis

    def finding(self, module: SourceModule, line: int, col: int, message: str, hint: str) -> Finding:
        return Finding(
            rule=self.name,
            path=module.path,
            line=line,
            col=col,
            severity="error",
            message=message,
            hint=hint,
        )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                analysis = self.analysis_class(self, module, node.name)
                analysis.run(node.body)
                yield from analysis.findings
