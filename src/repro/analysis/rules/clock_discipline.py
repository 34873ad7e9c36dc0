"""clock-discipline: simulated time must stay simulated, and cheap.

The whole repository runs on a deterministic :class:`SimClock`; one
stray ``time.time()`` in a simulated path makes runs irreproducible in a
way no test catches until a benchmark drifts.  And the sharded clock's
hot path (``charge``) is only cheap if call sites pass precomputed
constant event names — an f-string at the call site re-introduces the
per-call formatting cost the accounting overhaul removed.

Two checks:

* **wall-clock calls** — ``time.time``, ``time.monotonic``,
  ``time.perf_counter``, ``time.process_time``, ``time.time_ns`` (and
  ``_ns`` variants), ``datetime.now``/``utcnow`` are banned, and so is
  ``time.sleep``: a sleep-poll waits on the host clock without ever
  reading it.  Dotted names are resolved through the module's import
  table, so ``from time import perf_counter as pc; pc()`` is still
  caught.
* **charge-site formatting** — the event-name argument of
  ``.charge(...)``/``.charge_cycles(...)`` (first argument) and the
  category argument of ``.advance(...)`` (second argument) must not be
  an f-string, string concatenation/``%`` expression, or ``.format()``
  call.  Names and constants are fine: hoist the formatting to module
  level and pass the precomputed string.

``charge_bytes`` is exempt — its arguments are sizes, not names.

**Sanctioned wall-clock modules.**  A few modules legitimately live on
the host clock: the process fabric's supervisor and worker loops block
on real sockets and real join timeouts — wall-clock use there *is* the
transport, not a simulated path.  Rather than scattering inline
suppressions over every call, such a module declares itself once with a
file-level directive::

    # springlint: wall-clock-module -- <why this module may block on host time>

The directive only takes effect when the module's path is also on the
rule's sanctioned-module list (:data:`SANCTIONED_WALL_CLOCK_MODULES` by
default) — a directive in an unlisted module is itself reported, as is a
listed module whose directive omits the justification.  Sanctioning
silences only the wall-clock check; charge-site formatting is still
enforced (a sanctioned module that also touches the sim clock gets no
free pass on accounting discipline).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Iterable, Iterator

from repro.analysis.engine import Finding, Rule, SourceModule

__all__ = ["ClockDisciplineRule", "SANCTIONED_WALL_CLOCK_MODULES"]

#: modules allowed to read the host clock (path suffixes, "/"-separated);
#: each must also carry a justified ``wall-clock-module`` directive
SANCTIONED_WALL_CLOCK_MODULES = (
    "repro/net/procfabric.py",
    "repro/net/procworker.py",
)

#: the file-level sanction directive; the justification after ``--`` is
#: mandatory so the *reason* a module may block on host time is recorded
#: next to the declaration
_SANCTION_RE = re.compile(
    r"#\s*springlint:\s*wall-clock-module\s*(?:--\s*(?P<why>\S.*))?"
)

#: fully-qualified callables that read, or wait on, the host's wall clock
_BANNED = {
    "time.sleep",
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

#: method name -> index of the event/category argument that must be
#: precomputed (no formatting work on the hot path)
_CHARGE_ARG = {"charge": 0, "charge_cycles": 0, "advance": 1}


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_table(tree: ast.Module) -> dict[str, str]:
    """Local name -> fully qualified name, from import statements."""
    table: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def _is_formatting(node: ast.expr) -> bool:
    if isinstance(node, ast.JoinedStr):
        return True
    if isinstance(node, ast.BinOp):  # "a" + x, "fmt %s" % x
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("format", "join")
    ):
        return True
    return False


class ClockDisciplineRule(Rule):
    name = "clock-discipline"
    description = (
        "no wall-clock reads in simulated paths; SimClock charge sites "
        "must pass precomputed event names"
    )

    def __init__(
        self, sanctioned: Iterable[str] = SANCTIONED_WALL_CLOCK_MODULES
    ) -> None:
        self.sanctioned = tuple(sanctioned)

    def _is_sanctioned_path(self, module: SourceModule) -> bool:
        path = str(module.path).replace("\\", "/")
        return any(path.endswith(suffix) for suffix in self.sanctioned)

    @staticmethod
    def _find_directive(module: SourceModule) -> tuple[re.Match | None, int]:
        """The module's sanction directive, from real comment tokens only
        (a directive quoted inside a docstring is documentation)."""
        try:
            tokens = tokenize.generate_tokens(io.StringIO(module.text).readline)
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    match = _SANCTION_RE.match(tok.string)
                    if match is not None:
                        return match, tok.start[0]
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            pass
        return None, 0

    def check(self, module: SourceModule) -> Iterator[Finding]:
        directive, line = self._find_directive(module)
        wall_clock_ok = False
        if directive is not None:
            if not self._is_sanctioned_path(module):
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=line,
                    col=0,
                    severity="error",
                    message=(
                        "wall-clock-module directive in a module that is "
                        "not on the sanctioned-module list"
                    ),
                    hint="add the module to SANCTIONED_WALL_CLOCK_MODULES "
                    "(with review) or drop the directive",
                )
            elif not directive.group("why"):
                yield Finding(
                    rule=self.name,
                    path=module.path,
                    line=line,
                    col=0,
                    severity="error",
                    message=(
                        "wall-clock-module directive without a "
                        "justification"
                    ),
                    hint="append '-- <why this module may block on host "
                    "time>' to the directive",
                )
            else:
                wall_clock_ok = True
        imports = _import_table(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if not wall_clock_ok:
                yield from self._check_wall_clock(module, imports, node)
            yield from self._check_charge_site(module, node)

    def _check_wall_clock(
        self, module: SourceModule, imports: dict[str, str], node: ast.Call
    ) -> Iterator[Finding]:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        head, _, rest = dotted.partition(".")
        resolved = imports.get(head, head) + (f".{rest}" if rest else "")
        if resolved in _BANNED or dotted in _BANNED:
            yield Finding(
                rule=self.name,
                path=module.path,
                line=node.lineno,
                col=node.col_offset,
                severity="error",
                message=(
                    f"wall-clock call {dotted}() in a simulated-path "
                    "module breaks run determinism"
                ),
                hint="use the kernel's SimClock (clock.now() / "
                "clock.advance()) instead of host time",
            )

    def _check_charge_site(
        self, module: SourceModule, node: ast.Call
    ) -> Iterator[Finding]:
        if not isinstance(node.func, ast.Attribute):
            return
        arg_index = _CHARGE_ARG.get(node.func.attr)
        if arg_index is None or len(node.args) <= arg_index:
            return
        arg = node.args[arg_index]
        if _is_formatting(arg):
            yield Finding(
                rule=self.name,
                path=module.path,
                line=arg.lineno,
                col=arg.col_offset,
                severity="error",
                message=(
                    f"{node.func.attr}() is called with a formatted "
                    "event name: string building on the accounting hot "
                    "path defeats the precomputed-constant design"
                ),
                hint="hoist the name to a module-level constant (e.g. "
                '_EV_SEND = "net.send") and pass that',
            )
