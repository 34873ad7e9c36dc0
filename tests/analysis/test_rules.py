"""Per-rule positive/negative tests over the seeded fixtures.

Each ``*_bad.py`` fixture deliberately violates one rule; springlint
must flag every seeded violation (positive) and report nothing on the
matching ``*_good.py`` fixture (negative).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import default_analyzer

FIXTURES = Path(__file__).parent / "fixtures"


def run_rule(rule_name: str, fixture: str):
    analyzer = default_analyzer(selected=frozenset({rule_name}))
    return analyzer.run_paths([FIXTURES / fixture])


def messages(findings) -> str:
    return "\n".join(f.message for f in findings)


# -- buffer-lifecycle ---------------------------------------------------


def test_buffer_lifecycle_flags_every_seeded_violation():
    findings = run_rule("buffer-lifecycle", "buffer_bad.py")
    text = messages(findings)
    assert "is never released" in text
    assert "not released on all control-flow paths" in text
    assert "double release" in text
    assert "used after release" in text
    assert "not released before return" in text
    assert "not released when raising" in text
    assert "overwritten while still open" in text
    assert "acquired inside a loop" in text
    # the MarshalBuffer() constructor is tracked, not just acquire_buffer()
    assert any(f.message.startswith("buffer 'scratch'") for f in findings)
    assert all(f.rule == "buffer-lifecycle" for f in findings)
    assert all(f.severity == "error" for f in findings)


def test_buffer_lifecycle_accepts_correct_patterns():
    assert run_rule("buffer-lifecycle", "buffer_good.py") == []


def test_findings_carry_location_and_hint():
    findings = run_rule("buffer-lifecycle", "buffer_bad.py")
    assert findings, "fixture must produce findings"
    for finding in findings:
        assert finding.path.endswith("buffer_bad.py")
        assert finding.line > 0
        assert finding.hint


# -- span-balance -------------------------------------------------------


def test_span_balance_flags_every_seeded_violation():
    findings = run_rule("span-balance", "spans_bad.py")
    text = messages(findings)
    assert "is never ended" in text
    assert "not ended on all control-flow paths" in text
    assert "double end of span 'span'" in text
    assert "span 'span' used after end" in text
    assert "not ended before return" in text
    assert "not ended when raising" in text
    assert "overwritten while still open" in text
    assert "begun inside a loop" in text
    # ``span = begin_*() if enabled else None`` is an acquisition too
    assert "span 'invoke_span' begun in 'conditional_span_never_ended'" in text
    assert all(f.rule == "span-balance" for f in findings)
    assert all(f.severity == "error" for f in findings)
    assert all(f.hint for f in findings)


def test_span_balance_accepts_sanctioned_idioms():
    # with-statement (aliased and bare), try/finally end, per-branch
    # ends, ownership transfer via return, nested with-spans, and a
    # conditional span ended behind ``is not None`` in a finally.
    assert run_rule("span-balance", "spans_good.py") == []


def test_span_balance_does_not_fire_on_buffer_code():
    # The vocabularies are disjoint: buffer fixtures contain no
    # begin_*/end pairs, so the span rule stays silent on them.
    assert run_rule("span-balance", "buffer_bad.py") == []


def test_buffer_rule_ignores_span_code():
    assert run_rule("buffer-lifecycle", "spans_bad.py") == []


# -- subcontract-conformance --------------------------------------------


def test_conformance_flags_every_seeded_violation():
    findings = run_rule("subcontract-conformance", "conformance_bad.py")
    text = messages(findings)
    for op in ("copy", "consume", "marshal_rep", "unmarshal_rep"):
        assert f"does not implement required operation '{op}'" in text
    assert "does not define a wire id" in text
    assert "BadSignatureClient.invoke has an incompatible signature" in text
    assert "BadSignatureClient.copy has an incompatible signature" in text
    assert "SwallowsMarshalErrors silently swallows MarshalError" in text
    assert "'MissingRevokeServer' does not implement required operation 'revoke'" in text


def test_conformance_accepts_correct_subcontracts():
    # Intermediate bases, inherited ops (a leaf that inherits the whole
    # client tail and writes only invoke), wrapped-and-reraised marshal
    # errors, and defaulted extra parameters must all pass.
    assert run_rule("subcontract-conformance", "conformance_good.py") == []


# -- marshal-symmetry ---------------------------------------------------


def test_symmetry_flags_unpaired_kinds_in_both_directions():
    findings = run_rule("marshal-symmetry", "symmetry_bad.py")
    text = messages(findings)
    assert "writes a 'int32' item that unmarshal_rep never reads" in text
    assert "reads a 'bool' item that marshal_rep never writes" in text
    # full marshal/unmarshal pairs are checked too, both directions
    assert "marshal writes a 'bytes' item that unmarshal never reads" in text
    assert "unmarshal reads a 'string' item that marshal never writes" in text
    # ... and so are a representation's write/read hooks
    assert "RepHooksDisagree.write writes a 'int32' item that read never reads" in text
    assert "RepHooksDisagree.read reads a 'string' item that write never writes" in text


def test_symmetry_accepts_paired_kinds():
    # door_transit/door_id unify, peek counts as a read, loops and
    # branches are fine (set comparison, not order proof), a class
    # defining only one half of a pair is not checked, and a rep's
    # put_door/get_door hook callables are the door kind.
    assert run_rule("marshal-symmetry", "symmetry_good.py") == []


# -- lock-ordering ------------------------------------------------------


def test_lock_ordering_reports_lexical_and_call_cycles():
    findings = run_rule("lock-ordering", "locks_bad.py")
    text = messages(findings)
    assert "LexicalCycle._a_lock" in text and "LexicalCycle._b_lock" in text
    assert "CallCycle._x_lock" in text and "CallCycle._y_lock" in text
    assert all(f.severity == "warning" for f in findings)
    assert len(findings) == 2  # one finding per distinct cycle


def test_lock_ordering_accepts_consistent_order():
    # Consistent a-before-b (lexically and through calls), repeated
    # single-lock use, clocks, and with-Call() factories are all clean.
    assert run_rule("lock-ordering", "locks_good.py") == []


# -- clock-discipline ---------------------------------------------------


def test_clock_discipline_flags_wall_clock_and_formatted_charges():
    findings = run_rule("clock-discipline", "clock_bad.py")
    text = messages(findings)
    assert "time.time()" in text
    assert "time.monotonic_ns()" in text
    assert "pc()" in text  # from-import alias resolved to time.perf_counter
    assert "datetime.now()" in text
    assert text.count("formatted event name") == 4  # f-string, +, .format, advance


def test_clock_discipline_accepts_sim_clock_and_constants():
    # SimClock use, constant/hoisted charge names, charge_bytes, and a
    # justified inline suppression must all pass.
    assert run_rule("clock-discipline", "clock_good.py") == []


# -- clock-discipline: sanctioned wall-clock modules --------------------


def run_clock_rule_sanctioning(fixture: str, extra_sanctioned=()):
    from repro.analysis.engine import Analyzer
    from repro.analysis.rules.clock_discipline import (
        SANCTIONED_WALL_CLOCK_MODULES,
        ClockDisciplineRule,
    )

    rule = ClockDisciplineRule(
        sanctioned=SANCTIONED_WALL_CLOCK_MODULES + tuple(extra_sanctioned)
    )
    return Analyzer(rules=[rule]).run_paths([FIXTURES / fixture])


def test_sanctioned_module_with_justified_directive_is_clean():
    findings = run_clock_rule_sanctioning(
        "clock_sanctioned_good.py",
        extra_sanctioned=("clock_sanctioned_good.py",),
    )
    assert findings == []


def test_directive_in_unlisted_module_is_itself_reported():
    # The same good fixture under the *default* sanctioned list: the
    # directive does not silence anything, and is reported on top of the
    # wall-clock reads it failed to sanction.
    findings = run_rule("clock-discipline", "clock_sanctioned_good.py")
    text = messages(findings)
    assert "not on the sanctioned-module list" in text
    assert "wall-clock call time.monotonic()" in text
    assert "wall-clock call time.perf_counter()" in text


def test_unjustified_directive_is_reported_even_when_listed():
    findings = run_clock_rule_sanctioning(
        "clock_sanctioned_bad.py",
        extra_sanctioned=("clock_sanctioned_bad.py",),
    )
    text = messages(findings)
    assert "without a justification" in text
    # ...and the wall-clock reads stay flagged
    assert "wall-clock call time.monotonic()" in text


def test_sanctioning_never_relaxes_charge_site_discipline():
    findings = run_clock_rule_sanctioning(
        "clock_sanctioned_bad.py",
        extra_sanctioned=("clock_sanctioned_bad.py",),
    )
    assert "formatted event name" in messages(findings)


def test_sleep_is_a_wall_clock_call_outside_sanctioned_modules():
    findings = run_rule("clock-discipline", "clock_sleep_bad.py")
    text = messages(findings)
    assert "wall-clock call time.sleep()" in text
    assert "wall-clock call nap()" in text  # from-import alias resolved
    assert len(findings) == 2

    sanctioned = "clock_sleep_sanctioned.py"
    assert run_clock_rule_sanctioning(sanctioned, (sanctioned,)) == []
    assert "wall-clock call time.sleep()" in messages(
        run_rule("clock-discipline", sanctioned)
    )


def test_procfabric_modules_are_sanctioned_by_default():
    # The real transport modules ship with justified directives and are
    # on the default list: springlint stays clean over src.
    repo_src = Path(__file__).resolve().parents[2] / "src" / "repro" / "net"
    for module in ("procfabric.py", "procworker.py"):
        findings = run_rule("clock-discipline", str(repo_src / module))
        assert findings == [], messages(findings)


# -- unbounded-queue ----------------------------------------------------


def test_unbounded_queue_flags_every_seeded_violation():
    findings = run_rule("unbounded-queue", "queues_bad.py")
    text = messages(findings)
    # unbounded constructions landing in queue-ish names
    assert "Queue() bound to request_queue has no maxsize" in text
    assert "Queue() bound to pending has no maxsize" in text  # maxsize=0
    assert "LifoQueue() bound to backlog" in text
    assert "PriorityQueue() bound to inbox" in text
    assert "SimpleQueue() bound to waiting_calls cannot be bounded" in text
    assert "deque() bound to wait_queue has no maxlen" in text
    assert "deque() bound to pending_work has no maxlen" in text
    assert "Queue() bound to inbox has no maxsize" in text  # self.inbox
    # blocking while holding an admission permit
    assert "blocking call sleep() while holding an admission permit" in text
    assert "blocking call get() while holding an admission permit" in text
    assert "blocking call acquire() while holding an admission permit" in text
    assert "blocking call join() while holding an admission permit" in text
    assert all(f.rule == "unbounded-queue" for f in findings)
    assert all(f.severity == "error" for f in findings)
    assert all(f.hint for f in findings)


def test_unbounded_queue_accepts_bounded_and_clean_windows():
    # Explicit maxsize/maxlen (keyword or positional), runtime-computed
    # bounds, non-queue-ish names, and blocking strictly before admit()
    # or after complete() must all pass.
    assert run_rule("unbounded-queue", "queues_good.py") == []


# -- cross-module lock-ordering (whole-program) -------------------------


def test_lock_ordering_finds_cross_module_cycle_at_depth_two():
    # Registry.register (module a) holds _reg_lock and calls
    # Relay.forward (module b), a lock-free shim whose callee _bounce
    # holds _relay_lock and re-enters Registry.audit.  The cycle spans a
    # module boundary AND hides one call deep: only the project-wide
    # call graph with the transitive acquire closure can see it.
    analyzer = default_analyzer(selected=frozenset({"lock-ordering"}))
    findings = analyzer.run_paths(
        [FIXTURES / "xmod_cycle_a.py", FIXTURES / "xmod_cycle_b.py"]
    )
    assert len(findings) == 1, messages(findings)
    assert "lock-ordering cycle" in findings[0].message
    assert "Registry._reg_lock" in findings[0].message
    assert "Relay._relay_lock" in findings[0].message


def test_lock_ordering_cycle_is_invisible_module_at_a_time():
    # The proof that the whole-program upgrade matters: analyzing either
    # half alone — the old per-module scope — reports nothing.
    analyzer = default_analyzer(selected=frozenset({"lock-ordering"}))
    assert analyzer.run_paths([FIXTURES / "xmod_cycle_a.py"]) == []
    assert analyzer.run_paths([FIXTURES / "xmod_cycle_b.py"]) == []


# -- shared-state-discipline --------------------------------------------


def test_shared_state_flags_every_seeded_violation():
    findings = run_rule("shared-state-discipline", "shared_bad.py")
    text = messages(findings)
    assert "Ledger.balance mutated outside" in text
    assert "Ledger.entries.append() mutated outside" in text
    assert "Teller.stats[...] mutated outside" in text
    assert len(findings) == 5, messages(findings)
    assert all(f.rule == "shared-state-discipline" for f in findings)
    assert all(f.severity == "warning" for f in findings)
    assert all(f.hint for f in findings)


def test_shared_state_helper_flagged_when_one_call_site_is_unlocked():
    # helper_with_unlocked_caller is called once under the lock and once
    # without: the protection fixpoint must evict it and flag its write.
    findings = run_rule("shared-state-discipline", "shared_bad.py")
    lines = {f.line for f in findings}
    import ast as _ast

    src = (FIXTURES / "shared_bad.py").read_text()
    tree = _ast.parse(src)
    helper = next(
        node
        for node in _ast.walk(tree)
        if isinstance(node, _ast.FunctionDef)
        and node.name == "helper_with_unlocked_caller"
    )
    assert any(helper.lineno < line <= helper.end_lineno for line in lines)


def test_shared_state_accepts_disciplined_mutation():
    # Locked writes, __init__ construction, a door handler, a helper
    # whose every call site holds the lock, and plain reads: all clean.
    assert run_rule("shared-state-discipline", "shared_good.py") == []


def test_shared_state_constructor_assignment_inference_fires():
    # No annotation anywhere names Table; the rule learns self.table's
    # class from the __init__ assignment and checks mutations one
    # attribute hop deep (the membership/election code shape).
    findings = run_rule("shared-state-discipline", "membership_bad.py")
    text = messages(findings)
    assert "Table.incarnation mutated outside" in text
    assert "Table.rows[...] mutated outside" in text
    assert "Table.rows.update() mutated outside" in text
    assert len(findings) == 5, messages(findings)


def test_shared_state_constructor_assignment_accepts_discipline():
    # Locked nested writes, reads, and an always-locked helper: clean.
    assert run_rule("shared-state-discipline", "membership_good.py") == []


# -- metrics-naming -----------------------------------------------------


def test_metrics_naming_flags_every_seeded_violation():
    findings = run_rule("metrics-naming", "metrics_bad.py")
    text = messages(findings)
    # runtime-computed event names (f-string, concat, variable)
    assert text.count("event name is computed at runtime") == 3
    # malformed literal event names (undotted, uppercase)
    assert "'hit' is not of the dotted" in text
    assert "'Cache.Hit' is not of the dotted" in text
    # runtime-computed counter/histogram names, incl. keyword name=
    assert text.count("counter name is computed at runtime") == 3
    assert "histogram name is computed at runtime" in text
    assert len(findings) == 9, messages(findings)
    assert all(f.rule == "metrics-naming" for f in findings)
    assert all(f.severity == "error" for f in findings)
    assert all(f.hint for f in findings)


def test_metrics_naming_accepts_literal_emit_sites():
    # dotted literals, conditional-over-literals, computed *scope* with a
    # literal name, non-tracer receivers, and a justified suppression.
    assert run_rule("metrics-naming", "metrics_good.py") == []


# -- compensation-discipline --------------------------------------------


def test_compensation_discipline_flags_every_seeded_violation():
    findings = run_rule("compensation-discipline", "compensation_bad.py")
    text = messages(findings)
    # steps with no compensation (omitted, explicit None, attribute
    # receiver)
    assert text.count("saga step registered without a compensation") == 3
    # unbounded memo constructions (entries=None, 0, negative)
    assert text.count("dedup memo constructed without a bound") == 3
    assert len(findings) == 6, messages(findings)
    assert all(f.rule == "compensation-discipline" for f in findings)
    assert all(f.severity == "error" for f in findings)
    assert all(f.hint for f in findings)


def test_compensation_discipline_accepts_disciplined_sagas():
    # registered compensations (keyword and positional), explicit
    # irreversible=True, relayed non-literal compensations, bounded
    # memos, non-saga .run() receivers, and a justified suppression.
    assert run_rule("compensation-discipline", "compensation_good.py") == []
