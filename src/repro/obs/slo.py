"""Declarative SLOs over windowed telemetry, with burn-rate alerting.

An :class:`SloPolicy` states a target over a ``(scope, name)`` pair in
a :class:`~repro.obs.windows.WindowedSeries` — a latency quantile
ceiling, an error-rate ceiling, a goodput floor, or any combination —
and the :class:`SloEngine` evaluates it with the standard multi-window
burn-rate construction: a window *violates* when any target is missed
inside it, and the policy's alert state comes from the fraction of
violating windows over a short (``fast_windows``) and a long
(``slow_windows``) lookback:

* ``page`` — the fast burn is at/above ``fast_burn`` *and* the slow
  burn is at/above ``slow_burn``: the violation is both current and
  sustained (a single glitchy window never pages);
* ``warn`` — exactly one of the two burns trips: either a fresh spike
  the long window has not yet confirmed, or a slow bleed the current
  window happens not to show;
* ``ok`` — neither trips.

Everything runs on simulated time over deterministic windows, so the
same seed produces the same alert states — the soak test diffs whole
SLO reports across runs byte for byte.  Evaluation reads only *closed*
data structures (no clock access, no wall time): it can run live
against a series or offline against a merged snapshot dict pulled over
the wire (``evaluate_snapshot``), and both paths produce identical
states for identical windows, because sketch quantiles depend only on
integer bucket counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.obs.windows import _unpack

if TYPE_CHECKING:
    from repro.obs.windows import WindowedSeries, _Window

__all__ = ["SloPolicy", "SloEngine", "render_slo", "slo_json"]


@dataclass(frozen=True)
class SloPolicy:
    """One service-level objective over windowed telemetry.

    ``scope``/``latency_metric`` name the sketch carrying latencies
    (e.g. ``("counter", "invoke_sim_us")`` for a subcontract, or
    ``("door", "<door-label>.sim_us")`` for one door); ``calls`` and
    ``errors`` name the counters used for error rate and goodput.
    Unset targets are not evaluated.
    """

    name: str
    scope: str
    latency_metric: str = "invoke_sim_us"
    calls: str = "invocations"
    errors: str = "errors"
    #: latency target: quantile ``latency_q`` must stay <= this
    latency_p_us: float | None = None
    latency_q: float = 0.99
    #: error-rate ceiling (errors / calls), evaluated per window
    max_error_rate: float | None = None
    #: goodput floor: (calls - errors) per window must reach this
    min_goodput_per_window: float | None = None
    #: lookbacks, in windows
    fast_windows: int = 2
    slow_windows: int = 12
    #: burn thresholds: fraction of violating windows in each lookback
    fast_burn: float = 1.0
    slow_burn: float = 0.5

    def __post_init__(self) -> None:
        if self.fast_windows < 1 or self.slow_windows < self.fast_windows:
            raise ValueError(
                f"need 1 <= fast_windows <= slow_windows, got "
                f"{self.fast_windows}/{self.slow_windows}"
            )
        if not 0.0 < self.latency_q < 1.0:
            raise ValueError(f"latency_q must be in (0, 1), got {self.latency_q!r}")
        if (
            self.latency_p_us is None
            and self.max_error_rate is None
            and self.min_goodput_per_window is None
        ):
            raise ValueError(f"SLO {self.name!r} sets no target")


class SloEngine:
    """Evaluates a set of policies against windowed telemetry."""

    def __init__(self, policies: "list[SloPolicy] | tuple[SloPolicy, ...]" = ()) -> None:
        self.policies: list[SloPolicy] = list(policies)

    def add(self, policy: SloPolicy) -> SloPolicy:
        self.policies.append(policy)
        return policy

    # -- evaluation -----------------------------------------------------

    def _violates(self, policy: SloPolicy, window: "_Window") -> tuple[bool, dict]:
        measured: dict = {}
        violated = False
        calls = window.counters.get((policy.scope, policy.calls), 0)
        errors = window.counters.get((policy.scope, policy.errors), 0)
        if policy.latency_p_us is not None:
            sketch = window.sketches.get((policy.scope, policy.latency_metric))
            quantile = None if sketch is None else sketch.quantile(policy.latency_q)
            measured["latency_p_us"] = quantile
            if quantile is not None and quantile > policy.latency_p_us:
                violated = True
        if policy.max_error_rate is not None:
            rate = errors / calls if calls else 0.0
            measured["error_rate"] = round(rate, 6)
            if rate > policy.max_error_rate:
                violated = True
        if policy.min_goodput_per_window is not None:
            goodput = calls - errors
            measured["goodput"] = goodput
            if goodput < policy.min_goodput_per_window:
                violated = True
        return violated, measured

    def _evaluate_windows(self, windows: "list[_Window]") -> list[dict]:
        """Alert states over ``windows``, oldest first."""
        states = []
        for policy in self.policies:
            lookback = windows[-policy.slow_windows :]
            verdicts = [self._violates(policy, window) for window in lookback]
            violations = [v for v, _ in verdicts]
            fast = violations[-policy.fast_windows :]
            fast_burn = sum(fast) / len(fast) if fast else 0.0
            slow_burn = (
                sum(violations) / len(violations) if violations else 0.0
            )
            fast_hot = fast_burn >= policy.fast_burn and bool(fast)
            slow_hot = slow_burn >= policy.slow_burn and bool(violations)
            if fast_hot and slow_hot:
                state = "page"
            elif fast_hot or slow_hot:
                state = "warn"
            else:
                state = "ok"
            states.append(
                {
                    "policy": policy.name,
                    "scope": policy.scope,
                    "state": state,
                    "fast_burn": round(fast_burn, 4),
                    "slow_burn": round(slow_burn, 4),
                    "windows_evaluated": len(lookback),
                    "violating_windows": sum(violations),
                    "last": verdicts[-1][1] if verdicts else {},
                }
            )
        return states

    def evaluate(self, series: "WindowedSeries") -> list[dict]:
        """Alert states against a live series (one dict per policy)."""
        return self._evaluate_windows(series.windows())

    def evaluate_snapshot(self, snapshot: dict) -> list[dict]:
        """Alert states against a snapshot dict (wire-format telemetry)."""
        return self._evaluate_windows(_unpack(snapshot))


def render_slo(states: list[dict]) -> str:
    """Deterministic text rendering of SLO alert states."""
    if not states:
        return "no SLO policies configured"
    width = max(len(s["policy"]) for s in states)
    lines = []
    for state in states:
        last = ", ".join(
            f"{key}={value}" for key, value in sorted(state["last"].items())
        )
        lines.append(
            f"{state['policy']:<{width}}  [{state['state']:>4}]"
            f"  fast_burn={state['fast_burn']:<6} slow_burn={state['slow_burn']:<6}"
            f" windows={state['violating_windows']}/{state['windows_evaluated']}"
            f"{('  ' + last) if last else ''}"
        )
    return "\n".join(lines)


def slo_json(states: list[dict]) -> str:
    """Alert states as canonical (sorted-keys) JSON."""
    return json.dumps(states, sort_keys=True, indent=1)
