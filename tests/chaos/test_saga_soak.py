"""Saga soak: exactly-once transfers under crash-mid-call chaos.

Each seed stands up a two-bank world (one :class:`DurableKVService` per
bank machine) and drives debit+credit transfer sagas through it while
the fault plane crashes a bank mid-call or drops a request/reply leg at
every step boundary — the disturbance schedule is drawn from the seed,
and a periodic self-rescheduling repair action restarts dead banks so
every crash also exercises the recovery path.

The invariant is money conservation with attribution: after the
workload (plus journal recovery for any saga whose compensation was
itself interrupted), every saga has reached an ``end`` record, the two
balances sum to the seeded total, and each account has moved by exactly
``AMOUNT × committed`` — no lost updates, no doubled updates, at any
seed.  The identical seed then replays byte-for-byte: same journal,
same injected-fault counts, same span projection.

``CHAOS_SEEDS`` sizes the sweep (default 16; CI runs 8).
"""

from __future__ import annotations

import contextlib
import json
import os
import random

import pytest

from repro.kernel.errors import CommunicationError
from repro.runtime.env import Environment
from repro.runtime.saga import SagaAborted, SagaCoordinator
from repro.services.stable import DurableKVService
from tests.chaos.conftest import (
    chaos_seeds,
    span_projection,
    trace_artifact_on_failure,
)

AMOUNT = 10
ROUNDS = 6
SEED_BALANCE = 100
#: how often the repair action revives dead banks (simulated time); the
#: saga policy's first backoff is 100ms, so a crashed bank is back
#: before the second attempt's door call pumps the schedule
REPAIR_PERIOD_US = 150_000.0

#: the disturbance menu drawn (per step) from the workload rng; "none"
#: keeps undisturbed steps in the mix so the fast path is swept too
DISTURBANCES = ("crash-a", "crash-b", "drop-reply", "drop-request", "none")


def build_bank_world(seed: int, crash_rate: float | None = None) -> dict:
    """Two durable banks, a teller with a saga coordinator, and chaos:
    the soak's door faults and carry drops, or only ``crash_rate``
    crash-mid-call when it is given."""
    env = Environment(seed=seed)
    tracer = env.install_tracer(ring_capacity=1 << 16)
    bank_a = DurableKVService(env, "bank-a", "/services/acct-a")
    bank_b = DurableKVService(env, "bank-b", "/services/acct-b")
    teller = env.create_domain("clients", "teller")
    acct_a = bank_a.client_for(teller)
    acct_b = bank_b.client_for(teller)
    # Seed the balances before chaos: the workload's invariants are
    # relative to this known-good starting state.
    acct_a.put("balance", str(SEED_BALANCE))
    acct_b.put("balance", str(SEED_BALANCE))
    coord = SagaCoordinator(teller, name="transfer")

    # Same stance as the main chaos world: naming is infrastructure, not
    # a recovery path under test.
    env.name_service.domain.locals["chaos_immune"] = True
    plane = env.install_chaos(seed=seed)
    if crash_rate is None:
        plane.door_fault_rate = 0.01
        plane.default_link.carry_drop = 0.01
    else:
        plane.crash_mid_call_rate = crash_rate

    banks = (bank_a, bank_b)

    def repair() -> None:
        # Reschedule FIRST: a restart whose name rebind is lost to link
        # chaos must not kill the repair chain with it.
        plane.schedule(env.clock.now_us + REPAIR_PERIOD_US, repair, "repair-banks")
        for bank in banks:
            if bank.domain is None or not bank.domain.alive:
                try:
                    bank.restart()
                except CommunicationError:
                    # Half-booted incarnation (rebind lost): crash it so
                    # the next window restarts from scratch.
                    bank.crash()

    plane.schedule(env.clock.now_us + REPAIR_PERIOD_US, repair, "repair-banks")

    return {
        "env": env,
        "tracer": tracer,
        "plane": plane,
        "bank_a": bank_a,
        "bank_b": bank_b,
        "acct_a": acct_a,
        "acct_b": acct_b,
        "coord": coord,
    }


def arm_disturbance(world: dict, rng: random.Random) -> str:
    """Arm one seed-drawn deterministic fault for the next step."""
    plane = world["plane"]
    choice = rng.choice(DISTURBANCES)
    if choice == "crash-a":
        plane.crash_mid_call_next(world["bank_a"].domain)
    elif choice == "crash-b":
        plane.crash_mid_call_next(world["bank_b"].domain)
    elif choice == "drop-reply":
        plane.drop_next_carry("reply")
    elif choice == "drop-request":
        plane.drop_next_carry("request")
    return choice


def run_transfers(world: dict, seed: int | None, rounds: int = ROUNDS) -> dict:
    """Drive ``rounds`` transfer sagas; with a ``seed``, one disturbance
    drawn from it per step boundary."""
    rng = random.Random(seed * 7919 + 13) if seed is not None else None
    coord = world["coord"]
    acct_a = world["acct_a"]
    acct_b = world["acct_b"]
    outcomes = {"committed": 0, "aborted": 0}
    for i in range(rounds):
        try:
            with coord.begin(f"transfer-{i}") as saga:
                if rng:
                    arm_disturbance(world, rng)
                saga.run(
                    "debit-a",
                    lambda: acct_a.adjust("balance", -AMOUNT),
                    compensation=lambda token: acct_a.adjust(
                        "balance", int(token)
                    ),
                    comp_token=str(AMOUNT),
                )
                if rng:
                    arm_disturbance(world, rng)
                saga.run(
                    "credit-b",
                    lambda: acct_b.adjust("balance", AMOUNT),
                    compensation=lambda token: acct_b.adjust(
                        "balance", -int(token)
                    ),
                    comp_token=str(AMOUNT),
                )
        except SagaAborted:
            outcomes["aborted"] += 1
        else:
            outcomes["committed"] += 1
    return outcomes


def open_sagas(journal: dict) -> list[str]:
    sids = {key.partition(".")[0] for key in journal}
    return sorted(sid for sid in sids if f"{sid}.end" not in journal)


def recover_leftovers(world: dict) -> "SagaCoordinator":
    """Finish any saga whose own compensation was interrupted.

    A replacement coordinator on the teller's machine works purely from
    the journal — the step closures died with the first coordinator's
    saga objects, so recovery runs the registered compensators by label.
    """
    env = world["env"]
    acct_a = world["acct_a"]
    acct_b = world["acct_b"]
    replacement = SagaCoordinator(
        env.create_domain("clients", "teller-recovery"),
        name="transfer",
        store=world["coord"].store,
    )
    compensators = {
        "debit-a": lambda token: acct_a.adjust("balance", int(token)),
        "credit-b": lambda token: acct_b.adjust("balance", -int(token)),
    }
    for _ in range(4):
        if not open_sagas(replacement.journal_snapshot()):
            break
        replacement.recover(compensators)
    return replacement


def check_conservation(world: dict) -> None:
    """No lost updates, no doubled updates — with attribution."""
    journal = world["coord"].journal_snapshot()
    assert open_sagas(journal) == []
    committed = sum(
        1
        for key, value in journal.items()
        if key.endswith(".end") and value == "committed"
    )
    # Read the balances out of stable storage directly: exact, and
    # independent of whether the service is mid-restart.
    a = int(world["bank_a"].store._records["/services/acct-a"]["balance"])
    b = int(world["bank_b"].store._records["/services/acct-b"]["balance"])
    assert a + b == 2 * SEED_BALANCE, f"money not conserved: a={a} b={b}"
    assert a == SEED_BALANCE - AMOUNT * committed
    assert b == SEED_BALANCE + AMOUNT * committed

    # The world itself stayed clean: no pooled-buffer leaks and no
    # unattributed simulated time, even across crash/restart cycles.
    env = world["env"]
    for domain in env.kernel.domains.values():
        assert domain.buffer_acquires == domain.buffer_releases, (
            f"domain {domain.name!r} leaked "
            f"{domain.buffer_acquires - domain.buffer_releases} pooled buffer(s)"
        )
    tally_sum = sum(env.clock.tally().values())
    assert abs(env.clock.now_us - tally_sum) < 1e-6
    assert world["tracer"].dropped() == 0


@contextlib.contextmanager
def saga_artifacts_on_failure(world: dict, seed: int):
    """Trace JSONL plus the saga journal, for offline replay of a
    failing seed (CI uploads CHAOS_TRACE_DIR as a workflow artifact)."""
    try:
        with trace_artifact_on_failure(world, seed, label="saga"):
            yield
    except BaseException:
        out_dir = os.environ.get("CHAOS_TRACE_DIR")
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"saga-seed-{seed}-journal.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(
                    world["coord"].journal_snapshot(),
                    fh,
                    indent=2,
                    sort_keys=True,
                )
        raise


@pytest.mark.parametrize("seed", chaos_seeds())
def test_transfer_saga_exactly_once_under_chaos(seed):
    first = build_bank_world(seed)
    with saga_artifacts_on_failure(first, seed):
        outcomes = run_transfers(first, seed)
        recover_leftovers(first)
        check_conservation(first)
        assert outcomes["committed"] + outcomes["aborted"] == ROUNDS

        # Replay: the identical seed reproduces the run byte-for-byte —
        # same journal (ids are kernel-scoped, so they line up exactly),
        # same injected-fault counts, same span shape.
        second = build_bank_world(seed)
        replay = run_transfers(second, seed)
        recover_leftovers(second)
        check_conservation(second)

        assert replay == outcomes
        assert (
            second["coord"].journal_snapshot()
            == first["coord"].journal_snapshot()
        )
        assert second["plane"].injected == first["plane"].injected
        assert span_projection(second["tracer"]) == span_projection(
            first["tracer"]
        )


def test_saga_soak_sweeps_distinct_schedules():
    """Two seeds must disturb the workload differently — the sweep
    explores the fault space instead of rerunning one schedule."""
    a = build_bank_world(101)
    run_transfers(a, 101)
    b = build_bank_world(202)
    run_transfers(b, 202)
    assert (
        a["plane"].injected != b["plane"].injected
        or a["coord"].journal_snapshot() != b["coord"].journal_snapshot()
    )


def crash_rate_leg(rate: float) -> dict:
    """Forty undisturbed transfers at a crash-mid-call ``rate``."""
    world = build_bank_world(11, crash_rate=rate)
    start = world["env"].clock.now_us
    outcomes = run_transfers(world, None, rounds=40)
    recover_leftovers(world)
    check_conservation(world)
    journal = world["coord"].journal_snapshot()
    ends = [value for key, value in journal.items() if key.endswith(".end")]
    assert outcomes["committed"] == ends.count("committed")
    return {**outcomes, "sim_us": world["env"].clock.now_us - start, "journal": journal}


def test_crash_rate_sweep_replays_and_costs_more_as_the_rate_rises():
    """Crashes make a transfer dearer (retries, journal replays, repair
    scans), never wrong; each leg replays from its seed."""
    legs = [crash_rate_leg(rate) for rate in (0.0, 0.01, 0.05)]
    assert legs == [crash_rate_leg(rate) for rate in (0.0, 0.01, 0.05)]
    assert (legs[0]["committed"], legs[0]["aborted"]) == (40, 0)
    assert legs[0]["sim_us"] < legs[1]["sim_us"] < legs[2]["sim_us"]


def test_saga_chaos_free_world_commits_everything():
    """Without chaos every transfer commits and moves exactly AMOUNT."""
    env = Environment(seed=0)
    bank_a = DurableKVService(env, "bank-a", "/services/acct-a")
    bank_b = DurableKVService(env, "bank-b", "/services/acct-b")
    teller = env.create_domain("clients", "teller")
    acct_a = bank_a.client_for(teller)
    acct_b = bank_b.client_for(teller)
    acct_a.put("balance", str(SEED_BALANCE))
    acct_b.put("balance", str(SEED_BALANCE))
    coord = SagaCoordinator(teller, name="transfer")
    for i in range(ROUNDS):
        with coord.begin(f"transfer-{i}") as saga:
            saga.run(
                "debit-a",
                lambda: acct_a.adjust("balance", -AMOUNT),
                compensation=lambda token: acct_a.adjust("balance", int(token)),
                comp_token=str(AMOUNT),
            )
            saga.run(
                "credit-b",
                lambda: acct_b.adjust("balance", AMOUNT),
                compensation=lambda token: acct_b.adjust("balance", -int(token)),
                comp_token=str(AMOUNT),
            )
    assert coord.committed == ROUNDS
    assert acct_a.get("balance") == str(SEED_BALANCE - AMOUNT * ROUNDS)
    assert acct_b.get("balance") == str(SEED_BALANCE + AMOUNT * ROUNDS)
