"""The driver's register-programming sequence is an event, not a
generator.

:class:`RegisterStores` must dispatch exactly the events, at exactly
the cycles, of the generator it replaced: a ``REG_WRITE_CYCLES`` delay
then one posted store, per register, with the thread resumed after
each. The reference below is that generator, written on top of the
one-store primitive :meth:`ProcessorTile.write_reg`.
"""

from types import SimpleNamespace

import pytest

from repro.noc.routing import route_hops_cached
from repro.runtime.executor import REG_WRITE_CYCLES, RegisterStores
from repro.soc import (
    DST_OFFSET_REG,
    DST_STRIDE_REG,
    N_FRAMES_REG,
    SRC_OFFSET_REG,
    SRC_STRIDE_REG,
)
from tests.conftest import make_runtime, make_soc, make_spec

WRITES = ((SRC_OFFSET_REG, 11), (DST_OFFSET_REG, 22), (SRC_STRIDE_REG, 33),
          (DST_STRIDE_REG, 44), (N_FRAMES_REG, 5))
DEVICES = ("a0", "b0", "c0")


def reference_stores(env, cpu, coord, writes):
    """The store sequence as the driver thread ran it before."""
    for reg, value in writes:
        yield env.timeout(REG_WRITE_CYCLES)
        yield cpu.write_reg(coord, reg, value)


def chained_stores(env, cpu, coord, writes):
    yield RegisterStores(cpu, coord, writes)


def small_soc():
    return make_soc([(name, make_spec(name=name)) for name in DEVICES])


def run_stores(driver, device, writes=WRITES, interrupt_at=None):
    """Drive ``writes`` to ``device`` from a fresh SoC's CPU thread;
    return what the run leaves behind."""
    soc = small_soc()
    env, cpu = soc.env, soc.cpu
    tile = soc.accelerator(device)
    marks = {}

    def thread():
        marks["start"] = (env.now, env.events_processed)
        yield from driver(env, cpu, tile.coord, writes)
        marks["done"] = (env.now, env.events_processed)

    proc = env.process(thread(), name="driver")
    if interrupt_at is not None:
        def interrupter():
            yield env.timeout(interrupt_at)
            proc.interrupt("plan aborted")
        env.process(interrupter(), name="interrupter")
    env.run()
    registers = {reg: tile.regs.read(reg) for reg, _ in WRITES}
    return SimpleNamespace(marks=marks, now=env.now,
                           events=env.events_processed,
                           registers=registers, reg_writes=cpu.reg_writes,
                           hops=len(route_hops_cached(cpu.coord,
                                                      tile.coord)))


class TestSequence:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("k", [1, 2, len(WRITES)])
    def test_events_cycles_and_registers_match_the_generator(self, device,
                                                             k):
        writes = WRITES[:k]
        chained = run_stores(chained_stores, device, writes)
        reference = run_stores(reference_stores, device, writes)
        h = chained.hops
        (start, events_at_start) = chained.marks["start"]
        (_, events_at_end) = chained.marks["done"]
        # The thread resumes inside the last delivery's dispatch.
        assert events_at_end - events_at_start == k * (2 * h + 6)
        assert chained.marks == reference.marks
        assert (chained.now, chained.events) \
            == (reference.now, reference.events)
        assert chained.registers == reference.registers
        assert {reg: chained.registers[reg] for reg, _ in writes} \
            == dict(writes)
        assert chained.reg_writes == reference.reg_writes == k

    def test_hops_cover_near_and_far_tiles(self):
        assert sorted(run_stores(chained_stores, d, WRITES[:1]).hops
                      for d in DEVICES) == [1, 2, 3]


class TestInterruptedWaiter:
    @pytest.mark.parametrize("device", ["a0", "b0"])
    def test_only_the_stores_already_sent_land(self, device):
        """A waiter interrupted anywhere in the sequence (in a gap or
        while a store is in flight) leaves exactly the earlier stores
        applied, as the closed generator did."""
        whole = run_stores(chained_stores, device)
        start, _ = whole.marks["start"]
        end, _ = whole.marks["done"]
        applied_counts = set()
        for at in range(1, end - start + 1):
            chained = run_stores(chained_stores, device, interrupt_at=at)
            reference = run_stores(reference_stores, device,
                                   interrupt_at=at)
            assert "done" not in chained.marks
            assert (chained.now, chained.events, chained.registers,
                    chained.reg_writes) == (
                reference.now, reference.events, reference.registers,
                reference.reg_writes)
            sent = chained.reg_writes
            applied = {reg: value for reg, value in WRITES[:sent]}
            assert {reg: chained.registers[reg] for reg in applied} \
                == applied
            for reg, value in WRITES[sent:]:
                assert chained.registers[reg] != value
            applied_counts.add(sent)
        assert applied_counts == set(range(len(WRITES) + 1))


class TestRaisingStore:
    def test_failure_reaches_the_thread_in_the_same_cycle(self,
                                                          monkeypatch):
        """A store that raises is thrown into the waiting driver thread
        inside the dispatch that sent it, and ``_thread_guard`` records
        it on the plan."""
        runtime = make_runtime([(name, make_spec(name=name))
                                for name in DEVICES])
        soc = runtime.soc
        env, cpu = soc.env, soc.cpu
        tile = soc.accelerator("a0")
        store = cpu.write_reg
        attempts = []

        def failing_write_reg(coord, reg, value):
            attempts.append(env.now)
            if len(attempts) == 3:
                raise RuntimeError("store refused")
            return store(coord, reg, value)

        monkeypatch.setattr(cpu, "write_reg", failing_write_reg)
        seen = []

        def thread():
            try:
                yield RegisterStores(cpu, tile.coord, WRITES)
            except RuntimeError as exc:
                seen.append((env.now, exc))
                raise

        plan = SimpleNamespace(failure=None, abort=env.event())
        env.process(runtime.executor._thread_guard(plan, thread()),
                    name="guarded")
        env.run()
        assert len(attempts) == 3
        (at, exc), = seen
        assert at == attempts[-1]
        assert plan.failure is exc
        assert plan.abort.triggered and plan.abort.value is exc
        # The two stores sent before the failure landed; no later one.
        assert cpu.reg_writes == 2
        assert tile.regs.read(SRC_OFFSET_REG) == 11
        assert tile.regs.read(DST_OFFSET_REG) == 22
        assert tile.regs.read(SRC_STRIDE_REG) != 33
