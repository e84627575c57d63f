"""Unit tests for the micro-op ISA and factories."""

import pytest

from repro.common.errors import WorkloadError
from repro.isa.instructions import (
    HLEventKind,
    MicroOp,
    OpKind,
    alu,
    critical_use,
    hl_begin,
    hl_end,
    load,
    loadi,
    movrr,
    nop,
    rmw,
    store,
    thread_exit,
)
from repro.isa.program import run_program_sequentially, ThreadApi
from repro.isa.registers import NUM_REGISTERS, R0, R1


class TestFactories:
    def test_load_populates_fields(self):
        op = load(R1, 0x1000, 4)
        assert op.kind == OpKind.LOAD
        assert op.rd == R1
        assert op.addr == 0x1000
        assert op.size == 4
        assert op.is_memory and not op.is_write

    def test_store_is_a_write(self):
        op = store(0x1000, R0, value=7)
        assert op.is_memory and op.is_write
        assert op.value == 7

    def test_rmw_is_a_write(self):
        assert rmw(R0, 0x1000, 1).is_write

    def test_alu_unary_has_no_rs2(self):
        assert alu(R0, R1).rs2 is None

    def test_hl_ranges_are_tuples(self):
        op = hl_begin(HLEventKind.MALLOC, ranges=[(0x100, 32)])
        assert op.ranges == ((0x100, 32),)
        assert hl_end(HLEventKind.FREE).ranges == ()

    def test_critical_use_kind(self):
        assert critical_use(R1, "format").critical_kind == "format"

    def test_nop_and_thread_exit(self):
        assert nop().kind == OpKind.NOP
        assert thread_exit().kind == OpKind.THREAD_EXIT

    def test_repr_mentions_fields(self):
        text = repr(load(R1, 0x40))
        assert "LOAD" in text and "0x40" in text


class TestValidation:
    def test_register_range_checked(self):
        with pytest.raises(WorkloadError):
            load(NUM_REGISTERS, 0x1000)
        with pytest.raises(WorkloadError):
            movrr(R0, -1)

    @pytest.mark.parametrize("size", [0, 3, 16])
    def test_bad_sizes_rejected(self, size):
        with pytest.raises(WorkloadError):
            load(R0, 0x1000, size)

    def test_unaligned_access_rejected(self):
        with pytest.raises(WorkloadError):
            load(R0, 0x1002, 4)

    def test_line_crossing_rejected(self):
        with pytest.raises(WorkloadError):
            store(0x103C + 2, R0)  # 0x103E + 4 crosses 0x1040

    def test_negative_address_rejected(self):
        with pytest.raises(WorkloadError):
            load(R0, -4)

    # The factories test the happy path inline and call the checkers
    # only to raise; each case gives the expected error text (or None).
    @pytest.mark.parametrize("make, expected", [
        (lambda: load(R0, 0x1000, 8), None),
        (lambda: load(-1, 0x1000), "register index -1"),
        (lambda: load(R0, 0x1000, 0), "unsupported access size 0"),
        (lambda: load(R0, -8, 8), "negative address"),
        (lambda: store(0x1001, R0, size=2), "unaligned access"),
        (lambda: store(0x1000, NUM_REGISTERS), "register index"),
        (lambda: rmw(R0, 0x1006, 1, 4), "unaligned access"),
        (lambda: rmw(NUM_REGISTERS, 0x1000, 1), "register index"),
        (lambda: movrr(R0, NUM_REGISTERS), "register index"),
        (lambda: movrr(NUM_REGISTERS, -1),
         f"register index {NUM_REGISTERS} "),
        (lambda: alu(R0, R1), None),
        (lambda: alu(R0, R1, NUM_REGISTERS - 1), None),
        (lambda: alu(R0, R1, NUM_REGISTERS), "register index"),
        (lambda: alu(R0, -1), "register index -1"),
        (lambda: alu(NUM_REGISTERS, R1, -1),
         f"register index {NUM_REGISTERS} "),
        (lambda: loadi(NUM_REGISTERS - 1), None),
        (lambda: loadi(NUM_REGISTERS), "register index"),
    ])
    def test_inline_checks_raise_the_checkers_errors(self, make, expected):
        if expected is None:
            assert isinstance(make(), MicroOp)
        else:
            with pytest.raises(WorkloadError, match=expected):
                make()


class TestSequentialRunner:
    def test_load_sees_prior_store(self):
        def program(api):
            yield from api.store(0x100, R0, value=42)
            value = yield from api.load(R1, 0x100)
            assert value == 42

        ops = run_program_sequentially(program(ThreadApi(0)))
        assert [op.kind for op in ops] == [OpKind.STORE, OpKind.LOAD]

    def test_rmw_returns_old_value(self):
        def program(api):
            old = yield from api.rmw(R0, 0x200, 1)
            assert old == 0
            old = yield from api.rmw(R0, 0x200, 2)
            assert old == 1

        run_program_sequentially(program(ThreadApi(0)))

    def test_loop_overhead_shape(self):
        def program(api):
            yield from api.loop_overhead(4)

        ops = run_program_sequentially(program(ThreadApi(0)))
        assert [op.kind for op in ops] == [
            OpKind.LOADI, OpKind.ALU, OpKind.ALU, OpKind.ALU]
        assert all(op.rs2 is None for op in ops[1:])

    def test_compute_emits_unary_alus(self):
        def program(api):
            yield from api.compute(3)

        ops = run_program_sequentially(program(ThreadApi(0)))
        assert len(ops) == 3
        assert all(op.kind == OpKind.ALU for op in ops)

    def test_pause_sets_value(self):
        def program(api):
            yield from api.pause(32)

        ops = run_program_sequentially(program(ThreadApi(0)))
        assert ops[0].kind == OpKind.NOP and ops[0].value == 32

    def test_malloc_requires_os(self):
        def program(api):
            yield from api.malloc(16)

        with pytest.raises(WorkloadError):
            run_program_sequentially(program(ThreadApi(0, os_runtime=None)))
