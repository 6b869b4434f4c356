"""Tests for the uop ISA and the program builder."""

import pytest

from repro.isa.opcodes import BranchKind, Op, branch_kind
from repro.isa.uop import StaticUop
from repro.workloads.program import CODE_BASE, Program, ProgramBuilder


class TestBranchKind:
    def test_conditionals(self):
        for op in (Op.BEQZ, Op.BNEZ, Op.BLT, Op.BGE):
            assert branch_kind(op) is BranchKind.CONDITIONAL

    def test_control_kinds(self):
        assert branch_kind(Op.JUMP) is BranchKind.DIRECT_JUMP
        assert branch_kind(Op.CALL) is BranchKind.CALL
        assert branch_kind(Op.RET) is BranchKind.RETURN
        assert branch_kind(Op.IJUMP) is BranchKind.INDIRECT

    def test_non_branch(self):
        assert branch_kind(Op.ADD) is BranchKind.NOT_BRANCH
        assert branch_kind(Op.LOAD) is BranchKind.NOT_BRANCH


class TestStaticUop:
    def test_fallthrough(self):
        uop = StaticUop(0x1000, Op.ADD, dest=1, src1=2, src2=3)
        assert uop.fallthrough == 0x1004

    def test_sources(self):
        uop = StaticUop(0, Op.ADD, dest=1, src1=2, src2=3)
        assert uop.sources() == (2, 3)
        uop = StaticUop(0, Op.MOVI, dest=1, imm=7)
        assert uop.sources() == ()

    def test_flags(self):
        branch = StaticUop(0, Op.BEQZ, src1=1, target=64)
        assert branch.is_branch and branch.is_cond_branch
        load = StaticUop(0, Op.LOAD, dest=1, src1=2)
        assert load.is_mem and not load.is_branch


class TestProgramBuilder:
    def test_label_and_branch_fixup(self):
        b = ProgramBuilder()
        b.movi(1, 5)
        loop = b.label("loop")
        b.emit(Op.ADDI, dest=1, src1=1, imm=-1)
        b.branch(Op.BNEZ, loop, src1=1)
        b.halt()
        program = b.finalize()
        branch = program.uops()[2]
        assert branch.target == program.uops()[1].pc

    def test_forward_reference(self):
        b = ProgramBuilder()
        b.jump("end")
        b.movi(1, 1)
        b.label("end")
        b.halt()
        program = b.finalize()
        assert program.uops()[0].target == program.uops()[2].pc

    def test_undefined_label_raises(self):
        b = ProgramBuilder()
        b.jump("nowhere")
        with pytest.raises(ValueError, match="undefined label"):
            b.finalize()

    def test_duplicate_label_raises(self):
        b = ProgramBuilder()
        b.label("x")
        b.nop_pad(1)
        with pytest.raises(ValueError, match="defined twice"):
            b.label("x")

    def test_align_pads_with_nops(self):
        b = ProgramBuilder()
        b.nop_pad(3)
        b.align(64)
        assert b.next_pc % 64 == 0

    def test_alloc_array_values_and_address(self):
        b = ProgramBuilder()
        base = b.alloc_array("arr", 4, values=[10, 20, 30, 40])
        b.halt()
        program = b.finalize()
        assert program.initial_data[base] == 10
        assert program.initial_data[base + 24] == 40
        assert program.data_end >= base + 32

    def test_alloc_array_init_fn(self):
        b = ProgramBuilder()
        base = b.alloc_array("sq", 3, init=lambda i: i * i)
        b.halt()
        program = b.finalize()
        assert [program.initial_data[base + 8 * i] for i in range(3)] \
            == [0, 1, 4]

    def test_data_image_maps_initialised_words_only(self):
        b = ProgramBuilder()
        first = b.alloc_array("a", 2, values=[5, 6])
        hole = b.alloc_array("h", 3)
        last = b.alloc_array("c", 2, init=lambda i: 1 << (63 - i))
        b.halt()
        data = b.finalize().initial_data
        expected = {first: 5, first + 8: 6,
                    last: 1 << 63, last + 8: 1 << 62}
        assert data == expected and dict(data) == expected
        assert list(data) == sorted(expected) and len(data) == 4
        assert hole not in data and hole + 16 not in data
        assert first + 1 not in data and data.get(first + 4) is None
        assert data.get(hole, -1) == -1
        with pytest.raises(KeyError):
            data[hole + 8]
        with pytest.raises(TypeError):
            data[first] = 1

    def test_alloc_array_rejects_non_word_values(self):
        b = ProgramBuilder()
        with pytest.raises(ValueError, match="'neg'"):
            b.alloc_array("neg", 2, values=[1, -1])
        with pytest.raises(ValueError, match="'big'"):
            b.alloc_array("big", 1, init=lambda _i: 1 << 64)
        base = b.alloc_array("ok", 1, values=[3])
        assert base == b.data_base
        assert dict(b.finalize().initial_data) == {base: 3}

    def test_alloc_duplicate_name_raises(self):
        b = ProgramBuilder()
        b.alloc_array("a", 1)
        with pytest.raises(ValueError):
            b.alloc_array("a", 1)

    def test_register_range_checked(self):
        b = ProgramBuilder()
        with pytest.raises(ValueError):
            b.emit(Op.ADD, dest=32, src1=0, src2=1)


class TestProgram:
    def test_uop_at_bounds(self):
        b = ProgramBuilder()
        b.movi(1, 1)
        b.halt()
        program = b.finalize()
        assert program.uop_at(CODE_BASE).op is Op.MOVI
        assert program.uop_at(CODE_BASE + 4).op is Op.HALT
        assert program.uop_at(CODE_BASE + 8) is None
        assert program.uop_at(CODE_BASE - 4) is None
        assert program.uop_at(CODE_BASE + 2) is None  # misaligned

    def test_non_contiguous_image_rejected(self):
        good = StaticUop(CODE_BASE, Op.NOP)
        bad = StaticUop(CODE_BASE + 8, Op.NOP)
        with pytest.raises(ValueError):
            Program([good, bad], CODE_BASE, {})

    def test_code_bytes(self):
        b = ProgramBuilder()
        b.nop_pad(10)
        assert len(b.finalize()) == 10
        assert b.finalize().code_bytes == 40
