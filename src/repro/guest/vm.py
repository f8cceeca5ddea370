"""Functional simulator for the TVM guest ISA.

The VM executes a :class:`~repro.guest.isa.GuestProgram` and records one
trace entry per retired instruction.  The entry carries everything the
prediction and timing experiments consume:

* ``pc`` and the instruction's timing class and branch kind;
* for branches: the ``taken`` outcome and the *computed target* (for a
  conditional branch this is the static taken-target regardless of outcome,
  matching what a BTB stores; for indirect branches it is the dynamically
  computed destination the target cache must predict);
* register dependences (up to two sources, one destination) so the
  out-of-order timing model can schedule real dataflow;
* the effective address of loads and stores for the data-cache model.

Calls and returns use a VM-internal return-address stack (the guest ISA has
no architectural stack pointer); this mirrors how the paper's return
instructions are "effectively handled with the return address stack" and
keeps the guest programs small.

The VM deliberately avoids importing :mod:`repro.trace`; it returns a plain
:class:`RawTrace` of Python lists which ``repro.trace.Trace.from_raw``
converts into numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Integer results of multiplicative and shift ops wrap to 64 bits, like
#: hardware registers; without this a squaring chain would grow a Python
#: bigint without bound and stall the simulation.
_WORD_MASK = (1 << 64) - 1

from repro.guest.isa import (
    INSTRUCTION_BYTES,
    NUM_REGISTERS,
    OP_CLASS,
    GuestProgram,
    Op,
)


class VMError(Exception):
    """Raised on guest faults: bad pc, misaligned access, stack underflow."""


#: Instructions :meth:`VM.run` retires per call of its inner loop.
_SLICE = 2048

#: Opcode -> the same opcode as an exact int, for the loop's int compares.
_OP_INT: List[int] = [int(op) for op in sorted(Op)]

#: Opcode -> timing class, as plain ints indexed by opcode.
_OP_CLASS: List[int] = [int(OP_CLASS[op]) for op in sorted(Op)]


@dataclass
class RawTrace:
    """Columnar dynamic-instruction trace as plain Python lists.

    Converted to numpy by ``repro.trace.Trace.from_raw``; kept dependency-free
    so the guest package stands alone.
    """

    pc: List[int] = field(default_factory=list)
    instr_class: List[int] = field(default_factory=list)
    branch_kind: List[int] = field(default_factory=list)
    taken: List[int] = field(default_factory=list)
    target: List[int] = field(default_factory=list)
    src1: List[int] = field(default_factory=list)
    src2: List[int] = field(default_factory=list)
    dst: List[int] = field(default_factory=list)
    mem_addr: List[int] = field(default_factory=list)
    #: True when execution reached HALT (as opposed to the instruction cap).
    halted: bool = False

    def __len__(self) -> int:
        return len(self.pc)


class VM:
    """Execute a guest program, producing a :class:`RawTrace`.

    Parameters
    ----------
    program:
        The assembled guest program.
    max_instructions:
        Hard cap on retired instructions; execution stops there even if the
        program has not halted (all the paper's workloads are loops, so the
        cap is the natural way to size a trace).
    call_stack_limit:
        Guard against runaway guest recursion.
    stop_pc:
        Optional synchronization point: execution stops *before* fetching
        this address once it has been reached ``stop_visits`` times.  Lets
        equivalence tests compare lowerings at the same architectural point
        (e.g. "after 40 trips around the outer loop") even though their
        dynamic instruction counts differ.
    stop_visits:
        How many arrivals at ``stop_pc`` to run before stopping.
    """

    def __init__(self, program: GuestProgram, max_instructions: int = 1_000_000,
                 call_stack_limit: int = 10_000,
                 stop_pc: Optional[int] = None, stop_visits: int = 1) -> None:
        self.program = program
        self.max_instructions = max_instructions
        self.call_stack_limit = call_stack_limit
        self.stop_pc = stop_pc
        self.stop_visits = stop_visits
        self.registers: List[float] = [0] * NUM_REGISTERS
        self.memory: Dict[int, float] = dict(program.data)
        self.call_stack: List[int] = []
        self.pc = program.entry
        self.retired = 0

    def run(self) -> RawTrace:
        """Execute until HALT, a fault, or the instruction cap."""
        trace = RawTrace()
        pc = self.pc
        remaining = self.max_instructions - self.retired
        # -1 is never a valid pc, so a disabled stop point costs one integer
        # compare per instruction instead of a None check.
        stop_pc = -1 if self.stop_pc is None else self.stop_pc
        stop_visits = self.stop_visits
        # The loop runs in slices: CPython 3.11 specialises a function's
        # bytecode only from its 8th call, so one call per run would leave
        # a process's first seven traces on generic bytecode (about 2x
        # slower).
        while remaining > 0:
            budget = min(remaining, _SLICE)
            pc, left, stop_visits = self._execute(
                trace, pc, budget, stop_pc, stop_visits)
            remaining -= budget - left
            if left:  # stopped at stop_pc or HALT before the budget ran out
                break
        self.pc = pc
        self.retired = self.max_instructions - remaining
        return trace

    def _execute(self, trace: RawTrace, pc: int, remaining: int,
                 stop_pc: int, stop_visits: int) -> Tuple[int, int, int]:
        """Retire up to ``remaining`` instructions from ``pc``.

        Returns ``(pc, instructions left of remaining, stop_visits)``;
        instructions are left only when execution stopped early.
        """
        code = self.program.code
        op_int = _OP_INT
        op_class = _OP_CLASS
        regs = self.registers
        memory = self.memory
        call_stack = self.call_stack
        call_stack_limit = self.call_stack_limit
        ibytes = INSTRUCTION_BYTES
        n_code = len(code)

        pc_list = trace.pc
        cls_list = trace.instr_class
        kind_list = trace.branch_kind
        taken_list = trace.taken
        target_list = trace.target
        src1_list = trace.src1
        src2_list = trace.src2
        dst_list = trace.dst
        addr_list = trace.mem_addr

        # Opcodes as plain-int locals: an int compares against an int
        # local far faster than against an IntEnum member.
        ADD, SUB, AND, OR, XOR, SLT = (
            int(Op.ADD), int(Op.SUB), int(Op.AND), int(Op.OR), int(Op.XOR),
            int(Op.SLT))
        ADDI, LI, MUL, DIV, MOD = (
            int(Op.ADDI), int(Op.LI), int(Op.MUL), int(Op.DIV), int(Op.MOD))
        FADD, FSUB, FMUL, FDIV = (
            int(Op.FADD), int(Op.FSUB), int(Op.FMUL), int(Op.FDIV))
        SHL, SHR, SHLI, SHRI, ANDI, XORI = (
            int(Op.SHL), int(Op.SHR), int(Op.SHLI), int(Op.SHRI),
            int(Op.ANDI), int(Op.XORI))
        LOAD, STORE = int(Op.LOAD), int(Op.STORE)
        BEQ, BNE, BLT, BGE, JMP = (
            int(Op.BEQ), int(Op.BNE), int(Op.BLT), int(Op.BGE), int(Op.JMP))
        CALL, CALLR, RET, JR, HALT = (
            int(Op.CALL), int(Op.CALLR), int(Op.RET), int(Op.JR),
            int(Op.HALT))

        while remaining > 0:
            if pc == stop_pc:
                stop_visits -= 1
                if stop_visits <= 0:
                    break
            index = pc >> 2
            if not 0 <= index < n_code:
                raise VMError(f"pc {pc:#x} outside code segment")
            ins = code[index]
            op = op_int[ins.op]
            rd = ins.rd
            rs1 = ins.rs1
            rs2 = ins.rs2
            imm = ins.imm

            next_pc = pc + ibytes
            taken = 0
            target = 0
            mem_addr = 0
            kind = 0  # BranchKind.NOT_BRANCH

            # Most frequent opcodes first (dynamic mix over every
            # registered workload); the order changes no semantics.
            if op == ADDI:
                regs[rd] = regs[rs1] + imm
            elif op == ANDI:
                regs[rd] = int(regs[rs1]) & imm
            elif op == LI:
                regs[rd] = imm
            elif op == LOAD:
                mem_addr = int(regs[rs1]) + imm
                regs[rd] = memory.get(mem_addr, 0)
            elif op == SHRI:
                regs[rd] = int(regs[rs1]) >> (imm & 63)
            elif op == ADD:
                regs[rd] = regs[rs1] + regs[rs2]
            elif op == SHLI:
                regs[rd] = (int(regs[rs1]) << (imm & 63)) & _WORD_MASK
            elif op == BLT:
                kind = 1  # COND_DIRECT
                target = imm
                if regs[rs1] < regs[rs2]:
                    taken = 1
                    next_pc = imm
            elif op == BEQ:
                kind = 1
                target = imm
                if regs[rs1] == regs[rs2]:
                    taken = 1
                    next_pc = imm
            elif op == XORI:
                regs[rd] = int(regs[rs1]) ^ imm
            elif op == MUL:
                regs[rd] = (regs[rs1] * regs[rs2]) & _WORD_MASK \
                    if isinstance(regs[rs1], int) and isinstance(regs[rs2], int) \
                    else regs[rs1] * regs[rs2]
            elif op == RET:
                kind = 5  # RETURN
                taken = 1
                if not call_stack:
                    raise VMError("return with empty call stack")
                target = call_stack.pop()
                next_pc = target
            elif op == CALLR:
                kind = 4  # CALL_INDIRECT
                taken = 1
                target = int(regs[rs1])
                if len(call_stack) >= call_stack_limit:
                    raise VMError("guest call stack overflow")
                call_stack.append(pc + ibytes)
                next_pc = target
            elif op == JMP:
                kind = 2  # UNCOND_DIRECT
                taken = 1
                target = imm
                next_pc = imm
            elif op == STORE:
                mem_addr = int(regs[rs1]) + imm
                memory[mem_addr] = regs[rs2]
            elif op == BGE:
                kind = 1
                target = imm
                if regs[rs1] >= regs[rs2]:
                    taken = 1
                    next_pc = imm
            elif op == JR:
                kind = 6  # IND_JUMP
                taken = 1
                target = int(regs[rs1])
                next_pc = target
            elif op == SLT:
                regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
            elif op == CALL:
                kind = 3  # CALL_DIRECT
                taken = 1
                target = imm
                if len(call_stack) >= call_stack_limit:
                    raise VMError("guest call stack overflow")
                call_stack.append(pc + ibytes)
                next_pc = imm
            elif op == BNE:
                kind = 1
                target = imm
                if regs[rs1] != regs[rs2]:
                    taken = 1
                    next_pc = imm
            elif op == FADD:
                regs[rd] = float(regs[rs1]) + float(regs[rs2])
            elif op == FMUL:
                regs[rd] = float(regs[rs1]) * float(regs[rs2])
            elif op == XOR:
                regs[rd] = int(regs[rs1]) ^ int(regs[rs2])
            elif op == OR:
                regs[rd] = int(regs[rs1]) | int(regs[rs2])
            elif op == MOD:
                divisor = int(regs[rs2])
                regs[rd] = 0 if divisor == 0 else int(regs[rs1]) % divisor
            elif op == SUB:
                regs[rd] = regs[rs1] - regs[rs2]
            elif op == AND:
                regs[rd] = int(regs[rs1]) & int(regs[rs2])
            elif op == DIV:
                divisor = regs[rs2]
                regs[rd] = 0 if divisor == 0 else int(regs[rs1] / divisor)
            elif op == FSUB:
                regs[rd] = float(regs[rs1]) - float(regs[rs2])
            elif op == FDIV:
                divisor = float(regs[rs2])
                regs[rd] = 0.0 if divisor == 0.0 else float(regs[rs1]) / divisor
            elif op == SHL:
                regs[rd] = (int(regs[rs1]) << (int(regs[rs2]) & 63)) & _WORD_MASK
            elif op == SHR:
                regs[rd] = int(regs[rs1]) >> (int(regs[rs2]) & 63)
            elif op == HALT:
                trace.halted = True
                break
            else:  # pragma: no cover - exhaustive above
                raise VMError(f"unknown opcode {op}")

            regs[0] = 0  # r0 is hard-wired to zero

            pc_list.append(pc)
            cls_list.append(op_class[op])
            kind_list.append(kind)
            taken_list.append(taken)
            target_list.append(target)
            src1_list.append(rs1)
            src2_list.append(rs2)
            dst_list.append(rd)
            addr_list.append(mem_addr)

            pc = next_pc
            remaining -= 1
        return pc, remaining, stop_visits


def run_program(program: GuestProgram, max_instructions: int = 1_000_000) -> RawTrace:
    """Convenience wrapper: execute ``program`` and return its raw trace."""
    return VM(program, max_instructions=max_instructions).run()
