"""M0-lite instruction-set simulator: the golden model for the gate-level
core and the workload engine behind the Dhrystone activity study (Fig. 7).

Architectural semantics only -- one instruction per :meth:`M0LiteCpu.step`.
The gate-level pipeline inserts fetch bubbles and branch flushes, but
retires the same architectural sequence; :mod:`repro.isa.trace` checks the
two against each other in lock-step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import IsaError
from .encoding import (
    Funct,
    Instruction,
    MASK32,
    Op,
    decode,
    evaluate_cond,
)


@dataclass
class CpuState:
    """Architectural state: 16 registers, PC (word units), NZCV, halt."""

    regs: list = field(default_factory=lambda: [0] * 16)
    pc: int = 0
    flags: dict = field(
        default_factory=lambda: {"n": False, "z": False, "c": False,
                                 "v": False}
    )
    halted: bool = False

    def copy(self):
        """Deep-enough copy for checkpointing."""
        return CpuState(
            regs=list(self.regs),
            pc=self.pc,
            flags=dict(self.flags),
            halted=self.halted,
        )


def _signed(value):
    value &= MASK32
    return value - (1 << 32) if value & 0x80000000 else value


def add_sub(a, b, subtract):
    """``(result, carry, overflow)`` of ``a + b``, or ``a - b`` as
    ``a + ~b + 1`` when ``subtract`` -- the execute-stage adder and its
    C/V flags, shared by the ISS and the pipeline model
    (:mod:`repro.isa.pipeline`)."""
    b_eff = (~b & MASK32) if subtract else b
    total = a + b_eff + (1 if subtract else 0)
    result = total & MASK32
    sa, sb = bool(a & 0x80000000), bool(b_eff & 0x80000000)
    sr = bool(result & 0x80000000)
    return result, total > MASK32, (sa == sb) and (sr != sa)


def alu_value(funct, a, b):
    """Result of a non-adder ALU ``funct`` (logic, shifts by ``b[4:0]``,
    MUL, MOV, MVN) on 32-bit operands."""
    if funct is Funct.AND:
        return a & b
    if funct is Funct.ORR:
        return a | b
    if funct is Funct.EOR:
        return a ^ b
    if funct is Funct.LSL:
        return (a << (b & 31)) & MASK32
    if funct is Funct.LSR:
        return (a & MASK32) >> (b & 31)
    if funct is Funct.ASR:
        return (_signed(a) >> (b & 31)) & MASK32
    if funct is Funct.MUL:
        return (a * b) & MASK32
    if funct is Funct.MOV:
        return b
    if funct is Funct.MVN:
        return (~b) & MASK32
    raise IsaError("bad funct {!r}".format(funct))


class M0LiteCpu:
    """Interpreter over a word-addressed instruction list and data memory.

    Parameters
    ----------
    program:
        List of 16-bit instruction words (instruction memory, word 0 first).
    memory:
        Optional initial data memory (dict byte_address -> 32-bit word,
        addresses must be 4-aligned).
    """

    def __init__(self, program, memory=None):
        self.program = list(program)
        self.memory = dict(memory or {})
        self.state = CpuState()
        self.retired = 0
        self.writeback_log = []  # (reg, value) for co-simulation checks

    # -- memory ---------------------------------------------------------------

    def load_word(self, addr):
        """Data-memory read (missing locations read as 0)."""
        if addr % 4:
            raise IsaError("unaligned load at {:#x}".format(addr))
        return self.memory.get(addr, 0) & MASK32

    def store_word(self, addr, value):
        """Data-memory write."""
        if addr % 4:
            raise IsaError("unaligned store at {:#x}".format(addr))
        self.memory[addr] = value & MASK32

    def fetch(self, pc):
        """Instruction fetch (past-the-end fetches return NOP)."""
        if 0 <= pc < len(self.program):
            return self.program[pc]
        return 0x7000  # NOP

    # -- execution -------------------------------------------------------------

    def _set_nz(self, result):
        self.state.flags["n"] = bool(result & 0x80000000)
        self.state.flags["z"] = result == 0

    def _add_sub(self, a, b, subtract):
        result, carry, overflow = add_sub(a, b, subtract)
        self.state.flags["c"] = carry
        self.state.flags["v"] = overflow
        self._set_nz(result)
        return result

    def step(self):
        """Execute one instruction; returns the decoded
        :class:`Instruction` (or ``None`` when halted)."""
        st = self.state
        if st.halted:
            return None
        word = self.fetch(st.pc)
        instr = decode(word)
        next_pc = st.pc + 1
        regs = st.regs

        if instr.op is Op.MOVI:
            value = instr.imm & MASK32
            regs[instr.rd] = value
            self._set_nz(value)
            self.writeback_log.append((instr.rd, value))
        elif instr.op is Op.ADDI:
            value = self._add_sub(regs[instr.rd], instr.imm & MASK32,
                                  subtract=False)
            regs[instr.rd] = value
            self.writeback_log.append((instr.rd, value))
        elif instr.op is Op.ALU:
            value = self._alu(instr, regs)
            if value is not None:
                regs[instr.rd] = value
                self.writeback_log.append((instr.rd, value))
        elif instr.op is Op.LDR:
            addr = (regs[instr.rs] + instr.imm) & MASK32
            value = self.load_word(addr)
            regs[instr.rd] = value
            self.writeback_log.append((instr.rd, value))
        elif instr.op is Op.STR:
            addr = (regs[instr.rs] + instr.imm) & MASK32
            self.store_word(addr, regs[instr.rd])
        elif instr.op is Op.B:
            next_pc = st.pc + 1 + instr.imm
        elif instr.op is Op.BCOND:
            if evaluate_cond(instr.cond, st.flags):
                next_pc = st.pc + 1 + instr.imm
        elif instr.op is Op.SYS:
            if instr.imm:
                st.halted = True

        st.pc = next_pc & MASK32
        self.retired += 1
        return instr

    def _alu(self, instr, regs):
        a = regs[instr.rd]
        b = regs[instr.rs]
        f = instr.funct
        if f is Funct.ADD:
            return self._add_sub(a, b, subtract=False)
        if f is Funct.SUB:
            return self._add_sub(a, b, subtract=True)
        if f is Funct.CMP:
            self._add_sub(a, b, subtract=True)
            return None
        value = alu_value(f, a, b)
        self._set_nz(value)
        return value

    def run(self, max_steps=1_000_000):
        """Run to HALT (or ``max_steps``); returns instructions retired."""
        start = self.retired
        while not self.state.halted and self.retired - start < max_steps:
            self.step()
        if not self.state.halted:
            raise IsaError("program did not halt in {} steps".format(
                max_steps))
        return self.retired - start
