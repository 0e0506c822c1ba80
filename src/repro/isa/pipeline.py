"""Cycle-level model of the gate-level M0-lite pipeline.

:class:`PipelineModel` predicts, cycle by cycle, the 694 flip-flops of
:func:`repro.circuits.m0lite.build_m0lite` together with the memory words
:class:`~repro.isa.trace.GateLevelCpu` feeds the core, so the co-simulator
can settle a whole window of cycles at once instead of stepping the
netlist one cycle at a time.  It models the netlist, not the ISA: every
DE->EX register is the gate-level decode of ``ir`` (flushed and invalid
slots included, undefined encodings too), the EX-stage ALU result is
formed every cycle (it drives ``daddr`` and therefore the ``drdata``
feed), and a taken branch flushes the two younger stages.  The adder,
its C/V flags and the other ALU functions are the ISS's own
(:func:`repro.isa.cpu.add_sub`, :func:`repro.isa.cpu.alu_value`), and
branch conditions are :func:`repro.isa.encoding.evaluate_cond`.

A prediction is only a guess: the co-simulator settles the predicted
rows through the netlist and keeps the prefix the netlist confirms (see
:meth:`repro.isa.trace.GateLevelCpu.run`).  :class:`FlopLayout` maps the
model's integer fields onto a lowered core's flop columns by instance
name, so one layout serves the raw core, the implemented baseline and
the SCPG-transformed core alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..sim.logic import X
from .cpu import add_sub, alu_value
from .encoding import MASK32, NOP_WORD, Cond, Funct, Op, evaluate_cond

#: Model fields in row order, ``(flop name stem, width)``: the fetch
#: flops (with the registered branch target), the DE->EX control
#: registers, the flags and halt latch, and the register file.  A
#: 1-bit field is the flop named by its stem; a wider one is
#: ``<stem>_<bit>``.
FETCH = (("pc", 32), ("ir", 16), ("pc1de", 32), ("v_ir", 1), ("v_ex", 1),
         ("tgt_ex", 32))
CTRL = (("rd_ex", 4), ("rs_ex", 4), ("imm_ex", 32), ("we_ex", 1),
        ("a_zero_ex", 1), ("a_use_b_ex", 1), ("b_use_imm_ex", 1),
        ("flags_we_ex", 1), ("flags_cv_ex", 1), ("is_load_ex", 1),
        ("is_store_ex", 1), ("is_b_ex", 1), ("is_bcond_ex", 1),
        ("cond_ex", 3), ("halt_ex", 1), ("op_sub_ex", 1), ("op_and_ex", 1),
        ("op_or_ex", 1), ("op_xor_ex", 1), ("op_shift_ex", 1),
        ("op_mul_ex", 1), ("op_mvn_ex", 1), ("op_shl_ex", 1),
        ("op_sar_ex", 1))
STATUS = (("fl_n", 1), ("fl_z", 1), ("fl_c", 1), ("fl_v", 1),
          ("halted_r", 1))
REGS = tuple(("rf{}".format(r), 32) for r in range(16))
FIELDS = FETCH + CTRL + STATUS + REGS

#: Positions in the DE->EX register tuple the EX stage acts on.
(_RD, _WE, _FLAGS_WE, _FLAGS_CV, _IS_LOAD, _IS_STORE, _IS_B, _IS_BCOND,
 _COND, _HALT) = ([stem for stem, _width in CTRL].index(name) for name in (
     "rd_ex", "we_ex", "flags_we_ex", "flags_cv_ex", "is_load_ex",
     "is_store_ex", "is_b_ex", "is_bcond_ex", "cond_ex", "halt_ex"))

#: ``_COND_OK[cond][n<<3 | z<<2 | c<<1 | v]``: the ISS's condition
#: evaluation, tabulated once (the core's 3-bit ``cond_ex`` covers all
#: eight conditions).
_COND_OK = tuple(
    tuple(bool(evaluate_cond(cond, {"n": k >> 3 & 1, "z": k >> 2 & 1,
                                    "c": k >> 1 & 1, "v": k & 1}))
          for k in range(16))
    for cond in Cond)


def _sext(value, bits):
    """Sign-extend ``bits`` of ``value`` into a 32-bit word."""
    value &= (1 << bits) - 1
    if value >> (bits - 1):
        value -= 1 << bits
    return value & MASK32


@lru_cache(maxsize=None)
def decode_stage(word):
    """``(branch offset, DE->EX register values)`` the decode logic
    derives from the 16-bit ``ir`` word, in :data:`CTRL` order.

    Gate-level semantics, not the ISA's: undefined encodings decode to
    whatever the AND-trees make of them (an ALU funct above CMP still
    writes back ``rd + rs``; opcodes 8-15 match nothing), and never
    raise.
    """
    op = word >> 12
    is_alu = op == Op.ALU
    is_mem = op in (Op.LDR, Op.STR)
    funct = (word >> 8) & 0xF if is_alu else -1
    if is_alu:
        rd, rs = (word >> 4) & 0xF, word & 0xF
    else:
        rd, rs = (word >> 8) & 0xF, (word >> 4) & 0xF
    if is_mem:
        imm = (word & 0xF) << 2
    elif op == Op.MOVI:
        imm = word & 0xFF
    else:
        imm = _sext(word, 8)
    boff = _sext(word, 12) if op == Op.B else _sext(word, 8)
    ctrl = (
        rd, rs, imm,
        int(op in (Op.MOVI, Op.ADDI, Op.LDR)
            or (is_alu and funct != Funct.CMP)),             # we
        int(op == Op.MOVI or funct == Funct.MOV),            # a_zero
        int(is_mem),                                         # a_use_b
        int(op in (Op.MOVI, Op.ADDI) or is_mem),             # b_use_imm
        int(op in (Op.MOVI, Op.ADDI, Op.ALU)),               # flags_we
        int(op == Op.ADDI
            or funct in (Funct.ADD, Funct.SUB, Funct.CMP)),  # flags_cv
        int(op == Op.LDR), int(op == Op.STR),
        int(op == Op.B), int(op == Op.BCOND),
        (word >> 8) & 7,                                     # cond
        int(op == Op.SYS and word & 0xFFF == 0xFFF),         # halt
        int(funct in (Funct.SUB, Funct.CMP)),
        int(funct == Funct.AND), int(funct == Funct.ORR),
        int(funct == Funct.EOR),
        int(funct in (Funct.LSL, Funct.LSR, Funct.ASR)),
        int(funct == Funct.MUL), int(funct == Funct.MVN),
        int(funct == Funct.LSL), int(funct == Funct.ASR),
    )
    return boff, ctrl


def execute_stage(ctrl, rf):
    """``(result, carry, overflow, ra)`` of the EX stage for the given
    DE->EX registers and register file: the ALU result drives ``daddr``
    and the writeback, ``ra`` the store data ``dwdata``.

    The result select is the netlist's mux chain -- the adder is the
    default and AND, ORR, EOR, shift, MUL, MVN override it in that
    order -- and the shifter shifts the A operand by ``rb[4:0]``.
    """
    (rd, rs, imm, _we, a_zero, a_use_b, b_use_imm, _fwe, _fcv, _ld, _st,
     _b, _bc, _cond, _halt, sub, op_and, op_or, op_xor, shift, mul, mvn,
     shl, sar) = ctrl
    ra = rf[rd]
    rb = rf[rs]
    a = 0 if a_zero else (rb if a_use_b else ra)
    b = imm if b_use_imm else rb
    result, carry, overflow = add_sub(a, b, sub)
    if op_and:
        result = alu_value(Funct.AND, a, b)
    if op_or:
        result = alu_value(Funct.ORR, a, b)
    if op_xor:
        result = alu_value(Funct.EOR, a, b)
    if shift:
        funct = Funct.LSL if shl else (Funct.ASR if sar else Funct.LSR)
        result = alu_value(funct, a, rb)
    if mul:
        result = alu_value(Funct.MUL, a, b)
    if mvn:
        result = alu_value(Funct.MVN, a, b)
    return result, int(carry), int(overflow), ra


class FlopLayout:
    """Where each bit of :data:`FIELDS` lives in a lowered core.

    Built from ``soa.seq_names``; construction raises ``KeyError`` when
    the core's flops are not exactly the M0-lite's (see
    :meth:`for_soa`).  ``q_cols`` are the flop Q net columns, with
    ``field_of`` / ``bit_of`` naming the field bit each one holds.
    """

    def __init__(self, soa):
        row_of = {name: row for row, name in enumerate(soa.seq_names)
                  if soa.seq_q[row] >= 0}
        q_cols, field_of, bit_of = [], [], []
        for f, (stem, width) in enumerate(FIELDS):
            for bit in range(width):
                name = stem if width == 1 else "{}_{}".format(stem, bit)
                q_cols.append(soa.seq_q[row_of.pop(name)])
                field_of.append(f)
                bit_of.append(bit)
        if row_of:
            raise KeyError("unmodelled flops: {}".format(
                ", ".join(sorted(row_of)[:5])))
        self.q_cols = np.asarray(q_cols, dtype=np.int64)
        self.field_of = np.asarray(field_of, dtype=np.int64)
        self.bit_of = np.asarray(bit_of, dtype=np.int64)

    @classmethod
    def for_soa(cls, soa):
        """The layout of ``soa``, or ``None`` when its flops differ."""
        try:
            return cls(soa)
        except KeyError:
            return None

    def pack(self, row):
        """Field values (:data:`FIELDS` order) of a settled value row, or
        ``None`` when any flop is X."""
        bits = row[self.q_cols].astype(np.int64)
        if (bits == X).any():
            return None
        values = np.zeros(len(FIELDS), dtype=np.int64)
        np.bitwise_or.at(values, self.field_of, bits << self.bit_of)
        return values.tolist()

    def unpack(self, values):
        """``(cycles, flops)`` ``int8`` Q bits of a ``(cycles, fields)``
        matrix of field values."""
        return ((values[:, self.field_of] >> self.bit_of) & 1).astype(
            np.int8)


@dataclass
class Window:
    """A predicted run of cycles, one entry per cycle: the flop fields
    at the start of the cycle (``(cycles, fields)``), the ``idata`` /
    ``drdata`` words applied then, and the store committed as the cycle
    begins (``(addr, data)`` or ``None``)."""

    fields: np.ndarray
    idata: np.ndarray
    drdata: np.ndarray
    stores: list

    def __len__(self):
        return len(self.stores)


class PipelineModel:
    """The M0-lite pipeline state at the start of cycle :attr:`cycle`.

    ``values`` are the flop fields (:meth:`FlopLayout.pack`), ``idata``
    and ``drdata`` the words currently fed to the core; ``memory`` is
    copied, and the model's own stores land in the copy.
    """

    def __init__(self, program, memory, values, idata, drdata, cycle=0):
        self.program = program
        self.memory = dict(memory)
        self.cycle = cycle
        n_fetch, n_ctrl, n_status = len(FETCH), len(CTRL), len(STATUS)
        self.fetch = tuple(values[:n_fetch])
        self.ctrl = tuple(values[n_fetch:n_fetch + n_ctrl])
        self.status = tuple(values[n_fetch + n_ctrl:
                                   n_fetch + n_ctrl + n_status])
        self.rf = list(values[n_fetch + n_ctrl + n_status:])
        self.idata = idata
        self.drdata = drdata
        self.ex = execute_stage(self.ctrl, self.rf)

    def row(self):
        """The current flop fields, :data:`FIELDS` order."""
        return self.fetch + self.ctrl + self.status + tuple(self.rf)

    @property
    def halted(self):
        return bool(self.status[-1])

    def store(self):
        """The store the core commits as this cycle begins (``dwrite``:
        a live store in EX), as ``(addr, data)``, or ``None``."""
        v_ex, halted = self.fetch[4], self.status[4]
        if self.ctrl[_IS_STORE] and v_ex and not halted:
            result, _carry, _overflow, ra = self.ex
            return result, ra
        return None

    def advance(self):
        """Clock one cycle: commit this cycle's store, take the rising
        edge, then feed the memories as :class:`GateLevelCpu` does."""
        pc, ir, pc1de, v_ir, v_ex, tgt = self.fetch
        ctrl = self.ctrl
        fl_n, fl_z, fl_c, fl_v, halted = self.status
        result, carry, overflow, _ra = self.ex
        rf = self.rf
        memory = self.memory

        store = self.store()
        if store is not None:
            memory[store[0]] = store[1]
        live = v_ex and not halted
        taken = live and (ctrl[_IS_B] or (
            ctrl[_IS_BCOND] and _COND_OK[ctrl[_COND]][
                fl_n << 3 | fl_z << 2 | fl_c << 1 | fl_v]))
        halting = ctrl[_HALT] and v_ex
        if live:
            if ctrl[_WE]:
                rf[ctrl[_RD]] = self.drdata if ctrl[_IS_LOAD] else result
            if ctrl[_FLAGS_WE]:
                fl_n, fl_z = result >> 31, int(result == 0)
            if ctrl[_FLAGS_CV]:
                fl_c, fl_v = carry, overflow
        pc1 = (pc + 1) & MASK32
        if halted or halting:
            next_pc = pc
        else:
            next_pc = tgt if taken else pc1

        boff, self.ctrl = decode_stage(ir)
        self.fetch = (next_pc, self.idata, pc1, int(not taken),
                      int(v_ir and not taken), (pc1de + boff) & MASK32)
        self.status = (fl_n, fl_z, fl_c, fl_v, int(halted or halting))

        program = self.program
        self.idata = program[next_pc] & 0xFFFF \
            if next_pc < len(program) else NOP_WORD
        self.ex = execute_stage(self.ctrl, rf)
        self.drdata = memory.get(self.ex[0] & ~3 & MASK32, 0) & MASK32
        self.cycle += 1

    def window(self, n):
        """Predict up to ``n`` cycles from here as a :class:`Window`.

        The window ends early after the cycle that raises the halt latch,
        before a cycle whose store is unaligned (the core faults there),
        and at any exception the model raises -- a prediction is only
        ever a guess, so the cycles it cannot model go to the stepper.
        """
        rows, idata, drdata, stores = [], [], [], []
        try:
            for _ in range(n):
                store = self.store()
                if store is not None and store[0] % 4:
                    break
                rows.append(self.row())
                idata.append(self.idata)
                drdata.append(self.drdata)
                stores.append(store)
                self.advance()
                if self.halted:
                    break
        except Exception:       # noqa: BLE001 - any model fault = no guess
            pass
        return Window(
            fields=np.asarray(rows, dtype=np.int64).reshape(
                len(rows), len(FIELDS)),
            idata=np.asarray(idata, dtype=np.int64),
            drdata=np.asarray(drdata, dtype=np.int64),
            stores=stores)
