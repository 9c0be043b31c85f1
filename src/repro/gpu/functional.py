"""Functional (architectural) semantics of every ISA instruction.

These models compute what the hardware computes, thread by thread:
32-bit two's-complement integer arithmetic, IEEE-754 binary32 floating
point (via struct round-tripping), and the SFU's transcendental
approximations.  The cycle-level SM drives them; the gate-level netlists
are *not* involved here — they enter only through the fault-analysis path.
"""

from __future__ import annotations

import math
import struct

from ..errors import SimulationError
from ..isa.opcodes import CmpOp, Op

MASK32 = 0xFFFFFFFF


def to_signed(value):
    """Interpret a 32-bit word as a signed integer."""
    value &= MASK32
    return value - (1 << 32) if value >> 31 else value


def from_signed(value):
    """Wrap a Python int into a 32-bit word."""
    return value & MASK32


def word_to_float(word):
    """Reinterpret a 32-bit word as IEEE-754 binary32."""
    return struct.unpack("<f", struct.pack("<I", word & MASK32))[0]


def float_to_word(value):
    """Round *value* to binary32 and reinterpret as a 32-bit word."""
    if math.isnan(value):
        return 0x7FC00000
    if math.isinf(value):
        return 0x7F800000 if value > 0 else 0xFF800000
    try:
        return struct.unpack("<I", struct.pack("<f", value))[0]
    except OverflowError:
        return 0x7F800000 if value > 0 else 0xFF800000


def compare_int(cmp_op, a, b):
    """Signed integer comparison used by ISET/ISETP."""
    sa, sb = to_signed(a), to_signed(b)
    return {
        CmpOp.LT: sa < sb,
        CmpOp.LE: sa <= sb,
        CmpOp.GT: sa > sb,
        CmpOp.GE: sa >= sb,
        CmpOp.EQ: sa == sb,
        CmpOp.NE: sa != sb,
    }[cmp_op]


def compare_float(cmp_op, a, b):
    fa, fb = word_to_float(a), word_to_float(b)
    if math.isnan(fa) or math.isnan(fb):
        return cmp_op is CmpOp.NE
    return {
        CmpOp.LT: fa < fb,
        CmpOp.LE: fa <= fb,
        CmpOp.GT: fa > fb,
        CmpOp.GE: fa >= fb,
        CmpOp.EQ: fa == fb,
        CmpOp.NE: fa != fb,
    }[cmp_op]


def sfu_function(op, word):
    """SFU transcendental approximation on a binary32 operand."""
    x = word_to_float(word)
    try:
        if op is Op.RCP:
            result = math.inf if x == 0 else 1.0 / x
        elif op is Op.RSQ:
            result = math.inf if x == 0 else (
                float("nan") if x < 0 else 1.0 / math.sqrt(x))
        elif op is Op.SIN:
            result = math.sin(x) if math.isfinite(x) else float("nan")
        elif op is Op.COS:
            result = math.cos(x) if math.isfinite(x) else float("nan")
        elif op is Op.LG2:
            result = (float("nan") if x < 0 else
                      -math.inf if x == 0 else math.log2(x))
        elif op is Op.EX2:
            result = 2.0 ** max(min(x, 128.0), -128.0)
        else:
            raise SimulationError("{} is not an SFU op".format(op))
    except (ValueError, OverflowError):
        result = float("nan")
    return float_to_word(result)


def int_shift_amount(word):
    """Hardware shift semantics: 6-bit amount, >=32 flushes to zero."""
    amount = word & 0x3F
    return amount


def _f2i(a):
    value = word_to_float(a)
    if math.isnan(value):
        return 0
    clamped = max(min(value, 2147483647.0), -2147483648.0)
    return from_signed(int(clamped))


def _shl(a, b):
    amount = int_shift_amount(b)
    return (a << amount) & MASK32 if amount < 32 else 0


def _shr(a, b):
    amount = int_shift_amount(b)
    return (a & MASK32) >> amount if amount < 32 else 0


def _sfu(op):
    return lambda a, b, c, cmp_op: (sfu_function(op, a), None)


#: Op -> scalar model ``(a, b, c, cmp_op) -> (result_word, pred_value)``.
_ARITH = {
    Op.IADD: lambda a, b, c, cmp_op: (
        from_signed(to_signed(a) + to_signed(b)), None),
    Op.ISUB: lambda a, b, c, cmp_op: (
        from_signed(to_signed(a) - to_signed(b)), None),
    Op.IMUL: lambda a, b, c, cmp_op: (
        from_signed(to_signed(a) * to_signed(b)), None),
    Op.IMAD: lambda a, b, c, cmp_op: (
        from_signed(to_signed(a) * to_signed(b) + to_signed(c)), None),
    Op.IMIN: lambda a, b, c, cmp_op: (
        (a if to_signed(a) < to_signed(b) else b), None),
    Op.IMAX: lambda a, b, c, cmp_op: (
        (a if to_signed(a) > to_signed(b) else b), None),
    Op.AND: lambda a, b, c, cmp_op: (a & b, None),
    Op.OR: lambda a, b, c, cmp_op: (a | b, None),
    Op.XOR: lambda a, b, c, cmp_op: (a ^ b, None),
    Op.NOT: lambda a, b, c, cmp_op: ((~a) & MASK32, None),
    Op.SHL: lambda a, b, c, cmp_op: (_shl(a, b), None),
    Op.SHR: lambda a, b, c, cmp_op: (_shr(a, b), None),
    Op.ISET: lambda a, b, c, cmp_op: (
        (MASK32 if compare_int(cmp_op, a, b) else 0), None),
    Op.ISETP: lambda a, b, c, cmp_op: (0, compare_int(cmp_op, a, b)),
    Op.FADD: lambda a, b, c, cmp_op: (
        float_to_word(word_to_float(a) + word_to_float(b)), None),
    Op.FMUL: lambda a, b, c, cmp_op: (
        float_to_word(word_to_float(a) * word_to_float(b)), None),
    Op.FMAD: lambda a, b, c, cmp_op: (
        float_to_word(word_to_float(a) * word_to_float(b)
                      + word_to_float(c)), None),
    Op.FSET: lambda a, b, c, cmp_op: (
        (MASK32 if compare_float(cmp_op, a, b) else 0), None),
    Op.F2I: lambda a, b, c, cmp_op: (_f2i(a), None),
    Op.I2F: lambda a, b, c, cmp_op: (
        float_to_word(float(to_signed(a))), None),
    Op.MOV: lambda a, b, c, cmp_op: (a, None),
    Op.MOV32I: lambda a, b, c, cmp_op: (b, None),
}
for _op in (Op.RCP, Op.RSQ, Op.SIN, Op.COS, Op.LG2, Op.EX2):
    _ARITH[_op] = _sfu(_op)
for _op, _base in ((Op.IADD32I, Op.IADD), (Op.IMUL32I, Op.IMUL),
                   (Op.AND32I, Op.AND), (Op.OR32I, Op.OR),
                   (Op.XOR32I, Op.XOR), (Op.SHL32I, Op.SHL),
                   (Op.SHR32I, Op.SHR), (Op.FADD32I, Op.FADD),
                   (Op.FMUL32I, Op.FMUL)):
    _ARITH[_op] = _ARITH[_base]


def arith_function(op):
    """The scalar model of *op*: ``(a, b, c, cmp_op) -> (result_word,
    pred_value)``, as :func:`execute_arith` applies it.

    Raises :class:`SimulationError` for ops it does not handle (memory,
    control, SEL and S2R).
    """
    function = _ARITH.get(op)
    if function is None:
        raise SimulationError("{} is not handled by execute_arith".format(op))
    return function


def execute_arith(instr, a, b, c, cmp_op):
    """Execute one arithmetic/logic/FP/SFU instruction for one thread.

    Args:
        instr: the :class:`~repro.isa.instruction.Instruction`.
        a, b, c: resolved 32-bit source operands (immediates already
            substituted into *b* for ``*32I`` forms).
        cmp_op: the instruction's comparison operator.

    Returns:
        (result_word, pred_value) — *pred_value* is None unless the
        instruction defines a predicate.
    """
    return arith_function(instr.op)(a, b, c, cmp_op)
