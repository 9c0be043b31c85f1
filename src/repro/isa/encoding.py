"""64-bit binary encoding of the SASS-like ISA.

Layout (bit 63 = MSB):

    [63:56] opcode        (8 bits)
    [55:53] pred index    (3 bits; 7 = unguarded)
    [52]    pred negate   (1 bit)
    [51:46] dst           (6 bits; GPR, or predicate index for ISETP)
    [45:40] src A         (6 bits)
    [39:36] mod           (4 bits; cmp op, sreg index, spare)

    then, by format:
      imm32 forms (RRI32 / RI32):        [31:0]  imm32
      branch forms:                      [23:0]  target (instruction index)
      memory forms (LD / ST / CONSTLD):  [35:30] src B, [23:0] imm24 offset
      register forms (RRR / RRRR / ...): [35:30] src B, [29:24] src C

The Decoder Unit netlist (``repro.netlist.modules.decoder_unit``) implements
exactly this layout in gates, so the instruction words captured by the GPU
simulator's monitor double as gate-level test patterns for the DU.
"""

from __future__ import annotations

from ..errors import EncodingError
from .instruction import Instruction, Pred
from .opcodes import BY_CODE, CMP_BY_CODE, SREG_BY_CODE, Fmt, info

#: Width of one instruction word in bits.
WORD_BITS = 64

_PRED_NONE = 7


def _field(value, width, what):
    if not 0 <= value < (1 << width):
        raise EncodingError(
            "{} value {} does not fit in {} bits".format(what, value, width))
    return value


# Format groups of the layout above, bound once: enum member access costs
# more than the identity tests, and the simulator encodes every decoded pc.
_CMP_FORMATS = (Fmt.RRC, Fmt.PRC)
_SREG_FORMAT = Fmt.RSREG
_IMM32_FORMATS = (Fmt.RRI32, Fmt.RI32)
_BRANCH_FORMAT = Fmt.BRANCH
_MEMORY_FORMATS = (Fmt.LD, Fmt.ST, Fmt.CONSTLD)
_REGISTER_FORMATS = (Fmt.RRR, Fmt.RRRR, Fmt.RRC, Fmt.PRC, Fmt.RSEL)


def encode(instr):
    """Encode an :class:`Instruction` into a 64-bit integer word."""
    inf = info(instr.op)
    word = _field(inf.code, 8, "opcode") << 56
    if instr.pred is None:
        word |= _PRED_NONE << 53
    else:
        word |= _field(instr.pred.index, 3, "pred") << 53
        word |= (1 if instr.pred.negate else 0) << 52
    word |= _field(instr.dst, 6, "dst") << 46
    word |= _field(instr.src_a, 6, "srcA") << 40

    fmt = inf.fmt
    if fmt in _CMP_FORMATS:
        word |= _field(instr.cmp.value, 4, "cmp") << 36
    elif fmt is _SREG_FORMAT:
        word |= _field(instr.sreg.value, 4, "sreg") << 36

    if fmt in _IMM32_FORMATS:
        word |= _field(instr.imm, 32, "imm32")
    elif fmt is _BRANCH_FORMAT:
        word |= _field(instr.target, 24, "target")
    elif fmt in _MEMORY_FORMATS:
        word |= _field(instr.src_b, 6, "srcB") << 30
        word |= _field(instr.imm, 24, "imm24")
    elif fmt in _REGISTER_FORMATS:
        word |= _field(instr.src_b, 6, "srcB") << 30
        word |= _field(instr.src_c, 6, "srcC") << 24
    # Fmt.RR / Fmt.RSREG / Fmt.NONE: no further fields.
    return word


def decode(word):
    """Decode a 64-bit integer word back into an :class:`Instruction`."""
    if not 0 <= word < (1 << WORD_BITS):
        raise EncodingError("word out of 64-bit range: {!r}".format(word))
    code = (word >> 56) & 0xFF
    op = BY_CODE.get(code)
    if op is None:
        raise EncodingError("unknown opcode byte 0x{:02X}".format(code))
    inf = info(op)

    pred_idx = (word >> 53) & 0x7
    pred = None
    if pred_idx != _PRED_NONE:
        if pred_idx > 3:
            raise EncodingError("invalid predicate index {}".format(pred_idx))
        pred = Pred(pred_idx, bool((word >> 52) & 1))

    dst = (word >> 46) & 0x3F
    src_a = (word >> 40) & 0x3F
    mod = (word >> 36) & 0xF

    kwargs = {"op": op, "pred": pred}
    fmt = inf.fmt
    if fmt in (Fmt.RRC, Fmt.PRC):
        if mod not in CMP_BY_CODE:
            raise EncodingError("invalid cmp field {}".format(mod))
        kwargs["cmp"] = CMP_BY_CODE[mod]
    elif fmt is Fmt.RSREG:
        if mod not in SREG_BY_CODE:
            raise EncodingError("invalid sreg field {}".format(mod))
        kwargs["sreg"] = SREG_BY_CODE[mod]

    if fmt in (Fmt.RRI32, Fmt.RI32):
        kwargs["imm"] = word & 0xFFFFFFFF
    elif fmt is Fmt.BRANCH:
        kwargs["target"] = word & 0xFFFFFF
    elif fmt in (Fmt.LD, Fmt.ST, Fmt.CONSTLD):
        kwargs["src_b"] = (word >> 30) & 0x3F
        kwargs["imm"] = word & 0xFFFFFF
    elif fmt in (Fmt.RRR, Fmt.RRRR, Fmt.RRC, Fmt.PRC, Fmt.RSEL):
        kwargs["src_b"] = (word >> 30) & 0x3F
        kwargs["src_c"] = (word >> 24) & 0x3F

    if fmt in (Fmt.RRR, Fmt.RRRR, Fmt.RRC, Fmt.PRC, Fmt.RR, Fmt.RSEL,
               Fmt.RRI32, Fmt.RI32, Fmt.LD, Fmt.ST, Fmt.CONSTLD, Fmt.RSREG):
        kwargs["dst"] = dst
        kwargs["src_a"] = src_a
    return Instruction(**kwargs)


def encode_program(instructions):
    """Encode a sequence of instructions into a list of 64-bit words."""
    return [encode(i) for i in instructions]


def decode_program(words):
    """Decode a sequence of 64-bit words into a list of instructions."""
    return [decode(w) for w in words]


def word_to_bits(word, width=WORD_BITS):
    """Return *word* as a list of ``width`` ints (LSB first) — netlist input."""
    return [(word >> i) & 1 for i in range(width)]


def bits_to_word(bits):
    """Inverse of :func:`word_to_bits`."""
    word = 0
    for i, bit in enumerate(bits):
        if bit:
            word |= 1 << i
    return word
