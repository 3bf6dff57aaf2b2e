"""Bigint sweep of the truth-table kernel.

Evaluates the whole assignment space at once: the truth column of atom i
over all 2**n assignments is packed into one big integer, and the flat
postfix program of ``cl4kit.kernel.compile_program`` (an atom index, or one
of the opcodes -5 F, -4 T, -3 NOT, -2 AND, -1 OR) runs bottom-up with bigint
bitwise operations.
"""

from __future__ import annotations


def _column(i: int, n: int) -> int:
    """Bit a of the result is 1 iff bit i of assignment a is 1."""
    half = 1 << i
    col = ((1 << half) - 1) << half
    width = half << 1
    while width < 1 << n:
        col |= col << width
        width <<= 1
    return col


def falsifying(program, n_atoms: int):
    """Index of some falsifying assignment, or None for a tautology.  The
    program is one ``compile_program`` wrote, over n_atoms atoms."""
    mask = (1 << (1 << n_atoms)) - 1
    columns = [_column(i, n_atoms) for i in range(n_atoms)]
    stack: list[int] = []
    for op in program:
        if op >= 0:
            stack.append(columns[op])
        elif op == -3:
            stack[-1] = mask ^ stack[-1]
        elif op == -2:
            b = stack.pop()
            stack[-1] &= b
        elif op == -1:
            b = stack.pop()
            stack[-1] |= b
        else:
            stack.append(mask if op == -4 else 0)
    value = stack[0] & mask
    if value == mask:
        return None
    zeros = mask & ~value
    return (zeros & -zeros).bit_length() - 1
