"""Bigint sweep of the truth-table kernel.

Evaluates the whole assignment space at once: the truth column of atom i
over all 2**n assignments is packed into one big integer, and the postfix
program (the format of ``cl4kit.kernel.compile_program``) runs bottom-up
with bigint bitwise operations.
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
    """Index of some falsifying assignment, or None for a tautology."""
    if n_atoms < 0 or n_atoms > 32:
        raise ValueError("atom count out of range for the bigint kernel")
    if len(program) % 2 != 0 or len(program) == 0:
        raise ValueError("malformed program")
    mask = (1 << (1 << n_atoms)) - 1
    columns = [_column(i, n_atoms) for i in range(n_atoms)]
    stack: list[int] = []
    for k in range(0, len(program), 2):
        op, arg = program[k], program[k + 1]
        if op == 0:
            stack.append(columns[arg])
        elif op == 1:
            stack.append(0)
        elif op == 2:
            stack.append(mask)
        elif op == 3:
            stack[-1] = mask ^ stack[-1]
        elif op == 4:
            b = stack.pop()
            stack[-1] &= b
        elif op == 5:
            b = stack.pop()
            stack[-1] |= b
        elif op == 6:
            b = stack.pop()
            stack[-1] = (mask ^ stack[-1]) | b
        else:
            raise ValueError(f"bad opcode {op}")
    if len(stack) != 1:
        raise ValueError("malformed program")
    value = stack[0] & mask
    if value == mask:
        return None
    zeros = mask & ~value
    return (zeros & -zeros).bit_length() - 1
