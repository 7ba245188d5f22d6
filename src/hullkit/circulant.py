"""Pure and bordered double circulant code constructors.

Row i+1 of a circulant matrix is row i rotated RIGHT by one position; the
choice of direction is validated downstream by the certified parameters of
the bundled length-56 seeds.
"""
from __future__ import annotations

from dataclasses import dataclass

from .code import LinearCode
from .field import FieldMatrix, FieldVector


@dataclass(frozen=True)
class CirculantSpec:
    first_row: FieldVector

    def __post_init__(self):
        if not len(self.first_row):
            raise ValueError("a circulant first row must not be empty")

    @property
    def size(self) -> int:
        return len(self.first_row)


def circulant_matrix(spec: CirculantSpec) -> FieldMatrix:
    """The l x l matrix whose row i is first_row rotated right i positions."""
    row, l = spec.first_row, spec.size
    if row.field.binary:
        # rotating coordinates right is rotating the packed bits left
        b, full = row.bits, (1 << l) - 1
        return FieldMatrix.from_bit_rows([(b << i | b >> (l - i)) & full for i in range(l)], l)
    syms = row.symbols
    rows = [tuple(syms[(j - i) % l] for j in range(l)) for i in range(l)]
    return FieldMatrix(row.field, rows, cols=l)


def pure_double_circulant(spec: CirculantSpec) -> LinearCode:
    """[2l, l] code with generator [I_l | R]."""
    return LinearCode.systematic(circulant_matrix(spec))


def bordered_double_circulant(spec: CirculantSpec) -> LinearCode:
    """[2l+2, l+1] code with generator [I_{l+1} | B].

    B's first row is (0, 1, ..., 1); each remaining row is a 1 followed by
    the corresponding circulant row.
    """
    field = spec.first_row.field
    l = spec.size
    r = circulant_matrix(spec)
    if field.binary:
        rows = [((1 << l) - 1) << 1] + [1 | b << 1 for b in r.row_bits]
        return LinearCode.systematic(FieldMatrix.from_bit_rows(rows, l + 1))
    border = [tuple([0] + [1] * l)]
    body = [tuple([1] + list(row)) for row in r.entries]
    return LinearCode.systematic(FieldMatrix(field, border + body, cols=l + 1))
