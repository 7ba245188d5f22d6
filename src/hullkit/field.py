"""Prime-field scalar/vector/matrix arithmetic with a bit-packed GF(2) fast path.

Everything above this module is field-generic.  Vectors and matrices are
immutable values: operations return fresh objects and never mutate inputs,
so all types are safe to share between threads.

Over GF(2) a vector additionally carries its coordinates packed into a
Python int (``bits``, bit i = coordinate i) and inner products reduce to
``(a & b).bit_count() & 1``; the generic modular path covers p >= 3.  Both
paths are kept alive and differentially tested against each other.

Public coordinate references (pivot columns and the like) are 1-based,
following the conventions of the coding-theory literature; see README.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """GF(p) for a prime modulus p. Elements are plain ints in [0, p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"field modulus must be prime, got {p!r}")
        self.p = p

    @property
    def binary(self) -> bool:
        return self.p == 2

    def check(self, a: int) -> int:
        if not 0 <= a < self.p:
            raise ValueError(f"element {a} out of range for GF({self.p})")
        return a

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.p})")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


GF2 = PrimeField(2)


def _pack_bits(symbols: Sequence[int]) -> int:
    bits = 0
    for i, s in enumerate(symbols):
        if s:
            bits |= 1 << i
    return bits


class FieldVector:
    """Immutable vector over a prime field.

    ``symbols`` is a tuple of ints in [0, p).  Over GF(2), ``bits`` holds
    the packed form (bit i = coordinate i); it is None for p >= 3.
    """

    __slots__ = ("field", "symbols", "bits")

    def __init__(self, field: PrimeField, symbols: Iterable[int]):
        syms = tuple(int(s) for s in symbols)
        for s in syms:
            field.check(s)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "symbols", syms)
        object.__setattr__(self, "bits", _pack_bits(syms) if field.p == 2 else None)

    def __setattr__(self, name, value):
        raise AttributeError("FieldVector is immutable")

    @classmethod
    def from_bits(cls, bits: int, length: int, field: PrimeField = GF2) -> "FieldVector":
        if not field.binary:
            raise ValueError("from_bits is a GF(2) constructor")
        if bits < 0 or bits >> length:
            raise ValueError(f"bits 0x{bits:x} do not fit in length {length}")
        return cls(field, [(bits >> i) & 1 for i in range(length)])

    @classmethod
    def zeros(cls, field: PrimeField, length: int) -> "FieldVector":
        return cls(field, [0] * length)

    @classmethod
    def all_ones(cls, field: PrimeField, length: int) -> "FieldVector":
        return cls(field, [1] * length)

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    def __iter__(self):
        return iter(self.symbols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldVector)
            and other.field == self.field
            and other.symbols == self.symbols
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.symbols))

    def __repr__(self) -> str:
        return f"FieldVector(GF({self.field.p}), {self.to_string()!r})"

    def to_string(self) -> str:
        """Whitespace-free symbol string, e.g. '0110'. Requires p <= 7."""
        if self.field.p > 7:
            raise ValueError("symbol strings only support single-digit moduli")
        return "".join(str(s) for s in self.symbols)

    @property
    def weight(self) -> int:
        if self.bits is not None:
            return self.bits.bit_count()
        return sum(1 for s in self.symbols if s)

    def is_zero(self) -> bool:
        return all(s == 0 for s in self.symbols)

    def _require_compatible(self, other: "FieldVector") -> None:
        if self.field != other.field:
            raise DimensionError(
                f"field mismatch: GF({self.field.p}) vs GF({other.field.p})"
            )
        if len(self) != len(other):
            raise DimensionError(f"length mismatch: {len(self)} vs {len(other)}")

    def __add__(self, other: "FieldVector") -> "FieldVector":
        self._require_compatible(other)
        p = self.field.p
        return FieldVector(self.field, [(a + b) % p for a, b in zip(self.symbols, other.symbols)])

    def __sub__(self, other: "FieldVector") -> "FieldVector":
        self._require_compatible(other)
        p = self.field.p
        return FieldVector(self.field, [(a - b) % p for a, b in zip(self.symbols, other.symbols)])

    def __neg__(self) -> "FieldVector":
        p = self.field.p
        return FieldVector(self.field, [(-a) % p for a in self.symbols])

    def scale(self, c: int) -> "FieldVector":
        p = self.field.p
        return FieldVector(self.field, [(c * a) % p for a in self.symbols])

    def hadamard(self, other: "FieldVector") -> "FieldVector":
        """Componentwise product."""
        self._require_compatible(other)
        p = self.field.p
        return FieldVector(self.field, [(a * b) % p for a, b in zip(self.symbols, other.symbols)])


def inner_product(u: FieldVector, v: FieldVector) -> int:
    """Standard inner product sum u_i v_i mod p (packed popcount over GF(2))."""
    u._require_compatible(v)
    if u.bits is not None:
        return (u.bits & v.bits).bit_count() & 1
    return _inner_product_symbols(u, v)


def _inner_product_symbols(u: FieldVector, v: FieldVector) -> int:
    """Symbol-wise reference path (differential twin of the packed path)."""
    p = u.field.p
    return sum(a * b for a, b in zip(u.symbols, v.symbols)) % p


class FieldMatrix:
    """Immutable r x c matrix over a prime field.

    Over GF(2), ``row_bits`` caches each row packed into an int.
    """

    __slots__ = ("field", "rows", "cols", "entries", "row_bits")

    def __init__(self, field: PrimeField, entries: Iterable[Iterable[int]], cols: int | None = None):
        rows = tuple(tuple(int(s) for s in row) for row in entries)
        if rows:
            c = len(rows[0])
            for r in rows:
                if len(r) != c:
                    raise DimensionError("ragged rows in matrix")
        else:
            if cols is None:
                raise DimensionError("empty matrix needs an explicit column count")
            c = cols
        for r in rows:
            for s in r:
                field.check(s)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", c)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(
            self, "row_bits", tuple(_pack_bits(r) for r in rows) if field.p == 2 else None
        )

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FieldMatrix":
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, field: PrimeField, r: int, c: int) -> "FieldMatrix":
        return cls(field, [[0] * c for _ in range(r)], cols=c)

    @classmethod
    def from_bit_rows(cls, bit_rows: Sequence[int], cols: int, field: PrimeField = GF2) -> "FieldMatrix":
        if not field.binary:
            raise ValueError("from_bit_rows is a GF(2) constructor")
        return cls(field, [[(b >> i) & 1 for i in range(cols)] for b in bit_rows], cols=cols)

    def row(self, i: int) -> FieldVector:
        return FieldVector(self.field, self.entries[i])

    def to_numpy(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64).reshape(self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and other.field == self.field
            and other.cols == self.cols
            and other.entries == self.entries
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"FieldMatrix(GF({self.field.p}), {self.rows}x{self.cols})"

    def hstack(self, other: "FieldMatrix") -> "FieldMatrix":
        if other.field != self.field or other.rows != self.rows:
            raise DimensionError("hstack needs same field and row count")
        return FieldMatrix(
            self.field,
            [a + b for a, b in zip(self.entries, other.entries)],
            cols=self.cols + other.cols,
        )

    def take_columns(self, js: Sequence[int]) -> "FieldMatrix":
        """New matrix whose column i is this matrix's column js[i] (0-based)."""
        return FieldMatrix(self.field, [[r[j] for j in js] for r in self.entries], cols=len(js))


def transpose(m: FieldMatrix) -> FieldMatrix:
    return FieldMatrix(
        m.field, [[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)], cols=m.rows
    )


def matmul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Matrix product over the common field (bit-packed path over GF(2))."""
    if a.field != b.field:
        raise DimensionError(f"field mismatch: GF({a.field.p}) vs GF({b.field.p})")
    if a.cols != b.rows:
        raise DimensionError(f"inner dimension mismatch: {a.cols} vs {b.rows}")
    if a.field.binary:
        col_bits = [_pack_bits([b.entries[i][j] for i in range(b.rows)]) for j in range(b.cols)]
        out_rows = [
            _pack_bits([(rb & cb).bit_count() & 1 for cb in col_bits]) for rb in a.row_bits
        ]
        return FieldMatrix.from_bit_rows(out_rows, b.cols)
    return _matmul_symbols(a, b)


def _matmul_symbols(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Symbol-wise reference path (differential twin of the packed path)."""
    if a.rows == 0 or b.cols == 0:
        return FieldMatrix(a.field, [[0] * b.cols for _ in range(a.rows)], cols=b.cols)
    prod = (a.to_numpy() @ b.to_numpy()) % a.field.p
    return FieldMatrix(a.field, prod.tolist(), cols=b.cols)


def _rref_gf2(row_bits: list[int], cols: int) -> tuple[list[int], list[int]]:
    work = list(row_bits)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(work)) if (work[i] >> c) & 1), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> c) & 1:
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def _rref_generic(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    work = mat.copy() % p
    m, n = work.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if work[i, c] % p), None)
        if piv is None:
            continue
        if piv != r:
            work[[r, piv]] = work[[piv, r]]
        inv = pow(int(work[r, c]), p - 2, p)
        work[r] = (work[r] * inv) % p
        for i in range(m):
            if i != r and work[i, c]:
                work[i] = (work[i] - work[i, c] * work[r]) % p
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work, pivots


def rref(m: FieldMatrix) -> tuple[FieldMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns (1-based, increasing)."""
    if m.field.binary:
        work, pivots = _rref_gf2(list(m.row_bits), m.cols)
        reduced = FieldMatrix.from_bit_rows(work, m.cols)
    else:
        if m.rows == 0:
            return m, ()
        work, pivots = _rref_generic(m.to_numpy(), m.field.p)
        reduced = FieldMatrix(m.field, work.tolist(), cols=m.cols)
    return reduced, tuple(c + 1 for c in pivots)


def rank(m: FieldMatrix) -> int:
    """Row rank over the field, by row reduction. Input is not mutated."""
    if m.rows == 0:
        return 0
    if m.field.binary:
        return len(_rref_gf2(list(m.row_bits), m.cols)[1])
    return len(_rref_generic(m.to_numpy(), m.field.p)[1])
