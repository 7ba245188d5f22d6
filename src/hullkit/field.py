"""Prime-field scalar/vector/matrix arithmetic with a bit-packed GF(2) fast path.

Everything above this module is field-generic, and builds codes through the
operations here without unpacking a GF(2) row.  Vectors and matrices are
immutable values: operations return fresh objects and never mutate inputs,
so all types are safe to share between threads.

Over GF(2), vectors and matrices are packed-first: a vector keeps its
coordinates packed into a Python int (``bits``, bit i = coordinate i), a
matrix its rows, and symbol tuples are unpacked only when asked for.  Inner
products reduce to ``(a & b).bit_count() & 1``, and products, transposes,
negations, row and column selections and Gram matrices work on the packed
rows.  The generic modular path covers p >= 3.  Both paths are kept alive and
differentially tested against each other.

Rows are checked once, where they enter: ``FieldMatrix.from_bit_rows``,
``FieldVector.from_bits`` and the symbol constructors convert and range-check
them.  The packed operations build their results on ``FieldMatrix._trusted``,
which takes the Python ints they computed as they are.

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


def parse_symbols(field: PrimeField, text: str) -> tuple[int, ...]:
    """The symbols of a digit string such as '0110': ASCII '0' to 'p - 1'
    only, where ``int`` would take any Unicode decimal digit."""
    for ch in text:
        if not "0" <= ch <= "9":
            raise ValueError(f"invalid literal for a GF({field.p}) symbol: {ch!r}")
    return tuple(field.check(int(ch)) for ch in text)


def _bit_string(bits: int, length: int) -> str:
    """'0'/'1' string of a packed GF(2) row, coordinate 0 first."""
    # bin() of bits | 1 << length is '0b1' followed by the row, coordinate 0 last
    return bin(bits | 1 << length)[:2:-1]


class FieldVector:
    """Immutable vector over a prime field.

    ``symbols`` is a tuple of ints in [0, p).  Over GF(2) the stored state
    is ``bits`` (bit i = coordinate i) and the length; ``symbols`` is
    unpacked on first use and cached.  For p >= 3, ``bits`` is None.
    """

    __slots__ = ("field", "_symbols", "bits", "_length")

    def __init__(self, field: PrimeField, symbols: Iterable[int]):
        syms = tuple(int(s) for s in symbols)
        for s in syms:
            field.check(s)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_symbols", syms)
        object.__setattr__(self, "bits", _pack_bits(syms) if field.p == 2 else None)
        object.__setattr__(self, "_length", len(syms))

    def __setattr__(self, name, value):
        raise AttributeError("FieldVector is immutable")

    @classmethod
    def from_bits(cls, bits: int, length: int) -> "FieldVector":
        if bits < 0 or bits >> length:
            raise ValueError(f"bits 0x{bits:x} do not fit in length {length}")
        v = object.__new__(cls)
        object.__setattr__(v, "field", GF2)
        object.__setattr__(v, "_symbols", None)
        object.__setattr__(v, "bits", int(bits))
        object.__setattr__(v, "_length", length)
        return v

    @classmethod
    def zeros(cls, field: PrimeField, length: int) -> "FieldVector":
        return cls(field, [0] * length)

    @classmethod
    def all_ones(cls, field: PrimeField, length: int) -> "FieldVector":
        return cls(field, [1] * length)

    @property
    def symbols(self) -> tuple[int, ...]:
        if self._symbols is None:
            object.__setattr__(self, "_symbols", tuple(map(int, _bit_string(self.bits, self._length))))
        return self._symbols

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int) -> int:
        return self.symbols[i]

    def __iter__(self):
        return iter(self.symbols)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, FieldVector) and other.field == self.field
                and len(other) == len(self)):
            return False
        if self.field.binary:
            return other.bits == self.bits
        return other.symbols == self.symbols

    def __hash__(self) -> int:
        if self.field.binary:
            return hash((2, self._length, self.bits))
        return hash((self.field.p, self.symbols))

    def __repr__(self) -> str:
        return f"FieldVector(GF({self.field.p}), {self.to_string()!r})"

    def to_string(self) -> str:
        """Whitespace-free symbol string, e.g. '0110'. Requires p <= 7."""
        if self.field.p > 7:
            raise ValueError("symbol strings only support single-digit moduli")
        if self.field.binary:
            return _bit_string(self.bits, self._length)
        return "".join(str(s) for s in self.symbols)

    @property
    def weight(self) -> int:
        if self.bits is not None:
            return self.bits.bit_count()
        return sum(1 for s in self.symbols if s)

    def is_zero(self) -> bool:
        if self.bits is not None:
            return self.bits == 0
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

    def __neg__(self) -> "FieldVector":
        p = self.field.p
        return FieldVector(self.field, [(-a) % p for a in self.symbols])

    def scale(self, c: int) -> "FieldVector":
        p = self.field.p
        return FieldVector(self.field, [(c * a) % p for a in self.symbols])


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

    Over GF(2) the stored state is ``row_bits``, each row packed into an
    int (bit j = column j); ``entries`` is unpacked from it on first use and
    cached.  For p >= 3, ``entries`` is stored and ``row_bits`` is None.
    """

    __slots__ = ("field", "rows", "cols", "_entries", "row_bits")

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
        object.__setattr__(self, "_entries", rows)
        object.__setattr__(
            self, "row_bits", tuple(_pack_bits(r) for r in rows) if field.p == 2 else None
        )

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    @classmethod
    def from_bit_rows(cls, bit_rows: Sequence[int], cols: int) -> "FieldMatrix":
        """GF(2) matrix from packed rows (bit j of a row = column j).

        Each row is converted with ``int`` and must fit in ``cols`` columns:
        this is where packed rows from outside hullkit enter."""
        packed = tuple(int(b) for b in bit_rows)
        for b in packed:
            if b < 0 or b >> cols:
                raise ValueError(f"row bits 0x{b:x} do not fit in {cols} columns")
        return cls._trusted(packed, cols)

    @classmethod
    def _trusted(cls, row_bits: Iterable[int], cols: int) -> "FieldMatrix":
        """GF(2) matrix on packed rows that hullkit built: Python ints in
        [0, 2^cols), kept as they are, neither converted nor checked."""
        m = object.__new__(cls)
        packed = tuple(row_bits)
        object.__setattr__(m, "field", GF2)
        object.__setattr__(m, "rows", len(packed))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_entries", None)
        object.__setattr__(m, "row_bits", packed)
        return m

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> "FieldMatrix":
        if field.binary:
            return cls._trusted([1 << i for i in range(n)], n)
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], cols=n)

    @classmethod
    def zeros(cls, field: PrimeField, r: int, c: int) -> "FieldMatrix":
        if field.binary:
            return cls._trusted([0] * r, c)
        return cls(field, [[0] * c for _ in range(r)], cols=c)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        if self._entries is None:
            unpacked = tuple(tuple(map(int, _bit_string(b, self.cols))) for b in self.row_bits)
            object.__setattr__(self, "_entries", unpacked)
        return self._entries

    def row(self, i: int) -> FieldVector:
        if self.field.binary:
            return FieldVector.from_bits(self.row_bits[i], self.cols)
        return FieldVector(self.field, self.entries[i])

    def to_numpy(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64).reshape(self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not (isinstance(other, FieldMatrix) and other.field == self.field
                and other.cols == self.cols):
            return False
        if self.field.binary:
            return other.row_bits == self.row_bits
        return other.entries == self.entries

    def __hash__(self) -> int:
        if self.field.binary:
            return hash((2, self.cols, self.row_bits))
        return hash((self.field.p, self.cols, self.entries))

    def __repr__(self) -> str:
        return f"FieldMatrix(GF({self.field.p}), {self.rows}x{self.cols})"

    def __neg__(self) -> "FieldMatrix":
        if self.field.binary:
            return self  # -1 = 1
        p = self.field.p
        return FieldMatrix(self.field, [[(-s) % p for s in r] for r in self.entries], cols=self.cols)

    def hstack(self, other: "FieldMatrix") -> "FieldMatrix":
        if other.field != self.field or other.rows != self.rows:
            raise DimensionError("hstack needs same field and row count")
        if self.field.binary:
            return FieldMatrix._trusted(
                [a | b << self.cols for a, b in zip(self.row_bits, other.row_bits)],
                self.cols + other.cols,
            )
        return FieldMatrix(
            self.field,
            [a + b for a, b in zip(self.entries, other.entries)],
            cols=self.cols + other.cols,
        )

    def take_columns(self, js: Sequence[int]) -> "FieldMatrix":
        """New matrix whose column i is this matrix's column js[i] (0-based);
        ``IndexError`` on an index outside 0..cols-1."""
        _check_indices(js, self.cols, "column")
        if self.field.binary:
            return FieldMatrix._trusted(
                [sum(((b >> j) & 1) << i for i, j in enumerate(js)) for b in self.row_bits],
                len(js),
            )
        return FieldMatrix(self.field, [[r[j] for j in js] for r in self.entries], cols=len(js))

    def take_rows(self, rs: Sequence[int]) -> "FieldMatrix":
        """New matrix whose row i is this matrix's row rs[i] (0-based);
        ``IndexError`` on an index outside 0..rows-1."""
        _check_indices(rs, self.rows, "row")
        if self.field.binary:
            return FieldMatrix._trusted([self.row_bits[r] for r in rs], self.cols)
        return FieldMatrix(self.field, [self.entries[r] for r in rs], cols=self.cols)


def _check_indices(indices: Sequence[int], size: int, what: str) -> None:
    for i in indices:
        if not 0 <= i < size:
            raise IndexError(f"{what} index {i} out of range 0..{size - 1}")


def _xor_rows(mask: int, rows: Sequence[int]) -> int:
    """XOR of the packed rows selected by the set bits of ``mask``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def transpose(m: FieldMatrix) -> FieldMatrix:
    if m.field.binary:
        return FieldMatrix._trusted(
            [_pack_bits([(b >> j) & 1 for b in m.row_bits]) for j in range(m.cols)], m.rows
        )
    return FieldMatrix(
        m.field, [[m.entries[i][j] for i in range(m.rows)] for j in range(m.cols)], cols=m.rows
    )


def matmul(a: FieldMatrix, b: FieldMatrix) -> FieldMatrix:
    """Matrix product over the common field (bit-packed path over GF(2)).

    Over GF(2), row i of the product is the XOR of the rows of ``b`` picked
    by the set bits of row i of ``a``.
    """
    if a.field != b.field:
        raise DimensionError(f"field mismatch: GF({a.field.p}) vs GF({b.field.p})")
    if a.cols != b.rows:
        raise DimensionError(f"inner dimension mismatch: {a.cols} vs {b.rows}")
    if a.field.binary:
        return FieldMatrix._trusted([_xor_rows(rb, b.row_bits) for rb in a.row_bits], b.cols)
    return _matmul_symbols(a, b)


def gram(m: FieldMatrix) -> FieldMatrix:
    """The Gram matrix M M^T; over GF(2) entry (i, j) is parity(r_i & r_j)."""
    if m.field.binary:
        rb = m.row_bits
        return FieldMatrix._trusted(
            [sum(((ri & rj).bit_count() & 1) << j for j, rj in enumerate(rb)) for ri in rb],
            m.rows,
        )
    return matmul(m, transpose(m))


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
        if r == len(work):  # also no rows at all, however many columns
            break
        bit = 1 << c
        piv = next((i for i in range(r, len(work)) if work[i] & bit), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        pr = work[r]
        for i in range(len(work)):
            if i != r and work[i] & bit:
                work[i] ^= pr
        pivots.append(c)
        r += 1
    return work, pivots


def _rref_generic(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    work = mat.copy() % p
    m, n = work.shape
    pivots: list[int] = []
    r = 0
    for c in range(n):
        if r == m:
            break
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
    return work, pivots


def rref(m: FieldMatrix) -> tuple[FieldMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and its pivot columns (1-based, increasing)."""
    if m.field.binary:
        work, pivots = _rref_gf2(list(m.row_bits), m.cols)
        reduced = FieldMatrix._trusted(work, m.cols)
    else:
        work, pivots = _rref_generic(m.to_numpy(), m.field.p)
        reduced = FieldMatrix(m.field, work.tolist(), cols=m.cols)
    return reduced, tuple(c + 1 for c in pivots)


def rank(m: FieldMatrix) -> int:
    """Row rank over the field, by row reduction. Input is not mutated."""
    return len(rref(m)[1])
