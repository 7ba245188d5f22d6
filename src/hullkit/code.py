"""Linear codes over prime fields: duals, hulls, predicates, standard form,
shortening/puncturing, and the extremality bound for doubly even self-dual codes.

Coordinate sets passed to :func:`shorten` / :func:`puncture` are 1-based
subsets of {1..n}; permutation tuples are in source-order form (entry i is
the 1-based original coordinate placed at position i+1).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .errors import (
    CodeParseError,
    DimensionError,
    PredicateError,
    UnsupportedFieldError,
)
from .field import (
    FieldMatrix,
    FieldVector,
    PrimeField,
    gram,
    rank,
    rref,
    transpose,
)
from .field import matmul  # noqa: F401  (perfbench/tracing.py wraps code.matmul)


class LinearCode:
    """A k-dimensional subspace of F_q^n held as a full-row-rank generator matrix.

    k = 0 (empty generator) is legal as the result of dual/shorten, never as
    input to the transform.  ``provenance`` is free-form metadata (e.g. the
    column permutation applied by standard_form); it never affects identity.
    """

    __slots__ = ("field", "n", "k", "generator", "provenance", "_reduced", "_pivots")

    def __init__(self, generator: FieldMatrix, provenance: Mapping | None = None):
        if generator.rows > generator.cols:  # else the rank check below would fire first
            raise DimensionError("dimension k exceeds length n")
        reduced, pivots = rref(generator)
        if len(pivots) != generator.rows:
            dep = _first_dependent_row(generator)
            raise ValueError(f"generator is rank-deficient: row {dep} depends on earlier rows")
        object.__setattr__(self, "field", generator.field)
        object.__setattr__(self, "n", generator.cols)
        object.__setattr__(self, "k", generator.rows)
        object.__setattr__(self, "generator", generator)
        object.__setattr__(self, "provenance", dict(provenance) if provenance else {})
        object.__setattr__(self, "_reduced", reduced)
        object.__setattr__(self, "_pivots", pivots)

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    @classmethod
    def from_spanning_rows(cls, field: PrimeField, rows: Iterable[Sequence[int]],
                           n: int | None = None) -> "LinearCode":
        """Code spanned by the given rows; dependent rows are dropped."""
        mat = FieldMatrix(field, rows, cols=n)
        reduced, pivots = rref(mat)
        basis = [reduced.entries[i] for i in range(len(pivots))]
        return cls(FieldMatrix(field, basis, cols=mat.cols))

    def __repr__(self) -> str:
        return f"LinearCode(GF({self.field.p}), [{self.n},{self.k}])"

    def contains(self, v: FieldVector) -> bool:
        """Membership: rref-reduction of v against the generator leaves zero."""
        if v.field != self.field or len(v) != self.n:
            raise DimensionError("vector does not match code length/field")
        if self.field.binary:
            bits = v.bits
            for row_bits, piv in zip(self._reduced.row_bits, self._pivots):
                if (bits >> (piv - 1)) & 1:
                    bits ^= row_bits
            return bits == 0
        p = self.field.p
        syms = list(v.symbols)
        for row, piv in zip(self._reduced.entries, self._pivots):
            c = syms[piv - 1]
            if c:
                for j in range(self.n):
                    syms[j] = (syms[j] - c * row[j]) % p
        return all(s == 0 for s in syms)


def _first_dependent_row(mat: FieldMatrix) -> int:
    """1-based index of the first row dependent on its predecessors.

    The rows of ``mat`` are the columns of its transpose, and a column of a
    row-reduced matrix is a pivot exactly when it is independent of the
    columns before it, so the answer is the first non-pivot column.
    """
    _, pivots = rref(transpose(mat))
    return next((i for i, c in enumerate(pivots, start=1) if c != i), len(pivots) + 1)


def same_code(c1: LinearCode, c2: LinearCode) -> bool:
    """Set equality, decided by two-sided generator membership."""
    if c1.field != c2.field or c1.n != c2.n:
        return False
    if c1.k != c2.k:
        return False
    return all(c2.contains(c1.generator.row(i)) for i in range(c1.k))


@dataclass(frozen=True)
class StandardForm:
    """A code presented as [I_k | A] after an optional column permutation.

    ``column_permutation`` is in source-order form: position i holds the
    1-based original coordinate that lands at coordinate i+1.  Identity is
    (1, 2, ..., n).

    The seed-side facts a checked transform compares against (``a_gram``,
    ``doubly_even``) are computed on first use and kept.
    """

    column_permutation: tuple[int, ...]
    a_block: FieldMatrix

    @property
    def field(self) -> PrimeField:
        return self.a_block.field

    @property
    def k(self) -> int:
        return self.a_block.rows

    @property
    def n(self) -> int:
        return self.a_block.rows + self.a_block.cols

    @property
    def is_identity_permutation(self) -> bool:
        return self.column_permutation == tuple(range(1, self.n + 1))

    def generator(self) -> FieldMatrix:
        return FieldMatrix.identity(self.field, self.k).hstack(self.a_block)

    @cached_property
    def a_gram(self) -> FieldMatrix:
        """A A^T, so that G G^T = I + A A^T for G = [I_k | A]."""
        return gram(self.a_block)

    @cached_property
    def doubly_even(self) -> bool:
        """Whether the code is doubly even (GF(2) only)."""
        return is_doubly_even(self.code())

    def code(self) -> LinearCode:
        prov = {}
        if not self.is_identity_permutation:
            prov["column_permutation"] = self.column_permutation
        return LinearCode(self.generator(), provenance=prov)


def standard_form(code: LinearCode) -> StandardForm:
    """Compute the [I_k | A] presentation, permuting pivot columns to the front.

    The permutation is minimal: pivots first in sorted order, non-pivots after
    in their original relative order.  Column permutations preserve hull
    dimension, minimum weight, and every predicate in this module.
    """
    if code.k == 0:
        raise PredicateError("standard form of the zero code is undefined")
    piv0 = [p - 1 for p in code._pivots]
    nonpiv = sorted(set(range(code.n)) - set(piv0))
    a = code._reduced.take_columns(nonpiv)
    return StandardForm(tuple(j + 1 for j in piv0 + nonpiv), a)


def apply_column_permutation(code: LinearCode, perm: Sequence[int]) -> LinearCode:
    """Permute coordinates: new column i is old column perm[i] (1-based values)."""
    if sorted(perm) != list(range(1, code.n + 1)):
        raise DimensionError("not a permutation of {1..n}")
    return LinearCode(code.generator.take_columns([p - 1 for p in perm]))


def dual(code: LinearCode) -> LinearCode:
    """The [n, n-k] dual code under the standard inner product."""
    n = code.n
    reduced, pivots = code._reduced, code._pivots
    piv0 = [p - 1 for p in pivots]
    pivset = set(piv0)
    free = [j for j in range(n) if j not in pivset]
    p = code.field.p
    basis = []
    for f in free:
        v = [0] * n
        v[f] = 1
        for i, pc in enumerate(piv0):
            v[pc] = (-reduced.entries[i][f]) % p
        basis.append(v)
    return LinearCode(FieldMatrix(code.field, basis, cols=n))


def gram_matrix(code: LinearCode) -> FieldMatrix:
    """G G^T for the stored generator."""
    return gram(code.generator)


def hull_dim(code: LinearCode) -> int:
    """dim(C ∩ C^perp) = k - rank(G G^T)."""
    return code.k - rank(gram_matrix(code))


def is_lcd(code: LinearCode) -> bool:
    """Hull is trivial, i.e. G G^T is nonsingular."""
    return hull_dim(code) == 0


def is_self_orthogonal(code: LinearCode) -> bool:
    """C is contained in its dual, i.e. G G^T = 0."""
    return gram_matrix(code) == FieldMatrix.zeros(code.field, code.k, code.k)


def is_self_dual(code: LinearCode) -> bool:
    return is_self_orthogonal(code) and 2 * code.k == code.n


def is_even(code: LinearCode) -> bool:
    """All codeword weights even; equivalently the all-ones vector lies in C^perp."""
    if not code.field.binary:
        raise UnsupportedFieldError("evenness is a GF(2) predicate")
    return all(b.bit_count() % 2 == 0 for b in code.generator.row_bits)

def is_doubly_even(code: LinearCode) -> bool:
    """All codeword weights divisible by 4.

    Exact at any k: a self-orthogonal binary code whose generator rows all
    have weight divisible by 4 is doubly even, and conversely.
    """
    if not code.field.binary:
        raise UnsupportedFieldError("double evenness is a GF(2) predicate")
    if any(b.bit_count() % 4 for b in code.generator.row_bits):
        return False
    return is_self_orthogonal(code)


def is_extremal_doubly_even_self_dual(code: LinearCode, d: int) -> bool:
    """Whether a doubly even self-dual binary code meets d = 4*floor(n/24) + 4."""
    if not code.field.binary:
        raise PredicateError("extremality bound applies to binary codes")
    if not is_self_dual(code) or not is_doubly_even(code):
        raise PredicateError("extremality bound needs a doubly even self-dual code")
    return d == 4 * (code.n // 24) + 4


def _check_coords(code: LinearCode, coords: Iterable[int]) -> list[int]:
    t = sorted(set(int(c) for c in coords))
    for c in t:
        if not 1 <= c <= code.n:
            raise DimensionError(f"coordinate {c} out of range 1..{code.n}")
    return t


def puncture(code: LinearCode, coords: Iterable[int]) -> LinearCode:
    """Delete the 1-based coordinates in ``coords`` from every codeword."""
    t = _check_coords(code, coords)
    keep = [j for j in range(code.n) if j + 1 not in set(t)]
    rows = [[r[j] for j in keep] for r in code.generator.entries]
    return LinearCode.from_spanning_rows(code.field, rows, n=len(keep))


def shorten(code: LinearCode, coords: Iterable[int]) -> LinearCode:
    """Restrict to codewords zero on ``coords`` (1-based), then delete them.

    The shortened code is the dual of the punctured dual (Huffman & Pless,
    *Fundamentals of Error-Correcting Codes*, §1.5); it is returned with its
    generator in reduced row-echelon form.
    """
    return LinearCode(dual(puncture(dual(code), coords))._reduced)


# --- code file format -------------------------------------------------------
#
# line 1: "q n k"; lines 2..k+1: n concatenated symbol digits in [0, q).

def parse_code(text: str, source: str = "<string>") -> LinearCode:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise CodeParseError(f"{source}:1: empty code file")
    head = lines[0].split()
    if len(head) != 3:
        raise CodeParseError(f"{source}:1: expected 'q n k', got {lines[0]!r}")
    try:
        q, n, k = (int(h) for h in head)
    except ValueError:
        raise CodeParseError(f"{source}:1: non-integer header field in {lines[0]!r}") from None
    try:
        field = PrimeField(q)
    except ValueError as e:
        raise CodeParseError(f"{source}:1: {e}") from None
    if q > 7:
        raise CodeParseError(f"{source}:1: digit format supports q <= 7, got q={q}")
    if len(lines) - 1 != k:
        raise CodeParseError(f"{source}: expected {k} generator rows, found {len(lines) - 1}")
    rows = []
    for i, ln in enumerate(lines[1:], start=2):
        if len(ln) != n:
            raise CodeParseError(f"{source}:{i}: row has {len(ln)} symbols, expected {n}")
        try:
            row = [int(ch) for ch in ln]
        except ValueError:
            raise CodeParseError(f"{source}:{i}: non-digit symbol in row") from None
        for s in row:
            if s >= q:
                raise CodeParseError(f"{source}:{i}: symbol {s} out of range for GF({q})")
        rows.append(row)
    mat = FieldMatrix(field, rows, cols=n)
    if rank(mat) < k:
        dep = _first_dependent_row(mat)
        raise CodeParseError(
            f"{source}:{dep + 1}: row {dep} is linearly dependent on rows 1..{dep - 1}"
        )
    return LinearCode(mat)


def format_code(code: LinearCode) -> str:
    if code.field.p > 7:
        raise ValueError("digit format supports q <= 7")
    lines = [f"{code.field.p} {code.n} {code.k}"]
    lines += ["".join(str(s) for s in r) for r in code.generator.entries]
    return "\n".join(lines) + "\n"

