"""Linear codes over prime fields: duals, hulls, predicates, standard form,
shortening/puncturing, and the extremality bound for doubly even self-dual codes.
:meth:`LinearCode.systematic` builds every code given as [I_k | A].

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
    parse_symbols,
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

    Immutable to callers.  ``_reduced`` is the generator's reduced
    row-echelon form and ``_pivots`` its pivot columns, 0-based (``rref``
    reports them 1-based).  One private slot, ``_facts``, is written after
    construction: it starts None and then holds the certificate of this
    object, an ``invariant._Certificate`` (d, distribution, read-only
    weight-d words, their read-only N_t histogram and its per-column
    profile), whole when it is made, so that later certificates of the
    object derive nothing again.  It holds no cover; facts follow the
    object, so an equal code built anew starts empty.
    """

    __slots__ = ("field", "n", "k", "generator", "provenance", "_reduced", "_pivots", "_facts")

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
        object.__setattr__(self, "_pivots", tuple(c - 1 for c in pivots))
        object.__setattr__(self, "_facts", None)

    def __setattr__(self, name, value):
        raise AttributeError("LinearCode is immutable")

    @classmethod
    def systematic(cls, a: FieldMatrix, provenance: Mapping | None = None) -> "LinearCode":
        """The code generated by [I_k | A], the one place such a generator is
        assembled; it is its own reduced row-echelon form, pivots 0..k-1."""
        return cls(FieldMatrix.identity(a.field, a.rows).hstack(a), provenance)

    def __repr__(self) -> str:
        return f"LinearCode(GF({self.field.p}), [{self.n},{self.k}])"

    def contains(self, v: FieldVector) -> bool:
        """Membership: rref-reduction of v against the generator leaves zero."""
        if v.field != self.field or len(v) != self.n:
            raise DimensionError("vector does not match code length/field")
        if self.field.binary:
            bits = v.bits
            for row_bits, piv in zip(self._reduced.row_bits, self._pivots):
                if (bits >> piv) & 1:
                    bits ^= row_bits
            return bits == 0
        p = self.field.p
        syms = list(v.symbols)
        for row, piv in zip(self._reduced.entries, self._pivots):
            c = syms[piv]
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
    """Set equality: a subspace has exactly one reduced row-echelon basis."""
    return c1._reduced == c2._reduced


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
        return LinearCode.systematic(self.a_block, prov)


def _pivots_first(code: LinearCode) -> tuple[list[int], FieldMatrix]:
    """The columns (0-based), pivots first, and A of the reduced generator so permuted."""
    pivots = set(code._pivots)
    free = [j for j in range(code.n) if j not in pivots]
    return list(code._pivots) + free, code._reduced.take_columns(free)


def standard_form(code: LinearCode) -> StandardForm:
    """Compute the [I_k | A] presentation, permuting pivot columns to the front.

    The permutation is minimal: pivots first in sorted order, non-pivots after
    in their original relative order.  Column permutations preserve hull
    dimension, minimum weight, and every predicate in this module.
    """
    if code.k == 0:
        raise PredicateError("standard form of the zero code is undefined")
    order, a = _pivots_first(code)
    return StandardForm(tuple(j + 1 for j in order), a)


def apply_column_permutation(code: LinearCode, perm: Sequence[int]) -> LinearCode:
    """Permute coordinates: new column i is old column perm[i] (1-based values)."""
    if sorted(perm) != list(range(1, code.n + 1)):
        raise DimensionError("not a permutation of {1..n}")
    return LinearCode(code.generator.take_columns([p - 1 for p in perm]))


def dual(code: LinearCode) -> LinearCode:
    """The [n, n-k] dual code under the standard inner product.

    Pivots first, the reduced generator is [I_k | A], and [-A^T | I_{n-k}]
    generates the dual (Huffman & Pless, *Fundamentals of Error-Correcting
    Codes*, §1.2); its columns then go back in place.
    """
    order, a = _pivots_first(code)
    h = (-transpose(a)).hstack(FieldMatrix.identity(code.field, code.n - code.k))
    return LinearCode(h.take_columns(sorted(range(code.n), key=order.__getitem__)))


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
    """n = 2k and C is self-orthogonal; the Gram matrix is built only when n = 2k."""
    return 2 * code.k == code.n and is_self_orthogonal(code)


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


def _check_coords(code: LinearCode, coords: Iterable[int]) -> set[int]:
    t = set(int(c) for c in coords)
    for c in sorted(t):
        if not 1 <= c <= code.n:
            raise DimensionError(f"coordinate {c} out of range 1..{code.n}")
    return t


def puncture(code: LinearCode, coords: Iterable[int]) -> LinearCode:
    """Delete the 1-based coordinates in ``coords`` from every codeword."""
    t = _check_coords(code, coords)
    keep = [j for j in range(code.n) if j + 1 not in t]
    reduced, pivots = rref(code.generator.take_columns(keep))
    return LinearCode(reduced.take_rows(range(len(pivots))))


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
    """The code in ``text``; a ``CodeParseError`` names ``source`` and the
    line of the text, blank lines counted."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise CodeParseError(f"{source}:1: empty code file")
    (at, header), body = lines[0], lines[1:]
    head = header.split()
    if len(head) != 3:
        raise CodeParseError(f"{source}:{at}: expected 'q n k', got {header!r}")
    try:
        q, n, k = (int(h) for h in head)
    except ValueError:
        raise CodeParseError(f"{source}:{at}: non-integer header field in {header!r}") from None
    if q > 7:  # before the primality test, which would trial-divide a huge q
        raise CodeParseError(f"{source}:{at}: digit format supports q <= 7, got q={q}")
    try:
        field = PrimeField(q)
    except ValueError as e:
        raise CodeParseError(f"{source}:{at}: {e}") from None
    if n < 0 or k < 0:
        raise CodeParseError(f"{source}:{at}: n and k must be non-negative, got n={n}, k={k}")
    if len(body) != k:  # named at the header when rows are missing, else at the first extra row
        raise CodeParseError(f"{source}:{body[k][0] if len(body) > k else at}: "
                             f"expected {k} generator rows, found {len(body)}")
    rows = []
    for i, ln in body:
        if len(ln) != n:
            raise CodeParseError(f"{source}:{i}: row has {len(ln)} symbols, expected {n}")
        try:
            rows.append(parse_symbols(field, ln))
        except ValueError as e:
            raise CodeParseError(f"{source}:{i}: {e}") from None
    mat = FieldMatrix(field, rows, cols=n)
    try:
        return LinearCode(mat)
    except (DimensionError, ValueError):  # k > n, or rank below k
        dep = _first_dependent_row(mat)
        raise CodeParseError(
            f"{source}:{body[dep - 1][0]}: row {dep} is linearly dependent on rows 1..{dep - 1}"
        ) from None


def format_code(code: LinearCode) -> str:
    if code.field.p > 7:
        raise ValueError("digit format supports q <= 7")
    lines = [f"{code.field.p} {code.n} {code.k}"]
    lines += [code.generator.row(i).to_string() for i in range(code.k)]
    return "\n".join(lines) + "\n"

