"""The hull-preserving row transform A(x,y), its matrix form M(x,y), and the
code-level operation with always-on postcondition checks.

Given a code with generator [I_k | A] and vectors x, y of length m = n-k,
row i of A(x,y) is

    r_i' = r_i + (r_i, y) x - (r_i, x) y.

When (x,x) = (y,y) = (x,y) = 0 the transformed code has the same hull
dimension as the input (so LCD maps to LCD and self-orthogonal to
self-orthogonal).  Over GF(2), when wt(x) = wt(y) = 0 mod 4 and (x,y) = 0,
double evenness is preserved as well.  ``transform_code`` in checked mode
verifies these conclusions on every call and fails loudly on violation.
"""
from __future__ import annotations

from typing import Literal

import numpy as np

from .code import (
    LinearCode,
    StandardForm,
    is_doubly_even,
    standard_form,
)
from .errors import (
    CodeParseError,
    DimensionError,
    HypothesisError,
    PostconditionError,
)
from .field import (
    GF2,
    FieldMatrix,
    FieldVector,
    gram,
    inner_product,
    parse_symbols,
)
from .field import matmul  # noqa: F401  (perfbench/tracing.py wraps transform.matmul)

Mode = Literal["checked", "unchecked"]


class TransformPair:
    """Validated (x, y) pair; hypothesis flags are recomputed at construction.

    isotropic: (x,x) = (y,y) = (x,y) = 0, the hull-preservation hypothesis.
    de_safe:   GF(2) only, wt(x) = wt(y) = 0 (mod 4) and (x,y) = 0, the
               double-evenness-preservation hypothesis.

    Zero vectors are rejected: the transform degenerates to the identity.
    """

    __slots__ = ("x", "y", "isotropic", "de_safe")

    def __init__(self, x: FieldVector, y: FieldVector):
        if x.field != y.field or len(x) != len(y):
            raise DimensionError("x and y must share field and length")
        if x.is_zero() or y.is_zero():
            raise ValueError("zero vectors make the transform trivial; rejected")
        xx = inner_product(x, x)
        yy = inner_product(y, y)
        xy = inner_product(x, y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "isotropic", xx == 0 and yy == 0 and xy == 0)
        object.__setattr__(
            self,
            "de_safe",
            x.field.binary and x.weight % 4 == 0 and y.weight % 4 == 0 and xy == 0,
        )

    def __setattr__(self, name, value):
        raise AttributeError("TransformPair is immutable")

    @property
    def field(self):
        return self.x.field

    @property
    def length(self) -> int:
        return len(self.x)

    def __eq__(self, other) -> bool:
        return isinstance(other, TransformPair) and other.x == self.x and other.y == self.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        flags = []
        if self.isotropic:
            flags.append("isotropic")
        if self.de_safe:
            flags.append("de_safe")
        return f"TransformPair(m={self.length}, {'|'.join(flags) or 'unflagged'})"

    def swapped(self) -> "TransformPair":
        return TransformPair(self.y, self.x)

    # text format: two lines, "x=..." and "y=...", whitespace-free symbols
    @classmethod
    def parse(cls, text: str, source: str = "<string>") -> "TransformPair":
        """The pair in ``text``; a ``CodeParseError`` names ``source`` and the
        line of the text, blank lines counted."""
        lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if len(lines) != 2:
            raise CodeParseError(f"{source}: expected two lines 'x=...' and 'y=...'")
        vals = {}
        for i, ln in lines:
            if "=" not in ln:
                raise CodeParseError(f"{source}:{i}: missing '=' in {ln!r}")
            name, _, body = ln.partition("=")
            name = name.strip()
            if name not in ("x", "y"):
                raise CodeParseError(f"{source}:{i}: expected 'x' or 'y', got {name!r}")
            if name in vals:
                raise CodeParseError(f"{source}:{i}: a second {name}= line; need exactly one x= line "
                                     "and one y= line")
            body = "".join(body.split())
            try:
                vals[name] = FieldVector(GF2, parse_symbols(GF2, body))
            except ValueError as e:
                raise CodeParseError(f"{source}:{i}: {e}") from None
            if vals[name].is_zero():  # also an empty vector
                raise CodeParseError(f"{source}:{i}: {name} is {'a zero' if body else 'an empty'} vector, "
                                     "which makes the transform trivial")
        if len(vals["x"]) != len(vals["y"]):
            raise CodeParseError(f"{source}:{lines[1][0]}: x has length {len(vals['x'])}, "
                                 f"y has length {len(vals['y'])}")
        return cls(vals["x"], vals["y"])

    def to_text(self) -> str:
        return f"x={self.x.to_string()}\ny={self.y.to_string()}"


def transform_rows(a: FieldMatrix, pair: TransformPair) -> FieldMatrix:
    """Apply r_i' = r_i + (r_i,y) x - (r_i,x) y to every row of ``a``."""
    if a.field != pair.field:
        raise DimensionError("matrix and pair fields differ")
    if a.cols != pair.length:
        raise DimensionError(f"matrix has {a.cols} columns, pair has length {pair.length}")
    if a.field.binary:
        # over GF(2) the signs vanish: r' = r xor (r.y)x xor (r.x)y
        xb, yb = pair.x.bits, pair.y.bits
        out = []
        for rb in a.row_bits:
            r = rb
            if (rb & yb).bit_count() & 1:
                r ^= xb
            if (rb & xb).bit_count() & 1:
                r ^= yb
            out.append(r)
        return FieldMatrix._trusted(out, a.cols)
    return _transform_rows_symbols(a, pair)


def _transform_rows_symbols(a: FieldMatrix, pair: TransformPair) -> FieldMatrix:
    """Field-generic signed path (differential twin of the GF(2) path)."""
    p = a.field.p
    mat = a.to_numpy()
    x = np.array(pair.x.symbols, dtype=np.int64)
    y = np.array(pair.y.symbols, dtype=np.int64)
    coeff_y = (mat @ y) % p
    coeff_x = (mat @ x) % p
    out = (mat + np.outer(coeff_y, x) - np.outer(coeff_x, y)) % p
    return FieldMatrix(a.field, out.tolist(), cols=a.cols)


def m_matrix(pair: TransformPair) -> FieldMatrix:
    """M(x,y) = I_m + y^T x - x^T y, so that A(x,y) = A M(x,y)."""
    if pair.field.binary:
        # over GF(2), row i is e_i xor y_i x xor x_i y
        xb, yb = pair.x.bits, pair.y.bits
        return FieldMatrix._trusted(
            [(1 << i) ^ (xb if yb >> i & 1 else 0) ^ (yb if xb >> i & 1 else 0)
             for i in range(pair.length)],
            pair.length,
        )
    return _m_matrix_symbols(pair)


def _m_matrix_symbols(pair: TransformPair) -> FieldMatrix:
    """Field-generic signed path (differential twin of the GF(2) path)."""
    p = pair.field.p
    m = pair.length
    x = np.array(pair.x.symbols, dtype=np.int64)
    y = np.array(pair.y.symbols, dtype=np.int64)
    out = (np.eye(m, dtype=np.int64) + np.outer(y, x) - np.outer(x, y)) % p
    return FieldMatrix(pair.field, out.tolist(), cols=m)


def transform_code(code: LinearCode | StandardForm, pair: TransformPair,
                   mode: Mode = "checked") -> LinearCode:
    """Build the transformed code with generator [I_k | A(x,y)].

    The input is brought to standard form first; the output's provenance
    records only the column permutation used (if any).  In checked mode the
    pair must carry a hypothesis flag, and the corresponding guaranteed
    conclusion is verified post hoc:

      isotropic -> G' G'^T = G G^T entrywise (hence hull dimension preserved);
      de_safe + doubly even input -> doubly even output.

    The input side of both checks (A A^T, whether the input is doubly even)
    is computed once per ``StandardForm`` and reused across calls; the
    output side is checked on every call.

    Unchecked mode applies the formula for arbitrary pairs, no guarantees.
    """
    if mode not in ("checked", "unchecked"):
        raise ValueError(f"unknown mode {mode!r}")
    form = code if isinstance(code, StandardForm) else standard_form(code)
    if form.field != pair.field:
        raise DimensionError("code and pair fields differ")
    if form.a_block.cols != pair.length:
        raise DimensionError(
            f"pair length {pair.length} != n-k = {form.a_block.cols}"
        )
    if mode == "checked" and not (pair.isotropic or pair.de_safe):
        raise HypothesisError(
            "checked mode needs an isotropic or de_safe pair; "
            "use mode='unchecked' for exploration"
        )
    a2 = transform_rows(form.a_block, pair)
    out = StandardForm(form.column_permutation, a2).code()
    if mode == "checked":
        if pair.isotropic and gram(a2) != form.a_gram:
            raise PostconditionError(
                "G G^T changed under an isotropic pair; arithmetic bug"
            )
        if (pair.de_safe and form.field.binary and form.doubly_even
                and not is_doubly_even(out)):
            raise PostconditionError(
                "double evenness lost under a de_safe pair; arithmetic bug"
            )
    return out
