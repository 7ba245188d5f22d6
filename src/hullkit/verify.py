"""Built-in verification suite behind the ``verify-paper`` subcommand.

Checks the bundled artifacts against their certified parameters and
exercises the transform guarantees end to end.  Idempotent and
side-effect-free apart from the report the CLI writes.
"""
from __future__ import annotations

import random

from . import artifacts
from .circulant import CirculantSpec, pure_double_circulant
from .code import is_doubly_even, is_extremal_doubly_even_self_dual, is_lcd, is_self_dual
from .field import GF2, FieldMatrix, FieldVector, PrimeField, matmul, parse_symbols
from .minweight import min_weight, weight_distribution
from .transform import TransformPair, m_matrix, transform_code, transform_rows

# Weight enumerator forced by the Gleason polynomial basis for doubly even
# self-dual codes at n = 56 once A_4 = A_8 = 0: every extremal [56,28,12]
# code has exactly these counts.
EXTREMAL_56_ENUMERATOR = {
    0: 1, 12: 8190, 16: 622314, 20: 11699688, 24: 64909845, 28: 113955380,
    32: 64909845, 36: 11699688, 40: 622314, 44: 8190, 56: 1,
}

# (A-block, pair) -> (d before, d after); all six codes are LCD.
LCD_CASES = [
    ("a37225", "c37226", 5, 6),
    ("a381310", "c381311", 10, 11),
    ("a40226", "c40227", 6, 7),
]


def _check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def _extended_hamming():
    return pure_double_circulant(CirculantSpec(FieldVector(GF2, [0, 1, 1, 1])))


def run_verification() -> dict:
    checks: list[dict] = []

    # bundled payloads parse to the stated shapes and round-trip byte-exactly
    ok, bad = True, []
    for name, art in artifacts.ARTIFACTS.items():
        if art.kind == "circulant-seed":
            row = FieldVector(GF2, parse_symbols(GF2, art.payload))
            good = len(row) == 27 and row.to_string() == art.payload
        elif art.kind == "generator-A-block":
            code = artifacts.load_a_block_code(name)
            a_rows = [code.generator.row(i).to_string()[code.k:] for i in range(code.k)]
            good = "\n".join(a_rows) == art.payload
        else:
            good = artifacts.load_pair(name).to_text() == art.payload
        if not good:
            ok, bad = False, bad + [name]
    checks.append(_check("artifact round-trip", ok,
                         "all payloads byte-identical" if ok else f"failed: {bad}"))

    # six circulant seeds
    for name in artifacts.CIRCULANT_SEED_NAMES:
        code = artifacts.load_seed(name)
        dist = weight_distribution(code)
        d = dist.min_nonzero()
        good = ((code.n, code.k) == (56, 28) and is_self_dual(code) and is_doubly_even(code)
                and is_extremal_doubly_even_self_dual(code, d)
                and dict(dist.counts) == EXTREMAL_56_ENUMERATOR)
        checks.append(_check(f"seed {name}", good, f"[{code.n},{code.k}] self-dual doubly even, "
                             f"d={d}, A_12={dist[12]} (enumerator exact)"))

    # LCD reproduction: base parameters and transform upgrades
    for code_name, pair_name, d_pre, d_post in LCD_CASES:
        code = artifacts.bundled_code(code_name)
        d = min_weight(code)
        good = is_lcd(code) and d == d_pre
        out = transform_code(code, artifacts.load_pair(pair_name))
        d2 = min_weight(out)
        good = good and is_lcd(out) and d2 == d_post
        checks.append(_check(
            f"lcd {code_name}+{pair_name}", good,
            f"LCD [{code.n},{code.k}] d={d}->{d2} (expected {d_pre}->{d_post})"))

    # double-evenness preservation, exhaustive at length 8
    ham = _extended_hamming()
    m = ham.n - ham.k
    count, good = 0, True
    for xv in range(1, 1 << m):
        for yv in range(1, 1 << m):
            x = FieldVector.from_bits(xv, m)
            y = FieldVector.from_bits(yv, m)
            if x.weight % 4 or y.weight % 4 or (xv & yv).bit_count() % 2:
                continue
            out = transform_code(ham, TransformPair(x, y))
            count += 1
            if not (is_doubly_even(out) and is_self_dual(out)):
                good = False
    checks.append(_check("doubly-even preservation (exhaustive, n=8)", good,
                         f"{count} valid pair(s), all outputs doubly even self-dual"))

    # factorization A(x,y) = A M(x,y) on random inputs over GF(2), GF(3), GF(5)
    rng = random.Random(20250810)
    good, trials = True, 0
    for p in (2, 3, 5):
        fld = PrimeField(p)
        for _ in range(50):
            k, mm = rng.randint(1, 5), rng.randint(2, 6)
            a = FieldMatrix(fld, [[rng.randrange(p) for _ in range(mm)] for _ in range(k)], cols=mm)
            x = FieldVector(fld, [rng.randrange(p) for _ in range(mm)])
            y = FieldVector(fld, [rng.randrange(p) for _ in range(mm)])
            if x.is_zero() or y.is_zero():
                continue
            pair = TransformPair(x, y)
            trials += 1
            if transform_rows(a, pair) != matmul(a, m_matrix(pair)):
                good = False
    checks.append(_check("row-transform factorization", good, f"{trials} random instances"))

    return {"checks": checks}
