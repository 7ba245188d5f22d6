"""Search drivers: enumerate or sample transform pairs against seed codes to
discover doubly even self-dual codes and improved LCD codes, with
fingerprint deduplication and replayable JSON-lines persistence.

Both drivers are front-ends to one loop (transform, screen, certify,
dedup).  Every emitted record's code is certified against its guaranteed
predicate at emission time, and records are reproducible: replaying
(seed, x, y) must give back identical parameters and fingerprint.

One certify step, ``_certify``, gives the loop, ``replay`` and
``fingerprint_code`` a code's d, its (self_dual, doubly_even, lcd) flags
and its fingerprint.  It takes d, the distribution and the weight-d words
from one gate, ``minweight._scan``, which chooses between the
two-information-set path and the Gray walk.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import MISSING, asdict, dataclass, fields
from datetime import datetime, timezone
from typing import Callable, Iterable, Iterator, Mapping

from .code import (
    LinearCode,
    StandardForm,
    is_doubly_even,
    is_lcd,
    is_self_dual,
    standard_form,
)
from .errors import CapacityError, IntegrityError, PostconditionError, PredicateError
from .field import GF2, FieldVector, inner_product
from .invariant import is_equivalent, nt_from_masks
from .minweight import _scan
# tracer-only: perfbench/tracing.py wraps these names, and search calls none of them
from .minweight import _scan_binary, codeword_masks_of_weight, min_weight  # noqa: F401
from .transform import TransformPair, transform_code

RNG_NAME = "python-random-mt19937"
SEARCH_NODE_BUDGET = 50_000


def make_yi(m: int, i: int) -> FieldVector:
    """The length-m binary vector with the last i coordinates set."""
    if not 0 < i <= m:
        raise ValueError(f"need 0 < i <= {m}, got i={i}")
    return FieldVector(GF2, [0] * (m - i) + [1] * i)


def _digest(counts: Mapping[int, int]) -> str:
    blob = json.dumps(sorted((int(a), int(b)) for a, b in counts.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def _certify(code: LinearCode, abort_below: int | None = None, threads: int = 1
             ) -> tuple[int, tuple[bool, bool, bool], dict[str, str]] | None:
    """None when the screen at ``abort_below`` aborts, else
    (d, (self_dual, doubly_even, lcd), fingerprint).

    The fingerprint hashes the complete weight distribution and the
    weight-d words, the words through their N_t counts, which do not depend
    on their order.
    """
    d, dist, masks, aborted = _scan(code, abort_below, threads)
    if aborted:
        return None
    flags = is_self_dual(code), is_doubly_even(code), is_lcd(code)
    fp = {"distribution": _digest(dist.counts), "nt": _digest(nt_from_masks(masks, code.n))}
    return d, flags, fp


def fingerprint_code(code: LinearCode, threads: int = 1) -> dict[str, str]:
    """Dedup key: (weight-distribution hash, minimum-weight N_t hash)."""
    return _certify(code, threads=threads)[2]


@dataclass
class SearchRecord:
    """One persisted discovery; everything needed to replay it."""

    seed_id: str
    x: str
    y: str
    n: int
    k: int
    d: int
    self_dual: bool
    doubly_even: bool
    lcd: bool
    fingerprint: dict[str, str]
    collision: str | None = None
    created: str | None = None

    def __post_init__(self):
        self.fingerprint = dict(self.fingerprint)

    def payload(self) -> dict:
        """Deterministic content; excludes the creation timestamp."""
        doc = asdict(self)
        del doc["created"]
        return doc

    def to_json_line(self) -> str:
        doc = {"kind": "record", **self.payload()}
        if self.created:
            doc["created"] = self.created
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json_doc(cls, doc: Mapping) -> "SearchRecord":
        """A field without a default is required: a missing one raises
        KeyError naming it."""
        return cls(**{f.name: doc[f.name] if f.default is MISSING else doc.get(f.name, f.default)
                      for f in fields(cls)})


def write_records(path: str, records: Iterable[SearchRecord],
                  header: Mapping | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(json.dumps({"kind": "header", **dict(header)}, sort_keys=True) + "\n")
        for rec in records:
            fh.write(rec.to_json_line() + "\n")


def read_records(path: str) -> tuple[dict | None, list[SearchRecord]]:
    header = None
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as e:
                raise IntegrityError(f"{path}:{i}: invalid JSON: {e}") from None
            if not isinstance(doc, dict):
                raise IntegrityError(f"{path}:{i}: expected a JSON object, "
                                     f"got {type(doc).__name__}")
            kind = doc.get("kind")
            if kind == "header":
                header = {k: v for k, v in doc.items() if k != "kind"}
            elif kind == "record":
                try:
                    records.append(SearchRecord.from_json_doc(doc))
                except KeyError as e:
                    raise IntegrityError(f"{path}:{i}: record has no {e.args[0]!r} field") from None
                except (TypeError, ValueError) as e:
                    raise IntegrityError(f"{path}:{i}: malformed record: {e}") from None
            else:
                raise IntegrityError(f"{path}:{i}: unknown line kind {kind!r}")
    return header, records


# --- candidate streams -------------------------------------------------------

def _x_ok(x: FieldVector, y: FieldVector, rule: str) -> bool:
    if x.is_zero():
        return False
    if inner_product(x, y):
        return False
    if rule == "mod4":
        return x.weight % 4 == 0
    if rule == "even":
        return x.weight % 2 == 0
    raise ValueError(f"unknown rule {rule!r}")


def exhaustive_x(m: int, y: FieldVector, rule: str = "mod4") -> Iterator[FieldVector]:
    """All valid x in lexicographic order of the packed representation."""
    for v in range(1, 1 << m):
        x = FieldVector.from_bits(v, m)
        if _x_ok(x, y, rule):
            yield x


def _sample(count: int, rng_seed: int, draw: Callable, what: str, m: int) -> list:
    """``count`` items from ``draw(rng)`` with distinct keys, drawn with the
    named, seeded PRNG.  ``draw`` returns (key, item), item None for a
    rejected draw."""
    rng = random.Random(rng_seed)
    seen: set = set()
    out: list = []
    attempts = 0
    limit = max(100_000, 10_000 * count)
    while len(out) < count:
        attempts += 1
        if attempts > limit:
            raise CapacityError(f"could not sample {count} {what} in {limit} attempts (m={m})")
        key, item = draw(rng)
        if item is not None and key not in seen:
            seen.add(key)
            out.append(item)
    return out


def sampled_x(m: int, y: FieldVector, count: int, rng_seed: int,
              rule: str = "mod4") -> list[FieldVector]:
    """``count`` distinct valid x drawn with the named, seeded PRNG."""
    def draw(rng):
        v = rng.getrandbits(m)
        x = FieldVector.from_bits(v, m)
        return v, x if _x_ok(x, y, rule) else None

    return _sample(count, rng_seed, draw, "valid x", m)


def exhaustive_isotropic_pairs(m: int) -> Iterator[TransformPair]:
    """All isotropic (x, y) over GF(2)^m; tiny m only."""
    if m > 14:
        raise CapacityError(f"exhaustive pair enumeration supports m <= 14, got {m}")
    evens = [v for v in range(1, 1 << m) if v.bit_count() % 2 == 0]
    for xv in evens:
        for yv in evens:
            if (xv & yv).bit_count() % 2 == 0:
                yield TransformPair(FieldVector.from_bits(xv, m), FieldVector.from_bits(yv, m))


def sampled_isotropic_pairs(m: int, count: int, rng_seed: int) -> list[TransformPair]:
    """``count`` isotropic pairs drawn with the named, seeded PRNG."""
    def draw(rng):
        xv, yv = rng.getrandbits(m), rng.getrandbits(m)
        if not xv or not yv or xv.bit_count() % 2 or yv.bit_count() % 2 \
                or (xv & yv).bit_count() % 2:
            return None, None
        return (xv, yv), TransformPair(FieldVector.from_bits(xv, m), FieldVector.from_bits(yv, m))

    return _sample(count, rng_seed, draw, "isotropic pairs", m)


# --- drivers ------------------------------------------------------------------

@dataclass
class _DedupEntry:
    index: int
    code: LinearCode


def _emit(records: list[SearchRecord], dedup: dict, rec: SearchRecord,
          code: LinearCode, node_budget: int, threads: int) -> None:
    key = (rec.fingerprint["distribution"], rec.fingerprint["nt"])
    prior = dedup.get(key)
    if prior is None:
        dedup[key] = _DedupEntry(len(records), code)
        records.append(rec)
        return
    res = is_equivalent(prior.code, code, node_budget=node_budget, threads=threads)
    if res.verdict == "equivalent":
        return  # merged into the earlier record
    rec.collision = (
        f"fingerprint collision with record {prior.index} (equivalence: {res.verdict})"
    )
    records.append(rec)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _search(form: StandardForm, pairs: Iterable[TransformPair], mode: str,
            target: Callable[[bool, bool, bool], bool], violation: str,
            d_target: int, seed_id: str, threads: int,
            stamp: bool) -> list[SearchRecord]:
    """Transform, screen, certify and dedup each pair, pulled one at a time.

    ``target`` takes the (self_dual, doubly_even, lcd) flags of a screen
    survivor.  A survivor that misses it raises ``violation`` in checked
    mode and is dropped in unchecked mode.
    """
    records: list[SearchRecord] = []
    dedup: dict = {}
    for pair in pairs:
        out = transform_code(form, pair, mode=mode)
        cert = _certify(out, d_target, threads)
        if cert is None:
            continue
        d, flags, fp = cert
        if not target(*flags):
            if mode == "checked":
                raise PostconditionError(violation)
            continue
        rec = SearchRecord(
            seed_id=seed_id, x=pair.x.to_string(), y=pair.y.to_string(),
            n=out.n, k=out.k, d=d,
            self_dual=flags[0], doubly_even=flags[1], lcd=flags[2],
            fingerprint=fp, created=_timestamp() if stamp else None,
        )
        _emit(records, dedup, rec, out, SEARCH_NODE_BUDGET, threads)
    return records


def sd_search(seed: LinearCode, y: FieldVector,
              x_candidates: Iterable[FieldVector], d_target: int,
              rule: str = "mod4", seed_id: str = "seed", threads: int = 1,
              stamp: bool = False) -> list[SearchRecord]:
    """Transform a doubly even self-dual seed by (x, y) candidates and keep
    outputs with min weight >= d_target.

    rule="mod4" enforces the double-evenness hypothesis wt(x) = 0 (mod 4)
    and transforms in checked mode; rule="even" admits all even-weight x,
    transforms unchecked, and keeps only outputs passing post-hoc doubly
    even + self-dual verification.  Candidates failing the rule are skipped;
    any other rule raises ValueError.
    """
    if rule not in ("mod4", "even"):
        raise ValueError(f"unknown rule {rule!r}")
    if not seed.field.binary:
        raise PredicateError("sd_search operates on binary seeds")
    if not is_self_dual(seed) or not is_doubly_even(seed):
        raise PredicateError("sd_search needs a doubly even self-dual seed")
    if y.weight % 4:
        raise PredicateError("sd_search needs wt(y) = 0 (mod 4)")
    form = standard_form(seed)
    if len(y) != form.a_block.cols:
        raise PredicateError(f"y must have length n-k = {form.a_block.cols}")
    pairs = (TransformPair(x, y) for x in x_candidates if _x_ok(x, y, rule))
    return _search(form, pairs, "checked" if rule == "mod4" else "unchecked",
                   lambda sd, de, lcd: sd and de,
                   "sd_search emitted a non doubly-even-self-dual code",
                   d_target, seed_id, threads, stamp)


def lcd_improve(seed: LinearCode, pairs: Iterable[TransformPair], d_target: int,
                seed_id: str = "seed", threads: int = 1,
                stamp: bool = False) -> list[SearchRecord]:
    """Transform an LCD seed by isotropic pairs; keep LCD outputs with
    min weight >= d_target.  Non-isotropic pairs are skipped."""
    if not seed.field.binary:
        raise PredicateError("lcd_improve operates on binary seeds")
    if not is_lcd(seed):
        raise PredicateError("lcd_improve needs an LCD seed")
    form = standard_form(seed)
    m = form.a_block.cols

    def isotropic():
        for pair in pairs:
            if not pair.isotropic:
                continue
            if pair.length != m:
                raise PredicateError(f"pair length must be n-k = {m}")
            yield pair

    return _search(form, isotropic(), "checked", lambda sd, de, lcd: lcd,
                   "lcd_improve emitted a non-LCD code",
                   d_target, seed_id, threads, stamp)


def _record_vector(record: SearchRecord, name: str, seed: LinearCode) -> FieldVector:
    """The record's ``x`` or ``y`` as a nonzero vector over the seed's field."""
    text = getattr(record, name)
    try:
        v = FieldVector(seed.field, [int(c) for c in text])
    except ValueError as e:
        raise IntegrityError(f"record {name}={text!r} is not a vector: {e}") from None
    if v.is_zero():
        raise IntegrityError(f"record {name}={text!r} is the zero vector")
    return v


def replay(record: SearchRecord, seed_store: Mapping[str, LinearCode],
           threads: int = 1) -> LinearCode:
    """Reconstruct a record's code and verify parameters and fingerprint."""
    seed = seed_store.get(record.seed_id)
    if seed is None:
        raise IntegrityError(f"seed id {record.seed_id!r} not resolvable")
    form = standard_form(seed)
    m = form.a_block.cols
    if len(record.x) != m or len(record.y) != m:
        raise IntegrityError(
            f"record vectors have length {len(record.x)}/{len(record.y)}, "
            f"seed needs {m}"
        )
    x, y = (_record_vector(record, name, seed) for name in ("x", "y"))
    pair = TransformPair(x, y)
    mode = "checked" if (pair.isotropic or pair.de_safe) else "unchecked"
    out = transform_code(form, pair, mode=mode)
    if (out.n, out.k) != (record.n, record.k):
        raise IntegrityError(
            f"replayed parameters [{out.n},{out.k}] != recorded [{record.n},{record.k}]"
        )
    d, certs, fp = _certify(out, threads=threads)
    if d != record.d:
        raise IntegrityError(f"replayed d={d} != recorded d={record.d}")
    if certs != (record.self_dual, record.doubly_even, record.lcd):
        raise IntegrityError(f"replayed predicates {certs} do not match record")
    if fp != record.fingerprint:
        raise IntegrityError("replayed fingerprint does not match record")
    return out
