"""Search drivers: enumerate or sample transform pairs against seed codes to
discover doubly even self-dual codes and improved LCD codes, with
fingerprint deduplication and replayable JSON-lines persistence.  A candidate
x is decided on its packed int, and a vector is built only for a kept x.

Both drivers are front-ends to one loop (transform, screen, certify,
dedup).  Every emitted record's code is certified against its guaranteed
predicate at emission time, and records are reproducible: replaying
(seed, x, y) must give back identical parameters and fingerprint.

One certify step, ``_certify``, gives the loop, ``replay`` and
``fingerprint_code`` a code's certificate (``invariant._Certificate``, kept
on the code), flags and fingerprint; dedup decides over codes through
``is_equivalent``, and no cover leaves ``invariant``.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import MISSING, asdict, dataclass, fields
from datetime import datetime, timezone
from math import comb
from typing import Callable, Iterable, Iterator, Mapping, TextIO

from .code import (
    LinearCode,
    StandardForm,
    is_doubly_even,
    is_lcd,
    is_self_dual,
    standard_form,
)
from .errors import CapacityError, IntegrityError, PostconditionError, PredicateError
from .field import GF2, FieldVector, parse_symbols
from .invariant import _Certificate, _certificate, _nt_counts, is_equivalent
# tracer-only: perfbench/tracing.py wraps these names, and search calls none of them
from .invariant import nt_from_masks  # noqa: F401
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
             ) -> tuple[_Certificate, tuple[bool, bool, bool], dict[str, str]] | None:
    """None when the screen at ``abort_below`` aborts, else (certificate,
    (self_dual, doubly_even, lcd), fingerprint): hashes of the distribution
    and of the weight-d words' N_t counts, which do not depend on the
    words' order.  The certificate stays on ``code``."""
    if (cert := _certificate(code, abort_below, threads)) is None:
        return None
    flags = is_self_dual(code), is_doubly_even(code), is_lcd(code)
    fp = {"distribution": _digest(cert.distribution.counts), "nt": _digest(_nt_counts(cert.nt))}
    return cert, flags, fp


def fingerprint_code(code: LinearCode) -> dict[str, str]:
    """Dedup key: (weight-distribution hash, minimum-weight N_t hash)."""
    return _certify(code)[2]


# the JSON type of each record field, as ``json`` decodes it
_RECORD_TYPES = {"seed_id": (str,), "x": (str,), "y": (str,), "n": (int,), "k": (int,), "d": (int,),
                 "self_dual": (bool,), "doubly_even": (bool,), "lcd": (bool,), "fingerprint": (dict,),
                 "collision": (str, type(None)), "created": (str, type(None))}
_JSON_TYPE_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "a boolean",
                    dict: "an object", list: "an array", type(None): "null"}


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
        KeyError naming it.  Each field must have the JSON type the writer
        writes, and the fingerprint exactly its two string fields; a wrong
        type or a field other than these and ``kind`` raises ValueError
        naming it."""
        unknown = sorted(set(doc) - set(_RECORD_TYPES) - {"kind"})
        if unknown:
            raise ValueError(f"unknown field {unknown[0]!r}")
        values = {f.name: doc[f.name] if f.default is MISSING else doc.get(f.name, f.default)
                  for f in fields(cls)}
        for name, value in values.items():
            if type(value) not in _RECORD_TYPES[name]:  # exact: a bool is not an int
                raise ValueError(f"field {name!r} must be "
                                 f"{' or '.join(map(_JSON_TYPE_NAMES.get, _RECORD_TYPES[name]))}, "
                                 f"got {_JSON_TYPE_NAMES.get(type(value), type(value).__name__)}")
        fingerprint = values["fingerprint"]
        if sorted(fingerprint) != ["distribution", "nt"] or \
                any(type(v) is not str for v in fingerprint.values()):
            raise ValueError("field 'fingerprint' must hold exactly the strings 'distribution' and 'nt'")
        return cls(**values)


def write_records(path: str | TextIO, records: Iterable[SearchRecord],
                  header: Mapping | None = None) -> None:
    """Write the header line, if any, and one line per record to the file at
    ``path``, or to ``path`` itself when it is a text file already open."""
    if not hasattr(path, "write"):
        with open(path, "w", encoding="utf-8") as fh:
            write_records(fh, records, header)
        return
    if header is not None:
        path.write(json.dumps({"kind": "header", **dict(header)}, sort_keys=True) + "\n")
    for rec in records:
        path.write(rec.to_json_line() + "\n")


def read_records(path: str) -> tuple[dict | None, list[SearchRecord]]:
    header = None
    records = []
    # undecodable bytes read as lone surrogates, refused with their line below
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for i, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise IntegrityError(f"{path}:{i}: not UTF-8 text") from None
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

_RULE_MOD = {"mod4": 4, "even": 2}  # a valid x is nonzero, (x, y) = 0, wt(x) = 0 mod this


def _x_test(y: FieldVector, m: int, rule: str) -> Callable[[int], bool]:
    """The int test of a valid x, after checking ``rule`` and that ``y`` is binary of length ``m``."""
    if rule not in _RULE_MOD:
        raise ValueError(f"unknown rule {rule!r}")
    FieldVector.from_bits(0, m)._require_compatible(y)
    yb, mod = y.bits, _RULE_MOD[rule]
    return lambda v: v != 0 and not (v & yb).bit_count() & 1 and v.bit_count() % mod == 0


def exhaustive_x(m: int, y: FieldVector, rule: str = "mod4") -> Iterator[FieldVector]:
    """All valid x in lexicographic order of their packed ints; a vector is built only for a kept x."""
    ok = _x_test(y, m, rule)
    return (FieldVector.from_bits(v, m) for v in range(1, 1 << m) if ok(v))


def _valid_x_count(m: int, y: FieldVector, rule: str) -> int:
    """How many valid x of length m exist: a choice of an even number a of
    the wt(y) coordinates in supp y and b of the others, with a + b = 0 mod
    the rule's modulus, less x = 0."""
    s, mod = y.weight, _RULE_MOD[rule]
    return sum(comb(s, a) * comb(m - s, b) for a in range(0, s + 1, 2)
               for b in range(m - s + 1) if (a + b) % mod == 0) - 1


def _isotropic_pair_count(m: int) -> int:
    """How many ordered pairs of nonzero even-weight x, y of length m have
    (x, y) = 0.  On the even-weight subspace E (2^(m-1) words) the form's
    radical is E ∩ {0, 1...1}; an x in it is orthogonal to all of E, any
    other x to half of E."""
    if m < 2:
        return 0
    e = 1 << (m - 1)
    rad = 2 - m % 2
    return rad * e + (e - rad) * (e // 2) - 2 * e + 1


def _sample(count: int, rng_seed: int, draw: Callable, what: str, m: int, available: int) -> list:
    """``count`` items from ``draw(rng)`` with distinct keys, drawn with the
    named PRNG at ``rng_seed``; a negative count or seed raises ``ValueError``.
    ``draw`` returns (key, item), item None for a rejected draw; ``available``
    distinct keys exist, so a larger ``count`` raises before the first draw."""
    if count < 0 or rng_seed < 0:
        raise ValueError(f"need count >= 0 and rng_seed >= 0, got {count} and {rng_seed}")
    if count > available:
        raise CapacityError(f"cannot sample {count} {what}: only {available} exist (m={m})")
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
    """``count`` distinct valid x drawn with the named, seeded PRNG, decided
    on ints: ``y`` and ``rule`` are checked once, a vector built per kept draw."""
    ok = _x_test(y, m, rule)
    def draw(rng):
        v = rng.getrandbits(m)
        return v, FieldVector.from_bits(v, m) if ok(v) else None

    return _sample(count, rng_seed, draw, "valid x", m, _valid_x_count(m, y, rule))


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

    return _sample(count, rng_seed, draw, "isotropic pairs", m, _isotropic_pair_count(m))


# --- drivers ------------------------------------------------------------------

def _emit(records: list[SearchRecord], dedup: dict, rec: SearchRecord, code: LinearCode,
          node_budget: int, threads: int) -> None:
    """Append ``rec`` unless ``code`` is proved equivalent to an earlier one.

    ``dedup`` maps a fingerprint key to its class representatives, as (record
    index, code) in emission order; each keeps its certificate (at n = 56,
    65,520 bytes of weight-12 words).  Each decision is ``is_equivalent``
    of a representative and ``code``.  A new code is merged into the first
    found equivalent, or else kept as one more, its ``collision`` note
    naming every record compared.
    """
    key = (rec.fingerprint["distribution"], rec.fingerprint["nt"])
    reps = dedup.setdefault(key, [])
    verdicts = []
    for index, prior in reps:
        res = is_equivalent(prior, code, node_budget=node_budget, threads=threads)
        if res.verdict == "equivalent":
            return  # merged into the earlier record
        verdicts.append(f"{index} (equivalence: {res.verdict})")
    if verdicts:
        rec.collision = (f"fingerprint collision with record{'s' if len(verdicts) > 1 else ''} "
                         + ", ".join(verdicts))
    reps.append((len(records), code))
    records.append(rec)


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
        certified = _certify(out, d_target)
        if certified is None:
            continue
        cert, flags, fp = certified
        if not target(*flags):
            if mode == "checked":
                raise PostconditionError(violation)
            continue
        rec = SearchRecord(
            seed_id=seed_id, x=pair.x.to_string(), y=pair.y.to_string(),
            n=out.n, k=out.k, d=cert.d,
            self_dual=flags[0], doubly_even=flags[1], lcd=flags[2],
            fingerprint=fp,
            created=datetime.now(timezone.utc).isoformat(timespec="seconds") if stamp else None,
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
    any other rule raises ValueError.  Every screen runs on one thread:
    ``threads`` reaches only dedup's equivalence decision.
    """
    ok = _x_test(y, len(y), rule)  # ValueError on an unknown rule, DimensionError on a non-binary y
    if not seed.field.binary:
        raise PredicateError("sd_search operates on binary seeds")
    if not is_self_dual(seed) or not is_doubly_even(seed):
        raise PredicateError("sd_search needs a doubly even self-dual seed")
    if y.weight % 4:
        raise PredicateError("sd_search needs wt(y) = 0 (mod 4)")
    form = standard_form(seed)
    if len(y) != form.a_block.cols:
        raise PredicateError(f"y must have length n-k = {form.a_block.cols}")

    def pairs():
        for x in x_candidates:
            x._require_compatible(y)  # a caller's x: DimensionError on a field or length mismatch
            if ok(x.bits):
                yield TransformPair(x, y)

    return _search(form, pairs(), "checked" if rule == "mod4" else "unchecked",
                   lambda sd, de, lcd: sd and de,
                   "sd_search emitted a non doubly-even-self-dual code",
                   d_target, seed_id, threads, stamp)


def lcd_improve(seed: LinearCode, pairs: Iterable[TransformPair], d_target: int,
                seed_id: str = "seed", threads: int = 1,
                stamp: bool = False) -> list[SearchRecord]:
    """Transform an LCD seed by isotropic pairs; keep LCD outputs with
    min weight >= d_target.  Non-isotropic pairs are skipped.  Every screen
    runs on one thread: ``threads`` reaches only dedup's equivalence decision."""
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
        v = FieldVector(seed.field, parse_symbols(seed.field, text))
    except ValueError as e:
        raise IntegrityError(f"record {name}={text!r} is not a vector: {e}") from None
    if v.is_zero():
        raise IntegrityError(f"record {name}={text!r} is the zero vector")
    return v


def replay(record: SearchRecord, seed_store: Mapping[str, LinearCode],
           threads: int = 1) -> LinearCode:
    """Reconstruct a record's code and verify parameters and fingerprint.
    The code returned is certified: its scan and N_t counts stay on it.

    ``threads`` splits the certify step's full walk, when it takes one."""
    seed = seed_store.get(record.seed_id)
    if seed is None:
        raise IntegrityError(f"seed id {record.seed_id!r} not resolvable")
    form = standard_form(seed)
    m = form.a_block.cols
    if len(record.x) != m or len(record.y) != m:
        raise IntegrityError(f"record vectors have length {len(record.x)}/{len(record.y)}, seed needs {m}")
    x, y = (_record_vector(record, name, seed) for name in ("x", "y"))
    pair = TransformPair(x, y)
    mode = "checked" if (pair.isotropic or pair.de_safe) else "unchecked"
    out = transform_code(form, pair, mode=mode)
    if (out.n, out.k) != (record.n, record.k):
        raise IntegrityError(f"replayed parameters [{out.n},{out.k}] != recorded [{record.n},{record.k}]")
    cert, certs, fp = _certify(out, threads=threads)
    if cert.d != record.d:
        raise IntegrityError(f"replayed d={cert.d} != recorded d={record.d}")
    if certs != (record.self_dual, record.doubly_even, record.lcd):
        raise IntegrityError(f"replayed predicates {certs} do not match record")
    if fp != record.fingerprint:
        raise IntegrityError("replayed fingerprint does not match record")
    return out
