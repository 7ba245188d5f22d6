"""Command-line surface: build, inspect, transform, enumerate, compare, and
search codes, with the bundled seeds/pairs addressable by name.

Code files use the text format of :mod:`hullkit.code`; coordinate sets on
the command line are 1-based.  Exit status: 0 success, 1 domain or I/O
error, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import artifacts
from .code import (
    LinearCode,
    dual,
    format_code,
    hull_dim,
    is_doubly_even,
    is_even,
    is_extremal_doubly_even_self_dual,
    is_lcd,
    is_self_dual,
    is_self_orthogonal,
    parse_code,
    puncture,
    shorten,
)
from .circulant import CirculantSpec, bordered_double_circulant, pure_double_circulant
from .errors import HullkitError
from .field import GF2, FieldVector
from .invariant import DEFAULT_NODE_BUDGET, is_equivalent, nt_sequence
from .minweight import min_weight, weight_distribution
from .search import (
    exhaustive_isotropic_pairs,
    exhaustive_x,
    lcd_improve,
    make_yi,
    read_records,
    replay,
    sampled_isotropic_pairs,
    sampled_x,
    sd_search,
    write_records,
    RNG_NAME,
)
from .transform import TransformPair, transform_code
from .verify import run_verification

PROG = "hullkit"


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise HullkitError(f"{'<stdin>' if path == '-' else path}: not UTF-8 text: {e}") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_code_arg(spec: str) -> LinearCode:
    """Resolve a code from a bundled artifact name, a file path, or '-'."""
    if spec != "-" and spec in artifacts.ARTIFACTS:
        return artifacts.bundled_code(spec)
    return parse_code(_read_text(spec), source=spec)


def _load_pair_arg(spec: str) -> TransformPair:
    if spec in artifacts.ARTIFACTS:
        return artifacts.load_pair(spec)
    return TransformPair.parse(_read_text(spec), source=spec)


def _parse_coords(text: str) -> list[int]:
    try:
        return [int(t) for t in text.replace(",", " ").split()]
    except ValueError:
        raise HullkitError(f"coordinate list {text!r} is not a list of integers") from None


def _parse_y(spec: str, m: int) -> FieldVector:
    if spec.startswith("y") and spec[1:].isascii() and spec[1:].isdigit():
        return make_yi(m, int(spec[1:]))
    if set(spec) <= {"0", "1"}:
        if len(spec) != m:
            raise HullkitError(f"y has length {len(spec)}, seed needs {m}")
        return FieldVector(GF2, [int(c) for c in spec])
    raise HullkitError(f"cannot parse y spec {spec!r} (use e.g. 'y4' or an explicit 0/1 string)")


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        for key, val in doc.items():
            print(f"{key}: {val}")


# --- subcommand handlers ------------------------------------------------------

def _cmd_info(args) -> int:
    code = _load_code_arg(args.code)
    doc = {
        "q": code.field.p,
        "n": code.n,
        "k": code.k,
        "hull_dim": hull_dim(code),
        "lcd": is_lcd(code),
        "self_orthogonal": is_self_orthogonal(code),
        "self_dual": is_self_dual(code),
    }
    if code.field.binary:
        doc["even"] = is_even(code)
        doc["doubly_even"] = is_doubly_even(code)
    if args.minweight:
        d = min_weight(code, threads=args.threads)
        doc["d"] = d
        if code.field.binary and doc.get("doubly_even") and doc["self_dual"]:
            doc["extremal"] = is_extremal_doubly_even_self_dual(code, d)
    _emit(doc, args.format)
    return 0


def _cmd_build_circulant(args) -> int:
    if args.seed in artifacts.ARTIFACTS:
        code = artifacts.load_seed(args.seed)
    else:
        if not set(args.seed) <= {"0", "1"}:
            raise HullkitError(
                f"unknown seed {args.seed!r}: expected a bundled name "
                f"({', '.join(artifacts.CIRCULANT_SEED_NAMES)}) or a 0/1 first row"
            )
        spec = CirculantSpec(FieldVector(GF2, [int(c) for c in args.seed]))
        code = pure_double_circulant(spec) if args.pure else bordered_double_circulant(spec)
    _write_text(args.out, format_code(code))
    return 0


def _cmd_transform(args) -> int:
    code = _load_code_arg(args.seed)
    pair = _load_pair_arg(args.pair)
    out = transform_code(code, pair, mode=args.mode)
    _write_text(args.out, format_code(out))
    return 0


def _cmd_minweight(args) -> int:
    code = _load_code_arg(args.code)
    d = min_weight(code, abort_above=args.abort_above, threads=args.threads)
    doc = {"d": d}
    if args.abort_above is not None and d < args.abort_above:
        doc["verdict"] = f"d < {args.abort_above} (early abort; value is an upper bound)"
    _emit(doc, args.format)
    return 0


def _cmd_distribution(args) -> int:
    dist = weight_distribution(_load_code_arg(args.code), threads=args.threads)
    _emit(dict(dist.items()) if args.format == "text" else
          {"n": dist.n, "counts": dist.to_jsonable()}, args.format)
    return 0


def _cmd_invariant(args) -> int:
    seq = nt_sequence(_load_code_arg(args.code), args.weight, threads=args.threads)
    doc = {"weight": seq.weight, "sequence": seq.to_jsonable()}
    _emit(doc if args.format == "text" else {"n": seq.n, "k": seq.k, **doc}, args.format)
    return 0


def _cmd_equiv(args) -> int:
    c1 = _load_code_arg(args.code1)
    c2 = _load_code_arg(args.code2)
    res = is_equivalent(c1, c2, node_budget=args.node_budget, threads=args.threads)
    doc = {"verdict": res.verdict, "nodes": res.nodes}
    if res.witness is not None:
        doc["witness"] = list(res.witness)
    _emit(doc, args.format)
    return 0


def _cmd_coords(args) -> int:
    """``shorten`` or ``puncture``: ``args.op`` is the library call."""
    out = args.op(_load_code_arg(args.code), _parse_coords(args.coords))
    _write_text(args.out, format_code(out))
    return 0


def _cmd_dual(args) -> int:
    code = _load_code_arg(args.code)
    _write_text(args.out, format_code(dual(code)))
    return 0


def _write_search(args, header: dict, search, *params, **options) -> int:
    """Run ``search`` (``sd_search`` or ``lcd_improve``) on ``params`` and
    write its records to ``--out``.  The file is opened before the search, so an unwritable path
    fails first, and emptied only once the search has returned, so a
    refused search leaves it as it was."""
    with open(args.out, "a", encoding="utf-8") as out:
        records = search(*params, seed_id=args.seed, stamp=True, **options)
        out.truncate(0)
        write_records(out, records, header=header)
    print(f"{len(records)} record(s) written to {args.out}")
    return 0


def _cmd_search_sd(args) -> int:
    seed = _load_code_arg(args.seed)
    m = seed.n - seed.k
    y = _parse_y(args.y, m)
    if args.exhaustive:
        if m > 20:
            print(f"note: exhaustive sweep over ~2^{m} candidates; expect a very "
                  f"long run (sample mode screens a fixed count instead)",
                  file=sys.stderr)
        xs = exhaustive_x(m, y, rule=args.rule)
        source = {"x_source": "exhaustive"}
    else:
        xs = sampled_x(m, y, args.sample, args.rng_seed, rule=args.rule)
        source = {"x_source": "sample", "count": args.sample,
                  "rng": RNG_NAME, "rng_seed": args.rng_seed}
    header = {"search": "sd", "seed": args.seed, "y": y.to_string(),
              "d_target": args.d_target, "rule": args.rule, **source}
    return _write_search(args, header, sd_search, seed, y, xs, args.d_target, rule=args.rule)


def _cmd_search_lcd(args) -> int:
    seed = _load_code_arg(args.seed)
    m = seed.n - seed.k
    if args.pair:
        pairs = [_load_pair_arg(args.pair)]
        source = {"pair_source": f"named:{args.pair}"}
    elif args.exhaustive:
        pairs = exhaustive_isotropic_pairs(m)
        source = {"pair_source": "exhaustive"}
    else:
        pairs = sampled_isotropic_pairs(m, args.sample, args.rng_seed)
        source = {"pair_source": "sample", "count": args.sample,
                  "rng": RNG_NAME, "rng_seed": args.rng_seed}
    header = {"search": "lcd", "seed": args.seed, "d_target": args.d_target, **source}
    return _write_search(args, header, lcd_improve, seed, pairs, args.d_target)


def _cmd_replay(args) -> int:
    _, records = read_records(args.records)
    store = artifacts.seed_store()
    if args.seed_file:
        for spec in args.seed_file:
            name, eq, path = spec.partition("=")
            if not (eq and name and path):
                raise HullkitError(f"--seed-file {spec!r} is not NAME=PATH")
            store[name] = parse_code(_read_text(path), source=path)
    if args.index is None:
        picked = list(enumerate(records))
    elif 0 <= args.index < len(records):
        picked = [(args.index, records[args.index])]
    else:
        raise HullkitError(f"--index {args.index} is out of range: "
                           f"{args.records} holds {len(records)} record(s)")
    for i, rec in picked:
        code = replay(rec, store)
        print(f"record {i}: [{code.n},{code.k},{rec.d}] replay OK")
    return 0


def _cmd_verify_paper(args) -> int:
    report = run_verification()
    _write_text(args.out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    ok = all(c["status"] == "pass" for c in report["checks"])
    for c in report["checks"]:
        print(f"[{c['status']}] {c['name']}: {c['detail']}")
    print(f"verification {'PASSED' if ok else 'FAILED'} "
          f"({sum(c['status'] == 'pass' for c in report['checks'])}/{len(report['checks'])})")
    return 0 if ok else 1


# --- parser -------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for full enumeration walks; "
                        "early-abort screens run on one thread")
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog=PROG,
        description="linear-code toolkit: hull-preserving transforms, circulant "
                    "seeds, exact minimum weights, invariants, and searches",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="parameters, predicates, hull dimension")
    p.add_argument("code", help="code file, '-' for stdin, or bundled name")
    p.add_argument("--minweight", action="store_true", help="also compute d")
    _add_common(p)
    p.set_defaults(fn=_cmd_info)

    p = sub.add_parser("build-circulant", help="double circulant code from a first row")
    p.add_argument("seed", help="bundled name (D11, C56.1..C56.5) or explicit 0/1 row")
    p.add_argument("--pure", action="store_true", help="[I|R] instead of the bordered form")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=_cmd_build_circulant)

    p = sub.add_parser("transform", help="apply a transform pair to a code")
    p.add_argument("--seed", required=True, help="code file or bundled name")
    p.add_argument("--pair", required=True, help="pair file or bundled name")
    p.add_argument("--mode", choices=("checked", "unchecked"), default="checked")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("minweight", help="exact minimum weight")
    p.add_argument("code", help="code file, '-' for stdin, or bundled name")
    p.add_argument("--abort-above", type=int, default=None,
                   help="stop early once a codeword lighter than this is found")
    _add_common(p)
    p.set_defaults(fn=_cmd_minweight)

    p = sub.add_parser("distribution", help="exact weight distribution")
    p.add_argument("code")
    _add_common(p)
    p.set_defaults(fn=_cmd_distribution)

    p = sub.add_parser("invariant", help="N_t column-4-subset sequence")
    p.add_argument("code")
    p.add_argument("--weight", type=int, default=None,
                   help="codeword weight (default: minimum weight)")
    _add_common(p)
    p.set_defaults(fn=_cmd_invariant)

    p = sub.add_parser("equiv", help="exact permutation-equivalence test")
    p.add_argument("code1")
    p.add_argument("code2")
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                   help="search nodes before the verdict is 'unknown'; a node is "
                        "one column tried as the image of an individualized column")
    _add_common(p)
    p.set_defaults(fn=_cmd_equiv)

    for op in (shorten, puncture):
        p = sub.add_parser(op.__name__, help=f"{op.__name__} on a 1-based coordinate set")
        p.add_argument("code")
        p.add_argument("--coords", required=True, help="e.g. '1,2,5'")
        p.add_argument("-o", "--out", default=None)
        p.set_defaults(fn=_cmd_coords, op=op)

    p = sub.add_parser("dual", help="dual code")
    p.add_argument("code")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("search-sd", help="doubly even self-dual search driver")
    p.add_argument("--seed", required=True)
    p.add_argument("--y", required=True, help="'y4'..'y24' or an explicit 0/1 string")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--exhaustive", action="store_true")
    g.add_argument("--sample", type=int, metavar="N")
    p.add_argument("--rng-seed", type=int, default=None)
    p.add_argument("--rule", choices=("mod4", "even"), default="mod4")
    p.add_argument("--d-target", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_search_sd)

    p = sub.add_parser("search-lcd", help="LCD improvement driver")
    p.add_argument("--seed", required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--exhaustive", action="store_true")
    g.add_argument("--sample", type=int, metavar="N")
    g.add_argument("--pair", help="single pair file or bundled name")
    p.add_argument("--rng-seed", type=int, default=None)
    p.add_argument("--d-target", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_search_lcd)

    p = sub.add_parser("replay", help="rebuild records and verify integrity")
    p.add_argument("--records", required=True)
    p.add_argument("--index", type=int, default=None)
    p.add_argument("--seed-file", action="append", default=[],
                   metavar="NAME=PATH", help="extra seed codes for resolution")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("verify-paper", help="run the built-in verification suite")
    p.add_argument("--out", default="verify-paper-report.json")
    p.set_defaults(fn=_cmd_verify_paper)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if hasattr(args, "rng_seed") and (args.sample is None) != (args.rng_seed is None):
        # exits 2; --exhaustive and --pair draw nothing, so a seed there would go unrecorded
        ap.error("--sample requires --rng-seed" if args.rng_seed is None
                 else "--rng-seed applies only to --sample")
    for name, low in (("threads", 1), ("sample", 1), ("rng_seed", 0), ("weight", 1), ("node_budget", 0)):
        if (value := getattr(args, name, None)) is not None and value < low:
            ap.error(f"--{name.replace('_', '-')} must be at least {low}, got {value}")
    try:
        return args.fn(args)
    except (HullkitError, KeyError, ValueError, OSError) as e:
        # str() of a KeyError is the repr of its message, quotes and all
        print(f"{PROG}: error: {e.args[0] if isinstance(e, KeyError) else e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
