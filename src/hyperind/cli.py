"""Command-line interface.

Subcommands: construct, count, enumerate, check-conjecture, verify-proof,
compare.  All output is deterministic for fixed inputs and flags; exact
integers appear in JSON as decimal strings and entropies as floats with 15
significant digits.

Exit codes: 0 success (and no counterexample found); 1 a genuine conjecture
violation; 2 usage, parse, capacity, or I/O errors (such as a missing input
file).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

from . import counting
from .constructions import build_complete_r_partite, build_hrd, \
    build_matching, build_transversal_design_3
from .core import Caps, Hypergraph
from .counting import count
from .enumeration import EnumSpec, enumerate_regular, first_edge_choices
from .errors import CapacityError, InvalidArgumentError, ParseError
from .hgio import read_hypergraph, write_hypergraph
from .verification import check_conjecture, compare_constructions, \
    verify_proof_steps


def _fmt_float(x: float) -> float:
    return float(format(x, ".15g"))


def _read_input(path: str) -> Hypergraph:
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        # the line of the first byte that does not decode
        raise ParseError(f"byte {exc.object[exc.start]:#04x} is not UTF-8",
                         exc.object.count(b"\n", 0, exc.start) + 1) from None
    return read_hypergraph(text)


def _cmd_construct(args, caps: Caps) -> int:
    if args.family == "hrd":
        g, _ = build_hrd(args.r, args.d)
    elif args.family == "complete":
        g = build_complete_r_partite(args.r, args.t)
    elif args.family == "td3":
        g = build_transversal_design_3(args.m)
    else:
        g = build_matching(args.r, args.k)
    sys.stdout.write(write_hypergraph(g))
    return 0


def _cmd_count(args, caps: Caps) -> int:
    print(count(_read_input(args.input), args.method, caps))
    return 0


def _verdict_json(v) -> dict:
    return {
        "r": v.r, "d": v.d, "n": v.n,
        "ind": str(v.ind_g),
        "lhs": str(v.lhs), "rhs": str(v.rhs),
        "holds": v.holds, "equality": v.equality,
        "slack_bits": _fmt_float(v.slack_bits),
    }


def _cmd_check(args, caps: Caps) -> int:
    g = _read_input(args.input)
    v = check_conjecture(g, caps=caps)
    if args.json:
        print(json.dumps(_verdict_json(v)))
    else:
        print(f"r={v.r} d={v.d} n={v.n}")
        print(f"ind(G) = {v.ind_g}")
        print(f"lhs = ind(G)^(rd) = {v.lhs}")
        print(f"rhs = ind(H)^n   = {v.rhs}")
        print(f"holds: {str(v.holds).lower()}  equality: {str(v.equality).lower()}")
        print(f"slack: {format(v.slack_bits, '.15g')} bits per block")
    if not v.holds:
        sys.stdout.write(write_hypergraph(g))
        return 1
    return 0


def _cmd_verify(args, caps: Caps) -> int:
    g = _read_input(args.input)
    rep = verify_proof_steps(g, caps=caps)
    if args.json:
        out = {
            "r": rep.r, "d": rep.d, "n": rep.n,
            "ind": str(rep.ind_g),
            "log2_ind": _fmt_float(rep.log2_ind),
            "hrd_bound_bits": _fmt_float(rep.hrd_bound_bits),
            "steps": [
                {"name": s.name, "lhs": _fmt_float(s.lhs),
                 "rhs": _fmt_float(s.rhs), "margin": _fmt_float(s.margin),
                 "pass": s.passed}
                for s in rep.steps
            ],
            "findings": list(rep.findings),
            "all_passed": rep.all_passed,
        }
        print(json.dumps(out))
    else:
        print(f"r={rep.r} d={rep.d} n={rep.n}  ind(G)={rep.ind_g}")
        print(f"log2 ind(G) = {format(rep.log2_ind, '.15g')}"
              f"  bound = {format(rep.hrd_bound_bits, '.15g')}")
        for s in rep.steps:
            status = "PASS" if s.passed else "FAIL"
            print(f"{s.name}: lhs={format(s.lhs, '.15g')}"
                  f" rhs={format(s.rhs, '.15g')}"
                  f" margin={format(s.margin, '.15g')} {status}")
        for f in rep.findings:
            print(f"finding: {f}")
        print("all steps passed" if rep.all_passed else "some steps FAILED")
    return 0


def _cmd_compare(args, caps: Caps) -> int:
    rep = compare_constructions(args.r, t=args.t, m=args.m, caps=caps)
    if args.json:
        out = {
            "kind": rep.kind, "r": rep.r, "d": rep.d,
            "ind_hrd": str(rep.ind_hrd), "ind_rival": str(rep.ind_rival),
            "L": rep.L,
            "hrd_power": str(rep.hrd_power),
            "rival_power": str(rep.rival_power),
            "winner": rep.winner,
        }
        print(json.dumps(out))
    else:
        print(f"{rep.kind}: r={rep.r} d={rep.d}")
        print(f"ind(H) = {rep.ind_hrd}  ind(rival) = {rep.ind_rival}")
        print(f"at L={rep.L} vertices: {rep.hrd_power} vs {rep.rival_power}")
        print(f"winner: {rep.winner}")
    return 0


def _enumerate_chunk(spec: EnumSpec, check: bool,
                     keep: bool) -> tuple[int, list[str], list[str]]:
    """Worker: enumerate one first-edge prefix; returns (count, emissions,
    violations) as ".hg" texts.  Emissions are kept only when requested.
    The spec carries the caps, so pool workers get them by value under
    every process start method."""
    emissions: list[str] = []
    violations: list[str] = []

    def visit(g: Hypergraph) -> None:
        if keep:
            emissions.append(write_hypergraph(g))
        if check and not check_conjecture(g, caps=spec.caps).holds:
            violations.append(write_hypergraph(g))

    # with nothing to keep or check, no graph is built
    count = enumerate_regular(spec, visit if keep or check else None)
    return count, emissions, violations


def _cmd_enumerate(args, caps: Caps) -> int:
    if args.workers < 1:
        raise InvalidArgumentError(f"--workers must be >= 1, got {args.workers}")
    spec = EnumSpec(r=args.r, d=args.d, n=args.n, up_to_iso=args.up_to_iso,
                    caps=caps)
    # up to isomorphism the classes are checked after the merge, from their texts
    check = args.check_conjecture and not args.up_to_iso
    keep = args.emit is not None or (args.up_to_iso and args.check_conjecture)
    # empty for an infeasible spec or one with no edges, and a single chunk
    # up to isomorphism, which runs in this process and emits each class once
    first_edges = first_edge_choices(spec) if args.workers > 1 else []
    if len(first_edges) > 1:
        import concurrent.futures  # only a parallel run pays for the pool

        # the pool starts all its workers at once, so start no idle ones
        workers = min(args.workers, len(first_edges))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                partial(_enumerate_chunk, check=check, keep=keep),
                [replace(spec, prefix=(e,)) for e in first_edges]))
    else:
        results = [_enumerate_chunk(spec, check, keep)]

    total = 0
    emissions: list[str] = []
    violations: list[str] = []
    for count, ems, viol in results:
        total += count
        emissions.extend(ems)
        violations.extend(viol)
    if args.up_to_iso and args.check_conjecture:
        # perfbench's EXPECTED_CALLS['iso'] pins read_hypergraph (ROADMAP item 1)
        violations = [t for t in emissions if not check_conjecture(
            read_hypergraph(t), caps=caps).holds]

    if args.emit is not None:
        outdir = Path(args.emit)
        outdir.mkdir(parents=True, exist_ok=True)
        width = max(6, len(str(max(total, 1))))
        for i, text in enumerate(emissions):
            (outdir / f"g{i:0{width}d}.hg").write_text(text)

    print(f"emitted: {total}")
    if args.check_conjecture:
        print(f"checked: {total}")
        print(f"violations: {len(violations)}")
        for text in violations:
            sys.stdout.write(text)
        if violations:
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hyperind",
        description="Exact counting and verification for independent sets "
                    "in regular uniform hypergraphs.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named family as .hg text")
    fam = c.add_subparsers(dest="family", required=True)
    f_hrd = fam.add_parser("hrd")
    f_hrd.add_argument("--r", type=int, required=True)
    f_hrd.add_argument("--d", type=int, required=True)
    f_comp = fam.add_parser("complete")
    f_comp.add_argument("--r", type=int, required=True)
    f_comp.add_argument("--t", type=int, required=True)
    f_td3 = fam.add_parser("td3")
    f_td3.add_argument("--m", type=int, required=True)
    f_match = fam.add_parser("matching")
    f_match.add_argument("--r", type=int, required=True)
    f_match.add_argument("--k", type=int, required=True)
    c.set_defaults(func=_cmd_construct)

    cnt = sub.add_parser("count", help="count independent sets of a .hg file")
    cnt.add_argument("input", help='path to a .hg file, or "-" for stdin')
    cnt.add_argument("--method", choices=counting.METHODS,
                     default="auto")
    cnt.set_defaults(func=_cmd_count)

    en = sub.add_parser("enumerate",
                        help="generate all d-regular r-uniform hypergraphs on n vertices")
    en.add_argument("--r", type=int, required=True)
    en.add_argument("--d", type=int, required=True)
    en.add_argument("--n", type=int, required=True)
    en.add_argument("--up-to-iso", action="store_true")
    en.add_argument("--check-conjecture", action="store_true")
    en.add_argument("--emit", metavar="DIR")
    en.add_argument("--workers", type=int, default=1)
    en.set_defaults(func=_cmd_enumerate)

    chk = sub.add_parser("check-conjecture",
                         help="exact extremal-bound verdict for one hypergraph")
    chk.add_argument("input")
    chk.add_argument("--json", action="store_true")
    chk.set_defaults(func=_cmd_check)

    ver = sub.add_parser("verify-proof",
                         help="check the entropy proof chain on a quasi-bipartite instance")
    ver.add_argument("input")
    ver.add_argument("--json", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    cmp_ = sub.add_parser("compare",
                          help="H(r,d) vs a rival construction, exact at a common size")
    cmp_.add_argument("--r", type=int, required=True)
    group = cmp_.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=int)
    group.add_argument("--m", type=int)
    cmp_.add_argument("--json", action="store_true")
    cmp_.set_defaults(func=_cmd_compare)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, Caps.from_env())
    except (InvalidArgumentError, ParseError, CapacityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
