"""Command-line interface.

    pg analyze <spec> [--proper] [--patterns LIST] [--export dot|json PATH] [--json]
               [--allow-large]
    pg verify <case-id>|all [--corpus PATH] [--allow-large] [--json]
    pg corpus list
    pg numbers psl2 <q> | sz <q>

`verify` exits 0 iff every evaluated case agrees on both sides.
PG_GROUP_CAP overrides the group-order cap; --allow-large lifts it to >= 25200.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classifiers import psl2_side_numbers, sz_side_numbers, is_admissible_cyclic_order
from .group_kernel import resolve_cap
from .harness import DEFAULT_CORPUS_SPECS, Harness, analyze_group, default_corpus, load_corpus
from .power_graph import export_graph

ALLOW_LARGE_CAP = 25200


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="pg",
                                     description="Power graphs of finite groups: "
                                                 "analysis and classification checks")
    parser.set_defaults(allow_large=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze one group")
    p_analyze.add_argument("spec", help="group spec, e.g. C12, S5, SD(7,3,2), C3xC4")
    p_analyze.add_argument("--proper", action="store_true",
                           help="report on P*(G) (identity removed), not P(G); the "
                                "pattern scan runs on P*(G) and witnesses are given "
                                "for the chosen graph")
    p_analyze.add_argument("--patterns", default=None,
                           help="comma-separated pattern subset (default: all)")
    p_analyze.add_argument("--export", nargs=2, metavar=("FMT", "PATH"),
                           help="write the selected power graph as dot or json")
    p_analyze.add_argument("--json", action="store_true", dest="as_json")
    p_analyze.add_argument("--allow-large", action="store_true",
                           help=f"raise the order cap to at least {ALLOW_LARGE_CAP}")
    p_analyze.set_defaults(run=_cmd_analyze)

    p_verify = sub.add_parser("verify", help="run verification cases over a corpus")
    p_verify.add_argument("case", help="case id or 'all'")
    p_verify.add_argument("--corpus", default=None, help="corpus file (one spec per line)")
    p_verify.add_argument("--allow-large", action="store_true",
                          help=f"raise the order cap to at least {ALLOW_LARGE_CAP}")
    p_verify.add_argument("--json", action="store_true", dest="as_json")
    p_verify.set_defaults(run=_cmd_verify)

    p_corpus = sub.add_parser("corpus", help="corpus utilities")
    p_corpus.add_argument("action", choices=["list"])
    p_corpus.set_defaults(run=_cmd_corpus)

    p_numbers = sub.add_parser("numbers", help="number-theoretic side conditions")
    p_numbers.add_argument("family", choices=["psl2", "sz"])
    p_numbers.add_argument("q", type=int)
    p_numbers.set_defaults(run=_cmd_numbers)

    return parser


def _cmd_analyze(args) -> int:
    patterns = None
    if args.patterns is not None:
        patterns = [p.strip() for p in args.patterns.split(",") if p.strip()]
    report = analyze_group(args.spec, proper=args.proper, patterns=patterns, cap=args.cap)
    if args.export:
        fmt, path = args.export
        text = export_graph(report.graph, fmt)  # an unknown format raises here
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    doc = report.to_dict()
    if args.as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"group {doc['group']}  order {doc['order']}  "
          f"factorization {doc['factorization']}")
    flags = doc["flags"]
    print("flags: " + "  ".join(f"{n}={v}" for n, v in flags.items() if isinstance(v, bool)))
    print(f"exponent {flags['exponent']}  order profile {flags['order_profile']}")
    pg = doc["prime_graph"]
    print(f"prime graph: primes {pg['primes']} edges {pg['edges']} "
          f"null={pg['null']}")
    graph_name = "P*(G)" if doc["proper"] else "P(G)"
    print(f"pattern scan on {graph_name}:")
    for name, witness in doc["patterns"].items():
        if witness is None:
            print(f"  {name}: free")
        else:
            print(f"  {name}: found  {witness}")
    print(f"cograph={doc['cograph']}  chordal={doc['chordal']}  chain={doc['chain']}")
    return 0


def _cmd_verify(args) -> int:
    corpus = load_corpus(args.corpus) if args.corpus else default_corpus()
    harness = Harness(corpus, cap=args.cap)
    reports = harness.run_all() if args.case == "all" else [harness.run_case(args.case)]
    if args.as_json:
        docs = [r.to_dict() for r in reports]
        print(json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
    else:
        for report in reports:
            tag = f" [{report.note}]" if report.note else ""
            print(f"{report.theorem}: {len(report.entries)} entries, "
                  f"{report.mismatches} mismatches, {report.ms} ms{tag}")
            for e in report.entries:
                side = "-" if e.graph_side is None else str(e.graph_side).lower()
                mark = "ok" if e.agree else "MISMATCH"
                line = (f"  {e.group}: graph={side} rhs={str(e.rhs).lower()} {mark}")
                if e.witness:
                    line += f"  witness {list(e.witness)}"
                print(line)
    total = sum(r.mismatches for r in reports)
    return 0 if total == 0 else 1


def _cmd_corpus(args) -> int:
    print("\n".join(DEFAULT_CORPUS_SPECS))  # "list", the only action
    return 0


def _cmd_numbers(args) -> int:
    side_numbers = psl2_side_numbers if args.family == "psl2" else sz_side_numbers
    sides = side_numbers(args.q)
    admissible = [is_admissible_cyclic_order(n) for n in sides]
    parts = ", ".join(f"{n} ({'admissible' if ok else 'not admissible'})"
                      for n, ok in zip(sides, admissible))
    print(f"{args.family} q={args.q}: side numbers {parts}; predicate "
          f"{str(all(admissible)).lower()}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.cap = max(ALLOW_LARGE_CAP, resolve_cap()) if args.allow_large else None
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
