"""``python -m repro analyze`` — the static kernel-verifier entry point.

Runs the trace linter over the registered kernel variants and the fused
programs compiled from their recordings (and, unless told otherwise, the
mutation corpus that proves the linter still bites) and writes one JSON
report.  The exit code is the CI contract:

* ``0`` — every analyzed shipped kernel is clean *and* every corpus
  mutant triggered its expected diagnostics;
* ``1`` — a shipped kernel has findings, or a mutant slipped through.

Examples::

    python -m repro analyze --all-variants
    python -m repro analyze --variant "SELL using AVX512" --json report.json
    python -m repro analyze --corpus-only
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import run_corpus
from .kernel import analyze_all, summarize


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro analyze",
        description="Static ISA/dataflow/memory/coverage lint over "
                    "recorded kernel traces, plus the mutation corpus.",
    )
    parser.add_argument(
        "--all-variants", action="store_true",
        help="analyze every registered variant over the structure panel "
             "(the default when no --variant is given)",
    )
    parser.add_argument(
        "--variant", action="append", default=[], metavar="NAME",
        help="analyze only this registered variant (repeatable)",
    )
    parser.add_argument(
        "--corpus-only", action="store_true",
        help="run only the mutation corpus, skip the shipped kernels",
    )
    parser.add_argument(
        "--no-corpus", action="store_true",
        help="skip the mutation corpus",
    )
    parser.add_argument(
        "--strict-alignment", action="store_true",
        help="record under the strict alignment policy (Section 3.1)",
    )
    parser.add_argument(
        "--numerical", action="store_true",
        help="add the aggregated rounding-certificate section (tree "
             "depth, rounding counts per variant) to the report; NUM0xx "
             "findings gate the exit code either way",
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="write the JSON report here instead of stdout",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    document: dict = {}
    ok = True

    if not args.corpus_only:
        variants = None
        if args.variant:
            from ..core.dispatch import get_variant

            variants = tuple(get_variant(name) for name in args.variant)
        reports = analyze_all(
            variants=variants, strict_alignment=args.strict_alignment
        )
        document["kernels"] = summarize(reports)
        if document["kernels"]["dirty"]:
            ok = False
            for report in reports:
                for diag in report.diagnostics:
                    print(f"{report.subject}: {diag}", file=sys.stderr)
        if args.numerical:
            certs = [r.certificate for r in reports if r.certificate is not None]
            document["certificates"] = {
                "count": len(certs),
                "certified": sum(c.ok for c in certs),
                "max_depth": max((c.max_depth for c in certs), default=0),
                "max_roundings": max(
                    (c.max_roundings for c in certs), default=0
                ),
                "entries": [c.as_dict() for c in certs],
            }
            if any(not c.ok for c in certs):
                ok = False

    if not args.no_corpus:
        document["corpus"] = run_corpus()
        if not document["corpus"]["ok"]:
            ok = False
            for missed in document["corpus"]["missed"]:
                print(f"corpus mutant not caught: {missed}", file=sys.stderr)

    document["ok"] = ok
    text = json.dumps(document, indent=2)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
        kernels = document.get("kernels", {})
        corpus = document.get("corpus", {})
        print(
            f"analyze: {kernels.get('analyzed', 0)} kernel reports "
            f"({kernels.get('dirty', 0)} dirty), "
            f"{corpus.get('cases', 0)} corpus mutants "
            f"({corpus.get('caught', 0)} caught) -> {args.json}"
        )
    else:
        print(text)
    return 0 if ok else 1
