"""The benchmark's workloads: what one pass runs, and what its set-up is.

One client in one process drives pglab in a closed loop: each case or
request starts when the previous one has finished. The seed only permutes
the order of work inside a pass; every seed runs the same set of work.

Workloads left out, because each takes minutes per pass with the code this
benchmark was defined on (a change that makes one fast may add it as a
benchmark change of its own):

- ``analyze PSL(2,27)`` on P(G): the P4 search alone takes over 120 s.
- A7 on P(G): the P5bar search takes about 52 s.
- C10080: structure flags take about 16 s and the power graph about 80 s.

Calls go through the module that a user's caller looks the name up in
(``pglab.cli.main``, ``pglab.harness.analyze_group``), resolved at call time,
so that the tracer's run-time patches see them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

# The order cap that `pg ... --allow-large` uses.
LARGE_CAP = 25200

LARGE_CORPUS = os.path.join(HERE, "large.corpus")
LARGE_CASES = ("T-CHAIN", "T-DIAMOND", "T-DIAMOND-CODIAMOND")

# (spec, on P*(G)) for each `pg analyze SPEC --allow-large [--proper]` request.
ANALYZE_REQUESTS = (
    ("A7", True),
    ("PSL(2,11)", False),
    ("PSL(2,13)", True),
    ("S6", True),
    ("S5", False),
    ("C4xC9xC2", False),
    ("C4xC9xC2", True),
)


@dataclass
class Item:
    """The outcome of one case or request."""

    key: str                 # case id, or the request's spec with '*' for P*(G)
    seconds: float
    doc: dict | None = None  # the report's to_dict(); None if the call raised
    error: str | None = None


@dataclass
class Pass:
    wall: float
    items: list[Item]


class VerifyDefault:
    """`pg verify all --json` on the default corpus, run in-process."""

    name = "verify-default"
    cap = None

    def setup(self) -> None:
        from pglab import harness
        harness.Harness(harness.default_corpus())

    def run_pass(self, rng: random.Random) -> Pass:
        # One request per pass, so the seed has no order to permute here.
        from pglab import cli
        out = io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(["verify", "all", "--json"])
            wall = perf_counter() - start
            docs = json.loads(out.getvalue())
        except Exception as exc:  # a crash or unreadable output fails the request
            wall = perf_counter() - start
            return Pass(wall, [Item("verify all", wall, error=repr(exc))])
        items = [Item(doc["theorem"], doc["ms"] / 1000, doc) for doc in docs]
        if code != 0:
            for item in items:
                item.error = f"pg verify all exited with {code}"
        return Pass(wall, items)


class VerifyLarge:
    """Three cases over large groups with one shared `Harness`."""

    name = "verify-large"
    cap = LARGE_CAP

    def setup(self) -> None:
        from pglab import harness
        self.corpus = harness.load_corpus(LARGE_CORPUS)
        harness.Harness(self.corpus, cap=self.cap)

    def run_pass(self, rng: random.Random) -> Pass:
        # The seed permutes the corpus. The case order stays fixed because
        # the first case pays for building every group and graph.
        from pglab import harness
        entries = list(self.corpus.entries)
        rng.shuffle(entries)
        corpus = dataclasses.replace(self.corpus, entries=tuple(entries))
        items = []
        start = perf_counter()
        runner = harness.Harness(corpus, cap=self.cap)
        for case in LARGE_CASES:
            items.append(_timed(case, lambda: runner.run_case(case)))
        return Pass(perf_counter() - start, items)


class AnalyzeMix:
    """`analyze_group` requests, each building its own group and graphs."""

    name = "analyze-mix"
    cap = LARGE_CAP

    def setup(self) -> None:
        from pglab import constructors
        for spec, _proper in ANALYZE_REQUESTS:
            constructors.parse_group_spec(spec)

    def run_pass(self, rng: random.Random) -> Pass:
        from pglab import harness
        requests = rng.sample(ANALYZE_REQUESTS, len(ANALYZE_REQUESTS))
        items = []
        start = perf_counter()
        for spec, proper in requests:
            items.append(_timed(
                spec + ("*" if proper else ""),
                lambda: harness.analyze_group(spec, proper=proper, cap=self.cap)))
        return Pass(perf_counter() - start, items)


def _timed(key: str, call) -> Item:
    start = perf_counter()
    try:
        report = call()
    except Exception as exc:  # a crash fails this item only
        return Item(key, perf_counter() - start, error=repr(exc))
    seconds = perf_counter() - start
    return Item(key, seconds, report.to_dict())


WORKLOADS = {w.name: w for w in (VerifyDefault, VerifyLarge, AnalyzeMix)}
