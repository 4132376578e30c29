"""Output check: every report against the reference, every witness replayed.

Two independent checks run on each case or request:

- Its ``to_dict()`` (``ms`` dropped) must hash to the digest recorded in
  ``reference.json`` from the code the benchmark was defined on. Verify
  reports are hashed one entry per (case, group) plus one summary per case,
  so the order in which a seed runs the corpus does not matter.
- Every witness is replayed: its vertices must induce a pattern the case
  accepts (with ``verify_witness``), or an induced cycle for a hole. The
  graph it is replayed on is built afresh from the group's cyclic subgroups,
  without ``build_power_graph``, and only on the witness's own vertices.
"""

from __future__ import annotations

import hashlib
import json
import os

from workloads import HERE, Item

REFERENCE = os.path.join(HERE, "reference.json")

# case -> (graph side is on P*(G), patterns a witness may induce, hole parity).
# A hole parity of None means the case accepts no hole as a witness.
VERIFY_SIDES = {
    "T-CHAIN": (True, ("C3", "C5", "2K2"), None),
    "T-P5-NILP": (False, ("P5",), None),
    "T-P5P5B-NILP": (False, ("P5", "P5bar"), None),
    "T-P5P5B-PRODUCT": (False, ("P5", "P5bar"), None),
    "T-SN": (False, ("P5", "P5bar"), None),
    "T-AN": (False, ("P5", "P5bar"), None),
    "T-PSL2": (False, ("P5", "P5bar"), None),
    "T-SZ": (False, (), None),
    "T-P2P3-NILP": (False, ("P2uP3", "P2uP3bar"), None),
    "T-P2P3-NONNILP": (False, ("P2uP3", "P2uP3bar"), None),
    "T-DIAMOND": (True, ("diamond",), None),
    "T-EVENHOLE-DIAMOND": (True, ("diamond",), "even"),
    "T-DIAMOND-CODIAMOND": (True, ("diamond", "co-diamond"), None),
    "S-COGRAPH-NULLPRIME": (False, ("P4",), None),
    "S-CHORDAL-NILP": (False, (), "any"),
    "S-COGRAPH-NILP": (False, ("P4",), None),
}


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def item_digests(workload: str, item: Item) -> dict[str, str]:
    """Reference key -> digest for one case or request."""
    doc = item.doc
    if "theorem" not in doc:
        return {f"{workload}/{item.key}": digest(doc)}
    entries = doc["entries"]
    summary = {k: v for k, v in doc.items() if k not in ("ms", "entries")}
    summary["groups"] = sorted(e["group"] for e in entries)
    out = {f"{workload}/{doc['theorem']}": digest(summary)}
    for e in entries:
        out[f"{workload}/{doc['theorem']}/{e['group']}"] = digest(e)
    return out


def load_reference() -> dict[str, str]:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class OutputCheck:
    def __init__(self, workload: str, cap: int | None, reference: dict[str, str]):
        self.workload = workload
        self.reference = reference
        self.replay = WitnessReplay(cap)

    def problems(self, item: Item) -> list[str]:
        """Everything wrong with one case or request; empty if it is right."""
        if item.error is not None:
            return [f"{item.key}: {item.error}"]
        out = [f"{key}: output differs from the reference"
               for key, d in item_digests(self.workload, item).items()
               if self.reference.get(key) != d]
        out += self.replay.problems(item)
        return out


class WitnessReplay:
    """Replays witnesses on groups it builds itself; each result is cached."""

    def __init__(self, cap: int | None):
        self.cap = cap
        self._groups: dict[str, tuple[object, dict[str, int]]] = {}
        self._seen: dict[tuple, str | None] = {}

    def problems(self, item: Item) -> list[str]:
        doc = item.doc
        out = []
        if "theorem" in doc:
            proper, patterns, hole = VERIFY_SIDES[doc["theorem"]]
            for e in doc["entries"]:
                if e["witness"] is None:
                    if e["graph_side"] is False:
                        out.append(f"{item.key}/{e['group']}: failing side without a witness")
                    continue
                out.append(self._check(e["group"], proper, tuple(e["witness"]),
                                       patterns, hole))
        else:
            for name, witness in doc["patterns"].items():
                if witness is not None:
                    out.append(self._check(doc["group"], doc["proper"], tuple(witness),
                                           (name,), None))
        return [f"{item.key}: {p}" for p in out if p is not None]

    def _check(self, group_label, proper, witness, patterns, hole) -> str | None:
        key = (group_label, proper, witness, patterns, hole)
        if key not in self._seen:
            self._seen[key] = self._replay(*key)
        return self._seen[key]

    def _replay(self, group_label, proper, witness, patterns, hole) -> str | None:
        from pglab.patterns import verify_witness
        from pglab.power_graph import Graph

        what = f"{group_label} witness {list(witness)}"
        group, index = self._group(group_label)
        if any(label not in index for label in witness):
            return f"{what} names an element the group does not have"
        ids = [index[label] for label in witness]
        powers = [_powers(group, v) for v in ids]
        if proper and any(group.compose(v, v) == v for v in ids):
            return f"{what} uses the identity, which P*(G) does not have"
        adj = [0] * len(ids)
        for a in range(len(ids)):
            for b in range(len(ids)):
                if a != b and (ids[a] in powers[b] or ids[b] in powers[a]):
                    adj[a] |= 1 << b
        graph = Graph(adj, list(witness))
        verts = tuple(range(len(ids)))
        if any(verify_witness(graph, p, verts) for p in patterns):
            return None
        if hole is not None and _is_hole(adj, hole):
            return None
        return f"{what} induces none of {list(patterns)}" + (f" nor a {hole} hole" if hole else "")

    def _group(self, label: str):
        if label not in self._groups:
            from pglab.constructors import build_group
            group = build_group(label, self.cap)
            self._groups[label] = (group, {group.render(i): i for i in range(group.order)})
        return self._groups[label]


def _powers(group, v: int) -> set[int]:
    """The cyclic subgroup generated by v."""
    out = {v}
    x = group.compose(v, v)
    while x != v:
        out.add(x)
        x = group.compose(x, v)
    return out


def _is_hole(adj: list[int], parity: str) -> bool:
    """Whether vertices 0..k-1, in order, form an induced cycle of length k >= 4."""
    k = len(adj)
    if k < 4 or (parity == "even" and k % 2):
        return False
    return all(adj[i] == (1 << (i - 1) % k) | (1 << (i + 1) % k) for i in range(k))
