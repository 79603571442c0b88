"""Statistics of the end-to-end benchmark: medians, the tail-percentile
rule, geometric means and span self-times. Pure functions, exercised by
test_stats.py."""

import math
import statistics

#: A tail percentile must leave at least this many samples above it.
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sample (mean of the middle pair if even)."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def tail_percentile(values, min_beyond=TAIL_MIN_BEYOND):
    """The highest whole percentile p (1..99) whose nearest-rank value has
    at least `min_beyond` samples ranked above it.

    Returns (p, value). With too few samples for any percentile, returns
    (100, max) so the caller still reports the worst sample and says so.
    """
    if not values:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    n = len(ordered)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)  # 1-based nearest rank
        if n - rank >= min_beyond:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def geomean(values):
    """Geometric mean of positive values."""
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(spans):
    """Self time of every span: its duration minus its children's.

    `spans` are dicts with id, parent, start and end (ms). Returns a dict
    id -> self time in ms.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def span_sum_errors(spans, round_ms, tol_ms=0.5, tol_frac=0.01):
    """Check that the spans of one round account for that round.

    The round span must match the independently timed round length, every
    child must lie inside its parent, siblings must not overlap, and no
    self time may be negative; then the self times sum to the round
    exactly. Returns a list of problems (empty when consistent).
    """
    errors = []
    roots = [s for s in spans if s["parent"] < 0]
    if len(roots) != 1:
        return ["expected one root span, got %d" % len(roots)]
    root = roots[0]
    root_ms = root["end"] - root["start"]
    if abs(root_ms - round_ms) > max(tol_ms, tol_frac * round_ms):
        errors.append("round span %.3f ms vs timed round %.3f ms"
                      % (root_ms, round_ms))
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] < 0:
            continue
        parent = by_id.get(s["parent"])
        if parent is None:
            errors.append("span %d has no parent %d" % (s["id"], s["parent"]))
            continue
        if s["start"] < parent["start"] or s["end"] > parent["end"]:
            errors.append("span %s lies outside its parent" % s["name"])
        children.setdefault(s["parent"], []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s["start"])
        for a, b in zip(kids, kids[1:]):
            if b["start"] < a["end"]:
                errors.append("spans %s and %s overlap" % (a["name"], b["name"]))
    own = self_times(spans)
    errors.extend("span %s has negative self time" % by_id[i]["name"]
                  for i, t in own.items() if t < -1e-9)
    total = sum(own.values())
    if abs(total - root_ms) > 1e-6 * max(1.0, root_ms):
        errors.append("self times sum to %.6f ms, round is %.6f ms"
                      % (total, root_ms))
    return errors


def layer_times(spans):
    """Self time per span name for one round, plus the round's own self
    time under the key None (the unattributed remainder)."""
    own = self_times(spans)
    layers = {}
    for s in spans:
        key = None if s["parent"] < 0 else s["name"]
        layers[key] = layers.get(key, 0.0) + own[s["id"]]
    return layers

