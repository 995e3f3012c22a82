"""Seeded request generators for the lmre serve benchmark.

Every input the server sees is made here from the workload seed: random
2-/3-deep affine loop nests, plus the examples/loops kernels at seeded
bound scalings.  A workload is a list of request templates (one JSON
object per distinct request, without an id) and a send schedule over
them.  The same seed always yields byte-identical templates and schedule.
"""

import bisect
import json
import math
import os
import random
import re

# Kinds of the cold_mix closed loop and their fixed shares (out of 20).
COLD_KINDS = [
    ("analyze", {}, 4),
    ("optimize", {}, 3),
    ("verify", {}, 3),
    ("mrc", {}, 3),
    ("symbolic", {}, 3),
    ("codegen", {"plan": "auto"}, 2),
    ("lint", {}, 2),
]
COLD_WARMUP = 1000
# Kinds of the warm_hits key set (the seven cold kinds, over every kernel).
WARM_KINDS = [(k, o) for k, o, _ in COLD_KINDS]
# Cheap kinds a churn_open miss computes.
CHURN_KINDS = [("analyze", {}), ("symbolic", {}), ("lint", {})]

CHURN_DISTINCT = 1024   # Zipf-popular keys, 4x the server's 256-entry cache
CHURN_ZIPF_S = 0.9
CHURN_RATE_RPS = 8000   # about half the seed server's closed-loop capacity
# One burst of identical cold requests per CHURN_BURST_EVERY sends; the
# bursts' requests (0.4%) wait for one computation, so they stay under the
# 1% tail that latency_p99_ms measures instead of deciding it.
CHURN_BURST_EVERY = 2000
CHURN_BURST_SIZE = 8

VARS = "ijk"


def template(kind, source, options):
    """One request template: the request line minus its leading id."""
    req = {"schema_version": 2, "kind": kind, "source": source}
    if options:
        req["options"] = options
    return json.dumps(req, sort_keys=True, separators=(",", ":"))


def random_nest(rng, small=False):
    """A random 2- or 3-deep affine nest in the lmre DSL; `small` keeps the
    trip counts to about a quarter.

    References to one array share a linear part and differ in offsets (the
    paper's uniformly generated case; non-uniform references make the
    optimizer's cost heavy-tailed, up to ~1 s a request, and are left out).
    Each array is declared with the extent its subscripts span.
    """
    depth = 2 if small else rng.choice((2, 3))
    if depth == 2:
        extents = [rng.randint(5, 20), rng.randint(5, 20)] if small else \
            [rng.randint(10, 40), rng.randint(10, 40)]
    else:
        extents = [rng.randint(4, 14) for _ in range(3)]
    lows = [rng.choice((0, 1)) for _ in range(depth)]
    names = ["A", "B", "C"][: rng.randint(1, 3)]
    arrays = {}
    for name in names:
        rank = rng.randint(1, min(2, depth))
        rows = []
        for _ in range(rank):
            row = [rng.choice((0, 0, 1, 1, 1, -1, 2)) for _ in range(depth)]
            if not any(row):
                row[rng.randrange(depth)] = 1
            rows.append(row)
        arrays[name] = rows

    spans = {name: [None] * len(rows) for name, rows in arrays.items()}

    def ref(name):
        rows = arrays[name]
        subs = []
        for dim, row in enumerate(rows):
            terms = []
            for c, v in zip(row, VARS):
                if c == 0:
                    continue
                coef = "" if abs(c) == 1 else "%d*" % abs(c)
                terms.append(("-" if c < 0 else "+", coef + v))
            text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
            for sign, t in terms[1:]:
                text += " %s %s" % (sign, t)
            off = rng.randint(-2, 2)
            lo = off + sum(min(c * lows[d], c * (lows[d] + extents[d] - 1))
                           for d, c in enumerate(row))
            hi = off + sum(max(c * lows[d], c * (lows[d] + extents[d] - 1))
                           for d, c in enumerate(row))
            old = spans[name][dim]
            spans[name][dim] = (lo, hi) if old is None else (min(lo, old[0]), max(hi, old[1]))
            if off:
                text += " %s %d" % ("+" if off > 0 else "-", abs(off))
            subs.append("[%s]" % text)
        return name + "".join(subs)

    stmts = []
    for _ in range(rng.randint(1, 2)):
        reads = [ref(rng.choice(names)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.25:
            stmts.append("use %s;" % " + ".join(reads))
        else:
            stmts.append("%s = %s;" % (ref(rng.choice(names)), " + ".join(reads)))
    lines = []
    for name in names:
        if all(spans[name]):
            lines.append("array %s%s;" % (name, "".join(
                "[%d]" % max(hi + 1, hi - lo + 1) for lo, hi in spans[name])))
    for d in range(depth):
        lines.append("%sfor %s = %d to %d" % ("  " * d, VARS[d], lows[d],
                                             lows[d] + extents[d] - 1))
    pad = "  " * depth
    lines.append(pad + "{")
    lines.extend(pad + "  " + s for s in stmts)
    lines.append(pad + "}")
    return "\n".join(lines) + "\n"


_FOR = re.compile(r"^(\s*for\s+\w+\s*=\s*)(-?\d+)(\s+to\s+)(-?\d+)(.*)$")
_ARRAY = re.compile(r"^(\s*array\s+\w+)((\[\d+\])+)(\s*;.*)$")


def scale_kernel(source, factor):
    """The kernel with every loop's trip count and every declared extent
    scaled by `factor` (extents never shrink, so references stay in
    bounds)."""
    out = []
    for line in source.splitlines():
        m = _FOR.match(line)
        if m:
            lo, hi = int(m.group(2)), int(m.group(4))
            trips = max(2, int(round((hi - lo + 1) * factor)))
            line = "%s%d%s%d%s" % (m.group(1), lo, m.group(3), lo + trips - 1,
                                   m.group(5))
        m = _ARRAY.match(line)
        if m:
            grow = max(1.0, factor)
            dims = re.findall(r"\[(\d+)\]", m.group(2))
            line = m.group(1) + "".join(
                "[%d]" % int(math.ceil(int(d) * grow) + 2) for d in dims) + m.group(4)
        out.append(line)
    return "\n".join(out) + "\n"


def load_kernels(root):
    """(file name, source) of every examples/loops kernel, sorted."""
    loops = os.path.join(root, "examples", "loops")
    names = sorted(n for n in os.listdir(loops) if n.endswith(".loop"))
    result = []
    for n in names:
        with open(os.path.join(loops, n)) as f:
            result.append((n, f.read()))
    return result


class Workload:
    """Templates plus a schedule.

    `schedule` lists template indices in send order.  Closed loops take the
    next entry whenever a connection is free, cycling the schedule ("closed")
    or sending each entry at most once ("once", so cold_mix never repeats a
    request); the open loop ("open") sends entry n at `times[n]` seconds
    after the start.
    `warmup` lists templates sent once, untimed, before the window.
    `golden` maps a template index to its examples/loops file name when the
    payload must also equal tests/golden/batch_loops.json.
    """

    def __init__(self, mode="closed"):
        self.mode = mode
        self.templates = []
        self.schedule = []
        self.times = []
        self.warmup = []
        self.golden = {}

    def add(self, kind, source, options):
        self.templates.append((kind, template(kind, source, options)))
        return len(self.templates) - 1

    def write(self, path):
        """Writes the request file the load client reads: one header line
        (mode), then `T kind golden json` lines, then `W idx`, then
        `S idx time` lines."""
        with open(path, "w") as f:
            f.write("mode %s\n" % self.mode)
            for i, (kind, text) in enumerate(self.templates):
                f.write("T\t%s\t%s\t%s\n" % (kind, self.golden.get(i, "-"), text))
            for idx in self.warmup:
                f.write("W\t%d\n" % idx)
            for n, idx in enumerate(self.schedule):
                t = self.times[n] if self.times else 0.0
                f.write("S\t%d\t%.9f\n" % (idx, t))


def cold_mix(seed, count):
    """`count` distinct random-nest requests, kinds in fixed shares; the
    first COLD_WARMUP are the untimed warm-up (process warm-up only: every
    request stays distinct, so none of them ever hits the cache)."""
    rng = random.Random("cold_mix/%d" % seed)
    deck = [k for k, _, share in COLD_KINDS for _ in range(share)]
    options = {k: o for k, o, _ in COLD_KINDS}
    w = Workload("once")
    seen = set()
    while len(w.templates) < count:
        if len(seen) % len(deck) == 0:
            rng.shuffle(deck)
        kind = deck[len(seen) % len(deck)]
        text = random_nest(rng)
        if (kind, text) in seen:
            continue
        seen.add((kind, text))
        w.schedule.append(w.add(kind, text, options[kind]))
    w.warmup, w.schedule = w.schedule[:COLD_WARMUP], w.schedule[COLD_WARMUP:]
    return w


def warm_hits(seed, root, count):
    """The kernels x the seven kinds at one seeded scaling per kernel, plus
    every unscaled kernel's `full` payload (checked against the golden);
    `count` seeded draws over that key set, after a warm-up of each."""
    rng = random.Random("warm_hits/%d" % seed)
    w = Workload()
    heavy = []
    for name, src in load_kernels(root):
        full = w.add("full", src, {})
        w.golden[full] = "examples/loops/" + name
        # full_search costs 40x the others and sets the server's memory
        # high-water mark; it stays at its own size so neither warm-up time
        # nor peak_rss_mb depends on the seed.
        factor = 1.0 if name == "full_search.loop" else rng.choice((0.5, 0.75, 1.0, 1.25))
        scaled = scale_kernel(src, factor)
        ids = {kind: w.add(kind, scaled, opts) for kind, opts in WARM_KINDS}
        if name == "full_search.loop":
            heavy = [full, ids["optimize"], ids["verify"], ids["codegen"]]
    # Warm-up starts with the four costliest requests (full_search's), sent
    # at once over the connections so every server worker computes one:
    # each worker's allocator then holds a like amount of memory, and
    # peak_rss_mb does not depend on which worker happened to get them.
    w.warmup = heavy + [i for i in range(len(w.templates)) if i not in heavy]
    w.schedule = [rng.randrange(len(w.templates)) for _ in range(count)]
    return w


def churn_open(seed, seconds):
    """Open loop at CHURN_RATE_RPS for `seconds`: Zipf-popular keys over
    CHURN_DISTINCT cheap requests on small nests (so one costly miss the
    seed happens to draw does not decide the tail), plus a burst of
    CHURN_BURST_SIZE identical never-seen requests every CHURN_BURST_EVERY
    sends."""
    rng = random.Random("churn_open/%d" % seed)
    w = Workload("open")
    seen = set()
    while len(w.templates) < CHURN_DISTINCT:
        kind, opts = CHURN_KINDS[len(w.templates) % len(CHURN_KINDS)]
        text = random_nest(rng, small=True)
        if text in seen:
            continue
        seen.add(text)
        w.add(kind, text, opts)
    order = list(range(CHURN_DISTINCT))
    rng.shuffle(order)  # popularity rank -> template
    # Untimed warm-up: the cache's worth of most popular keys, most popular
    # sent last, so the window starts in steady state.
    w.warmup = order[:256][::-1]
    cdf, acc = [], 0.0
    for r in range(CHURN_DISTINCT):
        acc += 1.0 / (r + 1) ** CHURN_ZIPF_S
        cdf.append(acc)
    total = int(CHURN_RATE_RPS * seconds)
    gap = 1.0 / CHURN_RATE_RPS
    for n in range(total):
        t = n * gap
        if n % CHURN_BURST_EVERY == CHURN_BURST_EVERY // 2:
            while True:
                text = random_nest(rng, small=True)
                if text not in seen:
                    break
            seen.add(text)
            kind, opts = CHURN_KINDS[rng.randrange(len(CHURN_KINDS))]
            idx = w.add(kind, text, opts)
            for _ in range(CHURN_BURST_SIZE):
                w.schedule.append(idx)
                w.times.append(t)
        rank = bisect.bisect_left(cdf, rng.random() * acc)
        w.schedule.append(order[min(rank, CHURN_DISTINCT - 1)])
        w.times.append(t)
    return w
