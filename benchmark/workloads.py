"""Seeded inputs and output checks for the four benchmark workloads.

Nothing here imports quadclass: inputs are generated and checked with plain
integer arithmetic, and class numbers are checked against a function the
caller passes in, which computes them by a second route.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re

WORKLOADS = ("search-near", "search-deep", "certify", "cli-mixed")
DEFAULT_SEED = 0

# search_successive(N, OFFSETS, ...) is the search every search workload runs.
N = 3
OFFSETS = (0, 1, 4)
# One op is one d; a caller scans the window in consecutive BLOCK-d calls,
# nearest zero first, so each call's latency gives BLOCK per-d samples.
BLOCK = 25
# (window size, window top, seeded downward shift).  In the near window
# about 60% of the fields have |disc| <= 20000 (ANALYTIC_CROSS_CHECK_LIMIT),
# mostly those with d_sf = 1 mod 4, and get the character-sum cross-check;
# the rest have disc = 4 d_sf beyond the limit and skip it.  The cross-checks
# still take about 0.93 of the op time, so the character sum dominates.  The
# deep window sits at |d| ~ 1e6, above the limit, where form counting
# dominates.  The shifts move a window by under 2% of |d|, so every seed
# costs about the same.
SEARCH_WINDOWS = {
    "search-near": (3000, -9001, 200),
    "search-deep": (1500, -1_000_001, 20_000),
}

# certify: CERTS_PER_GROUP certificates before each group, GROUPS groups.
GROUPS = 16
CERTS_PER_GROUP = 4
CERT_DISC_RANGE = (100_000, 100_000_000)  # |disc| of the certificates' fields
# Fundamental D in [-5e6, -1e6] with 480 <= h <= 560 whose group_structure
# made 24500-27500 QuadForm.compose calls when the benchmark was added, so
# that any 16 of them cost about the same and seeds change inputs, not load.
GROUP_POOL = (
    -4873699, -4865908, -4804531, -4689835, -4518267, -4427284, -4307556,
    -4052179, -4026731, -3844312, -3835384, -3628804, -3380136, -3209795,
    -3103491, -2905687, -2885620, -2741352, -2609571, -2485684, -2455864,
    -2137096, -2088411, -2087704, -2077955, -1989316, -1773572, -1713848,
    -1711383, -1684744, -1473240, -1239992,
)

# cli-mixed: 30-bit primes for the ~60-bit semiprimes that send
# `squarefree` into Brent rho.
PRIMES_30BIT = (
    652287527, 657167257, 723420527, 740984509, 776250983, 778568081,
    784478293, 807907343, 811403713, 863021449, 984160249, 995151301,
    999648191, 1035749537, 1037107207, 1041626977,
)
# The warm cache template holds every d in [-TEMPLATE_SPAN, -1].
TEMPLATE_SPAN = 1000

# Second-route class numbers: the character sum for fundamental
# discriminants up to this size, count_reduced against len(enumerate_reduced)
# above it and for non-fundamental ones.
ANALYTIC_CHECK_MAX = 2_500_000


def rng_for(workload: str, seed: int, purpose: str = "inputs") -> random.Random:
    return random.Random(f"{workload}/{seed}/{purpose}")


# -- integer helpers -----------------------------------------------------------


def squarefree_split(n: int) -> tuple[int, int]:
    """(d, t) with n = d t^2 and d square-free, by trial division."""
    d = -1 if n < 0 else 1
    m = abs(n)
    t = 1
    p = 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e % 2:
            d *= p
        t *= p ** (e // 2)
        p += 1 if p == 2 else 2
    return d * m, t


def field_disc(d_sf: int) -> int:
    return d_sf if d_sf % 4 == 1 else 4 * d_sf


def is_fundamental(disc: int) -> bool:
    if disc % 4 == 1:
        return squarefree_split(disc)[1] == 1
    q = disc // 4
    return disc % 4 == 0 and q % 4 in (2, 3) and squarefree_split(q)[1] == 1


def analytic_route(disc: int) -> bool:
    """Whether the second route for h(disc) is the character sum (else the
    form count checked against the enumerated forms)."""
    return -disc <= ANALYTIC_CHECK_MAX and is_fundamental(disc)


_FORM = re.compile(r"^\((-?\d+),(-?\d+),(-?\d+)\)$")


def form_ok(text: str, disc: int) -> bool:
    """A reduced primitive form of discriminant disc, as rendered "(a,b,c)"."""
    m = _FORM.match(text)
    if not m:
        return False
    a, b, c = map(int, m.groups())
    return (
        b * b - 4 * a * c == disc
        and 0 < a <= c
        and abs(b) <= a
        and not (b < 0 and (-b == a or a == c))
        and math.gcd(math.gcd(a, b), c) == 1
    )


# -- inputs --------------------------------------------------------------------


def plan(workload: str, seed: int) -> dict:
    """The seeded inputs of one repetition; every repetition repeats them."""
    rng = rng_for(workload, seed)
    if workload in SEARCH_WINDOWS:
        size, top, shift = SEARCH_WINDOWS[workload]
        hi = top - rng.randrange(shift)
        lo = hi - size + 1
        ops = [
            {"kind": "search", "lo": max(lo, b - BLOCK + 1), "hi": b}
            for b in range(hi, lo - 1, -BLOCK)
        ]
        return {"ops": ops, "about": f"window [{lo}, {hi}] in {len(ops)} calls of {BLOCK} d"}
    if workload == "certify":
        groups = rng.sample(GROUP_POOL, GROUPS)
        strata = GROUPS * CERTS_PER_GROUP
        certs = [_certificate_in(rng, i, strata) for i in range(strata)]
        rng.shuffle(certs)
        ops = []
        for g, disc in enumerate(groups):
            ops.extend(certs[g * CERTS_PER_GROUP : (g + 1) * CERTS_PER_GROUP])
            ops.append({"kind": "group", "disc": disc})
        return {"ops": ops, "about": f"{strata} certificates and {GROUPS} groups"}
    if workload == "cli-mixed":
        return _cli_plan(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _certificate_in(rng: random.Random, i: int, strata: int) -> dict:
    """An instance (x, y, N) whose field's |disc| lies in the i-th of `strata`
    log-spaced slices of CERT_DISC_RANGE, so every seed gets the same spread
    of sizes (the form count, which dominates, grows with |disc|)."""
    d_lo, d_hi = CERT_DISC_RANGE
    lo = d_lo * (d_hi / d_lo) ** (i / strata)
    hi = d_lo * (d_hi / d_lo) ** ((i + 1) / strata)
    while True:
        target = lo * (hi / lo) ** rng.random()
        # |disc| is y^N - x^2 over a square, or 4 times that
        y = round((target / rng.choice((1, 4))) ** (1 / N)) | 1
        x = rng.randrange(1, math.isqrt(y**N) // 2)
        if math.gcd(x, y) == 1 and lo <= -field_disc(-squarefree_split(y**N - x * x)[0]) < hi:
            return {"kind": "certificate", "x": x, "y": y, "n": N}


def _cli_plan(rng: random.Random) -> dict:
    def classnum():
        return ["classnum", "--d", str(-rng.randrange(2, TEMPLATE_SPAN + 1))], {}

    def squarefree():
        p, q = rng.sample(PRIMES_30BIT, 2)
        r = rng.choice((3, 5, 7, 11, 13))
        n = -p * q * r * r
        return ["squarefree", "--n", str(n)], {"d": -p * q, "t": r}

    def witness_cmd():
        y = rng.randrange(47, 152) | 1
        while True:
            x = rng.randrange(1, math.isqrt(y**3) // 2)
            if math.gcd(x, y) == 1:
                break
        return ["witness", "--x", str(x), "--y", str(y), "--n", str(N)], {}

    def group():
        disc = -rng.randrange(3000, 30000)
        while disc % 4 not in (0, 1):
            disc -= 1
        return ["group", "--disc", str(disc)], {}

    def cohn():
        v = rng.randrange(3, 100) | 1
        return ["check", "cohn", "--V", str(v), "--n", str(N)], {"V": v}

    def cor7():
        return ["family", "cor7", "--p", str(rng.choice((5, 7))), "--k", "1", "--t", "1"], {}

    def iizuka():
        return ["family", "iizuka", "--n", str(N), "--m", str(rng.choice((1, 2))), "--l", "1"], {}

    # Each kind runs once with the warm cache and once without; the
    # template pre-warms the cached classnum, squarefree and group commands,
    # so the cached witness, cohn and iizuka commands write new entries.
    layout = [
        (classnum, "warm"), (squarefree, None), (witness_cmd, "write"),
        (group, None), (cohn, "write"), (cor7, None),
        (classnum, None), (squarefree, "warm"), (witness_cmd, None),
        (group, "warm"), (cohn, None), (iizuka, "write"),
    ]
    commands = []
    for make, cache in layout:
        argv, expect = make()
        commands.append({"argv": argv, "cache": cache, "expect": expect})
    return {
        "commands": commands,
        "about": f"{len(commands)} commands, {sum(c['cache'] is not None for c in commands)} with --cache",
    }


def template_commands(cli_plan: dict) -> list[list[str]]:
    """CLI argv lists that build the warm cache template, in order."""
    scan = ["search", "--n", str(N), "--offsets", "0", "--from", str(-TEMPLATE_SPAN),
            "--to", "-1", "--max-hits", str(TEMPLATE_SPAN)]
    return [scan] + [c["argv"] for c in cli_plan["commands"] if c["cache"] == "warm"]


# -- checks --------------------------------------------------------------------
#
# check_outputs looks at one repetition's outputs and returns the indexes of
# the ops it finds wrong.  h(disc) gives a class number by a second route;
# every class number an output claims for a checked op is compared with it.

SPOT_SAMPLE = {"search-near": 8, "search-deep": 2, "certify": 8}


def check_outputs(workload: str, the_plan: dict, outputs: list, rng: random.Random, h) -> set[int]:
    h = functools.cache(h)
    if workload in SEARCH_WINDOWS:
        return _check_search(the_plan["ops"], outputs, rng, SPOT_SAMPLE[workload], h)
    if workload == "certify":
        failed, claims = _check_certify(the_plan["ops"], outputs, rng, SPOT_SAMPLE[workload])
    else:
        failed, claims = _check_cli(the_plan["commands"], outputs)
    return failed | {i for i, disc, claimed in claims if h(disc) != claimed}


def _check_search(ops: list[dict], outputs: list, rng: random.Random, sample: int, h) -> set[int]:
    hits = {}
    for i, out in enumerate(outputs):
        for base_d, members in out:
            hits[base_d] = (i, members)
    op_of = {d: i for i, op in enumerate(ops) for d in range(op["lo"], op["hi"] + 1)}
    # half the sample from the hits, the rest from every d of the window
    picks = rng.sample(sorted(hits), min(len(hits), sample // 2))
    picks += rng.sample(sorted(op_of), sample - len(picks))
    failed = set()
    for d in picks:
        members = []
        for o in OFFSETS:
            d_sf = squarefree_split(d + o)[0]
            disc = field_disc(d_sf)
            members.append([o, d_sf, disc, h(disc)])
        verdict = all(m[3] % N == 0 for m in members)
        if verdict != (d in hits) or (d in hits and hits[d][1] != members):
            failed.add(op_of[d])
    return failed
def _check_certify(ops: list[dict], outputs: list, rng: random.Random, sample: int):
    failed: set[int] = set()
    claims = []
    certs = [i for i, op in enumerate(ops) if op["kind"] == "certificate"]
    groups = [i for i, op in enumerate(ops) if op["kind"] == "group"]
    for i in rng.sample(certs, min(sample, len(certs))):
        op = ops[i]
        d, t, disc, h, alpha, order, divides = outputs[i]
        if not _certificate_ok(op["x"], op["y"], op["n"], d, t, disc, h, alpha, order, divides):
            failed.add(i)
        claims.append((i, disc, h))
    for i in rng.sample(groups, 1):
        h, divisors, gens = outputs[i]
        if not _group_ok(ops[i]["disc"], h, divisors, gens):
            failed.add(i)
        claims.append((i, ops[i]["disc"], h))
    return failed, claims


def _certificate_ok(x, y, n, d, t, disc, h, alpha, order, divides) -> bool:
    return (
        d * t * t == y**n - x * x
        and squarefree_split(d) == (d, 1)
        and disc == field_disc(-d)
        and form_ok(alpha, disc)
        and n % order == 0
        and divides == (h % n == 0)
    )


def _group_ok(disc: int, h: int, divisors: list[int], gens: list[str]) -> bool:
    chain_ok = all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
    return (
        math.prod(divisors) == h
        and chain_ok
        and len(gens) == len(divisors)
        and all(form_ok(g, disc) for g in gens)
    )


def _check_cli(commands: list[dict], outputs: list):
    """Every command: exit code, JSON shape and arithmetic; class numbers as queries."""
    failed: set[int] = set()
    claims = []
    for i, (cmd, (code, stdout)) in enumerate(zip(commands, outputs)):
        try:
            doc = json.loads(stdout)
            ok, qs = _cli_doc_ok(cmd, doc, code)
        except (ValueError, KeyError, TypeError):
            ok, qs = False, []
        if not ok:
            failed.add(i)
        claims.extend((i, disc, h) for disc, h in qs)
    return failed, claims


def _cli_doc_ok(cmd: dict, doc: dict, code: int):
    argv, expect = cmd["argv"], cmd["expect"]
    kind = argv[0]
    if kind == "classnum":
        d = int(argv[2])
        d_sf, h, disc = int(doc["d_sf"]), int(doc["h"]), int(doc["delta"])
        ok = code == 0 and squarefree_split(d)[0] == d_sf and disc == field_disc(d_sf)
        return ok, [(disc, h)]
    if kind == "squarefree":
        return code == 0 and int(doc["d"]) == expect["d"] and int(doc["t"]) == expect["t"], []
    if kind == "witness":
        x, y, n = int(argv[2]), int(argv[4]), int(argv[6])
        d, t, disc, h = (int(doc[k]) for k in ("d", "t", "delta", "h"))
        divides = doc["n_divides_h"]
        ok = _certificate_ok(
            x, y, n, d, t, disc, h, doc["alpha_form"], int(doc["alpha_order"]), divides
        )
        return ok and code == (0 if divides else 1), [(disc, h)]
    if kind == "group":
        disc, h = int(doc["delta"]), int(doc["h"])
        divisors = [int(v) for v in doc["elementary_divisors"]]
        ok = code == 0 and disc == int(argv[2]) and _group_ok(disc, h, divisors, doc["generators"])
        return ok, [(disc, h)]
    if kind == "check":
        v, n, h = expect["V"], int(argv[5]), int(doc["h"])
        disc = field_disc(squarefree_split(1 - v**n)[0])
        exception = (v, n) == (3, 5)
        ok = (
            code == 0
            and doc["divisible"] == (h % n == 0)
            and doc["is_exception"] == exception
            and (doc["divisible"] or exception)
        )
        return ok, [(disc, h)]
    if kind == "family":
        ok = code == 0 and doc["all_asserted_pass"] is True
        qs = []
        for m in doc["members"]:
            value, d_sf, disc, h = (int(m[k]) for k in ("value", "d_sf", "delta", "h"))
            ok = ok and squarefree_split(value)[0] == d_sf and disc == field_disc(d_sf)
            ok = ok and m["divisible"] == (h % N == 0)
            qs.append((disc, h))
        return ok, qs
    return False, []
