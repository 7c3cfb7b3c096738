"""Seeded request corpus for the pshdiag benchmark.

Every input is built by construction, never drawn as a random lattice
cloud: 2-D chains come from sorted primitive edge directions, 3-D diagrams
are Minkowski sums of simplices, segments and points, and polynomial
inputs put monomials on known vertices plus dominated points above them.
Random clouds were rejected because most of them collapse to fast-path
verdicts that cost a few milliseconds and exercise nothing.

Each workload is a list of request classes.  A class has a fixed pool of
variants, built from ``POOL_SEED`` so that the stored golden results cover
every request any run can send, and each variant comes in two images: as
built and with its coordinates reversed.  A round holds a fixed number of
requests from each class.  The run seed picks one image of each variant,
deals the variants into rounds and orders each round.  The class counts
place the latency p50 and p90 inside one class each rather than on the
gap between two, which keeps the percentiles steady from seed to seed.

Run ``python3 bench/corpus.py --workload decide --seed 3`` to print the
digest of one seed's corpus.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

POOL_SEED = 1111_2229
GOLDEN = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("hull", "decide", "session")

Request = tuple[str, dict]  # (command, payload), exactly as a user sends it

# primitive lattice directions (a, b); a chain edge runs along (-a, b)
PRIM = sorted(
    ((a, b) for a in range(1, 8) for b in range(1, 8) if math.gcd(a, b) == 1),
    key=lambda e: Fraction(e[1], e[0]),
)
RATIONAL_SCALES = (Fraction(3, 2), Fraction(2, 3), Fraction(5, 4), Fraction(4, 5), Fraction(7, 5))


def _q(x) -> str:
    return str(Fraction(x))


def _diagram(points, dim: int) -> dict:
    return {"dim": dim, "generators": [[_q(c) for c in p] for p in points]}


def _scale_for(rnd: random.Random, index: int) -> Fraction:
    """Even variants are lattice diagrams, odd ones are scaled by a rational."""
    return Fraction(1) if index % 2 == 0 else rnd.choice(RATIONAL_SCALES)


def _scaled(points, c: Fraction):
    return [tuple(Fraction(x) * c for x in p) for p in points]


def chain2d(rnd: random.Random, vertices: int, longest: int = 1):
    """Vertices of a convex 2-D chain from the x-axis to the y-axis.

    Distinct primitive directions sorted by slope make every chain point a
    vertex; an edge may be a multiple (up to ``longest``) of its direction.
    """
    dirs = sorted(rnd.sample(PRIM, vertices - 1), key=lambda e: Fraction(e[1], e[0]))
    dirs = [(a * m, b * m) for (a, b), m in zip(dirs, (rnd.randint(1, longest) for _ in dirs))]
    x, y = sum(a for a, _ in dirs), 0
    pts = [(x, y)]
    for a, b in dirs:
        x, y = x - a, y + b
        pts.append((x, y))
    return pts


def simplex(weights):
    n = len(weights)
    return [tuple(weights[k] if j == k else 0 for j in range(n)) for k in range(n)]


def segment(dim: int, i: int, j: int, a: int, b: int):
    p = [0] * dim
    q = [0] * dim
    p[i] = a
    q[j] = b
    return [tuple(p), tuple(q)]


def msum(*sets):
    out = [tuple(0 for _ in sets[0][0])]
    for s in sets:
        out = [tuple(x + y for x, y in zip(p, q)) for p in out for q in s]
    return out


def dominated(rnd: random.Random, vertices, count: int, spread: int = 3):
    """Lattice points that lie above some vertex, so canonicalize drops them."""
    dim = len(vertices[0])
    out = []
    for _ in range(count):
        v = rnd.choice(vertices)
        step = [rnd.randint(0, spread) for _ in range(dim)]
        step[rnd.randrange(dim)] += 1
        out.append(tuple(c + s for c, s in zip(v, step)))
    return out


def monomial(e) -> str:
    factors = [f"z{i + 1}^{k}" if k > 1 else f"z{i + 1}" for i, k in enumerate(e) if k]
    return "*".join(factors) if factors else "1"


def polysum(rnd: random.Random, exps) -> str:
    terms = []
    for e in exps:
        c = rnd.choice((1, 1, 2, 3, Fraction(1, 2)))
        terms.append(monomial(e) if c == 1 else f"{c}*{monomial(e)}")
    return " + ".join(terms)


def split_polys(rnd: random.Random, exps, parts: int) -> list[str]:
    exps = list(exps)
    rnd.shuffle(exps)
    return [polysum(rnd, exps[i::parts]) for i in range(parts) if exps[i::parts]]


# --- hull: large supports and Newton numbers --------------------------------


COEFFICIENTS = ("", "", "2*", "3*", "1/2*", "2/3*", "5/4*")


def h_binom2(rnd, i) -> Request:
    a, b = rnd.choice(COEFFICIENTS), rnd.choice(COEFFICIENTS)
    return "diagram", {"input": {"dim": 2, "polys": [f"({a}z1 + {b}z2)^{rnd.randint(12, 18)}"]}}


def h_binom2_large(rnd, i) -> Request:
    a, b = rnd.choice(COEFFICIENTS), rnd.choice(COEFFICIENTS)
    return "diagram", {"input": {"dim": 2, "polys": [f"({a}z1 + {b}z2)^{rnd.randint(27, 31)}"]}}


def h_binom3(rnd, i) -> Request:
    linear = " + ".join(f"{rnd.choice(COEFFICIENTS)}z{j}" for j in (1, 2, 3))
    if i % 3 == 2:
        return "diagram", {"input": {"dim": 3, "polys": [f"({linear})^3", "z1^4 + z2^4 + z3^4"]}}
    return "diagram", {"input": {"dim": 3, "polys": [f"({linear})^4"]}}


def h_dominated2d(rnd, i) -> Request:
    verts = chain2d(rnd, rnd.randint(5, 7), longest=2)
    pts = verts + dominated(rnd, verts, rnd.randint(12, 18))
    return "diagram", {"input": {"dim": 2, "polys": split_polys(rnd, set(pts), rnd.randint(1, 3))}}


def h_dominated3d(rnd, i) -> Request:
    w = [rnd.randint(1, 3) for _ in range(3)]
    verts = msum(simplex(w), segment(3, *rnd.sample(range(3), 2), rnd.randint(1, 2), rnd.randint(1, 2)))
    pts = set(verts + dominated(rnd, verts, rnd.randint(4, 8), spread=2))
    return "diagram", {"input": {"dim": 3, "polys": split_polys(rnd, pts, 2)}}


def _nn2d(vertices: int):
    def build(rnd, i) -> Request:
        pts = _scaled(chain2d(rnd, vertices), _scale_for(rnd, i))
        return "newton-number", {"diagram": _diagram(pts, 2)}

    return build


def h_nn3d(rnd, i) -> Request:
    perms = [(1, 2, 3), (3, 1, 2), (2, 3, 1), (1, 1, 2), (2, 1, 1), (1, 2, 1), (1, 3, 2)]
    a, b = rnd.sample(perms, 2)
    pts = _scaled(msum(simplex(a), simplex(b)), _scale_for(rnd, i))
    return "newton-number", {"diagram": _diagram(pts, 3)}


# --- decide: decomposability on small canonical diagrams --------------------


def d_monomial(rnd, i) -> Request:
    dim = rnd.randint(2, 4)
    p = [rnd.randint(0, 3) for _ in range(dim)]
    if i % 3 == 0:  # on one axis: indecomposable
        p = [0] * dim
        p[rnd.randrange(dim)] = rnd.randint(1, 4)
    elif sum(1 for c in p if c) < 2:
        p[0], p[1] = rnd.randint(1, 3), rnd.randint(1, 3)
    return "decompose", {"diagram": _diagram(_scaled([p], _scale_for(rnd, i)), dim)}


def d_simplex(rnd, i) -> Request:
    dim = 2 + i % 3
    w = [rnd.randint(1, 5) for _ in range(dim)]
    return "decompose", {"diagram": _diagram(_scaled(simplex(w), _scale_for(rnd, i // 3)), dim)}


def _chain(vertices: int):
    def build(rnd, i) -> Request:
        pts = chain2d(rnd, vertices)
        if (i // 2) % 4 == 1:  # lifted off the x-axis: a translation candidate exists
            pts = [(x, y + 1) for x, y in pts]
        return "decompose", {"diagram": _diagram(_scaled(pts, _scale_for(rnd, i)), 2)}

    return build


def d_sum3d(rnd, i) -> Request:
    kind = i % 3
    a, b = rnd.randint(1, 2), rnd.randint(1, 2)
    if kind == 0:  # two segments
        s, t = rnd.sample([(0, 1), (1, 2), (0, 2)], 2)
        pts = msum(segment(3, *s, a, b), segment(3, *t, b, a))
    elif kind == 1:  # two segments and a point
        s, t = rnd.sample([(0, 1), (1, 2), (0, 2)], 2)
        e = [0, 0, 0]
        e[rnd.randrange(3)] = 1
        pts = msum(segment(3, *s, a, b), segment(3, *t, 1, 1), [tuple(e)])
    else:  # a unit simplex and a unit segment
        pts = msum(simplex((1, 1, 1)), segment(3, *rnd.sample(range(3), 2), 1, 1))
    return "decompose", {"diagram": _diagram(_scaled(pts, _scale_for(rnd, i // 3)), 3)}


# --- session: one user's batch over one polynomial input --------------------


def session_manifest(rnd, i) -> dict:
    verts = chain2d(rnd, 3)
    extra = dominated(rnd, verts, rnd.randint(2, 4), spread=2)
    polys = split_polys(rnd, set(verts + extra), 2)
    if i % 5 == 0:  # a fifth of the sessions expand a product: the p90 sits among them
        polys[0] = f"({polys[0]}) * (1 + z1 + z2)"
    u = {"dim": 2, "polys": polys}
    g = _diagram(verts, 2)
    s = _diagram(_scaled(simplex((rnd.randint(1, 3), rnd.randint(1, 3))), rnd.choice(RATIONAL_SCALES)), 2)
    c = rnd.choice(RATIONAL_SCALES)
    x = (rnd.randint(0, 2), rnd.randint(0, 2))
    big = _diagram([(c * p + x[0], c * r + x[1]) for p, r in verts], 2)
    lifted = _diagram([(p + 1, r) for p, r in verts], 2)
    reqs = [
        ("substitute", {"input": u, "matrix": [["1", "0"], [str(rnd.randint(-2, 2)), "1"]]}),
        ("diagram", {"input": u}),
        ("classify", {"input": u}),
        # a quarter of the sessions ask for a Newton number that is infinite: exit 3
        ("newton-number", {"diagram": lifted if i % 4 == 1 else g}),
        ("decompose", {"diagram": g}),
        ("lelong", {"input": u, "weight": [str(rnd.randint(1, 3)), str(rnd.randint(1, 3))]}),
        ("indicator", {"diagram": g, "t": [str(-rnd.randint(1, 3)), _q(Fraction(-1, rnd.randint(1, 3)))]}),
        ("sum", {"a": g, "b": s}),
        ("homothetic", {"a": big, "b": g}),
    ]
    if i % 3 == 0:  # a malformed request: exit 2
        reqs.append(("diagram", {"input": {"dim": 2, "polys": ["z1 +* z2"]}}))
    elif i % 3 == 1:
        reqs.append(("substitute", {"input": u, "matrix": [["1", "2"], ["2", "4"]]}))
    return {
        "jobs": 2,
        "requests": [
            {"id": f"s{i:03d}-{k:02d}-{cmd}", "command": cmd, "payload": payload}
            for k, (cmd, payload) in enumerate(reqs)
        ],
    }


def s_session(rnd, i) -> Request:
    return "batch", session_manifest(rnd, i)


# --- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class RequestClass:
    name: str
    per_round: int
    build: Callable[[random.Random, int], Request]


# Counts per round are chosen from measured costs so that the p50 and p90
# of a round's latencies fall inside one class each (see README.md).
CLASSES = {
    "hull": (
        RequestClass("dominated3d", 2, h_dominated3d),
        RequestClass("nn2d-8", 3, _nn2d(8)),
        RequestClass("binom3", 2, h_binom3),
        RequestClass("binom2", 3, h_binom2),
        RequestClass("dominated2d", 4, h_dominated2d),
        RequestClass("nn2d-12", 2, _nn2d(12)),
        RequestClass("nn3d", 2, h_nn3d),
        RequestClass("nn2d-16", 3, _nn2d(16)),
        RequestClass("binom2-large", 4, h_binom2_large),
    ),
    "decide": (
        RequestClass("monomial", 3, d_monomial),
        RequestClass("simplex", 5, d_simplex),
        RequestClass("chain3", 4, _chain(3)),
        RequestClass("chain4", 3, _chain(4)),
        RequestClass("sum3d", 4, d_sum3d),
        RequestClass("chain5", 1, _chain(5)),
    ),
    "session": (RequestClass("session", 8, s_session),),
}

# Rounds in one pass over a class pool: at least as many as one run
# completes, so that no run sends the same input twice.
POOL_ROUNDS = {"hull": 24, "decide": 16, "session": 48}


def _reverse_variables(text: str, dim: int) -> str:
    return re.sub(r"z(\d+)", lambda m: f"z{dim + 1 - int(m.group(1))}", text)


def mirrored(command: str, payload: dict) -> Request:
    """The same request with the order of the coordinates reversed."""
    if command == "batch":
        requests = [{**r, "payload": mirrored(r["command"], r["payload"])[1]} for r in payload["requests"]]
        return command, {**payload, "requests": requests}
    out = {}
    for key, value in payload.items():
        if key in ("diagram", "a", "b"):
            out[key] = {"dim": value["dim"], "generators": [p[::-1] for p in value["generators"]]}
        elif key == "input":
            out[key] = {"dim": value["dim"], "polys": [_reverse_variables(t, value["dim"]) for t in value["polys"]]}
        elif key == "matrix":
            out[key] = [row[::-1] for row in value[::-1]]
        else:  # weight and t vectors
            out[key] = value[::-1]
    return command, out


def request_key(command: str, payload) -> str:
    blob = json.dumps([command, payload], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def pools(workload: str) -> dict[str, list[tuple[Request, Request]]]:
    """Every variant of every class, as (request, mirrored request); seed-free."""
    out = {}
    for cls in CLASSES[workload]:
        rnd = random.Random(f"{POOL_SEED}/{workload}/{cls.name}")
        variants = [cls.build(rnd, i) for i in range(cls.per_round * POOL_ROUNDS[workload])]
        out[cls.name] = [(req, mirrored(*req)) for req in variants]
    return out


def load_golden(workload: str) -> dict:
    """Golden entries by request key: exit code, result, and cost in ms."""
    with open(GOLDEN) as fh:
        return json.load(fh)["workloads"][workload]


def corpus(workload: str, seed: int, golden: dict) -> list[list[Request]]:
    """The seed's rounds, each with ``per_round`` variants of every class.

    The seed picks one image of every variant and shuffles each round.
    Rounds are balanced by cost: a class's chosen variants are sorted by
    the cost recorded with their golden result and cut into strata of one
    variant per round, and the seed deals each stratum across the rounds.
    Every round then costs about the same, so a slow round means a busy
    machine rather than harder inputs.
    """
    rnd = random.Random(f"{seed}/{workload}")
    n_rounds = POOL_ROUNDS[workload]
    rounds: list[list[Request]] = [[] for _ in range(n_rounds)]
    all_variants = pools(workload)
    for cls in CLASSES[workload]:
        chosen = sorted(
            (rnd.choice(images) for images in all_variants[cls.name]),
            key=lambda req: golden[request_key(*req)]["ms"],
        )
        for start in range(0, len(chosen), n_rounds):
            for r, req in zip(rnd.sample(range(n_rounds), n_rounds), chosen[start : start + n_rounds]):
                rounds[r].append(req)
    for batch in rounds:
        rnd.shuffle(batch)
    return rounds


def digest(rounds: list[list[Request]]) -> str:
    h = hashlib.sha256()
    for batch in rounds:
        for command, payload in batch:
            h.update(request_key(command, payload).encode())
        h.update(b"|")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rounds = corpus(args.workload, args.seed, load_golden(args.workload))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "requests": sum(len(b) for b in rounds),
        "digest": digest(rounds),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
