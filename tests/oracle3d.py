"""An independent decomposability oracle for lattice diagrams in 3-D.

It uses none of the package's LP, facet search or type-space code.  The
facets of a cone come from the generator-subset search of
``test_face_oracles``; vertices and compact edges are read off them as
least faces.

Translated to least 0 on every axis, a summand K1 of G = conv(V) + R^n_+
has one vertex u_i in [0, v_i] per vertex v_i of G, the K1 part of v_i,
and along a compact edge u_j - u_i is a multiple t (v_j - v_i) with
0 <= t <= 1.  The search runs vertex by vertex along the compact edges
over the lattice points u_i of those boxes, which the edge condition
prunes, and tries each K1 = conv(u) + R^n_+ it reaches.  Its partner is
K2 = G ⊖ K1, the intersection of the translates G - k over the points k of
K1: on each facet a.x >= b of G, a.x >= b - min_k a.k.  K1 + K2 always
lies in G, and it is G when every vertex v of G lies in k + K2 for some
k, which is checked.  A pair decomposes G modulo homothety when neither
side is a homothet c G + x, c > 0 and x >= 0; by cancellation K2 is one
exactly when K1 = c G - x with 0 <= c < 1 and x >= 0.

So a pair it returns is a decomposition by direct check, and when it
returns None no lattice summand with vertices in [0, v] decomposes G.
"""

import itertools
import math
from fractions import Fraction

from test_face_oracles import homogenized, subset_cone_facets


def faces(points, n):
    """Vertices (lex order), facets (a, b) for a.x >= b, a >= 0 ints, and
    compact edges (i, j), i < j, of conv(points) + R^n_+."""
    pts = sorted({tuple(p) for p in points})
    found = subset_cone_facets(homogenized(pts, n))
    tights = [frozenset(t) for _, t in found]

    def least(members):
        holding = [t for t in tights if members <= t]
        return frozenset.intersection(*holding) if holding else None

    index = [n + i for i in range(len(pts)) if least(frozenset([n + i])) == {n + i}]
    vertices = [pts[i - n] for i in index]
    facets = []
    for normal, _ in found:
        if any(normal[:n]):
            scale = math.lcm(*(Fraction(c).denominator for c in normal))
            ints = [int(c * scale) for c in normal]
            facets.append((ints[:n], -ints[n]))
    edges = [
        (i, j)
        for (i, gi), (j, gj) in itertools.combinations(enumerate(index), 2)
        if least(frozenset([gi, gj])) == {gi, gj}
    ]
    return vertices, facets, edges


def _scales_along(d, diff):
    """t with diff = t d and 0 <= t <= 1, or None."""
    k = next(k for k, c in enumerate(d) if c)
    t = Fraction(diff[k], d[k])
    if 0 <= t <= 1 and all(x == t * c for x, c in zip(diff, d)):
        return t
    return None


def _sums_to(points, vertices, facets):
    """Whether K1 = conv(points) + R^n_+ and G ⊖ K1 sum to G."""
    h = [min(sum(a * c for a, c in zip(normal, p)) for p in points) for normal, _ in facets]
    return all(
        any(
            all(
                sum(a * (vc - pc) for a, vc, pc in zip(normal, v, p)) >= b - hk
                for (normal, b), hk in zip(facets, h)
            )
            for p in points
        )
        for v in vertices
    )


def _fails_homothety(w, vertices):
    """Whether K1 (vertices w, lex order) or its partner is a homothet of G."""
    if len(w) == 1:  # c = 0: only the point 0 leaves the homothet G - 0
        return not any(w[0])
    if len(w) != len(vertices):
        return False
    k = next(k for k in range(len(w[0])) if vertices[1][k] != vertices[0][k])
    c = Fraction(w[1][k] - w[0][k], vertices[1][k] - vertices[0][k])
    if c <= 0:
        return False
    x = [a - c * b for a, b in zip(w[0], vertices[0])]
    if any(list(p) != [c * b + xk for b, xk in zip(q, x)] for p, q in zip(w, vertices)):
        return False
    return all(xk >= 0 for xk in x) or (c < 1 and all(xk <= 0 for xk in x))


def lattice_summand(points, n):
    """The vertices of a lattice K1 that decomposes G modulo homothety with
    G ⊖ K1, or None when no K1 with vertices u_i in [0, v_i] does."""
    vertices, facets, edges = faces(points, n)
    m = len(vertices)
    near = [[] for _ in range(m)]
    for i, j in edges:
        near[i].append(j)
        near[j].append(i)
    start = min(range(m), key=lambda i: math.prod(c + 1 for c in vertices[i]))
    order, parent = [start], {start: None}
    for i in order:
        for j in near[i]:
            if j not in parent:
                parent[j] = i
                order.append(j)
    assert len(order) == m, "compact graph not connected"
    seen = {}

    def tried(us):
        """Whether the K1 of a full assignment decomposes G."""
        low = [min(u[k] for u in us) for k in range(n)]
        key = frozenset(tuple(c - lk for c, lk in zip(u, low)) for u in us)
        if key not in seen:
            own = faces(key, n)[0] if _sums_to(key, vertices, facets) else None
            seen[key] = own
        own = seen[key]
        if own is None:
            return None
        w = [tuple(c + lk for c, lk in zip(p, low)) for p in own]
        return None if _fails_homothety(w, vertices) else w

    def extend(us):
        if len(us) == m:
            return tried([us[order.index(i)] for i in range(m)])
        j = order[len(us)]
        i = parent[j]
        d = [b - a for a, b in zip(vertices[i], vertices[j])]
        g = math.gcd(*d)
        ui = us[order.index(i)]
        for step in range(g + 1):
            u = tuple(a + step * c // g for a, c in zip(ui, d))
            if any(c < 0 or c > vc for c, vc in zip(u, vertices[j])):
                continue
            placed = {order[k]: us[k] for k in range(len(us))}
            if all(
                _scales_along(
                    [b - a for a, b in zip(vertices[l], vertices[j])],
                    [b - a for a, b in zip(placed[l], u)],
                )
                is not None
                for l in near[j]
                if l in placed
            ):
                found = extend(us + [u])
                if found is not None:
                    return found
        return None

    for u0 in itertools.product(*(range(c + 1) for c in vertices[start])):
        found = extend([u0])
        if found is not None:
            return found
    return None
