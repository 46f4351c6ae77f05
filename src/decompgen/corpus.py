"""Builders for the bundled algebra corpus.

Group algebras come from explicit multiplication tables (validated as
groups), Brauer and Temperley-Lieb algebras from explicit strand-tracing of
diagrams with loop counting, so the diagram combinatorics is its own oracle:
the eager associativity check at load time would catch any slip in the
composition rule.

Every builder returns a validated FiniteFreeAlgebra.  The registry at the
bottom records expected facts consumed by the verification suite, each
tagged with how it was obtained.
"""

from dataclasses import dataclass, field

from .algebra import FiniteFreeAlgebra
from .errors import NotAGroup, UnsupportedRing
from .rings import parse_ring


# --- group algebras ---------------------------------------------------------------

def validate_group_table(table):
    n = len(table)
    if any(len(row) != n for row in table):
        raise NotAGroup("table is not square")
    if any(not (0 <= x < n) for row in table for x in row):
        raise NotAGroup("table entries out of range")
    ident = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            ident = e
            break
    if ident is None:
        raise NotAGroup("no identity element")
    for row in table:
        if sorted(row) != list(range(n)):
            raise NotAGroup("rows are not permutations")
    for j in range(n):
        if sorted(table[i][j] for i in range(n)) != list(range(n)):
            raise NotAGroup("columns are not permutations")
    for i in range(n):
        if not any(table[i][j] == ident for j in range(n)):
            raise NotAGroup(f"element {i} has no inverse")
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    raise NotAGroup("table is not associative")
    return ident


def group_algebra(table, ring, name, element_names=None):
    """Group algebra with structure constants in {0,1} and the symmetrizing
    trace picking out the identity coefficient."""
    ident = validate_group_table(table)
    n = len(table)
    names = tuple(element_names) if element_names else tuple(f"g{i}" for i in range(n))
    zero, one = ring.zero(), ring.one()
    sc = tuple(
        tuple(tuple(one if table[i][j] == k else zero for k in range(n)) for j in range(n))
        for i in range(n)
    )
    unit = [one if i == ident else zero for i in range(n)]
    trace = [one if i == ident else zero for i in range(n)]
    return FiniteFreeAlgebra(name, ring, names, sc, unit, trace)


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


_S3_PERMS = [
    (0, 1, 2),  # e
    (1, 0, 2),  # transposition (12)
    (2, 1, 0),  # (13)
    (0, 2, 1),  # (23)
    (1, 2, 0),  # 3-cycle (123)
    (2, 0, 1),  # (132)
]


def s3_table():
    def compose(p, q):  # p after q
        return tuple(p[q[i]] for i in range(3))

    idx = {p: i for i, p in enumerate(_S3_PERMS)}
    return [[idx[compose(p, q)] for q in _S3_PERMS] for p in _S3_PERMS]


S3_NAMES = ("e", "s12", "s13", "s23", "r123", "r132")


# --- diagram algebras -------------------------------------------------------------

def _all_matchings(points):
    if not points:
        yield frozenset()
        return
    first = points[0]
    for i in range(1, len(points)):
        pair = frozenset((first, points[i]))
        rest = points[1:i] + points[i + 1:]
        for m in _all_matchings(rest):
            yield m | {pair}


def brauer_diagrams(n):
    points = [("t", i) for i in range(n)] + [("b", i) for i in range(n)]
    key = lambda d: tuple(sorted(tuple(sorted(p)) for p in d))
    return sorted(_all_matchings(points), key=key)


def _circular_position(point, n):
    kind, i = point
    return i if kind == "t" else 2 * n - 1 - i


def is_planar(diagram, n):
    arcs = []
    for pair in diagram:
        a, b = sorted(_circular_position(p, n) for p in pair)
        arcs.append((a, b))
    for a, b in arcs:
        for c, d in arcs:
            if a < c < b < d:
                return False
    return True


def tl_diagrams(n):
    return [d for d in brauer_diagrams(n) if is_planar(d, n)]


def compose_diagrams(d1, d2, n):
    """Stack d1 on top of d2, trace strands, count closed middle loops.

    Returns (loops, resulting diagram on ('t', i) / ('b', i) points).
    """
    adj = {}

    def link(u, v):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for pair in d1:
        u, v = tuple(pair)
        ru = ("T", u[1]) if u[0] == "t" else ("M", u[1])
        rv = ("T", v[1]) if v[0] == "t" else ("M", v[1])
        link(ru, rv)
    for pair in d2:
        u, v = tuple(pair)
        ru = ("M", u[1]) if u[0] == "t" else ("B", u[1])
        rv = ("M", v[1]) if v[0] == "t" else ("B", v[1])
        link(ru, rv)
    ends = [p for p in adj if p[0] in ("T", "B")]
    seen = set()
    pairs = []
    for start in ends:
        if start in seen:
            continue
        seen.add(start)
        prev, cur = start, adj[start][0]
        while cur[0] == "M":
            seen.add(cur)
            nxt = [q for q in adj[cur] if q != prev]
            prev, cur = cur, nxt[0] if nxt else adj[cur][0]
        seen.add(cur)
        pairs.append((start, cur))
    loops = 0
    middles = [p for p in adj if p[0] == "M" and p not in seen]
    remaining = set(middles)
    while remaining:
        loops += 1
        start = next(iter(remaining))
        remaining.discard(start)
        prev, cur = start, adj[start][0]
        while cur != start:
            remaining.discard(cur)
            nxt = [q for q in adj[cur] if q != prev]
            prev, cur = cur, nxt[0] if nxt else adj[cur][0]
    out = frozenset(
        frozenset(((("t", i) if k == "T" else ("b", i)) for k, i in pair))
        for pair in pairs
    )
    return loops, out


def _diagram_name(d, n):
    parts = []
    for pair in sorted(tuple(sorted(p)) for p in d):
        parts.append("".join(f"{k}{i}" for k, i in pair))
    return "_".join(parts)


def diagram_algebra(diagrams, n, ring, name, delta=None):
    delta = delta if delta is not None else ring.var(ring.varnames[0])
    index = {d: i for i, d in enumerate(diagrams)}
    m = len(diagrams)
    zero = ring.zero()
    sc = [[[zero] * m for _ in range(m)] for _ in range(m)]
    for i, d1 in enumerate(diagrams):
        for j, d2 in enumerate(diagrams):
            loops, res = compose_diagrams(d1, d2, n)
            k = index[res]
            sc[i][j][k] = delta**loops
    identity = frozenset(frozenset((("t", i), ("b", i))) for i in range(n))
    unit = [ring.one() if d == identity else zero for d in diagrams]
    names = tuple(_diagram_name(d, n) for d in diagrams)
    sc = tuple(tuple(tuple(r) for r in plane) for plane in sc)
    return FiniteFreeAlgebra(name, ring, names, sc, unit, None)


def brauer_algebra(n, ring, name=None, delta=None):
    if n not in (2, 3):
        raise UnsupportedRing("Brauer algebras are built for n in {2, 3}")
    return diagram_algebra(brauer_diagrams(n), n, ring,
                           name or f"B{n}_{ring!r}", delta)


def temperley_lieb(n, ring, name=None, delta=None):
    if n > 4:
        raise UnsupportedRing("Temperley-Lieb algebras are built for n <= 4")
    return diagram_algebra(tl_diagrams(n), n, ring,
                           name or f"TL{n}_{ring!r}", delta)


# --- synthetic families -----------------------------------------------------------

def matrix_algebra(k, ring, name=None):
    n = k * k
    names = tuple(f"e{i}{j}" for i in range(k) for j in range(k))
    zero, one = ring.zero(), ring.one()
    idx = lambda i, j: i * k + j
    sc = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(k):
        for j in range(k):
            for a in range(k):
                for b in range(k):
                    if j == a:
                        sc[idx(i, j)][idx(a, b)][idx(i, b)] = one
    unit = [one if i == j else zero for i in range(k) for j in range(k)]
    trace = [one if i == j else zero for i in range(k) for j in range(k)]
    sc = tuple(tuple(tuple(r) for r in plane) for plane in sc)
    return FiniteFreeAlgebra(name or f"Mat{k}_{ring!r}", ring, names, sc, unit, trace)


def upper_triangular(k, ring, name=None):
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    names = tuple(f"e{i}{j}" for i, j in pairs)
    idx = {p: a for a, p in enumerate(pairs)}
    n = len(pairs)
    zero, one = ring.zero(), ring.one()
    sc = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for a, (i, j) in enumerate(pairs):
        for b, (p, q) in enumerate(pairs):
            if j == p:
                sc[a][b][idx[(i, q)]] = one
    unit = [one if i == j else zero for i, j in pairs]
    sc = tuple(tuple(tuple(r) for r in plane) for plane in sc)
    return FiniteFreeAlgebra(name or f"UT{k}_{ring!r}", ring, names, sc, unit, None)


def dual_numbers(ring, name=None):
    zero, one = ring.zero(), ring.one()
    sc = (((one, zero), (zero, one)), ((zero, one), (zero, zero)))
    return FiniteFreeAlgebra(name or f"Dual_{ring!r}", ring, ("one", "eps"),
                             sc, [one, zero], None)


# --- registry ----------------------------------------------------------------------

@dataclass
class CorpusEntry:
    key: str
    build: object
    facts: dict = field(default_factory=dict)

    def algebra(self):
        return self.build()


def _entries():
    Z = parse_ring("Z")
    Zd = parse_ring("Z[d]")
    Qd = parse_ring("Q[d]")
    out = [
        CorpusEntry(
            "ZC2",
            lambda: group_algebra(cyclic_table(2), Z, "ZC2", ("e", "s")),
            {
                "dim": 2,
                "generic_split": True,
                "generic_radical_dim": 0,
                "excluded": ["2"],
                "schur": ["2", "2"],
                "decmat": {"p=2": [[1], [1]]},
                "trivial": {"p=2": False, "p=5": True},
                "notes": {
                    "excluded": "derived: radical dimension 0 vs 1, checked by exhaustive nilpotent-ideal search on the dim-2 fiber",
                    "schur": "derived: orthogonality oracle, c_i = |G| / dim S_i",
                    "decmat": "derived: fingerprint multiplicity system, brute-forced in tests",
                    "trivial": "derived: radical dimensions at both primes",
                },
            },
        ),
        CorpusEntry(
            "ZC3",
            lambda: group_algebra(cyclic_table(3), Z, "ZC3"),
            {
                "dim": 3,
                "generic_split": False,
                "notes": {"generic_split":
                          "derived: x^2+x+1 is irreducible over Q, the 2-dim simple has End of dim 2"},
            },
        ),
        CorpusEntry(
            "ZS3",
            lambda: group_algebra(s3_table(), Z, "ZS3", S3_NAMES),
            {
                "dim": 6,
                "generic_split": True,
                "generic_radical_dim": 0,
                "excluded": ["2", "3"],
                "schur": ["6", "6", "3"],
                "decmat": {"p=3": [[0, 1], [1, 0], [1, 1]],
                           "p=2": [[1, 0], [1, 0], [0, 1]]},
                "trivial": {"p=5": True, "p=7": True, "p=2": False, "p=3": False},
                "notes": {
                    "excluded": "classical: exactly the primes dividing the group order",
                    "schur": "derived: orthogonality oracle, 6/1, 6/1, 6/2",
                    "decmat": "derived: fingerprint system; rows in canonical (trivial, sign, standard) order, columns canonical per fiber",
                    "trivial": "derived: radical dimensions",
                },
            },
        ),
        CorpusEntry(
            "B2_Q",
            lambda: brauer_algebra(2, Qd, "B2_Q"),
            {
                "dim": 3,
                "generic_split": True,
                "generic_radical_dim": 0,
                "excluded": ["d"],
                "decmat": {"gen=[d]": [[1, 0], [0, 1], [1, 0]]},
                "trivial": {"gen=[d]": False, "gen=[d - 1]": True},
                "notes": {
                    "excluded": "derived: character enumeration (s,u) -> (1,d), (1,0), (-1,0); only d = 0 collides",
                    "decmat": "derived: canonical row order puts (1,0), (-1,0) before (1,d)",
                    "trivial": "derived: characters collide exactly at d = 0",
                },
            },
        ),
        CorpusEntry(
            "B2_Z",
            lambda: brauer_algebra(2, Zd, "B2_Z"),
            {
                "dim": 3,
                "generic_split": True,
                "generic_radical_dim": 0,
                "excluded": ["2", "d"],
                "notes": {"excluded":
                          "derived: trace Gram determinant 4*d^2, both components verified pointwise"},
            },
        ),
        CorpusEntry(
            "TL2_Z",
            lambda: temperley_lieb(2, Zd, "TL2_Z"),
            {
                "dim": 2,
                "generic_split": True,
                "generic_radical_dim": 0,
                "excluded": ["d"],
                "notes": {"excluded":
                          "derived: Gram det d^2; at (2) the two characters 0 and d stay distinct"},
            },
        ),
        CorpusEntry(
            "TL3_Q",
            lambda: temperley_lieb(3, Qd, "TL3_Q"),
            {
                "dim": 5,
                "generic_split": True,
                "generic_radical_dim": 0,
            },
        ),
        CorpusEntry(
            "TL4_Q",
            lambda: temperley_lieb(4, Qd, "TL4_Q"),
            {
                "dim": 14,
                "generic_split": True,
                "generic_radical_dim": 0,
            },
        ),
        CorpusEntry(
            "Mat2_Z",
            lambda: matrix_algebra(2, Z, "Mat2_Z"),
            {
                "dim": 4,
                "generic_split": True,
                "generic_radical_dim": 0,
                "excluded": [],
                "schur": ["1"],
                "notes": {
                    "excluded": "derived: Mat_2(GF(2)) is semisimple, the candidate (2) is recovered",
                    "schur": "derived: the dual basis of e_ij under the trace form is e_ji",
                },
            },
        ),
        CorpusEntry(
            "UT2_Z",
            lambda: upper_triangular(2, Z, "UT2_Z"),
            {
                "dim": 3,
                "generic_split": True,
                "generic_radical_dim": 1,
                "excluded": [],
                "notes": {"excluded":
                          "derived: the strict upper ideal survives in every characteristic"},
            },
        ),
        CorpusEntry(
            "Dual_Z",
            lambda: dual_numbers(Z, "Dual_Z"),
            {
                "dim": 2,
                "generic_split": True,
                "generic_radical_dim": 1,
                "excluded": [],
                "notes": {"excluded": "direct: the radical is span(eps) in every fiber"},
            },
        ),
    ]
    return {e.key: e for e in out}


REGISTRY = _entries()

# the stretch entry is kept out of the per-prime verification sweeps
STRETCH = {
    "B3_Q": CorpusEntry(
        "B3_Q",
        lambda: brauer_algebra(3, parse_ring("Q[d]"), "B3_Q"),
        {"dim": 15, "generic_split": True},
    ),
}
