"""Simply-laced root systems built by additive closure.

Positive roots are stored as integer coefficient vectors over the simple
roots; weights are integer coefficient vectors over the fundamental
weights.  With the bilinear form normalized so that every root has squared
length 2, the pairing of a weight with a root is a plain integer dot
product, and the height of a root equals its pairing with the all-ones
weight.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import add, mul
from typing import NamedTuple, Sequence

Weight = tuple[int, ...]

_ALL = "all"


class TypeData(NamedTuple):
    """The facts about one E type that the rest of the package looks up.

    Everything here is either input (the Dynkin diagram), a published value
    the generated root system is checked against, or a statement of which
    results are theorems; whatever the code can compute from the roots
    themselves is computed, not stored.
    """

    #: Dynkin edges in Bourbaki numbering: nodes 1,3,4,...,rank form the
    #: chain and node 2 hangs off node 4.
    edges: tuple[tuple[int, int], ...]
    positive_roots: int
    coxeter_number: int
    #: The node whose fundamental weight is the highest root.
    adjoint_node: int
    #: The nodes with an odd number of odd-pairing roots, with that number.
    odd_delta: dict[int, int]
    #: Whether fixtures/ holds a published positive-root table for the type.
    has_fixture: bool
    #: Rows with closed-form (Chari) decompositions, one shell per running
    #: index j: box count k sums the shells 0..k at the nested nodes and is
    #: shell k alone at the others.  Shell j is r w_a + (j - r) w_b, r = 0..j,
    #: at a paired node (0-based coordinates a, b), else j w_node.
    direct_nodes: tuple[int, ...]
    nested_nodes: tuple[int, ...]
    paired_shells: dict[int, tuple[int, int]]
    #: Fill order for the remaining rows: (target, ((source, divisors), ...)),
    #: the routes tried in turn.  Each route solves the Q-system equation at
    #: ``source`` for the target row, dividing by the other neighbours of
    #: ``source`` when there are any.  The grid fills the direct rows, then the
    #: targets in this order, so a route reads only direct nodes and earlier
    #: targets; each node that is not direct is a target exactly once.
    derived_routes: tuple[tuple[int, tuple[tuple[int, tuple[int, ...]], ...]], ...]
    #: Nodes at which each certified grid property is a theorem rather than
    #: a (numerically supported) conjecture.
    proven_nodes: dict[str, object]
    #: Nodes whose positivity is proven on the window a_i k <= L or
    #: a_i k >= (a_i - 1) L through the log-concavity route.
    positivity_window_nodes: tuple[int, ...]
    #: Kleber's single-box decompositions, node -> (multiplicity, weight)
    #: terms in summation order, at the nodes no closed form reaches.
    kleber_q1: dict[int, tuple[tuple[int, Weight], ...]]
    #: The mark-1 node whose line (k w_node, k = 0..L) has a coefficient
    #: polynomial with real roots only below ``branden_level`` and a non-real
    #: root at it; both None where no threshold is claimed.
    branden_node: int | None
    branden_level: int | None
    #: Whether the dilogarithm arguments lying in (0, 1) is a theorem.
    dilog_proven: bool
    #: The distinguished affine elements on x w_a + y w_b (E6: k w_2): a's and
    #: b's 0-based coordinates, a sample point's format, and per element its
    #: name, its word (parity -1) and its image's a, b coordinates at level L.
    fixed_words: tuple


TYPE_DATA = {
    "E6": TypeData(
        edges=((1, 3), (3, 4), (4, 5), (5, 6), (2, 4)),
        positive_roots=36,
        coxeter_number=12,
        adjoint_node=2,
        odd_delta={},
        has_fixture=False,
        direct_nodes=(1, 2, 6),
        nested_nodes=(2,),
        paired_shells={},
        derived_routes=(
            (3, ((1, ()),)),
            (5, ((6, ()),)),
            (4, ((2, ()),)),
        ),
        proven_nodes={"zero_window": _ALL, "symmetry": _ALL, "positivity": _ALL,
                      "unimodality": _ALL, "periodicity": _ALL, "boundary_one": _ALL,
                      "positivity_window": _ALL, "shifted_boundary_sign": _ALL},
        positivity_window_nodes=(),
        kleber_q1={},
        branden_node=None,
        branden_level=None,
        dilog_proven=True,
        fixed_words=((1,), "{}w2", (("s0", (0,), lambda L, k: (L + 1 - k,)),)),
    ),
    "E7": TypeData(
        edges=((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)),
        positive_roots=63,
        coxeter_number=18,
        adjoint_node=1,
        odd_delta={2: 35, 5: 35, 7: 27},
        has_fixture=True,
        direct_nodes=(1, 2, 7),
        nested_nodes=(1,),
        paired_shells={2: (1, 6)},
        derived_routes=(
            (3, ((1, ()),)),
            (6, ((7, ()),)),
            (4, ((2, ()),)),
            (5, ((6, (7,)), (4, (2, 3)))),
        ),
        proven_nodes={"zero_window": _ALL, "symmetry": _ALL,
                      "positivity": {1, 2, 3, 6, 7}, "unimodality": {1, 2, 7},
                      "periodicity": _ALL, "boundary_one": _ALL,
                      "positivity_window": _ALL, "shifted_boundary_sign": _ALL},
        positivity_window_nodes=(4, 5),
        # W(4)_1 = 2 V(0) + 4 V(w1) + V(2w1) + 3 V(w3) + V(w4) + 4 V(w6)
        #          + V(2w7) + V(w1+w6) + 2 V(w2+w7),
        # W(5)_1 = V(w5) + V(w1+w7) + 2 V(w2) + 2 V(w7)
        kleber_q1={
            4: ((2, (0, 0, 0, 0, 0, 0, 0)),
                (4, (1, 0, 0, 0, 0, 0, 0)),
                (1, (2, 0, 0, 0, 0, 0, 0)),
                (3, (0, 0, 1, 0, 0, 0, 0)),
                (1, (0, 0, 0, 1, 0, 0, 0)),
                (4, (0, 0, 0, 0, 0, 1, 0)),
                (1, (0, 0, 0, 0, 0, 0, 2)),
                (1, (1, 0, 0, 0, 0, 1, 0)),
                (2, (0, 1, 0, 0, 0, 0, 1))),
            5: ((1, (0, 0, 0, 0, 1, 0, 0)),
                (1, (1, 0, 0, 0, 0, 0, 1)),
                (2, (0, 1, 0, 0, 0, 0, 0)),
                (2, (0, 0, 0, 0, 0, 0, 1))),
        },
        branden_node=7,
        branden_level=12,
        dilog_proven=False,
        fixed_words=((1, 6), "({}w2+{}w7)", (("w", (0, 1, 3, 4, 5, 6, 7, 6, 5, 4, 3, 1, 0),
                                               lambda L, p, q: (L - p + 7, 2 * p + q - L - 7)),)),
    ),
    "E8": TypeData(
        edges=((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)),
        positive_roots=120,
        coxeter_number=30,
        adjoint_node=8,
        odd_delta={},
        has_fixture=True,
        direct_nodes=(1, 8),
        nested_nodes=(1, 8),
        paired_shells={1: (0, 7)},
        derived_routes=(
            (3, ((1, ()),)),
            (7, ((8, ()),)),
            (6, ((7, (8,)),)),
            (5, ((6, (7,)),)),
            (4, ((5, (6,)),)),
            (2, ((4, (3, 5)),)),
        ),
        proven_nodes={"zero_window": _ALL, "symmetry": {1, 3, 4, 5, 6, 7, 8},
                      "positivity": {1, 3, 8}, "unimodality": {1, 8},
                      "periodicity": _ALL, "boundary_one": _ALL,
                      "positivity_window": _ALL, "shifted_boundary_sign": _ALL},
        positivity_window_nodes=(),
        kleber_q1={},
        branden_node=None,
        branden_level=None,
        dilog_proven=False,
        # sigma = t_{l beta} s_beta, beta = (2,2,3,4,3,2,1,0), is w s_0 w^-1:
        # w = s8 s7 s6 s5 s4 s2 s3 s4 s5 s6 s7 s8 takes theta to beta.
        fixed_words=((0, 7), "({}w1+{}w8)", (
            ("s0", (0,), lambda L, s, r: (s, L + 1 - 2 * s - r)),
            ("sigma", (8, 7, 6, 5, 4, 2, 3, 4, 5, 6, 7, 8, 0, 8, 7, 6, 5, 4, 3, 2, 4, 5, 6, 7, 8),
             lambda L, s, r: (L + 13 - s, 2 * s + r - L - 13)))),
    ),
}

def type_data(type_label: str) -> TypeData:
    """The TYPE_DATA entry of an E type; ValueError for any other label."""
    try:
        return TYPE_DATA[type_label]
    except KeyError:
        raise ValueError(f"unknown type label {type_label!r}") from None


def is_proven(type_label: str, prop: str, node: int) -> bool:
    """Whether a certified grid property is a theorem at this node."""
    entry = type_data(type_label).proven_nodes[prop]
    return entry == _ALL or node in entry


def cartan_matrix(type_label: str) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of E6/E7/E8 in Bourbaki node numbering."""
    edges = type_data(type_label).edges
    rank = int(type_label[1])
    rows = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for a, b in edges:
        rows[a - 1][b - 1] = -1
        rows[b - 1][a - 1] = -1
    return tuple(tuple(r) for r in rows)


class RootTable(NamedTuple):
    """Level-independent facts of the Weyl and root checks, per generator
    s_0..s_rank and per node 1..rank (see ``RootSystem.table``)."""

    columns: tuple[tuple[Weight, ...], ...]
    image_heights: tuple[tuple[int, ...], ...]
    negatives: tuple[int, ...]
    unit_heights: tuple[frozenset[int], ...]
    support_heights: tuple[frozenset[int], ...]


class RootSystem:
    """An irreducible simply-laced root system.

    ``positive_roots`` is ordered by height, then lexicographically on the
    coefficient vectors; this canonical order is stable across runs and is
    what root indices refer to everywhere in this package.  The fields are
    read-only; ``cached_property`` writes to ``__dict__`` past the guard.
    """

    _fields = ("type_label", "rank", "cartan", "positive_roots", "marks", "coxeter_number",
               "highest_root_index")

    def __init__(self, type_label: str, rank: int, cartan: tuple[tuple[int, ...], ...],
                 positive_roots: tuple[tuple[int, ...], ...], marks: tuple[int, ...],
                 coxeter_number: int, highest_root_index: int):
        vars(self).update(zip(self._fields, (type_label, rank, cartan, positive_roots, marks,
                                             coxeter_number, highest_root_index)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to RootSystem.{name}")

    def __eq__(self, other):
        return type(other) is RootSystem and all(
            getattr(self, f) == getattr(other, f) for f in self._fields)

    @cached_property
    def heights(self) -> tuple[int, ...]:
        return tuple(sum(b) for b in self.positive_roots)

    @cached_property
    def root_columns(self) -> tuple[tuple[int, ...], ...]:
        """Column j holds the coefficient b_j of every positive root, in
        canonical order: (w | beta) summed over the nonzero w_j only."""
        return tuple(zip(*self.positive_roots))

    @cached_property
    def table(self) -> RootTable:
        """The ``RootTable``, from the Cartan matrix C alone.  The linear part
        of s_g's dot action reflects in a = theta (g = 0) or alpha_g: its
        column k is e_k - a_k C a, and the image of beta, (column k | beta)
        at k, is beta - (C a | beta) a.  Per generator the table holds the
        columns, the heights of the positive roots' images and how many are
        negative, once +- the images are checked to permute the positive
        roots; per node, the heights of the roots with coefficient 1, and
        nonzero, there."""
        roots = set(self.positive_roots)
        units = [tuple(int(j == k) for j in range(self.rank)) for k in range(self.rank)]
        columns, heights, negatives = [], [], []
        for g, (a, ca) in enumerate([(self.marks, self.theta_weight), *zip(units, self.cartan)]):
            columns.append(tuple(tuple(e - a_k * t for e, t in zip(unit, ca))
                                 for unit, a_k in zip(units, a)))
            pairs = [x - ht for x, ht in zip(self.rho_pairings(ca), self.heights)]
            # the roots with (C a | beta) = 0 are fixed
            moved = {b: tuple(x - p * y for x, y in zip(b, a))
                     for b, p in zip(self.positive_roots, pairs) if p}
            if {b if b in roots else tuple(-x for x in b) for b in moved.values()} != set(moved):
                raise AssertionError(f"{self.type_label}: s_{g} does not permute the roots")
            heights.append(tuple([ht - p * sum(a) for ht, p in zip(self.heights, pairs)]))
            negatives.append(sum(b not in roots for b in moved.values()))
        by_node = [list(zip(column, self.heights)) for column in self.root_columns]
        return RootTable(tuple(columns), tuple(heights), tuple(negatives),
                         tuple(frozenset(ht for c, ht in pairs if c == 1) for pairs in by_node),
                         tuple(frozenset(ht for c, ht in pairs if c) for pairs in by_node))

    def rho_pairings(self, weight: Sequence[int]) -> Sequence[int]:
        """(weight + rho | beta) for every positive root, in canonical order.

        (rho | beta) is the height of beta; the weight's part is summed from
        the root columns of its nonzero coordinates only.
        """
        pairings: Sequence[int] = self.heights
        for wj, column in zip(weight, self.root_columns):
            if wj:
                pairings = [p + wj * b for p, b in zip(pairings, column)]
        return pairings

    @cached_property
    def theta_weight(self) -> Weight:
        """The highest root expressed in the fundamental-weight basis."""
        return self.root_as_weight(self.highest_root_index)

    @cached_property
    def neighbors(self) -> dict[int, tuple[int, ...]]:
        """Dynkin adjacency, 1-based nodes."""
        return {
            i: tuple(j for j in range(1, self.rank + 1)
                     if j != i and self.cartan[i - 1][j - 1] == -1)
            for i in range(1, self.rank + 1)
        }

    def root_as_weight(self, root_index: int) -> Weight:
        """Coefficient vector of a root rewritten in the weight basis."""
        b = self.positive_roots[root_index]
        return tuple(
            sum(self.cartan[j][i] * b[i] for i in range(self.rank))
            for j in range(self.rank)
        )


def is_dominant(weight: Sequence[int]) -> bool:
    return all(c >= 0 for c in weight)


def int_weight(weight: Sequence[int]) -> Weight:
    """The weight with int coordinates; ValueError unless each coordinate
    equals its int, as 1.0 does and 1.5 or '1' do not."""
    weight = tuple(weight)
    w = tuple(map(int, weight))
    if w != weight:
        raise ValueError(f"weight coordinates must be integers, got {weight}")
    return w


def fundamental_weight(rank: int, node: int, multiple: int = 1) -> Weight:
    """The weight ``multiple * w_node`` as a coefficient tuple."""
    if not 1 <= node <= rank:
        raise ValueError(f"node {node} out of range for rank {rank}")
    return (0,) * (node - 1) + (multiple,) + (0,) * (rank - node)


def build_root_system(type_label: str) -> RootSystem:
    """The root system of an E type, by label in any case, built once per
    process by ``_closure`` and shared afterwards.  ValueError for a label
    outside TYPE_DATA, TypeError for anything but a string."""
    if not isinstance(type_label, str):
        raise TypeError(f"root systems are built from a type label (E6, E7 or E8), "
                        f"not {type(type_label).__name__}")
    return _labelled_root_system(type_label.upper())


@cache
def _labelled_root_system(label: str) -> RootSystem:
    rs = _closure(label, cartan_matrix(label))
    expected = TYPE_DATA[label].positive_roots
    if len(rs.positive_roots) != expected:
        raise AssertionError(
            f"{label}: enumerated {len(rs.positive_roots)} positive roots, expected {expected}"
        )
    return rs


def _closure(label: str, cartan: tuple[tuple[int, ...], ...]) -> RootSystem:
    """The root system of a Cartan matrix, assumed finite, irreducible and
    simply laced, as TYPE_DATA's are; nothing here checks it.

    Positive roots are enumerated by additive closure: from the simple roots,
    beta + alpha_j is appended whenever (beta | alpha_j) < 0, the exact
    root-addition criterion for such a matrix.  Each root carries its Cartan
    image C beta, whose entry j is (beta | alpha_j), so a step adds column j
    of C to it.  The roots are sorted by height, then lexicographically, and
    the last is the highest root.
    """
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    # C is symmetric, so the image of alpha_i is row i.
    frontier = list(zip(simple, cartan))
    while frontier:
        fresh = []
        for b, image in frontier:
            for j, pair in enumerate(image):
                if pair < 0:
                    nb = b[:j] + (b[j] + 1,) + b[j + 1:]
                    if nb not in roots:
                        roots.add(nb)
                        fresh.append((nb, tuple(map(add, image, cartan[j]))))
        frontier = fresh

    ordered = sorted(roots, key=lambda b: (sum(b), b))
    return RootSystem(
        type_label=label,
        rank=rank,
        cartan=cartan,
        positive_roots=tuple(ordered),
        marks=ordered[-1],
        coxeter_number=sum(ordered[-1]) + 1,
        highest_root_index=len(ordered) - 1,
    )


def delta(rs: RootSystem, node: int) -> int:
    """Number of positive roots pairing oddly with the fundamental weight."""
    if not 1 <= node <= rs.rank:
        raise ValueError(f"node {node} out of range")
    return sum(1 for b in rs.positive_roots if b[node - 1] % 2 == 1)


def lee_witness(rs: RootSystem, node: int, r: int) -> int:
    """Index of a positive root with (w_node | beta) = 1 and height r.

    Such a root exists for every node and every r in [1, h-1] in the E types;
    absence is reported as an error because it would falsify that fact.
    """
    h = rs.coxeter_number
    if not 1 <= r <= h - 1:
        raise ValueError(f"height {r} outside [1, {h - 1}]")
    for idx, (b, ht) in enumerate(zip(rs.positive_roots, rs.heights)):
        if ht == r and b[node - 1] == 1:
            return idx
    raise LookupError(
        f"no positive root with unit pairing at node {node} and height {r}"
    )


def height_symmetry_check(rs: RootSystem, node: int) -> bool:
    """Whether the unit-pairing roots are height-symmetric about h/2.

    Counts, for each r, the positive roots beta with (w_node | beta) = 1 at
    height r versus height h - r, and reports whether all counts agree.
    """
    h = rs.coxeter_number
    counts: dict[int, int] = {}
    for b, ht in zip(rs.positive_roots, rs.heights):
        if b[node - 1] == 1:
            counts[ht] = counts.get(ht, 0) + 1
    return all(counts.get(r, 0) == counts.get(h - r, 0) for r in range(1, h))
