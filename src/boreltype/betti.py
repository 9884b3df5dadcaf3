"""Brute-force multigraded Betti numbers of monomial quotient rings.

For each multidegree a in the box below the lcm of the generators, the Betti
number of the ideal in homological position i at multidegree a is the rank of
the reduced simplicial homology, one dimension down, of the upper Koszul
complex K^a: the variable subsets F one can divide out of x^a while staying
in the ideal (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34).
Since x^(a-F) lies in the ideal exactly when some minimal generator g divides
x^a and F lies in the facet {i : g_i < a_i}, the faces are the subsets of
those facets, read off the generators as bitmasks.  The faces stay bitmasks
from the facet test to the boundary matrices; a SimplicialComplex is built
only by upper_koszul_complex, for callers outside the oracle's loop.  Many box
points span the same complex, so the homology of each distinct complex is
memoized in one bounded module-level lru_cache, keyed on the exact set of its
maximal facets and the field.  Homology ranks are exact: the rank over the
rationals comes from fraction-free (Bareiss) elimination on Python integers,
and the rank over the field with two elements, when requested, from
elimination on bit rows.  The quotient ring's table is the ideal's table
shifted one step, plus the free rank one at the origin.  Regularity,
projective dimension, and depth (variables minus projective dimension) are
read off the table.

This module is deliberately independent of the chain machinery: it is the
oracle the chain formula is checked against, so it shares no code with it
beyond the monomial ideal type.  Every multidegree of the box is visited and
its complex built from every generator, and the homology of each distinct
complex is computed once by elimination; nothing is pruned or derived from
theory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .monomial import Monomial, MonomialIdeal, ensure_box

DEFAULT_ORACLE_GUARD = 1 << 16

# Entries kept by the Koszul homology memo, one per distinct complex and field.
# A check-stable round meets about 150 distinct complexes over 56 tables; one
# strongly stable ideal at n = 8..12 (fuzz --gen borel --maxdeg 3) about 1200.
KOSZUL_HOMOLOGY_MEMO_SIZE = 2048

# Tables kept by betti_table's memo.  check and the betti command ask for one
# table per module, so only repeated library calls hit it; unbounded, it kept
# every table of a check-stable round, about 0.36 MB for 56 tables.
BETTI_TABLE_MEMO_SIZE = 16


@dataclass(frozen=True)
class SimplicialComplex:
    """An abstract simplicial complex on a vertex subset of {1..n}.

    The empty complex (no faces at all) and the complex whose only face is the
    empty set are distinct: the former has no homology in any dimension, the
    latter has rank one in dimension -1.
    """

    vertices: tuple[int, ...]
    faces: frozenset[frozenset[int]]

    def __post_init__(self):
        verts = tuple(sorted(set(self.vertices)))
        object.__setattr__(self, "vertices", verts)
        faces = frozenset(frozenset(f) for f in self.faces)
        vertex_set = set(verts)
        for f in faces:
            if not f <= vertex_set:
                raise ValueError(f"face {sorted(f)} uses unknown vertices")
            for v in f:
                if f - {v} not in faces:
                    raise ValueError(
                        f"face {sorted(f)} present without its subface "
                        f"{sorted(f - {v})}"
                    )
        object.__setattr__(self, "faces", faces)

    def is_void(self) -> bool:
        return not self.faces

    def dim(self) -> int:
        if not self.faces:
            return -2
        return max(len(f) for f in self.faces) - 1


def _koszul_face_masks(gen_exps, a) -> tuple[int, ...]:
    """The maximal faces of K^a as ascending bitmasks (bit i - 1 for variable
    i), given the generators' exponent tuples: the facets {i : g_i < a_i} of
    the generators g dividing x^a, less those inside another facet.  The faces
    of K^a are their subsets, so the tuple names the complex exactly."""
    facets = set()
    for g in gen_exps:
        mask, bit = 0, 1
        for g_i, a_i in zip(g, a):
            if g_i > a_i:
                break
            if g_i < a_i:
                mask |= bit
            bit <<= 1
        else:
            facets.add(mask)
    if len(facets) < 2:
        return tuple(facets)
    maximal = []
    for facet in sorted(facets, key=int.bit_count, reverse=True):
        for kept in maximal:
            if facet & kept == facet:
                break
        else:
            maximal.append(facet)
    return tuple(sorted(maximal))


def _faces_below(facets) -> set[int]:
    """Every subset, as a bitmask, of some facet bitmask."""
    masks = set()
    for facet in facets:
        sub = facet
        while True:
            masks.add(sub)
            if not sub:
                break
            sub = (sub - 1) & facet
    return masks


def upper_koszul_complex(ideal: MonomialIdeal, multidegree) -> SimplicialComplex:
    """The upper Koszul complex K^a(I): the subsets F of the support of a with
    x^(a-F) in the ideal.

    x^(a-F) lies in I exactly when some minimal generator g divides it, that
    is when g divides x^a and F lies inside {i : g_i < a_i}, the facet of g at
    a.  So the faces are the subsets of these facets.  They are enumerated as
    bitmasks by the same code the Betti oracle runs, and converted to vertex
    sets once.
    """
    a = Monomial(tuple(multidegree))
    if a.nvars != ideal.nvars:
        raise ValueError("multidegree length does not match the variable count")
    masks = _faces_below(_koszul_face_masks([g.exps for g in ideal.gens], a.exps))
    verts = a.support()
    faces = frozenset(
        frozenset(v for v in verts if mask >> (v - 1) & 1) for mask in masks
    )
    return SimplicialComplex(verts, faces)


def _rank_rational(rows: list[list[int]]) -> int:
    """Rank over the rationals by Bareiss's fraction-free elimination.

    After each pivot every row below is replaced by (pivot * row - entry *
    pivot row) / previous pivot.  Its entries are then minors of the input,
    so the division is exact and everything stays a Python int, while the
    rank is the same as that of Gaussian elimination over Q.
    """
    if not rows or not rows[0]:
        return 0
    mat = [list(row) for row in rows]
    nrows, ncols = len(mat), len(mat[0])
    rank = 0
    previous = 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        p = top[col]
        for r in range(rank + 1, nrows):
            row = mat[r]
            f = row[col]
            for c in range(col + 1, ncols):
                row[c] = (p * row[c] - f * top[c]) // previous
            row[col] = 0
        previous = p
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_mod2(rows: list[list[int]]) -> int:
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    words = [sum((x & 1) << c for c, x in enumerate(row)) for row in rows]
    rank = 0
    for col in range(ncols):
        mask = 1 << col
        pivot = None
        for r in range(rank, len(words)):
            if words[r] & mask:
                pivot = r
                break
        if pivot is None:
            continue
        words[rank], words[pivot] = words[pivot], words[rank]
        for r in range(len(words)):
            if r != rank and words[r] & mask:
                words[r] ^= words[rank]
        rank += 1
    return rank


_RANK = {"q": _rank_rational, "f2": _rank_mod2}


def _rank_function(field: str):
    if field not in _RANK:
        raise ValueError(f"unknown field {field!r}; use 'q' or 'f2'")
    return _RANK[field]


def _homology_ranks(masks, rank_of) -> dict:
    """Nonzero reduced homology ranks, by dimension, of the complex whose
    faces are the given bitmasks (bit v - 1 for vertex v); rank_of is the
    rank of a list of integer rows over the chosen field.

    The rank in dimension k is the face count minus the ranks of the
    boundary maps in and out (rank-nullity).  Faces are sorted within each
    dimension so the matrices do not depend on the face enumeration order.
    The boundary of a face drops each set bit in turn; dropping the j-th
    lowest one (counting from zero) carries the sign (-1)^j.
    """
    if not masks:
        return {}
    by_dim: dict[int, list[int]] = {}
    for mask in masks:
        by_dim.setdefault(mask.bit_count() - 1, []).append(mask)
    for k in by_dim:
        by_dim[k].sort()
    top = max(by_dim)
    boundary_ranks = {}
    for k in range(0, top + 1):
        sources = by_dim.get(k, [])
        targets = by_dim.get(k - 1, [])
        if not sources or not targets:
            boundary_ranks[k] = 0
            continue
        index = {face: r for r, face in enumerate(targets)}
        rows = [[0] * len(sources) for _ in targets]
        for c, face in enumerate(sources):
            rest, sign = face, 1
            while rest:
                bit = rest & -rest
                rows[index[face ^ bit]][c] = sign
                rest ^= bit
                sign = -sign
        boundary_ranks[k] = rank_of(rows)
    out = {}
    for k in range(-1, top + 1):
        count = len(by_dim.get(k, []))
        rank_in = boundary_ranks.get(k + 1, 0)
        rank_out = boundary_ranks.get(k, 0) if k >= 0 else 0
        h = count - rank_in - rank_out
        if h:
            out[k] = h
    return out


def reduced_homology_ranks(complex_: SimplicialComplex, field: str = "q") -> dict:
    """Ranks of the reduced homology groups, indexed by dimension.

    Only nonzero ranks appear in the result; the void complex has none.  The
    faces are converted to bitmasks and ranked by the same code the Betti
    oracle runs.
    """
    rank_of = _rank_function(field)
    masks = []
    for f in complex_.faces:
        mask = 0
        for v in f:
            mask |= 1 << (v - 1)
        masks.append(mask)
    return _homology_ranks(masks, rank_of)


@lru_cache(maxsize=KOSZUL_HOMOLOGY_MEMO_SIZE)
def _koszul_homology(facets: tuple[int, ...], field: str) -> tuple:
    """The nonzero reduced homology ranks, as (dimension, rank) pairs, of the
    complex spanned by these ascending maximal facet bitmasks, over the field.

    Keyed on the exact complex and the field, so a hit returns what
    elimination gave for the same boundary matrices; a miss expands the faces
    and ranks every boundary map.  The key is a sorted tuple rather than a
    frozenset: the same set in about a quarter of the memory.
    """
    return tuple(_homology_ranks(_faces_below(facets), _rank_function(field)).items())


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of a quotient ring S/I.

    Entries are (homological index, multidegree, rank) with rank positive,
    sorted; the origin always carries the free rank one at index zero.
    """

    nvars: int
    entries: tuple[tuple[int, tuple[int, ...], int], ...]
    field: str = "q"

    def rank(self, index: int, multidegree) -> int:
        key = tuple(multidegree)
        for i, a, r in self.entries:
            if i == index and a == key:
                return r
        return 0

    def regularity(self) -> int:
        return max(sum(a) - i for i, a, _ in self.entries)

    def projective_dimension(self) -> int:
        return max(i for i, _, _ in self.entries)

    def depth(self) -> int:
        return self.nvars - self.projective_dimension()

    def to_json(self) -> dict:
        return {
            "vars": self.nvars,
            "field": self.field,
            "entries": [
                {"i": i, "degree": sum(a), "multidegree": list(a), "rank": r}
                for i, a, r in self.entries
            ],
            "regularity": self.regularity(),
            "projective_dimension": self.projective_dimension(),
            "depth": self.depth(),
        }


@lru_cache(maxsize=BETTI_TABLE_MEMO_SIZE)
def betti_table(
    ideal: MonomialIdeal, guard: int = DEFAULT_ORACLE_GUARD, field: str = "q"
) -> BettiTable:
    """Betti table of S/ideal by full enumeration of the lcm box.

    Every multidegree with exponents at most the componentwise max of the
    generators is visited and its maximal Koszul faces read off every
    generator; nothing is pruned, so the support restriction to joins of
    generators is a testable consequence, not an assumption.  The homology of
    each distinct complex is computed once by elimination, keyed on its exact
    maximal facets and the field, and read back at every point that spans it.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("the Betti oracle needs a proper nonzero ideal")
    bounds = ideal.max_exponents()
    ensure_box(bounds, guard, "Betti oracle")
    _rank_function(field)  # an unknown field is refused before the walk
    gen_exps = [g.exps for g in ideal.gens]
    entries = [(0, (0,) * ideal.nvars, 1)]
    for exps in itertools.product(*[range(b + 1) for b in bounds]):
        facets = _koszul_face_masks(gen_exps, exps)
        for hdim, rank in _koszul_homology(facets, field):
            entries.append((hdim + 2, exps, rank))
    entries.sort()
    return BettiTable(ideal.nvars, tuple(entries), field)


def oracle_invariants(table: BettiTable) -> tuple[int, int, int]:
    """(regularity, projective dimension, depth) read off a Betti table."""
    return table.regularity(), table.projective_dimension(), table.depth()
