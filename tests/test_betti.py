"""The brute-force Betti oracle: Koszul complexes, homology, invariants."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boreltype import MonomialIdeal, betti_table
from boreltype import betti as betti_module
from boreltype.betti import _homology_ranks, _rank_mod2, _rank_rational
from boreltype.errors import GuardExceededError

from .support import (
    gens_of,
    ideal_of,
    monomial_ideals,
    raw_betti_entries,
    raw_ideals,
    raw_member,
    raw_rank_fraction,
    raw_reduced_homology_ranks,
    raw_upper_koszul_faces,
)


def I(nvars, *gens):
    return MonomialIdeal.from_text_lines(nvars, gens)


def bitmask(face) -> int:
    """A face given by its vertices as the oracle's bitmask (bit v - 1 for v)."""
    return sum(1 << (v - 1) for v in face)


def homology(faces, field="q") -> dict:
    return _homology_ranks([bitmask(f) for f in faces], betti_module._RANK[field])


class TestKoszulWalk:
    @given(
        case=st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                raw_ideals(n, max_gens=5, max_exp=3),
                st.lists(
                    st.tuples(st.integers(0, 4), st.integers(1, 3)),
                    min_size=n,
                    max_size=n,
                ),
            )
        )
    )
    # the origin, outside a one-generator ideal: the void complex
    @example(case=([(1, 0, 2)], [(0, 1)] * 3))
    @settings(deadline=None, max_examples=150)
    def test_walk_matches_the_definition_at_every_point(self, case):
        # raw, not minimalized, generators; boxes that start above the origin
        # and reach past the lcm; the walk must visit the points in product
        # order and name at each exactly the faces of the definition
        gens, spans = case
        ranges = [range(lo, lo + size) for lo, size in spans]
        walked = list(betti_module._koszul_walk(gens, ranges))
        assert [a for a, _ in walked] == list(itertools.product(*ranges))
        for a, facets in walked:
            assert list(facets) == sorted(set(facets))
            assert not any(f != g and f & g == f for f in facets for g in facets)
            faces = {
                frozenset(v for v in range(1, len(a) + 1) if mask >> (v - 1) & 1)
                for mask in betti_module._faces_below(facets)
            }
            assert faces == raw_upper_koszul_faces(gens, a), (gens, a)

    @pytest.mark.parametrize(
        "gens, a, faces",
        [
            # the empty face alone: lowering x1*x2 by any variable leaves I
            (("x1*x2",), (1, 1), [()]),
            (("x1",), (1, 0), [()]),
            # the origin lies outside a proper ideal: the void complex
            (("x1",), (0, 0), []),
            # an interior multidegree spans the full simplex on its support
            (("x1*x2",), (2, 2), [(), (1,), (2,), (1, 2)]),
        ],
    )
    def test_small_complexes(self, gens, a, faces):
        ideal = I(len(a), *gens)
        [(point, facets)] = betti_module._koszul_walk(ideal.exps, [(e,) for e in a])
        assert point == a
        assert betti_module._faces_below(facets) == {bitmask(f) for f in faces}


class TestHomology:
    def test_empty_face_only(self):
        assert homology([()]) == {-1: 1}

    def test_full_simplex_is_acyclic(self):
        assert homology([(), (1,), (2,), (1, 2)]) == {}

    def test_two_points(self):
        assert homology([(), (1,), (2,)]) == {0: 1}

    def test_hollow_triangle_is_a_circle(self):
        assert homology([(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]) == {1: 1}

    def test_void_complex(self):
        assert homology([]) == {}

    def test_projective_plane_has_two_torsion(self):
        # the 6-vertex triangulation of RP^2: H_1 = Z/2 and H_2 = 0, so the
        # reduced homology vanishes over Q and has rank one in dimensions 1
        # and 2 over the field with two elements
        triangles = [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
            (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
        ]
        faces = {
            frozenset(sub)
            for t in triangles
            for k in range(4)
            for sub in itertools.combinations(t, k)
        }
        assert homology(faces, field="q") == {}
        assert homology(faces, field="f2") == {1: 1, 2: 1}

    @given(
        rows=st.integers(1, 6).flatmap(
            lambda ncols: st.lists(
                st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
                min_size=1,
                max_size=6,
            )
        )
    )
    # rows whose entry in the pivot column is zero must still be rescaled,
    # or a later exact division goes wrong (here the rank comes out 2)
    @example(rows=[[-3, 2, 0, 0, -2, 1], [0, 0, 1, 0, 1, 0], [0, 0, 3, 0, 2, 0]])
    @settings(max_examples=300)
    def test_rational_rank_matches_fraction_elimination(self, rows):
        assert _rank_rational(rows) == raw_rank_fraction(rows)

    @given(
        facets=st.lists(
            st.frozensets(st.integers(1, 5), max_size=5), min_size=0, max_size=6
        )
    )
    @settings(max_examples=200)
    def test_ranks_match_the_tuple_boundary_matrices(self, facets):
        faces = {
            frozenset(sub)
            for f in facets
            for k in range(len(f) + 1)
            for sub in itertools.combinations(sorted(f), k)
        }
        assert homology(faces, "q") == raw_reduced_homology_ranks(
            faces, raw_rank_fraction
        )
        assert homology(faces, "f2") == raw_reduced_homology_ranks(faces, _rank_mod2)

    def test_rank_ignores_face_insertion_order(self):
        rng = random.Random(7)
        faces = [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
        for _ in range(5):
            rng.shuffle(faces)
            assert homology(faces) == {1: 1}
            assert homology(faces, field="f2") == {1: 1}


class TestBettiTable:
    def test_golden_cross(self):
        t = betti_table(I(2, "x1*x2"))
        assert t.entries == ((0, (0, 0), 1), (1, (1, 1), 1))

    def test_golden_two_generators(self):
        t = betti_table(I(2, "x1^2", "x1*x2"))
        assert t.entries == (
            (0, (0, 0), 1),
            (1, (1, 1), 1),
            (1, (2, 0), 1),
            (2, (2, 1), 1),
        )
        assert (t.regularity(), t.projective_dimension(), t.depth()) == (1, 2, 0)

    def test_golden_principal(self):
        t = betti_table(I(2, "x1"))
        assert [e for e in t.entries if e[0] > 0] == [(1, (1, 0), 1)]
        assert (t.regularity(), t.projective_dimension(), t.depth()) == (0, 1, 1)

    def test_golden_invariants_of_the_cross(self):
        t = betti_table(I(2, "x1*x2"))
        assert (t.regularity(), t.projective_dimension(), t.depth()) == (1, 1, 1)

    def test_origin_entry_is_the_only_index_zero_one(self):
        t = betti_table(I(2, "x1^2", "x2^3"))
        zeros = [e for e in t.entries if e[0] == 0]
        assert zeros == [(0, (0, 0), 1)]
        assert all(r > 0 for _, _, r in t.entries)

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ValueError):
            betti_table(MonomialIdeal.zero(2))
        with pytest.raises(ValueError):
            betti_table(MonomialIdeal.unit(2))

    def test_guard(self):
        # the box of (x1^2, x1*x2) has 6 points: a guard of 6 admits it
        ideal = I(2, "x1^2", "x1*x2")
        with pytest.raises(GuardExceededError):
            betti_table(ideal, guard=2)
        assert betti_table.__wrapped__(ideal, guard=6).entries == (
            betti_table(ideal).entries
        )
        with pytest.raises(
            GuardExceededError,
            match="^Betti oracle: enumeration box of size 6 exceeds the guard 5$",
        ):
            betti_table.__wrapped__(ideal, guard=5)

    def test_field_validated(self):
        with pytest.raises(ValueError, match="^unknown field 'r'; use 'q' or 'f2'$"):
            betti_table(I(2, "x1^2", "x1*x2"), field="r")

    def test_every_multidegree_of_the_lcm_box_is_visited(self, monkeypatch):
        # the oracle is never pruned: the walk is handed every generator and
        # the table reads one Koszul face set per box point
        visited, handed = [], []
        original = betti_module._koszul_walk

        def recording(gen_exps, ranges):
            handed.append(gen_exps)
            for point, facets in original(gen_exps, ranges):
                visited.append(point)
                yield point, facets

        monkeypatch.setattr(betti_module, "_koszul_walk", recording)
        ideal = I(3, "x1^2*x3", "x2^3", "x1*x2*x3^2")
        betti_table.__wrapped__(ideal)
        box = itertools.product(*[range(b + 1) for b in ideal.max_exponents()])
        assert handed == [ideal.exps]
        assert sorted(visited) == sorted(box)

    @pytest.mark.parametrize("field", ["q", "f2"])
    def test_every_homology_group_is_computed(self, monkeypatch, field):
        # the homology of every distinct complex of the box is computed by
        # elimination exactly once: every boundary map with nonempty sources
        # and targets gets its own rank; a second table over the same box
        # reads every complex back and ranks nothing
        ideal = I(3, "x1^2*x3", "x2^3", "x1*x2*x3^2")
        gens = gens_of(ideal)
        box = itertools.product(*[range(b + 1) for b in ideal.max_exponents()])
        distinct = {frozenset(raw_upper_koszul_faces(gens, a)) for a in box}
        expected_maps = 0
        for faces in distinct:
            sizes = {len(f) for f in faces}
            expected_maps += sum(1 for k in sizes if k >= 1 and k - 1 in sizes)

        complexes, ranked = [], []
        original_homology = betti_module._homology_ranks
        original_rank = betti_module._RANK[field]

        def recording(masks, rank_of):
            complexes.append(
                frozenset(
                    frozenset(v for v in range(1, 4) if mask >> (v - 1) & 1)
                    for mask in masks
                )
            )
            return original_homology(masks, rank_of)

        def counting(rows):
            ranked.append(rows)
            return original_rank(rows)

        monkeypatch.setattr(betti_module, "_homology_ranks", recording)
        monkeypatch.setitem(betti_module._RANK, field, counting)
        betti_module._koszul_homology.cache_clear()
        first = betti_table.__wrapped__(ideal, field=field)
        assert len(complexes) == len(set(complexes))
        assert set(complexes) == distinct
        assert len(ranked) == expected_maps
        complexes.clear()
        ranked.clear()
        second = betti_table.__wrapped__(ideal, field=field)
        assert (complexes, ranked) == ([], [])
        assert second.entries == first.entries

    def test_the_field_is_part_of_the_homology_key(self):
        # the Stanley-Reisner ideal of the 6-vertex RP^2 (its ten non-faces
        # are triangles) has 2-torsion in its Koszul homology, so its tables
        # over q and f2 differ; computing one field right after the other
        # must not read the first field's ranks back
        faces = [
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
            (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
        ]
        nonfaces = [
            t for t in itertools.combinations(range(1, 7), 3)
            if not any(set(t) == set(f) for f in faces)
        ]
        ideal = I(6, *("*".join(f"x{v}" for v in t) for t in nonfaces))
        assert len(ideal.gens) == 10 and ideal.max_exponents() == (1,) * 6
        expected = {
            "q": raw_betti_entries(gens_of(ideal), 6, raw_rank_fraction),
            "f2": raw_betti_entries(gens_of(ideal), 6, _rank_mod2),
        }
        assert expected["q"] != expected["f2"]
        for order in (("q", "f2"), ("f2", "q")):
            betti_module._koszul_homology.cache_clear()
            for field in order:
                table = betti_table.__wrapped__(ideal, field=field)
                assert list(table.entries) == expected[field], (order, field)

    @given(
        gens=st.integers(1, 4).flatmap(
            lambda n: raw_ideals(n, max_gens=4, max_exp=3)
        )
    )
    @settings(deadline=None, max_examples=150)
    def test_whole_table_matches_the_raw_complexes(self, gens):
        nvars = len(gens[0])
        ideal = ideal_of(nvars, gens)
        for field, rank in (("q", raw_rank_fraction), ("f2", _rank_mod2)):
            table = betti_table.__wrapped__(ideal, field=field)
            assert list(table.entries) == raw_betti_entries(
                gens_of(ideal), nvars, rank
            ), field

    def test_depth_complements_projective_dimension(self):
        for ideal in (I(2, "x1*x2"), I(3, "x1", "x2^2"), I(3, "x1*x2*x3")):
            t = betti_table(ideal)
            assert t.depth() == ideal.nvars - t.projective_dimension()


class TestOracleLaws:
    @given(J=monomial_ideals(max_vars=3, max_exp=2))
    @settings(deadline=None, max_examples=25)
    def test_euler_characteristic_identity(self, J):
        """Alternating Betti sums at each multidegree match an inclusion
        count computed from raw membership, over either field."""
        if J.is_zero() or J.is_unit():
            return
        gens = gens_of(J)
        n = J.nvars
        for field in ("q", "f2"):
            t = betti_table(J, field=field)
            for a in itertools.product(*[range(b + 1) for b in J.max_exponents()]):
                lhs = sum(
                    (-1) ** i * r for i, deg, r in t.entries if deg == a and i >= 1
                )
                support = [i for i in range(n) if a[i] > 0]
                rhs = 0
                for k in range(len(support) + 1):
                    for subset in itertools.combinations(support, k):
                        shifted = tuple(
                            a[i] - (1 if i in subset else 0) for i in range(n)
                        )
                        if raw_member(shifted, gens):
                            rhs += (-1) ** k
                assert lhs == -rhs, (J, a, field)

    @given(J=monomial_ideals(max_vars=3, max_exp=2))
    @settings(deadline=None, max_examples=25)
    def test_nonzero_entries_live_on_joins_of_generators(self, J):
        if J.is_zero() or J.is_unit() or len(J.gens) > 12:
            return
        joins = set()
        for k in range(1, len(J.gens) + 1):
            for subset in itertools.combinations(J.gens, k):
                exps = tuple(max(g.exps[i] for g in subset) for i in range(J.nvars))
                joins.add(exps)
        t = betti_table(J)
        for i, a, _ in t.entries:
            if i >= 1:
                assert a in joins, (J, i, a)

    @given(J=monomial_ideals(max_vars=3, max_exp=2))
    @settings(deadline=None, max_examples=20)
    def test_fields_agree_on_small_inputs(self, J):
        # these complexes are tiny cones and spheres; mod-2 torsion needs
        # larger triangulations than a degree-2 box in three variables
        if J.is_zero() or J.is_unit():
            return
        assert betti_table(J, field="q").entries == betti_table(J, field="f2").entries
