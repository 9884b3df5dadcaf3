"""Subquotient modules: torsion, truncation, Hilbert functions, reductions."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from boreltype import subquotient as subquotient_module
from boreltype import (
    Monomial,
    MonomialIdeal,
    Subquotient,
    borel_verdict,
    build_chain,
    monomials_of_degree,
)
from boreltype.errors import (
    DimensionMismatchError,
    NotArtinianError,
    ZeroModuleError,
)

from .support import (
    hilbert_function,
    modules,
    nonunit_tuples,
    raw_artinian_hilbert,
    raw_ideals,
    raw_member,
    tuples_of_degree,
)


def I(nvars, *gens):
    return MonomialIdeal.from_text_lines(nvars, gens)


class TestConstruction:
    def test_containment_enforced(self):
        with pytest.raises(ValueError):
            Subquotient(I(2, "x2"), I(2, "x1"))

    def test_nvars_must_match(self):
        with pytest.raises(DimensionMismatchError):
            Subquotient(MonomialIdeal.unit(2), I(3, "x1"))

    def test_torsion_hypothesis(self):
        # a nonzero module over the zero denominator is not a torsion module
        with pytest.raises(ValueError):
            Subquotient(I(2, "x1"), MonomialIdeal.zero(2))
        with pytest.raises(ValueError):
            Subquotient.cyclic(MonomialIdeal.zero(2))

    def test_zero_module_forms(self):
        assert Subquotient(I(2, "x1"), I(2, "x1")).is_zero()
        assert not Subquotient.cyclic(I(2, "x1")).is_zero()

    def test_cyclic(self):
        M = Subquotient.cyclic(I(2, "x1"))
        assert M.is_cyclic()
        assert M.numerator.is_unit()


class TestTorsion:
    def test_golden(self):
        M = Subquotient.cyclic(I(2, "x1^2", "x1*x2"))
        assert M.torsion_submodule(I(2, "x2")) == I(2, "x1")
        hypersurface = Subquotient.cyclic(I(2, "x1"))
        assert hypersurface.torsion_submodule(I(2, "x2")) == I(2, "x1")
        assert hypersurface.torsion_submodule(I(2, "x1")) == MonomialIdeal.unit(2)

    def test_zero_support_rejected(self):
        M = Subquotient.cyclic(I(2, "x1"))
        with pytest.raises(ValueError):
            M.torsion_submodule(MonomialIdeal.zero(2))

    @given(M=modules(), gens=raw_ideals(2, max_gens=2))
    @settings(deadline=None, max_examples=60)
    def test_torsion_is_intermediate(self, M, gens):
        if gens and len(gens[0]) != M.nvars:
            gens = [g[: M.nvars] + (0,) * (M.nvars - len(g)) for g in gens]
        support = MonomialIdeal(M.nvars, tuple(Monomial(g) for g in gens if any(g)))
        if support.is_zero():
            return
        L = M.torsion_submodule(support)
        assert M.numerator.contains(L)
        assert L.contains(M.denominator)

    @given(M=modules(max_vars=3), u=nonunit_tuples(3))
    @settings(deadline=None, max_examples=60)
    def test_torsion_radical_invariance(self, M, u):
        u = u[: M.nvars]
        if not any(u):
            return
        mono = Monomial(u)
        radical = Monomial(tuple(min(e, 1) for e in u))
        assert M.torsion_submodule(
            MonomialIdeal.principal(mono)
        ) == M.torsion_submodule(MonomialIdeal.principal(radical))

    @given(M=modules(max_vars=3), gens=raw_ideals(3, max_gens=2))
    @settings(deadline=None, max_examples=60)
    def test_torsion_antitone(self, M, gens):
        gens = [g[: M.nvars] for g in gens]
        if not all(any(g) for g in gens):
            return
        small = MonomialIdeal(M.nvars, (Monomial(gens[0]),))
        big = MonomialIdeal(M.nvars, tuple(Monomial(g) for g in gens))
        # larger support ideal, smaller torsion submodule
        assert M.torsion_submodule(small).contains(M.torsion_submodule(big))


class TestHilbert:
    def test_golden(self):
        M = Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2"))
        assert [hilbert_function(M, d) for d in range(4)] == [0, 1, 0, 0]
        cyclic = Subquotient.cyclic(I(2, "x1^2", "x1*x2"))
        assert [hilbert_function(cyclic, d) for d in range(4)] == [1, 2, 1, 1]
        zero = Subquotient(I(2, "x1"), I(2, "x1"))
        assert hilbert_function(zero, 0) == hilbert_function(zero, 3) == 0

    @given(M=modules(max_vars=3), d=st.integers(0, 6))
    @settings(deadline=None, max_examples=60)
    def test_counts_match_raw_enumeration(self, M, d):
        num = [g.exps for g in M.numerator.gens]
        den = [g.exps for g in M.denominator.gens]
        expected = sum(
            1
            for m in tuples_of_degree(M.nvars, d)
            if raw_member(m, num) and not raw_member(m, den)
        )
        assert hilbert_function(M, d) == expected

    @given(M=modules(max_vars=3), d=st.integers(0, 5))
    @settings(deadline=None, max_examples=60)
    def test_additive_over_torsion(self, M, d):
        if M.is_zero():
            return
        L = M.torsion_submodule(MonomialIdeal.variables(M.nvars, (1,)))
        sub = Subquotient(L, M.denominator)
        quot = Subquotient(M.numerator, L)
        parts = hilbert_function(sub, d) + hilbert_function(quot, d)
        assert hilbert_function(M, d) == parts


class TestTruncate:
    def test_golden_spread_unit(self):
        M = Subquotient.cyclic(I(2, "x2^2"))
        t = M.truncate(1)
        assert t.numerator == I(2, "x1", "x2")
        assert t.denominator == I(2, "x2^2")

    def test_truncate_zero_is_identity(self):
        M = Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2"))
        assert M.truncate(0) == M

    def test_golden_vanishing(self):
        M = Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2"))
        assert M.truncate(2).is_zero()

    @given(M=modules(max_vars=3), e=st.integers(0, 4))
    @settings(deadline=None, max_examples=60)
    def test_hilbert_function_of_truncation(self, M, e):
        t = M.truncate(e)
        for d in range(e + 3):
            expected = hilbert_function(M, d) if d >= e else 0
            assert hilbert_function(t, d) == expected


class TestArtinianReduction:
    def test_golden(self):
        Q = Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2"))
        assert Q.artinian_reduction(2) == Q
        assert Subquotient.cyclic(I(2, "x1")).artinian_reduction(1) == Subquotient.cyclic(
            I(2, "x1", "x2")
        )
        assert Subquotient(I(2, "x1"), I(2, "x1^2")).artinian_reduction(1) == Subquotient(
            I(2, "x1"), I(2, "x1^2", "x1*x2")
        )

    def test_range_checked(self):
        Q = Subquotient.cyclic(I(2, "x1"))
        with pytest.raises(ValueError):
            Q.artinian_reduction(0)
        with pytest.raises(ValueError):
            Q.artinian_reduction(3)


class TestTopDegree:
    def test_golden(self):
        N = Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2"))
        assert N.artinian_hilbert() == [0, 1]
        assert Subquotient.cyclic(I(2, "x1", "x2")).artinian_hilbert() == [1]

    def test_not_artinian(self):
        with pytest.raises(NotArtinianError):
            Subquotient.cyclic(I(2, "x1")).artinian_hilbert()

    def test_zero_module_rejected(self):
        with pytest.raises(ZeroModuleError):
            Subquotient(I(2, "x1"), I(2, "x1")).artinian_hilbert()

    def test_gap_past_bound_is_final(self):
        # numerator generated in degrees <= 2 with a Hilbert gap right after:
        # the scan must not stop before the generator bound
        N = Subquotient(I(2, "x1", "x2^2"), I(2, "x1^2", "x1*x2", "x2^3"))
        assert [hilbert_function(N, d) for d in range(4)] == [0, 1, 1, 0]
        assert N.artinian_hilbert() == [0, 1, 1]

    def test_refusal_names_the_effective_ceiling(self):
        # top degree 4 passes the ceiling 3
        N = Subquotient.cyclic(I(2, "x1^3", "x2^3"))
        assert N.artinian_hilbert(4) == [1, 2, 3, 2, 1]
        with pytest.raises(NotArtinianError, match="vanish up to degree 3;"):
            N.artinian_hilbert(3)
        # the ceiling is raised to the generator degree 3
        assert Subquotient(I(2, "x1^3", "x2"), I(2, "x1^4", "x2")).artinian_hilbert(
            0
        ) == [0, 0, 0, 1]
        with pytest.raises(NotArtinianError, match="vanish up to degree 3;"):
            Subquotient(I(2, "x1^3", "x2"), I(2, "x1^5", "x2")).artinian_hilbert(0)

    def test_is_artinian_golden(self):
        assert Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2")).is_artinian()
        assert Subquotient(I(2, "x1", "x2"), I(2, "x1^3", "x2")).is_artinian()
        assert not Subquotient.cyclic(I(2, "x1")).is_artinian()
        # x1 is nilpotent on the quotient, x2 is not
        assert not Subquotient(I(2, "x1", "x2"), I(2, "x1^2")).is_artinian()

    @given(data=st.data())
    @settings(deadline=None, max_examples=200)
    def test_is_artinian_is_the_saturation_containment(self, data):
        M = data.draw(modules())
        n = M.nvars
        # pure powers of some variables; of all of them, the module is Artinian
        indices = data.draw(st.sets(st.integers(1, n)))
        if indices:
            powers = I(n, *(f"x{i}^{data.draw(st.integers(1, 3))}" for i in indices))
            M = Subquotient(M.numerator.add(powers), M.denominator.add(powers))
        maximal = MonomialIdeal.variables(n, range(1, n + 1))
        expected = M.denominator.saturate(maximal).contains(M.numerator)
        assert M.is_artinian() == expected

    @given(data=st.data())
    @settings(deadline=None, max_examples=150)
    def test_matches_degree_scan(self, data):
        # modules() draws L != S for about half of its modules
        M = data.draw(modules(min_vars=1, max_vars=5))
        artinian = data.draw(st.booleans())
        if artinian:
            # pure powers of every variable make the quotient Artinian
            powers = I(
                M.nvars,
                *(f"x{i}^{data.draw(st.integers(1, 4))}" for i in range(1, M.nvars + 1)),
            )
            M = Subquotient(M.numerator.add(powers), M.denominator.add(powers))
        if M.is_zero():
            return
        # the default ceiling is only drawn where the scan stops early
        ceilings = st.integers(0, 8) | st.none() if artinian else st.integers(0, 8)
        ceiling = data.draw(ceilings)
        expected = raw_artinian_hilbert(
            [g.exps for g in M.numerator.gens],
            [g.exps for g in M.denominator.gens],
            M.nvars,
            ceiling,
        )
        top = M.top_degree()
        assert (top is None) == (not M.is_artinian())
        if isinstance(expected, str):
            with pytest.raises(NotArtinianError) as exc:
                M.artinian_hilbert(ceiling)
            assert str(exc.value) == expected
        else:
            assert M.artinian_hilbert(ceiling) == expected
            assert top == len(expected) - 1

    # about one draw of modules() in eight is a nonzero Borel-type module
    @given(M=modules(), data=st.data())
    @settings(
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    def test_matches_degree_scan_on_reduced_chain_quotients(self, M, data):
        # the denominator of a reduced chain quotient holds x_j L for each
        # trailing x_j, not a pure power of x_j
        assume(not M.is_zero() and borel_verdict(M).is_borel)
        for step in build_chain(M).steps:
            reduced = step.reduced
            # the default ceiling is only drawn where the scan stops early
            ceilings = st.integers(0, 8)
            if reduced.is_artinian():
                ceilings = ceilings | st.none()
            ceiling = data.draw(ceilings)
            expected = raw_artinian_hilbert(
                [g.exps for g in reduced.numerator.gens],
                [g.exps for g in reduced.denominator.gens],
                reduced.nvars,
                ceiling,
            )
            if isinstance(expected, str):
                with pytest.raises(NotArtinianError) as exc:
                    reduced.artinian_hilbert(ceiling)
                assert str(exc.value) == expected
            else:
                assert reduced.artinian_hilbert(ceiling) == expected

    @pytest.mark.parametrize(
        "nvars, numerator, gens, top, outside, box, scanned",
        [
            # the box 5^3 holds all 125 monomials outside D, all of degree
            # <= 12, while a degree scan tests all 455 monomials of those degrees
            (3, None, ("x1^5", "x2^5", "x3^5"), 12, 125, 125, 455),
            # the box 40^2 holds 1600 points, but only the 820 of degree
            # <= 39 can lie outside D, and 79 do; the degree scan tests all 820
            (2, None, ("x1^40", "x2^40", "x1*x2"), 39, 79, 820, 820),
            # (x2)/(x1*x2, x2^2, x2*x3): no generator of D is a power of x1 or
            # x3, so the box 1 x 2 x 1, not D or the top degree 1, ends the
            # walk in x1 and the column over 1
            (3, ("x2",), ("x1*x2", "x2^2", "x2*x3"), 1, 2, 2, 4),
        ],
    )
    def test_counts_within_the_box_below_the_top_degree(
        self, monkeypatch, nvars, numerator, gens, top, outside, box, scanned
    ):
        D = I(nvars, *gens)
        M = Subquotient(I(nvars, *numerator), D) if numerator else Subquotient.cyclic(D)
        bounds = D.max_exponents()
        assert scanned == sum(len(monomials_of_degree(nvars, d)) for d in range(top + 1))
        # record the columns the count reads: (prefix on x1..x_{n-1}, low, high)
        columns = []
        original = subquotient_module._box_columns

        def recording(*args):
            for column in original(*args):
                columns.append(column)
                yield column

        monkeypatch.setattr(subquotient_module, "_box_columns", recording)
        values = M.artinian_hilbert()
        monkeypatch.undo()
        assert values == [hilbert_function(M, d) for d in range(top + 1)]
        assert columns
        for prefix, _, high in columns:
            assert all(e < b for e, b in zip(prefix, bounds)) and high <= bounds[-1]
            assert sum(prefix) + max(high - 1, 0) <= top
        # the points each column reads as outside D
        points = {prefix + (t,) for prefix, _, high in columns for t in range(high)}
        assert len(points) == outside <= box

    def test_six_variable_module_counts_its_closed_form(self):
        # S/(x1^8, x1^7*x2, x2^8, x3^8..x6^8): 57 standard monomials in x1, x2
        # times 8^4 in x3..x6, up to the corner x1^6*x2^7*(x3..x6)^7
        M = Subquotient.cyclic(
            I(6, "x1^8", "x1^7*x2", "x2^8", "x3^8", "x4^8", "x5^8", "x6^8")
        )
        values = M.artinian_hilbert(41)
        assert sum(values) == 233_472 == 57 * 8**4
        assert len(values) == 42 and values[0] == values[41] == 1
        with pytest.raises(NotArtinianError, match="vanish up to degree 40;"):
            M.artinian_hilbert()
