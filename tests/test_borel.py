"""Borel-type verdicts, strong stability, truncation, torsion identities."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boreltype import (
    Monomial,
    MonomialIdeal,
    Subquotient,
    borel_verdict,
    exchange_closure_ideal,
    generate_corpus,
    ideal_is_borel_type,
    is_strongly_stable_ideal,
    is_strongly_stable_module,
    torsion_identity_report,
    truncation_stability_degree,
)
from boreltype.errors import (
    DimensionMismatchError,
    InternalInconsistencyError,
    NotBorelTypeError,
    ZeroModuleError,
)

from .support import (
    gens_of,
    ideal_of,
    modules,
    monomial_ideals,
    raw_associated_primes,
    raw_borel_verdict,
    raw_exchange_closure,
    raw_ideal_is_borel_type,
    raw_ideals,
    raw_is_strongly_stable_ideal,
    raw_is_strongly_stable_module,
    raw_torsion_identity_report,
    x1_recipe_modules,
)


def I(nvars, *gens):
    return MonomialIdeal.from_text_lines(nvars, gens)


@st.composite
def borel_modules(draw, max_vars: int = 4):
    """A drawn module when it is of Borel type, else the quotient ring of the
    exchange closure of its denominator, which is strongly stable."""
    M = draw(modules(max_vars=max_vars))
    if M.is_zero() or not borel_verdict(M).is_borel:
        M = Subquotient.cyclic(exchange_closure_ideal(M.nvars, M.denominator.gens))
    return M


def closure_seeds(max_vars: int = 6):
    """One or two exponent tuples over 2..max_vars variables, small enough
    that the all-moves closure stays a few hundred tuples."""
    return st.integers(2, max_vars).flatmap(
        lambda n: raw_ideals(n, max_gens=2, max_exp=2 if n <= 4 else 1)
    )


@st.composite
def near_closures(draw):
    """The exchange closure of drawn seeds, strongly stable, or half of the
    time that closure less one minimal generator, which often is not."""
    seeds = draw(closure_seeds())
    n = len(seeds[0])
    gens = gens_of(exchange_closure_ideal(n, map(Monomial, seeds)))
    if len(gens) > 1 and draw(st.booleans()):
        gens.pop(draw(st.integers(0, len(gens) - 1)))
    return ideal_of(n, gens)


class TestVerdict:
    def test_golden_positive(self):
        v = borel_verdict(Subquotient.cyclic(I(2, "x1^2", "x1*x2")))
        assert v.is_borel
        assert v.by_saturation and v.by_pairwise and v.by_associated_primes
        assert [str(p) for p in v.primes] == ["x1", "x1,x2"]

    def test_golden_negative_with_witnesses(self):
        v = borel_verdict(Subquotient.cyclic(I(2, "x2")))
        assert not v.is_borel
        assert v.saturation_failures == (2,)
        assert v.pairwise_failures == ((1, 2),)
        assert [str(p) for p in v.prime_failures] == ["x2"]

    def test_golden_subquotient(self):
        v = borel_verdict(Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2")))
        assert v.is_borel
        assert [str(p) for p in v.primes] == ["x1,x2"]

    def test_zero_module_vacuous(self):
        v = borel_verdict(Subquotient(I(2, "x1"), I(2, "x1")))
        assert v.is_borel
        assert v.note == "zero module"

    @given(
        M=st.one_of(modules(min_vars=1, max_vars=5), borel_modules(max_vars=5))
    )
    @settings(deadline=None, max_examples=150)
    def test_matches_one_saturation_per_torsion_submodule(self, M):
        # the verdict folds the prefix saturations into one running meet; the
        # raw verdict saturates by each support ideal afresh
        borel_verdict.cache_clear()
        verdict, raw = borel_verdict(M), raw_borel_verdict(M)
        for field in dataclasses.fields(verdict):
            assert getattr(verdict, field.name) == getattr(raw, field.name), field.name

    @given(M=modules())
    @settings(deadline=None, max_examples=120)
    def test_three_criteria_agree(self, M):
        v = borel_verdict(M)
        assert v.by_saturation == v.by_pairwise == v.by_associated_primes

    @given(M=modules())
    @settings(deadline=None, max_examples=60)
    def test_heredity_and_two_out_of_three(self, M):
        # Ass(sub) <= Ass(M) <= Ass(sub) + Ass(quot): a Borel-type module has
        # Borel-type submodules, and Borel-type sub and quot give a Borel-type
        # module.  A quotient of a Borel-type module need not be Borel-type
        # (test_quotient_of_borel_type_need_not_be_borel_type).
        if M.is_zero():
            return
        witness = next(
            (g for g in M.numerator.gens if not M.denominator.member(g)), None
        )
        if witness is None:
            return
        middle = M.denominator.add(MonomialIdeal(M.nvars, (witness,)))
        sub = Subquotient(middle, M.denominator)
        quot = Subquotient(M.numerator, middle)
        whole = borel_verdict(M).is_borel
        sub_borel = borel_verdict(sub).is_borel
        parts = sub_borel and borel_verdict(quot).is_borel
        if whole:
            assert sub_borel
        if parts:
            assert whole

    def test_quotient_of_borel_type_need_not_be_borel_type(self):
        # (x1, x2, x3)/(x1) has Ass {(x1)}; its quotient by the submodule
        # generated by x3 is (x1, x2, x3)/(x1, x3), with Ass {(x1, x3)}
        M = Subquotient(I(3, "x1", "x2", "x3"), I(3, "x1"))
        middle = I(3, "x1", "x3")
        assert borel_verdict(M).is_borel
        assert borel_verdict(Subquotient(middle, M.denominator)).is_borel
        v = borel_verdict(Subquotient(M.numerator, middle))
        assert not v.is_borel
        assert [str(p) for p in v.prime_failures] == ["x1,x3"]


class TestIdealCriterion:
    def test_golden(self):
        assert ideal_is_borel_type(I(2, "x1^2", "x1*x2"))
        assert not ideal_is_borel_type(I(2, "x2^2"))
        assert ideal_is_borel_type(I(2, "x1", "x2"))

    def test_saturation_detail_of_the_negative_case(self):
        J = I(2, "x2^2")
        assert J.saturate((2,)) == MonomialIdeal.unit(2)
        # the saturation at (x1, x2) as borel_verdict folds it
        assert J.saturate((1,)).intersect(J.saturate((2,))) == J

    def test_zero_and_unit_rejected(self):
        with pytest.raises(ValueError):
            ideal_is_borel_type(MonomialIdeal.zero(2))
        with pytest.raises(ValueError):
            ideal_is_borel_type(MonomialIdeal.unit(2))

    @given(J=monomial_ideals())
    @settings(deadline=None, max_examples=80)
    def test_matches_module_route(self, J):
        assert ideal_is_borel_type(J) == borel_verdict(Subquotient.cyclic(J)).is_borel

    @given(J=st.one_of(monomial_ideals(max_vars=6), near_closures()))
    @settings(deadline=None, max_examples=150)
    def test_matches_all_pairs_reference(self, J):
        # the package tests the consecutive pairs (j - 1, j) only
        assert ideal_is_borel_type(J) == raw_ideal_is_borel_type(gens_of(J))

    @given(J=monomial_ideals())
    @settings(deadline=None, max_examples=80)
    def test_matches_associated_primes_by_box_search(self, J):
        # S/J is of Borel type exactly when each associated prime is an
        # initial segment; the primes here come from a witness search over
        # the exponent box, apart from both of the package's routes
        unit = [(0,) * J.nvars]
        primes = raw_associated_primes(unit, gens_of(J))
        initial = all(p == tuple(range(1, len(p) + 1)) for p in primes)
        assert ideal_is_borel_type(J) == initial

    @given(M=modules())
    @settings(deadline=None, max_examples=60)
    def test_ideal_pair_logic(self, M):
        # for J <= I proper nonzero: J Borel forces I/J Borel; and when both
        # I/J and I are Borel, J inherits it through 0 -> I/J -> S/J -> S/I
        if M.is_cyclic() or M.is_zero() or M.numerator.is_unit():
            return
        J, bigger = M.denominator, M.numerator
        if ideal_is_borel_type(J):
            assert borel_verdict(M).is_borel
        if borel_verdict(M).is_borel and ideal_is_borel_type(bigger):
            assert ideal_is_borel_type(J)

    def test_borel_quotient_of_borel_ring_need_not_come_from_borel_ideal(self):
        # the implication cannot be reversed: here J and I/J are both of
        # Borel type yet I is not, because S/I picks up the associated
        # prime (x1,x3), which no submodule of S/(x1) can see
        J = I(3, "x1")
        bigger = I(3, "x1", "x2*x3")
        assert ideal_is_borel_type(J)
        assert borel_verdict(Subquotient(bigger, J)).is_borel
        assert not ideal_is_borel_type(bigger)
        v = borel_verdict(Subquotient.cyclic(bigger))
        assert [str(p) for p in v.prime_failures] == ["x1,x3"]


class TestStronglyStable:
    def test_module_golden(self):
        assert is_strongly_stable_module(Subquotient.cyclic(I(2, "x1", "x2^2")))
        assert not is_strongly_stable_module(Subquotient.cyclic(I(2, "x2^2")))
        assert is_strongly_stable_module(Subquotient(I(2, "x1"), I(2, "x1")))

    def test_ideal_golden(self):
        assert is_strongly_stable_ideal(I(2, "x1", "x2^2"))
        assert not is_strongly_stable_ideal(I(2, "x2^2"))
        assert is_strongly_stable_ideal(I(2, "x1"))

    @given(J=monomial_ideals())
    @settings(deadline=None, max_examples=80)
    def test_ideal_module_agree(self, J):
        assert is_strongly_stable_ideal(J) == is_strongly_stable_module(
            Subquotient.cyclic(J)
        )

    @given(J=st.one_of(monomial_ideals(max_vars=6), near_closures()))
    @settings(deadline=None, max_examples=150)
    def test_ideal_matches_all_moves_reference(self, J):
        # the package tests the adjacent moves x_{i-1} * u / x_i only
        assert is_strongly_stable_ideal(J) == raw_is_strongly_stable_ideal(gens_of(J))

    @given(
        M=st.one_of(
            modules(max_vars=6),
            # the raw colons minimalize in quadratic time, and an x1-recipe
            # closure of exponents up to 3 in six variables can hold 1500
            # generators, so its exponents are capped
            x1_recipe_modules(min_vars=2, max_vars=5, max_exp=2),
            x1_recipe_modules(min_vars=2, max_vars=6, max_exp=1),
            near_closures().map(Subquotient.cyclic),
        )
    )
    @settings(deadline=None, max_examples=150)
    def test_module_matches_all_pairs_reference(self, M):
        # the package compares consecutive K_i only
        assert is_strongly_stable_module(M) == raw_is_strongly_stable_module(M)

    @given(M=modules())
    @settings(deadline=None, max_examples=80)
    def test_strongly_stable_implies_borel(self, M):
        if is_strongly_stable_module(M):
            assert borel_verdict(M).is_borel

    @given(J=monomial_ideals(max_exp=2))
    @settings(deadline=None, max_examples=40)
    def test_exchange_closure_is_strongly_stable(self, J):
        closed = exchange_closure_ideal(J.nvars, J.gens)
        assert is_strongly_stable_ideal(closed)
        assert closed.contains(J)

    @given(seeds=closure_seeds())
    @settings(deadline=None, max_examples=100)
    def test_exchange_closure_matches_all_moves_reference(self, seeds):
        # the package closes under the adjacent moves only
        n = len(seeds[0])
        closed = exchange_closure_ideal(n, [Monomial(u) for u in seeds])
        assert closed == ideal_of(n, raw_exchange_closure(seeds))

    def test_exchange_closure_golden(self):
        # x2*x3 moves to x1*x3, x2^2 and x1*x2, and those on to x1^2
        closed = exchange_closure_ideal(3, I(3, "x2*x3").gens)
        assert closed == I(3, "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3")
        assert exchange_closure_ideal(3, ()).is_zero()

    def test_exchange_closure_refuses_mixed_variable_counts(self):
        message = "^a monomial to close is not over 3 variables$"
        with pytest.raises(DimensionMismatchError, match=message):
            exchange_closure_ideal(3, I(2, "x2").gens)

    @pytest.mark.parametrize("nvars", [0, -2])
    def test_exchange_closure_refuses_fewer_than_one_variable(self, nvars):
        with pytest.raises(ValueError, match="^need at least one variable$"):
            exchange_closure_ideal(nvars, [])


def assert_least_degree_matches_scan(M, scan_to=6):
    """Subquotient.truncate, with each truncation's stability tested on all
    pairs by the raw reference, is the oracle: a degree the scan over
    e <= scan_to finds is the least degree, and a scan that finds none leaves
    the degree None or past scan_to."""
    found = next(
        (
            e
            for e in range(scan_to + 1)
            if raw_is_strongly_stable_module(M.truncate(e))
        ),
        None,
    )
    degree = truncation_stability_degree(M)
    if found is not None:
        assert degree == found, M
    else:
        assert degree is None or degree > scan_to, (M, degree)


class TestTruncationCriterion:
    def test_golden(self):
        M = Subquotient.cyclic(I(2, "x1^2", "x1*x2"))
        assert truncation_stability_degree(M) == 0

    def test_absent_for_non_borel(self):
        M = Subquotient.cyclic(I(2, "x2"))
        assert truncation_stability_degree(M) is None

    def test_zero_module(self):
        M = Subquotient(I(2, "x1"), I(2, "x1"))
        assert truncation_stability_degree(M) == 0

    def test_borel_but_not_stable_needs_positive_degree(self):
        # (x1^2, x2^2) is Borel type (Ass = {(x1,x2)}) but not strongly
        # stable (x1x2 missing); its truncation at degree 2 is
        J = I(2, "x1^2", "x2^2")
        M = Subquotient.cyclic(J)
        assert borel_verdict(M).is_borel
        assert not is_strongly_stable_module(M)
        e = truncation_stability_degree(M)
        assert e is not None and e >= 1

    @given(M=modules(max_vars=3))
    @settings(deadline=None, max_examples=40)
    def test_found_degree_implies_borel(self, M):
        e = truncation_stability_degree(M)
        if e is not None:
            assert borel_verdict(M).is_borel
            assert is_strongly_stable_module(M.truncate(e))

    def test_golden_subquotient_needs_positive_degree(self):
        # M = (x1)/(x1*x2, x1^3) has basis x1, x1^2.  x2 kills all of M but
        # x1 does not kill x1, so M and M_{>=1} are not strongly stable;
        # M_{>=2} is spanned by x1^2, which both variables kill.
        M = Subquotient(I(2, "x1"), I(2, "x1*x2", "x1^3"))
        assert not is_strongly_stable_module(M.truncate(1))
        assert is_strongly_stable_module(M.truncate(2))
        assert truncation_stability_degree(M) == 2

    @given(M=modules(max_vars=3))
    @settings(deadline=None, max_examples=60)
    def test_least_degree_matches_truncated_modules(self, M):
        assert_least_degree_matches_scan(M)

    def test_least_degree_matches_truncated_modules_in_four_variables(self):
        corpus = [
            M
            for seed in (1, 2, 3)
            for gen in ("random", "borel")
            for M in generate_corpus(seed, 40, gen, 4, 4)
            if not M.is_zero()
        ]
        assert len(corpus) == 224
        positive = [
            (Subquotient.cyclic(I(4, "x1^2", "x2^2", "x3^2", "x4^2")), 4),
            (Subquotient.cyclic(I(4, "x1^3", "x2^2", "x3^2", "x4^2")), 5),
            (Subquotient(I(4, "x1"), I(4, "x1*x2", "x1*x3", "x1*x4", "x1^3")), 2),
        ]
        for M in corpus + [M for M, _ in positive]:
            assert_least_degree_matches_scan(M)
        assert [truncation_stability_degree(M) for M, _ in positive] == [
            e for _, e in positive
        ]

    def test_borel_type_without_stable_truncation(self):
        # a stable truncation is sufficient for Borel type, not necessary:
        # S/(x2, x1^2) has Ass = {(x1, x2)}, but x3^e is killed by x2 and not
        # by x1 in every degree e
        M = Subquotient.cyclic(I(3, "x2", "x1^2"))
        assert borel_verdict(M).is_borel
        assert not is_strongly_stable_module(M)
        assert truncation_stability_degree(M) is None

    @pytest.mark.parametrize(
        "M, degree",
        [
            (Subquotient.cyclic(I(2, "x1^2", "x1*x2")), 0),
            # a positive degree is checked against the verdict too
            (Subquotient(I(2, "x1"), I(2, "x1*x2", "x1^3")), 2),
        ],
    )
    def test_stable_truncation_of_non_borel_verdict_raises(self, monkeypatch, M, degree):
        import boreltype.borel as borel_module

        verdict = dataclasses.replace(borel_verdict(M), by_saturation=False)
        monkeypatch.setattr(borel_module, "borel_verdict", lambda module: verdict)
        with pytest.raises(InternalInconsistencyError, match=f"degree {degree} "):
            truncation_stability_degree(M)


class TestTorsionIdentities:
    def test_golden(self):
        M = Subquotient.cyclic(I(2, "x1^2", "x1*x2"))
        report = torsion_identity_report(M)
        assert report["consecutive_products"]
        assert report["support_reduction"]
        assert report["counterexample"] is None
        # the identity behind the report, spelled out once: torsion at x1*x2
        # equals torsion at x1, and both are the whole module here
        at_product = M.torsion_submodule((1, 2))
        at_least_var = M.torsion_submodule((1,))
        assert at_product == at_least_var == MonomialIdeal.unit(2)

    def test_requires_borel(self):
        with pytest.raises(NotBorelTypeError):
            torsion_identity_report(Subquotient.cyclic(I(2, "x2")))

    def test_refuses_the_zero_module(self):
        with pytest.raises(ZeroModuleError):
            torsion_identity_report(Subquotient(I(2, "x1"), I(2, "x1")))

    @given(M=modules(max_vars=3))
    @settings(deadline=None, max_examples=40)
    def test_identities_hold_on_borel_instances(self, M):
        if M.is_zero() or not borel_verdict(M).is_borel:
            return
        report = torsion_identity_report(M)
        assert report["consecutive_products"] and report["support_reduction"]

    @given(M=borel_modules())
    @settings(deadline=None, max_examples=60)
    def test_matches_one_torsion_submodule_per_monomial(self, M):
        assert torsion_identity_report(M) == raw_torsion_identity_report(M)

    def test_one_torsion_submodule_per_distinct_support(self, monkeypatch):
        # n = 4: the 10 consecutive supports, plus {1,3}, {1,4} and {2,4}
        # from the degree-two samples; the per-monomial reference makes 42
        M = Subquotient.cyclic(exchange_closure_ideal(4, I(4, "x2*x3^2", "x4^3").gens))
        borel_verdict(M)  # cached before counting
        supports = []
        original = Subquotient.torsion_submodule

        def counting(module, support):
            supports.append(support)
            return original(module, support)

        monkeypatch.setattr(Subquotient, "torsion_submodule", counting)
        report = torsion_identity_report(M)
        assert report["counterexample"] is None
        assert len(supports) == len(set(supports)) == 13
        supports.clear()
        raw_torsion_identity_report(M)
        assert len(supports) == 42

    @pytest.mark.parametrize(
        "corrupted, counterexample",
        [
            ((1,), {"kind": "product", "j": 1, "p": 1}),
            ((2,), {"kind": "product", "j": 2, "p": 1}),
            ((3,), None),
            ((1, 2), {"kind": "product", "j": 1, "p": 1}),
            ((2, 3), {"kind": "product", "j": 2, "p": 1}),
            # the one support no consecutive product reaches: only the
            # sample pairs test it
            ((1, 3), {"kind": "monomial", "u": "x1*x3"}),
            ((1, 2, 3), {"kind": "product", "j": 1, "p": 2}),
        ],
    )
    def test_corrupted_support_gives_the_reference_counterexample(
        self, monkeypatch, corrupted, counterexample
    ):
        M = Subquotient.cyclic(I(3, "x1^2", "x1*x2", "x2^3", "x1*x3"))
        borel_verdict(M)  # cached before the corruption
        original = Subquotient.torsion_submodule

        def corrupting(module, support):
            if support == corrupted:
                return MonomialIdeal.zero(module.nvars)
            return original(module, support)

        monkeypatch.setattr(Subquotient, "torsion_submodule", corrupting)
        report = torsion_identity_report(M)
        assert report == raw_torsion_identity_report(M)
        # torsion at x3 alone is only ever compared with itself
        assert report["counterexample"] == counterexample
