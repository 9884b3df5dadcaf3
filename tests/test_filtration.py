"""Pretty clean prime filtrations and their independent verification."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from boreltype import (
    FiltrationStep,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    PrimeFiltration,
    Subquotient,
    borel_verdict,
    build_chain,
    filtration_length_report,
    pretty_clean_filtration,
    verify_filtration,
)
from boreltype.errors import NotBorelTypeError, WitnessExhaustionError, ZeroModuleError
from boreltype.filtration import primes_never_grow

from .support import gens_of, ideal_of, modules, raw_primes_never_grow, raw_witnesses


def I(nvars, *gens):
    return MonomialIdeal.from_text_lines(nvars, gens)


def cyclic(nvars, *gens):
    return Subquotient.cyclic(I(nvars, *gens))


def P(nvars, *variables):
    return MonomialPrime(nvars, tuple(variables))


class TestBuilderGoldens:
    def test_two_factor_module(self):
        f = pretty_clean_filtration(cyclic(2, "x1^2", "x1*x2"))
        got = [(str(s.witness), s.prime) for s in f.steps]
        assert got == [("x1", P(2, 1, 2)), ("1", P(2, 1))]
        assert f.steps[0].ideal == I(2, "x1")
        assert f.steps[1].ideal == MonomialIdeal.unit(2)

    def test_maximal_ideal_is_clean(self):
        f = pretty_clean_filtration(cyclic(2, "x1", "x2"))
        assert [(str(s.witness), s.prime) for s in f.steps] == [("1", P(2, 1, 2))]
        report = verify_filtration(f)
        assert report["pretty_clean"] and report["clean"]

    def test_subquotient_single_factor(self):
        f = pretty_clean_filtration(Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2")))
        assert [(str(s.witness), s.prime) for s in f.steps] == [("x1", P(2, 1, 2))]

    def test_thick_artinian_line(self):
        f = pretty_clean_filtration(cyclic(2, "x1^2", "x2"))
        assert [(str(s.witness), s.prime) for s in f.steps] == [
            ("x1", P(2, 1, 2)),
            ("1", P(2, 1, 2)),
        ]
        report = verify_filtration(f)
        assert report["pretty_clean"] and report["clean"]

    def test_clean_examples_in_one_and_two_variables(self):
        for module in (
            cyclic(2, "x1"),
            Subquotient(MonomialIdeal.unit(1), I(1, "x1")),
            cyclic(2, "x1^2"),
            Subquotient(MonomialIdeal.unit(1), I(1, "x1^2")),
        ):
            report = verify_filtration(pretty_clean_filtration(module))
            assert report["pretty_clean"], module
            assert report["clean"], module

    def test_zero_module_rejected(self):
        with pytest.raises(ZeroModuleError):
            pretty_clean_filtration(Subquotient(I(2, "x1"), I(2, "x1")))

    def test_non_borel_rejected(self):
        with pytest.raises(NotBorelTypeError):
            pretty_clean_filtration(cyclic(2, "x2"))


class TestVerifierIndependence:
    def test_hand_built_filtration_of_a_non_borel_module(self):
        # the verifier takes any filtration, including ones the builder
        # would refuse to construct: S/(x1*x2) is not of Borel type, yet
        # 0 < (x1)/(x1*x2) < S/(x1*x2) is a clean prime filtration
        base = cyclic(2, "x1*x2")
        steps = (
            FiltrationStep(I(2, "x1"), Monomial((1, 0)), P(2, 2)),
            FiltrationStep(MonomialIdeal.unit(2), Monomial((0, 0)), P(2, 1)),
        )
        report = verify_filtration(PrimeFiltration(base, steps))
        assert report["steps_ok"]
        assert report["pretty_clean"]
        assert report["support"] == ["x1", "x2"]
        assert report["support_equals_ass"]
        assert report["clean"]

    def test_wrong_prime_is_flagged(self):
        base = cyclic(2, "x1", "x2")
        steps = (FiltrationStep(MonomialIdeal.unit(2), Monomial((0, 0)), P(2, 1)),)
        report = verify_filtration(PrimeFiltration(base, steps))
        assert not report["steps_ok"]
        assert any("colon" in v for v in report["violations"])

    def test_truncated_filtration_is_flagged(self):
        base = cyclic(2, "x1^2", "x1*x2")
        steps = (FiltrationStep(I(2, "x1"), Monomial((1, 0)), P(2, 1, 2)),)
        report = verify_filtration(PrimeFiltration(base, steps))
        assert any("does not end" in v for v in report["violations"])

    def test_increasing_primes_are_valid_but_not_pretty_clean(self):
        # same module admits a perfectly valid prime filtration that peels
        # the small prime first; every step checks out but the prime order
        # makes it longer and disqualifies it from pretty cleanness
        base = cyclic(2, "x1^2", "x1*x2")
        steps = (
            FiltrationStep(I(2, "x1^2", "x2"), Monomial((0, 1)), P(2, 1)),
            FiltrationStep(I(2, "x1", "x2"), Monomial((1, 0)), P(2, 1, 2)),
            FiltrationStep(MonomialIdeal.unit(2), Monomial((0, 0)), P(2, 1, 2)),
        )
        report = verify_filtration(PrimeFiltration(base, steps))
        assert report["steps_ok"], report["violations"]
        assert not report["pretty_clean"]
        assert report["length"] == 3
        assert len(pretty_clean_filtration(base)) == 2


@st.composite
def prime_sequences(draw):
    """A variable count and a sequence of primes, each a nonempty variable set."""
    nvars = draw(st.integers(1, 4))
    subsets = st.sets(st.integers(1, nvars), min_size=1)
    return nvars, draw(st.lists(subsets, max_size=30))


class TestPrettyCleanRule:
    """verify_filtration compares distinct primes by first and last position;
    it must agree with the rule over every pair of steps."""

    @given(drawn=prime_sequences())
    @settings(max_examples=300)
    def test_matches_pairwise_rule(self, drawn):
        nvars, sets = drawn
        primes = [MonomialPrime(nvars, tuple(s)) for s in sets]
        assert primes_never_grow(primes) == raw_primes_never_grow(sets)

    def test_golden_later_larger_prime_fails(self):
        big, small, other = P(3, 1, 2), P(3, 1), P(3, 3)
        assert primes_never_grow([big, big, small, other, small])
        assert primes_never_grow([])
        # x1 first occurs after (x1, x2) first occurs, but before its last
        # occurrence; and x1 last occurs after (x1, x2) last occurs
        assert not primes_never_grow([big, small, small, big])
        assert not primes_never_grow([big, small, big, small])
        assert not primes_never_grow([other, small, P(3, 1, 3)])


class TestLengthReport:
    def test_golden(self):
        M = cyclic(2, "x1^2", "x1*x2")
        report = filtration_length_report(
            pretty_clean_filtration(M), build_chain(M)
        )
        assert report["ok"]
        assert report["total_length"] == 2
        assert [e["factors"] for e in report["entries"]] == [1, 1]

    def test_golden_maximal(self):
        M = cyclic(2, "x1", "x2")
        report = filtration_length_report(pretty_clean_filtration(M), build_chain(M))
        assert report["ok"] and report["total_length"] == 1

    def test_golden_thick(self):
        M = cyclic(2, "x1^2", "x2")
        report = filtration_length_report(pretty_clean_filtration(M), build_chain(M))
        assert report["ok"] and report["total_length"] == 2


class TestCorpus:
    def test_build_verify_and_length(self, borel_corpus):
        for M in borel_corpus:
            if M.is_zero():
                continue
            f = pretty_clean_filtration(M)
            report = verify_filtration(f)
            assert report["pretty_clean"], (M, report["violations"])
            assert report["support_equals_ass"], (M, report)
            length = filtration_length_report(f, build_chain(M))
            assert length["ok"], (M, length)

    def test_witness_order_does_not_change_length(self, borel_corpus):
        rng = random.Random(4242)
        sample = [M for M in borel_corpus if not M.is_zero()][:25]
        for M in sample:
            f = pretty_clean_filtration(M)
            g = _shuffled_witness_filtration(M, rng)
            assert len(g) == len(f)
            report = verify_filtration(g)
            assert report["pretty_clean"] and report["support_equals_ass"]


class TestWitnessParity:
    """The builder must pick exactly the witnesses of the exponent-box scan in
    tests/support.py, not merely valid ones: a wrong tie-break between two
    admissible witnesses passes every check of verify_filtration."""

    @staticmethod
    def matches_box_scan(M):
        """Compare with the raw box scan; returns where the scan got stuck."""
        n = M.nvars
        chain = [(s.variable_index, gens_of(s.ideal)) for s in build_chain(M).steps]
        witnesses, stuck = raw_witnesses(gens_of(M.denominator), chain)
        if stuck is None:
            steps = pretty_clean_filtration(M).steps
            assert [s.witness.exps for s in steps] == witnesses
            return None
        r, current, target = stuck
        with pytest.raises(WitnessExhaustionError) as raised:
            pretty_clean_filtration(M)
        assert str(raised.value) == (
            f"no witness with colon ({P(n, *range(1, r + 1))}) while extending "
            f"{ideal_of(n, current)} toward {ideal_of(n, target)}"
        )
        return stuck

    # about one draw of modules() in eight is a nonzero Borel-type module
    @given(M=modules())
    @settings(
        deadline=None,
        max_examples=60,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    def test_borel_type_modules(self, M):
        assume(not M.is_zero() and borel_verdict(M).is_borel)
        self.matches_box_scan(M)

    def test_known_module_without_pretty_clean_filtration(self):
        # of Borel type but not sequentially Cohen-Macaulay
        M = Subquotient(I(4, "x4^2", "x1^2*x3*x4", "x1^3"), I(4, "x1^3"))
        assert self.matches_box_scan(M) is not None


def _shuffled_witness_filtration(module, rng) -> PrimeFiltration:
    """Builder variant that scans witness candidates in random order."""
    chain = build_chain(module)
    n = module.nvars
    steps = []
    current = module.denominator
    for step in chain.steps:
        prime = MonomialPrime(n, tuple(range(1, step.variable_index + 1)))
        prime_ideal = prime.to_ideal()
        target = step.ideal
        while current != target:
            bounds = tuple(
                max(a, b)
                for a, b in zip(target.max_exponents(), current.max_exponents())
            )
            candidates = [
                Monomial(e) for e in itertools.product(*(range(b + 1) for b in bounds))
            ]
            rng.shuffle(candidates)
            witness = next(
                m
                for m in candidates
                if target.member(m)
                and not current.member(m)
                and current.colon_monomial(m) == prime_ideal
            )
            current = current.add(MonomialIdeal.principal(witness))
            steps.append(FiltrationStep(current, witness, prime))
    return PrimeFiltration(module, tuple(steps))
