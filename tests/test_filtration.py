"""Pretty clean prime filtrations and their independent verification."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from boreltype import (
    ChainStep,
    FiltrationStep,
    Monomial,
    MonomialIdeal,
    MonomialPrime,
    PrimeFiltration,
    SequentialChain,
    Subquotient,
    borel_verdict,
    build_chain,
    exchange_closure_ideal,
    filtration_length_report,
    generate_corpus,
    pretty_clean_filtration,
    sequential_cm_report,
    verify_filtration,
)
from boreltype import filtration as filtration_module
from boreltype import monomial as monomial_module
from boreltype.chain import require_sequentially_cm
from boreltype.errors import (
    InternalInconsistencyError,
    NotBorelTypeError,
    NotSequentiallyCMError,
    ZeroModuleError,
)
from boreltype.filtration import primes_never_grow

from .support import (
    exponent_tuples,
    gens_of,
    ideal_of,
    modules,
    nonunit_tuples,
    raw_ideals,
    raw_primes_never_grow,
    raw_step_violations,
    raw_witnesses,
)


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
def filtration_steps(draw):
    """A nonzero previous ideal and one step over it: a witness drawn inside
    or outside it, any prime (the true colon when that is a prime), and the
    true extension or a perturbed ideal."""
    nvars = draw(st.integers(1, 5))
    max_exp = 3 if nvars <= 3 else 2
    previous = ideal_of(nvars, draw(raw_ideals(nvars, max_exp=max_exp)))
    if draw(st.booleans()):
        g = draw(st.sampled_from(previous.gens))
        witness = g.mul(Monomial(draw(exponent_tuples(nvars, 1))))
    else:
        witness = Monomial(draw(exponent_tuples(nvars, max_exp)))
    colon = previous.colon_monomial(witness)
    if all(g.degree == 1 for g in colon.gens) and draw(st.booleans()):
        variables = [g.exps.index(1) + 1 for g in colon.gens]
    else:
        variables = draw(st.sets(st.integers(1, nvars), min_size=1))
    extension = MonomialIdeal(nvars, previous.gens + (witness,))
    kind = draw(st.sampled_from(["true", "previous", "extra", "dropped"]))
    if kind == "previous":
        ideal = previous
    elif kind == "extra":
        ideal = extension.add(ideal_of(nvars, [draw(nonunit_tuples(nvars, max_exp))]))
    elif kind == "dropped":
        ideal = MonomialIdeal(nvars, extension.gens[1:])
    else:
        ideal = extension
    return previous, FiltrationStep(ideal, witness, P(nvars, *variables))


class TestStepChecks:
    """verify_filtration decides each step from exponent tuples; its
    violations must be those of the ideals the step defines."""

    @staticmethod
    def violations(base, *steps):
        return verify_filtration(PrimeFiltration(base, steps))["violations"]

    @given(drawn=filtration_steps())
    @settings(deadline=None, max_examples=400)
    def test_matches_the_ideal_rebuild(self, drawn):
        previous, step = drawn
        base = Subquotient(previous.add(step.ideal), previous)
        expected = raw_step_violations(previous, step, 1)
        if step.ideal != base.numerator:
            expected.append("filtration does not end at the whole module")
        assert self.violations(base, step) == expected

    def test_golden_ideal_is_not_the_extension(self):
        # (x1^2, x1*x2) + (x1) is (x1), not (x1, x2); the colon is exact
        base = Subquotient(I(2, "x1", "x2"), I(2, "x1^2", "x1*x2"))
        step = FiltrationStep(I(2, "x1", "x2"), Monomial((1, 0)), P(2, 1, 2))
        assert self.violations(base, step) == [
            "step 1: ideal is not the previous one plus witness"
        ]

    def test_golden_witness_already_inside(self):
        # x1 lies in (x1, x2), so the extension is (x1, x2) itself and the
        # colon is the unit ideal
        base = cyclic(2, "x1", "x2")
        steps = (
            FiltrationStep(I(2, "x1", "x2"), Monomial((1, 0)), P(2, 1, 2)),
            FiltrationStep(MonomialIdeal.unit(2), Monomial((0, 0)), P(2, 1, 2)),
        )
        assert self.violations(base, *steps) == [
            "step 1: witness already lies in the previous ideal",
            "step 1: colon is not exactly (x1,x2)",
        ]

    @pytest.mark.parametrize(
        "gens, witness, variables",
        [
            (("x1", "x2"), (0, 0), (1,)),  # colon (x1, x2) is too large
            (("x1",), (0, 0), (1, 2)),  # colon (x1) is too small
            (("x1^2",), (0, 0), (1,)),  # colon (x1^2)
            (("x1^2", "x2"), (0, 0), (1, 2)),  # colon (x1^2, x2)
            (("x1^3", "x2"), (1, 0), (1, 2)),  # colon (x1^2, x2)
        ],
    )
    def test_golden_colon_is_not_the_prime(self, gens, witness, variables):
        previous = I(2, *gens)
        w = Monomial(witness)
        step = FiltrationStep(previous.add(MonomialIdeal.principal(w)), w, P(2, *variables))
        base = Subquotient(step.ideal, previous)
        assert self.violations(base, step) == [
            f"step 1: colon is not exactly ({step.prime})"
        ]

    def test_golden_exact_colon_above_a_nonzero_exponent(self):
        # (x1^3, x2) : x1^2 = (x1, x2): x1^3 exceeds x1^2 by one in x1 only
        base = Subquotient(I(2, "x1^2", "x2"), I(2, "x1^3", "x2"))
        step = FiltrationStep(I(2, "x1^2", "x2"), Monomial((2, 0)), P(2, 1, 2))
        assert self.violations(base, step) == []


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
        """Compare with the raw box scan; returns where the scan got stuck.

        The scan gets stuck at the prime (x1..xr) exactly when the builder
        refuses the module at the chain step with index r."""
        n = M.nvars
        built = build_chain(M)
        chain = [(s.variable_index, gens_of(s.ideal)) for s in built.steps]
        witnesses, stuck = raw_witnesses(gens_of(M.denominator), chain)
        if stuck is None:
            steps = pretty_clean_filtration(M).steps
            assert [s.witness.exps for s in steps] == witnesses
            return None
        r = stuck[0]
        trailing = ", ".join(f"x{i}" for i in range(r + 1, n + 1))
        with pytest.raises(NotSequentiallyCMError) as raised:
            pretty_clean_filtration(M)
        assert str(raised.value) == (
            "filtration needs a sequentially Cohen-Macaulay module; at chain "
            f"step {built.indices().index(r) + 1}, {trailing} is not a regular sequence "
            "on the step quotient"
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

    # Every distinct Borel-type module of generate_corpus(seed, 60, "random",
    # n, 4), seeds 1-8, n = 2-5, that is not sequentially Cohen-Macaulay: its
    # one chain step, at x1, fails the regular-sequence certificate, so the
    # builder must refuse it exactly where the box scan gets stuck
    @pytest.mark.parametrize(
        "nvars, numerator, denominator",
        [
            (3, ("x3", "x2", "x1^2"), ("x1^2",)),  # seed 1
            (5, ("x5", "x2*x4^2", "x1"), ("x1",)),  # seed 1
            # the scan first takes x2^3*x3*x4, which is not a standard monomial
            # of the step's reduced quotient, and only then gets stuck
            (4, ("x2^3*x4", "x1*x2*x3*x4", "x1^2"), ("x1^2",)),  # seed 2
            (5, ("x4^2", "x2", "x1"), ("x1",)),  # seed 4
            (4, ("x4^2", "x1^2*x3*x4", "x1^3"), ("x1^3",)),  # seed 5
            (3, ("x1*x2*x3^2", "x1*x2^2", "x1^3*x2"), ("x1^3*x2",)),  # seed 6
            (5, ("x5", "x2*x3*x4^2", "x1^2"), ("x1^2",)),  # seed 6
        ],
    )
    def test_not_sequentially_cohen_macaulay(self, nvars, numerator, denominator):
        M = Subquotient(I(nvars, *numerator), I(nvars, *denominator))
        assert borel_verdict(M).is_borel
        assert self.matches_box_scan(M) is not None

    @pytest.mark.parametrize(
        "nvars, numerator, denominator",
        [
            # from generate_corpus(1, 60, "random", 2, 4) and (2, 60, "random",
            # 5, 4): some m x_i of a certified step lies in x_j T for a
            # trailing x_j, so its owner is found by stripping x_j
            (2, ("x2^2", "x1*x2"), ("x1^3*x2",)),
            (5, ("x3*x5", "x2", "x1"), ("x2^2", "x1")),
        ],
    )
    def test_owner_found_by_stripping_trailing_variables(
        self, nvars, numerator, denominator
    ):
        M = Subquotient(I(nvars, *numerator), I(nvars, *denominator))
        assert self.matches_box_scan(M) is None

    @given(data=st.data())
    @settings(deadline=None, max_examples=60)
    def test_strongly_stable_modules(self, data):
        # S/J and (J + K)/J for a strongly stable J: of Borel type, as every
        # associated prime of a submodule of S/J is one of S/J; often with
        # several chain steps, and now and then with an owner found by
        # stripping or a step that is not Cohen-Macaulay
        nvars = data.draw(st.integers(3, 5))
        degree = 8 - nvars

        def monomials(min_size, max_size):
            variables = st.lists(st.integers(0, nvars - 1), min_size=1, max_size=degree)
            drawn = data.draw(st.lists(variables, min_size=min_size, max_size=max_size))
            return [Monomial(tuple(v.count(i) for i in range(nvars))) for v in drawn]

        J = exchange_closure_ideal(nvars, monomials(1, 3))
        if data.draw(st.booleans()):
            M = Subquotient.cyclic(J)
        else:
            M = Subquotient(J.add(MonomialIdeal(nvars, tuple(monomials(1, 2)))), J)
        assume(not M.is_zero())
        self.matches_box_scan(M)

    @given(data=st.data())
    @settings(deadline=None, max_examples=40)
    def test_artinian_subquotients(self, data):
        # pure powers make the module Artinian: one chain step at (x1..xn),
        # with a witness per standard monomial
        nvars = data.draw(st.integers(2, 4))
        cap = {2: 6, 3: 4, 4: 3}[nvars]
        powers = [
            tuple(data.draw(st.integers(1, cap)) if j == i else 0 for j in range(nvars))
            for i in range(nvars)
        ]
        extra = data.draw(st.lists(nonunit_tuples(nvars, cap), max_size=3))
        denominator = ideal_of(nvars, powers + extra)
        if data.draw(st.booleans()):
            M = Subquotient.cyclic(denominator)
        else:
            tops = data.draw(st.lists(exponent_tuples(nvars, cap), min_size=1, max_size=2))
            M = Subquotient(denominator.add(ideal_of(nvars, tops)), denominator)
        assume(not M.is_zero())
        assert self.matches_box_scan(M) is None


def _builder_calls(monkeypatch, M, owner, name):
    """The filtration's length and how often the builder calls owner.name,
    with the verdict, the chain (its steps carry their quotients) and its
    certificate cached first, so that only the builder's own calls are
    counted."""
    borel_verdict(M)
    sequential_cm_report(build_chain(M))
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    with monkeypatch.context() as patched:
        patched.setattr(owner, name, counted)
        length = len(pretty_clean_filtration(M))
    return length, len(calls)


class TestStanleyWitnesses:
    def test_intersections_do_not_grow_with_length(self, monkeypatch):
        # on certified steps the witnesses come from the standard monomials,
        # with no ideal intersection per witness
        def build(a):
            M = cyclic(3, f"x1^{a}", f"x2^{a}", f"x3^{a}", "x1*x2*x3")
            return _builder_calls(monkeypatch, M, MonomialIdeal, "intersect")

        (short, few), (long, many) = build(3), build(6)
        assert (short, long) == (19, 91)
        assert few == many

    def test_minimalizations_do_not_grow_with_length(self, monkeypatch):
        # each witness is placed by MonomialIdeal.add_monomial, one pass over
        # the current generators, not by rebuilding and minimalizing the
        # whole ideal through the constructor
        def build(a):
            M = cyclic(3, f"x1^{a}", f"x2^{a}", f"x3^{a}")
            return _builder_calls(monkeypatch, M, monomial_module, "_minimal_exps")

        (short, few), (long, many) = build(4), build(6)
        assert (short, long) == (64, 216)
        assert few == many

    def test_steps_match_the_validating_constructor(self):
        # every step ideal is previous + (witness) as the constructor builds
        # it, over each sequentially Cohen-Macaulay Borel-type module of the
        # seeded corpora
        checked = 0
        for seed, generator, nvars in itertools.product(
            range(1, 6), ("random", "borel"), (3, 4)
        ):
            for M in generate_corpus(seed, 100, generator, nvars, 4):
                if M.is_zero() or not borel_verdict(M).is_borel:
                    continue
                try:
                    f = pretty_clean_filtration(M)
                except NotSequentiallyCMError:
                    continue
                previous = M.denominator
                for step in f.steps:
                    rebuilt = MonomialIdeal(nvars, previous.gens + (step.witness,))
                    assert step.ideal.gens == rebuilt.gens, (M, step.witness)
                    previous = step.ideal
                checked += 1
        assert checked == 1118

    def test_non_artinian_reduction_of_a_certified_step_is_refused(self, monkeypatch):
        # a chain whose only step claims r = n on S/(x1): the step passes the
        # (empty) regular-sequence test, but its reduced quotient K[x2] is
        # infinite, so enumerating its standard monomials would never end.
        # The rung's dimension check refuses this chain first, so it is
        # patched out to reach the builder's own guard
        M = cyclic(2, "x1")
        quotient = Subquotient(MonomialIdeal.unit(2), M.denominator)
        step = ChainStep(2, quotient.numerator, quotient, quotient.artinian_reduction(2))
        fake = SequentialChain(M, (step,))
        with pytest.raises(InternalInconsistencyError, match="dimensions"):
            require_sequentially_cm(fake, "filtration")
        monkeypatch.setattr(filtration_module, "build_chain", lambda module: fake)
        monkeypatch.setattr(
            filtration_module, "require_sequentially_cm", lambda chain, command: None
        )
        with pytest.raises(InternalInconsistencyError, match="is not Artinian"):
            pretty_clean_filtration(M)


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
