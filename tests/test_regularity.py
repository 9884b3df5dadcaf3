"""Regularity via the chain route, cross-checked against the Betti oracle."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boreltype import (
    Monomial,
    MonomialIdeal,
    Subquotient,
    betti_table,
    borel_verdict,
    build_chain,
    generate_corpus,
    regularity,
    run_check,
)
from boreltype.checks import CheckOptions
from boreltype.errors import NotBorelTypeError, NotSequentiallyCMError, ZeroModuleError
from boreltype.monomial import box_size

from .support import gens_of, raw_witnesses


def I(nvars, *gens):
    return MonomialIdeal.from_text_lines(nvars, gens)


def cyclic(nvars, *gens):
    return Subquotient.cyclic(I(nvars, *gens))


class TestGoldenValues:
    def test_two_step_module(self):
        report = regularity(cyclic(2, "x1^2", "x1*x2"))
        assert report.regularity == 1
        assert report.dim == 1 and report.depth == 0
        got = [
            (s.variable_index, s.top_degree, s.quotient_dim, s.a_invariant)
            for s in report.steps
        ]
        assert got == [(2, 1, 0, 1), (1, 0, 1, -1)]

    def test_principal_variable(self):
        report = regularity(cyclic(2, "x1"))
        assert report.regularity == 0
        assert report.dim == 1 and report.depth == 1

    def test_maximal_ideal(self):
        report = regularity(cyclic(2, "x1", "x2"))
        assert report.regularity == 0
        assert report.dim == 0 and report.depth == 0

    def test_subquotient(self):
        report = regularity(Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2")))
        assert report.regularity == 1
        assert report.dim == 0 and report.depth == 0

    def test_power_of_variable(self):
        report = regularity(cyclic(2, "x1^3"))
        assert report.regularity == 2

    def test_zero_module_rejected(self):
        with pytest.raises(ZeroModuleError):
            regularity(Subquotient(I(2, "x1"), I(2, "x1")))

    def test_non_borel_rejected(self):
        with pytest.raises(NotBorelTypeError):
            regularity(cyclic(2, "x2"))

    @pytest.mark.parametrize(
        "nvars, numerator, trailing",
        [
            # the complete intersection (x3*x4, x2^2) over K[x2, x3, x4] has
            # regularity 3 and depth 2; its one chain step, at x1, would read
            # regularity 2 and depth 3
            (4, ("x3*x4", "x2^2", "x1"), "x2, x3, x4"),
            # the maximal ideal of K[x2, x3]
            (3, ("x1", "x2", "x3"), "x2, x3"),
        ],
    )
    def test_not_sequentially_cohen_macaulay_rejected(self, nvars, numerator, trailing):
        M = Subquotient(I(nvars, *numerator), I(nvars, "x1"))
        assert borel_verdict(M).is_borel
        with pytest.raises(NotSequentiallyCMError) as raised:
            regularity(M)
        assert str(raised.value) == (
            "regularity needs a sequentially Cohen-Macaulay module; at chain "
            f"step 1, {trailing} is not a regular sequence on the step quotient"
        )


def _oracle_checks(module, **options):
    report, code = run_check(module, CheckOptions(**options))
    checks = {c["name"]: c for c in report["checks"]}
    return code, checks["regularity_vs_oracle"], checks["depth_vs_oracle"]


class TestOracleCheck:
    def test_golden_agreement(self):
        code, reg, depth = _oracle_checks(cyclic(2, "x1^2", "x1*x2"))
        assert code == 0
        assert reg["status"] == "pass" and depth["status"] == "pass"
        assert reg["detail"] == {"chain": 1, "oracle": 1}
        assert depth["detail"] == {"chain": 0, "oracle": 0}

    def test_guard_skips(self):
        code, reg, depth = _oracle_checks(cyclic(2, "x1^2", "x1*x2"), oracle_guard=1)
        assert code == 0
        assert reg["status"] == "skipped" and depth["status"] == "skipped"
        assert "exceeds the guard 1" in reg["detail"]
        assert regularity(cyclic(2, "x1^2", "x1*x2")).regularity == 1

    def test_non_cyclic_rejected(self):
        # the oracle handles S/I only; a subquotient gets no oracle verdict
        M = Subquotient(I(2, "x1"), I(2, "x1^2", "x1*x2"))
        code, reg, depth = _oracle_checks(M)
        assert code == 0
        assert reg["status"] == "not_applicable"
        assert depth["status"] == "not_applicable"

    def test_oracle_alone_on_non_borel_input(self):
        # the chain route refuses S/(x1*x2) since (x2) is an associated
        # prime, but the homological value is still well defined
        with pytest.raises(NotBorelTypeError):
            regularity(cyclic(2, "x1*x2"))
        t = betti_table(I(2, "x1*x2"))
        assert (t.regularity(), t.projective_dimension(), t.depth()) == (1, 1, 1)

    def test_f2_field_agrees_on_golden(self):
        code, reg, depth = _oracle_checks(cyclic(2, "x1^2", "x1*x2"), field="f2")
        assert code == 0
        assert reg["status"] == "pass" and depth["status"] == "pass"


class TestCorpusProperties:
    def test_oracle_agreement_sample(self, borel_corpus):
        checked = 0
        for M in borel_corpus:
            if M.is_zero() or not M.is_cyclic():
                continue
            if box_size(e + 1 for e in M.denominator.max_exponents()) > 4096:
                continue
            report = regularity(M)
            table = betti_table(M.denominator)
            assert report.regularity == table.regularity(), (M, report)
            assert report.depth == table.depth(), (M, report)
            checked += 1
            if checked >= 40:
                break
        assert checked >= 20

    def test_reg_at_least_max_generator_degree_minus_one(self, borel_corpus):
        for M in borel_corpus:
            if M.is_zero() or not M.is_cyclic():
                continue
            report = regularity(M)
            assert report.regularity >= M.denominator.max_gen_degree() - 1

    def test_refuses_exactly_where_the_box_scan_gets_stuck(self):
        # a Borel-type module without a pretty clean filtration is not
        # sequentially Cohen-Macaulay, and the chain does not give its
        # regularity: regularity() must refuse exactly those, at the chain
        # step whose prime the witness scan of tests/support.py gets stuck at
        refused = 0
        for seed in range(1, 6):
            for nvars in (3, 4):
                for M in generate_corpus(seed, 100, "random", nvars, 4):
                    if M.is_zero() or not borel_verdict(M).is_borel:
                        continue
                    chain = build_chain(M)
                    _, stuck = raw_witnesses(
                        gens_of(M.denominator),
                        [(s.variable_index, gens_of(s.ideal)) for s in chain.steps],
                    )
                    if stuck is None:
                        regularity(M)
                        continue
                    with pytest.raises(NotSequentiallyCMError) as raised:
                        regularity(M)
                    step = chain.indices().index(stuck[0]) + 1
                    assert f"at chain step {step}, " in str(raised.value), M
                    refused += 1
        assert refused == 5

    @given(data=st.data())
    @settings(deadline=None, max_examples=30)
    def test_invariant_under_unused_trailing_variable(self, data, borel_corpus):
        M = data.draw(st.sampled_from([m for m in borel_corpus if not m.is_zero()]))
        n = M.nvars
        widened = Subquotient(
            _widen(M.numerator, n + 1), _widen(M.denominator, n + 1)
        )
        a, b = regularity(M), regularity(widened)
        assert a.regularity == b.regularity
        assert b.dim == a.dim + 1 and b.depth == a.depth + 1


def _widen(ideal: MonomialIdeal, nvars: int) -> MonomialIdeal:
    if ideal.is_unit():
        return MonomialIdeal.unit(nvars)
    pad = nvars - ideal.nvars
    gens = tuple(Monomial(g.exps + (0,) * pad) for g in ideal.gens)
    return MonomialIdeal(nvars, gens)
