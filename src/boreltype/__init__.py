"""Multigraded monomial module analysis: Borel-type verdicts, sequential
chains, Castelnuovo-Mumford regularity, prime filtrations, and a brute-force
Betti-number oracle for cross-validation.
"""

from .betti import (
    DEFAULT_ORACLE_GUARD,
    BettiTable,
    betti_table,
)
from .borel import (
    BorelVerdict,
    borel_verdict,
    ideal_is_borel_type,
    is_strongly_stable_ideal,
    is_strongly_stable_module,
    torsion_identity_report,
    truncation_stability_degree,
)
from .chain import (
    ChainStep,
    SequentialChain,
    build_chain,
    dimension_filtration_report,
    iterated_saturation_chain,
    sequential_cm_report,
    torsion_ladder_matches_chain,
)
from .checks import CheckOptions, run_check
from .decomposition import (
    IrreducibleComponent,
    MonomialPrime,
    associated_primes,
    cyclic_associated_primes,
    dimension_filtration,
    irreducible_decomposition,
    krull_dim,
    minimal_primes,
    primary_components,
)
from .errors import (
    AlgebraError,
    DimensionMismatchError,
    GuardExceededError,
    InternalInconsistencyError,
    NotArtinianError,
    NotBorelTypeError,
    NotSequentiallyCMError,
    ParseError,
    ZeroModuleError,
)
from .filtration import (
    FiltrationStep,
    PrimeFiltration,
    filtration_length_report,
    pretty_clean_filtration,
    verify_filtration,
)
from .fuzzgen import exchange_closure_ideal, generate_corpus
from .modfile import parse_module_file, serialize_module
from .monomial import Monomial, MonomialIdeal, monomial_from_text, monomials_of_degree
from .regularity import RegularityReport, RegularityStep, regularity
from .subquotient import Subquotient

__version__ = "0.1.0"

__all__ = [
    "AlgebraError",
    "BettiTable",
    "BorelVerdict",
    "ChainStep",
    "CheckOptions",
    "DEFAULT_ORACLE_GUARD",
    "DimensionMismatchError",
    "FiltrationStep",
    "GuardExceededError",
    "InternalInconsistencyError",
    "IrreducibleComponent",
    "Monomial",
    "MonomialIdeal",
    "MonomialPrime",
    "NotArtinianError",
    "NotBorelTypeError",
    "NotSequentiallyCMError",
    "ParseError",
    "PrimeFiltration",
    "RegularityReport",
    "RegularityStep",
    "SequentialChain",
    "Subquotient",
    "ZeroModuleError",
    "associated_primes",
    "betti_table",
    "borel_verdict",
    "build_chain",
    "cyclic_associated_primes",
    "dimension_filtration",
    "dimension_filtration_report",
    "exchange_closure_ideal",
    "filtration_length_report",
    "generate_corpus",
    "ideal_is_borel_type",
    "irreducible_decomposition",
    "is_strongly_stable_ideal",
    "is_strongly_stable_module",
    "iterated_saturation_chain",
    "krull_dim",
    "minimal_primes",
    "monomial_from_text",
    "monomials_of_degree",
    "parse_module_file",
    "pretty_clean_filtration",
    "primary_components",
    "regularity",
    "run_check",
    "sequential_cm_report",
    "serialize_module",
    "torsion_identity_report",
    "torsion_ladder_matches_chain",
    "truncation_stability_degree",
    "verify_filtration",
]
