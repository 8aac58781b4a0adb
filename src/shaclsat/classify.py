"""Fragment classification: map a sentence's feature set to the known
decidability, complexity and finite-model-property verdicts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .rewrite import normalize_fragment
from .scl import A, C, D, E, O, OPRIME, S, T, Z, FeatureSet, SclFormula, SclSentence, features_of

DECIDABLE = "Decidable"
UNDECIDABLE = "Undecidable"
OPEN = "Open"

FMP_HOLDS = "Holds"
FMP_FAILS = "Fails"
FMP_UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ClassificationResult:
    raw_features: FeatureSet
    normalized_features: FeatureSet
    status: str
    complexity: Optional[str]
    fmp: str
    generalized_rdf_only: bool
    witness: str

    def to_json(self) -> dict:
        return {
            "rawFeatures": sorted(self.raw_features),
            "normalizedFeatures": sorted(self.normalized_features),
            "status": self.status,
            "complexity": self.complexity,
            "fmp": self.fmp,
            "generalizedRdfOnly": self.generalized_rdf_only,
            "witness": self.witness,
        }


_UNDECIDABLE_RULES = (
    ({S, O}, "tiling-reduction:S+O", True),
    ({S, A, C}, "tiling-reduction:S+A+C", False),
    ({S, E, C}, "tiling-reduction:S+E+C", False),
    ({S, E, OPRIME}, "tiling-reduction:S+E+order", True),
    ({S, Z, A, E}, "tiling-reduction:S+Z+A+E", False),
)

_DECIDABLE_RULES = (
    ({S, Z, A}, "ExpTime-complete", "alc-embedding"),
    ({Z, A, D, E}, "in NExpTime", "two-variable-fragment"),
    ({Z, A, D, E, C}, "NExpTime-complete", "two-variable-counting"),
    ({S, Z, A, D}, "in 2ExpTime", "unary-negation-fragment"),
    ({S, Z, A, T, D}, "in 2ExpTime", "unary-negation-regular-paths"),
)


def classify_features(raw: FeatureSet) -> ClassificationResult:
    raw = frozenset(raw)
    normalized = normalize_fragment(raw)
    features = normalized

    status = OPEN
    complexity = None
    generalized = False
    witness = "no-known-result"
    for rule, rule_witness, needs_generalized in _UNDECIDABLE_RULES:
        if rule <= features:
            status = UNDECIDABLE
            witness = rule_witness
            generalized = needs_generalized
            break
    else:
        for rule, rule_complexity, rule_witness in _DECIDABLE_RULES:
            if features <= rule:
                status = DECIDABLE
                complexity = rule_complexity
                witness = rule_witness
                break

    if status == UNDECIDABLE:
        fmp = FMP_FAILS  # a finite-model property would make the fragment decidable
    elif (
        {C} <= features
        or {O} <= features
        or {E, OPRIME} <= features
        or {S, T, D} <= features
    ):
        fmp = FMP_FAILS
        if witness == "no-known-result":
            witness = "infinity-axiom"
    elif features <= {S, Z, A, D} or features <= {Z, A, D, E}:
        fmp = FMP_HOLDS
    else:
        fmp = FMP_UNKNOWN

    return ClassificationResult(
        raw_features=raw,
        normalized_features=normalized,
        status=status,
        complexity=complexity,
        fmp=fmp,
        generalized_rdf_only=generalized,
        witness=witness,
    )


def classify(node: Union[SclSentence, SclFormula]) -> ClassificationResult:
    return classify_features(features_of(node))
