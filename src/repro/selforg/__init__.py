"""Self-organization of the mapping network (§3.2, §4).

The closed loop that is the paper's headline contribution:

1. monitor the connectivity indicator (``repro.connectivity``);
2. while ``ci < 0``, *create* mappings automatically —
   :mod:`repro.selforg.candidates` picks schema pairs through shared
   references to the same protein sequence, and
   :mod:`repro.selforg.matcher` induces attribute correspondences by
   combining lexicographic measures with set distances over instance
   values;
3. *assess* mapping quality with a Bayesian analysis comparing
   transitive closures (cycles) of mappings
   (:mod:`repro.selforg.deprecation`), deprecating mappings detected
   as incorrect;
4. repeat — deprecations reopen connectivity gaps, which the creation
   step fills along different paths.

:class:`~repro.selforg.controller.SelfOrganizationController` drives
the loop against a live :class:`~repro.mediation.network.GridVineNetwork`.

Every mapping this loop creates or deprecates flows through the
issuing peer's mapping-event hooks, so the version clock of any
attached :class:`~repro.engine.core.QueryEngine` advances and affected
cached reformulation plans are invalidated immediately; pass the
engine to the controller to get per-round invalidation counts in its
:class:`~repro.selforg.controller.RoundReport`.
"""

from repro.selforg.matcher import MatcherConfig, match_attributes
from repro.selforg.candidates import rank_candidate_pairs
from repro.selforg.creator import CreationPolicy, propose_mappings
from repro.selforg.deprecation import (
    assess_mapping_quality,
    cycle_is_consistent,
)
from repro.selforg.controller import RoundReport, SelfOrganizationController

__all__ = [
    "MatcherConfig",
    "match_attributes",
    "rank_candidate_pairs",
    "CreationPolicy",
    "propose_mappings",
    "assess_mapping_quality",
    "cycle_is_consistent",
    "SelfOrganizationController",
    "RoundReport",
]
