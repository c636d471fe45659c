"""Connectivity analytics for the mediation layer (§3.1).

Rather than crawling the full graph of schemas and mappings, GridVine
estimates connectivity from the joint in/out-degree distribution of
schemas: each schema peer publishes ``(Schema, InDegree, OutDegree)``
under ``Hash(Domain)``, and the domain peer computes the connectivity
indicator

    ci = sum_{j,k} (j*k - k) * p_jk

(the directed Molloy–Reed criterion): ``ci >= 0`` signals the emergence
of a giant connected component; as long as ``ci < 0`` the mediation
layer is not strongly connected and more mappings are needed.

:mod:`repro.connectivity.indicator` implements the estimator;
:mod:`repro.connectivity.analysis` provides ground truth (Tarjan's
strongly connected components, plus weak components) used by tests and
by experiment E3 to validate the indicator's sign against reality.
"""

from repro.connectivity.indicator import (
    connectivity_indicator,
    indicator_from_degrees,
)
from repro.connectivity.analysis import (
    giant_scc_fraction,
    strongly_connected_components,
)

__all__ = [
    "connectivity_indicator",
    "indicator_from_degrees",
    "strongly_connected_components",
    "giant_scc_fraction",
]
