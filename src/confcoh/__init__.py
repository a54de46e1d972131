"""Exact cohomology of two-point configuration spaces of real projective
spaces, with independent verification machinery."""

from .abelian import AbGroup2, GradedGroups, group_from_presentation, smith_normal_form
from .configcoh import SpaceId, cohomology, cohomology_table, homology, mod2_dimension, twisted_cohomology
from .groupcoh import CoeffId, GroupId, classifying_cohomology

__version__ = "0.1.0"

__all__ = [
    "AbGroup2",
    "GradedGroups",
    "SpaceId",
    "CoeffId",
    "GroupId",
    "classifying_cohomology",
    "cohomology",
    "cohomology_table",
    "homology",
    "mod2_dimension",
    "twisted_cohomology",
    "group_from_presentation",
    "smith_normal_form",
    "__version__",
]
