"""Exact orbifold K-theory rings of weighted projective spaces.

Given positive integer weights b, the package computes the full orbifold
K-theory ring of the associated weighted projective space over Z[u,u^-1]:
sector charts, multiplication tables, kernel generators, a presentation
by generators and relations, ranks, torsion-freeness certificates, and
exact arithmetic in the ring itself.
"""

from .laurent import (
    LaurentPoly,
    MonicPoly,
    ParseError,
    divmod_monic,
    euler_class,
    normalize,
    parse_laurent,
)
from .ring import (
    KOrbElement,
    Presentation,
    SectorRing,
    TorsionReport,
    VerifyReport,
    alpha,
    build_sector_rings,
    check_exponents,
    element_from_residues,
    element_spec,
    generator_table,
    presentation,
    reduce,
    star_multiply,
    torsion_report,
    total_rank,
    unit_element,
    verify,
    zero_element,
)
from .sectors import (
    WpsData,
    build_wps,
    fixed_set,
    kernel_generator,
    obstruction_exponent,
    obstruction_set,
    structure_coefficient,
)

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "MonicPoly",
    "ParseError",
    "divmod_monic",
    "euler_class",
    "normalize",
    "parse_laurent",
    "WpsData",
    "build_wps",
    "fixed_set",
    "kernel_generator",
    "obstruction_exponent",
    "obstruction_set",
    "structure_coefficient",
    "KOrbElement",
    "Presentation",
    "SectorRing",
    "TorsionReport",
    "VerifyReport",
    "alpha",
    "build_sector_rings",
    "check_exponents",
    "element_from_residues",
    "element_spec",
    "generator_table",
    "presentation",
    "reduce",
    "star_multiply",
    "torsion_report",
    "total_rank",
    "unit_element",
    "verify",
    "zero_element",
    "__version__",
]
