"""Fusion rings of type B (and dual type C) quantum groups at odd roots of unity.

Exact fusion combinatorics over the affine Weyl alcove, q-characters and the
unique positive character, the simple-current involution, the diagram-side
correspondence with BMW centralizer algebras, rank-level duality with type C,
and the unitarity-failure audit.
"""

from .errors import (CertificationError, ConfigurationError, DimensionMismatchError,
                     DomainError, InvalidRankError, SingularParameterError, WeightParseError)
from .fusion import (AlcoveParams, FusionTable, affine_reduce, alcove_enumerate,
                     bratteli_endo_dim, classical_tensor, fuse, fuse_two_stage)
from .qchar import (PFCertificate, QuantumParams, admissible_z, chi, pf_certify_unique,
                    positive_character, qdim, qdim_signs, quantum_integer, twist_exponent,
                    weyl_products)
from .rootdata import RootDatum, Weight, make_root_datum
from .symmetry import InvolutionData, phi_sign, verify_simple_current
from .bmwdual import (FerrersDiagram, braiding_eig_sq, dim_from_eigs, gamma_set, ranklevel_check,
                      verify_psi_fusion)
from .unitarity import UnitarityReport, audit, dim_box, h

__all__ = [
    "AlcoveParams", "CertificationError", "ConfigurationError", "DimensionMismatchError",
    "DomainError", "FerrersDiagram", "FusionTable", "InvalidRankError", "InvolutionData",
    "PFCertificate", "QuantumParams", "RootDatum", "SingularParameterError", "UnitarityReport",
    "Weight", "WeightParseError", "admissible_z", "affine_reduce",
    "alcove_enumerate", "audit", "braiding_eig_sq",
    "bratteli_endo_dim", "chi", "classical_tensor", "dim_box",
    "dim_from_eigs", "fuse", "fuse_two_stage", "gamma_set", "h", "make_root_datum",
    "pf_certify_unique", "phi_sign", "positive_character", "qdim", "qdim_signs",
    "quantum_integer", "ranklevel_check", "twist_exponent", "verify_psi_fusion",
    "verify_simple_current", "weyl_products",
]

__version__ = "0.1.0"
