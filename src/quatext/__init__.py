"""Exact construction of quaternion and dihedral octic class fields over
quadratic number fields.

The package factors a fundamental discriminant into coprime discriminants,
tests the symbol conditions for the two admissible splitting types, solves
the attached ternary conics in integers, assembles a generator in a
biquadratic field, normalizes it to a 2-primary algebraic integer, and
certifies the Galois structure of the resulting octic extension by exact
checks of the square roots the construction states.  Everything is exact
rational arithmetic; there are no floating-point tolerances anywhere.
"""

from .conic import (ConicSolution, find_parameter_a, parameter_candidates,
                    parameter_conditions, solve_conic, solve_system)
from .construct import (AlphaRoot, ExtensionCertificate, GaloisClass,
                        MuGenerator, SVector, assign_roles, build_mu,
                        certify_generator, check_norm_relations, classify,
                        compute_alpha, construct_h8, divisor_twists,
                        k_square_class_equal, normalize_roles,
                        resolve_infinity, same_extension, two_primary_normalize,
                        two_primary_oracle)
from .dihedral import D4Certificate, d4_construct, d4_verify
from .errors import (BaseMismatch, FactorizationRejected, InternalInvariant,
                     InvalidDiscriminant, InvalidParameter, LocalObstruction,
                     NonIntegral, NonNormal, NotFundamental, QuatextError,
                     SearchExhausted, SymbolDomain)
from .factorizations import (D4Factorization, H8Factorization,
                             at_most_one_negative, check_d4_split,
                             check_h8_split, enumerate_d4, enumerate_h8,
                             is_d4_split, is_h8_split)
from .field import (BiquadElement, GaloisAction, element, embedding_signs,
                    is_square, is_totally_positive, quad_sign,
                    rational_element, real_embedding_sign)
from .infinity import InfinityVerdict, infinity_verdict
from .symbols import (DiscriminantFactorization, disc_sort_key,
                      factor_discriminant, is_fundamental, kronecker,
                      prime_discriminant, quartic_symbol,
                      quartic_symbol_composite)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # symbols
    "kronecker", "quartic_symbol", "quartic_symbol_composite",
    "is_fundamental", "prime_discriminant", "factor_discriminant",
    "DiscriminantFactorization", "disc_sort_key",
    # factorizations
    "H8Factorization", "D4Factorization", "check_h8_split", "is_h8_split",
    "enumerate_h8", "check_d4_split", "is_d4_split", "enumerate_d4",
    "at_most_one_negative",
    # conics
    "ConicSolution", "solve_conic", "solve_system",
    "find_parameter_a", "parameter_conditions", "parameter_candidates",
    # the biquadratic field
    "BiquadElement", "GaloisAction", "element", "rational_element",
    "is_square", "quad_sign", "real_embedding_sign", "embedding_signs",
    "is_totally_positive",
    # construction and certification
    "GaloisClass", "MuGenerator", "AlphaRoot", "SVector",
    "ExtensionCertificate", "assign_roles", "normalize_roles", "build_mu",
    "two_primary_oracle", "two_primary_normalize", "compute_alpha",
    "certify_generator", "classify", "check_norm_relations",
    "resolve_infinity", "divisor_twists", "k_square_class_equal",
    "same_extension", "construct_h8",
    # dihedral branch
    "D4Certificate", "d4_construct", "d4_verify",
    # ramification at the real places
    "InfinityVerdict", "infinity_verdict",
    # errors
    "QuatextError", "InvalidDiscriminant", "NotFundamental", "SymbolDomain",
    "InvalidParameter",
    "FactorizationRejected", "LocalObstruction", "SearchExhausted",
    "NonNormal", "BaseMismatch", "NonIntegral", "InternalInvariant",
]
