"""Dihedral quartic generators from a two-part splitting.

For an admissible pair (d1, d2) the conic x^2 - d1*y^2 = d2*z^2 has a
point, and alpha = x + y*sqrt(d1), scaled primitive and twisted until
congruent to a square mod 4 in the biquadratic order, generates the
quadratic step whose closure over Q is dihedral of order eight.  The
lift-sign machinery is shared with the quaternion branch; here the
double flip must be the unique order-four coset.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conic import ConicSolution, solve_conic
from .construct import (_TWISTS, GaloisClass, _primitive_scaling, classify,
                        compute_alpha, two_primary_oracle)
from .errors import InternalInvariant, QuatextError
from .factorizations import D4Factorization, check_d4_split
from .field import GaloisAction, _rat_sqrt, element

__all__ = [
    "D4Certificate",
    "d4_construct",
    "d4_verify",
]


@dataclass(frozen=True)
class D4Certificate:
    d: int
    d1: int
    d2: int
    d3: int
    solution: ConicSolution
    alpha_raw: tuple[int, int]
    scaling: int
    twist: str
    alpha: tuple[Fraction, Fraction]
    norm_root: Fraction
    two_primary: bool
    svector: tuple[int, int, int]
    cyclic_sign: int
    galois_class: GaloisClass
    degenerate: bool


def _lift_signs(d1: int, d2: int, alpha: tuple[Fraction, Fraction]) -> tuple[int, int, int]:
    """Lift signs of sigma, tau and sigma*tau for the quadratic step
    generated by the square root of alpha, embedded in Q(sqrt(d1), sqrt(d2))."""
    alpha_emb = element(d1, d2, alpha[0], alpha[1], 0, 0)
    return tuple(compute_alpha(alpha_emb, label, action, 1, None).sign  # type: ignore[return-value]
                 for label, action in (("sigma", GaloisAction.SIGMA),
                                       ("tau", GaloisAction.TAU),
                                       ("sigma_tau", GaloisAction.SIGMA_TAU)))


def d4_construct(pair: D4Factorization) -> D4Certificate:
    """Construct and certify a dihedral generator for a validated pair."""
    d, d1, d2, d3 = pair.d, pair.d1, pair.d2, pair.d3

    sol = solve_conic(1, -d1, -d2)
    if sol.y == 0 or sol.z == 0:
        raise InternalInvariant("degenerate conic point for a nonsquare part")
    if sol.x * sol.x - d1 * sol.y * sol.y != d2 * sol.z * sol.z:
        raise InternalInvariant("conic point fails the defining equation")

    scaling = _primitive_scaling(element(d1, d2, sol.x, sol.y, 0, 0))
    c0, c1 = Fraction(sol.x, scaling), Fraction(sol.y, scaling)

    # The square-mod-4 test runs in the compositum's maximal order, where the
    # certified quadratic extension actually lives.  For even d2 the generator
    # has odd valuations above 2 in Q(sqrt(d1)) (its norm is d2*Z^2), so no
    # twist could pass there, but 2 ramifies further up and the valuations
    # double.
    final: tuple[Fraction, Fraction] | None = None
    twist = ""
    for label, factor in _TWISTS.items():
        if two_primary_oracle(element(d1, d2, factor * c0, factor * c1, 0, 0)):
            final, twist = (factor * c0, factor * c1), label
            break
    if final is None:
        raise InternalInvariant("no twist of the dihedral generator is a square mod 4")

    norm = final[0] * final[0] - d1 * final[1] * final[1]
    ratio = norm / d2
    root = _rat_sqrt(ratio)
    if root is None:
        raise InternalInvariant("generator norm is not d2 times a rational square")

    signs = _lift_signs(d1, d2, final)
    galois_class = classify(signs)
    if galois_class is not GaloisClass.DIHEDRAL or signs[2] != -1:
        raise InternalInvariant(f"dihedral certification failed: signs {signs}")

    return D4Certificate(
        d=d, d1=d1, d2=d2, d3=d3, solution=sol,
        alpha_raw=(sol.x, sol.y), scaling=scaling, twist=twist,
        alpha=final, norm_root=root, two_primary=True,
        svector=signs,
        cyclic_sign=signs[2], galois_class=galois_class,
        degenerate=(d3 == 1),
    )


def d4_verify(cert: D4Certificate) -> bool:
    """Recheck every claim in a dihedral certificate from scratch.  A
    tampered certificate gives False, never an exception."""
    try:
        return _d4_claims_hold(cert)
    except QuatextError:
        return False


def _d4_claims_hold(cert: D4Certificate) -> bool:
    """d4_verify's checks; a field that breaks a check's domain raises."""
    check_d4_split(cert.d, cert.d1, cert.d2)
    if cert.d1 * cert.d2 * cert.d3 != cert.d or cert.degenerate != (cert.d3 == 1):
        return False

    sol = cert.solution
    if sol.y == 0 or sol.z == 0:
        return False
    if sol.x * sol.x - cert.d1 * sol.y * sol.y != cert.d2 * sol.z * sol.z:
        return False
    if cert.alpha_raw != (sol.x, sol.y):
        return False

    a0, a1 = cert.alpha
    norm = a0 * a0 - cert.d1 * a1 * a1
    # the builder states the positive root; its square alone hides a sign
    if cert.norm_root <= 0 or norm != cert.d2 * cert.norm_root * cert.norm_root:
        return False
    if not cert.two_primary:
        return False
    if not two_primary_oracle(element(cert.d1, cert.d2, a0, a1, 0, 0)):
        return False

    factor = _TWISTS.get(cert.twist)
    if factor is None or cert.scaling <= 0:
        return False
    expected = (Fraction(factor * sol.x, cert.scaling),
                Fraction(factor * sol.y, cert.scaling))
    if cert.alpha != expected:
        return False

    signs = _lift_signs(cert.d1, cert.d2, cert.alpha)
    if signs != cert.svector or cert.cyclic_sign != signs[2] or signs[2] != -1:
        return False
    return classify(signs) is GaloisClass.DIHEDRAL and cert.galois_class is GaloisClass.DIHEDRAL
