"""Dihedral quartic generators from a two-part splitting.

For an admissible pair (d1, d2) the conic x^2 - d1*y^2 = d2*z^2 has a
point, and alpha = x + y*sqrt(d1), scaled primitive and twisted until
congruent to a square mod 4 in the biquadratic order, generates the
quadratic step whose closure over Q is dihedral of order eight.  Each
lift is certified as in the quaternion branch, by `compute_alpha` on a
stated root, here read off the norm identity alpha*alpha' = d2*r^2, and
tau and sigma*tau share that root; the double flip must be the unique
order-four coset.

`d4_construct` and `d4_verify` share one derivation from a conic point:
the verifier runs it on the point a certificate states and accepts only an
equal certificate, so only the twist the builder picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .conic import ConicSolution, solve_conic
from .construct import (_TWISTS, AlphaRoot, GaloisClass, _lift_from_root,
                        _primitive_scaling, classify, compute_alpha,
                        two_primary_oracle)
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


def _lifts(d1: int, d2: int, alpha: tuple[Fraction, Fraction],
           norm_root: Fraction) -> tuple[AlphaRoot, ...]:
    """Lifts of sigma, tau and sigma*tau for the quadratic step generated
    by the square root of alpha, embedded in Q(sqrt(d1), sqrt(d2)), from
    the stated roots: sigma fixes alpha, so its root is 1; tau and
    sigma*tau send alpha to alpha', and alpha*alpha' = d2*r^2 with
    r = norm_root makes alpha/(r*sqrt(d2)) the root of alpha/alpha'.
    alpha has no sqrt(d2) part, so tau's check covers sigma*tau too."""
    alpha_emb = element(d1, d2, alpha[0], alpha[1], 0, 0)
    flipped = alpha_emb / element(d1, d2, 0, 0, norm_root, 0)
    sigma = compute_alpha(alpha_emb, "sigma", GaloisAction.SIGMA, 1, None,
                          element(d1, d2, 1), 0)
    tau = compute_alpha(alpha_emb, "tau", GaloisAction.TAU, 1, None, flipped, 0)
    return (sigma, tau,
            _lift_from_root("sigma_tau", GaloisAction.SIGMA_TAU, 1, None, tau.h, 0))


def d4_construct(pair: D4Factorization) -> D4Certificate:
    """Construct and certify a dihedral generator for a validated pair."""
    return _certify(pair, solve_conic(1, -pair.d1, -pair.d2))


def d4_verify(cert: D4Certificate) -> bool:
    """Recheck a dihedral certificate from its pair and its conic point.

    The pair must be admissible for d, the point must satisfy
    x^2 - d1*y^2 = d2*z^2 in integers, and every other field must equal
    what the construction derives from that point: the primitive scaling,
    the first twist that is a square mod 4, the norm root, the lift signs
    and the class.  Every field must first have an exact type (see
    `_exact_types`).  A tampered certificate gives False, never an
    exception.
    """
    if not _exact_types(cert):
        return False
    try:
        pair = check_d4_split(cert.d, cert.d1, cert.d2)
        sol = cert.solution
        if sol.x * sol.x - cert.d1 * sol.y * sol.y != cert.d2 * sol.z * sol.z:
            return False
        return _certify(pair, sol) == cert
    except QuatextError:
        return False


def _exact_types(cert: D4Certificate) -> bool:
    """Whether every field of cert has the type the builder states: int, not
    bool, for the integers and the point, int or Fraction for alpha and the
    norm root, bool for the flags.  Without it a float in the pair or the
    point raises TypeError in the arithmetic, and a float elsewhere that
    equals the derived value passes the final comparison."""
    sol = cert.solution
    if not (isinstance(sol, ConicSolution) and isinstance(cert.alpha_raw, tuple)
            and isinstance(cert.alpha, tuple) and isinstance(cert.svector, tuple)):
        return False
    ints = (cert.d, cert.d1, cert.d2, cert.d3, sol.x, sol.y, sol.z, *cert.alpha_raw,
            cert.scaling, *cert.svector, cert.cyclic_sign)
    return (all(type(v) is int for v in ints)
            and all(type(v) in (int, Fraction) for v in (*cert.alpha, cert.norm_root))
            and type(cert.two_primary) is bool and type(cert.degenerate) is bool)


def _certify(pair: D4Factorization, sol: ConicSolution) -> D4Certificate:
    """The certificate that the point sol on the pair's conic yields; a
    QuatextError when a step of the certification fails."""
    d1, d2, d3 = pair.d1, pair.d2, pair.d3
    if sol.y == 0 or sol.z == 0:
        raise InternalInvariant("degenerate conic point for a nonsquare part")

    scaling = _primitive_scaling(element(d1, d2, sol.x, sol.y, 0, 0))
    c0, c1 = Fraction(sol.x, scaling), Fraction(sol.y, scaling)

    # The square-mod-4 test runs in the compositum's maximal order, where the
    # certified quadratic extension actually lives.  For even d2 the generator
    # has odd valuations above 2 in Q(sqrt(d1)) (its norm is d2*Z^2), so no
    # twist could pass there, but 2 ramifies further up and the valuations
    # double.
    for twist, factor in _TWISTS.items():
        alpha = (factor * c0, factor * c1)
        if two_primary_oracle(element(d1, d2, alpha[0], alpha[1], 0, 0)):
            break
    else:
        raise InternalInvariant("no twist of the dihedral generator is a square mod 4")

    root = _rat_sqrt((alpha[0] * alpha[0] - d1 * alpha[1] * alpha[1]) / d2)
    if root is None:
        raise InternalInvariant("generator norm is not d2 times a rational square")

    signs = tuple(lift.sign for lift in _lifts(d1, d2, alpha, root))
    galois_class = classify(signs)
    if galois_class is not GaloisClass.DIHEDRAL or signs[2] != -1:
        raise InternalInvariant(f"dihedral certification failed: signs {signs}")

    return D4Certificate(
        d=pair.d, d1=d1, d2=d2, d3=d3, solution=sol,
        alpha_raw=(sol.x, sol.y), scaling=scaling, twist=twist,
        alpha=alpha, norm_root=root, two_primary=True,
        svector=signs,
        cyclic_sign=signs[2], galois_class=galois_class,
        degenerate=(d3 == 1),
    )
