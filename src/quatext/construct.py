"""Build and certify the quaternion-type generator for a split discriminant.

Pipeline: assign the two construction roles among the three parts, find
the auxiliary odd parameter, solve the three coupled conics, multiply the
three partial generators, scale to a primitive algebraic integer, twist
until congruent to a square mod 4, fix signs at infinity when possible,
and finally certify the Galois structure from the square roots that the
conic points state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from math import gcd

from .conic import (DEFAULT_MAX_A, ConicSolution, find_parameter_a,
                    parameter_conditions, solve_system)
from .errors import InternalInvariant, InvalidParameter, NonIntegral, NonNormal
from .factorizations import H8Factorization
from .field import (BiquadElement, GaloisAction, _canon_element, element,
                    embedding_signs, is_square, is_totally_positive,
                    rational_element)
from .infinity import InfinityVerdict, infinity_verdict
from .symbols import _discriminant_primes, disc_sort_key, factor_discriminant

__all__ = [
    "GaloisClass",
    "MuGenerator",
    "AlphaRoot",
    "SVector",
    "ExtensionCertificate",
    "assign_roles",
    "normalize_roles",
    "build_mu",
    "two_primary_oracle",
    "two_primary_normalize",
    "compute_alpha",
    "certify_generator",
    "classify",
    "check_norm_relations",
    "resolve_infinity",
    "divisor_twists",
    "k_square_class_equal",
    "same_extension",
    "construct_h8",
]


class GaloisClass(Enum):
    QUATERNION = "H8"
    DIHEDRAL = "D4"
    MIXED = "(2,4)"
    ELEMENTARY = "(2,2,2)"


@dataclass(frozen=True)
class MuGenerator:
    """The raw product generator and its primitive integral scaling."""

    d1: int
    d2: int
    d3: int
    a: int
    sol1: ConicSolution
    sol2: ConicSolution
    sol3: ConicSolution
    beta: BiquadElement
    gamma: BiquadElement
    delta: BiquadElement
    mu_raw: BiquadElement
    scaling: int
    mu: BiquadElement


@dataclass(frozen=True)
class AlphaRoot:
    """Certificate datum for one lift of a base automorphism."""

    label: str
    action: GaloisAction      # restriction to the biquadratic field
    epsilon: int              # sign on the third square root
    exponent: int             # 0: mu^(1-g) is a square; 1: d3 times a square
    h: BiquadElement          # the stated square root, sign-canonical
    sign: int                 # +1: the lift squares to 1; -1: order four


@dataclass(frozen=True)
class SVector:
    psi1: int
    psi2: int
    psi3: int
    rho: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.psi1, self.psi2, self.psi3)


@dataclass(frozen=True)
class ExtensionCertificate:
    d: int
    parts: tuple[int, int, int]
    generator: MuGenerator
    twist: str
    mu_normalized: BiquadElement
    infinity_twist: int | None
    mu: BiquadElement
    two_primary: bool
    svector: SVector
    galois_class: GaloisClass
    alphas: tuple[AlphaRoot, ...]
    norm_relations: tuple[tuple[str, str], ...]
    infinity: InfinityVerdict
    totally_positive: bool | None

    @property
    def roles(self) -> tuple[int, int, int]:
        g = self.generator
        return (g.d1, g.d2, g.d3)


def assign_roles(parts: tuple[int, int, int]) -> tuple[int, int, int]:
    """Order the three parts as (d1, d2, d3) for the construction.

    d2 must be positive and d1*d2 must avoid 5 (mod 8), or no twist of the
    product generator is congruent to a square mod 4.  An even part pairs
    with the smallest positive odd part; otherwise the first pair in
    canonical order with product = 1 (mod 8) works, and such a pair always
    exists because an even number of the three pairwise products are
    = 5 (mod 8).
    """
    ordered = sorted(parts, key=disc_sort_key)
    even = [p for p in ordered if p % 2 == 0]
    pair: tuple[int, int] | None = None
    if even:
        partner = min(p for p in ordered if p % 2 != 0 and p > 0)
        pair = (even[0], partner)
    else:
        for i in range(3):
            for j in range(i + 1, 3):
                if (ordered[i] * ordered[j]) % 8 == 1:
                    pair = (ordered[i], ordered[j])
                    break
            if pair:
                break
        if pair is None:
            raise InternalInvariant(f"no admissible role pair among {parts}")
    d1, d2 = sorted(pair, key=disc_sort_key)
    (d3,) = (p for p in ordered if p != d1 and p != d2)
    if d2 < 0:
        raise InternalInvariant(f"role d2 = {d2} came out negative")
    return (d1, d2, d3)


def normalize_roles(d1: int, d2: int, d3: int) -> tuple[int, int, int]:
    """Canonicalize a caller-forced role assignment of a valid splitting."""
    if d2 < 0:
        d1, d2 = d2, d1
    if (d1 * d2) % 8 == 5:
        raise InvalidParameter(
            f"pair ({d1}, {d2}) has product = 5 (mod 8); no twist of the "
            "generator is congruent to a square mod 4 for this role choice")
    return (d1, d2, d3)


def _primitive_scaling(x: BiquadElement) -> int:
    """The gcd of the integral coordinates of the nonzero algebraic integer x."""
    v = x.integral_coordinates()
    if any(c.denominator != 1 for c in v):
        raise InternalInvariant("raw generator is not an algebraic integer")
    scaling = gcd(*(int(c) for c in v))
    if scaling == 0:
        raise InternalInvariant("raw generator vanished")
    return scaling


def build_mu(d1: int, d2: int, d3: int, a: int) -> MuGenerator:
    sol1, sol2, sol3 = solve_system(d1, d2, d3, a)
    beta = element(d1, d2, 0, sol1.x, sol1.y, 0)
    gamma = element(d1, d2, sol2.x, sol2.y, 0, 0)
    delta = element(d1, d2, sol3.x, 0, sol3.y, 0)
    mu_raw = beta * gamma * delta
    scaling = _primitive_scaling(mu_raw)
    # integral coordinates are linear: mu's are mu_raw's over their gcd
    mu = mu_raw / scaling
    return MuGenerator(d1=d1, d2=d2, d3=d3, a=a, sol1=sol1, sol2=sol2,
                       sol3=sol3, beta=beta, gamma=gamma, delta=delta,
                       mu_raw=mu_raw, scaling=scaling, mu=mu)


def _mul_mod4(x: tuple[int, int], y: tuple[int, int], m: int,
              k: int) -> tuple[int, int]:
    """(x0 + x1*w)(y0 + y1*w) mod 4 in Z[w], where w^2 = m*w - k."""
    t = x[1] * y[1]
    return ((x[0] * y[0] - k * t) % 4, (x[0] * y[1] + x[1] * y[0] + m * t) % 4)


@lru_cache(maxsize=None)
def _squares_mod4(m: int, n: int) -> frozenset[tuple[int, ...]]:
    """Integral coordinates mod 4 of every square in the maximal order of
    Q(sqrt(m), sqrt(n)), given the residues m, n mod 16 of its base.

    On the basis 1, w1, w2, w1*w2 with w1 = (m + sqrt m)/2 and w2 likewise,
    w1^2 = m*w1 - k1 with k1 = (m^2 - m)/4, so mod 4 the multiplication
    table depends only on m and n mod 16.  Since (xi + 2*eta)^2 = xi^2
    (mod 4), the squares of the 16 elements with coordinates in {0, 1}
    give them all; xi = A + B*w2 with A, B in Z[w1] squares to
    A^2 - k2*B^2 + (2AB + n*B^2)*w2.
    """
    k1, k2 = m * (m - 1) // 4, n * (n - 1) // 4
    out = set()
    for mask in range(16):
        a = (mask & 1, (mask >> 1) & 1)
        b = ((mask >> 2) & 1, (mask >> 3) & 1)
        aa, ab, bb = (_mul_mod4(a, a, m, k1), _mul_mod4(a, b, m, k1),
                      _mul_mod4(b, b, m, k1))
        out.add(((aa[0] - k2 * bb[0]) % 4, (aa[1] - k2 * bb[1]) % 4,
                 (2 * ab[0] + n * bb[0]) % 4, (2 * ab[1] + n * bb[1]) % 4))
    return frozenset(out)


def two_primary_oracle(x: BiquadElement) -> bool:
    """Whether x is congruent to a square modulo 4 in the maximal order."""
    v = x.integral_coordinates()
    if any(c.denominator != 1 for c in v):
        raise NonIntegral(f"{x} is not integral")
    return tuple(int(c) % 4 for c in v) in _squares_mod4(x.m % 16, x.n % 16)


# Rational twists tried on a generator until it is congruent to a square mod 4.
_TWISTS = {"none": 1, "negate": -1, "double": 2, "negate-double": -2}


def two_primary_normalize(mu: BiquadElement, d1: int, d2: int) -> tuple[BiquadElement, str]:
    """Pick the twist of mu that is congruent to a square mod 4.

    The candidate set depends on d1*d2 mod 8; among passing candidates a
    totally positive one is preferred when the field is real.
    """
    pcon = (d1 * d2) % 8
    if pcon in (0, 1):
        groups = (("none", "negate"), ("double", "negate-double"))
    elif pcon == 4:
        groups = (("none", "double"), ("negate", "negate-double"))
    else:
        raise InternalInvariant(f"role pair product {d1 * d2} = 5 (mod 8) slipped through")
    # the fallback doublings only matter for role assignments that park the
    # even part in d3, where multiplying by 2 flips valuation parity above 2
    for labels in groups:
        candidates = ((label, _TWISTS[label] * mu) for label in labels)
        passing = [(label, c) for label, c in candidates if two_primary_oracle(c)]
        if not passing:
            continue
        if d1 > 0 and d2 > 0:
            positive = [(label, c) for label, c in passing if is_totally_positive(c)]
            if positive:
                label, c = positive[0]
                return (c, label)
        label, c = passing[0]
        return (c, label)
    raise InternalInvariant("no candidate twist is congruent to a square mod 4")


def _lift_from_root(label: str, action: GaloisAction, epsilon: int,
                    d3: int | None, h: BiquadElement, exponent: int) -> AlphaRoot:
    """The lift of `action` from a root h already checked against mu: the
    +-1 is h*g(h), times epsilon*d3 when exponent is 1."""
    h = _canon_element(h)
    hh = (h * h.apply(action)).rational_value()
    sign = hh if exponent == 0 else epsilon * d3 * hh
    if sign not in (1, -1):
        raise InternalInvariant(f"lift sign {sign} is not a unit")
    return AlphaRoot(label=label, action=action, epsilon=epsilon,
                     exponent=exponent, h=h, sign=int(sign))


def compute_alpha(mu: BiquadElement, label: str, action: GaloisAction,
                  epsilon: int, d3: int | None, h: BiquadElement,
                  exponent: int) -> AlphaRoot:
    """Certify that `action` lifts from the stated root h of mu^(1-g),
    mu = h^2 * g(mu) * d3^exponent, and read off the +-1 telling whether
    the lift has order four.  Each stated root is checked once: a second
    lift with the same root and the same g(mu) reads only its sign."""
    if h * h * mu.apply(action) * (d3 if exponent else 1) != mu:
        raise NonNormal(f"{label}: conjugate generator is in a different square class",
                        action=label)
    return _lift_from_root(label, action, epsilon, d3, h, exponent)


def certify_generator(mu: BiquadElement,
                      gen: MuGenerator) -> tuple[SVector, tuple[AlphaRoot, ...]]:
    """The four lifts of mu, a rational multiple of gen.mu_raw, from the
    roots the conics state: beta*sigma(beta) = -a*d3*z1^2, gamma*tau(gamma)
    = a*z2^2 and delta*sigma(delta) = -a*z3^2, where sigma fixes gamma, tau
    fixes delta and sigma*tau negates beta; rational factors of mu cancel.
    psi3 and rho share the root of sigma*tau and so its sign: one check
    and one sign cover both."""
    a, d3 = gen.a, gen.d3
    z1, z2, z3 = gen.sol1.z, gen.sol2.z, gen.sol3.z
    psi1 = compute_alpha(mu, "psi1", GaloisAction.SIGMA, -1, d3,
                         gen.beta * gen.delta / (a * d3 * z1 * z3), 1)
    psi2 = compute_alpha(mu, "psi2", GaloisAction.TAU, -1, d3,
                         gen.beta * gen.gamma / (a * d3 * z1 * z2), 1)
    psi3 = compute_alpha(mu, "psi3", GaloisAction.SIGMA_TAU, 1, d3,
                         gen.gamma * gen.delta / (a * z2 * z3), 0)
    rho = replace(psi3, label="rho", epsilon=-1)
    svector = SVector(psi1=psi1.sign, psi2=psi2.sign, psi3=psi3.sign, rho=rho.sign)
    return svector, (psi1, psi2, psi3, rho)


def classify(signs: tuple[int, int, int]) -> GaloisClass:
    """Galois type of the certified octic field from the three lift signs."""
    key = tuple(sorted(signs))
    table = {
        (-1, -1, -1): GaloisClass.QUATERNION,
        (-1, -1, 1): GaloisClass.MIXED,
        (-1, 1, 1): GaloisClass.DIHEDRAL,
        (1, 1, 1): GaloisClass.ELEMENTARY,
    }
    try:
        return table[key]
    except KeyError:
        raise InternalInvariant(f"impossible sign vector {signs}") from None


def check_norm_relations(mu: BiquadElement, d3: int) -> tuple[tuple[str, str], ...]:
    """Verify the square classes of mu times each conjugate.

    For the pipeline's generator: the two lifts that flip exactly one of
    the base square roots land on d3 times a square, and the double flip
    (hence also its second lift) lands on a square.
    """
    d3_elem = rational_element(mu.m, mu.n, d3)
    expected = (
        ("psi1", GaloisAction.SIGMA, d3_elem, str(d3)),
        ("psi2", GaloisAction.TAU, d3_elem, str(d3)),
        ("psi3", GaloisAction.SIGMA_TAU, None, "1"),
        ("rho", GaloisAction.SIGMA_TAU, None, "1"),
    )
    out = []
    for label, action, target, shown in expected:
        w = mu * mu.apply(action)
        if target is not None:
            w = w * target
        if is_square(w) is None:
            raise InternalInvariant(f"norm relation {label} violated")
        out.append((label, shown))
    return tuple(out)


def resolve_infinity(mu: BiquadElement, d1: int, d2: int,
                     d3: int) -> tuple[BiquadElement, int | None, bool | None]:
    """Fix the signs at the real places when the discriminant is positive.

    A totally negative generator flips to totally positive by scaling
    with -q for the smallest prime q = 3 (mod 4) dividing d; that scalar
    is 1 mod 4, so congruence to a square mod 4 survives.  NotFundamental
    unless each part is a fundamental discriminant.
    """
    primes = sorted(q for v in (d1, d2, d3) for q in _discriminant_primes(v))
    if d1 * d2 * d3 < 0:
        return (mu, None, None)
    signs = embedding_signs(mu)
    if all(s < 0 for s in signs):
        for q in primes:
            if q % 4 == 3:
                twisted = mu * (-q)
                if not is_totally_positive(twisted):
                    raise InternalInvariant("rational twist failed to flip all signs")
                if not two_primary_oracle(twisted):
                    raise InternalInvariant("final generator lost congruence to a square mod 4")
                return (twisted, -q, True)
        return (mu, None, False)
    return (mu, None, all(s > 0 for s in signs))


def divisor_twists(d: int) -> list[int]:
    """All products of subsets of the prime discriminants of d."""
    parts = factor_discriminant(d).parts
    out = [1]
    for p in parts:
        out += [v * p for v in out]
    return out


def k_square_class_equal(w: BiquadElement, d3: int) -> bool:
    """Whether w (nonzero, in the biquadratic field) becomes a square after
    adjoining the square root of d3."""
    if w.is_zero():
        raise ValueError("square classes are defined for nonzero elements")
    if is_square(w) is not None:
        return True
    return is_square(w * d3) is not None


def same_extension(mu1: BiquadElement, mu2: BiquadElement, d3: int,
                   twists: list[int]) -> int | None:
    """The twist identifying the two generators' octic fields, or None.

    mu2 generates the same extension as delta*mu1 exactly when
    mu1*mu2*delta is a square after adjoining sqrt(d3)."""
    for delta in twists:
        if k_square_class_equal(mu1 * mu2 * delta, d3):
            return delta
    return None


def construct_h8(split: H8Factorization, *,
                 roles: tuple[int, int, int] | None = None,
                 forced_a: int | None = None,
                 max_a: int = DEFAULT_MAX_A) -> ExtensionCertificate:
    """End-to-end construction and certification for a validated splitting;
    roles the caller gives must be a permutation of its parts."""
    if roles is None:
        d1, d2, d3 = assign_roles(split.parts)
    elif sorted(roles) != sorted(split.parts):
        raise InvalidParameter(f"roles {roles} are not the parts {split.parts}")
    else:
        d1, d2, d3 = normalize_roles(*roles)

    if forced_a is not None:
        if not parameter_conditions(forced_a, d1, d2):
            raise InvalidParameter(f"parameter {forced_a} fails the symbol conditions "
                                   f"for roles ({d1}, {d2})")
        a = forced_a
    else:
        a = find_parameter_a(d1, d2, max_a=max_a)

    gen = build_mu(d1, d2, d3, a)
    try:
        mu_norm, twist = two_primary_normalize(gen.mu, d1, d2)
    except InternalInvariant:
        if roles is None:
            raise
        # a caller-forced assignment can park the even part in d3 where no
        # rational twist repairs the valuations above 2; that is bad input
        raise InvalidParameter(
            f"role assignment ({d1}, {d2}, {d3}) admits no generator congruent "
            "to a square mod 4; let the builder assign roles instead") from None
    mu_final, inf_twist, totally_positive = resolve_infinity(mu_norm, d1, d2, d3)

    svector, alphas = certify_generator(mu_final, gen)
    galois_class = classify(svector.as_tuple())
    if galois_class is not GaloisClass.QUATERNION:
        raise InternalInvariant(f"constructed class {galois_class.value}, not the quaternion one")
    relations = check_norm_relations(mu_final, d3)
    verdict = infinity_verdict(d1, d2, d3)

    return ExtensionCertificate(
        d=split.d, parts=split.parts, generator=gen, twist=twist, mu_normalized=mu_norm,
        infinity_twist=inf_twist, mu=mu_final, two_primary=True,
        svector=svector, galois_class=galois_class, alphas=alphas,
        norm_relations=relations, infinity=verdict,
        totally_positive=totally_positive,
    )
