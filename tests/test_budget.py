"""Bounds on repeated work: a construction factors each discriminant a
bounded number of times, a splitting check factors only the parts whose
odd part is composite and never d, a survey of d and a conic parameter
search factor each value at most once, because `_fundamental_primes`
remembers its recent answers, the totally-real verdict on an enumerated
splitting factors nothing, the enumerators probe no candidate that its
signs rule out, a field base is checked once, not on every
arithmetic result, the squares mod 4 are tabulated once per residue
class of the base mod 16, by integer arithmetic, an inverse makes no
element product, a product makes no Fraction product or sum, each stated
lift root is checked once, without a square-root search, and a square
root modulo n factors n where the factoring is counted.  The tests that
count factoring calls clear the memo of `_fundamental_primes` first, so
that their counts do not depend on the tests run before them."""

from collections import Counter
from fractions import Fraction

import pytest

import quatext._intmath
import quatext.cli
import quatext.construct
import quatext.dihedral
import quatext.factorizations
import quatext.field
import quatext.symbols
from quatext import (BaseMismatch, BiquadElement, GaloisAction, assign_roles,
                     check_d4_split, check_h8_split, construct_h8, d4_construct,
                     element, enumerate_d4, enumerate_h8, infinity_verdict,
                     is_fundamental, is_h8_split, two_primary_oracle)
from quatext.cli import main
from quatext.conic import find_parameter_a
from quatext.construct import _squares_mod4
from quatext.symbols import _fundamental_primes


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call is recorded; return the record."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_construct_h8_factoring_budget(monkeypatch):
    _fundamental_primes.cache_clear()
    calls = count_calls(monkeypatch, quatext._intmath, "factorint")
    construct_h8(enumerate_h8(520)[0])
    assert 0 < len(calls) <= 30


def test_d4_construct_factoring_budget(monkeypatch):
    _fundamental_primes.cache_clear()
    calls = count_calls(monkeypatch, quatext._intmath, "factorint")
    d4_construct(enumerate_d4(680)[0])
    assert 0 < len(calls) <= 30


def test_base_checked_once_per_field(monkeypatch):
    calls = count_calls(monkeypatch, quatext.field, "is_fundamental")
    x = element(5, 8, 1, 2, 3, 4)
    y = element(5, 8, 0, 1, 0, 0)
    for _ in range(200):
        x * y
    assert len(calls) <= 2


def test_arithmetic_results_skip_the_base_check(monkeypatch):
    """Only element() checks a base: the results of arithmetic on checked
    operands are built directly."""
    x = element(-7, 13, Fraction(3, 2), 1, -2, Fraction(5, 3))
    y = element(-7, 13, 0, 1, 0, 0)
    calls = count_calls(monkeypatch, quatext.field, "_check_base")
    x * y
    3 * x
    x.apply(GaloisAction.SIGMA_TAU)
    -x
    x.inv()
    x / Fraction(2, 3)
    assert calls == []


def test_bad_base_raises_every_time():
    for _ in range(3):
        with pytest.raises(BaseMismatch):
            element(5, 40, 1)
        with pytest.raises(BaseMismatch):
            element(5, 9, 1)


def test_split_checks_factor_only_composite_parts(monkeypatch):
    """A prime part needs only a primality test, and d is never factored:
    with three large prime parts that would be a full ECM split of d."""
    _fundamental_primes.cache_clear()
    calls = count_calls(monkeypatch, quatext._intmath, "factorint")
    check_h8_split(520, (5, 8, 13))
    check_d4_split(680, 8, 17)
    assert calls == []
    is_h8_split(-1560, (-3, 8, 65))
    assert [n for (n,) in calls] == [65]


def test_survey_of_d_factors_each_value_once(monkeypatch):
    """One survey op (the fundamentality test and both enumerations) asks
    for the primes of d three times and of each candidate part once per
    grouping that holds it; each value is factored once.  d is odd: an
    even d has parts v and 8v (or -4v, -8v) that share the odd part."""
    d = -3 * 5 * -7 * 13 * 17 * 29
    _fundamental_primes.cache_clear()
    calls = count_calls(monkeypatch, quatext._intmath, "factorint")
    assert is_fundamental(d)
    enumerate_h8(d)
    enumerate_d4(d)
    factored = Counter(n for (n,) in calls)
    assert abs(d) in factored and 5 * 13 in factored
    assert max(factored.values()) == 1


@pytest.mark.parametrize("d, probes, found", [
    (-3 * -7 * -11 * 5 * 13 * 17, (63, 220), (1, 11)),
    (-3 * -7 * -11 * -19 * 5 * 8 * 13, (63, 696), (1, 30)),
])
def test_enumerators_probe_only_what_the_signs_allow(monkeypatch, d, probes, found):
    """A grouping with two negative blocks is never an H8 splitting, and a
    pair of two negative blocks never a D4 pair: the enumerators skip them
    before any probe (90 and 301 probes for -255255, 301 and 966 for
    2282280 when every candidate was probed)."""
    h8 = count_calls(monkeypatch, quatext.factorizations, "is_h8_split")
    d4 = count_calls(monkeypatch, quatext.factorizations, "check_d4_split")
    assert (len(enumerate_h8(d)), len(enumerate_d4(d))) == found
    assert (len(h8), len(d4)) == probes


def test_parameter_search_factors_the_pair_once(monkeypatch):
    """find_parameter_a tests 26 candidates on (221, 105) before a = 101
    fits; the prime discriminants of 221 and 105 are found once."""
    _fundamental_primes.cache_clear()
    calls = count_calls(monkeypatch, quatext._intmath, "factorint")
    tries = count_calls(monkeypatch, quatext.conic, "parameter_conditions")
    assert find_parameter_a(221, 105) == 101
    assert len(tries) == 26
    assert sorted(n for (n,) in calls) == [105, 221]


def test_verdict_factors_nothing_after_the_enumeration(monkeypatch):
    """The totally-real verdict reads the primes of its parts and of its
    quartic moduli from the memo that enumerate_h8 filled (17 factorint
    calls over these d when it factored d and each modulus again)."""
    _fundamental_primes.cache_clear()
    calls = count_calls(monkeypatch, quatext._intmath, "factorint")
    verdicts = 0
    for d in (8520, 3848, 2120, 1480, 520, 14105, 21505):
        splittings = enumerate_h8(d)
        calls.clear()
        for f in splittings:
            infinity_verdict(*assign_roles(f.parts))
            verdicts += 1
        assert calls == [], d
    assert verdicts == 5


def test_square_root_modulo_n_factors_n_where_it_is_counted(monkeypatch):
    """The conic descent's square roots modulo a composite factor the
    modulus through factorint, so the factoring budgets above see them."""
    calls = count_calls(monkeypatch, quatext._intmath, "factorint")
    assert quatext._intmath.sqrt_modulo(4, 15) == 2
    assert calls == [(15,)]


def test_square_table_built_once_per_residue_class(capsys):
    _squares_mod4.cache_clear()
    assert main("scan -2000..2000 --d4 --json".split()) == 0
    capsys.readouterr()
    # 6 residues mod 16 of a fundamental discriminant, 32 coprime pairs
    assert _squares_mod4.cache_info().misses <= 32


def test_square_mod4_test_multiplies_no_field_elements(monkeypatch):
    _squares_mod4.cache_clear()
    x = element(-7, 13, 3, 1, 2, 5)
    calls = count_calls(monkeypatch, BiquadElement, "__mul__")
    two_primary_oracle(x)
    assert calls == []


def test_inverse_multiplies_no_field_elements(monkeypatch):
    x = element(-7, 13, Fraction(3, 2), 1, -2, Fraction(5, 3))
    muls = count_calls(monkeypatch, BiquadElement, "__mul__")
    applies = count_calls(monkeypatch, BiquadElement, "apply")
    assert x * x.inv() == element(-7, 13, 1)
    assert len(muls) == 1 and applies == []


def test_product_makes_no_fraction_arithmetic(monkeypatch):
    """A product of two field elements is one integer pass: no Fraction
    product or sum, only the four result coordinates built once."""
    x = element(-7, 13, Fraction(3, 2), 1, -2, Fraction(5, 3))
    y = element(-7, 13, Fraction(-1, 4), 0, 7, Fraction(2, 9))
    muls = count_calls(monkeypatch, Fraction, "__mul__")
    adds = count_calls(monkeypatch, Fraction, "__add__")
    x * y
    assert muls == [] and adds == []


def test_lifts_are_certified_without_a_square_root_search(monkeypatch):
    """Each stated root is checked once, and no is_square and no inv runs
    inside compute_alpha, for one quaternion and one dihedral construction:
    rho shares psi3's root and sigma_tau shares tau's, so each only reads
    its sign."""
    depth = [0]
    lifts = []
    original = quatext.construct.compute_alpha

    def nested(*args, **kwargs):
        lifts.append(args[1])
        depth[0] += 1
        try:
            return original(*args, **kwargs)
        finally:
            depth[0] -= 1

    for module in (quatext.construct, quatext.dihedral):
        monkeypatch.setattr(module, "compute_alpha", nested)
    searched = []
    for holder, name in ((quatext.construct, "is_square"), (quatext.field, "is_square"),
                         (BiquadElement, "inv")):
        wrapped = getattr(holder, name)

        def recording(*args, _wrapped=wrapped, _name=name, **kwargs):
            if depth[0]:
                searched.append(_name)
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(holder, name, recording)
    construct_h8(enumerate_h8(520)[0])
    d4_construct(enumerate_d4(680)[0])
    assert lifts == ["psi1", "psi2", "psi3", "sigma", "tau"]
    assert searched == []


@pytest.mark.parametrize("mode", ["--h8", "--d4"])
def test_scan_takes_each_splitting_as_enumerated(monkeypatch, capsys, mode):
    """The scan factors each d once, and the constructors never check the
    splitting they are given: symbols' entry points (is_fundamental,
    factor_discriminant) see each d at most once outside the constructors,
    and no part check runs inside them."""
    depth = [0]

    def nested(name):
        original = getattr(quatext.cli, name)

        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                return original(*args, **kwargs)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(quatext.cli, name, wrapper)

    nested("construct_h8")
    nested("d4_construct")
    outside = []
    inside = []
    for module, name, record in ((quatext.symbols, "_fundamental_primes", outside),
                                 (quatext.factorizations, "_part_primes", inside)):
        original = getattr(module, name)

        def counting(*args, _original=original, _record=record):
            _record.append((depth[0], args))
            return _original(*args)

        monkeypatch.setattr(module, name, counting)
    factored = count_calls(monkeypatch, quatext._intmath, "factorint")
    assert main(["scan", "-2000..2000", mode, "--json"]) == 0
    capsys.readouterr()
    scanned = Counter(d for level, (d,) in outside if level == 0)
    assert scanned and max(scanned.values()) == 1
    assert [args for level, args in inside if level > 0] == []
    # 1,827 (--h8) and 3,382 (--d4) calls when every splitting was checked again
    assert len(factored) <= {"--h8": 1200, "--d4": 2700}[mode]
