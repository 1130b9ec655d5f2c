"""Number-field descriptors: invariants, split-prime sets, norm classes, and
the JSON round trip.  sympy appears here as an independent oracle only."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from traceforms.exact import SquareClass, hilbert_support, squarefree_class
from traceforms.numfields import (
    IN,
    OUT,
    UNKNOWN,
    Cyclotomic,
    DescriptorError,
    GeneralCM,
    GeneralTotallyReal,
    ImagQuadratic,
    RealQuadratic,
    cyclotomic_disc_class,
    desc_from_json,
    euler_phi,
    field_invariants,
    in_SE,
    is_norm_quadratic,
    lambda_plus_quadratic,
    verify_lambda_plus_witness,
)
from traceforms.poly import Poly


# ---------------------------------------------------------------------------
# descriptors and invariants


def test_real_quadratic_invariants():
    fi = field_invariants(RealQuadratic(5))
    assert fi.degree == 2 and not fi.is_cm
    assert fi.disc_class == SquareClass(5)
    for bad in (4, -3, 1):
        with pytest.raises(DescriptorError):
            field_invariants(RealQuadratic(bad))


def test_imag_quadratic_invariants():
    fi = field_invariants(ImagQuadratic(1))
    assert fi.degree == 2 and fi.is_cm and fi.half_degree == 1
    assert fi.disc_class == SquareClass(-1)
    assert field_invariants(ImagQuadratic(3)).disc_class == SquareClass(-3)
    for bad in (-1, 8):
        with pytest.raises(DescriptorError):
            field_invariants(ImagQuadratic(bad))


def test_cyclotomic_canonicalization():
    # level 2n with n odd names the same field as level n
    assert Cyclotomic(66).n == 33
    assert Cyclotomic(6).n == 3
    assert Cyclotomic(44).n == 44
    for bad in (2, 1):
        with pytest.raises(DescriptorError):
            field_invariants(Cyclotomic(bad))


def test_euler_phi():
    assert [euler_phi(n) for n in (3, 4, 5, 7, 9, 12, 25, 44)] == \
        [2, 2, 4, 6, 6, 4, 20, 20]


def test_cyclotomic_degrees_and_cm():
    for n, deg in [(5, 4), (7, 6), (12, 4), (25, 20), (33, 20), (44, 20)]:
        fi = field_invariants(Cyclotomic(n))
        assert fi.degree == deg
        assert fi.is_cm
        assert fi.half_degree == deg // 2


def test_cyclotomic_disc_class_against_sympy():
    # the ring of integers of a cyclotomic field is generated by the root of
    # unity, so the polynomial discriminant IS the field discriminant
    import sympy

    x = sympy.symbols("x")
    for n in (5, 7, 9, 11, 12, 13, 15, 16, 20, 25, 27, 32, 33, 44):
        poly = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
        disc = int(sympy.discriminant(poly.as_expr(), x))
        assert cyclotomic_disc_class(n) == squarefree_class(disc), n


def test_known_disc_classes():
    assert cyclotomic_disc_class(44) == SquareClass(1)
    assert cyclotomic_disc_class(33) == SquareClass(1)
    assert cyclotomic_disc_class(25) == SquareClass(5)
    assert cyclotomic_disc_class(5) == SquareClass(5)
    assert cyclotomic_disc_class(7) == SquareClass(-7)
    assert cyclotomic_disc_class(3) == SquareClass(-3)


def test_general_totally_real():
    cubic = GeneralTotallyReal(minpoly=(-1, -3, 0, 1))
    fi = field_invariants(cubic)
    assert fi.degree == 3 and not fi.is_cm
    assert fi.disc_class == SquareClass(1)       # disc 81

    # x^3 - 2 has one real root: not totally real
    with pytest.raises(DescriptorError):
        field_invariants(GeneralTotallyReal(minpoly=(-2, 0, 0, 1)))


def test_non_squarefree_minimal_polynomial_is_named():
    # x^2 and (x - 1)^2 (x - 2) have fewer distinct real roots than their
    # degree, but the reason to reject them is the repeated root
    for coeffs in ((0, 0, 1), (-2, 5, -4, 1)):
        with pytest.raises(DescriptorError, match="not squarefree"):
            field_invariants(GeneralTotallyReal(minpoly=coeffs))
        with pytest.raises(DescriptorError, match="not squarefree"):
            field_invariants(GeneralCM(real_minpoly=coeffs, disc_class=5))
    with pytest.raises(DescriptorError, match="not totally real"):
        field_invariants(GeneralTotallyReal(minpoly=(-2, 0, 0, 1)))


def test_general_cm_names_each_split_prime_once():
    # `in_SE` read the first entry, so the order of the entries decided
    for table, message in (([(4, True)], "non-prime 4"),
                           ([(3, True), (3, False)], "prime twice: 3")):
        with pytest.raises(DescriptorError, match=message):
            GeneralCM((-2, 0, 1), -1, table)
    assert GeneralCM((-2, 0, 1), -1, [(3, True), (5, False)]) \
        .se_assertions == ((3, True), (5, False))


def test_general_totally_real_quintic_sextic():
    quintic = GeneralTotallyReal(minpoly=(1, 3, -3, -4, 1, 1))
    assert field_invariants(quintic).degree == 5
    assert field_invariants(quintic).disc_class == SquareClass(1)
    sextic = GeneralTotallyReal(minpoly=(-1, 3, 6, -4, -5, 1, 1))
    assert field_invariants(sextic).disc_class == SquareClass(13)


def test_general_cm():
    # a degree-8 CM field presented by its totally real quartic subfield
    e8 = GeneralCM(real_minpoly=(2, 0, -4, 0, 1), disc_class=2)
    fi = field_invariants(e8)
    assert fi.degree == 8 and fi.is_cm and fi.half_degree == 4
    assert fi.disc_class == SquareClass(2)


def test_descriptor_json_roundtrip():
    for E, obj in (
            (RealQuadratic(7), {"kind": "real_quadratic", "d": 7}),
            (ImagQuadratic(3), {"kind": "imag_quadratic", "D": 3}),
            (Cyclotomic(25), {"kind": "cyclotomic", "n": 25}),
            (GeneralTotallyReal(minpoly=(-1, -3, 0, 1)),
             {"kind": "general_tr", "minpoly": ["-1", "-3", "0", "1"]})):
        back = desc_from_json(obj)
        assert back == E
        assert field_invariants(back) == field_invariants(E)
    with pytest.raises(DescriptorError):
        desc_from_json({"kind": "martian", "x": 1})
    with pytest.raises(DescriptorError):
        desc_from_json({"no": "kind"})


# ---------------------------------------------------------------------------
# split-prime sets


def test_in_se_imag_quadratic():
    # Q(i): split exactly at p = 1 mod 4
    gauss = ImagQuadratic(1)
    for p in (5, 13, 17, 29):
        assert in_SE(gauss, p) == IN
    for p in (3, 7, 11, 2):
        assert in_SE(gauss, p) == OUT
    with pytest.raises(ValueError):
        in_SE(gauss, 6)
    with pytest.raises(ValueError):
        in_SE(RealQuadratic(5), 3)


def primes_below(bound):
    out = []
    for q in range(2, bound):
        if all(q % r for r in range(2, int(q ** 0.5) + 1)):
            out.append(q)
    return out


def test_in_se_cyclotomic_prime_levels_quadratic_residues():
    # for a prime level n = 3 mod 4, the conjugation-avoidance criterion
    # collapses to p being a square mod n
    for n in (7, 11, 19):
        squares = {(x * x) % n for x in range(1, n)}
        for p in primes_below(100):
            if p == n:
                continue
            expected = IN if p % n in squares else OUT
            assert in_SE(Cyclotomic(n), p) == expected, (n, p)


def test_in_se_cyclotomic_independent_subgroup_check():
    # brute subgroup enumeration, written from scratch
    for n in (5, 12, 13, 16, 25, 33, 44):
        E = Cyclotomic(n)
        for p in primes_below(60):
            if n % p == 0:
                continue
            subgroup = {1}
            x = p % n
            while x not in subgroup:
                subgroup.add(x)
                x = (x * p) % n
            expected = OUT if (n - 1) in subgroup else IN
            assert in_SE(E, p) == expected, (n, p)


def test_in_se_cyclotomic_ramified():
    # pure prime-power levels never split at their own prime
    assert in_SE(Cyclotomic(25), 5) == OUT
    assert in_SE(Cyclotomic(16), 2) == OUT
    assert in_SE(Cyclotomic(4), 2) == OUT
    # composite levels reduce to the prime-to-p part: 12 = 4*3
    # at p=2: -1 in <2> mod 3, at p=3: -1 in <3> mod 4 -> both out
    assert in_SE(Cyclotomic(12), 2) == OUT
    assert in_SE(Cyclotomic(12), 3) == OUT
    # 20 = 4*5 at p=5: subgroup <5 mod 4> = {1}, no -1 -> split
    assert in_SE(Cyclotomic(20), 5) == IN
    # 15 = 3*5 at p=5: <5 mod 3> = {1,2} contains -1 -> out
    assert in_SE(Cyclotomic(15), 5) == OUT


def test_in_se_ramified_against_quadratic_subfield():
    # Q(zeta_4) IS Q(i); the two descriptor routes must agree everywhere
    for p in primes_below(60):
        assert in_SE(Cyclotomic(4), p) == in_SE(ImagQuadratic(1), p), p
    # Q(zeta_3) is Q(sqrt -3)
    for p in primes_below(60):
        assert in_SE(Cyclotomic(3), p) == in_SE(ImagQuadratic(3), p), p


def test_in_se_general_cm_assertions():
    e = GeneralCM(real_minpoly=(2, 0, -4, 0, 1), disc_class=2,
                  se_assertions=((2, True), (3, False)))
    assert in_SE(e, 2) == IN
    assert in_SE(e, 3) == OUT
    assert in_SE(e, 5) == UNKNOWN


# ---------------------------------------------------------------------------
# norm classes


def test_is_norm_quadratic_examples():
    assert is_norm_quadratic(5, -1)          # fundamental unit has norm -1
    assert not is_norm_quadratic(3, 3)
    assert is_norm_quadratic(2, 2)           # 2 = norm of sqrt(2)... as 2 = 2
    assert is_norm_quadratic(2, -1)          # 1 - 2 = -1 = N(1 + sqrt 2)
    assert not is_norm_quadratic(3, -1)      # 3 has a factor 3 mod 4


def test_norm_vs_symbol():
    for d in (2, 3, 5, 6, 7, 10, 13):
        for a in (-6, -5, -3, -2, -1, 1, 2, 3, 5, 7, 10, 15):
            assert is_norm_quadratic(d, a) == (hilbert_support(a, d)
                                               == frozenset())


def test_lambda_plus_quadratic():
    # 1 is always the norm of 1
    for d in (2, 3, 5, 13):
        assert lambda_plus_quadratic(d, 1)
    # negative targets can never be totally positive norms
    assert not lambda_plus_quadratic(5, -1)
    # d itself is a totally positive norm iff -1 is a norm (sqrt(d): norm -d)
    assert lambda_plus_quadratic(5, 5)
    assert lambda_plus_quadratic(2, 2)
    assert not lambda_plus_quadratic(3, 3)
    assert not lambda_plus_quadratic(7, 7)
    assert lambda_plus_quadratic(13, 13)


def test_lambda_plus_vs_sum_of_two_squares():
    # for odd squarefree d, d a totally positive norm from Q(sqrt d) is the
    # classical two-squares condition
    def sum2(d):
        k = 0
        while k * k <= d:
            rest = d - k * k
            s = int(rest ** 0.5)
            if any(t * t == rest for t in (s - 1, s, s + 1) if t >= 0):
                return True
            k += 1
        return False

    for d in range(3, 100, 2):
        if squarefree_class(d).n != d:
            continue
        assert lambda_plus_quadratic(d, d) == sum2(d), d


def test_verify_lambda_plus_witness():
    # alpha = 2 + sqrt(2) is totally positive with norm 2; over Q(sqrt 2)
    # (m = 1) it certifies target class 2 * disc = 2 * 2 = 1... norm * disc^m
    E = GeneralTotallyReal(minpoly=(-2, 0, 1))
    alpha = Poly.make([2, 1])
    fi = field_invariants(E)
    target = squarefree_class(2) * fi.disc_class
    assert verify_lambda_plus_witness(E, 1, target, alpha)
    # a wrong target class is rejected
    assert not verify_lambda_plus_witness(E, 1, squarefree_class(3), alpha)
    # alpha = sqrt(2)'s polynomial x is not totally positive (one embedding
    # is negative)
    assert not verify_lambda_plus_witness(E, 1, squarefree_class(-2),
                                          Poly.make([0, 1]))


@given(st.integers(2, 400))
@settings(max_examples=200, derandomize=True)
def test_norm_multiplicativity(d):
    d = squarefree_class(d).n
    if d < 2:
        return
    # the norm set is a group: closed under products
    vals = [-1, 2, 3, 5]
    norms = [a for a in vals if is_norm_quadratic(d, a)]
    for a in norms:
        for b in norms:
            if a * b != 0:
                assert is_norm_quadratic(d, a * b)


def test_integral_minpoly_coefficients_read_as_ints():
    # ints compare and hash as the equal Fractions, in C: a descriptor read
    # again finds its memo entries without Fraction.__eq__ or __hash__
    E = desc_from_json({"kind": "general_tr", "minpoly": [-1, -3, 0, 1]})
    built = GeneralTotallyReal(tuple(Fraction(c) for c in (-1, -3, 0, 1)))
    assert [type(c) for c in E.minpoly] == [int] * 4
    assert E == built and hash(E) == hash(built)
    assert field_invariants(E) == field_invariants(built)
    # a fraction keeps its Fraction, and "4/2" reads as the int 2
    half = desc_from_json({"kind": "general_tr",
                           "minpoly": ["-1/2", "4/2", 0, 1]})
    assert half.minpoly == (Fraction(-1, 2), 2, 0, 1)
    assert [type(c) for c in half.minpoly] == [Fraction, int, int, int]
    cm = desc_from_json({"kind": "general_cm", "minpoly": ["-2", 0, 1],
                         "disc": 5})
    assert [type(c) for c in cm.real_minpoly] == [int] * 3
