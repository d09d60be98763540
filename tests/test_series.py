import pytest

from scan_oracles import p_series_by_flags
from transferlab import series
from transferlab.caps import DEFAULT_CAPS
from transferlab.catalog import (
    alternating,
    cyclic,
    default_corpus,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    psl2,
    sl23,
    symmetric,
    wreath_cyclic,
)
from transferlab.group import PermGroup, normal_closure, span
from transferlab.iso import normal_subgroups, prime_divisors
from transferlab.perm import Perm
from transferlab.series import (
    a_p,
    center,
    derived_series,
    element_p_part,
    frattini_by_maximals,
    frattini_p,
    is_dedekind,
    is_nilpotent,
    is_p_nilpotent,
    is_p_solvable,
    is_pi_central_of_height,
    is_solvable,
    iterated_commutator,
    lower_central_series,
    nilpotency_class,
    norm,
    norm_length,
    norm_series,
    o_p,
    o_p_by_closure,
    o_p_prime,
    o_upper_p,
    omega,
    p_length,
    p_part,
    p_prime_length,
    p_series,
    upper_central_series,
    z_k,
)


def test_p_part_arithmetic():
    assert p_part(24, 2) == 8
    assert p_part(24, 3) == 3
    assert p_part(7, 2) == 1


@pytest.mark.parametrize("n", [0, -1, -8])
def test_p_part_rejects_n_below_1(n):
    """p divides 0 forever, and a negative n has no p-part."""
    with pytest.raises(ValueError, match="n >= 1"):
        p_part(n, 2)


def test_element_p_part():
    x = Perm.from_cycles(6, [(0, 1, 2, 3, 4, 5)])  # order 6
    x2 = element_p_part(x, 2)
    assert x2.order() == 2
    x3 = element_p_part(x, 3)
    assert x3.order() == 3
    assert x2 * x3 == x


def test_derived_series_and_solvability(s4, a5):
    res = derived_series(s4)
    assert [h.order() for h in res.terms] == [24, 12, 4, 1]
    assert is_solvable(s4)
    assert not is_solvable(a5)
    assert derived_series(a5).terms[-1].order() == 60


def test_central_series_and_nilpotency(d8, q16, s4):
    assert is_nilpotent(d8)
    assert nilpotency_class(d8) == 2
    assert nilpotency_class(q16) == 3
    assert not is_nilpotent(s4)
    assert nilpotency_class(s4) is None
    lcs = lower_central_series(d8)
    ucs = upper_central_series(d8)
    assert lcs.terms[-1].order() == 1
    assert ucs.terms[-1].order() == 8


def test_center_and_z_k(d8, q16):
    assert center(d8).order() == 2
    assert center(q16).order() == 2
    assert z_k(d8, 0).order() == 1
    assert z_k(d8, 1).order() == 2
    assert z_k(d8, 2).order() == 8
    assert z_k(q16, 2).order() == 4
    assert z_k(q16, 3).order() == 16


def test_z_k_rejects_negative_k(d8):
    """A negative k would index the series from its top: Z_{-1}(D8) would
    be D8, and every involution of D8 would be central of height -1."""
    with pytest.raises(ValueError, match="k >= 0"):
        z_k(d8, -1)
    with pytest.raises(ValueError, match="k >= 0"):
        is_pi_central_of_height(d8, 2, 1, -1)


def test_norm_and_norm_series(d8, q8, q16, d16, c12):
    # The norm contains the center and normalizes every subgroup.
    from transferlab.iso import all_subgroups

    for g in (d8, q16):
        n = norm(g)
        assert center(g).is_subgroup_of(n)
        for h in all_subgroups(g):
            for x in n.gens:
                assert all(h.contains(x.inverse() * y * x) for y in h.gens)
    assert is_dedekind(q8)
    assert norm(q8).order() == 8
    assert is_dedekind(c12)
    assert d8.order() // norm(d8).order() == 4
    assert norm_length(q16) == 2
    assert norm_length(d16) == 3


def test_frattini_dual_oracles():
    for g, p in ((dihedral(8), 2), (generalized_quaternion(16), 2),
                 (elementary_abelian(3, 2), 3), (cyclic(8), 2),
                 (wreath_cyclic(2), 2)):
        a = frattini_p(g, p)
        b = frattini_by_maximals(g, p)
        assert a.same_group_as(b)
    assert frattini_p(elementary_abelian(2, 3), 2).order() == 1
    assert frattini_p(cyclic(8), 2).order() == 4


def test_omega(d8, q8):
    assert omega(d8, 2).order() == 8  # generated by the 6 involutions
    assert omega(q8, 2).order() == 2  # unique involution
    e9 = elementary_abelian(3, 2)
    assert omega(e9, 3).order() == 9
    c9 = cyclic(9)
    assert omega(c9, 3).order() == 3


def test_o_p_dual_oracles(s4, s5, a5, a4):
    for g, p in ((s4, 2), (s4, 3), (s5, 2), (a5, 2), (a4, 2), (sl23(), 2)):
        a = o_p(g, p)
        b = o_p_by_closure(g, p)
        assert a.same_group_as(b)
    assert o_p(s4, 2).order() == 4
    assert o_p(s4, 3).order() == 1
    assert o_p(a4, 2).order() == 4
    assert o_p(sl23(), 2).order() == 8


def test_o_p_prime_and_o_upper_p(s4, a5):
    assert o_p_prime(s4, 2).order() == 1
    assert o_p_prime(direct_product(cyclic(3), dihedral(8)), 2).order() == 3
    assert o_upper_p(s4, 2).order() == 12  # A4
    assert o_upper_p(s4, 3).order() == 24
    assert o_upper_p(a5, 2).order() == 60  # perfect


@pytest.mark.parametrize(
    "entry",
    [e for e in default_corpus() if e.expected_order <= DEFAULT_CAPS.subgroup_enum_cap],
    ids=lambda e: e.label,
)
def test_o_p_prime_is_largest_normal_p_prime_subgroup(entry):
    """O_{p'}(G) against the normal subgroup list: the normal subgroups of
    p'-order are closed under products, so the largest one is unique."""
    g = entry.build()
    subgroups = normal_subgroups(g)
    for p in prime_divisors(g.order()):
        largest = max((h for h in subgroups if h.order() % p), key=PermGroup.order)
        assert o_p_prime(g, p).element_set() == largest.element_set()


def test_a_p(s4):
    assert a_p(s4, 2).order() == 12
    assert a_p(s4, 3).order() == 24
    g = direct_product(cyclic(2), cyclic(2), name="V")
    assert a_p(g, 2).order() == 1


def test_p_nilpotency(s3, s4, q8, c12):
    # S3 has a normal 2-complement (the C3) but no normal 3-complement.
    assert is_p_nilpotent(s3, 2)
    assert not is_p_nilpotent(s3, 3)
    assert is_p_nilpotent(q8, 2)
    assert is_p_nilpotent(c12, 2)
    assert not is_p_nilpotent(s4, 2)


def test_p_series_and_lengths(s4, s3, a5):
    res = p_series(s4, 2)
    assert res.factors is not None
    assert p_length(s4, 2) == 2
    assert p_prime_length(s4, 2) == 1
    assert p_length(s3, 2) == 1
    assert p_length(s3, 3) == 1
    assert is_p_solvable(s4, 2)
    assert not is_p_solvable(a5, 2)
    assert p_length(a5, 2) is None


SMALL_P_SERIES_PAIRS = [
    pytest.param(e.build, p, id=f"{e.label}-p{p}")
    for e in default_corpus()
    if e.expected_order <= 200
    for p in prime_divisors(e.expected_order)
] + [pytest.param(lambda: direct_product(cyclic(3), alternating(5)), 2, id="C3xA5-p2")]


@pytest.mark.parametrize("build,p", SMALL_P_SERIES_PAIRS)
def test_p_series_matches_the_flag_loop(monkeypatch, build, p):
    """One `_series` call gives the terms, factors and readings of the loop
    that asked for O_{p'} and O_p in turn."""
    g = build()
    fast, slow = p_series(g, p), p_series_by_flags(g, p)
    assert [t.element_set() for t in fast.terms] == [t.element_set() for t in slow.terms]
    assert fast.factors == slow.factors

    def readings():
        return p_length(g, p), p_prime_length(g, p), is_p_solvable(g, p)

    new = readings()
    monkeypatch.setattr(series, "p_series", p_series_by_flags)
    assert readings() == new


def test_p_series_stalls_after_a_p_prime_step():
    """C3 x A5 at p = 2: O_{2'} is the C3, and A5 above it has trivial O_2
    and O_{2'}, so the series stops at C3 and the group is not 2-solvable."""
    g = direct_product(cyclic(3), alternating(5))
    s = p_series(g, 2)
    assert [t.order() for t in s.terms] == [1, 3]
    assert s.factors == ["p'"]
    assert not is_p_solvable(g, 2)
    assert p_length(g, 2) is None


@pytest.mark.parametrize(
    "build,p,orders,factors",
    [
        (lambda: psl2(17), 2, [1], []),
        (lambda: symmetric(4), 2, [1, 4, 12, 24], ["p", "p'", "p"]),
    ],
    ids=["PSL(2,17)-p2", "S4-p2"],
)
def test_p_series_takes_its_first_step_on_g(monkeypatch, build, p, orders, factors):
    """The first step takes the cores of G itself: its quotient is by the
    trivial group, whose image is G, not the regular representation of
    degree |G| (for PSL(2,17), 6 s against 0.03 s)."""
    quotients = []
    real = series.quotient_group

    def recording(g, n):
        q = real(g, n)
        quotients.append((n.order(), q.image is g))
        return q

    monkeypatch.setattr(series, "quotient_group", recording)
    s = p_series(build(), p)
    assert quotients[0] == (1, True)
    assert all(is_source for order, is_source in quotients if order == 1)
    assert [t.order() for t in s.terms] == orders
    assert s.factors == factors


def test_iterated_commutator():
    a = Perm.from_cycles(4, [(0, 1, 2, 3)])
    b = Perm.from_cycles(4, [(0, 1)])
    c1 = iterated_commutator(a, b, 1)
    assert c1 == a.inverse() * b.inverse() * a * b
    c2 = iterated_commutator(a, b, 2)
    assert c2 == c1.inverse() * b.inverse() * c1 * b
    with pytest.raises(ValueError):
        iterated_commutator(a, b, 0)


def test_pi_central_height(d8, q8, q16):
    # D8 has noncentral involutions, so order-2 elements are not central,
    # but they all lie in Z_2 = D8.
    assert not is_pi_central_of_height(d8, 2, 1, 1)
    assert is_pi_central_of_height(d8, 2, 1, 2)
    # Q8 and Q16 have a unique involution, which is central.
    assert is_pi_central_of_height(q8, 2, 1, 1)
    assert is_pi_central_of_height(q16, 2, 1, 1)
    # The order-4 elements of Q16 outside the cyclic maximal subgroup only
    # reach the third center (Q16 has maximal class).
    assert not is_pi_central_of_height(q16, 2, 2, 2)
    assert is_pi_central_of_height(q16, 2, 2, 3)
