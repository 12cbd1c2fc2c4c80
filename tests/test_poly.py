"""Polynomial arithmetic and Smith normal form over GF(q)[x].

Every `Poly` operation must equal the coefficient-pair reference of
`tests/oracles.py` over GF(2), GF(3), GF(5), GF(4), GF(8) and GF(9), at
degrees 0 to 100 with zero included, and give a tuple of Python ints.
Planted faults must fail that property, where a raise counts as a failure
and the first failing draw is enough (no shrinking): a Toeplitz matrix
missing its last column, a `divmod` that skips the last quotient step,
and a `derivative` whose multiplier i is not reduced mod p, which shows
only over GF(p^m) at degree >= p.  The Smith diagonal is certified by the determinantal
divisors over prime and extension fields.
"""

import __future__
import inspect
import random
import textwrap

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from cartierforge import poly
from cartierforge.field import GF
from cartierforge.poly import Poly, smith_normal_form
from oracles import (determinantal_divisors, ref_add, ref_derivative, ref_divmod,
                     ref_gcd, ref_mul, ref_neg, ref_scale, ref_sub)

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2)]


@st.composite
def poly_cases(draw):
    """(F, a, b, c): two polynomials of degree -1 (zero) to 100 and a code."""
    F = GF(*draw(st.sampled_from(FIELDS)))
    code = st.integers(0, F.order - 1)

    def polynomial():
        deg = draw(st.one_of(st.sampled_from([-1, 0]), st.integers(1, 100)))
        if deg < 0:
            return Poly.zero(F)
        lead = draw(st.integers(1, F.order - 1))
        return Poly.make(F, draw(st.lists(code, min_size=deg, max_size=deg)) + [lead])
    return F, polynomial(), polynomial(), draw(code)


def mismatches(case) -> list:
    """The operations whose result differs from the reference or is not a
    tuple of Python ints."""
    F, a, b, c = case
    A, B = a.coeffs, b.coeffs
    ops = {"+": (a + b, ref_add(F, A, B)), "-": (a - b, ref_sub(F, A, B)),
           "neg": (-a, ref_neg(F, A)), "*": (a * b, ref_mul(F, A, B)),
           "scale": (a.scale(c), ref_scale(F, A, c)),
           "derivative": (a.derivative(), ref_derivative(F, A))}
    if B:
        (q, r), (want_q, want_r) = a.divmod(b), ref_divmod(F, A, B)
        ops.update(quotient=(q, want_q), remainder=(r, want_r),
                   gcd=(a.gcd(b), ref_gcd(F, A, B)))
    return [op for op, (got, want) in ops.items()
            if got.coeffs != want or any(type(x) is not int for x in got.coeffs)]


@settings(max_examples=60, deadline=None)
@given(poly_cases())
def test_ops_match_the_coefficient_reference(case):
    assert mismatches(case) == []


def planted(name: str, old: str, new: str):
    """A planted fault: the `Poly` method `name` with the text `old` of its
    source, which occurs once, replaced by `new`."""
    src = textwrap.dedent(inspect.getsource(getattr(Poly, name)))
    assert src.count(old) == 1
    namespace = dict(vars(poly))
    exec(compile(src.replace(old, new), "<planted>", "exec",
                 __future__.annotations.compiler_flag, dont_inherit=True), namespace)
    return namespace[name]


@pytest.mark.parametrize("name,old,new", [
    ("__mul__", "for j in range(k):", "for j in range(k - 1):"),
    ("divmod", "range(len(q) - 1, -1, -1)", "range(len(q) - 1, 0, -1)"),
    ("derivative", "np.arange(1, len(c) + 1) % F.p", "np.arange(1, len(c) + 1)"),
])
def test_planted_faults_fail_the_reference_property(monkeypatch, name, old, new):
    monkeypatch.setattr(Poly, name, planted(name, old, new))
    find(poly_cases(), detects_fault,
         settings=settings(max_examples=500, database=None, phases=(Phase.generate,)))


def detects_fault(case) -> bool:
    """A mismatch, or a raise: a planted fault may hand the field tables a
    code >= q (the unreduced `derivative` over GF(4) or GF(8))."""
    try:
        return bool(mismatches(case))
    except Exception:
        return True


def test_poly_ring_ops():
    F = GF(3)
    a = Poly.make(F, [1, 2, 1])
    b = Poly.make(F, [2, 1])
    q, r = (a * b).divmod(b)
    assert q.coeffs == a.coeffs and r.is_zero()
    assert (a + (-a)).is_zero()
    assert a.gcd(b).is_unit() or a.gcd(b).lead() == 1
    with pytest.raises(ZeroDivisionError):
        a.divmod(Poly.zero(F))


def test_smith_diagonal_examples():
    F = GF(2)
    x = Poly.x(F)
    d = smith_normal_form(F, [[x]])
    assert [p.coeffs for p in d] == [(0, 1)]
    d2 = smith_normal_form(
        F, [[x, Poly.zero(F)], [Poly.zero(F), x * x]])
    assert [p.coeffs for p in d2] == [(0, 1), (0, 0, 1)]
    # companion-style blow-up of (x): invariant factors (1, x)
    d3 = smith_normal_form(
        F, [[Poly.zero(F), x], [Poly.one(F), Poly.zero(F)]])
    assert [p.coeffs for p in d3] == [(1,), (0, 1)]


def test_smith_random_certified():
    rng = random.Random(6)
    for p, deg in [(2, 1), (3, 1), (2, 2), (3, 2)]:
        F = GF(p, deg)
        for _ in range(40):
            n, m = rng.randrange(1, 4), rng.randrange(1, 4)
            rows = [[Poly.make(F, [rng.randrange(F.order) for _ in range(rng.randrange(4))])
                     for _ in range(m)] for _ in range(n)]
            d = smith_normal_form(F, rows)
            # d_1 ... d_k is the monic gcd of the k x k minors, for each k
            assert len(d) == min(n, m)
            prod = (1,)
            for dk, want in zip(d, determinantal_divisors(F, rows)):
                prod = ref_mul(F, prod, dk.coeffs)
                assert prod == want.coeffs
            # monic with a divisibility chain
            for i in range(len(d) - 1):
                if d[i].is_zero():
                    assert d[i + 1].is_zero()
                elif not d[i + 1].is_zero():
                    assert not ref_divmod(F, d[i + 1].coeffs, d[i].coeffs)[1]
            for di in d:
                assert di.is_zero() or di.lead() == 1


def test_smith_diag_unique_under_row_col_scrambles():
    # the diagonal is an invariant: scrambling by unimodular moves keeps it
    rng = random.Random(4)
    F = GF(3)
    x = Poly.x(F)
    base = [[x, Poly.zero(F)], [Poly.one(F), x * x]]
    d0 = smith_normal_form(F, base)
    for _ in range(10):
        rows = [row[:] for row in base]
        # random row/col additions
        for _ in range(4):
            i, j = rng.sample(range(2), 2)
            f = Poly.make(F, [rng.randrange(3) for _ in range(2)])
            rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
        d1 = smith_normal_form(F, rows)
        assert [p.coeffs for p in d0] == [p.coeffs for p in d1]
