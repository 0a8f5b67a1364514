"""Dense-free polynomial arithmetic over the rationals.

A polynomial in r variables is a dict mapping exponent tuples of length r
to nonzero Fractions.  Zero polynomials are empty dicts.  Addition,
multiplication and substitution start from int 0 and 1, so polynomials
whose coefficients are all ints stay in ints (`moduli._affine_sum`
composes its integer forms this way).
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Q, Vec

Poly = dict[tuple[int, ...], Fraction]


def poly_const(c: Q, nvars: int) -> Poly:
    return {} if c == 0 else {(0,) * nvars: c}


def poly_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m, 0) + c
        if nc == 0:
            out.pop(m, None)
        else:
            out[m] = nc
    return out


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            nc = out.get(m, 0) + c1 * c2
            if nc == 0:
                out.pop(m, None)
            else:
                out[m] = nc
    return out


def poly_eval(p: Poly, point: Vec) -> Q:
    total = Q(0)
    for m, c in p.items():
        term = c
        for x, e in zip(point, m):
            if e:
                term *= x**e
        total += term
    return total


def poly_shift(p: Poly, offset: Vec) -> Poly:
    """Compose with the translation x -> offset + x (`poly_subs_affine`)."""
    nvars = len(offset)
    units = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    return poly_subs_affine(p, [poly_add({u: Q(1)}, poly_const(c, nvars))
                                for u, c in zip(units, offset)])


def poly_subs_affine(p: Poly, forms: list[Poly]) -> Poly:
    """Substitute variable i -> forms[i], a polynomial in the new variables."""
    if not p:
        return {}
    new_nvars = len(next(iter(forms[0]))) if forms and forms[0] else None
    if new_nvars is None:
        for f in forms:
            if f:
                new_nvars = len(next(iter(f)))
                break
    assert new_nvars is not None
    out: Poly = {}
    pow_cache: dict[tuple[int, int], Poly] = {}

    def form_pow(i: int, e: int) -> Poly:
        key = (i, e)
        if key not in pow_cache:
            if e == 0:
                pow_cache[key] = poly_const(1, new_nvars)
            else:
                pow_cache[key] = poly_mul(form_pow(i, e - 1), forms[i])
        return pow_cache[key]

    for m, c in p.items():
        term = poly_const(c, new_nvars)
        for i, e in enumerate(m):
            if e:
                term = poly_mul(term, form_pow(i, e))
        out = poly_add(out, term)
    return out

