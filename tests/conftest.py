"""Shared hypothesis strategies for the exact-algebra test modules."""

from fractions import Fraction

from hypothesis import settings, strategies as st

from superjet import GrassmannElement, Polynomial, SuperFunction, SuperMorphism, SuperPoint

# algebra ops on bigger cases can exceed the default per-example deadline
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

# the 25 values of st.fractions(-3, 3, max_denominator=3), drawn far faster;
# sorted by (|f|, sign) so that shrinking still heads to 0
small_fractions = st.sampled_from(sorted(
    {Fraction(num, den) for den in (1, 2, 3) for num in range(-3 * den, 3 * den + 1)},
    key=lambda f: (abs(f), f < 0)))
nonzero_fractions = small_fractions.filter(bool)
small_ints = st.integers(min_value=-3, max_value=3)
floats = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


@st.composite
def grassmann_elements(draw, n=None, parity=None, max_terms=4, coefficients=small_fractions):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=4))
    masks = [m for m in range(1 << n) if parity is None or m.bit_count() & 1 == parity]
    picked = draw(st.lists(st.sampled_from(masks), max_size=max_terms))
    terms = {}
    for m in picked:
        terms[m] = terms.get(m, 0) + draw(coefficients)
    return GrassmannElement(n, {m: c for m, c in terms.items() if c})


@st.composite
def polynomials(draw, p=None, degree=3, max_terms=3, coefficients=small_fractions):
    if p is None:
        p = draw(st.integers(min_value=1, max_value=3))
    exponents = st.lists(
        st.integers(min_value=0, max_value=degree), min_size=p, max_size=p
    )
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        e = tuple(draw(exponents))
        if sum(e) > degree:
            continue
        terms[e] = terms.get(e, 0) + draw(coefficients)
    return Polynomial(p, {e: c for e, c in terms.items() if c})


@st.composite
def superfunctions(draw, p=None, q=None, degree=3, coefficients=small_fractions):
    if p is None:
        p = draw(st.integers(min_value=1, max_value=2))
    if q is None:
        q = draw(st.integers(min_value=0, max_value=2))
    components = {}
    for mask in range(1 << q):
        if draw(st.booleans()):
            poly = draw(polynomials(p=p, degree=degree, coefficients=coefficients))
            if poly.terms:
                components[mask] = poly
    return SuperFunction(p, q, components)


@st.composite
def superpoints(draw, n=None, p=1, q=1, coefficients=small_fractions):
    if n is None:
        n = draw(st.integers(min_value=1, max_value=3))
    even = [draw(grassmann_elements(n=n, parity=0, coefficients=coefficients)) for _ in range(p)]
    odd = [draw(grassmann_elements(n=n, parity=1, coefficients=coefficients)) for _ in range(q)]
    return SuperPoint(n, even, odd)


@st.composite
def morphisms(draw, source, target, coefficients=small_fractions):
    p, q = source

    def pullback(parity):
        sf = draw(superfunctions(p=p, q=q, degree=2, coefficients=coefficients))
        return SuperFunction(p, q, {m: f for m, f in sf.components.items()
                                    if m.bit_count() & 1 == parity})

    return SuperMorphism(source, target, [pullback(0) for _ in range(target[0])],
                         [pullback(1) for _ in range(target[1])])


# the contraction written out: monomials by plain products, sums key by key


def plain_monomial(I, J, even_args, odd_args, one):
    """eps^I omega^J by plain products, associated as `MonomialTable` builds it
    so that float results match bit for bit: each power eps_i^e and then eps^I
    left to right, omega^J in ascending order right to left, and omega^J * eps^I."""
    even = one
    for i, e in enumerate(I):
        power = one
        for _ in range(e):
            power = power * even_args[i]
        even = even * power
    odd = one
    for b in reversed(range(len(odd_args))):
        if J >> b & 1:
            odd = odd_args[b] * odd
    return odd * even


def plain_sum(pairs):
    """The terms of sum c * t over the (c, terms) pairs, added key by key in
    order: a sum that comes out zero drops its key, an integral Fraction is
    stored as its int."""
    out = {}
    for c, terms in pairs:
        for key, v in terms.items():
            v = out[key] + c * v if key in out else c * v
            if v:
                out[key] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
            else:
                out.pop(key, None)
    return out


def fingerprint(terms):
    """Keys in order, each coefficient with its exact type and, for a float, its bits."""
    def coefficient(c):
        if isinstance(c, Polynomial):
            return "poly", fingerprint(c.terms)
        return type(c).__name__, c.hex() if type(c) is float else c
    return [(key, coefficient(c)) for key, c in terms.items()]
