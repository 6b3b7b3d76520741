"""Exact arithmetic in finite-dimensional real Grassmann algebras.

An element of the algebra on n anticommuting generators eta_1..eta_n is a
sparse map from generator subsets to coefficients.  Subsets are encoded as
n-bit masks (bit i-1 <-> eta_i) and kept in ascending generator order, so the
product sign is the parity of the inversion count of the merge:

    >>> e1, e2 = GrassmannElement.gen(2, 1), GrassmannElement.gen(2, 2)
    >>> print(e2 * e1)
    -eta1 eta2

Coefficients are exact rationals by default, each in one canonical form: a
plain int when its denominator is 1, a `fractions.Fraction` with denominator
above 1 otherwise.  `_coerce` canonicalizes what enters and `_accumulate` what
a sum stores.  One product loop, `_product_terms`, serves every coefficient
ring, and `merge_sign` gives the sign of each pair of terms it keeps: it reads
the parity prefix of a mask below 2^TABLE_BITS (2^12) from a table built once
at import and computes it by shift-xors above, and it is still called once per
surviving pair, so every product sign has that one source.  `to_json` joins
the subset of a mask in the same range from two tables of half-masks.  When
both operands' coefficients are all ints and Fractions they enter that loop as
int numerators over the lcm of each operand's denominators, and each output
coefficient is reduced once, so Fraction's gcds are paid per output term, not
per pair of terms.  `_combination` sums a linear combination of elements the
same way: on int numerators over one lcm when every coefficient is rational,
pair by pair through `_accumulate` otherwise.  An int coefficient divides to
a float under `/`; divide by multiplying with `Fraction(1, b)` instead.  The
arithmetic only assumes a commutative coefficient ring with +, *, - and
truthiness-as-nonzero, which is what lets superfunctions and the symbolic
Lambda-point machinery reuse these classes with polynomial coefficients (and
the float geometry backend with binary64 ones).  The wire form of a rational,
shared by every JSON payload, is defined here too, and so is the package's one
wire rule, `_wire`: a record (a dataclass, such as a Lambda-point, a hom or a
verdict) is its fields by name, a field that is None left out, and each record
class binds its `to_json` to that rule instead of restating its fields.

`MonomialTable` builds the monomials eps^I omega^J of fixed even (nilpotent)
and odd arguments once each, and `MonomialTable.contract` is the package's one
truncated-Taylor contraction: `superfun` evaluates and pulls back through it,
and `jetcalc` evaluates jets on Grassmann arguments and composes jets, the
latter with the inner jet's increments as eps in the ring of order-k jets.
`GrassmannHom` substitutes its generator images, the odd arguments of its
table, term by term.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionError, ParityError, SchemaError, payload_errors

MAX_GENERATORS = 62
TABLE_BITS = 12    # masks below 2^TABLE_BITS read their sign prefix and subset from tables
_TABLE_END = 1 << TABLE_BITS


def _sign_prefix_table() -> array:
    """Entry a holds in bit j the parity of a's bits above j, for every a below
    _TABLE_END; built by doubling, since setting a new top bit k flips bits
    0..k-1 of the prefix.  An array("H") holds it in 8 KiB, without one int
    object per entry."""
    table = array("H", [0])
    for k in range(TABLE_BITS):
        table.extend([x ^ ((1 << k) - 1) for x in table])
    return table


_SIGN_PREFIX = _sign_prefix_table()


def _subset_of(mask: int) -> list:
    """The 1-based indices of mask's generators, ascending."""
    subset = []
    while mask:
        low = mask & -mask
        subset.append(low.bit_length())
        mask ^= low
    return subset


# The subsets of the low and of the high TABLE_BITS // 2 bits of a mask below
# _TABLE_END, as tuples: 2 * 64 small tuples, built once.
_HALF = TABLE_BITS // 2
_LOW_HALF = (1 << _HALF) - 1
_LOW_SUBSETS = tuple(tuple(_subset_of(m)) for m in range(1 << _HALF))
_HIGH_SUBSETS = tuple(tuple(i + _HALF for i in low) for low in _LOW_SUBSETS)


def merge_sign(a: int, b: int) -> int:
    """Sign of concatenating ascending monomials with masks a and b (disjoint).

    x holds in bit j the parity of a's bits above j, read from _SIGN_PREFIX
    for a below 2^TABLE_BITS and left by six shift-xors above it, so
    popcount(b & x) counts the inversions (i in a, j in b, i > j) mod 2.  Every
    product sign comes from a call of this function, so the sign has one
    source.
    """
    if a < _TABLE_END:
        x = _SIGN_PREFIX[a]
    else:
        x = a >> 1
        x ^= x >> 1
        x ^= x >> 2
        x ^= x >> 4
        x ^= x >> 8
        x ^= x >> 16
        x ^= x >> 32
    return -1 if (b & x).bit_count() & 1 else 1


def _coerce(c):
    """The canonical form of a coefficient: an integral rational (or a bool) as
    an int, any other rational as a Fraction; other rings pass through."""
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    return c


def _nonzero(terms: dict) -> dict:
    """terms without its zero coefficients, in order; terms itself when it has none."""
    return terms if all(terms.values()) else {k: c for k, c in terms.items() if c}


def _accumulate(acc: dict, terms, c=None) -> dict:
    """Add the (key, coefficient) pairs `terms`, each times c if given, into acc
    in place; a sum that comes out zero removes its key, and an integral
    Fraction is stored as its int.  Returns acc."""
    for key, v in terms:
        if c is not None:
            v = c * v
        got = acc.get(key)
        if got is not None:
            v = got + v
        if v:
            acc[key] = v.numerator if type(v) is Fraction and v.denominator == 1 else v
        else:
            acc.pop(key, None)
    return acc


def _common_denominator(terms: dict) -> int:
    """The lcm of the denominators of terms whose coefficients are all ints and
    Fractions, or 0 at the first coefficient of another ring."""
    den = 1
    for c in terms.values():
        if type(c) is Fraction:
            d = c.denominator
            if den % d:
                den = den // math.gcd(den, d) * d
        elif type(c) is not int:
            return 0
    return den


def _numerators(terms: dict, den: int):
    """The (mask, c * den) pairs of rational terms, as ints; den is a common
    denominator of the coefficients."""
    if den == 1:
        return terms.items()
    return [(m, c * den if type(c) is int else c.numerator * (den // c.denominator))
            for m, c in terms.items()]


def _product_terms(a, b) -> dict:
    """The terms of the product of the (mask, coefficient) pairs a and b, in any
    coefficient ring: each pair's sign from `merge_sign`, its product added per
    mask in the order of `_accumulate`, and a mask whose sum comes out zero
    removed.  Each sum is stored as the ring's arithmetic returns it, so
    rational operands come in as int numerators (`_exact_product`).  b is
    iterated once per term of a."""
    out: dict = {}
    sign = merge_sign
    for ma, ca in a:
        for mb, cb in b:
            if ma & mb:
                continue    # a repeated generator kills the product
            key = ma | mb
            v = ca * cb if sign(ma, mb) > 0 else -(ca * cb)
            got = out.get(key)
            if got is not None:
                v = got + v
            if v:
                out[key] = v
            else:
                out.pop(key, None)  # a cancelled sum, or a float product underflowing to 0.0
    return out


def _reduced(out: dict, den: int) -> dict:
    """out, whose values are int numerators over den, with each value replaced
    in place by its canonical rational."""
    if den != 1:
        for key, v in out.items():
            out[key] = Fraction(v, den) if v % den else v // den
    return out


def _exact_product(a: dict, la: int, b: dict, lb: int) -> dict:
    """The terms of a * b for rational terms over common denominators la and lb:
    the product of their int numerators, each mask's sum reduced once."""
    return _reduced(_product_terms(_numerators(a, la), _numerators(b, lb)), la * lb)


def _combination(pairs) -> dict:
    """The terms of sum c * t over the (c, t) in the list pairs, each t a terms
    dict, with `_accumulate`'s keys, sums and insertion order.

    When every c and every coefficient of every t is an int or a Fraction, the
    sum runs on int numerators over one lcm of the denominators of the c * t,
    and each mask's sum is reduced once; otherwise it is `_accumulate`, pair by
    pair.
    """
    scaled = []
    den = 1
    for c, terms in pairs:
        if type(c) is int:
            nc, dc = c, 1
        elif type(c) is Fraction:
            nc, dc = c.numerator, c.denominator
        else:
            break
        dt = _common_denominator(terms)
        if not dt:
            break
        d = dc * dt
        if den % d:
            den = den // math.gcd(den, d) * d
        scaled.append((nc, dc, dt, _numerators(terms, dt)))
    else:
        out: dict = {}
        for nc, dc, dt, numerators in scaled:
            _accumulate(out, numerators, nc * (den // (dc * dt)))
        return _reduced(out, den)
    out = {}
    for c, terms in pairs:
        _accumulate(out, terms.items(), c)
    return out


def rational_to_json(c) -> dict:
    """Wire form {"num": "...", "den": "..."} of an exact rational."""
    if type(c) is int:
        return {"num": str(c), "den": "1"}
    c = Fraction(c)
    return {"num": str(c.numerator), "den": str(c.denominator)}


def _wire(value):
    """The package's one JSON form of a value: its own to_json() where it has
    one; a record (a dataclass) as its fields by name, in field order, leaving
    out a field that is None; a list or a tuple item by item; a Fraction as
    its str; anything else as it is.  A record class binds `to_json = _wire`,
    so the rule, not a method restating the fields, writes it."""
    if getattr(type(value), "to_json", _wire) is not _wire:
        return value.to_json()
    if is_dataclass(value):
        return {f.name: _wire(v) for f in fields(value)
                if (v := getattr(value, f.name)) is not None}
    if isinstance(value, (list, tuple)):
        return [_wire(v) for v in value]
    return str(value) if isinstance(value, Fraction) else value


def int_from_json(value) -> int:
    """Parse a wire integer, an int or the decimal string of one, inside
    `payload_errors`; a bool or a float is a SchemaError, never truncated."""
    if type(value) is not int and not isinstance(value, str):
        raise SchemaError(f"not an integer: {value!r}")
    return int(value)


def rational_from_json(item) -> int | Fraction:
    """Parse the wire form of a rational, in canonical form; a zero denominator
    is a SchemaError."""
    den = int_from_json(item["den"])
    if den == 1:
        return int_from_json(item["num"])
    if not den:
        raise SchemaError("rational with zero denominator")
    return _coerce(Fraction(int_from_json(item["num"]), den))


def float_from_json(value) -> float:
    """Parse a binary64 wire value, a JSON number: anything but an int or a
    float (a bool, a string) or a non-finite value is a SchemaError."""
    if type(value) is not int and type(value) is not float:
        raise SchemaError(f"not a number: {value!r}")
    with payload_errors("number"):
        out = float(value)
    if not math.isfinite(out):
        raise SchemaError(f"non-finite number {value!r}")
    return out


def _sum_text(terms) -> str:
    """A sum of (coefficient, monomial name) terms as text, in the order given:
    a constant bare where the name is empty, a coefficient of 1 or -1 (or a
    polynomial written so, which equals no number) left out, "+ -" written
    "- ", and an empty sum "0"."""
    parts = []
    for c, mono in terms:
        text = str(c)
        if not mono:
            parts.append(text)
        elif c == 1 or text == "1":
            parts.append(mono)
        elif c == -1 or text == "-1":
            parts.append(f"-{mono}")
        else:
            parts.append(f"{text} {mono}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


class GrassmannElement:
    """Sparse Grassmann-algebra element: {mask: coefficient}, zeros dropped."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = self._generator_count(n)
        clean = {}
        for mask, c in (terms or {}).items():
            if mask < 0 or mask >> n:
                raise DimensionError(f"mask {mask:b} uses generators beyond {n}")
            c = _coerce(c)
            if c:
                clean[mask] = c
        self.terms = clean

    @classmethod
    def _of(cls, n: int, terms: dict) -> "GrassmannElement":
        """Wrap a result of the algebra: masks in range, coefficients nonzero."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = terms
        return out

    @staticmethod
    def _generator_count(n: int) -> int:
        """n itself, or a DimensionError when no algebra has n generators."""
        if not 0 <= n <= MAX_GENERATORS:
            raise DimensionError(f"generator count {n} outside 0..{MAX_GENERATORS}")
        return n

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "GrassmannElement":
        return cls(n, {})

    @classmethod
    def scalar(cls, n: int, c) -> "GrassmannElement":
        return cls(n, {0: c})

    @classmethod
    def one(cls, n: int) -> "GrassmannElement":
        return cls.scalar(n, 1)

    @classmethod
    def gen(cls, n: int, i: int) -> "GrassmannElement":
        """The generator eta_i, 1-based."""
        if not 1 <= i <= n:
            raise DimensionError(f"generator index {i} outside 1..{n}")
        return cls(n, {1 << (i - 1): 1})

    @classmethod
    def monomial(cls, n: int, mask: int, c=1) -> "GrassmannElement":
        return cls(n, {mask: c})

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "GrassmannElement") -> None:
        if self.n != other.n:
            raise DimensionError(f"mixed generator counts {self.n} and {other.n}")

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check(other)
        return GrassmannElement._of(self.n, _accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return GrassmannElement._of(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            return self.scale(other)
        self._check(other)
        la = _common_denominator(self.terms)
        lb = la and _common_denominator(other.terms)
        if lb:
            return GrassmannElement._of(self.n, _exact_product(self.terms, la, other.terms, lb))
        return GrassmannElement._of(self.n, _product_terms(self.terms.items(), other.terms.items()))

    def scale(self, c) -> "GrassmannElement":
        c = _coerce(c)
        # a float product can underflow to 0.0, so zeros are still dropped
        return GrassmannElement._of(self.n, {m: _coerce(w) for m, v in self.terms.items()
                                             if (w := c * v)})

    def __eq__(self, other):
        if isinstance(other, GrassmannElement):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    # -- structure maps ----------------------------------------------------

    def body(self):
        """Coefficient of the empty monomial."""
        return self.terms.get(0, 0)

    def split(self):
        """(body, even-nilpotent part, odd part); summands recombine exactly."""
        even = {}
        odd = {}
        for mask, c in self.terms.items():
            if mask == 0:
                continue
            if mask.bit_count() & 1:
                odd[mask] = c
            else:
                even[mask] = c
        return self.body(), GrassmannElement._of(self.n, even), GrassmannElement._of(self.n, odd)

    def is_even(self) -> bool:
        return all(not (m.bit_count() & 1) for m in self.terms)

    def is_odd(self) -> bool:
        return all(m.bit_count() & 1 for m in self.terms)

    # -- presentation ------------------------------------------------------

    def __str__(self):
        return _sum_text((self.terms[m], " ".join(f"eta{i + 1}" for i in range(self.n)
                                                  if m >> i & 1))
                         for m in sorted(self.terms, key=lambda m: (m.bit_count(), m)))

    __repr__ = __str__

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        """{"n", "terms"}: one item per term in ascending mask order, its
        "subset" a fresh list of 1-based generators, joined from the tables of
        its two halves for a mask below 2^TABLE_BITS, and its rational or float
        wire form."""
        items = []
        terms = self.terms
        for mask in sorted(terms):
            c = terms[mask]
            if mask < _TABLE_END:
                subset = [*_LOW_SUBSETS[mask & _LOW_HALF], *_HIGH_SUBSETS[mask >> _HALF]]
            else:
                subset = _subset_of(mask)
            kind = type(c)
            if kind is int:
                items.append({"subset": subset, "num": str(c), "den": "1"})
            elif kind is Fraction:
                items.append({"subset": subset, "num": str(c.numerator),
                              "den": str(c.denominator)})
            elif isinstance(c, float):
                items.append({"subset": subset, "value": c})
            else:
                items.append({"subset": subset, **rational_to_json(c)})
        return {"n": self.n, "terms": items}

    @classmethod
    def from_json(cls, data: dict) -> "GrassmannElement":
        with payload_errors("GrassmannElement") as wire:
            n = int_from_json(data["n"])
            top = min(n, MAX_GENERATORS)
            terms = {}
            for item in data["terms"]:
                mask = 0
                for i in wire.nested(item["subset"]):
                    if type(i) is not int:
                        i = int_from_json(i)
                    # bounded before the shift, so a huge index never builds a huge mask
                    if not 1 <= i <= top:
                        raise SchemaError(f"generator {i} outside 1..{n}")
                    bit = 1 << (i - 1)
                    if mask & bit:
                        raise SchemaError("repeated generator in subset")
                    mask |= bit
                if "value" in item:
                    c = float_from_json(item["value"])
                else:
                    c = rational_from_json(item)
                if mask in terms:
                    raise SchemaError("repeated subset")
                terms[mask] = c
            # every mask is below 2^n and every coefficient canonical; zeros are dropped
            return cls._of(cls._generator_count(n), _nonzero(terms))


class MonomialTable:
    """The surviving monomials eps^I omega^J of fixed Grassmann arguments.

    eps are the even (nilpotent) arguments and omega the odd ones, all in one
    ring with unit `one`: a Grassmann algebra over any coefficient ring, or,
    for `jetcalc.trunc_compose`, the ring of order-k jets.  A table
    memoizes, for its lifetime, the powers eps_i^e, each eps^I and each
    ascending odd monomial omega^J, so every coordinate contracted against the
    same arguments shares them.  No product takes the unit as an operand, and
    a vanishing factor ends every extension of it without a product.
    `contract` is the walk that sums a contraction against them, for
    evaluation, pullback, jet evaluation and jet composition;
    `GrassmannHom.apply` and `morphism.eta_decompose`, which sum nothing
    over I, read `_odd`, `_even` and `_times` themselves.
    """

    __slots__ = ("even_args", "odd_args", "one", "_powers", "_evens", "_odds")

    def __init__(self, even_args, odd_args, one):
        self.even_args = list(even_args)
        self.odd_args = list(odd_args)
        self.one = one
        self._powers = [[one, a] for a in self.even_args]
        self._evens = {(0,) * len(self.even_args): one}
        self._odds = {0: one}

    def _times(self, a, b):
        """a * b, without a product when a factor is the unit or vanishes."""
        if a is self.one or not b:
            return b
        if b is self.one or not a:
            return a
        return a * b

    def _power(self, i: int, e: int):
        cache = self._powers[i]
        while len(cache) <= e:
            cache.append(self._times(cache[-1], self.even_args[i]))
        return cache[e]

    def _even(self, I: tuple):
        """eps^I as eps^(I without its last nonzero exponent) * eps_last^e: the
        left-to-right association of a plain loop, so float results match it."""
        got = self._evens.get(I)
        if got is None:
            last = max(i for i, e in enumerate(I) if e)
            head = I[:last] + (0,) * (len(I) - last)
            got = self._evens[I] = self._times(self._even(head), self._power(last, I[last]))
        return got

    def _odd(self, mask: int):
        """omega^J in ascending order: omega_b * omega^(J without b), b lowest in J."""
        got = self._odds.get(mask)
        if got is None:
            low = mask & -mask
            got = self._odds[mask] = self._times(self.odd_args[low.bit_length() - 1],
                                                 self._odd(mask ^ low))
        return got

    def contract(self, indices, shifted) -> dict:
        """Terms of sum_{I,J} c_{I,J} eps^I omega^J: the package's one
        truncated-Taylor contraction walk.

        `shifted` holds the pairs (omega^J, {I: c_{I,J}}) of the omega^J that
        do not vanish, and `indices` the I to visit.  The walk is coefficient
        first: I runs outermost, in the order given, and within it the pairs
        in theirs; eps^I is built at the first c_{I,J} that exists, and
        eps^I omega^J only where one does.  A vanishing eps^I ends its I with
        no product.  The pairs (c_{I,J}, eps^I omega^J) are summed once, by
        `_combination`: on int numerators when every coefficient is rational.
        """
        pairs = []              # (c_{I,J}, terms of eps^I omega^J)
        for I in indices:
            even = None
            for odd, coeffs in shifted:
                val = coeffs.get(I)
                if val is None:
                    continue
                if even is None:
                    even = self._even(I)
                    if not even:
                        break
                mono = self._times(odd, even)
                if mono:
                    pairs.append((val, mono.terms))
        return _combination(pairs)


@dataclass(frozen=True)
class GrassmannHom:
    """Algebra map determined by purely odd generator images.

    Odd images force parity preservation and nilpotency, which is exactly the
    admissibility condition for these homomorphisms.  Frozen and stored as a
    tuple, so __post_init__ checks the images once and `apply` does not.
    """

    source: int
    target: int
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        count = len(self.images)
        if count != self.source:
            raise DimensionError(f"expected {self.source} generator images, got {count}")
        for im in self.images:
            if im.n != self.target:
                raise DimensionError("generator image lives in the wrong algebra")
        if not all(im.is_odd() for im in self.images):
            raise ParityError("generator images must be purely odd")

    @classmethod
    def identity(cls, n: int) -> "GrassmannHom":
        return cls(n, n, [GrassmannElement.gen(n, i) for i in range(1, n + 1)])

    @cached_property
    def table(self) -> MonomialTable:
        """The ascending monomials of the images, shared by every `apply`."""
        return MonomialTable([], self.images, GrassmannElement.one(self.target))

    def apply(self, a: GrassmannElement) -> GrassmannElement:
        if a.n != self.source:
            raise DimensionError(f"element in Lambda_{a.n}, hom expects Lambda_{self.source}")
        out: dict = {}
        for mask, c in a.terms.items():
            _accumulate(out, self.table._odd(mask).terms.items(), c)
        return GrassmannElement._of(self.target, out)

    to_json = _wire

    @classmethod
    def from_json(cls, data: dict) -> "GrassmannHom":
        with payload_errors("GrassmannHom") as wire:
            return cls(int_from_json(data["source"]), int_from_json(data["target"]),
                       [GrassmannElement.from_json(d) for d in wire.nested(data["images"])])


def hom_apply(rho: GrassmannHom, a: GrassmannElement) -> GrassmannElement:
    return rho.apply(a)


def hom_compose(sigma: GrassmannHom, rho: GrassmannHom) -> GrassmannHom:
    """sigma o rho, built by pushing rho's generator images through sigma."""
    if sigma.source != rho.target:
        raise DimensionError("homs not composable")
    return GrassmannHom(rho.source, sigma.target, [sigma.apply(im) for im in rho.images])
