"""Exact arithmetic in finite-dimensional real Grassmann algebras.

An element of the algebra on n anticommuting generators eta_1..eta_n is a
sparse map from generator subsets to coefficients.  Subsets are encoded as
n-bit masks (bit i-1 <-> eta_i) and kept in ascending generator order, so the
product sign is the parity of the inversion count of the merge:

    >>> e1, e2 = GrassmannElement.gen(2, 1), GrassmannElement.gen(2, 2)
    >>> print(e2 * e1)
    -eta1 eta2

Coefficients are exact rationals by default.  The arithmetic only assumes a
commutative coefficient ring with +, *, - and truthiness-as-nonzero, which is
what lets superfunctions and the symbolic Lambda-point machinery reuse these
classes with polynomial coefficients (and the float geometry backend with
binary64 ones).  The wire form of a rational, shared by every JSON payload,
is defined here too.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DimensionError, ParityError, SchemaError, payload_errors

MAX_GENERATORS = 62


def merge_sign(a: int, b: int) -> int:
    """Sign of concatenating ascending monomials with masks a and b (disjoint)."""
    inv = 0
    x = a
    while x:
        low = x & -x
        inv += (b & (low - 1)).bit_count()
        x ^= low
    return -1 if inv & 1 else 1


def _coerce(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


def rational_to_json(c) -> dict:
    """Wire form {"num": "...", "den": "..."} of an exact rational."""
    c = Fraction(c)
    return {"num": str(c.numerator), "den": str(c.denominator)}


def rational_from_json(item) -> Fraction:
    """Parse the wire form of a rational; a zero denominator is a SchemaError."""
    den = int(item["den"])
    if not den:
        raise SchemaError("rational with zero denominator")
    return Fraction(int(item["num"]), den)


def float_from_json(value) -> float:
    """Parse a binary64 wire value; a non-numeric or non-finite one is a SchemaError."""
    with payload_errors("number"):
        out = float(value)
    if not math.isfinite(out):
        raise SchemaError(f"non-finite number {value!r}")
    return out


class GrassmannElement:
    """Sparse Grassmann-algebra element: {mask: coefficient}, zeros dropped."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        if not 0 <= n <= MAX_GENERATORS:
            raise DimensionError(f"generator count {n} outside 0..{MAX_GENERATORS}")
        self.n = n
        clean = {}
        for mask, c in (terms or {}).items():
            if mask < 0 or mask >> n:
                raise DimensionError(f"mask {mask:b} uses generators beyond {n}")
            c = _coerce(c)
            if c:
                clean[mask] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "GrassmannElement":
        return cls(n, {})

    @classmethod
    def scalar(cls, n: int, c) -> "GrassmannElement":
        return cls(n, {0: c})

    @classmethod
    def one(cls, n: int) -> "GrassmannElement":
        return cls.scalar(n, Fraction(1))

    @classmethod
    def gen(cls, n: int, i: int) -> "GrassmannElement":
        """The generator eta_i, 1-based."""
        if not 1 <= i <= n:
            raise DimensionError(f"generator index {i} outside 1..{n}")
        return cls(n, {1 << (i - 1): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, mask: int, c=Fraction(1)) -> "GrassmannElement":
        return cls(n, {mask: c})

    # -- ring structure ----------------------------------------------------

    def _check(self, other: "GrassmannElement") -> None:
        if self.n != other.n:
            raise DimensionError(f"mixed generator counts {self.n} and {other.n}")

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for mask, c in other.terms.items():
            acc = terms.get(mask)
            acc = c if acc is None else acc + c
            if acc:
                terms[mask] = acc
            else:
                terms.pop(mask, None)
        return GrassmannElement(self.n, terms)

    def __neg__(self):
        return GrassmannElement(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, GrassmannElement):
            return self.scale(other)
        self._check(other)
        terms: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma & mb:
                    continue  # repeated generator
                c = ca * cb
                if merge_sign(ma, mb) < 0:
                    c = -c
                mask = ma | mb
                acc = terms.get(mask)
                acc = c if acc is None else acc + c
                if acc:
                    terms[mask] = acc
                else:
                    terms.pop(mask, None)
        return GrassmannElement(self.n, terms)

    def __rmul__(self, other):
        # coefficients are central, so scalar action commutes
        return self.scale(other)

    def scale(self, c) -> "GrassmannElement":
        c = _coerce(c)
        if not c:
            return GrassmannElement.zero(self.n)
        return GrassmannElement(self.n, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, k: int) -> "GrassmannElement":
        if k < 0:
            raise ValueError("negative Grassmann power")
        out = GrassmannElement.one(self.n)
        for _ in range(k):
            out = out * self
            if not out.terms:
                break
        return out

    def __eq__(self, other):
        if isinstance(other, GrassmannElement):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure maps ----------------------------------------------------

    def body(self):
        """Coefficient of the empty monomial."""
        return self.terms.get(0, Fraction(0))

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
        return self.body(), GrassmannElement(self.n, even), GrassmannElement(self.n, odd)

    def parity(self):
        """0 for even, 1 for odd, None for mixed or zero-ambiguous elements."""
        seen = {m.bit_count() & 1 for m in self.terms}
        if len(seen) == 1:
            return seen.pop()
        return None if seen else 0

    def is_even(self) -> bool:
        return all(not (m.bit_count() & 1) for m in self.terms)

    def is_odd(self) -> bool:
        return all(m.bit_count() & 1 for m in self.terms)

    # -- presentation ------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            c = self.terms[mask]
            gens = " ".join(f"eta{i + 1}" for i in range(self.n) if mask >> i & 1)
            if mask == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(gens)
            elif c == -1:
                parts.append(f"-{gens}")
            else:
                parts.append(f"{c} {gens}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    __repr__ = __str__

    # -- JSON --------------------------------------------------------------

    def to_json(self) -> dict:
        items = []
        for mask in sorted(self.terms):
            c = self.terms[mask]
            subset = [i + 1 for i in range(self.n) if mask >> i & 1]
            if isinstance(c, float):
                items.append({"subset": subset, "value": c})
            else:
                items.append({"subset": subset, **rational_to_json(c)})
        return {"n": self.n, "terms": items}

    @classmethod
    def from_json(cls, data: dict) -> "GrassmannElement":
        with payload_errors("GrassmannElement"):
            n = int(data["n"])
            terms = {}
            for item in data["terms"]:
                mask = 0
                for i in item["subset"]:
                    i = int(i)
                    # bounded before the shift, so a huge index never builds a huge mask
                    if not 1 <= i <= min(n, MAX_GENERATORS):
                        raise SchemaError(f"generator {i} outside 1..{n}")
                    if mask >> (i - 1) & 1:
                        raise SchemaError("repeated generator in subset")
                    mask |= 1 << (i - 1)
                if "value" in item:
                    c = float_from_json(item["value"])
                else:
                    c = rational_from_json(item)
                if mask in terms:
                    raise SchemaError("repeated subset")
                terms[mask] = c
        return cls(n, terms)


class GrassmannHom:
    """Algebra map determined by purely odd generator images.

    Odd images force parity preservation and nilpotency, which is exactly the
    admissibility condition for these homomorphisms.
    """

    __slots__ = ("source", "target", "images", "_cache")

    def __init__(self, source: int, target: int, images):
        if len(images) != source:
            raise DimensionError(f"expected {source} generator images, got {len(images)}")
        for im in images:
            if im.n != target:
                raise DimensionError("generator image lives in the wrong algebra")
        self.source = source
        self.target = target
        self.images = list(images)
        self._cache = {0: GrassmannElement.one(target)}

    def is_valid(self) -> bool:
        return all(im.is_odd() for im in self.images)

    @classmethod
    def identity(cls, n: int) -> "GrassmannHom":
        return cls(n, n, [GrassmannElement.gen(n, i) for i in range(1, n + 1)])

    @classmethod
    def body_projection(cls, n: int) -> "GrassmannHom":
        """All generators to zero: projection onto the real part."""
        return cls(n, 0, [GrassmannElement.zero(0)] * n)

    def _image_of_mask(self, mask: int) -> GrassmannElement:
        out = self._cache.get(mask)
        if out is None:
            low = mask & -mask
            out = self.images[low.bit_length() - 1] * self._image_of_mask(mask ^ low)
            self._cache[mask] = out
        return out

    def apply(self, a: GrassmannElement) -> GrassmannElement:
        if not self.is_valid():
            raise ParityError("generator images must be purely odd")
        if a.n != self.source:
            raise DimensionError(f"element in Lambda_{a.n}, hom expects Lambda_{self.source}")
        out = GrassmannElement.zero(self.target)
        for mask, c in a.terms.items():
            out = out + self._image_of_mask(mask).scale(c)
        return out

    def then(self, other: "GrassmannHom") -> "GrassmannHom":
        """other o self."""
        if other.source != self.target:
            raise DimensionError("homs not composable")
        return GrassmannHom(self.source, other.target, [other.apply(im) for im in self.images])

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "target": self.target,
            "images": [im.to_json() for im in self.images],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GrassmannHom":
        with payload_errors("GrassmannHom"):
            source = int(data["source"])
            target = int(data["target"])
            images = [GrassmannElement.from_json(d) for d in data["images"]]
        return cls(source, target, images)


def hom_validate(rho: GrassmannHom) -> bool:
    return rho.is_valid()


def hom_apply(rho: GrassmannHom, a: GrassmannElement) -> GrassmannElement:
    return rho.apply(a)


def hom_compose(sigma: GrassmannHom, rho: GrassmannHom) -> GrassmannHom:
    """sigma o rho, built by pushing rho's generator images through sigma."""
    return rho.then(sigma)
