"""Morphisms between coordinate superdomains and their structure checks.

A morphism R^{p|q} -> R^{p'|q'} is given by its coordinate pullbacks: p' even
and q' odd superfunctions on the source.  Composition is pullback of
pullbacks; pushforward moves Lambda-points coordinate-wise.

The decomposition machinery singles out a block of leading odd source
coordinates ("eta" generators) and writes phi^*(g) = sum_I eta^I D_I(g).
Each D_I is a differential operator, held as its symbol:
D_I = sum_{beta,K} c_{beta,K} psi o d^beta d_theta^K, with psi the eta-free
part of phi.  Its order in Grothendieck's commutator filtration (EGA IV 16.8)
is exactly max |beta|: a commutator with a coordinate increment lowers beta
by one step and keeps c, so k+1 of them kill every term with |beta| <= k and
leave the top terms.  `order_bound_check` is the independent oracle: it tests
the commutator definition on a probe family, comparing values exactly.

Because phi^* is a ring map and the eta-free twist psi is even and
multiplicative, the (k+1)-fold commutator of D_I with coordinate increments
telescopes into one product: E_I(b_{j_0} ... b_{j_k} phi^*(h)), where b_j is
the eta-part of the j-th even pullback and E_I takes the eta^I component.  So
a trial multiplies k+1 fixed b's and at most one pullback instead of expanding
2^(k+1) subset terms; `tests/test_morphism.py` keeps the expansion as the
oracle.

A morphism's pullback phi^* is fixed once phi is, so a `SuperMorphism`
caches its monomial `table` and its body polynomials `bodies`, shared by every
`sf_substitute` along it; the pullback is that table's
`grassmann.MonomialTable.contract`.
`EtaCoefficient.apply` reads the symbol, through the psi that `eta_decompose`
builds once, so a wrong c changes its value.  A `SuperPoint` owns its table
the same way, for `pushforward`.  `pushforward_general` reads no cached
table, nor does `eta_decompose`, which builds a table of the eta-parts and
reads the symbols off its monomials, with no contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import DimensionError, ParityError, payload_errors
from .grassmann import GrassmannElement, MonomialTable, _wire, int_from_json, merge_sign
from .polyalg import (
    DEFAULT_DEGREE_BOUND,
    Polynomial,
    iter_multiindices_upto,
    lattice_points,
    mi_factorial,
)
from .rng import SplitMix64
from .superfun import SuperFunction, SuperPoint, sf_eval, sf_substitute


@dataclass(frozen=True)
class SuperMorphism:
    """Coordinate pullbacks; frozen and stored as tuples, so __post_init__ checks them once."""

    source: tuple
    target: tuple
    even_pb: tuple
    odd_pb: tuple

    def __post_init__(self):
        for name in ("source", "target", "even_pb", "odd_pb"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.source) != 2 or len(self.target) != 2:
            raise DimensionError("source and target must be (p, q) pairs")
        p, q = self.source
        p2, q2 = self.target
        for name, (a, b) in (("source", self.source), ("target", self.target)):
            if a < 0 or b < 0:
                raise DimensionError(f"{name} R^({a}|{b}) has a negative dimension")
        if len(self.even_pb) != p2 or len(self.odd_pb) != q2:
            raise DimensionError(
                f"expected {p2} even and {q2} odd pullbacks, got "
                f"{len(self.even_pb)}/{len(self.odd_pb)}"
            )
        for sf in self.even_pb + self.odd_pb:
            if (sf.p, sf.q) != (p, q):
                raise DimensionError("pullback lives on the wrong source domain")
        for sf in self.even_pb:
            if not sf.is_even():
                raise ParityError("even coordinate pullback has odd terms")
        for sf in self.odd_pb:
            if not sf.is_odd():
                raise ParityError("odd coordinate pullback has even terms")

    @classmethod
    def identity(cls, p: int, q: int) -> "SuperMorphism":
        return cls(
            (p, q),
            (p, q),
            [SuperFunction.coordinate(p, q, j) for j in range(p)],
            [SuperFunction.theta(p, q, b) for b in range(q)],
        )

    @cached_property
    def table(self) -> MonomialTable:
        """The monomials of the nilpotent even and the odd pullbacks, shared by
        every `sf_substitute` along this morphism."""
        p, q = self.source
        return MonomialTable([sf.nilpotent_part().element for sf in self.even_pb],
                             [sf.element for sf in self.odd_pb], SuperFunction.one(p, q).element)

    @cached_property
    def bodies(self) -> tuple:
        """The theta-free parts of the even pullbacks, shared by every
        `sf_substitute` along this morphism."""
        return tuple(sf.body_poly() for sf in self.even_pb)

    def to_json(self) -> dict:
        return {
            "source": list(self.source),
            "target": list(self.target),
            "even": [sf.to_json() for sf in self.even_pb],
            "odd": [sf.to_json() for sf in self.odd_pb],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SuperMorphism":
        with payload_errors("SuperMorphism") as wire:
            return cls([int_from_json(v) for v in data["source"]],
                       [int_from_json(v) for v in data["target"]],
                       [SuperFunction.from_json(d) for d in wire.nested(data["even"])],
                       [SuperFunction.from_json(d) for d in wire.nested(data["odd"])])


def morphism_compose(psi: SuperMorphism, phi: SuperMorphism,
                     degree_bound=DEFAULT_DEGREE_BOUND) -> SuperMorphism:
    """psi o phi: pull psi's coordinate pullbacks back along phi."""
    if phi.target != psi.source:
        raise DimensionError(
            f"cannot compose: inner lands in R^{phi.target}, outer starts at R^{psi.source}"
        )
    return SuperMorphism(
        phi.source,
        psi.target,
        [sf_substitute(sf, phi, degree_bound) for sf in psi.even_pb],
        [sf_substitute(sf, phi, degree_bound) for sf in psi.odd_pb],
    )


def pushforward(phi: SuperMorphism, mu: SuperPoint) -> SuperPoint:
    """The target Lambda-point: evaluate each coordinate pullback at mu."""
    if (mu.p, mu.q) != phi.source:
        raise DimensionError(f"point of R^({mu.p}|{mu.q}) fed to morphism from R^{phi.source}")
    return SuperPoint(mu.n, [sf_eval(sf, mu) for sf in phi.even_pb],
                      [sf_eval(sf, mu) for sf in phi.odd_pb])


def pushforward_general(phi: SuperMorphism, mu: SuperPoint) -> SuperPoint:
    """Pushforward assembled from explicit derivative tables of the pullbacks.

    Same mathematical content as `pushforward`, deliberately written as an
    independent expansion (raw loops over multi-indices and odd masks, no
    shared contraction machinery) so the two can be compared exactly.
    """
    if (mu.p, mu.q) != phi.source:
        raise DimensionError("dimension mismatch")
    n = mu.n
    body = mu.body()
    nil = mu.nilpotent_even()

    def expand(sf: SuperFunction) -> GrassmannElement:
        acc = GrassmannElement.zero(n)
        for mask, poly in sf.components.items():
            # odd monomial mu1^J, ascending
            wedge = GrassmannElement.one(n)
            mm = mask
            while mm:
                low = mm & -mm
                wedge = wedge * mu.odd[low.bit_length() - 1]
                mm ^= low
            if not wedge:
                continue
            for I in iter_multiindices_upto(sf.p, n // 2):
                mono = GrassmannElement.one(n)
                for i, e in enumerate(I):
                    for _ in range(e):
                        mono = mono * nil[i]
                if not mono:
                    continue
                val = poly.derive(I).eval_scalar(body) * Fraction(1, mi_factorial(I))
                if val:
                    acc = acc + (mono * wedge).scale(val)
        return acc

    return SuperPoint(n, [expand(sf) for sf in phi.even_pb], [expand(sf) for sf in phi.odd_pb])


# ---------------------------------------------------------------------------
# eta-coefficient operators


def default_probes(p: int, q: int, max_degree: int) -> list:
    """All monomial superfunctions y^I theta^J with |I| <= max_degree, as a fresh list."""
    return list(_probe_family(p, q, max_degree))


@lru_cache(maxsize=64)
def _probe_family(p: int, q: int, max_degree: int) -> tuple:
    # built once per shape: order_bound_check asks for the same family on every call
    return tuple(SuperFunction(p, q, {mask: Polynomial.monomial(p, I)})
                 for mask in range(1 << q) for I in iter_multiindices_upto(p, max_degree))


@lru_cache(maxsize=256)
def _trial_plan(p: int, p2: int, q2: int, k: int, seed: int) -> tuple:
    """(body points, probes, rng state) of order_bound_check's trials, as its
    two seeded shuffles leave them; pure in its key, so each plan shuffles once."""
    rng = SplitMix64(seed)
    lattice = lattice_points(p, radius=1, den=2)
    rng.shuffle(lattice)
    probes = default_probes(p2, q2, 2 * k + 2)
    # cycle through a shuffled copy instead of drawing independently: distinct
    # probes across trials, so a sharp operator cannot hide behind repeats
    rng.shuffle(probes)
    return tuple(lattice), tuple(probes), rng.state


@dataclass
class EtaCoefficient:
    """Coefficient operator D_I of eta^I in a morphism's pullback, held as its symbol.

    D_I(g) = sum c_{beta,K} psi(d^beta d_theta^K g) over `symbol`'s (beta, K):
    K masks the target's odd coordinates, and d_theta^K is the left odd
    derivative, theta^J = +-theta^K theta^(J-K) in ascending order.  The c
    live on the reduced source R^{p|q} (the eta block removed), as does psi,
    phi's eta-free part; `apply` evaluates the sum.  The order is exactly max
    |beta|, since each commutator with a coordinate increment lowers beta by
    one step and keeps c.
    """

    index: tuple            # 0/1 per eta generator
    n_eta: int
    phi: SuperMorphism
    psi: SuperMorphism      # phi's eta-free part, from the reduced source
    symbol: dict = field(default_factory=dict)   # (beta, K) -> c_{beta,K}

    @property
    def mask(self) -> int:
        return sum(1 << i for i, v in enumerate(self.index) if v)

    def apply(self, g: SuperFunction) -> SuperFunction:
        total = SuperFunction.zero(*self.psi.source)
        for (beta, K), c in self.symbol.items():
            d = odd_derivative(SuperFunction(g.p, g.q, {J: f.derive(beta)
                                                        for J, f in g.components.items()}), K)
            # probe substitutions are the verifier's own, so no degree guardrail
            total = total + c * sf_substitute(d, self.psi, degree_bound=None)
        return total

    def order(self) -> int:
        """max |beta| over the symbol; 0 for D_I = 0."""
        return max((sum(beta) for beta, _ in self.symbol), default=0)

    def order_bound(self) -> int:
        """|I|, as every b_j carries an eta; floor(|I|/2) when the etas are the
        whole odd sector, as every b_j then has theta-degree >= 2."""
        weight = sum(self.index)
        return weight // 2 if self.n_eta == self.phi.source[1] else weight


def odd_derivative(g: SuperFunction, K: int) -> SuperFunction:
    """Left derivative d_theta^K, with theta^J = merge_sign(K, J - K) theta^K theta^(J-K)."""
    comps = {}
    for J, poly in g.components.items():
        if J & K == K:
            comps[J ^ K] = poly if merge_sign(K, J ^ K) > 0 else -poly
    return SuperFunction(g.p, g.q, comps)


def _extract_eta(sf: SuperFunction, n_eta: int, eta_mask: int) -> SuperFunction:
    """Component of eta^I in sf, as a superfunction in the remaining thetas."""
    eta_all = (1 << n_eta) - 1
    comps = {}
    for mask, poly in sf.components.items():
        if mask & eta_all == eta_mask:
            comps[mask >> n_eta] = poly
    return SuperFunction(sf.p, sf.q - n_eta, comps)


def _eta_part(sf: SuperFunction, n_eta: int) -> SuperFunction:
    """The terms of sf that carry an eta, still on the whole source."""
    eta_all = (1 << n_eta) - 1
    return SuperFunction(sf.p, sf.q, {m: f for m, f in sf.components.items() if m & eta_all})


def eta_decompose(phi: SuperMorphism, n_eta: int) -> list:
    """Every eta^I coefficient over the leading n_eta odd coordinates, as its symbol.

    Taylor's formula in the eta-parts b of the even pullbacks, with odd
    monomials expanded in the eta-parts omega of the odd ones, gives
    c_{beta,K} = E_I(b^beta omega^K) / beta!; b^beta vanishes past |beta| = n_eta.
    """
    p, qs = phi.source
    if n_eta > qs:
        raise DimensionError(f"morphism has only {qs} odd coordinates, wanted {n_eta} etas")
    p2, q2 = phi.target
    eta_all = (1 << n_eta) - 1
    symbols = [{} for _ in range(1 << n_eta)]
    table = MonomialTable([_eta_part(sf, n_eta).element for sf in phi.even_pb],
                          [_eta_part(sf, n_eta).element for sf in phi.odd_pb],
                          SuperFunction.one(p, qs).element)
    for beta in iter_multiindices_upto(p2, n_eta):
        even = table._even(beta)
        if not even:
            continue
        for K in range(1 << q2):
            mono = table._times(table._odd(K), even)
            by_index = {}
            for mask, poly in mono.scale(Fraction(1, mi_factorial(beta))).terms.items():
                by_index.setdefault(mask & eta_all, {})[mask >> n_eta] = poly
            for eta_mask, comps in by_index.items():
                symbols[eta_mask][beta, K] = SuperFunction(p, qs - n_eta, comps)
    psi = SuperMorphism((p, qs - n_eta), phi.target,
                        [_extract_eta(sf, n_eta, 0) for sf in phi.even_pb],
                        [_extract_eta(sf, n_eta, 0) for sf in phi.odd_pb])
    return [EtaCoefficient(index=tuple(mask >> i & 1 for i in range(n_eta)), n_eta=n_eta,
                           phi=phi, psi=psi, symbol=symbols[mask])
            for mask in range(1 << n_eta)]


@dataclass
class OrderVerdict:
    passed: bool
    k: int
    trials: int
    witness: dict | None = None

    to_json = _wire


def order_bound_check(coef: EtaCoefficient, k: int, trials: int = 8,
                      seed: int = 0) -> OrderVerdict:
    """Test whether coef acts as a differential operator of order <= k.

    Order means the commutator filtration along the morphism: with psi the
    multiplicative eta-free coefficient of the same expansion,
    [D, f](g) = D(f g) - psi(f) D(g), and D has order <= k iff every
    (k+1)-fold such commutator annihilates the probe family.  Commutators are
    taken with even coordinate increments f_i = y_{j_i} - y0_{j_i} at
    y0 = body_map(x0), so when psi is plain composition with the body map
    (the full theta expansion) this is the usual locality test: operators of
    order <= k cannot see past the k-jet of the probe at y0.

    The alternating sum over all 2^(k+1) subsets S telescopes:

        sum_S (-1)^(k+1-|S|) psi(f_{S^c}) D_I(f_S h)
            = E_I( prod_i (phi^* f_i - psi f_i) * phi^* h ),

    E_I taking the eta^I component.  It holds because phi^* is a ring map,
    so phi^*(f_S h) = phi^*(f_S) phi^*(h), and because each psi(f_i) is even
    and eta-free, so it commutes with everything and with E_I.  Each factor
    phi^*(y_j - c) - psi(y_j - c) is b_j, the eta-part of the j-th even
    pullback, whatever the constant c; so a trial costs k+1 products of b's
    and, only if that product is nonzero, one product with phi^*(h).  Body
    points x0 come from a fixed rational lattice, shuffled by the seed.  PASS
    certifies order <= k on the probe family only; FAIL carries a replayable
    witness.

    The shuffled lattice and probe family are the trial plan: they depend on
    (p, p', q', k, seed) alone, so `_trial_plan` builds each plan once and
    caches it with the rng state it leaves, from which the trials draw.
    """
    if k < 0:
        raise ValueError("order must be >= 0")
    phi = coef.phi
    p, _ = phi.source
    p2, q2 = phi.target
    if p2 == 0:
        # no even target coordinates, so nothing to commute with
        return OrderVerdict(passed=True, k=k, trials=0)
    lattice, probes, state = _trial_plan(p, p2, q2, k, seed)
    rng = SplitMix64(state)
    # a term whose eta-part leaves I can never reach eta^I: keep only the rest
    outside = ((1 << coef.n_eta) - 1) & ~coef.mask
    etas = [SuperFunction(sf.p, sf.q, {mm: f for mm, f in sf.components.items()
                                       if not mm & outside})
            for sf in (_eta_part(sf, coef.n_eta) for sf in phi.even_pb)]

    for t in range(trials):
        x0 = lattice[t % len(lattice)]
        coords = [rng.randint(0, p2 - 1) for _ in range(k + 1)]
        h = probes[t % len(probes)]
        product = etas[coords[0]]
        for j in coords[1:]:
            product = product * etas[j]
        if not product:
            continue
        pulled = sf_substitute(h, phi, degree_bound=None)
        value = _extract_eta(product * pulled, coef.n_eta, coef.mask).eval_body(x0)
        if value:
            witness = {
                "x0": [str(v) for v in x0],
                "y0": [str(f.eval_scalar(x0)) for f in phi.bodies],
                "coords": coords,
                "h": h.to_json(),
                "value": {str(mm): str(v) for mm, v in sorted(value.items())},
                "eta_index": list(coef.index),
                "k": k,
            }
            return OrderVerdict(passed=False, k=k, trials=t + 1, witness=witness)
    return OrderVerdict(passed=True, k=k, trials=trials)

