"""Morphisms between coordinate superdomains and their structure checks.

A morphism R^{p|q} -> R^{p'|q'} is given by its coordinate pullbacks: p' even
and q' odd superfunctions on the source.  Composition is pullback of
pullbacks; pushforward moves Lambda-points coordinate-wise.

The decomposition machinery singles out a block of leading odd source
coordinates ("eta" generators), writes every pullback as a sum over eta
monomials, and represents the coefficient of each eta^I extensionally: as a
linear operator on probe superfunctions of the target.  `order_bound_check`
then tests whether such a coefficient is a differential operator of order <= k
along the underlying body map, by feeding it probe pairs with matching k-jets
at the relevant body image and comparing values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DimensionError, ParityError, payload_errors
from .grassmann import GrassmannElement
from .polyalg import (
    DEFAULT_DEGREE_BOUND,
    Polynomial,
    iter_multiindices_upto,
    lattice_points,
    mi_factorial,
    poly_derive,
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

    def body_map(self) -> list:
        """The classical map underneath: theta-free parts of the even pullbacks."""
        return [sf.body_poly() for sf in self.even_pb]

    def to_json(self) -> dict:
        return {
            "source": list(self.source),
            "target": list(self.target),
            "even": [sf.to_json() for sf in self.even_pb],
            "odd": [sf.to_json() for sf in self.odd_pb],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SuperMorphism":
        with payload_errors("SuperMorphism"):
            source = [int(v) for v in data["source"]]
            target = [int(v) for v in data["target"]]
            even = [SuperFunction.from_json(d) for d in data["even"]]
            odd = [SuperFunction.from_json(d) for d in data["odd"]]
        return cls(source, target, even, odd)


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
    even = [sf_eval(sf, mu) for sf in phi.even_pb]
    odd = [sf_eval(sf, mu) for sf in phi.odd_pb]
    return SuperPoint(mu.n, even, odd)


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
            if wedge.is_zero():
                continue
            for I in iter_multiindices_upto(sf.p, n // 2):
                mono = GrassmannElement.one(n)
                for i, e in enumerate(I):
                    for _ in range(e):
                        mono = mono * nil[i]
                if mono.is_zero():
                    continue
                val = poly_derive(poly, I).eval_scalar(body) / mi_factorial(I)
                if val:
                    acc = acc + (mono * wedge).scale(val)
        return acc

    return SuperPoint(n, [expand(sf) for sf in phi.even_pb], [expand(sf) for sf in phi.odd_pb])


# ---------------------------------------------------------------------------
# eta-coefficient operators


def default_probes(p: int, q: int, max_degree: int) -> list:
    """All monomial superfunctions y^I theta^J with |I| <= max_degree."""
    out = []
    for mask in range(1 << q):
        for I in iter_multiindices_upto(p, max_degree):
            out.append(SuperFunction(p, q, {mask: Polynomial.monomial(p, I)}))
    return out


@dataclass
class EtaCoefficient:
    """Coefficient operator of eta^I in the expansion of a morphism's pullback.

    Extensional representation: `table` records the operator's value on the
    probe family it was built with, and `apply` recomputes it for any other
    probe.  Values are superfunctions on the reduced source R^{p|q} (the
    source with the eta block removed).
    """

    index: tuple            # 0/1 per eta generator
    n_eta: int
    phi: SuperMorphism
    table: list = field(default_factory=list)   # (probe, value) pairs

    @property
    def mask(self) -> int:
        return sum(1 << i for i, v in enumerate(self.index) if v)

    def apply(self, g: SuperFunction) -> SuperFunction:
        # probe substitutions are the verifier's own, so no degree guardrail
        full = sf_substitute(g, self.phi, degree_bound=None)
        return _extract_eta(full, self.n_eta, self.mask)

    def order_bound(self) -> int:
        """|I| in the eta grading."""
        return sum(self.index)


def _extract_eta(sf: SuperFunction, n_eta: int, eta_mask: int) -> SuperFunction:
    """Component of eta^I in sf, as a superfunction in the remaining thetas."""
    eta_all = (1 << n_eta) - 1
    comps = {}
    for mask, poly in sf.components.items():
        if mask & eta_all == eta_mask:
            comps[mask >> n_eta] = poly
    return SuperFunction(sf.p, sf.q - n_eta, comps)


def eta_decompose(phi: SuperMorphism, n_eta: int, probes) -> list:
    """Expand each probe's pullback over the leading n_eta odd coordinates.

    The source's first n_eta odd coordinates play the role of Grassmann
    generators; the returned coefficients reconstruct the pullback exactly:
    sum_I eta^I coef_I(g) == phi^*(g) for every probe g.
    """
    p, qs = phi.source
    if n_eta > qs:
        raise DimensionError(f"morphism has only {qs} odd coordinates, wanted {n_eta} etas")
    coefficients = []
    for mask in range(1 << n_eta):
        index = tuple(mask >> i & 1 for i in range(n_eta))
        coefficients.append(EtaCoefficient(index=index, n_eta=n_eta, phi=phi))
    for g in probes:
        full = sf_substitute(g, phi)
        for coef in coefficients:
            coef.table.append((g, _extract_eta(full, n_eta, coef.mask)))
    return coefficients


@dataclass
class OrderVerdict:
    passed: bool
    k: int
    trials: int
    witness: dict | None = None

    def to_json(self) -> dict:
        out = {"passed": self.passed, "k": self.k, "trials": self.trials}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def order_bound_check(coef: EtaCoefficient, k: int, trials: int = 8,
                      seed: int = 0, probe_degree: int | None = None) -> OrderVerdict:
    """Test whether coef acts as a differential operator of order <= k.

    Order means the commutator filtration along the morphism: with psi the
    multiplicative eta-free coefficient of the same expansion,
    [D, f](g) = D(f g) - psi(f) D(g), and D has order <= k iff every
    (k+1)-fold such commutator annihilates the probe family.  Commutators are
    taken with even coordinate increments f_i = y_{j_i} - y0_{j_i} at
    y0 = body_map(x0), so when psi is plain composition with the body map
    (the full theta expansion) this is the usual locality test: operators of
    order <= k cannot see past the k-jet of the probe at y0.  Body points x0
    come from a fixed rational lattice, shuffled by the seed.  PASS certifies
    order <= k on the probe family; FAIL carries a replayable witness.
    """
    if k < 0:
        raise ValueError("order must be >= 0")
    phi = coef.phi
    p, _ = phi.source
    p2, q2 = phi.target
    bodies = phi.body_map()
    rng = SplitMix64(seed)
    if probe_degree is None:
        probe_degree = 2 * k + 2
    if p2 == 0:
        # no even target coordinates, so nothing to commute with
        return OrderVerdict(passed=True, k=k, trials=0)
    lattice = lattice_points(p, radius=1, den=2)
    lattice = list(lattice)
    rng.shuffle(lattice)
    probes = default_probes(p2, q2, probe_degree)
    # cycle through a shuffled copy instead of drawing independently: distinct
    # probes across trials, so a sharp operator cannot hide behind repeats
    rng.shuffle(probes)
    psi = EtaCoefficient(index=(0,) * coef.n_eta, n_eta=coef.n_eta, phi=phi)

    for t in range(trials):
        x0 = lattice[t % len(lattice)]
        y0 = [f.eval_scalar(x0) for f in bodies]
        coords = [rng.randint(0, p2 - 1) for _ in range(k + 1)]
        factors = [
            SuperFunction.from_poly(Polynomial.variable(p2, j) - Polynomial.constant(p2, y0[j]), q2)
            for j in coords
        ]
        psi_factors = [psi.apply(f) for f in factors]
        h = probes[t % len(probes)]
        total = None
        for subset in range(1 << (k + 1)):
            arg = h
            twist = None
            for i in range(k + 1):
                if subset >> i & 1:
                    arg = factors[i] * arg
                else:
                    twist = psi_factors[i] if twist is None else twist * psi_factors[i]
            term = coef.apply(arg)
            if twist is not None:
                term = twist * term
            if (k + 1 - subset.bit_count()) & 1:
                term = -term
            total = term if total is None else total + term
        value = total.eval_body(x0)
        if value:
            witness = {
                "x0": [str(v) for v in x0],
                "y0": [str(v) for v in y0],
                "coords": coords,
                "h": h.to_json(),
                "value": {str(mm): str(v) for mm, v in sorted(value.items())},
                "eta_index": list(coef.index),
                "k": k,
            }
            return OrderVerdict(passed=False, k=k, trials=t + 1, witness=witness)
    return OrderVerdict(passed=True, k=k, trials=trials)


def certified_order(coef: EtaCoefficient, k_max: int, trials: int = 8, seed: int = 0) -> int:
    """Smallest k <= k_max whose order_bound_check passes; k_max+1 if none do."""
    for k in range(k_max + 1):
        if order_bound_check(coef, k, trials=trials, seed=seed).passed:
            return k
    return k_max + 1
