"""One-line source mutants for the verify sweep.

Each entry is (name, file, old, new, expect): `file` is relative to
src/superjet, `old` occurs exactly once in src/ (a tier-1 test checks it), and
`expect` is "killed", or "equivalent: <why no answer can change>".  A mutant
that survives `verify` is a gap in the verifier to close, not an entry to
delete.
"""

MUTANTS = [
    # the symbol of an eta coefficient and its bounds
    ("symbol-doubled", "morphism.py",
     "mono.scale(Fraction(1, mi_factorial(beta)))",
     "mono.scale(Fraction(2, mi_factorial(beta)))", "killed"),
    ("symbol-negated", "morphism.py",
     "mono.scale(Fraction(1, mi_factorial(beta)))",
     "mono.scale(Fraction(-1, mi_factorial(beta)))", "killed"),
    ("theta-bound-loosened", "morphism.py",
     "return weight // 2 if self.n_eta == self.phi.source[1] else weight",
     "return weight if self.n_eta == self.phi.source[1] else weight", "killed"),
    ("commutator-one-factor-short", "morphism.py",
     "for j in coords[1:]:",
     "for j in coords[2:]:", "killed"),
    # supersmoothness
    ("supersmooth-first-mask-only", "mapspace.py",
     "for m in even_masks(F.n)[1:]:",
     "for m in even_masks(F.n)[1:2]:", "killed"),
    ("jacobian-without-k", "mapspace.py",
     "= _coerce(c * k)",
     "= _coerce(c)", "killed"),
    ("functor-theta-unshifted", "mapspace.py",
     "GrassmannElement.gen(m + q, m + a + 1) for a in range(q)",
     "GrassmannElement.gen(m + q, a + 1) for a in range(q)", "killed"),
    # the algebra and the contraction kernels
    ("merge-sign-always-plus", "grassmann.py",
     "return -1 if (b & x).bit_count() & 1 else 1",
     "return 1", "killed"),
    ("exact-product-reduced-by-left-denominator", "grassmann.py",
     "den = la * lb",
     "den = la", "killed"),
    ("odd-monomial-order-swapped", "grassmann.py",
     "self._times(self.odd_args[low.bit_length() - 1],\n"
     "                                                 self._odd(mask ^ low))",
     "self._times(self._odd(mask ^ low),\n"
     "                                                 self.odd_args[low.bit_length() - 1])",
     "killed"),
    ("contract-cap-one-short", "superfun.py",
     "top = table.one.n // 2",
     "top = table.one.n // 2 - 1", "killed"),
    ("taylor-shift-binomial-off-by-one", "polyalg.py",
     "math.comb(e, j) * pw[e - j]",
     "math.comb(e, j + 1) * pw[e - j]", "killed"),
    # the wire parsers' fast paths
    ("polynomial-wire-drops-last-exponent", "polyalg.py",
     'for v in item["exp"]]',
     'for v in item["exp"][:-1]]', "killed"),
    ("rational-wire-integer-negated", "grassmann.py",
     'return int_from_json(item["num"])',
     'return -int_from_json(item["num"])', "killed"),
    # jets
    ("faa-without-factorial", "jetcalc.py",
     "_coerce(c * mi_factorial(K))",
     "_coerce(c)", "killed"),
    ("exp-pair-drops-top-order", "jetcalc.py",
     "indices = dict.fromkeys(I for f in data.polys for I in f.terms)",
     "indices = dict.fromkeys(I for f in data.polys for I in f.terms if sum(I) < data.k)",
     "killed"),
    ("trunc-compose-cache-one-long", "jetcalc.py",
     "trunc_poly(power(i, e - 1) * increments[i], k)",
     "trunc_poly(power(i, e - 1) * increments[i], k + 1)",
     "equivalent: every term is cut at k again after the product it enters"),
    ("trunc-compose-higher-order", "jetcalc.py",
     "k = min(outer.k, inner.k)",
     "k = max(outer.k, inner.k)", "killed"),
    ("trunc-mul-higher-order", "jetcalc.py",
     "k = min(a.k, b.k)",
     "k = max(a.k, b.k)", "killed"),
    # the sphere's Taylor tables and chart
    ("chart-profiles-one-order-short", "geometry.py",
     "k = x.n // 2\n",
     "k = x.n // 2 - 1\n", "killed"),
    ("log-jet-projection-sign", "geometry.py",
     "Polynomial.variable(3, i) - dot * c",
     "Polynomial.variable(3, i) + dot * c", "killed"),
    ("theta-over-sin-argument-sign", "geometry.py",
     "2 * u - u * u",
     "2 * u + u * u", "killed"),
    ("exp-jet-sine-sign", "geometry.py",
     "tuple(c * xi + p for xi, p in zip(x, moved.polys))",
     "tuple(c * xi - p for xi, p in zip(x, moved.polys))", "killed"),
    ("transport-sign", "geometry.py",
     "out.extend(wi - factor * e for wi, e in zip(w, ends))",
     "out.extend(wi + factor * e for wi, e in zip(w, ends))", "killed"),
]
