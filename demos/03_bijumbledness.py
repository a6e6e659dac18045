"""Three routes to a bijumbledness certificate.

A pair is (p,gamma)-bijumbled when every subset pair's edge count deviates
from p|U'||V'| by at most gamma sqrt(|U'||V'|).  The toolkit offers:

* exact: the optimal gamma with an attaining witness (subset enumeration on
  one side, degree-sorted prefixes on the other);
* spectral: a sound upper bound from the top singular value of the
  p-centred biadjacency array;
* search: seeded hill climbing that can only ever find violations.

On any pair small enough for all three, search <= exact <= spectral.
"""

from bijumble.graphs import perfect_matching
from bijumble.jumbled import (
    exact_jumble_gamma,
    min_size_bound,
    search_jumble_violation,
    spectral_jumble_bound,
)
from bijumble.experiments import gen_bipartite

pair = perfect_matching(3)
p = 1 / 3

exact = exact_jumble_gamma(pair, p)
print(f"exact:    gamma = {exact.gamma:.6f}, witness = "
      f"{list(exact.witness[0].indices)} x {list(exact.witness[1].indices)}")

spectral = spectral_jumble_bound(pair, p)
print(f"spectral: gamma <= {spectral.gamma:.6f} (Cholesky attempts: {spectral.iterations})")

found = search_jumble_violation(pair, p, gamma=0.5, trials=50, seed=1)
print(f"search:   found discrepancy {found.gamma:.6f} above the 0.5 threshold")

# On a seeded random pair the spectral bound is the workhorse: measuring
# gamma as c' p^k sqrt(|U||V|) feeds the degree-outlier and minimum-size
# consequences.
big = gen_bipartite(300, 300, 0.2, seed=7)
cert = spectral_jumble_bound(big, 0.2)
c_prime = cert.c_prime(1.0, 300, 300)
print(f"G(300,300,0.2): spectral gamma = {cert.gamma:.3f}  ->  c' = {c_prime:.4f} at exponent 1")

# Nontrivial bijumbledness forces a minimum size: below it the hypothesis
# is vacuous and experiment plans get a warning.
print("minimum side size at c'=1/4, p=1/4, k=3/2:", min_size_bound(0.25, 0.25, 1.5))
