"""Counting-lemma exponents and why the vertex order matters.

The running example is the "book" of ten triangles sharing one vertex.
With the shared vertex embedded first, the one-sided exponent is 3.000 (the
same as a single triangle), the two-sided exponent is 10.500, and the older
line-graph-based exponent is 12.000 - a concrete half-power of improvement.
A bad order (shared vertex last) is much worse, which is why
``optimize_order`` exists.
"""

from bijumble.graphs import complete_graph, path_graph, triangle_book
from bijumble.patterns import (
    Pattern,
    line_graph_two_sided_exponent,
    exponent_report,
    k_reg,
    optimize_order,
)

book = triangle_book(10)

centre_first = Pattern.identity(book)  # vertex 0 is the shared vertex
report = exponent_report(centre_first)
print("book, centre-first order:")
print("  k_reg        =", report.k_reg)
print("  d_tilde      =", report.d_tilde)
print("  two-sided    =", report.two_sided_exponent)
print("  line-graph   =", report.line_graph_two_sided)

centre_last = Pattern(book, tuple(range(1, 21)) + (0,))
print("book, centre-last order: two-sided =",
      exponent_report(centre_last).two_sided_exponent)

# The optimiser searches orders.  Exhaustive and branch-and-bound are exact
# (capacities 9 and 12 vertices): one depth-first search over order prefixes,
# cut once a prefix's terms reach the best order found, which branch-and-bound
# seeds with the heuristic's.  The heuristic tries degeneracy orders from
# min-degree removal plus descending-degree orders, which recovers the
# centre-first order here.
seq, best = optimize_order(book, "two_sided", "heuristic")
print("heuristic best order starts with:", seq[:4], "-> two-sided", best.two_sided_exponent)

# For the 3-vertex path the centre-first order wins: 1.000 versus 2.001.
p3 = path_graph(3)
for seq in ((1, 0, 2), (0, 1, 2)):
    print(f"P3 order {seq}: k_reg = {k_reg(Pattern(p3, seq))}")

# Triangles are order-indifferent: 3.000 every way, matching the line-graph
# exponent exactly.
k3 = complete_graph(3)
print("K3: two-sided =", exponent_report(Pattern.identity(k3)).two_sided_exponent,
      "| line-graph =", line_graph_two_sided_exponent(k3))
