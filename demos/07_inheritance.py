"""End-to-end regularity-inheritance experiment with reports.

For every x in X the derived pair (N(x) in Y, Z) - neighbourhoods in the
host - is tested for (eps',d,p)-regularity in the subgraph; the outcome is
the fraction of exceptional x, to be compared with the statement's eps'|X|
budget.  The statement-scale constants are far below desk scale, so the
experiment runs in relaxed mode at pilot-calibrated parameters, embeds its
hypothesis evidence (regularity verdict, spectral bijumbledness
certificates, minimum-size warnings), and a planted-irregular negative
control shows the detector actually fires.

Writes JSON reports plus an index.csv into ./reports-demo.
"""

import time

from bijumble.experiments import (
    gen_tripartite,
    one_sided_experiment,
    plant_irregular_block,
    sparsify,
)
from bijumble.reports import make_report, write_report

N, P, D, EPS_PRIME, SEED = 500, 0.3, 0.5, 0.3, 2024

t0 = time.perf_counter()
system = sparsify(gen_tripartite(N, N, N, P, seed=SEED), D, seed=SEED + 1)
outcome = one_sided_experiment(system, EPS_PRIME, D, P, method="sampled", trials=10, seed=SEED)
print(f"clean system: {outcome.exceptional_count}/{len(outcome.per_x)} exceptional "
      f"(fraction {outcome.exceptional_fraction:.4f}); statement budget eps'|X| = "
      f"{outcome.threshold_reference:.0f}")
for record in outcome.evidence:
    print(f"  evidence: {record.name:<14} satisfied={record.satisfied} certified={record.certified}")

planted = plant_irregular_block(system, ("Y", "Z"), fraction=0.6, boost=0.9, seed=SEED + 2)
control = one_sided_experiment(planted, EPS_PRIME, D, P, method="sampled", trials=10, seed=SEED)
print(f"planted control: fraction {control.exceptional_fraction:.4f} "
      f"(the detector fires on {control.exceptional_count} of {len(control.per_x)})")

for tag, out in (("clean", outcome), ("planted", control)):
    report = make_report(
        "one_sided_inheritance",
        "relaxed",
        list(out.evidence),
        measured=out.exceptional_fraction,
        bound=0.10,
        bound_kind="upper",
        parameters={**out.parameters, "variant": tag},
        seed=SEED,
        started=t0,
    )
    path = write_report(report, "reports-demo")
    print(f"{tag}: verdict {report.verdict} -> {path}")
