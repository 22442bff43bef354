"""Benchmark workloads: bandsim preset configs, scaled to fit a timed run.

Each workload is a built-in preset with its replica count (and, for fig3,
one size) changed, so that one run of ``bandsim run`` takes under a second
(about 3 s for sweep_oracle) and a measurement holds many runs.
The benchmark's seed becomes the config's ``base_seed``; nothing else about
the inputs depends on it.

Why each workload is in the set (shares from traced runs of the presets):

sweep_oracle
    fig3 with its oracle size 20 lowered to 19.  The exhaustive oracle is
    over 90% of it; the sizes 10 and 19 are enumerated once per replica
    although only two instances are distinct.  Four replicas per size keep
    repeated oracle instances.  The event count, and so events per second,
    differs by about 10% between seeds (4% with eight replicas, but a run
    of eight takes 6 s, too long for a 30 s measurement).  Size 18 would
    halve the run, but the oracle's share would fall below 90%.
relax_ula
    fig5.  Best-response updates (``apply_update``) dominate; there is no
    activity churn and no oracle.
churn_ula
    fig6, all seven switching rates.  Per-flip ``set_active`` writes run
    beside the update loop; low rates barely churn, high rates are
    dominated by churn.
converge_lattice
    fig2c (hex 10x10, r=4) with trace and capacity series on: the Poisson
    stopping rule, the per-event capacity series and output writing.  It
    has 30 replicas, not a larger lattice: a 30x30 lattice takes several
    seconds per replica, and short runs let a measurement average over
    the host's fast and slow spells.  The event count differs by about 3%
    between seeds with 30 replicas and by 9% with 12.
"""

from __future__ import annotations

WORKLOADS = ("sweep_oracle", "relax_ula", "churn_ula", "converge_lattice")


def build_config(name: str, seed: int, smoke: bool = False) -> dict:
    """Config document for workload `name` with base_seed `seed`.

    `smoke` shrinks every size so the benchmark's own tests run in seconds;
    it keeps each experiment kind and every code path the full size takes.
    """
    from bandsim.experiments import preset

    if name == "sweep_oracle":
        doc = preset("fig3")
        doc["replicas"] = 4
        doc["sweep"]["sizes"] = [10, 12, 14] if smoke \
            else [10, 19, 40, 60, 80, 100]
    elif name == "relax_ula":
        doc = preset("fig5")
        doc["replicas"] = 3 if smoke else 25
        if smoke:
            doc["topology"]["n"] = 20
    elif name == "churn_ula":
        doc = preset("fig6")
        doc["replicas"] = 3 if smoke else 14
        if smoke:
            doc["topology"]["n"] = 20
    elif name == "converge_lattice":
        doc = preset("fig2c")
        if smoke:
            doc["topology"].update(rows=5, cols=5)
        doc["replicas"] = 2 if smoke else 30
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    doc["base_seed"] = seed
    doc["output"]["prefix"] = name
    return doc

