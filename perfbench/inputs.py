"""Seeded inputs for the benchmark workloads.

Everything a workload feeds the library is built here, in set-up, from the
workload seed alone: the same seed gives the same inputs.  ``properties``
records what later performance claims must cite about those inputs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Figure 1 grid and the small-n Edgeworth regime
GRID_DISTS = ("lognormal:2:1", "gamma:100:1", "uniform:1:2", "pareto:10:1")
GRID_GENERATORS = ("identity", "log", "reciprocal")
SMALL_N_SCENARIOS = (("gamma:1:1", "identity"), ("lognormal:0:1", "log"))

# Request mix: 80% mean over these specs, 10% power_mean, 10% exp_mean_stable
REQUEST_SPECS = ("identity", "log", "reciprocal", "power:0.5", "power:2", "exp")
POSITIVE_SPECS = ("log", "reciprocal", "power:0.5", "power:2")
POWER_SPECS = ("power:0.5", "power:2")
OUT_OF_DOMAIN_SHARE = 0.01

# Analytic certificates
CERT_SPECS = ("identity", "log", "reciprocal", "power:2.0", "exp")
CERT_DISTS = ("lognormal:2:1", "gamma:100:1", "uniform:1:2", "pareto:10:1")
DIVERGENT = {("exp", "lognormal:2:1"), ("exp", "gamma:100:1"), ("exp", "pareto:10:1")}
# n=3 pairs: a cycle through the builtins, so each is g once and h once
CYCLE_PAIRS = tuple(zip(CERT_SPECS, CERT_SPECS[1:] + CERT_SPECS[:1]))


@dataclass(frozen=True)
class Sizes:
    grid_n: int = 1000
    grid_replicates: int = 1000
    small_ns: tuple = (5, 20)
    small_replicates: int = 20_000
    requests: int = 4000
    request_max_size: int = 10_000
    n3_pairs: int = 5
    axiom_trials: int = 1000
    portfolio_series: int = 1000


# "tiny" exists for the benchmark's own smoke tests
SIZES = {
    "full": Sizes(),
    "tiny": Sizes(grid_replicates=100, requests=300,
                  n3_pairs=1, axiom_trials=100, portfolio_series=40),
}


class Request(NamedTuple):
    spec: str
    fn: str            # "mean" | "power_mean" | "exp_mean_stable"
    x: np.ndarray
    out_of_domain: bool


def derive_seed(seed: int, *key: int) -> int:
    """A 31-bit library seed derived from the workload seed and a key."""
    ss = np.random.SeedSequence([seed, *key])
    return int(ss.generate_state(1, np.uint32)[0] >> 1)


@dataclass(frozen=True)
class Scenario:
    dist: str
    generator: str
    n: int
    replicates: int
    seed: int


def make_scenarios(seed: int, sizes: Sizes) -> list[Scenario]:
    combos = [(d, g, n) for d, g in SMALL_N_SCENARIOS for n in sizes.small_ns]
    return [Scenario(d, g, n, sizes.small_replicates, derive_seed(seed, 2, i))
            for i, (d, g, n) in enumerate(combos)]


def make_requests(seed: int, sizes: Sizes) -> list[Request]:
    """Stratified, so every seed gets the same mix and nearly the same sizes:
    exact 80/10/10 function shares, one size per stratum of the log-uniform
    distribution on 1..request_max_size, exactly OUT_OF_DOMAIN_SHARE of the
    requests out of domain (all of them positive-domain requests).  The seed
    sets the order, the values and which requests are out of domain."""
    rng = np.random.default_rng(derive_seed(seed, 3))
    count, top = sizes.requests, sizes.request_max_size
    n_mean, n_power = round(0.8 * count), round(0.1 * count)
    kinds = ([("mean", REQUEST_SPECS[i % len(REQUEST_SPECS)]) for i in range(n_mean)]
             + [("power_mean", POWER_SPECS[i % len(POWER_SPECS)]) for i in range(n_power)]
             + [("exp_mean_stable", "exp")] * (count - n_mean - n_power))
    kinds = [kinds[i] for i in rng.permutation(count)]
    strata = (rng.permutation(count) + rng.random(count)) / count
    positive = [fn == "power_mean" or spec in POSITIVE_SPECS for fn, spec in kinds]
    bad = set(rng.choice(np.flatnonzero(positive), size=round(OUT_OF_DOMAIN_SHARE * count),
                         replace=False).tolist())
    out = []
    for i, ((fn, spec), u) in enumerate(zip(kinds, strata)):
        n = min(top, int(math.exp(u * math.log(top + 1))))
        x = rng.lognormal(0.0, 0.75, n) if positive[i] else rng.normal(0.0, 2.0, n)
        if i in bad:
            x[rng.integers(n)] = -rng.uniform(0.0, 1.0)
        out.append(Request(spec, fn, x, i in bad))
    return out


def request_properties(requests: list[Request]) -> dict:
    sizes = np.array([r.x.size for r in requests])
    edges = (1, 10, 100, 1000, 10_001)
    hist = {f"{lo}-{hi - 1}": int(np.sum((sizes >= lo) & (sizes < hi)))
            for lo, hi in zip(edges, edges[1:])}
    return {
        "requests": len(requests),
        "size_histogram": hist,
        "share_size_ge_1000": float(np.mean(sizes >= 1000)),
        "share_out_of_domain": float(np.mean([r.out_of_domain for r in requests])),
        "functions": dict(Counter(r.fn for r in requests)),
        "elements": int(sizes.sum()),
    }


@dataclass(frozen=True)
class CertifyInputs:
    cross_checks: list       # (generator spec, dist spec, divergent)
    stability: list          # (g spec, h spec, n)
    axioms: list             # (generator spec, n, rng seed)
    wealth_series: list      # (returns tuple, w0)
    markowitz_series: list   # returns tuple


def make_certify(seed: int, sizes: Sizes) -> CertifyInputs:
    rng = np.random.default_rng(derive_seed(seed, 4))
    cross = [(g, d, (g, d) in DIVERGENT) for g in CERT_SPECS for d in CERT_DISTS]
    stability = ([(g, h, 2) for g, h in itertools.permutations(CERT_SPECS, 2)]
                 + [(g, h, 3) for g, h in CYCLE_PAIRS[:sizes.n3_pairs]])
    axioms = [(g, n, derive_seed(seed, 5, i))
              for i, (g, n) in enumerate(itertools.product(CERT_SPECS, (2, 5, 10)))]
    half = sizes.portfolio_series // 2
    wealth = [(tuple(rng.uniform(-0.6, 1.2, size=int(rng.integers(1, 40)))),
               float(rng.uniform(0.5, 1e4))) for _ in range(half)]
    markowitz = [tuple(rng.uniform(-0.05, 0.05, size=int(rng.integers(2, 30))))
                 for _ in range(sizes.portfolio_series - half)]
    return CertifyInputs(cross, stability, axioms, wealth, markowitz)
