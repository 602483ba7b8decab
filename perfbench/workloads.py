"""The benchmark's workloads: CLI configurations derived from a seed.

Every workload uses the built-in synthetic fixture, so nothing is read
from outside the checkout. A run with workload seed ``s`` measures two
instances, ``2s`` and ``2s + 1``: how long a solver iterates depends on the
data, and averaging two inputs halves the spread that adds between seeds.
Instance 0 is the reference: synthetic seed 7 and protocol seed 2022, the
CLI defaults.
"""

from __future__ import annotations

from dataclasses import dataclass

KNN_GRID = {"k": [4, 6, 8], "metric": ["euclidean", "manhattan"]}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # dimuq CLI subcommand
    workers: int        # protocol worker processes


WORKLOADS = {
    w.name: w for w in (
        Workload("evaluate-point", "evaluate", 1),
        Workload("uq-probabilistic", "uq", 1),
        Workload("sweep-parallel", "sweep", 2),
    )
}


def instances(seed: int) -> list[int]:
    """The two instance seeds a run with workload seed ``seed`` measures."""
    if seed < 0:
        raise ValueError("the workload seed must be >= 0")
    return [2 * seed, 2 * seed + 1]


def derived_seeds(instance: int) -> dict:
    """Synthetic data seed, protocol seed and trend-study seeds of an instance."""
    return {"data": 7 + instance, "protocol": 2022 + instance,
            "trend": [2 * instance, 2 * instance + 1]}


def config(name: str, instance: int, tiny: bool = False) -> dict:
    """The JSON config the CLI receives. ``tiny`` shrinks sizes and epochs
    for the self-test while keeping every family and layer."""
    seeds = derived_seeds(instance)
    synthetic = {"n": 100 if tiny else 800, "noise_sigma": 0.05, "seed": seeds["data"]}
    if name == "evaluate-point":
        return {
            "synthetic": synthetic,
            "protocol": {"outer_iterations": 1, "inner_iterations": 1, "k": 5,
                         "seed": seeds["protocol"], "workers": 1},
            "families": [
                {"family": "knn", "grid": KNN_GRID},
                {"family": "decision_tree"},
                {"family": "random_forest", "grid": {"n_estimators": [3 if tiny else 30]}},
                {"family": "gbt", "grid": {"n_estimators": [5 if tiny else 60]}},
                {"family": "svr"},
                {"family": "mlp", "grid": {"max_iter": [50]} if tiny else {}},
            ],
        }
    if name == "uq-probabilistic":
        # GPR starts from its fixed initial kernel only: random restarts make
        # the number of likelihood evaluations swing 72-150 between seeds.
        return {
            "synthetic": synthetic,
            "protocol": {"seed": seeds["protocol"]},
            "uq": {
                "fractions": [0.1, 0.5, 0.9],
                "seeds": seeds["trend"],
                "draws": 20 if tiny else 200,
                "parity_fraction": 0.8,
                "models": ["gpr", "bnn_head", "bnn_ensemble"],
                "gpr": {"n_restarts": 0},
                "bnn_head": {"epochs": 20 if tiny else 2000},
                "bnn_ensemble": {"epochs": 20 if tiny else 1500},
            },
        }
    if name == "sweep-parallel":
        return {
            "synthetic": synthetic,
            "protocol": {"outer_iterations": 1, "inner_iterations": 2 if tiny else 5,
                         "k": 5, "seed": seeds["protocol"], "workers": 2},
            "sweep_fractions": [0.3, 0.7] if tiny else [round(0.1 * i, 1) for i in range(1, 10)],
            "families": [
                {"family": "knn", "grid": KNN_GRID},
                {"family": "decision_tree",
                 "grid": {"max_depth": [4, 8, 12], "min_samples_leaf": [1, 5]}},
            ],
        }
    raise KeyError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
