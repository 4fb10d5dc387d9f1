"""Scaled-down stand-ins for the graphs used in the paper's Table I.

The paper evaluates on six SNAP / network-repository graphs ranging from
6.8 M to 1.8 B edges (Twitch, soc-Pokec, soc-LiveJournal, soc-orkut,
orkut-groups, Friendster).  Downloading or even holding those graphs is not
possible in this environment, so each one is replaced by a synthetic R-MAT
graph whose ``n : s`` ratio (average degree) matches the original and whose
heavy-tailed degree distribution matches the social-network character of the
originals.  A global ``scale`` parameter shrinks every graph by the same
factor so the *relative* sizes in Table I are preserved.

Use :func:`load` with a dataset name (``"twitch-sim"`` etc.) or
:func:`paper_table1_datasets` to get all six in the paper's row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .edgelist import EdgeList
from .generators import erdos_renyi, rmat

__all__ = [
    "DatasetSpec",
    "PAPER_GRAPHS",
    "available_datasets",
    "load",
    "paper_table1_datasets",
    "generate_labels",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one paper graph and its synthetic stand-in.

    ``paper_n`` / ``paper_s`` record the sizes reported in Table I; the
    stand-in is generated with roughly ``paper_s * scale`` edges while
    keeping the original average degree.
    """

    name: str
    paper_name: str
    paper_n: int
    paper_s: int
    paper_runtime_python: float
    paper_runtime_numba: float
    paper_runtime_ligra_serial: float
    paper_runtime_ligra_parallel: float
    generator: str = "rmat"

    @property
    def paper_avg_degree(self) -> float:
        """Average (directed) degree of the original graph."""
        return self.paper_s / self.paper_n

    def scaled_sizes(self, scale: float) -> Tuple[int, int]:
        """Return (n, s) of the stand-in graph for a given scale factor."""
        s = max(64, int(round(self.paper_s * scale)))
        n = max(16, int(round(self.paper_n * scale)))
        return n, s


# Sizes and runtimes exactly as printed in Table I of the paper.
PAPER_GRAPHS: Dict[str, DatasetSpec] = {
    "twitch-sim": DatasetSpec(
        name="twitch-sim",
        paper_name="Twitch",
        paper_n=168_000,
        paper_s=6_800_000,
        paper_runtime_python=12.18,
        paper_runtime_numba=0.20,
        paper_runtime_ligra_serial=0.11,
        paper_runtime_ligra_parallel=0.013,
    ),
    "pokec-sim": DatasetSpec(
        name="pokec-sim",
        paper_name="soc-Pokec",
        paper_n=1_600_000,
        paper_s=30_000_000,
        paper_runtime_python=133.21,
        paper_runtime_numba=1.68,
        paper_runtime_ligra_serial=0.99,
        paper_runtime_ligra_parallel=0.12,
    ),
    "livejournal-sim": DatasetSpec(
        name="livejournal-sim",
        paper_name="soc-LiveJournal",
        paper_n=6_400_000,
        paper_s=69_000_000,
        paper_runtime_python=301.64,
        paper_runtime_numba=4.29,
        paper_runtime_ligra_serial=2.39,
        paper_runtime_ligra_parallel=0.39,
    ),
    "orkut-sim": DatasetSpec(
        name="orkut-sim",
        paper_name="soc-orkut",
        paper_n=3_000_000,
        paper_s=117_000_000,
        paper_runtime_python=499.83,
        paper_runtime_numba=4.48,
        paper_runtime_ligra_serial=2.97,
        paper_runtime_ligra_parallel=0.26,
    ),
    "orkut-groups-sim": DatasetSpec(
        name="orkut-groups-sim",
        paper_name="orkut-groups",
        paper_n=3_000_000,
        paper_s=327_000_000,
        paper_runtime_python=595.29,
        paper_runtime_numba=11.43,
        paper_runtime_ligra_serial=6.06,
        paper_runtime_ligra_parallel=2.36,
    ),
    "friendster-sim": DatasetSpec(
        name="friendster-sim",
        paper_name="Friendster",
        paper_n=65_000_000,
        paper_s=1_800_000_000,
        paper_runtime_python=3374.72,
        paper_runtime_numba=112.33,
        paper_runtime_ligra_serial=77.23,
        paper_runtime_ligra_parallel=6.42,
    ),
}

#: Default shrink factor: friendster-sim gets ~1.1M edges which keeps the
#: full Table I sweep runnable in seconds-to-minutes of pure Python.
DEFAULT_SCALE = 1.0 / 1600.0


def available_datasets() -> List[str]:
    """Names accepted by :func:`load`, in Table I row order."""
    return list(PAPER_GRAPHS.keys())


def load(
    name: str,
    *,
    scale: float = DEFAULT_SCALE,
    seed: Optional[int] = 0,
) -> Tuple[EdgeList, DatasetSpec]:
    """Generate the stand-in graph for the named paper dataset.

    Parameters
    ----------
    name:
        One of :func:`available_datasets` (e.g. ``"friendster-sim"``).  The
        original SNAP names (``"Twitch"``, ``"Friendster"`` ...) are also
        accepted, case-insensitively.
    scale:
        Linear shrink factor applied to the paper's node and edge counts.
    seed:
        RNG seed for the generator (deterministic stand-ins by default).

    Returns
    -------
    (edges, spec)
    """
    key = name.lower()
    if key not in PAPER_GRAPHS:
        by_paper_name = {
            spec.paper_name.lower(): spec.name for spec in PAPER_GRAPHS.values()
        }
        if key in by_paper_name:
            key = by_paper_name[key]
        else:
            raise KeyError(
                f"unknown dataset {name!r}; available: {available_datasets()}"
            )
    spec = PAPER_GRAPHS[key]
    n, s = spec.scaled_sizes(scale)
    if spec.generator == "rmat":
        # Pick the R-MAT scale so 2**scale >= n, then trim edge_factor to hit
        # the target edge count.
        log_n = max(4, int(np.ceil(np.log2(n))))
        n_rmat = 1 << log_n
        edge_factor = max(1, int(round(s / n_rmat)))
        edges = rmat(log_n, edge_factor=edge_factor, seed=seed)
    else:
        edges = erdos_renyi(n, s, seed=seed)
    return edges, spec


def paper_table1_datasets(
    *, scale: float = DEFAULT_SCALE, seed: Optional[int] = 0
) -> List[Tuple[EdgeList, DatasetSpec]]:
    """All six Table I stand-ins in the paper's row order."""
    return [load(name, scale=scale, seed=seed) for name in available_datasets()]


def generate_labels(
    n_vertices: int,
    n_classes: int = 50,
    *,
    labelled_fraction: float = 0.10,
    seed: Optional[int] = 0,
) -> np.ndarray:
    """Reproduce the paper's label protocol.

    "We generated the Y labels uniformly at random from [0, K=50] for 10% of
    nodes, which were also selected uniformly at random" (§IV).  Unknown
    labels are encoded as ``-1`` (``repro.core.validation.UNKNOWN_LABEL``).
    """
    if not 0.0 <= labelled_fraction <= 1.0:
        raise ValueError("labelled_fraction must be in [0, 1]")
    if n_classes <= 0:
        raise ValueError("n_classes must be positive")
    rng = np.random.default_rng(seed)
    y = np.full(n_vertices, -1, dtype=np.int64)
    n_labelled = int(round(labelled_fraction * n_vertices))
    if n_labelled > 0:
        chosen = rng.choice(n_vertices, size=n_labelled, replace=False)
        y[chosen] = rng.integers(0, n_classes, size=n_labelled)
    return y
