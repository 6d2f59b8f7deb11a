"""Shared benchmark fixtures.

The three table benchmarks and the ANOVA benchmark are views over one
237-response study run (exactly as the paper's tables are three views
over one response set), so the run is computed once per session and
cached.  Every benchmark writes its regenerated artifact into
``benchmarks/output/`` so EXPERIMENTS.md can quote measured results.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments import run_study

#: Pinned headline configuration (see EXPERIMENTS.md).  CI's
#: benchmark-smoke job overrides the size down to "small" via the
#: environment; committed artifacts always come from the defaults.
CITY = os.environ.get("REPRO_BENCH_CITY", "melbourne")
SIZE = os.environ.get("REPRO_BENCH_SIZE", "medium")
SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

OUTPUT_DIR = Path(__file__).parent / "output"


def drop_accelerators(network) -> None:
    """Detach the landmark table and contraction hierarchy riding on the
    network's CSR view, so the next measurement starts from plain CSR."""
    from repro.graph.csr import ensure_csr

    csr = ensure_csr(network)
    csr.landmarks = None
    csr.hierarchy = None


def write_artifact(name: str, text: str) -> None:
    """Persist a regenerated table/figure for the experiment log."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / name).write_text(text + "\n")


@pytest.fixture(scope="session")
def study_results():
    """The pinned full-scale study run (237 responses, medium Melbourne)."""
    return run_study(city=CITY, size=SIZE, seed=SEED)


@pytest.fixture(scope="session")
def study_network():
    from repro.experiments import build_study_network

    return build_study_network(city=CITY, size=SIZE, seed=SEED)
