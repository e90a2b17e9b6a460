"""The pipeline's settings and their defaults. NumPy-free, like `store`, so
that `intentrec recommend` imports neither NumPy nor the fitting layers;
each layer takes its own default from here."""
from __future__ import annotations

from dataclasses import dataclass

from .recommender import DEFAULT_TOP_K

DEFAULT_SESSION_TIMEOUT = 1800  # seconds; standard 30-minute web sessionization
DEFAULT_RANK = 5
DEFAULT_MAX_ITERS = 500
DEFAULT_LAMBDA = 1.0
DEFAULT_PROCESS_NOISE = 1.0
DEFAULT_MIN_UNIQUE_REPORTS = 5
VARIANTS = ("max-ixd", "dot-ixd", "max-i", "sum-i")


@dataclass
class PipelineConfig:
    timeout: float = DEFAULT_SESSION_TIMEOUT
    train_fraction: float = 0.7
    rank: int = DEFAULT_RANK
    max_iters: int = DEFAULT_MAX_ITERS
    rank_lambda: float = DEFAULT_LAMBDA
    process_noise: float = DEFAULT_PROCESS_NOISE
    variant: str = "sum-i"
    k: int = DEFAULT_TOP_K
    seed: int = 0
    min_unique_reports: int = DEFAULT_MIN_UNIQUE_REPORTS

    def __post_init__(self):
        # timeout and train_fraction are refused by ingest before it writes
        for name in ("k", "rank", "max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.process_noise >= 0:
            raise ValueError("process_noise must be >= 0")
        if not self.rank_lambda > 0:
            raise ValueError("rank_lambda must be > 0")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {', '.join(VARIANTS)}")
