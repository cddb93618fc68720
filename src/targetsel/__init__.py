"""Targeted data subset selection via submodular mutual information."""

__version__ = "0.1.0"

from .datastore import (  # noqa: F401
    FeatureMatrix,
    ProbabilityMatrix,
    load_features,
    load_probabilities,
)
from .kernel import KernelConfig, SimilarityKernel, build_kernel  # noqa: F401
from .objectives import (  # noqa: F401
    KINDS,
    ObjectiveSpec,
    ObjectiveState,
    build_objective,
    evaluate,
)
from .optimizer import (  # noqa: F401
    SelectionConfig,
    SelectionResult,
    exhaustive_maximize,
    greedy_maximize,
)
