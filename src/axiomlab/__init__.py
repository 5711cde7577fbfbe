"""axiomlab: a numerical laboratory for clustering axioms and k-means stability.

The package is organised around six building blocks:

- ``core``: datasets, distance matrices, partitions, the one
  squared-distance and enclosing-ball kernel, and the size cap on
  exhaustive search.
- ``kmeans``: Lloyd iteration, seeding, exhaustive global optimisation
  and local-minimum certification.
- ``transforms``: scale, Kleinberg-style Gamma transforms, centric shrinks,
  cluster motions and per-cluster proportional shrinks.
- ``separation``: separation certificates over the clusters' enclosing
  balls, and the gap / seeding bounds that make consistency statements
  provable.
- ``constructions``: generators for the specific families of datasets used
  by the verification suites (the bundled Gaussian mixture among them),
  plus the six-point fixture table.
- ``harness``: property suites, the clustering-quality ladder reproduction
  and report formatting; ``cli`` exposes them on the command line.
"""

from . import core, kmeans, transforms, separation, constructions, harness

__version__ = "0.1.0"

__all__ = [
    "core",
    "kmeans",
    "transforms",
    "separation",
    "constructions",
    "harness",
    "__version__",
]
