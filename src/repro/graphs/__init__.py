"""Graph substrate: CSR adjacency, synthetic generators, dataset suite.

The container has no scipy, so sparse-graph primitives (CSR construction,
push operators, batched random walks) are hand-rolled on numpy. Both
engines start from the same edge arrays: `csr.from_edges` builds the numpy
CSR and `generators.to_spark` the Spark edge DataFrame.
"""
from repro.graphs.csr import CSRGraph  # noqa: F401
