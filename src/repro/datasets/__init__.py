"""Synthetic metagenome datasets.

The paper evaluates on four public datasets (Table 2: HG human gut, LL
Lake Lanier, MM mock microbial community, IS Iowa continuous-corn soil,
2.3-223 Gbp).  Those inputs are multi-gigabase sequencing archives we
cannot ship or download, so this package generates scaled-down synthetic
*analogues* with the structural properties the evaluation actually
exercises:

* multiple species genomes with log-normal abundance (uneven coverage),
* conserved segments shared across species — these are what produce the
  paper's giant read-graph component, and what the k-mer frequency filter
  cuts (Table 7),
* repeat segments duplicated within genomes — the high-frequency k-mers,
* paired-end reads with substitution errors and occasional N's — the
  low-frequency noise k-mers,
* dataset size ratios following Table 2.

Generation is deterministic given (dataset id, seed, scale).
"""
