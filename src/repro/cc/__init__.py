"""Connected-components machinery (LocalCC + MergeCC, paper sections 3.5-3.6).

The read graph is never materialized: sorted (k-mer, read) tuple runs are
turned into star edges on the fly and folded into a union-by-index
disjoint-set forest (Algorithm 1's roots, computed by vectorised
hook-and-jump rounds), then per-task forests are merged in
``ceil(log2 P)`` tree rounds (Cybenko-style, Figure 4).
"""
