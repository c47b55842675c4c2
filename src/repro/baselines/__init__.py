"""Comparison baselines from the paper's section 4.2.

* :mod:`repro.baselines.kmc2` — a KMC 2-style minimizer/super-k-mer
  two-stage counter (Figure 9's comparator).
* :mod:`repro.baselines.ap_lb` — the AP_LB read-graph partitioner of
  Flick et al.: iterated Shiloach-Vishkin connectivity (Table 4's
  comparator).
* :mod:`repro.baselines.numa_sort` — a tuned 64-bit key/payload sorter
  standing in for the NUMA-aware radix sort of Polychroniou & Ross
  (section 4.2.2's comparator).
"""
