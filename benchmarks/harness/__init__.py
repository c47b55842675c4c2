"""One harness for the pipeline wall clock, its layers, and the
submit -> result path; declared by the root ``BENCHMARK.json``.  See
``README.md`` in this directory."""
