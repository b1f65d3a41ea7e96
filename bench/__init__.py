"""Wall-clock benchmark: four layer-isolating workloads, an outside-in
layer trace, and checked outputs.  See ``bench/README.md``."""
