"""Names the benchmark's files share: workloads and traced procedures.

Metric names and units live in ``BENCHMARK.json`` alone.  Nothing here
imports skewarch.
"""

# workload -> --jobs of its plain passes; the two matrix workloads run the CLI
WORKLOAD_JOBS = {"matrix": 1, "matrix-j2": 2, "scan": 1, "arith": 1}
CLI_WORKLOADS = ("matrix", "matrix-j2")

PROPS_TRACED = ("is_archimedean", "geometric_termination_check",
                "poly_ring_conditions", "poly_zero_divisor_probe",
                "twisted_power_product_equivalence", "series_reduced_check",
                "archimedean_falsifier", "classify")
