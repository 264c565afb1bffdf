"""One module per benchmark workload: inputs, set-up, timed loop, checks
and the traced per-layer breakdown."""
