"""Cold-sweep benchmark for the L0-buffer reproduction (see BENCHMARK.md)."""
