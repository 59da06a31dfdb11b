"""End-to-end and per-layer benchmark; see bench/README.md."""
