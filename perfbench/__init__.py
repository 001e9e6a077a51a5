"""End-to-end search benchmark with per-layer host-time tracing (see run.py)."""
