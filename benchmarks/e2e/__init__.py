"""End-to-end benchmark of the repro library (see README.md; entry point run.py)."""
