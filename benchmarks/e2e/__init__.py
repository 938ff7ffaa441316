"""End-to-end + per-layer benchmark of the SVM simulator (see README.md)."""
