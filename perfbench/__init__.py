"""Seeded end-to-end and per-layer benchmark of proj_ray (see README.md)."""
