"""Tests of the benchmark itself (not part of the tier-1 ``testpaths``).

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""
