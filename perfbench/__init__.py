"""perfbench — the benchmark that defines this repository's performance.

See ``README.md`` in this directory; ``run.py`` is the entry point.
"""
