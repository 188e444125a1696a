"""The DSQL benchmark harness (see ``perfbench/README.md``).

Everything here measures the program from outside, by timing calls into
the public functions of ``src/repro``; nothing under ``src/`` knows the
benchmark exists.
"""

HARNESS_VERSION = "1.0"
