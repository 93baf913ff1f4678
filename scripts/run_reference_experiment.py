#!/usr/bin/env python3
"""The reference experiment: `lorenzcipher experiment` with these arguments.

    PYTHONPATH=src python scripts/run_reference_experiment.py [--step H] [--size N]
        [--strategy S] [--outdir DIR]
"""

import sys

from lorenzcipher.cli import run_command

if __name__ == "__main__":
    sys.exit(run_command(["experiment", *sys.argv[1:]]))
