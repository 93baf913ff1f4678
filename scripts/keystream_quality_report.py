#!/usr/bin/env python3
"""Keystream quality as a function of the integration step.

For each step size: where the keyed component of the two variant orbits
first differs at the bit level, then zero fraction, distinct byte
values, entropy, and chi-square of the extracted keystream, and finally
entropy and worst adjacent-pixel correlation of the reference image
encrypted with it.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

import lorenzcipher as lc

DEFAULT_STEPS = (1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 2e-2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--steps", type=float, nargs="+", default=list(DEFAULT_STEPS))
    ap.add_argument("--strategy", choices=lc.STRATEGIES,
                    default=lc.KeystreamConfig.strategy)
    args = ap.parse_args(argv)
    try:
        return report(args)
    except lc.LorenzCipherError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 3


def report(args) -> int:
    """Print one table row per step."""
    plain = lc.reference_image(args.size, args.size)
    config = lc.KeystreamConfig(rows=args.size, cols=args.size,
                                strategy=args.strategy)

    print(f"keystream quality vs step ({args.size}x{args.size}, "
          f"{args.strategy}, {config.n_samples} samples per orbit)")
    header = (f"{'step':>8} {'first-diff':>10} {'zero%':>8} {'distinct':>8} "
              f"{'entropy':>8} {'chi2':>12} {'ciph-H':>8} {'max|corr|':>10}")
    print(header)
    for step in args.steps:
        params = replace(lc.DEFAULT_PARAMS, h=step)
        delta = lc.lower_bound_error(lc.integrate_pair(
            lc.DEFAULT_INITIAL, params, config.n_samples, config.component))
        data = lc.extract_bytes(delta, config)
        diff = np.flatnonzero(delta)
        key = lc.GrayImage.from_array(data.reshape(config.rows, config.cols))
        counts = lc.histogram(key)
        cipher = lc.xor_apply(plain, lc.Keystream(data, config))
        worst = max(abs(lc.adjacent_correlation(cipher, d)) for d in lc.DIRECTIONS)
        print(f"{step:>8.0e} {diff[0] if diff.size else '-':>10} "
              f"{100.0 * float(np.mean(data == 0)):>8.3f} {len(np.unique(data)):>8} "
              f"{lc.shannon_entropy(key):>8.4f} {lc.chi_square_uniform(counts):>12.1f} "
              f"{lc.shannon_entropy(cipher):>8.4f} {worst:>10.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
