#!/usr/bin/env python3
"""End-to-end reference experiment on the synthetic test image.

Encrypts the in-repo reference texture, verifies the decryption round trip,
and prints plaintext/ciphertext/keystream quality metrics plus the
efficiency index of this run against a fixed benchmark table.

The default step is 0.01, not the CLI default of 1e-6: at 1e-6 the two
orbit variants stay bit-identical far past the sampled window (first
differing sample near 1.5e5), so the keystream degenerates to zeros. See
the README for the step-size study.
"""

import argparse
import os
import pathlib
import sys
import time
from dataclasses import replace

import numpy as np

import lorenzcipher as lc
from lorenzcipher.cli import _write, exit_status

# Fixed cross-method benchmark rows used as the efficiency-index baseline
# (correlation magnitudes horizontal/vertical/diagonal, then entropy).
BENCHMARK_ROWS = [
    lc.WorkScores("work-a", 0.00045, 0.0015, 0.0040, 7.9973),
    lc.WorkScores("work-b", 0.0028, 0.0059, 0.0031, 7.9969),
    lc.WorkScores("work-c", 0.00083, 0.00223, 0.00650, 7.9998),
    lc.WorkScores("work-d", 0.0016, 0.0025, 0.0003, 7.9826),
]


def image_metrics(image):
    """Entropy, then corr_h, corr_v and corr_d: one per direction, by initial."""
    return {"entropy": lc.shannon_entropy(image),
            **{f"corr_{d[0]}": lc.adjacent_correlation(image, d) for d in lc.DIRECTIONS}}


def missing_dirs(path):
    """The directories os.makedirs(path) would create, deepest first."""
    missing, path = [], os.path.abspath(path)
    while not os.path.lexists(path):
        missing.append(path)
        path = os.path.dirname(path)
    return missing


def main(argv=None) -> int:
    """Run the experiment and print its report; 0 if the round trip is exact,
    else 1. The images and then the report are written through the CLI's
    writer once every metric is computed, so a run that fails writes none,
    and removes the --outdir directories it made."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--step", type=float, default=0.01)
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--strategy", choices=lc.STRATEGIES,
                    default=lc.KeystreamConfig.strategy)
    ap.add_argument("--outdir", help="also write plain/cipher/decrypted PGMs here")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    plain = lc.reference_image(args.size, args.size)
    params = replace(lc.DEFAULT_PARAMS, h=args.step)
    config = lc.KeystreamConfig(rows=args.size, cols=args.size,
                                strategy=args.strategy)
    key = lc.generate_keystream(params, lc.DEFAULT_INITIAL, config)
    cipher = lc.xor_apply(plain, key)
    back = lc.xor_apply(cipher, key)
    round_trip = bool(np.array_equal(back.pixels, plain.pixels))

    report = [f"reference experiment: {args.size}x{args.size}, step {args.step}, "
              f"{args.strategy}",
              f"round trip exact: {round_trip}"]

    report.append(f"\n{'metric':<12}{'plaintext':>14}{'ciphertext':>14}")
    pm, cm = image_metrics(plain), image_metrics(cipher)
    report += [f"{name:<12}{pm[name]:>14.6f}{cm[name]:>14.6f}" for name in pm]
    hc = lc.histogram(cipher)
    report.append(f"\nciphertext histogram: min {hc.min()}, max {hc.max()}, "
                  f"chi2 {lc.chi_square_uniform(hc):.1f}")

    key_image = lc.GrayImage.from_array(key.data.reshape(args.size, args.size))
    report.append(f"keystream: zero fraction {float(np.mean(key.data == 0)):.4%}, "
                  f"distinct {len(np.unique(key.data))}, "
                  f"entropy {lc.shannon_entropy(key_image):.4f}, "
                  f"chi2 {lc.chi_square_uniform(lc.histogram(key_image)):.1f}")

    rows = BENCHMARK_ROWS + [
        lc.WorkScores("this-run", abs(cm["corr_h"]), abs(cm["corr_v"]),
                      abs(cm["corr_d"]), cm["entropy"])]
    report.append("\nefficiency index (vs fixed benchmark rows):")
    report += [f"  {work.label:<10}{ic:.4f}"
               for work, ic in zip(rows, lc.efficiency_index(rows))]

    images, made = [], []
    if args.outdir is not None:
        made = missing_dirs(args.outdir)
        os.makedirs(args.outdir, exist_ok=True)
        out = pathlib.Path(args.outdir)
        images = [(lc.encode_pgm(image), str(out / f"{name}.pgm")) for name, image in
                  (("plain", plain), ("cipher", cipher), ("decrypted", back))]
        report.append(f"\nwrote images to {out}")

    report.append(f"\nelapsed {time.perf_counter() - t0:.2f} s")
    try:
        _write(images + [("\n".join(report) + "\n", None)], sys.stdout)
    except OSError:
        for path in made:  # deepest first, each empty as the failed write left it
            os.rmdir(path)
        raise
    return 0 if round_trip else 1


if __name__ == "__main__":
    sys.exit(exit_status(main, sys.stderr))
