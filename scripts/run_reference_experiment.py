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
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

import lorenzcipher as lc

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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--step", type=float, default=0.01)
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--strategy", choices=lc.STRATEGIES,
                    default=lc.KeystreamConfig.strategy)
    ap.add_argument("--outdir", help="also write plain/cipher/decrypted PGMs here")
    args = ap.parse_args(argv)
    try:
        return experiment(args)
    except lc.LorenzCipherError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 3


def experiment(args) -> int:
    """Run the experiment and print its report; 0 if the round trip is exact, else 1."""
    t0 = time.perf_counter()
    plain = lc.reference_image(args.size, args.size)
    params = replace(lc.DEFAULT_PARAMS, h=args.step)
    config = lc.KeystreamConfig(rows=args.size, cols=args.size,
                                strategy=args.strategy)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        key = lc.generate_keystream(params, lc.DEFAULT_INITIAL, config)
    cipher = lc.xor_apply(plain, key)
    back = lc.xor_apply(cipher, key)
    round_trip = bool(np.array_equal(back.pixels, plain.pixels))

    print(f"reference experiment: {args.size}x{args.size}, step {args.step}, "
          f"{args.strategy}")
    print(f"round trip exact: {round_trip}")
    for warning in caught:
        print(f"warning: {warning.message}")

    print(f"\n{'metric':<12}{'plaintext':>14}{'ciphertext':>14}")
    pm, cm = image_metrics(plain), image_metrics(cipher)
    for name in pm:
        print(f"{name:<12}{pm[name]:>14.6f}{cm[name]:>14.6f}")
    hc = lc.histogram(cipher)
    print(f"\nciphertext histogram: min {hc.min()}, max {hc.max()}, "
          f"chi2 {lc.chi_square_uniform(hc):.1f}")

    key_image = lc.GrayImage.from_array(key.data.reshape(args.size, args.size))
    print(f"keystream: zero fraction {float(np.mean(key.data == 0)):.4%}, "
          f"distinct {len(np.unique(key.data))}, "
          f"entropy {lc.shannon_entropy(key_image):.4f}, "
          f"chi2 {lc.chi_square_uniform(lc.histogram(key_image)):.1f}")

    rows = BENCHMARK_ROWS + [
        lc.WorkScores("this-run", abs(cm["corr_h"]), abs(cm["corr_v"]),
                      abs(cm["corr_d"]), cm["entropy"])]
    print("\nefficiency index (vs fixed benchmark rows):")
    for work, ic in zip(rows, lc.efficiency_index(rows)):
        print(f"  {work.label:<10}{ic:.4f}")

    if args.outdir:
        import pathlib
        out = pathlib.Path(args.outdir)
        out.mkdir(parents=True, exist_ok=True)
        lc.write_pgm(plain, out / "plain.pgm")
        lc.write_pgm(cipher, out / "cipher.pgm")
        lc.write_pgm(back, out / "decrypted.pgm")
        print(f"\nwrote images to {out}")

    print(f"\nelapsed {time.perf_counter() - t0:.2f} s")
    return 0 if round_trip else 1


if __name__ == "__main__":
    sys.exit(main())
