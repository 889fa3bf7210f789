#!/usr/bin/env python3
"""Dynamical cross-validation: assemble one breather, hand its t = 0 slice
to a leapfrog integrator that knows nothing about the spectral solver, and
check that the state returns after one period with conserved energy.

The same integration seeded with the leading-order continuum profile
(instead of the computed breather) must return worse -- that gap is what
the higher harmonics and the kernel correction buy.

    python3 scripts/run_dynamics_check.py --mu 0.1 --steps 100000
"""
import argparse
import json
import time

from kgbreather.breather import (
    PipelineConfig,
    assemble_breather,
    kg_residual,
    reference_coefficients,
)
from kgbreather.dynamics import integrate_period
from kgbreather.lattice import BREATHER_MODES


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1, choices=tuple(BREATHER_MODES))
    ap.add_argument("--p", type=float, default=1.0)
    ap.add_argument("--a", type=float, default=0.25)
    ap.add_argument("--mu", type=float, default=0.1)
    ap.add_argument("--mode", default="st")
    ap.add_argument("--r-min", type=float, default=80.0)
    ap.add_argument("--steps", type=int, default=100_000,
                    help="leapfrog steps per period")
    ap.add_argument("--periods", type=int, default=1)
    ap.add_argument("--out", default="", help="optional JSON report path")
    args = ap.parse_args(argv)
    if args.mode not in BREATHER_MODES[args.n]:
        ap.error(
            f"argument --mode: invalid choice for --n {args.n}: {args.mode!r} "
            f"(choose from {', '.join(BREATHER_MODES[args.n])})"
        )
    return args


def main():
    args = parse_args()
    cfg = PipelineConfig(n=args.n, p=args.p, coupling=args.a, mu=args.mu,
                         mode=args.mode, r_min=args.r_min)
    t0 = time.perf_counter()
    b = assemble_breather(cfg)
    print(f"assembled n={args.n} mode={args.mode} mu={args.mu} "
          f"K={b.grid.K} in {time.perf_counter() - t0:.1f}s")
    print(f"spectral residual {kg_residual(b):.2e}, period {b.period:.6f}")

    t0 = time.perf_counter()
    rep = integrate_period(b, steps_per_period=args.steps,
                           periods=args.periods)
    elapsed = time.perf_counter() - t0
    site_steps = args.steps * args.periods * b.grid.size
    print(f"leapfrog {args.steps} steps/period x {args.periods}: "
          f"{elapsed:.2f}s ({site_steps / elapsed:.3g} site-steps/s)")
    print(f"  return error  {rep.return_error:.3e}")
    print(f"  energy drift  {rep.energy_drift:.3e}")

    seeded = integrate_period(b, steps_per_period=args.steps,
                              periods=args.periods,
                              initial_coeffs=reference_coefficients(b))
    print(f"  continuum-profile seed returns {seeded.return_error:.3e} "
          f"({seeded.return_error / max(rep.return_error, 1e-300):.1f}x worse)")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"breather": rep.to_dict(),
                       "continuum_seed": seeded.to_dict()}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
