#!/usr/bin/env python3
"""2D error-exponent sweep (p = 1/2, square lattice, bond-centered mode).

The nonlinearity |u|u is not polynomial in the cosine coefficients, so the
truncated harmonic tail decays only like L^-2; the residual_target option
widens the residual window per mu until the pointwise equation residual
sits below the target.  Defaults reproduce the headline 2D run (about
55 s and a peak RSS of 0.8 GB on a 2-core machine; every progress line
prints that mu's wall time and the process peak so far):

    python3 scripts/run_scaling_2d.py --out out/scaling_2d

Expected at the defaults: residuals < 1e-9 at every mu, slope(e_h2) 3.00.
"""
import argparse
import resource
import time

from kgbreather.breather import SCALING_COLUMNS, scaling_study
from kgbreather.lattice import BREATHER_MODES


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mu-list", default="0.30,0.25,0.20,0.15")
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--a", type=float, default=0.25)
    ap.add_argument("--mode", default="h1", choices=tuple(BREATHER_MODES[2]))
    ap.add_argument("--l-max", type=int, default=15)
    ap.add_argument("--r-min", type=float, default=60.0)
    ap.add_argument("--residual-target", type=float, default=8e-10,
                    help="auto-widen the harmonic window to this residual")
    ap.add_argument("--out", default="scaling_2d")
    return ap.parse_args()


def main():
    args = parse_args()
    mus = [float(tok) for tok in args.mu_list.split(",") if tok]

    t0 = last = time.time()

    def progress(mu, row):
        # this mu's wall time, and the process high-water mark so far
        # (ru_maxrss is in KiB on Linux)
        nonlocal last
        now = time.time()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cost = f"wall={now - last:.1f}s  peak_rss={peak:.0f} MB"
        last = now
        if row is None:
            print(f"mu={mu:6.4f}  FAILED  {cost}", flush=True)
        else:
            print(f"mu={mu:6.4f}  e_h2={row.e_h2:.5e}  e_sup={row.e_sup:.5e}  "
                  f"residual={row.kg_residual:.2e}  {cost}", flush=True)

    table = scaling_study(
        mus, n=2, p=args.p, coupling=args.a, mode=args.mode,
        l_max=args.l_max, r_min=args.r_min,
        residual_target=args.residual_target, progress=progress,
    )
    print(f"sweep took {time.time() - t0:.1f}s; failures: {table.failures}")

    for name in SCALING_COLUMNS:
        try:
            fit = table.slope(name)
        except Exception as exc:
            print(f"slope({name:>18s}) unavailable: {exc}")
            continue
        print(f"slope({name:>18s}) = {fit.slope:7.4f} +- {fit.stderr:.4f}")

    table.to_csv(f"{args.out}.csv")
    table.to_json(f"{args.out}.json")
    print(f"wrote {args.out}.csv and {args.out}.json")


if __name__ == "__main__":
    main()
