#!/usr/bin/env python3
"""1D error-exponent sweep: assemble breathers along a decreasing mu list,
fit log-log slopes of the error norms against mu, write table + slopes.

Defaults reproduce the headline 1D run (p = 1, a = 0.25, site-centered);
every progress line prints that mu's wall time and the process peak so far:

    python3 scripts/run_scaling_1d.py --out out/scaling_1d

Expected slopes at the defaults: e_h2 2.50, e_sup 3.00, w_x2 2.50,
dist_phi_dnls 2.00, dist_dnls_ref 2.00.
"""
import argparse
import resource
import time

from kgbreather.breather import SCALING_COLUMNS, scaling_study
from kgbreather.lattice import BREATHER_MODES


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mu-list", default="0.20,0.15,0.10,0.075,0.05",
                    help="comma separated, strictly decreasing")
    ap.add_argument("--p", type=float, default=1.0)
    ap.add_argument("--a", type=float, default=0.25)
    ap.add_argument("--mode", default="st", choices=tuple(BREATHER_MODES[1]))
    ap.add_argument("--l-max", type=int, default=15)
    ap.add_argument("--r-min", type=float, default=80.0)
    ap.add_argument("--out", default="scaling_1d",
                    help="basename for the .csv / .json outputs")
    return ap.parse_args()


def main():
    args = parse_args()
    mus = [float(tok) for tok in args.mu_list.split(",") if tok]

    t0 = last = time.perf_counter()

    def progress(mu, row):
        # this mu's wall time, and the process high-water mark so far
        # (ru_maxrss is in KiB on Linux)
        nonlocal last
        now = time.perf_counter()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cost = f"wall={now - last:.3f}s  peak_rss={peak:.0f} MB"
        last = now
        if row is None:
            print(f"mu={mu:6.4f}  FAILED  {cost}", flush=True)
        else:
            print(f"mu={mu:6.4f}  e_h2={row.e_h2:.5e}  e_sup={row.e_sup:.5e}  "
                  f"residual={row.kg_residual:.2e}  {cost}", flush=True)

    table = scaling_study(
        mus, n=1, p=args.p, coupling=args.a, mode=args.mode,
        l_max=args.l_max, r_min=args.r_min, progress=progress,
    )
    print(f"sweep took {time.perf_counter() - t0:.2f}s; "
          f"failures: {table.failures}")

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
