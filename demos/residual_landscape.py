"""Residual landscape over a small (x, t) rectangle.

Sweeps the mm branch, collecting the full residual record at each point:
the by-construction residuals stay at round-off everywhere while P moves
smoothly through order-0.1 values.  Points sitting next to a profile pole
are flagged, not silently included.
"""

import numpy as np

from cnlse_ansatz import REFERENCE_PARAMS, report_at, with_branch

par = with_branch(REFERENCE_PARAMS, -1, -1)

xs = np.linspace(0.2, 1.2, 6)
ts = np.linspace(0.2, 1.2, 6)
reports = [report_at(par, float(x), float(t)) for x in xs for t in ts]

print("x      t      P            r1          r2          flags")
for rep in reports:
    print(f"{rep.x:<5.2f}  {rep.t:<5.2f}  {rep.P:<+11.6f}  "
          f"{rep.r1:<10.2e}  {rep.r2:<10.2e}  {rep.notes}")

clean = [r for r in reports if not r.notes]
p_vals = np.array([r.P for r in clean])
print(f"\n{len(clean)}/{len(reports)} points clean"
      f" ({sum(1 for r in reports if r.notes)} flagged)")
print(f"|P| range over the rectangle: [{np.min(np.abs(p_vals)):.4f}, "
      f"{np.max(np.abs(p_vals)):.4f}]")
print(f"worst r1: {max(r.r1 for r in clean):.3g}")
print(f"worst r2: {max(r.r2 for r in clean):.3g}")
print("\nSame sweep, machine-readable:  cnlse-ansatz scan --branch mm "
      "--grid 0.2:1.2:6,0.2:1.2:6 --out landscape.csv")
