"""
Uniform convergence in the energy norm
======================================

The Galerkin solution on the adapted mesh converges at first order in the
energy norm, with error constants that do not depend on the size of the
diffusion coefficient.  This script reproduces the headline convergence
table on the manufactured scenario, where the exact solution is known.
"""

from layerfem import convergence_study, get_scenario

h_list = [1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128]
eps0_list = [1e-3, 1e-5, 1e-7]

rows = convergence_study(
    lambda eps0: get_scenario("manufactured", eps0), h_list, eps0_list)

print(f"{'eps0':>8} {'h':>10} {'nodes':>6} {'energy err':>12} {'rate':>6}")
for row in rows:
    rate = f"{row.rate:6.3f}" if row.rate is not None else "   -- "
    print(f"{row.eps0:8.0e} {row.h:10.5f} {row.node_count:6d} "
          f"{row.energy_error:12.4e} {rate}")

# the error at a fixed h barely moves across four decades of eps0
for h in h_list:
    errs = [r.energy_error for r in rows if r.h == h]
    print(f"h = {h:.5f}: cross-eps0 error spread = {max(errs)/min(errs):.4f}")
