"""Model I correlation functions: closed forms versus transfer-operator sums.

gamma = sqrt(g^4 + 8) organizes everything: one-point values, correlation
magnitudes and lengths all follow from the dominant transfer eigenvalues.
The longitudinal/transverse split shows the spins flattening into the x-y
plane as g grows.
"""

import numpy as np

from mpschain import models, spin, verify
from mpschain.mps import thermo_one_point, thermo_two_point

print(" g      <Sz^2>   (closed)    <Sx^2>   (closed)    G_par     xi_par   xi_perp")
for g in (0.1, 0.3, 0.7, 1.0, 1.5, 2.0, 3.0):
    cf = models.closed_form_correlators_I(g)
    fam = models.model_I(g)
    sz2 = thermo_one_point(fam, spin.sz2())
    sx2 = thermo_one_point(fam, spin.sx2())
    print(f"{g:4.1f}   {sz2:+.6f} ({cf.sz2:+.6f})   {sx2:+.6f} ({cf.sx2:+.6f})   "
          f"{cf.g_par:+.5f}   {cf.xi_par:6.3f}   {cf.xi_perp:6.3f}")

print()
print("exponential decay at the biquadratic point g = 1:")
fam = models.model_I(1.0)
cf = models.closed_form_correlators_I(1.0)
print("  sep    <Sz Sz>          closed-form law")
for sep in range(1, 9):
    val = thermo_two_point(fam, spin.sz(), spin.sz(), sep)
    law = cf.g_par * np.exp(-(sep - 1) / cf.xi_par)
    print(f"  {sep:3d}   {val:+.8e}   {law:+.8e}")

xi_par, xi_perp = verify.fitted_correlation_lengths(1.0)
print(f"\n  fitted correlation lengths: xi_par = {xi_par:.3f} (1/ln 3 = {cf.xi_par:.3f}), "
      f"xi_perp = {xi_perp:.3f} (closed form {cf.xi_perp:.3f})")

print()
out = "model_i_sweep.csv"
models.write_closed_form_sweep(out, [round(0.1 * i, 1) for i in range(1, 31)])
print(f"wrote the figure-ready sweep to {out} (g, quantity, value)")
