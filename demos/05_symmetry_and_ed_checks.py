"""Symmetry certificates and independent exact-diagonalization cross-checks.

Both families are invariant under z rotations, parity and spin flip; the
biquadratic point is the interesting case where the Hamiltonian is a full
rotation scalar but the MPS ground state is not.
"""

import numpy as np

from mpschain import ed, models, spin, symmetry, verify

for name, fam in (("model I (g=0.7)", models.model_I(0.7)), ("model II (g=1.3)", models.model_II(1.3))):
    print(f"{name}: z-rotation generator residual = {verify.z_rotation_residual(fam):.1e}")

fam = models.general_family(0.8, 0.8 * np.sqrt(2), 1.0)
pi = symmetry.find_intertwiner(fam, {lab: fam.matrices[lab].T for lab in fam.labels})
print(f"\nparity intertwiner (residual {pi.residual:.1e}):\n{np.round(pi.matrix * np.sqrt(3), 6)}")
om = symmetry.find_intertwiner(fam, {"1": fam.matrices["-1"], "0": fam.matrices["0"], "-1": fam.matrices["1"]})
print(f"spin-flip intertwiner (residual {om.residual:.1e}):\n{np.round(om.matrix * np.sqrt(3), 6)}")

print("\nspherical-tensor residuals (0 means the state keeps full rotational symmetry):")
print(f"  valence-bond family, spin-1/2 bond rep: "
      f"{symmetry.spherical_tensor_residual(models.aklt_family(), spin.spin_generators(0.5)):.1e}")
print(f"  model I at g=1, spin-1 bond rep:        "
      f"{symmetry.spherical_tensor_residual(models.model_I(1.0), spin.spin_generators(1.0)):.2f}")
print("  (the biquadratic Hamiltonian is a rotation scalar, the MPS is not:")
h2 = models.limit_hamiltonian_h2()
chain = ed.dense_chain(h2.matrix, 2, 4)
worst = 0.0
for op in (spin.SZ, spin.SX, spin.SY):
    total = sum(np.kron(np.eye(3**i), np.kron(op, np.eye(3 ** (3 - i)))) for i in range(4))
    worst = max(worst, float(np.max(np.abs(chain @ total - total @ chain))))
print(f"   commutator of the N=4 chain with every global spin component <= {worst:.1e})")

print("\nsign-flipped variant is iso-spectral (alternating pi rotation):")
rep = models.sigma_equivalence_check(4)
print(f"  local conjugation residual {rep.local_conjugation_residual:.1e}, "
      f"sorted-spectrum deviation {rep.spectrum_deviation:.1e}")

print("\nED oracle reports:")
for nn, builder in ((4, models.model_II_hamiltonian()), (4, models.limit_hamiltonian_h1())):
    print(f"  {ed.report(ed.ChainOperator(nn, builder))}")
print(f"  transfer count for the Ising-like chain at N=4: {models.adjacency_ground_count(4)}")
