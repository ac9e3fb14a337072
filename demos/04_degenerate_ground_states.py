"""Model II as a generating state for a tower of degenerate ground states.

The Hamiltonian does not depend on g, but the MPS does, so the coefficient
of g^n is itself a ground state: the superposition psi_n of all strings with
n zeros and balanced +-1 spins.  None of these states is an MPS, yet their
norms and correlators come out in closed binomial-trace form.
"""

from mpschain import ed, genstate, models, parent

n = 6
print(f"sector states on the N = {n} ring:")
h = models.model_II_hamiltonian()
for z in range(0, n + 1, 2):
    psi = genstate.psi_n_expand(n, z)
    res = parent.chain_residual(h, n, psi.vector())
    print(f"  n = {z}: {len(psi.amplitudes):4d} strings, <psi|psi> = {psi.norm_sq():6d} "
          f"= C({n},{z}) tr(V^{n - z}) = {genstate.psi_n_norm(n, z):6d},  ||H psi||/||psi|| = {res:.1e}")

print()
print("exact correlators of psi_n (N = 8, n = 2):")
N, z = 8, 2
print(f"  <S_z^2>        = {genstate.corr_sz2(N, z)}   [density of nonzero spins (N-n)/N]")
print(f"  <S_x^2>        = {genstate.corr_sperp2(N, z)}   [(N+n)/(2N)]")
print(f"  <Sz^2 Sz'^2>   = {genstate.corr_sz2sz2(N, z)}   [distance independent]")
for r in range(2, 6):
    print(f"  <S_z,1 S_z,{r}> = {str(genstate.corr_zz(N, z, r)):>8}    "
          f"<S_x,1 S_x,{r}> = {genstate.corr_xx(N, z, r)}")

print()
print("thermodynamic limit at fixed n:")
for r in (2, 3, 4, 5):
    print(f"  r = {r}: zz -> {genstate.thermo_corr(2, r, 'zz'):+.6f}   xx -> {genstate.thermo_corr(2, r, 'xx'):+.6f}")
print("  (zz collapses onto -1/2 at r = 2 only; xx dies with the n/N prefactor)")
print(f"  exact finite-size check: zz(N=400, n=2, r=2) = {float(genstate.corr_zz(400, 2, 2)):.6f}")

print()
print("degeneracy bookkeeping:")
for nn in (4, 6):
    kernel = ed.kernel_dimension(ed.ChainOperator(nn, h))
    print(f"  N = {nn}: ED kernel dimension {kernel} >= lower bound 2^N + N = {genstate.degeneracy_lower_bound(nn)}")
