"""Stability spectra, the eigenvalue-area-charge identity, and the CMC flow.

The neck's Jacobi operator has a closed-form bottom eigenvalue which the
discrete Rayleigh minimization reproduces; combined with the area and charge
it satisfies an exact identity.  Along the model foliation the mean curvature
decreases through zero while the mass stays put.
"""

import numpy as np

from chmass import (
    ScalarField,
    GraphSurface,
    build_grid,
    cmc_foliation,
    integrate_profile,
    lambda1_analytic,
    lambda1_discrete,
    monotonicity_report,
    eigenvalue_area_charge_residual,
    stability_window,
    strict_instability_constant,
)


def main():
    a, q = 0.5, 0.3
    print("=== strict-stability window (Lambda = 1) ===")
    for qq in (0.0, 0.3, 0.45, 0.5):
        w = stability_window(qq)
        print(f"  Q = {qq:<5} ->  a^2 in {w}")
    print()

    print("=== neck spectrum at (a, Q) = (0.5, 0.3) ===")
    lam1 = lambda1_analytic(a, q)
    prof = integrate_profile(a, q, 1.0, s_max=1.6)
    grid = build_grid(32, 64)
    surf = GraphSurface(prof, 0.0, ScalarField(grid, np.zeros((32, 64))))
    lam1_d = lambda1_discrete(surf)
    print(f"  lambda1 closed form: {lam1:.12f}")
    print(f"  lambda1 discrete:    {lam1_d:.12f}   (gap {abs(lam1 - lam1_d):.1e})")
    print(f"  identity residual (lambda1+1)|S| + 16 pi^2 Q^2/|S| - 4 pi: "
          f"{eigenvalue_area_charge_residual(a, q):.1e}")
    print(f"  strict-instability constant C = {strict_instability_constant(a, q):.9f}\n")

    print("=== model CMC foliation ===")
    states = cmc_foliation(prof, (-1.2, 1.2), 13)
    print("      t        H(t)       H'(t)     lambda1(t)    d m_CH/dt")
    for st in states:
        print(
            f"  {st.t:+.3f}  {st.h_mean:+.6f}  {st.dh_dt:+.6f}"
            f"  {st.lambda1:+.6f}  {st.dmch_dt:+.2e}"
        )
    mid = min(states, key=lambda st: abs(st.t))
    print(f"\n  H'(0) = {mid.dh_dt:.6f} = -lambda1: the flow leaves the neck "
          "with decreasing mean curvature")

    rep = monotonicity_report(prof, states)
    print("  mass-derivative decomposition (zeta-form brackets):")
    print(f"    scalar bracket max |.|   : {np.abs(rep.bracket_scalar_zeta).max():.2e}")
    print(f"    charge bracket max |.|   : {np.abs(rep.bracket_charge).max():.2e}")
    print("  Lambda-coefficient scalar bracket (recorded discrepancy) equals "
          "Lambda |Sigma_t|:")
    area = 4 * np.pi * np.array([st.u for st in states]) ** 2
    print(f"    max |bracket - Lambda |Sigma|| = "
          f"{np.abs(rep.bracket_scalar_printed - area).max():.2e}")


if __name__ == "__main__":
    main()
