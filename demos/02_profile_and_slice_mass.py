"""Integrate the warped-product profile and watch the mass stay constant.

The profile equation is integrated from the neck; its first integral is the
slice mass, so the charged Hawking mass of every slice reproduces the model
mass to integrator precision.  The arclength coordinate change from the
static radial chart must land on the same profile.
"""

import numpy as np

from chmass import (
    arclength_from_r,
    curvature_scalars,
    integrate_profile,
    params_from_neck,
    slice_hawking_mass,
)


def main():
    a, q = 0.5, 0.3
    prof = integrate_profile(a, q, 1.0, s_max=3.3, tol=1e-10)
    print(f"neck a = {a}, Q = {q}:  m = {prof.m:.10f}  (kind: {prof.kind})\n")

    print("=== profile samples ===")
    print("      s        u(s)       u'(s)      R(s)      m_CH(slice)")
    for s in np.linspace(0.0, 2.0, 9):
        sc = curvature_scalars(prof, s)
        print(
            f"  {s:6.3f}  {prof.u(s):.6f}  {prof.du(s):+.6f}"
            f"  {sc['R']:.6f}  {slice_hawking_mass(prof, s):.10f}"
        )
    print()

    s_grid = np.linspace(-3.3, 3.3, 1101)
    drift = np.abs(slice_hawking_mass(prof, s_grid) - prof.m).max()
    print(f"first-integral drift over [-3.3, 3.3]:  {drift:.2e}   (bound 1e-8)")

    u = prof.u(s_grid)
    ddu = prof.ddu(s_grid)
    R = -4 * ddu / u + 2 * (1 - prof.du(s_grid) ** 2) / u**2
    gap = np.abs(R - 2.0 - 2 * q**2 / u**4).max()
    print(f"constraint R - 2|E|^2 - 2 Lambda:   {gap:.2e}   (bound 1e-7)\n")

    print("=== arclength chart cross-check ===")
    p = params_from_neck(a, q, 1.0)
    for r in (0.55, 0.7, 0.9, 1.1, 1.25):
        s = arclength_from_r(p, r)
        print(f"  r = {r}:  s(r) = {s:.8f}   u(s(r)) - r = {prof.u(s) - r:+.2e}")

    print("\n=== exact cylinders stay cylinders ===")
    nariai = integrate_profile(0.8, 0.48, 1.0, s_max=3.3)
    wobble = np.abs(nariai.u(s_grid) - 0.8).max()
    print(f"  charged Nariai at alpha = 0.8: max |u - alpha| = {wobble:.2e}")


if __name__ == "__main__":
    main()
