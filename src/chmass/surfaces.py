"""Geometry of graph surfaces in the warped product ds^2 + u(s)^2 g_{S^2}.

A surface is the graph {(s0 + phi(x), x) : x in S^2} of a band-limited height
phi over a slice.  Because s-lines are unit-speed geodesics of the warped
product, these coordinate graphs coincide with normal exponential graphs over
the slice, so graph(t phi) realizes the normal variation with speed phi
exactly.

Second fundamental form convention: A(X, Y) = <nu, D_X Y> with unit normal nu
on the +d/ds side, so slices have H = -2 u'/u (negative where the area
expands).  The intrinsic Gauss curvature is assembled from the ambient Gauss
equation; an independent coordinate (Brioschi) evaluation is provided as a
cross-check.

This module is the quadrature side of every graph, slices included (a slice
is the graph of a constant height).  The closed-form side of a slice is
``profile.curvature_scalars`` together with ``profile.slice_hawking_mass``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .profile import RadialProfile
from .sphere import ScalarField, SphereGrid, build_grid

__all__ = [
    "GraphSurface",
    "SurfaceGeometry",
    "induced_geometry",
    "area",
    "charge",
    "charged_hawking_mass",
    "gauss_curvature_brioschi",
]


@dataclass(eq=False)
class GraphSurface:
    """Normal graph s0 + phi over the slice at s0; its range is checked when it is measured."""

    profile: RadialProfile
    s0: float
    phi: ScalarField
    _geom: SurfaceGeometry | None = field(default=None, init=False, repr=False)

    @property
    def grid(self) -> SphereGrid:
        return self.phi.grid


@dataclass(eq=False)
class SurfaceGeometry:
    """First and second fundamental data of one graph surface.

    Pointwise arrays are read-only (n_theta, n_phi) node values (for a
    constant height, broadcast views of one node, which ``variation_report``
    keeps internally as (1, 1) for its base slice); ``area_element`` already
    contains the quadrature weights' measure factor u^2 W, so integrals are
    sum(w_node * area_element * field).  ``ginv_ij`` is in the round sphere's
    orthonormal frame of ``synth_derivs``.  It holds the grid, not the
    surface, so caching it on the surface makes no reference cycle.
    """

    grid: SphereGrid
    zeta: float
    area: float
    charge: float
    mch: float
    h_mean: np.ndarray = field(repr=False)   # mean curvature H
    a_norm2: np.ndarray = field(repr=False)  # |A|^2
    gauss_k: np.ndarray = field(repr=False)  # intrinsic Gauss curvature
    ric_nn: np.ndarray = field(repr=False)   # ambient Ricci along the normal
    r_ambient: np.ndarray = field(repr=False)
    area_element: np.ndarray = field(repr=False)  # u^2 W (per unit solid angle)
    w_tilt: np.ndarray = field(repr=False)   # W = sqrt(1 + |grad phi|^2 / u^2)
    ginv_11: np.ndarray = field(repr=False)  # inverse induced metric, frame
    ginv_12: np.ndarray = field(repr=False)
    ginv_22: np.ndarray = field(repr=False)

    def integral(self, values: np.ndarray) -> float:
        """Surface integral of node values against the induced measure."""
        return float(np.sum(self.grid.w_node * self.area_element * values))

    def grad_inner(self, da: dict, db: dict) -> np.ndarray:
        """Pointwise induced-metric inner product of two gradients.

        ``da``/``db`` are ``synth_derivs`` dicts, read at their frame
        gradients f1, f2.
        """
        return (
            self.ginv_11 * da["f1"] * db["f1"]
            + self.ginv_12 * (da["f1"] * db["f2"] + da["f2"] * db["f1"])
            + self.ginv_22 * da["f2"] * db["f2"]
        )


# Nodes per elementwise pass of the geometry kernel: 64 KB temporaries.  This
# bounds the kernel's peak, not its page faults: glibc trims the heap top as a
# pass frees them, and the profile read's (2, n) Clenshaw buffers are 128 KiB,
# glibc's mmap threshold, so an 8192-node mass-only call faults in 180-470 pages.
_PASS_NODES = 2**13


def _mass_grid(grid: SphereGrid, lmax: int, size: float) -> SphereGrid:
    """The grid that sums the masses of band-``lmax`` heights of C^2 size <= ``size``:
    n_theta = max(16, 4 lmax) (the draws' rule lmax <= n_theta/4) by twice that
    if size <= 0.05 (``local_max_experiment``'s limit) and that n_theta is below
    ``grid``'s, else ``grid``.  Bands 1-8 then read a 96 x 192 grid's masses to 3e-16."""
    n = max(16, 4 * lmax)
    return build_grid(n, 2 * n) if size <= 0.05 and n < grid.n_theta else grid


def _node_derivs(grid: SphereGrid, coeffs: np.ndarray) -> dict:
    """``grid.synth_derivs(coeffs)``, but for a band-0 (constant) height its
    one node (..., 1, 1) with no transform: f = c_00 Pbar_00 and the five
    frame partials 0, as the product route gives them at every node.  The
    kernel's products then broadcast against ``w_node`` to the whole grid's
    sums bit for bit."""
    if coeffs.shape[-1] != 1:
        return grid.synth_derivs(coeffs)
    f = coeffs[..., None] * grid.tables()[0][0, 0]
    zero = np.zeros_like(f)
    return {"f": f, **dict.fromkeys(("f1", "f2", "h11", "h12", "h22"), zero)}


def _graph_masses(prof: RadialProfile, grid: SphereGrid, s0, d: dict, t=None) -> dict:
    """Area, charge and mch (at zeta = 2 Lambda) of the stack of graphs
    s0 + t f, from the ``synth_derivs`` dict ``d`` of the heights f.

    s0 and d["f"] broadcast to (n, n_theta, n_phi); a caller holding grid
    values transforms them itself.  t is None or one scale per graph, (n, 1,
    1), as a stencil scales its one height n ways.  One mass-only kernel call
    sums the stack: its passes bound its memory whatever n, and its three
    scalars equal ``induced_geometry``'s bit for bit."""
    shape = np.broadcast_shapes(np.shape(s0), np.shape(t), d["f"].shape)
    if len(shape) != 3:
        raise ValueError(f"graph stack of shape {shape} is not (n, n_theta, n_phi)")
    return _geometry_from_derivs(prof, grid, s0, d, t, mass_only=True)


def _geometry_from_derivs(
    prof: RadialProfile, grid: SphereGrid, s0, d: dict, t=None, *, mass_only: bool = False
) -> dict:
    """Quadrature geometry of the graph of s0 + t f from the spectral derivatives of f.

    ``d`` is a ``synth_derivs`` dict of node arrays of shape (..., n_theta,
    n_phi), in the round sphere's orthonormal frame, where sigma_ij is
    delta_ij, so the kernel reads only O(2)-invariant contractions.  t is
    None (t = 1) or one scale per graph of a stencil, which shares f's
    transform: the derivatives of t f are t times those of f.  Returns the
    ``SurfaceGeometry`` fields other than grid and zeta: node arrays of the
    shape s0, t and d broadcast to (one node for a band-0 height), and area,
    charge and mch (at the profile's zeta = 2 Lambda) of its leading shape.
    With ``mass_only`` it returns area, charge and mch alone and skips u'',
    |A|^2, the ambient curvature and K; the values are the same either way.

    Passes of at most ``_PASS_NODES`` nodes (whole graphs of the last stack
    axis, or whole theta rows of one graph) each scale their own partials
    and write w u^2 W, w u^2 W <E, nu> and w u^2 W H^2 into a buffer of the
    graphs they cover, summed once those graphs' last rows are written: the
    pass size changes no value, and in mass-only mode no node array grows
    with the stack.
    """
    shape = np.broadcast_shapes(np.shape(s0), np.shape(t), *(v.shape for v in d.values()))
    nodes = np.broadcast_shapes(shape, grid.w_node.shape)
    *stack, n_theta, n_phi = nodes if len(nodes) > 2 else (1, *nodes)
    graphs = max(1, min(stack[-1], _PASS_NODES // (n_theta * n_phi)))
    rows = max(1, _PASS_NODES // n_phi)
    weighted = np.empty((3, *[1] * (len(stack) - 1), graphs, n_theta, n_phi))
    sums = np.empty((3, *stack))
    fields = {}
    for outer in np.ndindex(*stack[:-1]):
        for i in range(0, stack[-1], graphs):
            block = (*(slice(k, k + 1) for k in outer), slice(i, i + graphs))
            w = weighted[..., : min(graphs, stack[-1] - i), :, :]
            for j in range(0, n_theta, rows):
                idx = (*block, slice(j, j + rows), slice(None))
                try:
                    part = _node_fields(prof, s0, t, d, idx, mass_only)
                except ValueError:  # name the worst height of the whole call
                    prof._check_range(s0 + (d["f"] if t is None else t * d["f"]))
                    raise
                w_area, w_charge, w_h2 = w[..., j : j + rows, :]
                np.multiply(_part(grid.w_node, idx), part["area_element"], out=w_area)
                np.multiply(w_area, part.pop("e_dot_nu"), out=w_charge)
                np.multiply(w_area, part["h_mean"] ** 2, out=w_h2)
                for name, v in () if mass_only else part.items():
                    if name not in fields:
                        fields[name] = np.empty(shape)
                    _part(fields[name], idx)[...] = v
            sums[(slice(None), *block)] = np.sum(w, axis=(-2, -1))
    area_val, charge_sum, h2_int = sums.reshape(3, *nodes[:-2])
    charge_val = charge_sum / (4.0 * math.pi)
    mch = _hawking_mass(area_val, charge_val, h2_int, prof.zeta)
    return dict(area=area_val, charge=charge_val, mch=mch, **fields)


def _part(a, idx):
    """Pass ``idx`` of an array that broadcasts to the call: a view, whole on
    a's length-1 axes.  The index is built as a list: tuples grown from a
    generator are resized, and CPython's free list keeps them, traced memory
    that grows with the number of passes."""
    a = np.asarray(a)
    at = [i if n > 1 else slice(None) for i, n in zip(idx[len(idx) - a.ndim :], a.shape)]
    return a[tuple(at)]


def _node_fields(prof: RadialProfile, s0, t, d: dict, idx, mass_only: bool) -> dict:
    """Pass ``idx`` of ``_geometry_from_derivs`` on the graph of s0 + t f:
    its node arrays and <E, nu>; with ``mass_only`` u^2 W, <E, nu> and H
    alone.  The pass's partials, scaled by its t, live as long as the pass."""
    d = {key: _part(v, idx) if t is None else _part(t, idx) * _part(v, idx) for key, v in d.items()}
    f = _part(s0, idx) + d["f"]
    if mass_only:  # the mass reads u and u' alone
        u, du = prof._state(f)
    else:
        u, du, ddu = prof.state(f)

    f1, f2 = d["f1"], d["f2"]
    grad2 = f1**2 + f2**2                  # |grad_sigma f|^2 on the unit sphere
    W2 = 1.0 + grad2 / u**2
    W = np.sqrt(W2)

    # in the orthonormal frame of sigma: A_ij = (h_ij - u u' delta_ij - 2 (u'/u) f_i f_j)/W
    uu = u * du
    k = 2.0 * du / u
    A_11 = (d["h11"] - uu - k * f1 * f1) / W
    A_12 = (d["h12"] - k * f1 * f2) / W
    A_22 = (d["h22"] - uu - k * f2 * f2) / W

    # induced metric u^2 delta_ij + f_i f_j and its inverse
    u2 = u * u
    ginv_11 = (1.0 - f1 * f1 / (u2 * W2)) / u2
    ginv_12 = (-f1 * f2 / (u2 * W2)) / u2
    ginv_22 = (1.0 - f2 * f2 / (u2 * W2)) / u2

    H = ginv_11 * A_11 + 2.0 * ginv_12 * A_12 + ginv_22 * A_22

    area_el = u2 * W
    e_dot_nu = prof.q / (u2 * W)
    if mass_only:
        return dict(area_element=area_el, e_dot_nu=e_dot_nu, h_mean=H)

    # |A|^2 = h^{ik} h^{jl} A_ij A_kl via the mixed shape operator S = h^-1 A
    S_11 = ginv_11 * A_11 + ginv_12 * A_12
    S_12 = ginv_11 * A_12 + ginv_12 * A_22
    S_21 = ginv_12 * A_11 + ginv_22 * A_12
    S_22 = ginv_12 * A_12 + ginv_22 * A_22
    A2 = S_11**2 + 2.0 * S_12 * S_21 + S_22**2

    # ambient curvature at the surface points
    R_amb = -4.0 * ddu / u + 2.0 * (1.0 - du**2) / u2
    ric_ss = -2.0 * ddu / u
    ric_tan = (1.0 - u * ddu - du**2) / u2  # orthonormal tangential Ricci
    ric_nn = (ric_ss + ric_tan * grad2 / u2) / W2

    # Gauss equation: 2K = R_amb - 2 Ric(nu,nu) + H^2 - |A|^2
    K = 0.5 * R_amb - ric_nn + 0.5 * (H**2 - A2)

    return dict(
        h_mean=H, a_norm2=A2, gauss_k=K, ric_nn=ric_nn, r_ambient=R_amb,
        area_element=area_el, w_tilt=W, e_dot_nu=e_dot_nu,
        ginv_11=ginv_11, ginv_12=ginv_12, ginv_22=ginv_22,
    )


def _hawking_mass(area_val, charge_val, h2_int, zeta: float):
    """m_CH (``charged_hawking_mass``) from |S|, Q(S) and int H^2 of one graph or a stack."""
    return np.sqrt(area_val / (16.0 * math.pi)) * (
        1.0 - (h2_int + (2.0 / 3.0) * zeta * area_val) / (16.0 * math.pi)
        + 4.0 * math.pi * charge_val**2 / area_val
    )


def induced_geometry(surface: GraphSurface) -> SurfaceGeometry:
    """Compute the full geometric package of a graph surface by quadrature.

    Every height field, constant ones included, takes the same kernel: its
    partials are one synthesis of ``phi.coeffs``, at the band the height
    carries.  A slice is the graph of a constant height, and its closed form
    is ``profile.curvature_scalars``; its kernel runs on one node, built with
    no transform (``_node_derivs``).  The mass is taken at the profile's zeta =
    2 Lambda; ``charged_hawking_mass`` evaluates any other zeta from this
    geometry.  The result is cached on the surface.  The profile read
    refuses a graph that leaves [-s_max, s_max] (ValueError).
    """
    if surface._geom is None:
        grid = surface.grid
        d = _node_derivs(grid, surface.phi.coeffs)
        surface._geom = _geometry(surface.profile, grid, surface.s0, d, grid.w_node.shape)
    return surface._geom


def _geometry(prof: RadialProfile, grid: SphereGrid, s0, d: dict, shape) -> SurfaceGeometry:
    """The kernel's ``SurfaceGeometry`` of s0 + f, its node arrays read-only views
    broadcast to ``shape``: the grid's for ``induced_geometry``, (1, 1) for
    ``variation_report``'s base slice, which stays one node."""
    fields = _geometry_from_derivs(prof, grid, s0, d)
    for name, v in fields.items():
        fields[name] = float(v) if np.ndim(v) == 0 else np.broadcast_to(v, shape)
    return SurfaceGeometry(grid=grid, zeta=prof.zeta, **fields)


def area(surface: GraphSurface) -> float:
    """Area of the graph surface (quadrature of the induced area element)."""
    return induced_geometry(surface).area


def charge(surface: GraphSurface) -> float:
    """Flux charge Q(Sigma) = (1/4 pi) * integral of <E, nu>.

    The integrand u^2 W * Q/(u^2 W) cancels at every node, so this is
    Q sum(w_node)/4 pi on every graph: a flux check tests only the weights."""
    return induced_geometry(surface).charge


def charged_hawking_mass(surface: GraphSurface, zeta: float | None = None) -> float:
    """Charged Hawking mass of the graph surface.

    m_CH = sqrt(|S|/16 pi) (1 - (1/16 pi) int (H^2 + 2 zeta/3) + 4 pi Q(S)^2/|S|)
    with zeta defaulting to 2 Lambda.  This is the one place another zeta is
    evaluated: from the cached geometry's |S|, Q(S) and H, with no new
    quadrature; at zeta = 2 Lambda it equals ``induced_geometry(surface).mch``
    bit for bit.
    """
    geom = induced_geometry(surface)
    zeta = geom.zeta if zeta is None else zeta
    return float(_hawking_mass(geom.area, geom.charge, geom.integral(geom.h_mean**2), zeta))


def gauss_curvature_brioschi(surface: GraphSurface, theta, phi) -> np.ndarray:
    """Intrinsic Gauss curvature from the coordinate (Brioschi) formula.

    Independent cross-check of the Gauss-equation route: the induced metric
    components E, F, G are evaluated exactly at a 5x5 coordinate stencil
    of step 2e-3 around each requested point and differentiated by finite differences.
    Points should stay away from the poles (the coordinate formula degenerates
    there).
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    prof = surface.profile
    grid = surface.grid

    step = 2e-3
    offs = step * np.arange(-2.0, 3.0)
    TH = theta[:, None, None] + offs[None, :, None] + 0.0 * offs[None, None, :]
    PH = phi[:, None, None] + 0.0 * offs[None, :, None] + offs[None, None, :]

    fval, ft, fp = grid.evaluate_at(surface.phi.coeffs, TH.ravel(), PH.ravel())
    f = surface.s0 + fval.reshape(TH.shape)
    ft = ft.reshape(TH.shape)
    fp = fp.reshape(TH.shape)
    u = prof._state(f)[0]

    E = u**2 + ft**2
    F = ft * fp
    G = u**2 * np.sin(TH) ** 2 + fp**2

    d1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * step)
    d2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * step**2)
    mid = np.array([0.0, 0.0, 1.0, 0.0, 0.0])

    def apply(comp, wu, wv):
        return np.einsum("pij,i,j->p", comp, wu, wv)

    Ev, Fv, Gv = (apply(c, mid, d1) for c in (E, F, G))
    Eu, Fu, Gu = (apply(c, d1, mid) for c in (E, F, G))
    Evv = apply(E, mid, d2)
    Guu = apply(G, d2, mid)
    Fuv = apply(F, d1, d1)
    E0, F0, G0 = (apply(c, mid, mid) for c in (E, F, G))

    det1 = np.linalg.det(
        np.stack(
            [
                np.stack([-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev], axis=-1),
                np.stack([Fv - 0.5 * Gu, E0, F0], axis=-1),
                np.stack([0.5 * Gv, F0, G0], axis=-1),
            ],
            axis=-2,
        )
    )
    det2 = np.linalg.det(
        np.stack(
            [
                np.stack([np.zeros_like(E0), 0.5 * Ev, 0.5 * Gu], axis=-1),
                np.stack([0.5 * Ev, E0, F0], axis=-1),
                np.stack([0.5 * Gu, F0, G0], axis=-1),
            ],
            axis=-2,
        )
    )
    return (det1 - det2) / (E0 * G0 - F0**2) ** 2
