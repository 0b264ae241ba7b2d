// lulesh/kernels_node.cpp — LagrangeNodal kernels: stress and hourglass
// forces (element-wise producers), nodal force gather, acceleration,
// boundary conditions, velocity, and position.

#include <cmath>

#include "lulesh/elem_geometry.hpp"
#include "lulesh/fields.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/lanes.hpp"

namespace lulesh::kernels {

namespace {

using lanes::any;
using lanes::cbrt_of;
using lanes::le;
using lanes::load;
using lanes::store_corners;

// The element helpers below run on the elements of one lane type V (see
// lanes.hpp): the fused chunks call them with two elements per SSE2
// register, the loop-granular kernels one element at a time.

/// Corner forces of the elements in V's lanes, k and up, from their stress
/// state; writes d.fx_elem[k*8 ..] (and y/z).  Returns the Jacobian
/// determinant.
template <class V>
V stress_corner_forces_elem(domain& d, index_t k, V sxx, V syy, V szz) {
    V B[3][8];
    V x_local[8], y_local[8], z_local[8];
    const index_t* nl = d.nodelist(k);
    geom::gather_corners(d.x, nl, x_local);
    geom::gather_corners(d.y, nl, y_local);
    geom::gather_corners(d.z, nl, z_local);
    V determ;
    geom::calc_elem_shape_function_derivatives(x_local, y_local, z_local, B,
                                               &determ);
    geom::calc_elem_node_normals(B[0], B[1], B[2], x_local, y_local, z_local);
    V fx[8], fy[8], fz[8];
    geom::sum_elem_stresses_to_node_forces(B, sxx, syy, szz, fx, fy, fz);
    const auto base = static_cast<std::size_t>(k) * 8;
    store_corners(&d.fx_elem[base], fx);
    store_corners(&d.fy_elem[base], fy);
    store_corners(&d.fz_elem[base], fz);
    return determ;
}

/// Hourglass control of the elements in V's lanes, i and up: volume
/// derivatives and corner coordinates.  Returns volo * v (the hourglass
/// "determ").
template <class V>
V hourglass_control_elem(const domain& d, index_t i, V* dvdx8, V* dvdy8,
                         V* dvdz8, V* x8, V* y8, V* z8) {
    const index_t* nl = d.nodelist(i);
    geom::gather_corners(d.x, nl, x8);
    geom::gather_corners(d.y, nl, y8);
    geom::gather_corners(d.z, nl, z8);
    geom::calc_elem_volume_derivative(dvdx8, dvdy8, dvdz8, x8, y8, z8);
    const auto k = static_cast<std::size_t>(i);
    return load<V>(&d.volo[k]) * load<V>(&d.v[k]);
}

/// FB hourglass force of the elements in V's lanes, i2 and up; writes
/// d.fx_elem_hg[i2*8 ..] (and y/z).
template <class V>
void fb_hourglass_elem(domain& d, index_t i2, const V* dvdx8, const V* dvdy8,
                       const V* dvdz8, const V* x8, const V* y8, const V* z8,
                       V determ, real_t hourg) {
    V hourgam[8][4];
    for (int i1 = 0; i1 < 4; ++i1) {
        const real_t* gam = geom::hourglass_gamma[i1];
        V hourmodx = real_t(0.0), hourmody = real_t(0.0),
          hourmodz = real_t(0.0);
        for (int c = 0; c < 8; ++c) {
            hourmodx += x8[c] * gam[c];
            hourmody += y8[c] * gam[c];
            hourmodz += z8[c] * gam[c];
        }
        const V volinv = real_t(1.0) / determ;
        for (int c = 0; c < 8; ++c) {
            hourgam[c][i1] =
                gam[c] - volinv * (dvdx8[c] * hourmodx + dvdy8[c] * hourmody +
                                   dvdz8[c] * hourmodz);
        }
    }

    const auto k = static_cast<std::size_t>(i2);
    const V ss1 = load<V>(&d.ss[k]);
    const V mass1 = load<V>(&d.elemMass[k]);
    const V volume13 = cbrt_of(determ);
    const V coefficient = -hourg * real_t(0.01) * ss1 * mass1 / volume13;

    V xd1[8], yd1[8], zd1[8];
    const index_t* nl = d.nodelist(i2);
    geom::gather_corners(d.xd, nl, xd1);
    geom::gather_corners(d.yd, nl, yd1);
    geom::gather_corners(d.zd, nl, zd1);
    V hgfx[8], hgfy[8], hgfz[8];
    geom::calc_elem_fb_hourglass_force(xd1, yd1, zd1, hourgam, coefficient,
                                       hgfx, hgfy, hgfz);
    const auto base = k * 8;
    store_corners(&d.fx_elem_hg[base], hgfx);
    store_corners(&d.fy_elem_hg[base], hgfy);
    store_corners(&d.fz_elem_hg[base], hgfz);
}

}  // namespace

void init_stress_terms(const domain& d, index_t lo, index_t hi, real_t* sigxx,
                       real_t* sigyy, real_t* sigzz) {
    for (index_t k = lo; k < hi; ++k) {
        const auto i = static_cast<std::size_t>(k);
        sigxx[k] = sigyy[k] = sigzz[k] = -d.p[i] - d.q[i];
    }
}

bool integrate_stress(domain& d, index_t lo, index_t hi, const real_t* sigxx,
                      const real_t* sigyy, const real_t* sigzz) {
    bool ok = true;
    for (index_t k = lo; k < hi; ++k) {
        const real_t determ =
            stress_corner_forces_elem(d, k, sigxx[k], sigyy[k], sigzz[k]);
        if (determ <= real_t(0.0)) ok = false;
    }
    return ok;
}

bool calc_hourglass_control(domain& d, index_t lo, index_t hi, real_t* dvdx,
                            real_t* dvdy, real_t* dvdz, real_t* x8n,
                            real_t* y8n, real_t* z8n, real_t* determ) {
    bool ok = true;
    for (index_t i = lo; i < hi; ++i) {
        const auto base = static_cast<std::size_t>(i) * 8;
        determ[i] = hourglass_control_elem(d, i, &dvdx[base], &dvdy[base],
                                           &dvdz[base], &x8n[base], &y8n[base],
                                           &z8n[base]);
        if (d.v[static_cast<std::size_t>(i)] <= real_t(0.0)) ok = false;
    }
    return ok;
}

void calc_fb_hourglass_force(domain& d, index_t lo, index_t hi,
                             const real_t* dvdx, const real_t* dvdy,
                             const real_t* dvdz, const real_t* x8n,
                             const real_t* y8n, const real_t* z8n,
                             const real_t* determ, real_t hgcoef) {
    for (index_t i = lo; i < hi; ++i) {
        const auto base = static_cast<std::size_t>(i) * 8;
        fb_hourglass_elem(d, i, &dvdx[base], &dvdy[base], &dvdz[base],
                          &x8n[base], &y8n[base], &z8n[base], determ[i],
                          hgcoef);
    }
}

bool force_stress_chunk(domain& d, index_t lo, index_t hi) {
    // Task-local sigma temporaries (paper trick T5): one value per element in
    // the chunk instead of a mesh-sized global array.
    hazard_touch(field::p, false, lo, hi);
    hazard_touch(field::q, false, lo, hi);
    hazard_touch(field::fx_elem, true, lo, hi);
    hazard_touch(field::fy_elem, true, lo, hi);
    hazard_touch(field::fz_elem, true, lo, hi);
    hazard_covers(field::x);   // corner gather through nodelist (elem_nodes)
    hazard_covers(field::y);
    hazard_covers(field::z);
    bool ok = true;
    lanes::for_each<lanes::packed<1>>(lo, hi, [&](auto lane, index_t k) {
        using V = decltype(lane);
        const auto i = static_cast<std::size_t>(k);
        const V sig = -load<V>(&d.p[i]) - load<V>(&d.q[i]);
        const V determ = stress_corner_forces_elem(d, k, sig, sig, sig);
        if (any(le(determ, real_t(0.0)))) ok = false;
    });
    return ok;
}

bool force_hourglass_chunk(domain& d, index_t lo, index_t hi) {
    // Fuses hourglass control and FB force per element with stack-local
    // temporaries (tricks T3+T5).
    hazard_touch(field::v, false, lo, hi);
    hazard_touch(field::ss, false, lo, hi);
    hazard_touch(field::volo, false, lo, hi);
    hazard_touch(field::elem_mass, false, lo, hi);
    hazard_touch(field::fx_elem_hg, true, lo, hi);
    hazard_touch(field::fy_elem_hg, true, lo, hi);
    hazard_touch(field::fz_elem_hg, true, lo, hi);
    hazard_covers(field::x);   // corner gather through nodelist (elem_nodes)
    hazard_covers(field::y);
    hazard_covers(field::z);
    hazard_covers(field::xd);
    hazard_covers(field::yd);
    hazard_covers(field::zd);
    bool ok = true;
    lanes::for_each<lanes::packed<1>>(lo, hi, [&](auto lane, index_t i) {
        using V = decltype(lane);
        V dvdx8[8], dvdy8[8], dvdz8[8], x8[8], y8[8], z8[8];
        const V determ =
            hourglass_control_elem(d, i, dvdx8, dvdy8, dvdz8, x8, y8, z8);
        const V v = load<V>(&d.v[static_cast<std::size_t>(i)]);
        if (any(le(v, real_t(0.0)))) ok = false;
        if (d.hgcoef > real_t(0.0)) {
            fb_hourglass_elem(d, i, dvdx8, dvdy8, dvdz8, x8, y8, z8, determ,
                              d.hgcoef);
        }
    });
    return ok;
}

void gather_forces(domain& d, index_t lo, index_t hi) {
    hazard_touch(field::fx, true, lo, hi);
    hazard_touch(field::fy, true, lo, hi);
    hazard_touch(field::fz, true, lo, hi);
    // Corner-force reads go through nodeElemCornerList: a node range maps to
    // a scattered set of corner positions (node_corners closure).
    hazard_covers(field::fx_elem);
    hazard_covers(field::fy_elem);
    hazard_covers(field::fz_elem);
    hazard_covers(field::fx_elem_hg);
    hazard_covers(field::fy_elem_hg);
    hazard_covers(field::fz_elem_hg);
    for (index_t n = lo; n < hi; ++n) {
        const index_t count = d.nodeElemCount(n);
        const index_t* corners = d.nodeElemCornerList(n);
        real_t fx_stress = 0, fy_stress = 0, fz_stress = 0;
        for (index_t c = 0; c < count; ++c) {
            const auto pos = static_cast<std::size_t>(corners[c]);
            fx_stress += d.fx_elem[pos];
            fy_stress += d.fy_elem[pos];
            fz_stress += d.fz_elem[pos];
        }
        real_t fx_hg = 0, fy_hg = 0, fz_hg = 0;
        for (index_t c = 0; c < count; ++c) {
            const auto pos = static_cast<std::size_t>(corners[c]);
            fx_hg += d.fx_elem_hg[pos];
            fy_hg += d.fy_elem_hg[pos];
            fz_hg += d.fz_elem_hg[pos];
        }
        const auto i = static_cast<std::size_t>(n);
        d.fx[i] = fx_stress + fx_hg;
        d.fy[i] = fy_stress + fy_hg;
        d.fz[i] = fz_stress + fz_hg;
    }
}

void calc_acceleration(domain& d, index_t lo, index_t hi) {
    hazard_touch(field::xdd, true, lo, hi);
    hazard_touch(field::ydd, true, lo, hi);
    hazard_touch(field::zdd, true, lo, hi);
    hazard_touch(field::fx, false, lo, hi);
    hazard_touch(field::fy, false, lo, hi);
    hazard_touch(field::fz, false, lo, hi);
    hazard_touch(field::nodal_mass, false, lo, hi);
    for (index_t n = lo; n < hi; ++n) {
        const auto i = static_cast<std::size_t>(n);
        d.xdd[i] = d.fx[i] / d.nodalMass[i];
        d.ydd[i] = d.fy[i] / d.nodalMass[i];
        d.zdd[i] = d.fz[i] / d.nodalMass[i];
    }
}

void apply_acceleration_bc_masked(domain& d, index_t lo, index_t hi) {
    for (index_t n = lo; n < hi; ++n) {
        const auto i = static_cast<std::size_t>(n);
        const std::uint8_t m = d.symm_mask[i];
        if (m == 0) continue;
        if (m & NODE_SYMM_X) d.xdd[i] = real_t(0.0);
        if (m & NODE_SYMM_Y) d.ydd[i] = real_t(0.0);
        if (m & NODE_SYMM_Z) d.zdd[i] = real_t(0.0);
    }
}

void apply_acceleration_bc_x(domain& d, index_t lo, index_t hi) {
    for (index_t j = lo; j < hi; ++j) {
        d.xdd[static_cast<std::size_t>(d.symmX[static_cast<std::size_t>(j)])] =
            real_t(0.0);
    }
}

void apply_acceleration_bc_y(domain& d, index_t lo, index_t hi) {
    for (index_t j = lo; j < hi; ++j) {
        d.ydd[static_cast<std::size_t>(d.symmY[static_cast<std::size_t>(j)])] =
            real_t(0.0);
    }
}

void apply_acceleration_bc_z(domain& d, index_t lo, index_t hi) {
    for (index_t j = lo; j < hi; ++j) {
        d.zdd[static_cast<std::size_t>(d.symmZ[static_cast<std::size_t>(j)])] =
            real_t(0.0);
    }
}

void calc_velocity(domain& d, index_t lo, index_t hi, real_t dt) {
    const real_t u_cut = d.u_cut;
    for (index_t n = lo; n < hi; ++n) {
        const auto i = static_cast<std::size_t>(n);
        real_t xdtmp = d.xd[i] + d.xdd[i] * dt;
        if (std::fabs(xdtmp) < u_cut) xdtmp = real_t(0.0);
        d.xd[i] = xdtmp;

        real_t ydtmp = d.yd[i] + d.ydd[i] * dt;
        if (std::fabs(ydtmp) < u_cut) ydtmp = real_t(0.0);
        d.yd[i] = ydtmp;

        real_t zdtmp = d.zd[i] + d.zdd[i] * dt;
        if (std::fabs(zdtmp) < u_cut) zdtmp = real_t(0.0);
        d.zd[i] = zdtmp;
    }
}

void calc_position(domain& d, index_t lo, index_t hi, real_t dt) {
    for (index_t n = lo; n < hi; ++n) {
        const auto i = static_cast<std::size_t>(n);
        d.x[i] += d.xd[i] * dt;
        d.y[i] += d.yd[i] * dt;
        d.z[i] += d.zd[i] * dt;
    }
}

void velocity_position_chunk(domain& d, index_t lo, index_t hi, real_t dt) {
    hazard_touch(field::xdd, false, lo, hi);
    hazard_touch(field::ydd, false, lo, hi);
    hazard_touch(field::zdd, false, lo, hi);
    hazard_touch(field::xd, true, lo, hi);
    hazard_touch(field::yd, true, lo, hi);
    hazard_touch(field::zd, true, lo, hi);
    hazard_touch(field::x, true, lo, hi);
    hazard_touch(field::y, true, lo, hi);
    hazard_touch(field::z, true, lo, hi);
    // Two separate loops within one task body — the loops are deliberately
    // *not* fused element-wise, preserving the reference's computational
    // structure (paper Section IV, Figure 7).
    calc_velocity(d, lo, hi, dt);
    calc_position(d, lo, hi, dt);
}

}  // namespace lulesh::kernels
