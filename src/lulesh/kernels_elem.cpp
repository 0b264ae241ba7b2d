// lulesh/kernels_elem.cpp — LagrangeElements kernels: kinematics (new
// volumes, strain rates) and the end-of-step volume update.

#include <cmath>

#include "lulesh/elem_geometry.hpp"
#include "lulesh/fields.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/lanes.hpp"

namespace lulesh::kernels {

namespace {

using lanes::load;
using lanes::store;

/// Kinematics of the elements in V's lanes, k and up (`lane` only carries
/// the type).
template <class V>
void kinematics_elem(V /*lane*/, domain& d, index_t k, real_t dt2) {
    V B[3][8];
    V D[6];
    V x_local[8], y_local[8], z_local[8];
    V xd_local[8], yd_local[8], zd_local[8];

    const index_t* nl = d.nodelist(k);
    geom::gather_corners(d.x, nl, x_local);
    geom::gather_corners(d.y, nl, y_local);
    geom::gather_corners(d.z, nl, z_local);

    const auto i = static_cast<std::size_t>(k);

    // New relative volume and volume change.
    const V volume = geom::calc_elem_volume(x_local, y_local, z_local);
    const V relative_volume = volume / load<V>(&d.volo[i]);
    store(&d.vnew[i], relative_volume);
    store(&d.delv[i], relative_volume - load<V>(&d.v[i]));

    store(&d.arealg[i], geom::calc_elem_characteristic_length(
                            x_local, y_local, z_local, volume));

    geom::gather_corners(d.xd, nl, xd_local);
    geom::gather_corners(d.yd, nl, yd_local);
    geom::gather_corners(d.zd, nl, zd_local);

    // Evaluate the velocity gradient at the half step: move the corner
    // coordinates back by dt/2.
    for (int c = 0; c < 8; ++c) {
        x_local[c] -= dt2 * xd_local[c];
        y_local[c] -= dt2 * yd_local[c];
        z_local[c] -= dt2 * zd_local[c];
    }

    V det_j = real_t(0.0);
    geom::calc_elem_shape_function_derivatives(x_local, y_local, z_local, B,
                                               &det_j);
    geom::calc_elem_velocity_gradient(xd_local, yd_local, zd_local, B, det_j,
                                      D);

    store(&d.dxx[i], D[0]);
    store(&d.dyy[i], D[1]);
    store(&d.dzz[i], D[2]);
}

}  // namespace

void calc_kinematics(domain& d, index_t lo, index_t hi, real_t dt) {
    hazard_touch(field::vnew, true, lo, hi);
    hazard_touch(field::delv, true, lo, hi);
    hazard_touch(field::volo, false, lo, hi);
    hazard_touch(field::v, false, lo, hi);
    hazard_touch(field::arealg, true, lo, hi);
    hazard_touch(field::dxx, true, lo, hi);
    hazard_touch(field::dyy, true, lo, hi);
    hazard_touch(field::dzz, true, lo, hi);
    hazard_covers(field::x);   // corner gather through nodelist (elem_nodes)
    hazard_covers(field::y);
    hazard_covers(field::z);
    hazard_covers(field::xd);
    hazard_covers(field::yd);
    hazard_covers(field::zd);
    const real_t dt2 = real_t(0.5) * dt;
    lanes::for_each<lanes::packed<1>>(lo, hi, [&](auto lane, index_t k) {
        kinematics_elem(lane, d, k, dt2);
    });
}

bool calc_lagrange_deviatoric(domain& d, index_t lo, index_t hi) {
    bool ok = true;
    for (index_t k = lo; k < hi; ++k) {
        const auto i = static_cast<std::size_t>(k);
        const real_t vdov_k = d.dxx[i] + d.dyy[i] + d.dzz[i];
        const real_t vdov_third = vdov_k / real_t(3.0);

        d.vdov[i] = vdov_k;
        d.dxx[i] -= vdov_third;
        d.dyy[i] -= vdov_third;
        d.dzz[i] -= vdov_third;

        if (d.vnew[i] <= real_t(0.0)) ok = false;
    }
    return ok;
}

bool apply_material_vnewc(domain& d, index_t lo, index_t hi) {
    const real_t eosvmin = d.eosvmin;
    const real_t eosvmax = d.eosvmax;
    bool ok = true;
    for (index_t k = lo; k < hi; ++k) {
        const auto i = static_cast<std::size_t>(k);
        real_t vc_new = d.vnew[i];
        if (eosvmin != real_t(0.0) && vc_new < eosvmin) vc_new = eosvmin;
        if (eosvmax != real_t(0.0) && vc_new > eosvmax) vc_new = eosvmax;
        d.vnewc[i] = vc_new;

        // Sanity check on the *current* relative volume (reference abort).
        real_t vc = d.v[i];
        if (eosvmin != real_t(0.0) && vc < eosvmin) vc = eosvmin;
        if (eosvmax != real_t(0.0) && vc > eosvmax) vc = eosvmax;
        if (vc <= real_t(0.0)) ok = false;
    }
    return ok;
}

void update_volumes(domain& d, index_t lo, index_t hi) {
    hazard_touch(field::vnew, false, lo, hi);
    hazard_touch(field::v, true, lo, hi);
    const real_t v_cut = d.v_cut;
    for (index_t k = lo; k < hi; ++k) {
        const auto i = static_cast<std::size_t>(k);
        real_t tmp_v = d.vnew[i];
        if (std::fabs(tmp_v - real_t(1.0)) < v_cut) tmp_v = real_t(1.0);
        d.v[i] = tmp_v;
    }
}

}  // namespace lulesh::kernels
