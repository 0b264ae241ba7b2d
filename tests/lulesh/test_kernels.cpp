// Unit tests for individual LULESH kernels: node-wise updates, EOS phases,
// time constraints, and the time-increment controller.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "lulesh/domain.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/kernels.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::real_t;
namespace k = lulesh::kernels;

options small_opts(index_t size = 4, index_t regions = 2) {
    options o;
    o.size = size;
    o.num_regions = regions;
    return o;
}

// ---------------- node kernels ----------------

TEST(NodeKernels, AccelerationIsForceOverMass) {
    domain d(small_opts());
    d.fx[5] = 10.0;
    d.fy[5] = -4.0;
    d.fz[5] = 2.0;
    k::calc_acceleration(d, 0, d.numNode());
    EXPECT_DOUBLE_EQ(d.xdd[5], 10.0 / d.nodalMass[5]);
    EXPECT_DOUBLE_EQ(d.ydd[5], -4.0 / d.nodalMass[5]);
    EXPECT_DOUBLE_EQ(d.zdd[5], 2.0 / d.nodalMass[5]);
}

TEST(NodeKernels, MaskedBcMatchesListBc) {
    domain a(small_opts());
    domain b(small_opts());
    for (index_t n = 0; n < a.numNode(); ++n) {
        const auto i = static_cast<std::size_t>(n);
        a.xdd[i] = b.xdd[i] = 1.0 + n;
        a.ydd[i] = b.ydd[i] = 2.0 + n;
        a.zdd[i] = b.zdd[i] = 3.0 + n;
    }
    k::apply_acceleration_bc_masked(a, 0, a.numNode());
    k::apply_acceleration_bc_x(b, 0, static_cast<index_t>(b.symmX.size()));
    k::apply_acceleration_bc_y(b, 0, static_cast<index_t>(b.symmY.size()));
    k::apply_acceleration_bc_z(b, 0, static_cast<index_t>(b.symmZ.size()));
    for (index_t n = 0; n < a.numNode(); ++n) {
        const auto i = static_cast<std::size_t>(n);
        EXPECT_EQ(a.xdd[i], b.xdd[i]) << "node " << n;
        EXPECT_EQ(a.ydd[i], b.ydd[i]) << "node " << n;
        EXPECT_EQ(a.zdd[i], b.zdd[i]) << "node " << n;
    }
}

TEST(NodeKernels, VelocityIntegratesAcceleration) {
    domain d(small_opts());
    d.xd[3] = 1.0;
    d.xdd[3] = 2.0;
    k::calc_velocity(d, 0, d.numNode(), 0.5);
    EXPECT_DOUBLE_EQ(d.xd[3], 2.0);
}

TEST(NodeKernels, VelocityCutSnapsSmallValuesToZero) {
    domain d(small_opts());
    d.xdd[3] = 1e-9;  // u_cut is 1e-7
    k::calc_velocity(d, 0, d.numNode(), 1.0);
    EXPECT_EQ(d.xd[3], 0.0);
}

TEST(NodeKernels, PositionIntegratesVelocity) {
    domain d(small_opts());
    const real_t x0 = d.x[7];
    d.xd[7] = 3.0;
    k::calc_position(d, 0, d.numNode(), 0.25);
    EXPECT_DOUBLE_EQ(d.x[7], x0 + 0.75);
}

TEST(NodeKernels, FusedVelocityPositionMatchesSeparate) {
    domain a(small_opts());
    domain b(small_opts());
    for (index_t n = 0; n < a.numNode(); ++n) {
        const auto i = static_cast<std::size_t>(n);
        a.xdd[i] = b.xdd[i] = 0.01 * n;
        a.ydd[i] = b.ydd[i] = -0.02 * n;
    }
    k::velocity_position_chunk(a, 0, a.numNode(), 0.1);
    k::calc_velocity(b, 0, b.numNode(), 0.1);
    k::calc_position(b, 0, b.numNode(), 0.1);
    for (std::size_t i = 0; i < a.x.size(); ++i) {
        EXPECT_EQ(a.x[i], b.x[i]);
        EXPECT_EQ(a.xd[i], b.xd[i]);
    }
}

TEST(ForceKernels, FusedChunksMatchLoopGranular) {
    // Run one force phase both ways on identical pre-evolved domains and
    // compare corner forces bitwise.
    options o = small_opts(6, 3);
    domain a(o);
    domain b(o);
    // Evolve a few steps serially to get a nontrivial state.
    lulesh::serial_driver drv;
    auto evolve = [&drv](domain& d) {
        for (int i = 0; i < 3; ++i) {
            k::time_increment(d);
            drv.advance(d);
        }
    };
    evolve(a);
    evolve(b);

    // a: fused chunk path; b: loop-granular path.
    const index_t ne = a.numElem();
    for (index_t lo = 0; lo < ne; lo += 7) {
        const index_t hi = std::min<index_t>(lo + 7, ne);
        ASSERT_TRUE(k::force_stress_chunk(a, lo, hi));
        ASSERT_TRUE(k::force_hourglass_chunk(a, lo, hi));
    }
    {
        const auto nes = static_cast<std::size_t>(ne);
        std::vector<real_t> sigxx(nes), sigyy(nes), sigzz(nes);
        std::vector<real_t> dvdx(nes * 8), dvdy(nes * 8), dvdz(nes * 8);
        std::vector<real_t> x8n(nes * 8), y8n(nes * 8), z8n(nes * 8);
        std::vector<real_t> determ(nes);
        k::init_stress_terms(b, 0, ne, sigxx.data(), sigyy.data(), sigzz.data());
        ASSERT_TRUE(k::integrate_stress(b, 0, ne, sigxx.data(), sigyy.data(),
                                        sigzz.data()));
        ASSERT_TRUE(k::calc_hourglass_control(b, 0, ne, dvdx.data(),
                                              dvdy.data(), dvdz.data(),
                                              x8n.data(), y8n.data(),
                                              z8n.data(), determ.data()));
        k::calc_fb_hourglass_force(b, 0, ne, dvdx.data(), dvdy.data(),
                                   dvdz.data(), x8n.data(), y8n.data(),
                                   z8n.data(), determ.data(), b.hgcoef);
    }
    for (std::size_t i = 0; i < a.fx_elem.size(); ++i) {
        ASSERT_EQ(a.fx_elem[i], b.fx_elem[i]) << "stress corner " << i;
        ASSERT_EQ(a.fx_elem_hg[i], b.fx_elem_hg[i]) << "hg corner " << i;
    }
}

TEST(ForceKernels, GatherSumsStressAndHourglass) {
    domain d(small_opts(2, 1));
    // Give node 0's single corner (elem 0, corner 0) known forces.
    d.fx_elem[0] = 1.5;
    d.fx_elem_hg[0] = 0.25;
    k::gather_forces(d, 0, 1);
    EXPECT_DOUBLE_EQ(d.fx[0], 1.75);
}

// ---------------- EOS phases ----------------

TEST(Eos, PressureIsTwoThirdsCompressedEnergy) {
    domain d(small_opts(2, 1));
    const index_t list[1] = {0};
    d.vnewc[0] = 1.0;
    real_t compression[1] = {0.5};
    real_t bvc[1], pbvc[1], p_out[1];
    real_t e[1] = {3.0};
    k::pressure_bvc(0, 1, compression, bvc, pbvc);
    EXPECT_DOUBLE_EQ(bvc[0], (2.0 / 3.0) * 1.5);
    EXPECT_DOUBLE_EQ(pbvc[0], 2.0 / 3.0);
    k::pressure_p(d, list, 0, 1, p_out, bvc, e);
    EXPECT_DOUBLE_EQ(p_out[0], 3.0);
}

TEST(Eos, PressureCutSnapsToZero) {
    domain d(small_opts(2, 1));
    const index_t list[1] = {0};
    d.vnewc[0] = 1.0;
    real_t bvc[1] = {2.0 / 3.0};
    real_t e[1] = {1e-8};  // below p_cut
    real_t p_out[1];
    k::pressure_p(d, list, 0, 1, p_out, bvc, e);
    EXPECT_EQ(p_out[0], 0.0);
}

TEST(Eos, PressureClampedToPmin) {
    domain d(small_opts(2, 1));
    const index_t list[1] = {0};
    d.vnewc[0] = 1.0;
    real_t bvc[1] = {2.0 / 3.0};
    real_t e[1] = {-5.0};
    real_t p_out[1];
    k::pressure_p(d, list, 0, 1, p_out, bvc, e);
    EXPECT_EQ(p_out[0], d.pmin);
}

TEST(Eos, EnergyStep1ClampsToEmin) {
    domain d(small_opts(2, 1));
    k::eos_scratch s;
    s.resize(1);
    s.e_old[0] = -1e20;
    s.delvc[0] = 0.0;
    s.p_old[0] = 0.0;
    s.q_old[0] = 0.0;
    s.work[0] = 0.0;
    k::energy_step1(d, 0, 1, s);
    EXPECT_EQ(s.e_new[0], d.emin);
}

TEST(Eos, ExpansionZeroesViscosity) {
    domain d(small_opts(2, 1));
    k::eos_scratch s;
    s.resize(1);
    s.delvc[0] = 0.5;  // expanding: q_new must be zero
    s.comp_half_step[0] = 0.0;
    s.e_new[0] = 1.0;
    s.pbvc[0] = 2.0 / 3.0;
    s.bvc[0] = 2.0 / 3.0;
    s.p_half_step[0] = 1.0;
    s.p_old[0] = 0.0;
    s.q_old[0] = 0.0;
    s.ql_old[0] = 5.0;
    s.qq_old[0] = 7.0;
    k::energy_q_half(d, 0, 1, s);
    EXPECT_EQ(s.q_new[0], 0.0);
}

TEST(Eos, CompressionViscosityUsesSoundSpeed) {
    domain d(small_opts(2, 1));
    k::eos_scratch s;
    s.resize(1);
    s.delvc[0] = -0.1;  // compressing
    s.comp_half_step[0] = 0.0;
    s.e_new[0] = 0.0;
    s.pbvc[0] = 0.0;
    s.bvc[0] = 1.0;
    s.p_half_step[0] = 1.0;  // ssc = sqrt(1 * 1 / 1) = 1
    s.p_old[0] = 0.0;
    s.q_old[0] = 0.0;
    s.ql_old[0] = 5.0;
    s.qq_old[0] = 7.0;
    k::energy_q_half(d, 0, 1, s);
    EXPECT_DOUBLE_EQ(s.q_new[0], 12.0);  // ssc * ql + qq
}

TEST(Eos, GatherPhasesReadRegionElements) {
    domain d(small_opts(3, 1));
    d.e[5] = 42.0;
    d.delv[5] = -0.25;
    d.p[5] = 3.0;
    d.q[5] = 1.0;
    d.qq[5] = 0.5;
    d.ql[5] = 0.25;
    const index_t list[2] = {5, 0};
    k::eos_scratch s;
    s.resize(2);
    k::eos_gather_e(d, list, 0, 2, s);
    k::eos_gather_delv(d, list, 0, 2, s);
    k::eos_gather_p(d, list, 0, 2, s);
    k::eos_gather_q(d, list, 0, 2, s);
    k::eos_gather_qq_ql(d, list, 0, 2, s);
    EXPECT_EQ(s.e_old[0], 42.0);
    EXPECT_EQ(s.delvc[0], -0.25);
    EXPECT_EQ(s.p_old[0], 3.0);
    EXPECT_EQ(s.q_old[0], 1.0);
    EXPECT_EQ(s.qq_old[0], 0.5);
    EXPECT_EQ(s.ql_old[0], 0.25);
    EXPECT_EQ(s.e_old[1], d.e[0]);
}

TEST(Eos, CompressionFormula) {
    domain d(small_opts(2, 1));
    d.vnewc[0] = 0.8;
    const index_t list[1] = {0};
    k::eos_scratch s;
    s.resize(1);
    s.delvc[0] = -0.2;
    k::eos_compression(d, list, 0, 1, s);
    EXPECT_NEAR(s.compression[0], 1.0 / 0.8 - 1.0, 1e-15);
    EXPECT_NEAR(s.comp_half_step[0], 1.0 / 0.9 - 1.0, 1e-15);
}

TEST(Eos, EvalChunkRepeatsAreIdempotentOnStore) {
    // rep > 1 repeats the *computation* but gathers from the same committed
    // state each time, so the stored result equals the rep = 1 result.
    options o = small_opts(4, 1);
    domain a(o);
    domain b(o);
    lulesh::serial_driver drv;
    for (int i = 0; i < 2; ++i) {
        k::time_increment(a);
        drv.advance(a);
        k::time_increment(b);
        drv.advance(b);
    }
    const auto& list = a.regElemList(0);
    const auto count = static_cast<index_t>(list.size());
    k::eos_scratch s;
    s.resize(static_cast<std::size_t>(count));
    k::eval_eos_chunk(a, list.data(), 0, count, 1, s);
    k::eval_eos_chunk(b, b.regElemList(0).data(), 0, count, 20, s);
    for (std::size_t i = 0; i < a.e.size(); ++i) {
        ASSERT_EQ(a.e[i], b.e[i]) << "elem " << i;
        ASSERT_EQ(a.p[i], b.p[i]);
        ASSERT_EQ(a.q[i], b.q[i]);
        ASSERT_EQ(a.ss[i], b.ss[i]);
    }
}

/// The loop-granular phases composed over list[lo, hi), `rep` times, then
/// store and sound speed: the EOS as the parallel_for driver runs it.
void eos_by_phases(domain& d, const index_t* list, index_t lo, index_t hi,
                   int rep) {
    const index_t n = hi - lo;
    const index_t* l = list + lo;
    k::eos_scratch s;
    s.resize(static_cast<std::size_t>(n));
    for (int r = 0; r < rep; ++r) {
        k::eos_gather_e(d, l, 0, n, s);
        k::eos_gather_delv(d, l, 0, n, s);
        k::eos_gather_p(d, l, 0, n, s);
        k::eos_gather_q(d, l, 0, n, s);
        k::eos_gather_qq_ql(d, l, 0, n, s);
        k::eos_compression(d, l, 0, n, s);
        k::eos_clamp_vmin(d, l, 0, n, s);
        k::eos_clamp_vmax(d, l, 0, n, s);
        k::eos_zero_work(0, n, s);
        k::energy_step1(d, 0, n, s);
        k::pressure_bvc(0, n, s.comp_half_step.data(), s.bvc.data(),
                        s.pbvc.data());
        k::pressure_p(d, l, 0, n, s.p_half_step.data(), s.bvc.data(),
                      s.e_new.data());
        k::energy_q_half(d, 0, n, s);
        k::energy_step2(d, 0, n, s);
        k::pressure_bvc(0, n, s.compression.data(), s.bvc.data(),
                        s.pbvc.data());
        k::pressure_p(d, l, 0, n, s.p_new.data(), s.bvc.data(),
                      s.e_new.data());
        k::energy_step3(d, l, 0, n, s);
        k::pressure_bvc(0, n, s.compression.data(), s.bvc.data(),
                        s.pbvc.data());
        k::pressure_p(d, l, 0, n, s.p_new.data(), s.bvc.data(),
                      s.e_new.data());
        k::energy_q_final(d, l, 0, n, s);
    }
    k::eos_store(d, l, 0, n, s);
    k::eos_sound_speed(d, l, 0, n, s);
}

/// Fills the EOS inputs of every element with values picked from sets that
/// sit on and around each threshold of the pipeline: the vnewc clamps, both
/// signs of delv (and -0.0), the cuts, emin, pmin and the sound-speed floor.
void fill_adversarial(domain& d, std::uint32_t seed) {
    const real_t cut = 1.0e-7;  // e_cut = p_cut = q_cut
    const real_t vmin = 1.0e-9;
    const real_t vmax = 1.0e9;
    const std::vector<real_t> vnewc = {vmin, 0.5 * vmin, 1.0000001 * vmin,
                                       0.6,  1.0,        1.7,
                                       vmax, 2.0 * vmax, 0.9999999 * vmax};
    const std::vector<real_t> delv = {-0.1, 0.1, 0.0, -0.0, -0.013, 0.013, 0.25};
    // e: zero, the e_cut edges, p_cut edges through bvc = 2/3 at vnewc = 1,
    // below emin, tiny (sound speed below its floor), ordinary.
    const std::vector<real_t> e = {0.0,          cut,         -cut,
                                   0.999 * cut,  -0.999 * cut, 1.5 * 0.999 * cut,
                                   1.5 * 1.001 * cut, -2.0e15,     -1.0e15,
                                   1.0e-40,      -1.0,         3.7,
                                   1.0e5};
    const std::vector<real_t> p = {0.0, -1.0, 1.0e-8, 2.5, 1.0e3, -1.0e-12};
    const std::vector<real_t> q = {0.0, 0.5, 1.0e-9, 7.0};
    const std::vector<real_t> qq = {0.0, 0.999 * cut, cut, 1.001 * cut, 0.3};
    const std::vector<real_t> ql = {0.0, 0.0, 1.0e-30, 0.8, 2.0};
    std::mt19937 rng(seed);
    auto pick = [&rng](const std::vector<real_t>& v) {
        return v[rng() % v.size()];
    };
    for (std::size_t i = 0; i < d.e.size(); ++i) {
        d.vnewc[i] = pick(vnewc);
        d.delv[i] = pick(delv);
        d.e[i] = pick(e);
        d.p[i] = pick(p);
        d.q[i] = pick(q);
        d.qq[i] = pick(qq);
        d.ql[i] = pick(ql);
    }
}

bool same_bits(const std::vector<real_t>& a, const std::vector<real_t>& b,
               std::size_t& where) {
    for (where = 0; where < a.size(); ++where) {
        if (std::bit_cast<std::uint64_t>(a[where]) !=
            std::bit_cast<std::uint64_t>(b[where])) {
            return false;
        }
    }
    return true;
}

TEST(Eos, FusedPassIsBitwiseEqualToPhasesOnAdversarialInputs) {
    // Every chunk length 0..17 (a multiple of eight, or not, and a scalar
    // tail of every length), at an offset lo > 0 into a permuted region
    // list, with each vnewc clamp enabled or disabled and pmin at zero or
    // below the picked pressures.
    domain base(small_opts(4, 1));
    std::vector<index_t> list(base.e.size());
    for (std::size_t i = 0; i < list.size(); ++i) {
        list[i] = static_cast<index_t>((i * 37 + 11) % list.size());
    }
    int cases = 0;
    for (const real_t eosvmin : {1.0e-9, 0.0}) {
        for (const real_t eosvmax : {1.0e9, 0.0}) {
            for (const real_t pmin : {0.0, -0.5}) {
                for (const int rep : {1, 2, 7}) {
                    for (index_t len = 0; len <= 17; ++len) {
                        const index_t lo = 3 + len % 5;
                        fill_adversarial(base,
                                         static_cast<std::uint32_t>(cases));
                        base.eosvmin = eosvmin;
                        base.eosvmax = eosvmax;
                        base.pmin = pmin;
                        domain fused = base;
                        domain phased = base;
                        k::eos_scratch s;
                        s.resize(static_cast<std::size_t>(len));
                        k::eval_eos_chunk(fused, list.data(), lo, lo + len,
                                          rep, s);
                        eos_by_phases(phased, list.data(), lo, lo + len, rep);
                        std::size_t at = 0;
                        const auto where = [&] {
                            return ::testing::Message()
                                   << "eosvmin " << eosvmin << " eosvmax "
                                   << eosvmax << " pmin " << pmin << " rep "
                                   << rep << " len " << len << " elem " << at;
                        };
                        ASSERT_TRUE(same_bits(fused.e, phased.e, at)) << where();
                        ASSERT_TRUE(same_bits(fused.p, phased.p, at)) << where();
                        ASSERT_TRUE(same_bits(fused.q, phased.q, at)) << where();
                        ASSERT_TRUE(same_bits(fused.ss, phased.ss, at))
                            << where();
                        ++cases;
                    }
                }
            }
        }
    }
    EXPECT_EQ(cases, 2 * 2 * 2 * 3 * 18);
}

TEST(Eos, AdversarialInputsReachEveryBranch) {
    // Guards the test above against inputs that never leave the common
    // path: over one full chunk, every clamp, cut and floor fires for some
    // element and not for others.
    domain d(small_opts(4, 1));
    fill_adversarial(d, 0);
    const auto n = static_cast<index_t>(d.e.size());
    std::vector<index_t> list(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) list[static_cast<std::size_t>(i)] = i;
    const domain before = d;
    k::eos_scratch s;
    s.resize(static_cast<std::size_t>(n));
    k::eval_eos_chunk(d, list.data(), 0, n, 1, s);
    int zero_e = 0, emin_e = 0, zero_p = 0, zero_q = 0, floor_ss = 0;
    int above_vmax = 0, below_vmin = 0, expanding = 0;
    for (std::size_t i = 0; i < d.e.size(); ++i) {
        zero_e += d.e[i] == 0.0;
        emin_e += d.e[i] == d.emin;
        zero_p += d.p[i] == 0.0;
        zero_q += d.q[i] == 0.0;
        floor_ss += d.ss[i] == real_t(.3333333e-18);
        above_vmax += before.vnewc[i] >= d.eosvmax;
        below_vmin += before.vnewc[i] <= d.eosvmin;
        expanding += before.delv[i] > 0.0;
    }
    for (const int count : {zero_e, emin_e, zero_p, zero_q, floor_ss,
                            above_vmax, below_vmin, expanding}) {
        EXPECT_GT(count, 0);
        EXPECT_LT(count, n);
    }
}

TEST(Eos, MaterialClampProducesVnewcInRange) {
    domain d(small_opts(3, 1));
    d.vnew[0] = 1e12;   // above eosvmax
    d.vnew[1] = 1e-12;  // below eosvmin
    d.vnew[2] = 0.9;
    EXPECT_TRUE(k::apply_material_vnewc(d, 0, d.numElem()));
    EXPECT_EQ(d.vnewc[0], d.eosvmax);
    EXPECT_EQ(d.vnewc[1], d.eosvmin);
    EXPECT_EQ(d.vnewc[2], 0.9);
}

TEST(Eos, MaterialClampFlagsNonPositiveVolume) {
    domain d(small_opts(3, 1));
    d.v[4] = -0.5;
    d.eosvmin = 0.0;  // disable the clamp so the error path triggers
    EXPECT_FALSE(k::apply_material_vnewc(d, 0, d.numElem()));
}

TEST(VolumeUpdate, SnapsNearUnityToOne) {
    domain d(small_opts(2, 1));
    d.vnew[0] = 1.0 + 1e-12;  // inside v_cut
    d.vnew[1] = 1.1;
    k::update_volumes(d, 0, d.numElem());
    EXPECT_EQ(d.v[0], 1.0);
    EXPECT_EQ(d.v[1], 1.1);
}

// ---------------- time constraints ----------------

TEST(Constraints, QuiescentElementsImposeNoConstraint) {
    domain d(small_opts(3, 1));
    const auto& list = d.regElemList(0);
    const auto c = k::calc_time_constraints(d, list.data(), 0,
                                            static_cast<index_t>(list.size()));
    EXPECT_EQ(c.dtcourant, 1.0e20);
    EXPECT_EQ(c.dthydro, 1.0e20);
}

TEST(Constraints, CourantUsesSoundSpeedAndLength) {
    domain d(small_opts(2, 1));
    d.vdov[0] = 1.0;  // deforming, positive: no qqc2 term
    d.ss[0] = 2.0;
    d.arealg[0] = 0.5;
    const index_t list[1] = {0};
    const auto c = k::calc_time_constraints(d, list, 0, 1);
    EXPECT_DOUBLE_EQ(c.dtcourant, 0.5 / 2.0);
}

TEST(Constraints, CompressionAddsViscosityTerm) {
    domain d(small_opts(2, 1));
    d.vdov[0] = -1.0;
    d.ss[0] = 2.0;
    d.arealg[0] = 0.5;
    const index_t list[1] = {0};
    const auto c = k::calc_time_constraints(d, list, 0, 1);
    const real_t qqc2 = 64.0 * d.qqc * d.qqc;
    const real_t expected = 0.5 / std::sqrt(4.0 + qqc2 * 0.25 * 1.0);
    EXPECT_DOUBLE_EQ(c.dtcourant, expected);
}

TEST(Constraints, HydroBoundsVolumeChangeRate) {
    domain d(small_opts(2, 1));
    d.vdov[0] = 0.5;
    const index_t list[1] = {0};
    const auto c = k::calc_time_constraints(d, list, 0, 1);
    EXPECT_NEAR(c.dthydro, d.dvovmax / 0.5, 1e-12);
}

TEST(Constraints, MinCombinesComponentWise) {
    k::dt_constraints a{1.0, 5.0};
    k::dt_constraints b{2.0, 3.0};
    const auto c = k::min_constraints(a, b);
    EXPECT_EQ(c.dtcourant, 1.0);
    EXPECT_EQ(c.dthydro, 3.0);
}

// ---------------- time increment ----------------

TEST(TimeIncrement, FirstCycleUsesInitialDeltatime) {
    domain d(small_opts());
    const real_t dt0 = d.deltatime;
    k::time_increment(d);
    EXPECT_EQ(d.deltatime, dt0);
    EXPECT_EQ(d.cycle, 1);
    EXPECT_DOUBLE_EQ(d.time_, dt0);
}

TEST(TimeIncrement, CourantHalvedHydroTwoThirds) {
    domain d(small_opts());
    d.cycle = 1;
    d.deltatime = 1e-8;
    d.dtcourant = 1e-6;
    d.dthydro = 1e20;
    // Unconstrained growth would be 5e-7; the ratio clamp caps at 1.2x.
    k::time_increment(d);
    EXPECT_NEAR(d.deltatime, 1.2e-8, 1e-20);

    domain e(small_opts());
    e.cycle = 1;
    e.deltatime = 4e-7;
    e.dtcourant = 1e20;
    e.dthydro = 6e-7;  // hydro * 2/3 = 4e-7: ratio 1.0, below multlb → keep
    k::time_increment(e);
    EXPECT_NEAR(e.deltatime, 4e-7, 1e-20);
}

TEST(TimeIncrement, ShrinksImmediatelyWhenConstraintDrops) {
    domain d(small_opts());
    d.cycle = 1;
    d.deltatime = 1e-6;
    d.dtcourant = 1e-7;  // newdt = 5e-8, ratio < 1: taken as-is
    d.dthydro = 1e20;
    k::time_increment(d);
    EXPECT_NEAR(d.deltatime, 5e-8, 1e-20);
}

TEST(TimeIncrement, GrowthLimitedToUpperBound) {
    domain d(small_opts());
    d.cycle = 1;
    d.deltatime = 1e-8;
    d.dtcourant = 1.0;  // would allow 0.5
    d.dthydro = 1e20;
    k::time_increment(d);
    EXPECT_NEAR(d.deltatime, 1.2e-8, 1e-22);  // olddt * deltatimemultub
}

TEST(TimeIncrement, SmallGrowthSnapsToOldDt) {
    domain d(small_opts());
    d.cycle = 1;
    d.deltatime = 1e-8;
    d.dtcourant = 2.1e-8;  // newdt = 1.05e-8, ratio 1.05 < multlb 1.1 → olddt
    d.dthydro = 1e20;
    k::time_increment(d);
    EXPECT_NEAR(d.deltatime, 1e-8, 1e-22);
}

TEST(TimeIncrement, CappedAtDtmax) {
    domain d(small_opts());
    d.cycle = 1;
    d.deltatime = 0.9e-2;
    d.deltatimemultub = 10.0;
    d.dtcourant = 1.0;
    d.dthydro = 1e20;
    d.stoptime = 1e3;  // keep targetdt out of the way
    k::time_increment(d);
    EXPECT_DOUBLE_EQ(d.deltatime, d.dtmax);
}

TEST(TimeIncrement, LastStepHitsStoptimeExactly) {
    domain d(small_opts());
    d.cycle = 1;
    d.time_ = 0.0099999;
    d.deltatime = 1e-5;
    d.dtcourant = 1e20;
    d.dthydro = 1e20;
    k::time_increment(d);
    EXPECT_DOUBLE_EQ(d.time_, d.stoptime);
}

TEST(TimeIncrement, FixedDtOverridesConstraints) {
    domain d(small_opts());
    d.dtfixed = 1e-7;
    d.cycle = 1;
    d.deltatime = 1e-8;
    d.dtcourant = 1e-20;
    k::time_increment(d);
    EXPECT_DOUBLE_EQ(d.deltatime, 1e-7);
}

TEST(TimeIncrement, TimeAdvancesMonotonicallyUntilStoptime) {
    domain d(small_opts());
    real_t last = 0.0;
    int cycles = 0;
    while (d.time_ < d.stoptime && cycles < 10000) {
        k::time_increment(d);
        EXPECT_GT(d.time_, last);
        last = d.time_;
        ++cycles;
    }
    EXPECT_DOUBLE_EQ(d.time_, d.stoptime);
    EXPECT_EQ(d.cycle, cycles);
}

}  // namespace
