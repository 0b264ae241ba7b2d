// lulesh/kernels.hpp
//
// The LULESH computational kernels as free functions over explicit index
// ranges, so that every driver (serial, parallel-for, task-graph) invokes
// the same arithmetic on the chunk decomposition of its choice — results are
// bitwise identical across drivers by construction (nodal gathers use fixed
// per-node summation order).
//
// Two granularities are provided where the paper distinguishes them:
//  * loop-granular kernels mirror the reference's individual parallel loops
//    (used by the serial and parallel-for drivers, which keep the
//    barrier-after-every-loop structure of the OpenMP reference);
//  * fused chunk kernels combine consecutive loops into one body with
//    task-local temporaries (paper tricks T3+T5; used by the task driver).
//
// Kernels that can detect an error condition (non-positive volumes, q
// exceeding qstop) return `true` on success instead of aborting like the
// reference; drivers aggregate the flags at their synchronization points.

#pragma once

#include <vector>

#include "lulesh/domain.hpp"
#include "lulesh/types.hpp"

namespace lulesh::kernels {

// ===================== LagrangeNodal: element-wise force =====================

/// sig = -p - q for elements [lo, hi); outputs indexed by global element id.
void init_stress_terms(const domain& d, index_t lo, index_t hi, real_t* sigxx,
                       real_t* sigyy, real_t* sigzz);

/// Integrates the stress over elements [lo, hi), writing the eight corner
/// forces of each element into d.fx_elem/fy_elem/fz_elem.  Returns false if
/// any element Jacobian determinant is non-positive.
bool integrate_stress(domain& d, index_t lo, index_t hi, const real_t* sigxx,
                      const real_t* sigyy, const real_t* sigzz);

/// Hourglass control for elements [lo, hi): volume derivatives, corner
/// coordinates, and determ = volo * v.  Outputs indexed globally
/// (elem*8+corner for the first six, elem for determ).  Returns false on a
/// non-positive element volume.
bool calc_hourglass_control(domain& d, index_t lo, index_t hi, real_t* dvdx,
                            real_t* dvdy, real_t* dvdz, real_t* x8n,
                            real_t* y8n, real_t* z8n, real_t* determ);

/// Flanagan-Belytschko hourglass force for elements [lo, hi); reads the
/// arrays produced by calc_hourglass_control (globally indexed) and writes
/// corner forces into d.fx_elem_hg/fy_elem_hg/fz_elem_hg.
void calc_fb_hourglass_force(domain& d, index_t lo, index_t hi,
                             const real_t* dvdx, const real_t* dvdy,
                             const real_t* dvdz, const real_t* x8n,
                             const real_t* y8n, const real_t* z8n,
                             const real_t* determ, real_t hgcoef);

/// Fused task bodies (paper T3+T5): same arithmetic as the loop-granular
/// kernels above but with chunk-local temporaries, two elements at a time,
/// one per lane of an SSE2 register (lanes::pack<1>), with an odd tail and
/// non-x86 targets running the same template one element at a time.  Per
/// element they perform the loop-granular kernels' operations in their
/// order, so the results are bitwise those of the one-element kernels,
/// which stay scalar: the serial, parallel-for, foreach and OpenMP drivers
/// run them, so that driver equivalence checks the packed path against an
/// independent one.  Both return false if any element's Jacobian
/// determinant (stress) or relative volume v (hourglass) is non-positive.
bool force_stress_chunk(domain& d, index_t lo, index_t hi);
bool force_hourglass_chunk(domain& d, index_t lo, index_t hi);

// ===================== LagrangeNodal: node-wise =====================

/// fx = (sum of stress corner forces) + (sum of hourglass corner forces)
/// for nodes [lo, hi), in ascending corner order (deterministic).
void gather_forces(domain& d, index_t lo, index_t hi);

/// xdd = fx / nodalMass for nodes [lo, hi).
void calc_acceleration(domain& d, index_t lo, index_t hi);

/// Zeroes the symmetry-plane acceleration components for nodes [lo, hi)
/// using the per-node mask (task-driver formulation; same effect as the
/// reference's three loops over the symmetry node lists).
void apply_acceleration_bc_masked(domain& d, index_t lo, index_t hi);

/// Reference-style BC loops over slices of the symmetry node lists.
void apply_acceleration_bc_x(domain& d, index_t lo, index_t hi);
void apply_acceleration_bc_y(domain& d, index_t lo, index_t hi);
void apply_acceleration_bc_z(domain& d, index_t lo, index_t hi);

/// xd += xdd * dt with the u_cut snap-to-zero, nodes [lo, hi).
void calc_velocity(domain& d, index_t lo, index_t hi, real_t dt);

/// x += xd * dt, nodes [lo, hi).
void calc_position(domain& d, index_t lo, index_t hi, real_t dt);

/// Fused velocity+position task body (paper Figure 7's example fusion).
void velocity_position_chunk(domain& d, index_t lo, index_t hi, real_t dt);

// ===================== LagrangeElements =====================

/// Kinematics for elements [lo, hi): new relative volume (vnew), delv,
/// characteristic length, and principal strain rates dxx/dyy/dzz evaluated
/// at the half step.  Two elements at a time in SSE2 lanes like the force
/// chunks, with the same one-element template for the odd tail; every
/// driver runs it, and each element's results are bitwise those of the
/// one-element instance.
void calc_kinematics(domain& d, index_t lo, index_t hi, real_t dt);

/// vdov and deviatoric strain rates for elements [lo, hi); returns false if
/// any vnew is non-positive (the reference's VolumeError abort).
bool calc_lagrange_deviatoric(domain& d, index_t lo, index_t hi);

/// Monotonic Q velocity/position gradients for elements [lo, hi).
void calc_monotonic_q_gradients(domain& d, index_t lo, index_t hi);

/// Monotonic Q (ql, qq) for the slice [lo, hi) of a region's element list.
void calc_monotonic_q_region(domain& d, const index_t* reg_elem_list,
                             index_t lo, index_t hi);

/// Checks q <= qstop over elements [lo, hi); returns false on violation.
bool check_qstop(const domain& d, index_t lo, index_t hi);

/// vnewc = vnew clamped to [eosvmin, eosvmax] for elements [lo, hi), plus
/// the reference's relative-volume sanity check on v (returns false on
/// error).
bool apply_material_vnewc(domain& d, index_t lo, index_t hi);

/// v = vnew (with v_cut snap to 1.0) for elements [lo, hi).
void update_volumes(domain& d, index_t lo, index_t hi);

// ===================== EOS =====================

/// Task-local work arrays of the fused EOS pass (eval_eos_chunk): the five
/// arrays every repetition writes and store and sound speed read after the
/// last one.  The serial driver reuses one across regions; the task drivers
/// allocate one per EOS task, chunk-sized — the paper's task-local
/// temporaries trick.
struct eos_chunk_scratch {
    std::vector<real_t> p_new, e_new, q_new, bvc, pbvc;

    void resize(std::size_t n);
};

/// Region-local work arrays of the loop-granular EOS phases: the fused
/// pass's five plus the ten the phases pass between each other.  The
/// parallel-for, foreach and OpenMP drivers allocate one per region (the
/// reference allocates globally per call).
struct eos_scratch : eos_chunk_scratch {
    std::vector<real_t> e_old, delvc, p_old, q_old, qq_old, ql_old;
    std::vector<real_t> compression, comp_half_step, work, p_half_step;

    void resize(std::size_t n);
};

// Loop-granular EOS phases over local indices [lo, hi) of a region element
// list, mirroring the reference's individual parallel loops.
void eos_gather_e(const domain& d, const index_t* list, index_t lo, index_t hi,
                  eos_scratch& s);
void eos_gather_delv(const domain& d, const index_t* list, index_t lo,
                     index_t hi, eos_scratch& s);
void eos_gather_p(const domain& d, const index_t* list, index_t lo, index_t hi,
                  eos_scratch& s);
void eos_gather_q(const domain& d, const index_t* list, index_t lo, index_t hi,
                  eos_scratch& s);
void eos_gather_qq_ql(const domain& d, const index_t* list, index_t lo,
                      index_t hi, eos_scratch& s);
void eos_compression(const domain& d, const index_t* list, index_t lo,
                     index_t hi, eos_scratch& s);
void eos_clamp_vmin(const domain& d, const index_t* list, index_t lo,
                    index_t hi, eos_scratch& s);
void eos_clamp_vmax(const domain& d, const index_t* list, index_t lo,
                    index_t hi, eos_scratch& s);
void eos_zero_work(index_t lo, index_t hi, eos_scratch& s);

void energy_step1(const domain& d, index_t lo, index_t hi, eos_scratch& s);
void pressure_bvc(index_t lo, index_t hi, const real_t* compression,
                  real_t* bvc, real_t* pbvc);
void pressure_p(const domain& d, const index_t* list, index_t lo, index_t hi,
                real_t* p_out, const real_t* bvc, const real_t* e);
void energy_q_half(const domain& d, index_t lo, index_t hi, eos_scratch& s);
void energy_step2(const domain& d, index_t lo, index_t hi, eos_scratch& s);
void energy_step3(const domain& d, const index_t* list, index_t lo, index_t hi,
                  eos_scratch& s);
void energy_q_final(const domain& d, const index_t* list, index_t lo,
                    index_t hi, eos_scratch& s);
void eos_store(domain& d, const index_t* list, index_t lo, index_t hi,
               const eos_chunk_scratch& s);
void eos_sound_speed(domain& d, const index_t* list, index_t lo, index_t hi,
                     const eos_chunk_scratch& s);

/// Fused task body: the complete EOS pipeline on the slice [lo, hi) of a
/// region's element list, with task-local scratch (paper tricks T3+T5).
/// Each of the `rep` repetitions is one pass over the slice that gathers
/// its inputs from the domain again and recomputes every phase; store and
/// sound speed follow the last repetition.  The pass keeps eight elements
/// in flight (lanes::pack<4>, four SSE2 registers per value; a scalar tail
/// and non-x86 targets run the same expressions one element at a time),
/// because one element's chain of six divisions and three square roots is
/// latency-bound.  Per element it performs the loop-granular phases'
/// operations in their order, so its results are bitwise those of the
/// phases.  `s` must be resized to at least hi-lo by the caller (tasks
/// reuse a scratch sized to the partition).
void eval_eos_chunk(domain& d, const index_t* list, index_t lo, index_t hi,
                    int rep, eos_chunk_scratch& s);

/// Returns the reference's EOS repetition count for region r: 1x for the
/// cheap half, (1+cost)x for the mid tier, 10*(1+cost)x for the top ~5%.
int eos_rep_for_region(const domain& d, index_t r);

// ===================== time constraints =====================

struct dt_constraints {
    real_t dtcourant = real_t(1.0e20);
    real_t dthydro = real_t(1.0e20);
};

/// Courant and hydro dt constraints over the slice [lo, hi) of a region's
/// element list (min-reduction partials; caller combines with min).
dt_constraints calc_time_constraints(const domain& d,
                                     const index_t* reg_elem_list, index_t lo,
                                     index_t hi);

/// Combines two constraint partials.
dt_constraints min_constraints(const dt_constraints& a,
                               const dt_constraints& b);

/// Computes the next time increment from the accumulated constraints and
/// advances time/cycle (the reference's TimeIncrement).
void time_increment(domain& d);

}  // namespace lulesh::kernels
