// lulesh/kernels_eos.cpp — equation of state: the region-wise energy /
// pressure / viscosity update pipeline (reference EvalEOSForElems /
// CalcEnergyForElems / CalcPressureForElems / CalcSoundSpeedForElems).
//
// Region cost imbalance is modelled exactly as in the reference: the cheap
// half of the regions evaluates the pipeline once, the middle tier
// (1 + cost) times, and the most expensive ~5% of regions 10 * (1 + cost)
// times.  With the default cost = 1 this is the paper's "doubles the
// computation for 45% of the regions, and increases it even by twenty times
// for 5%".

#include <cmath>
#include <cstddef>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LULESH_EOS_SSE2 1
#include <emmintrin.h>
#endif

#include "lulesh/kernels.hpp"

namespace lulesh::kernels {

void eos_scratch::resize(std::size_t n) {
    e_old.resize(n);
    delvc.resize(n);
    p_old.resize(n);
    q_old.resize(n);
    qq_old.resize(n);
    ql_old.resize(n);
    compression.resize(n);
    comp_half_step.resize(n);
    work.resize(n);
    p_new.resize(n);
    e_new.resize(n);
    q_new.resize(n);
    bvc.resize(n);
    pbvc.resize(n);
    p_half_step.resize(n);
}

int eos_rep_for_region(const domain& d, index_t r) {
    const index_t num_reg = d.numReg();
    if (r < num_reg / 2) return 1;
    if (r < (num_reg - (num_reg + 15) / 20)) return 1 + d.cost();
    return 10 * (1 + d.cost());
}

void eos_gather_e(const domain& d, const index_t* list, index_t lo, index_t hi,
                  eos_scratch& s) {
    for (index_t i = lo; i < hi; ++i) {
        s.e_old[static_cast<std::size_t>(i)] =
            d.e[static_cast<std::size_t>(list[i])];
    }
}

void eos_gather_delv(const domain& d, const index_t* list, index_t lo,
                     index_t hi, eos_scratch& s) {
    for (index_t i = lo; i < hi; ++i) {
        s.delvc[static_cast<std::size_t>(i)] =
            d.delv[static_cast<std::size_t>(list[i])];
    }
}

void eos_gather_p(const domain& d, const index_t* list, index_t lo, index_t hi,
                  eos_scratch& s) {
    for (index_t i = lo; i < hi; ++i) {
        s.p_old[static_cast<std::size_t>(i)] =
            d.p[static_cast<std::size_t>(list[i])];
    }
}

void eos_gather_q(const domain& d, const index_t* list, index_t lo, index_t hi,
                  eos_scratch& s) {
    for (index_t i = lo; i < hi; ++i) {
        s.q_old[static_cast<std::size_t>(i)] =
            d.q[static_cast<std::size_t>(list[i])];
    }
}

void eos_gather_qq_ql(const domain& d, const index_t* list, index_t lo,
                      index_t hi, eos_scratch& s) {
    for (index_t i = lo; i < hi; ++i) {
        const auto z = static_cast<std::size_t>(list[i]);
        const auto j = static_cast<std::size_t>(i);
        s.qq_old[j] = d.qq[z];
        s.ql_old[j] = d.ql[z];
    }
}

void eos_compression(const domain& d, const index_t* list, index_t lo,
                     index_t hi, eos_scratch& s) {
    for (index_t i = lo; i < hi; ++i) {
        const auto z = static_cast<std::size_t>(list[i]);
        const auto j = static_cast<std::size_t>(i);
        const real_t vnewc = d.vnewc[z];
        s.compression[j] = real_t(1.0) / vnewc - real_t(1.0);
        const real_t vchalf = vnewc - s.delvc[j] * real_t(0.5);
        s.comp_half_step[j] = real_t(1.0) / vchalf - real_t(1.0);
    }
}

void eos_clamp_vmin(const domain& d, const index_t* list, index_t lo,
                    index_t hi, eos_scratch& s) {
    const real_t eosvmin = d.eosvmin;
    if (eosvmin == real_t(0.0)) return;
    for (index_t i = lo; i < hi; ++i) {
        const auto z = static_cast<std::size_t>(list[i]);
        const auto j = static_cast<std::size_t>(i);
        if (d.vnewc[z] <= eosvmin) {  // impossible due to prior clamp, but...
            s.comp_half_step[j] = s.compression[j];
        }
    }
}

void eos_clamp_vmax(const domain& d, const index_t* list, index_t lo,
                    index_t hi, eos_scratch& s) {
    const real_t eosvmax = d.eosvmax;
    if (eosvmax == real_t(0.0)) return;
    for (index_t i = lo; i < hi; ++i) {
        const auto z = static_cast<std::size_t>(list[i]);
        const auto j = static_cast<std::size_t>(i);
        if (d.vnewc[z] >= eosvmax) {  // impossible due to prior clamp, but...
            s.p_old[j] = real_t(0.0);
            s.compression[j] = real_t(0.0);
            s.comp_half_step[j] = real_t(0.0);
        }
    }
}

void eos_zero_work(index_t lo, index_t hi, eos_scratch& s) {
    for (index_t i = lo; i < hi; ++i) {
        s.work[static_cast<std::size_t>(i)] = real_t(0.0);
    }
}

void energy_step1(const domain& d, index_t lo, index_t hi, eos_scratch& s) {
    const real_t emin = d.emin;
    for (index_t i = lo; i < hi; ++i) {
        const auto j = static_cast<std::size_t>(i);
        s.e_new[j] = s.e_old[j] -
                     real_t(0.5) * s.delvc[j] * (s.p_old[j] + s.q_old[j]) +
                     real_t(0.5) * s.work[j];
        if (s.e_new[j] < emin) s.e_new[j] = emin;
    }
}

void pressure_bvc(index_t lo, index_t hi, const real_t* compression,
                  real_t* bvc, real_t* pbvc) {
    const real_t c1s = real_t(2.0) / real_t(3.0);
    for (index_t i = lo; i < hi; ++i) {
        bvc[i] = c1s * (compression[i] + real_t(1.0));
        pbvc[i] = c1s;
    }
}

void pressure_p(const domain& d, const index_t* list, index_t lo, index_t hi,
                real_t* p_out, const real_t* bvc, const real_t* e) {
    const real_t p_cut = d.p_cut;
    const real_t eosvmax = d.eosvmax;
    const real_t pmin = d.pmin;
    for (index_t i = lo; i < hi; ++i) {
        p_out[i] = bvc[i] * e[i];
        if (std::fabs(p_out[i]) < p_cut) p_out[i] = real_t(0.0);
        if (d.vnewc[static_cast<std::size_t>(list[i])] >= eosvmax) {
            p_out[i] = real_t(0.0);
        }
        if (p_out[i] < pmin) p_out[i] = pmin;
    }
}

void energy_q_half(const domain& d, index_t lo, index_t hi, eos_scratch& s) {
    const real_t rho0 = d.refdens;
    for (index_t i = lo; i < hi; ++i) {
        const auto j = static_cast<std::size_t>(i);
        const real_t vhalf = real_t(1.0) / (real_t(1.0) + s.comp_half_step[j]);

        if (s.delvc[j] > real_t(0.0)) {
            s.q_new[j] = real_t(0.0);
        } else {
            real_t ssc = (s.pbvc[j] * s.e_new[j] +
                          vhalf * vhalf * s.bvc[j] * s.p_half_step[j]) /
                         rho0;
            if (ssc <= real_t(.1111111e-36)) {
                ssc = real_t(.3333333e-18);
            } else {
                ssc = std::sqrt(ssc);
            }
            s.q_new[j] = ssc * s.ql_old[j] + s.qq_old[j];
        }

        s.e_new[j] = s.e_new[j] +
                     real_t(0.5) * s.delvc[j] *
                         (real_t(3.0) * (s.p_old[j] + s.q_old[j]) -
                          real_t(4.0) * (s.p_half_step[j] + s.q_new[j]));
    }
}

void energy_step2(const domain& d, index_t lo, index_t hi, eos_scratch& s) {
    const real_t e_cut = d.e_cut;
    const real_t emin = d.emin;
    for (index_t i = lo; i < hi; ++i) {
        const auto j = static_cast<std::size_t>(i);
        s.e_new[j] += real_t(0.5) * s.work[j];
        if (std::fabs(s.e_new[j]) < e_cut) s.e_new[j] = real_t(0.0);
        if (s.e_new[j] < emin) s.e_new[j] = emin;
    }
}

void energy_step3(const domain& d, const index_t* list, index_t lo, index_t hi,
                  eos_scratch& s) {
    const real_t rho0 = d.refdens;
    const real_t e_cut = d.e_cut;
    const real_t emin = d.emin;
    const real_t sixth = real_t(1.0) / real_t(6.0);
    for (index_t i = lo; i < hi; ++i) {
        const auto j = static_cast<std::size_t>(i);
        const auto z = static_cast<std::size_t>(list[i]);
        real_t q_tilde;

        if (s.delvc[j] > real_t(0.0)) {
            q_tilde = real_t(0.0);
        } else {
            real_t ssc = (s.pbvc[j] * s.e_new[j] +
                          d.vnewc[z] * d.vnewc[z] * s.bvc[j] * s.p_new[j]) /
                         rho0;
            if (ssc <= real_t(.1111111e-36)) {
                ssc = real_t(.3333333e-18);
            } else {
                ssc = std::sqrt(ssc);
            }
            q_tilde = ssc * s.ql_old[j] + s.qq_old[j];
        }

        s.e_new[j] = s.e_new[j] -
                     (real_t(7.0) * (s.p_old[j] + s.q_old[j]) -
                      real_t(8.0) * (s.p_half_step[j] + s.q_new[j]) +
                      (s.p_new[j] + q_tilde)) *
                         s.delvc[j] * sixth;

        if (std::fabs(s.e_new[j]) < e_cut) s.e_new[j] = real_t(0.0);
        if (s.e_new[j] < emin) s.e_new[j] = emin;
    }
}

void energy_q_final(const domain& d, const index_t* list, index_t lo,
                    index_t hi, eos_scratch& s) {
    const real_t rho0 = d.refdens;
    const real_t q_cut = d.q_cut;
    for (index_t i = lo; i < hi; ++i) {
        const auto j = static_cast<std::size_t>(i);
        const auto z = static_cast<std::size_t>(list[i]);
        if (s.delvc[j] <= real_t(0.0)) {
            real_t ssc = (s.pbvc[j] * s.e_new[j] +
                          d.vnewc[z] * d.vnewc[z] * s.bvc[j] * s.p_new[j]) /
                         rho0;
            if (ssc <= real_t(.1111111e-36)) {
                ssc = real_t(.3333333e-18);
            } else {
                ssc = std::sqrt(ssc);
            }
            s.q_new[j] = ssc * s.ql_old[j] + s.qq_old[j];
            if (std::fabs(s.q_new[j]) < q_cut) s.q_new[j] = real_t(0.0);
        }
    }
}

void eos_store(domain& d, const index_t* list, index_t lo, index_t hi,
               const eos_scratch& s) {
    for (index_t i = lo; i < hi; ++i) {
        const auto j = static_cast<std::size_t>(i);
        const auto z = static_cast<std::size_t>(list[i]);
        d.p[z] = s.p_new[j];
        d.e[z] = s.e_new[j];
        d.q[z] = s.q_new[j];
    }
}

void eos_sound_speed(domain& d, const index_t* list, index_t lo, index_t hi,
                     const eos_scratch& s) {
    const real_t rho0 = d.refdens;
    for (index_t i = lo; i < hi; ++i) {
        const auto j = static_cast<std::size_t>(i);
        const auto z = static_cast<std::size_t>(list[i]);
        real_t ss_tmp = (s.pbvc[j] * s.e_new[j] +
                         d.vnewc[z] * d.vnewc[z] * s.bvc[j] * s.p_new[j]) /
                        rho0;
        if (ss_tmp <= real_t(1.111111e-36)) {
            ss_tmp = real_t(.3333333e-18);
        } else {
            ss_tmp = std::sqrt(ss_tmp);
        }
        d.ss[z] = ss_tmp;
    }
}

namespace {

// ---- the fused pass: one repetition of the whole pipeline per element ----
//
// eos_rep below is the loop-granular phases above, composed per element and
// written once for two lane types: real_t (one element, the scalar tail and
// the non-x86 fallback) and pack8 (eight elements as four SSE2 registers).
// Each element's pipeline is a dependent chain of six divisions and three
// square roots, so the pass is bound by their latency; eight independent
// elements in flight hide it.  Branches become selects, and every
// element's operations keep the order of the phases, so both lane types
// give the phases' results bit for bit: SSE2 arithmetic, sqrt and the
// ordered compares are the IEEE operations the scalar code uses, and the
// library is built with -ffp-contract=off so no build fuses a multiply and
// an add into an FMA on one path and not on the other.

bool lt(real_t a, real_t b) { return a < b; }
bool le(real_t a, real_t b) { return a <= b; }
bool gt(real_t a, real_t b) { return a > b; }
bool ge(real_t a, real_t b) { return a >= b; }
real_t select(bool m, real_t a, real_t b) { return m ? a : b; }
real_t abs_of(real_t a) { return std::fabs(a); }
// f[list[k]] for the lanes k of V.
template <class V>
V gather(const std::vector<real_t>& f, const index_t* list);
template <>
real_t gather<real_t>(const std::vector<real_t>& f, const index_t* list) {
    return f[static_cast<std::size_t>(list[0])];
}
void store(real_t* dst, real_t v) { *dst = v; }

// The reference's sound-speed floor: sqrt(ssc), or a tiny constant when
// ssc is at or below `cutoff`.
real_t sqrt_above(real_t ssc, real_t cutoff) {
    return ssc <= cutoff ? real_t(.3333333e-18) : std::sqrt(ssc);
}

#if defined(LULESH_EOS_SSE2)

struct pack8 {
    __m128d r[4];
    pack8() = default;
    pack8(real_t c) {  // NOLINT: implicit splat keeps eos_rep's literals
        for (auto& x : r) x = _mm_set1_pd(c);
    }
};
using mask8 = pack8;  // all-ones / all-zeros lanes

template <class Op>
pack8 lanes(const pack8& a, const pack8& b, Op op) {
    pack8 out;
    for (int k = 0; k < 4; ++k) out.r[k] = op(a.r[k], b.r[k]);
    return out;
}

#define LULESH_EOS_LANEWISE(name, intrinsic)                      \
    pack8 name(const pack8& a, const pack8& b) {                  \
        return lanes(a, b, [](__m128d x, __m128d y) {             \
            return intrinsic(x, y);                               \
        });                                                       \
    }
LULESH_EOS_LANEWISE(operator+, _mm_add_pd)
LULESH_EOS_LANEWISE(operator-, _mm_sub_pd)
LULESH_EOS_LANEWISE(operator*, _mm_mul_pd)
LULESH_EOS_LANEWISE(operator/, _mm_div_pd)
LULESH_EOS_LANEWISE(lt, _mm_cmplt_pd)
LULESH_EOS_LANEWISE(le, _mm_cmple_pd)
LULESH_EOS_LANEWISE(gt, _mm_cmpgt_pd)
LULESH_EOS_LANEWISE(ge, _mm_cmpge_pd)
#undef LULESH_EOS_LANEWISE

pack8 select(const mask8& m, const pack8& a, const pack8& b) {
    pack8 out;
    for (int k = 0; k < 4; ++k) {
        out.r[k] = _mm_or_pd(_mm_and_pd(m.r[k], a.r[k]),
                             _mm_andnot_pd(m.r[k], b.r[k]));
    }
    return out;
}

pack8 abs_of(const pack8& a) {
    // fabs: clear the sign bit.
    return lanes(pack8(real_t(-0.0)), a,
                 [](__m128d sign, __m128d x) { return _mm_andnot_pd(sign, x); });
}

pack8 sqrt_above(const pack8& ssc, real_t cutoff) {
    pack8 root;
    for (int k = 0; k < 4; ++k) root.r[k] = _mm_sqrt_pd(ssc.r[k]);
    return select(le(ssc, cutoff), real_t(.3333333e-18), root);
}

template <>
pack8 gather<pack8>(const std::vector<real_t>& f, const index_t* list) {
    pack8 out;
    for (int k = 0; k < 4; ++k) {
        out.r[k] = _mm_set_pd(f[static_cast<std::size_t>(list[2 * k + 1])],
                              f[static_cast<std::size_t>(list[2 * k])]);
    }
    return out;
}

void store(real_t* dst, const pack8& v) {
    for (int k = 0; k < 4; ++k) _mm_storeu_pd(dst + 2 * k, v.r[k]);
}
#endif

/// pressure_p for one lane set: p = bvc * e, cut, vmax, pmin.
template <class V, class M>
V eos_pressure(const domain& d, const V& bvc, const V& e, const M& above_vmax) {
    V p = bvc * e;
    p = select(lt(abs_of(p), d.p_cut), real_t(0.0), p);
    p = select(above_vmax, real_t(0.0), p);
    return select(lt(p, d.pmin), d.pmin, p);
}

/// One repetition of the EOS pipeline for the lanes of V, element list
/// `list`, writing e_new/p_new/q_new/bvc/pbvc to scratch index j.  The
/// comment on each block names the phase it composes.
template <class V>
void eos_rep(const domain& d, const index_t* list, eos_scratch& s,
             std::size_t j) {
    const real_t emin = d.emin;
    const real_t e_cut = d.e_cut;
    const real_t rho0 = d.refdens;
    const real_t c1s = real_t(2.0) / real_t(3.0);
    const real_t sixth = real_t(1.0) / real_t(6.0);

    // eos_gather_*
    const V e_old = gather<V>(d.e, list);
    const V delvc = gather<V>(d.delv, list);
    V p_old = gather<V>(d.p, list);
    const V q_old = gather<V>(d.q, list);
    const V qq_old = gather<V>(d.qq, list);
    const V ql_old = gather<V>(d.ql, list);
    const V vnewc = gather<V>(d.vnewc, list);

    // eos_compression, eos_clamp_vmin, eos_clamp_vmax, eos_zero_work
    V compression = real_t(1.0) / vnewc - real_t(1.0);
    const V vchalf = vnewc - delvc * real_t(0.5);
    V comp_half_step = real_t(1.0) / vchalf - real_t(1.0);
    if (d.eosvmin != real_t(0.0)) {
        comp_half_step = select(le(vnewc, d.eosvmin), compression, comp_half_step);
    }
    // pressure_p tests vnewc >= eosvmax whether or not the clamp is enabled.
    const auto above_vmax = ge(vnewc, d.eosvmax);
    if (d.eosvmax != real_t(0.0)) {
        p_old = select(above_vmax, real_t(0.0), p_old);
        compression = select(above_vmax, real_t(0.0), compression);
        comp_half_step = select(above_vmax, real_t(0.0), comp_half_step);
    }
    // work is zero, yet the phases add 0.5 * work, which turns -0.0 into
    // +0.0; the pass keeps the addition so the bits stay the same.
    const V work = real_t(0.0);

    // energy_step1
    V e_new = e_old - real_t(0.5) * delvc * (p_old + q_old) + real_t(0.5) * work;
    e_new = select(lt(e_new, emin), emin, e_new);

    // pressure_bvc + pressure_p on the half-step compression
    V bvc = c1s * (comp_half_step + real_t(1.0));
    const V pbvc = c1s;
    const V p_half_step = eos_pressure(d, bvc, e_new, above_vmax);

    // energy_q_half
    const auto expanding = gt(delvc, real_t(0.0));
    const V vhalf = real_t(1.0) / (real_t(1.0) + comp_half_step);
    V ssc = (pbvc * e_new + vhalf * vhalf * bvc * p_half_step) / rho0;
    ssc = sqrt_above(ssc, real_t(.1111111e-36));
    V q_new = select(expanding, real_t(0.0), ssc * ql_old + qq_old);
    e_new = e_new + real_t(0.5) * delvc *
                        (real_t(3.0) * (p_old + q_old) -
                         real_t(4.0) * (p_half_step + q_new));

    // energy_step2
    e_new = e_new + real_t(0.5) * work;
    e_new = select(lt(abs_of(e_new), e_cut), real_t(0.0), e_new);
    e_new = select(lt(e_new, emin), emin, e_new);

    // pressure_bvc + pressure_p on the full-step compression
    bvc = c1s * (compression + real_t(1.0));
    V p_new = eos_pressure(d, bvc, e_new, above_vmax);

    // energy_step3
    ssc = (pbvc * e_new + vnewc * vnewc * bvc * p_new) / rho0;
    ssc = sqrt_above(ssc, real_t(.1111111e-36));
    const V q_tilde = select(expanding, real_t(0.0), ssc * ql_old + qq_old);
    e_new = e_new - (real_t(7.0) * (p_old + q_old) -
                     real_t(8.0) * (p_half_step + q_new) + (p_new + q_tilde)) *
                        delvc * sixth;
    e_new = select(lt(abs_of(e_new), e_cut), real_t(0.0), e_new);
    e_new = select(lt(e_new, emin), emin, e_new);

    // pressure_bvc (same compression, same bvc) + pressure_p
    p_new = eos_pressure(d, bvc, e_new, above_vmax);

    // energy_q_final
    ssc = (pbvc * e_new + vnewc * vnewc * bvc * p_new) / rho0;
    ssc = sqrt_above(ssc, real_t(.1111111e-36));
    V q_final = ssc * ql_old + qq_old;
    q_final = select(lt(abs_of(q_final), d.q_cut), real_t(0.0), q_final);
    q_new = select(le(delvc, real_t(0.0)), q_final, q_new);

    store(&s.e_new[j], e_new);
    store(&s.p_new[j], p_new);
    store(&s.q_new[j], q_new);
    store(&s.bvc[j], bvc);
    store(&s.pbvc[j], pbvc);
}

}  // namespace

void eval_eos_chunk(domain& d, const index_t* list, index_t lo, index_t hi,
                    int rep, eos_scratch& s) {
    // The task body works on scratch indices [0, hi-lo); shift the list
    // pointer so the pass sees local indices starting at zero.
    const index_t count = hi - lo;
    const index_t* chunk_list = list + lo;
    for (int r = 0; r < rep; ++r) {
        // Every repetition gathers its inputs from the domain again and
        // recomputes the whole pipeline, as the reference does.
        index_t i = 0;
#if defined(LULESH_EOS_SSE2)
        for (; i + 8 <= count; i += 8) {
            eos_rep<pack8>(d, chunk_list + i, s, static_cast<std::size_t>(i));
        }
#endif
        for (; i < count; ++i) {
            eos_rep<real_t>(d, chunk_list + i, s, static_cast<std::size_t>(i));
        }
    }
    eos_store(d, chunk_list, 0, count, s);
    eos_sound_speed(d, chunk_list, 0, count, s);
}

}  // namespace lulesh::kernels
