// lulesh/lanes.hpp — one element per SIMD lane.
//
// The kernels that evaluate several elements at once (the fused EOS pass,
// the stress and hourglass force chunks, kinematics) are written once, as
// templates over a lane type V:
//  * real_t: one element.  The scalar tail of a chunk, the loop-granular
//    kernels, and the only instance on non-x86 targets;
//  * pack<R>: 2R elements as R SSE2 registers, element j in lane j % 2 of
//    register j / 2.  The EOS pass uses R = 4 (eight elements hide its
//    division and square-root latency), the geometry kernels R = 1 (with
//    R = 2 all three measured slower than with R = 1).
//
// Every pack operation is the lane-wise IEEE operation the scalar code
// performs: add, subtract, multiply, divide, square root, negation (a sign
// flip) and the ordered compares; cube root is a scalar std::cbrt per lane.
// Branches become `select`.  So an element's result does not depend on the
// lane type it ran in, provided each expression keeps its order and no
// multiply-add is contracted into an FMA (the lulesh library is built with
// -ffp-contract=off).

#pragma once

#include <cmath>
#include <cstddef>
#include <type_traits>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define LULESH_LANES_SSE2 1
#include <emmintrin.h>
#endif

#include "lulesh/types.hpp"

namespace lulesh::lanes {

// ---- one element ----

inline bool lt(real_t a, real_t b) { return a < b; }
inline bool le(real_t a, real_t b) { return a <= b; }
inline bool gt(real_t a, real_t b) { return a > b; }
inline bool ge(real_t a, real_t b) { return a >= b; }
inline real_t select(bool m, real_t a, real_t b) { return m ? a : b; }
inline bool any(bool m) { return m; }
inline real_t abs_of(real_t a) { return std::fabs(a); }
inline real_t sqrt_of(real_t a) { return std::sqrt(a); }
inline real_t cbrt_of(real_t a) { return std::cbrt(a); }
inline void store(real_t* dst, real_t v) { *dst = v; }
/// The eight corner values of an element, to dst[0..7].
inline void store_corners(real_t* dst, const real_t (&v)[8]) {
    for (int c = 0; c < 8; ++c) dst[c] = v[c];
}

#if defined(LULESH_LANES_SSE2)

template <int R>
struct pack {
    static constexpr int width = 2 * R;
    __m128d r[R];

    pack() = default;
    pack(real_t c) {  // NOLINT: implicit splat keeps the kernels' literals
        for (auto& x : r) x = _mm_set1_pd(c);
    }

    /// Lane j reads src[j].
    static pack load(const real_t* src) {
        pack out;
        for (int k = 0; k < R; ++k) out.r[k] = _mm_loadu_pd(src + 2 * k);
        return out;
    }
    /// Lane j reads f[list[j * stride]].
    static pack gather(const std::vector<real_t>& f, const index_t* list,
                       std::size_t stride) {
        const auto at = [&](std::size_t j) {
            return f[static_cast<std::size_t>(list[j * stride])];
        };
        pack out;
        for (int k = 0; k < R; ++k) {
            const auto j = static_cast<std::size_t>(2 * k);
            out.r[k] = _mm_set_pd(at(j + 1), at(j));
        }
        return out;
    }

    template <class Op>
    static pack map(const pack& a, const pack& b, Op op) {
        pack out;
        for (int k = 0; k < R; ++k) out.r[k] = op(a.r[k], b.r[k]);
        return out;
    }

#define LULESH_LANEWISE(name, intrinsic)                      \
    friend pack name(const pack& a, const pack& b) {          \
        return map(a, b, [](__m128d x, __m128d y) {           \
            return intrinsic(x, y);                           \
        });                                                   \
    }
    LULESH_LANEWISE(operator+, _mm_add_pd)
    LULESH_LANEWISE(operator-, _mm_sub_pd)
    LULESH_LANEWISE(operator*, _mm_mul_pd)
    LULESH_LANEWISE(operator/, _mm_div_pd)
    LULESH_LANEWISE(lt, _mm_cmplt_pd)  // masks: all-ones / all-zeros lanes
    LULESH_LANEWISE(le, _mm_cmple_pd)
    LULESH_LANEWISE(gt, _mm_cmpgt_pd)
    LULESH_LANEWISE(ge, _mm_cmpge_pd)
#undef LULESH_LANEWISE

    friend pack& operator+=(pack& a, const pack& b) { return a = a + b; }
    friend pack& operator-=(pack& a, const pack& b) { return a = a - b; }
    friend pack& operator*=(pack& a, const pack& b) { return a = a * b; }
    friend pack operator-(const pack& a) {
        return map(pack(real_t(-0.0)), a,
                   [](__m128d sign, __m128d x) { return _mm_xor_pd(sign, x); });
    }
    friend pack abs_of(const pack& a) {
        return map(pack(real_t(-0.0)), a, [](__m128d sign, __m128d x) {
            return _mm_andnot_pd(sign, x);
        });
    }
    friend pack sqrt_of(const pack& a) {
        pack out;
        for (int k = 0; k < R; ++k) out.r[k] = _mm_sqrt_pd(a.r[k]);
        return out;
    }
    friend pack cbrt_of(const pack& a) {
        real_t v[width];
        store(v, a);
        for (auto& x : v) x = std::cbrt(x);
        return load(v);
    }
    friend pack select(const pack& m, const pack& a, const pack& b) {
        pack out;
        for (int k = 0; k < R; ++k) {
            out.r[k] = _mm_or_pd(_mm_and_pd(m.r[k], a.r[k]),
                                 _mm_andnot_pd(m.r[k], b.r[k]));
        }
        return out;
    }
    /// True if any lane of the mask is set.
    friend bool any(const pack& m) {
        int bits = 0;
        for (int k = 0; k < R; ++k) bits |= _mm_movemask_pd(m.r[k]);
        return bits != 0;
    }
    friend void store(real_t* dst, const pack& v) {
        for (int k = 0; k < R; ++k) _mm_storeu_pd(dst + 2 * k, v.r[k]);
    }
    /// Lane j's eight corner values to dst[8j .. 8j+7]: a 2x2 transpose per
    /// register and corner pair.
    friend void store_corners(real_t* dst, const pack (&v)[8]) {
        for (int k = 0; k < R; ++k) {
            for (int c = 0; c < 8; c += 2) {
                _mm_storeu_pd(dst + 16 * k + c,
                              _mm_unpacklo_pd(v[c].r[k], v[c + 1].r[k]));
                _mm_storeu_pd(dst + 16 * k + 8 + c,
                              _mm_unpackhi_pd(v[c].r[k], v[c + 1].r[k]));
            }
        }
    }
};

/// R registers per value: pack<R> where SSE2 exists, one element elsewhere.
template <int R>
using packed = pack<R>;

#else

template <int R>
using packed = real_t;

#endif

/// Elements per value of V.
template <class V>
inline constexpr int width_of = 1;
#if defined(LULESH_LANES_SSE2)
template <int R>
inline constexpr int width_of<pack<R>> = pack<R>::width;
#endif

/// V's lanes read src[0 .. width).
template <class V>
V load(const real_t* src) {
    if constexpr (std::is_same_v<V, real_t>) {
        return *src;
    } else {
        return V::load(src);
    }
}

/// Lane j of V reads f[list[j * stride]].
template <class V>
V gather(const std::vector<real_t>& f, const index_t* list,
         std::size_t stride = 1) {
    if constexpr (std::is_same_v<V, real_t>) {
        return f[static_cast<std::size_t>(list[0])];
    } else {
        return V::gather(f, list, stride);
    }
}

/// Calls body(V{}, i) for i = lo, lo + width, ... while a whole V fits in
/// [lo, hi), then body(real_t{}, i) for each remaining element.  The first
/// argument only carries the lane type.
template <class V, class Body>
void for_each(index_t lo, index_t hi, Body&& body) {
    index_t i = lo;
    for (; i + width_of<V> <= hi; i += width_of<V>) body(V{}, i);
    for (; i < hi; ++i) body(real_t{}, i);
}

}  // namespace lulesh::lanes
