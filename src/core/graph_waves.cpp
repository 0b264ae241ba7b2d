// core/graph_waves.cpp — the task-wave builders shared by the single-domain
// and multi-domain task-graph drivers.

#include "core/graph_waves.hpp"

#include <optional>
#include <utility>

namespace lulesh::graph {

namespace wave_body {

namespace k = kernels;

void force_stress(domain& d, index_t lo, index_t hi,
                  amt::atomic<bool>& vol_ok) {
    if (!k::force_stress_chunk(d, lo, hi)) {
        vol_ok.store(false, amt::memory_order_relaxed);
    }
}

void force_hourglass(domain& d, index_t lo, index_t hi,
                     amt::atomic<bool>& vol_ok) {
    if (!k::force_hourglass_chunk(d, lo, hi)) {
        vol_ok.store(false, amt::memory_order_relaxed);
    }
}

void node_gather(domain& d, index_t lo, index_t hi) {
    k::gather_forces(d, lo, hi);
    k::calc_acceleration(d, lo, hi);
    k::apply_acceleration_bc_masked(d, lo, hi);
}

void node_velpos(domain& d, index_t lo, index_t hi, real_t dt) {
    k::velocity_position_chunk(d, lo, hi, dt);
}

void elem_fused(domain& d, index_t lo, index_t hi, real_t dt,
                amt::atomic<bool>& vol_ok, amt::atomic<bool>& q_ok) {
    k::calc_kinematics(d, lo, hi, dt);
    if (!k::calc_lagrange_deviatoric(d, lo, hi)) {
        vol_ok.store(false, amt::memory_order_relaxed);
    }
    k::calc_monotonic_q_gradients(d, lo, hi);
    // q of the previous EOS pass; checked before this iteration's EOS
    // overwrites it (next wave).
    if (!k::check_qstop(d, lo, hi)) {
        q_ok.store(false, amt::memory_order_relaxed);
    }
    if (!k::apply_material_vnewc(d, lo, hi)) {
        vol_ok.store(false, amt::memory_order_relaxed);
    }
}

void region_monoq(domain& d, const index_t* list, index_t lo, index_t hi) {
    k::calc_monotonic_q_region(d, list, lo, hi);
}

void region_eos(domain& d, const index_t* list, index_t lo, index_t hi,
                int rep, kernels::eos_chunk_scratch& scratch) {
    scratch.resize(static_cast<std::size_t>(hi - lo));
    k::eval_eos_chunk(d, list, lo, hi, rep, scratch);
}

void volume_update(domain& d, index_t lo, index_t hi) {
    k::update_volumes(d, lo, hi);
}

void constraints(domain& d, const index_t* list, index_t lo, index_t hi,
                 kernels::dt_constraints& out) {
    out = k::calc_time_constraints(d, list, lo, hi);
}

}  // namespace wave_body

namespace {
namespace k = kernels;

index_t num_chunks(index_t n, index_t p) { return wave_chunks(n, p); }

/// The sentinel to use for tasks spawned on `d`, or null when
/// instrumentation is off.  The domain check keeps a sentinel bound to one
/// domain from mis-expanding another's connectivity (the dist driver runs
/// several domains over distinct flags, but belt and braces).
iteration_sentinel* sentinel_for(const error_flags& flags, const domain& d) {
    iteration_sentinel* s = flags.sentinel.get();
    return s != nullptr && s->dom == &d ? s : nullptr;
}

/// Wraps a task body with the iteration's resilience plumbing: a fault
/// probe at the wave's site, cooperative cancellation (once any sibling
/// has failed, remaining tasks return immediately — their output is about
/// to be rolled back anyway), progress counters and per-worker in-flight
/// labels for the watchdog, stop-request propagation when the body throws,
/// a task-span annotation naming the wave site and partition for the
/// tracer, and — when the iteration sentinel is on — a hazard-tracker
/// scope over the task's declared access set plus a NaN scan of its
/// written ranges.
template <class Body>
auto guarded(const error_flags& flags, const char* site, std::int32_t part,
             const iteration_sentinel::task_ctx* ctx, Body body) {
    return [progress = flags.progress, token = flags.stop.get_token(),
            stop = flags.stop, sent = flags.sentinel, nan_ok = flags.nan_ok,
            ctx, site, part, body = std::move(body)]() mutable {
        amt::trace::annotate_task(site, part);
        if (token.stop_requested()) return;
        const auto& wk = amt::current_worker();
        const std::size_t slot =
            wk.rt != nullptr
                ? std::min<std::size_t>(wk.index + 1,
                                        progress_state::max_tracked_workers)
                : 0;
        progress->site.store(site, amt::memory_order_relaxed);
        progress->worker_site[slot].store(site, amt::memory_order_relaxed);
        progress->started.fetch_add(1, amt::memory_order_relaxed);
        try {
            amt::fault::probe(site);
            {
                std::optional<amt::hazard::task_scope> scope;
                if (sent && sent->track_hazards && ctx != nullptr) {
                    scope.emplace(static_cast<const void*>(sent->dom), site,
                                  ctx->partition, &ctx->decl);
                }
                body();
            }
            if (sent && sent->scan_nan && ctx != nullptr) {
                const field bad =
                    scan_written_for_nonfinite(ctx->accs, *sent->dom);
                if (bad != field::count) {
                    nan_ok->store(false, amt::memory_order_relaxed);
                    sent->nan_wave_site.store(site,
                                              amt::memory_order_relaxed);
                    sent->nan_field_name.store(field_name(bad),
                                               amt::memory_order_relaxed);
                }
            }
        } catch (...) {
            stop.request_stop();
            progress->worker_site[slot].store(nullptr,
                                              amt::memory_order_relaxed);
            progress->finished.fetch_add(1, amt::memory_order_relaxed);
            throw;
        }
        progress->worker_site[slot].store(nullptr, amt::memory_order_relaxed);
        progress->finished.fetch_add(1, amt::memory_order_relaxed);
    };
}

/// guarded() adapted to a .then() continuation: the antecedent's exception
/// (if any) is re-propagated without counting a task start, so a failed
/// chain shows up once in the progress counters, not once per link.
template <class Body>
auto guarded_cont(const error_flags& flags, const char* site,
                  std::int32_t part,
                  const iteration_sentinel::task_ctx* ctx, Body body) {
    return [g = guarded(flags, site, part, ctx, std::move(body))](
               amt::future<void>&& f) mutable {
        f.get();
        g();
    };
}

std::int32_t part32(index_t part) { return static_cast<std::int32_t>(part); }

}  // namespace

wave spawn_force_wave_range(amt::runtime& rt, domain& d, index_t elem_lo,
                            index_t elem_hi, index_t p_nodal,
                            const error_flags& flags) {
    wave w;
    w.futures.reserve(static_cast<std::size_t>(
        2 * num_chunks(elem_hi - elem_lo, p_nodal)));
    domain* dp = &d;
    auto vol_ok = flags.volume_ok;
    iteration_sentinel* sent = sentinel_for(flags, d);
    for (index_t lo = elem_lo; lo < elem_hi; lo += p_nodal) {
        const index_t hi = std::min<index_t>(lo + p_nodal, elem_hi);
        const index_t part = lo / p_nodal;
        const auto* stress_ctx =
            sent ? sent->add(force_stress_accesses(lo, hi), part) : nullptr;
        const auto* hg_ctx =
            sent ? sent->add(force_hourglass_accesses(lo, hi), part)
                 : nullptr;
        w.futures.push_back(amt::async(
            rt,
            guarded(flags, wave_site::force, part32(part), stress_ctx,
                    [dp, lo, hi, vol_ok] {
                wave_body::force_stress(*dp, lo, hi, *vol_ok);
            })));
        w.futures.push_back(amt::async(
            rt, guarded(flags, wave_site::force, part32(part), hg_ctx,
                        [dp, lo, hi, vol_ok] {
                wave_body::force_hourglass(*dp, lo, hi, *vol_ok);
            })));
    }
    w.tasks = w.futures.size();
    return w;
}

wave spawn_force_wave(amt::runtime& rt, domain& d, index_t p_nodal,
                      const error_flags& flags) {
    return spawn_force_wave_range(rt, d, 0, d.numElem(), p_nodal, flags);
}

wave spawn_node_wave(amt::runtime& rt, domain& d, index_t p_nodal, real_t dt,
                     const error_flags& flags) {
    wave w;
    const index_t nn = d.numNode();
    w.futures.reserve(static_cast<std::size_t>(num_chunks(nn, p_nodal)));
    domain* dp = &d;
    iteration_sentinel* sent = sentinel_for(flags, d);
    for (index_t lo = 0; lo < nn; lo += p_nodal) {
        const index_t hi = std::min<index_t>(lo + p_nodal, nn);
        const index_t part = lo / p_nodal;
        const auto* gather_ctx =
            sent ? sent->add(node_gather_accesses(lo, hi), part) : nullptr;
        const auto* velpos_ctx =
            sent ? sent->add(node_velpos_accesses(lo, hi), part) : nullptr;
        w.futures.push_back(
            amt::async(rt, guarded(flags, wave_site::node, part32(part),
                                   gather_ctx,
                                   [dp, lo, hi] {
                                       wave_body::node_gather(*dp, lo, hi);
                                   }))
                .then(guarded_cont(flags, wave_site::node, part32(part),
                                   velpos_ctx,
                                   [dp, lo, hi, dt] {
                                       wave_body::node_velpos(*dp, lo, hi,
                                                              dt);
                                   })));
    }
    w.tasks = 2 * w.futures.size();
    return w;
}

wave spawn_elem_wave_range(amt::runtime& rt, domain& d, index_t elem_lo,
                           index_t elem_hi, index_t p_elems, real_t dt,
                           const error_flags& flags) {
    wave w;
    w.futures.reserve(
        static_cast<std::size_t>(num_chunks(elem_hi - elem_lo, p_elems)));
    domain* dp = &d;
    auto vol_ok = flags.volume_ok;
    auto q_ok = flags.qstop_ok;
    iteration_sentinel* sent = sentinel_for(flags, d);
    for (index_t lo = elem_lo; lo < elem_hi; lo += p_elems) {
        const index_t hi = std::min<index_t>(lo + p_elems, elem_hi);
        const auto* ctx =
            sent ? sent->add(elem_wave_accesses(lo, hi), lo / p_elems)
                 : nullptr;
        w.futures.push_back(amt::async(
            rt,
            guarded(flags, wave_site::elem, part32(lo / p_elems), ctx,
                    [dp, lo, hi, dt, vol_ok, q_ok] {
                wave_body::elem_fused(*dp, lo, hi, dt, *vol_ok, *q_ok);
            })));
    }
    w.tasks = w.futures.size();
    return w;
}

wave spawn_elem_wave(amt::runtime& rt, domain& d, index_t p_elems, real_t dt,
                     const error_flags& flags) {
    return spawn_elem_wave_range(rt, d, 0, d.numElem(), p_elems, dt, flags);
}

wave spawn_region_wave(amt::runtime& rt, domain& d, index_t p_elems,
                       const error_flags& flags) {
    wave w;
    const index_t ne = d.numElem();
    domain* dp = &d;
    iteration_sentinel* sent = sentinel_for(flags, d);
    index_t part = 0;
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        const auto count = static_cast<index_t>(list.size());
        const int rep = k::eos_rep_for_region(d, r);
        const index_t* lp = list.data();
        for (index_t lo = 0; lo < count; lo += p_elems, ++part) {
            const index_t hi = std::min<index_t>(lo + p_elems, count);
            const auto* monoq_ctx =
                sent ? sent->add(region_monoq_accesses(lp, lo, hi), part)
                     : nullptr;
            const auto* eos_ctx =
                sent ? sent->add(region_eos_accesses(lp, lo, hi), part)
                     : nullptr;
            w.futures.push_back(
                amt::async(rt, guarded(flags, wave_site::region_eos,
                                       part32(part), monoq_ctx,
                                       [dp, lp, lo, hi] {
                                           wave_body::region_monoq(*dp, lp,
                                                                   lo, hi);
                                       }))
                    .then(guarded_cont(
                        flags, wave_site::region_eos, part32(part), eos_ctx,
                        [dp, lp, lo, hi, rep] {
                            // Task-local EOS scratch, sized to the chunk (T5).
                            k::eos_chunk_scratch scratch;
                            wave_body::region_eos(*dp, lp, lo, hi, rep,
                                                  scratch);
                        })));
            w.tasks += 2;
        }
    }
    for (index_t lo = 0; lo < ne; lo += p_elems) {
        const index_t hi = std::min<index_t>(lo + p_elems, ne);
        const auto* vol_ctx =
            sent ? sent->add(volume_update_accesses(lo, hi), lo / p_elems)
                 : nullptr;
        w.futures.push_back(amt::async(
            rt, guarded(flags, wave_site::region_eos, part32(lo / p_elems),
                        vol_ctx, [dp, lo, hi] {
                wave_body::volume_update(*dp, lo, hi);
            })));
        ++w.tasks;
    }
    return w;
}

std::size_t constraint_slot_count(const domain& d, index_t p_elems) {
    std::size_t slots = 0;
    for (index_t r = 0; r < d.numReg(); ++r) {
        slots += static_cast<std::size_t>(num_chunks(
            static_cast<index_t>(d.regElemList(r).size()), p_elems));
    }
    return slots;
}

wave spawn_constraint_wave(amt::runtime& rt, domain& d, index_t p_elems,
                           kernels::dt_constraints* partials,
                           const error_flags& flags) {
    wave w;
    domain* dp = &d;
    iteration_sentinel* sent = sentinel_for(flags, d);
    std::size_t slot = 0;
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        const auto count = static_cast<index_t>(list.size());
        const index_t* lp = list.data();
        for (index_t lo = 0; lo < count; lo += p_elems) {
            const index_t hi = std::min<index_t>(lo + p_elems, count);
            k::dt_constraints* out = partials + slot;
            const auto* ctx =
                sent ? sent->add(constraint_accesses(
                                     lp, lo, hi,
                                     static_cast<index_t>(slot)),
                                 static_cast<std::int64_t>(slot))
                     : nullptr;
            ++slot;
            w.futures.push_back(amt::async(
                rt, guarded(flags, wave_site::constraints,
                            static_cast<std::int32_t>(slot - 1), ctx,
                            [dp, lp, lo, hi, out] {
                                wave_body::constraints(*dp, lp, lo, hi, *out);
                            })));
        }
    }
    w.tasks = w.futures.size();
    return w;
}

}  // namespace lulesh::graph
