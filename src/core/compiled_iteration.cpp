// core/compiled_iteration.cpp — compiles one leapfrog iteration into a
// replayable static graph, mirroring build_iteration_model's task order
// exactly: compiled node i corresponds to model task i, which is what lets
// verify() check the two structures against each other index by index.

#include "core/compiled_iteration.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>
#include <utility>

namespace lulesh::graph {

namespace k = kernels;

compiled_iteration::compiled_iteration(amt::runtime& rt, domain& d,
                                       const config& cfg,
                                       const error_flags& flags)
    : rt_(rt), dom_(&d), cfg_(cfg), flags_(flags) {
    const index_t pe = cfg_.parts.elems > 0 ? cfg_.parts.elems : d.numElem();
    slots_ = constraint_slot_count(d, pe);
    partials_.assign(slots_, k::dt_constraints{});
    compile(d);
    graph_.seal();
    graph_.set_profiling(cfg_.profile_nodes);
}

int compiled_iteration::node_stage(
    amt::static_graph::node_id id) const noexcept {
    for (const node_info& n : compute_nodes_) {
        if (n.id == id) return n.stage;
    }
    return -1;
}

bool compiled_iteration::matches(const domain& d, const config& cfg,
                                 const error_flags& flags) const noexcept {
    return dom_ == &d && cfg_.parts.nodal == cfg.parts.nodal &&
           cfg_.parts.elems == cfg.parts.elems &&
           cfg_.track_hazards == cfg.track_hazards &&
           cfg_.scan_nan == cfg.scan_nan &&
           cfg_.profile_nodes == cfg.profile_nodes &&
           flags_.sentinel.get() == flags.sentinel.get();
}

void compiled_iteration::set_pack_deps(std::size_t node_packs,
                                       std::size_t elem_packs) {
    graph_.set_external_deps(barrier_[0],
                             static_cast<std::uint32_t>(node_packs));
    graph_.set_external_deps(barrier_[2],
                             static_cast<std::uint32_t>(elem_packs));
}

void compiled_iteration::arm(real_t dt) {
    dt_ = dt;
    std::fill(partials_.begin(), partials_.end(), k::dt_constraints{});
    stamps_.fill(amt::clock::time_point{});
    graph_.arm(rt_);
}

void compiled_iteration::pack_done(space s) {
    graph_.satisfy_external(s == space::node ? barrier_[0] : barrier_[2]);
}

// Replicates graph_waves' guarded() minus what the graph engine already
// provides: the trace annotation (node::execute annotates from the node's
// label/arg), the stop-token early-return (the engine skips bodies once the
// graph's stop flag is set), and stop propagation on throw (the engine's
// record_error sets the stop flag).  Everything else — fault probe at the
// wave site, progress counters and per-worker in-flight labels, the
// optional hazard scope and NaN scan — is kept identical so watchdogs,
// fault plans and the sentinel observe replayed tasks exactly as they
// observe fresh-built ones.
template <class Body>
amt::static_graph::node_id compiled_iteration::add_task(
    const char* site, int stage, std::int64_t part, std::vector<access> accs,
    Body body) {
    std::shared_ptr<iteration_sentinel> sent;
    if (flags_.sentinel != nullptr && flags_.sentinel->dom == dom_ &&
        (cfg_.track_hazards || cfg_.scan_nan)) {
        sent = flags_.sentinel;
    }
    const iteration_sentinel::task_ctx* ctx = nullptr;
    if (sent != nullptr) {
        iteration_sentinel::task_ctx& c = ctxs_.emplace_back();
        c.accs = std::move(accs);
        c.partition = part;
        if (cfg_.track_hazards) c.decl = expand_to_hazard_set(c.accs, *dom_);
        ctx = &c;
    }
    auto wrapped = [progress = flags_.progress, sent = std::move(sent),
                    nan_ok = flags_.nan_ok, ctx, site,
                    body = std::move(body)]() {
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
            progress->worker_site[slot].store(nullptr,
                                              amt::memory_order_relaxed);
            progress->finished.fetch_add(1, amt::memory_order_relaxed);
            throw;
        }
        progress->worker_site[slot].store(nullptr, amt::memory_order_relaxed);
        progress->finished.fetch_add(1, amt::memory_order_relaxed);
    };
    const auto id = graph_.add_node(std::move(wrapped), site,
                                    static_cast<std::int32_t>(part));
    compute_nodes_.push_back({site, id, stage, part});
    ++task_count_;
    return id;
}

void compiled_iteration::compile(domain& d) {
    domain* dp = &d;
    const index_t ne = d.numElem();
    const index_t nn = d.numNode();
    const index_t pn = cfg_.parts.nodal > 0 ? cfg_.parts.nodal : ne;
    const index_t pe = cfg_.parts.elems > 0 ? cfg_.parts.elems : ne;
    auto vol_ok = flags_.volume_ok;
    auto q_ok = flags_.qstop_ok;
    const real_t* dtp = &dt_;

    // Barrier nodes first (B1..B5), chained so stage k+1 cannot start
    // before stage k's barrier completed — the replay analogue of the
    // fresh path's stage_after(b_k, ...) sequencing.  Bodies stamp the
    // phase-completion instants for the profile/tracer.
    for (std::size_t b = 0; b < num_barriers; ++b) {
        amt::clock::time_point* out = &stamps_[b];
        barrier_[b] =
            graph_.add_node([out] { *out = amt::clock::now(); },
                            "graph:barrier", static_cast<std::int32_t>(b));
    }
    for (std::size_t b = 0; b + 1 < num_barriers; ++b) {
        graph_.add_edge(barrier_[b], barrier_[b + 1]);
    }

    // Chain-head/tail barrier wiring: a task with no in-wave predecessor
    // hangs off the previous stage's barrier (stage 0 tasks are roots); a
    // task nothing in its wave depends on feeds its stage's barrier.
    auto head = [this](int stage, amt::static_graph::node_id id) {
        if (stage > 0) {
            graph_.add_edge(barrier_[static_cast<std::size_t>(stage - 1)],
                            id);
        }
    };
    auto tail = [this](int stage, amt::static_graph::node_id id) {
        graph_.add_edge(id, barrier_[static_cast<std::size_t>(stage)]);
    };

    // Stage 0 — force wave: stress ∥ hourglass per element chunk of p_nodal.
    index_t part = 0;
    for (index_t lo = 0; lo < ne; lo += pn, ++part) {
        const index_t hi = std::min<index_t>(lo + pn, ne);
        const auto stress = add_task(
            wave_site::force, 0, part, force_stress_accesses(lo, hi),
            [dp, lo, hi, vol_ok] {
                wave_body::force_stress(*dp, lo, hi, *vol_ok);
            });
        head(0, stress);
        tail(0, stress);
        const auto hg = add_task(
            wave_site::force, 0, part, force_hourglass_accesses(lo, hi),
            [dp, lo, hi, vol_ok] {
                wave_body::force_hourglass(*dp, lo, hi, *vol_ok);
            });
        head(0, hg);
        tail(0, hg);
    }

    // Stage 1 — node chains: gather → velpos per node chunk.
    part = 0;
    for (index_t lo = 0; lo < nn; lo += pn, ++part) {
        const index_t hi = std::min<index_t>(lo + pn, nn);
        const auto gather =
            add_task(wave_site::node, 1, part, node_gather_accesses(lo, hi),
                     [dp, lo, hi] { wave_body::node_gather(*dp, lo, hi); });
        const auto velpos = add_task(
            wave_site::node, 1, part, node_velpos_accesses(lo, hi),
            [dp, lo, hi, dtp] {
                wave_body::node_velpos(*dp, lo, hi, *dtp);
            });
        head(1, gather);
        graph_.add_edge(gather, velpos);
        tail(1, velpos);
    }

    // Stage 2 — fused element wave per p_elems chunk.
    part = 0;
    for (index_t lo = 0; lo < ne; lo += pe, ++part) {
        const index_t hi = std::min<index_t>(lo + pe, ne);
        const auto elem = add_task(
            wave_site::elem, 2, part, elem_wave_accesses(lo, hi),
            [dp, lo, hi, dtp, vol_ok, q_ok] {
                wave_body::elem_fused(*dp, lo, hi, *dtp, *vol_ok, *q_ok);
            });
        head(2, elem);
        tail(2, elem);
    }

    // Stage 3 — per-(region, chunk) monoq → EOS chains plus the independent
    // volume update.  Each EOS node owns a persistent scratch (T5, recycled
    // across replays; every scratch array is written before read).
    part = 0;
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        const auto count = static_cast<index_t>(list.size());
        const int rep = k::eos_rep_for_region(d, r);
        const index_t* lp = list.data();
        for (index_t lo = 0; lo < count; lo += pe, ++part) {
            const index_t hi = std::min<index_t>(lo + pe, count);
            const auto monoq = add_task(
                wave_site::region_eos, 3, part,
                region_monoq_accesses(lp, lo, hi), [dp, lp, lo, hi] {
                    wave_body::region_monoq(*dp, lp, lo, hi);
                });
            k::eos_chunk_scratch* scr = &eos_scratch_.emplace_back();
            const auto eos = add_task(
                wave_site::region_eos, 3, part,
                region_eos_accesses(lp, lo, hi), [dp, lp, lo, hi, rep, scr] {
                    wave_body::region_eos(*dp, lp, lo, hi, rep, *scr);
                });
            head(3, monoq);
            graph_.add_edge(monoq, eos);
            tail(3, eos);
        }
    }
    part = 0;
    for (index_t lo = 0; lo < ne; lo += pe, ++part) {
        const auto hi = std::min<index_t>(lo + pe, ne);
        const auto vol = add_task(
            wave_site::region_eos, 3, part, volume_update_accesses(lo, hi),
            [dp, lo, hi] { wave_body::volume_update(*dp, lo, hi); });
        head(3, vol);
        tail(3, vol);
    }

    // Stage 4 — constraint partials, one slot per (region, chunk).
    index_t slot = 0;
    for (index_t r = 0; r < d.numReg(); ++r) {
        const auto& list = d.regElemList(r);
        const auto count = static_cast<index_t>(list.size());
        const index_t* lp = list.data();
        for (index_t lo = 0; lo < count; lo += pe, ++slot) {
            const index_t hi = std::min<index_t>(lo + pe, count);
            k::dt_constraints* out =
                partials_.data() + static_cast<std::size_t>(slot);
            const auto c = add_task(
                wave_site::constraints, 4, slot,
                constraint_accesses(lp, lo, hi, slot), [dp, lp, lo, hi, out] {
                    wave_body::constraints(*dp, lp, lo, hi, *out);
                });
            head(4, c);
            tail(4, c);
        }
    }
}

std::string compiled_iteration::verify(const graph_model& m) const {
    std::ostringstream err;
    if (m.tasks.size() != compute_nodes_.size()) {
        err << "compiled graph has " << compute_nodes_.size()
            << " compute nodes, model has " << m.tasks.size() << " tasks";
        return err.str();
    }
    if (m.num_slots != slots_) {
        err << "compiled slot count " << slots_ << " != model num_slots "
            << m.num_slots;
        return err.str();
    }
    for (std::size_t b = 0; b + 1 < num_barriers; ++b) {
        if (!graph_.has_edge(barrier_[b], barrier_[b + 1])) {
            err << "missing barrier chain edge B" << b + 1 << " -> B"
                << b + 2;
            return err.str();
        }
    }
    std::vector<char> has_consumer(m.tasks.size(), 0);
    for (const task_decl& td : m.tasks) {
        for (int dep : td.deps) {
            has_consumer[static_cast<std::size_t>(dep)] = 1;
        }
    }
    const std::uint64_t gen = graph_.generation();
    for (std::size_t i = 0; i < m.tasks.size(); ++i) {
        const task_decl& td = m.tasks[i];
        const node_info& ni = compute_nodes_[i];
        auto fail = [&](const char* what) {
            err << "task " << i << " (" << td.site << " partition "
                << td.partition << "): " << what;
            return err.str();
        };
        // Model sites are dotted sub-sites of the runtime wave_site label
        // ("region_eos.monoq" vs "region_eos"), so prefix-match.
        if (std::strncmp(td.site, ni.site, std::strlen(ni.site)) != 0) {
            return fail("site mismatch");
        }
        if (td.stage != ni.stage) return fail("stage mismatch");
        if (static_cast<std::int64_t>(td.partition) != ni.partition) {
            return fail("partition mismatch");
        }
        for (int dep : td.deps) {
            const node_info& from =
                compute_nodes_[static_cast<std::size_t>(dep)];
            if (!graph_.has_edge(from.id, ni.id)) {
                return fail("declared continuation edge missing");
            }
        }
        if (td.deps.empty()) {
            if (td.stage > 0) {
                const auto b =
                    barrier_[static_cast<std::size_t>(td.stage - 1)];
                if (!graph_.has_edge(b, ni.id)) {
                    return fail("chain head not gated on previous barrier");
                }
            } else if (graph_.dependency_count(ni.id) != 0) {
                return fail("stage-0 task is not a graph root");
            }
        }
        if (!has_consumer[i] &&
            !graph_.has_edge(ni.id,
                             barrier_[static_cast<std::size_t>(td.stage)])) {
            return fail("chain tail not joined into its stage barrier");
        }
        if (gen > 0 && graph_.executions(ni.id) != gen) {
            err << "task " << i << " (" << td.site << " partition "
                << td.partition << "): executed " << graph_.executions(ni.id)
                << " times over " << gen
                << " replays (re-arm invariant violated)";
            return err.str();
        }
    }
    if (gen > 0) {
        for (std::size_t b = 0; b < num_barriers; ++b) {
            if (graph_.executions(barrier_[b]) != gen) {
                err << "barrier B" << b + 1 << " executed "
                    << graph_.executions(barrier_[b]) << " times over " << gen
                    << " replays";
                return err.str();
            }
        }
    }
    return {};
}

}  // namespace lulesh::graph
