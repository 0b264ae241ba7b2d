// core/compiled_iteration.hpp
//
// One leapfrog iteration compiled into a reusable amt::static_graph — the
// end point of the paper's T6 trick.  Where the fresh-build path
// (driver_taskgraph's stage_after chain over graph_waves) re-creates every
// task, shared state and continuation node each cycle, the compiled form
// is built ONCE per (domain, partition, instrumentation) shape and then
// *replayed*: arm() re-arms the generation counters, resets the per-slot
// constraint partials and stamps, and the very same node objects flow
// through the scheduler again.  Steady-state replay iterations perform
// zero heap allocations (tests/amt/test_alloc_count.cpp).
//
// Structure (identical to the fresh path by construction):
//
//   wave 1  force:       stress ∥ hourglass per element chunk    → B1
//   wave 2  node:        gather → velpos chains per node chunk   → B2
//   wave 3  elem:        fused kinematics per element chunk      → B3
//   wave 4  region_eos:  monoq → EOS chains per (region, chunk)
//                        ∥ volume update per element chunk       → B4
//   wave 5  constraints: dt partials, one slot per (region,chunk)→ B5
//
// The five barriers are graph nodes whose bodies stamp the phase-completion
// instants (feeding phase_profile / the tracer's phase windows, exactly
// like the stamp() continuations of the fresh path).  B1 and B3 optionally
// carry *external* dependencies for the overlapped checkpoint pack tasks
// of PR 5: node-field packs gate B1, element-field packs gate B3 — the
// same placement add_checkpoint_pack_tasks models, so the graph audit's
// non-interference proof covers the compiled form too.
//
// Task bodies are the shared wave_body:: kernels (graph_waves.hpp): both
// execution paths run identical floating-point operations in identical
// order, which is why N replays are bitwise equal to N fresh builds
// (tests/core/test_replay.cpp).  Per-task plumbing (fault probes, progress
// counters, hazard scopes, NaN scans) mirrors graph_waves' guarded();
// cancellation is the graph's stop flag, reset by every arm(), so re-armed
// tasks always observe fresh stop state.
//
// EOS scratch (T5): each EOS node owns a persistent eos_chunk_scratch (the
// five arrays of the fused pass) recycled across replays.  Every
// eval_eos_chunk writes each scratch array it reads before reading it, so
// recycling is bitwise-equivalent to the fresh path's task-local vectors —
// and saves five vector allocations per EOS task per iteration.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "amt/amt.hpp"
#include "core/access.hpp"
#include "core/graph_waves.hpp"
#include "lulesh/domain.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/options.hpp"

namespace lulesh::graph {

class compiled_iteration {
public:
    static constexpr std::size_t num_barriers = 5;

    struct config {
        partition_sizes parts;
        bool track_hazards = false;
        bool scan_nan = false;
        /// Accumulate per-node wall time across replays
        /// (static_graph::set_profiling) for the critical-path analyzer
        /// (core/critical_path.hpp).  Part of the compiled shape so toggling
        /// it forces a recompile rather than mixing half-profiled replays.
        bool profile_nodes = false;
    };

    /// Compiles and seals the graph for `d`'s current shape.  `flags`
    /// copies share state with the driver's (shared_ptr semantics), so the
    /// driver's volume/qstop/nan flags and progress tracker observe the
    /// replayed tasks exactly as they observe fresh-built ones.
    compiled_iteration(amt::runtime& rt, domain& d, const config& cfg,
                       const error_flags& flags);

    compiled_iteration(const compiled_iteration&) = delete;
    compiled_iteration& operator=(const compiled_iteration&) = delete;

    /// True when the compiled shape is still valid for (d, cfg) — same
    /// domain object, partitions and instrumentation setup.
    [[nodiscard]] bool matches(const domain& d, const config& cfg,
                               const error_flags& flags) const noexcept;

    /// Replay protocol (one iteration):
    ///   set_pack_deps → arm(dt) → [pack tasks call pack_done] → start →
    ///   wait.
    /// set_pack_deps gates B1 on `node_packs` and B3 on `elem_packs`
    /// external completions; pass zeros (the steady state) for an ungated
    /// replay.  Gating is consumed per-arm.
    void set_pack_deps(std::size_t node_packs, std::size_t elem_packs);
    void arm(real_t dt);
    void start() { graph_.start(); }
    void wait() { graph_.wait(); }

    /// Called by an overlapped checkpoint pack task when its region is
    /// packed (or failed): satisfies one external dependency on B1 (node
    /// fields) or B3 (element fields).  Must be called exactly once per
    /// dependency declared via set_pack_deps, on every path.
    void pack_done(space s);

    [[nodiscard]] amt::static_graph& graph() noexcept { return graph_; }
    [[nodiscard]] const amt::static_graph& graph() const noexcept {
        return graph_;
    }

    /// Compute tasks per replay (excluding the 5 barrier nodes), matching
    /// the fresh path's tasks_last_iteration accounting.
    [[nodiscard]] std::size_t task_count() const noexcept {
        return task_count_;
    }
    [[nodiscard]] std::size_t slot_count() const noexcept { return slots_; }
    [[nodiscard]] const kernels::dt_constraints* partials() const noexcept {
        return partials_.data();
    }
    /// Barrier-completion stamps of the last replay (B1..B5).
    [[nodiscard]] const std::array<amt::clock::time_point, num_barriers>&
    stamps() const noexcept {
        return stamps_;
    }
    /// Completed replays (the graph generation).
    [[nodiscard]] std::uint64_t replays() const noexcept {
        return graph_.generation();
    }

    /// Stage of a compute node (the phase_profile index, 0 = force …
    /// 4 = constraints), or -1 when `id` is not a compute node (barriers) —
    /// the phase attribution the critical-path report groups by.
    /// Quiescent-only, like every introspection accessor.
    [[nodiscard]] int node_stage(amt::static_graph::node_id id) const noexcept;
    /// Barrier node id for wave `i` (0-based, B1..B5).
    [[nodiscard]] amt::static_graph::node_id barrier_id(
        std::size_t i) const noexcept {
        return barrier_[i];
    }

    /// Structural audit of the compiled form against the declarative model
    /// (core/access): per-task site/stage/partition correspondence, every
    /// declared continuation edge present, barrier wiring of chain heads
    /// and tails, and — after healthy replays — the re-arm invariant that
    /// every node executed exactly generation() times.  Returns "" on
    /// success, else a description of the first mismatch.  Call while
    /// quiescent.
    [[nodiscard]] std::string verify(const graph_model& m) const;

private:
    struct node_info {
        const char* site;  ///< wave_site label (prefix of the model site)
        amt::static_graph::node_id id;
        int stage;
        std::int64_t partition;
    };

    void compile(domain& d);
    template <class Body>
    amt::static_graph::node_id add_task(const char* site, int stage,
                                        std::int64_t part,
                                        std::vector<access> accs, Body body);

    amt::runtime& rt_;
    domain* dom_;
    config cfg_;
    error_flags flags_;  ///< shares state with the driver's flags
    amt::static_graph graph_;
    std::array<amt::static_graph::node_id, num_barriers> barrier_{};
    std::array<amt::clock::time_point, num_barriers> stamps_{};
    real_t dt_ = 0;  ///< read by node/elem bodies through a stable pointer
    std::vector<kernels::dt_constraints> partials_;
    std::deque<kernels::eos_chunk_scratch> eos_scratch_;  ///< one per EOS node
    std::deque<iteration_sentinel::task_ctx> ctxs_;  ///< compiled once
    std::vector<node_info> compute_nodes_;
    std::size_t task_count_ = 0;
    std::size_t slots_ = 0;
};

}  // namespace lulesh::graph
