// core/graph_waves.hpp
//
// The five task waves of one leapfrog iteration, as reusable builders: the
// single-domain taskgraph_driver chains them with when_all barriers, and the
// multi-domain dist_driver chains one instance per slab with halo-exchange
// steps in between.  Each builder spawns its tasks on the given runtime and
// returns the per-task futures plus the number of tasks created.

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "amt/amt.hpp"
#include "amt/atomic.hpp"
#include "amt/hazard.hpp"
#include "core/access.hpp"
#include "lulesh/domain.hpp"
#include "lulesh/kernels.hpp"

namespace lulesh::graph {

struct wave {
    std::vector<amt::future<void>> futures;
    std::size_t tasks = 0;
};

/// The site labels every wave's tasks report to fault probes, the progress
/// tracker, and the watchdog.  Deliberately identical to the
/// phase_profile::name() strings so stall reports read like the profiles.
namespace wave_site {
inline constexpr const char* force = "force";
inline constexpr const char* node = "node";
inline constexpr const char* elem = "elem";
inline constexpr const char* region_eos = "region_eos";
inline constexpr const char* constraints = "constraints";
}  // namespace wave_site

/// Chunk-count arithmetic shared by the wave builders, the declarative
/// model and the compiled-iteration builder.
[[nodiscard]] constexpr index_t wave_chunks(index_t n, index_t p) noexcept {
    return p > 0 ? (n + p - 1) / p : n;
}

/// The fused kernel bodies of the five waves — exactly the code the wave
/// builders put inside their task lambdas, shared with the compiled replay
/// graph (core/compiled_iteration) so the fresh-build and replay execution
/// paths run identical floating-point operations in identical order and
/// stay bitwise equal by construction (tests/core/test_replay.cpp).
namespace wave_body {
void force_stress(domain& d, index_t lo, index_t hi,
                  amt::atomic<bool>& vol_ok);
void force_hourglass(domain& d, index_t lo, index_t hi,
                     amt::atomic<bool>& vol_ok);
void node_gather(domain& d, index_t lo, index_t hi);
void node_velpos(domain& d, index_t lo, index_t hi, real_t dt);
void elem_fused(domain& d, index_t lo, index_t hi, real_t dt,
                amt::atomic<bool>& vol_ok, amt::atomic<bool>& q_ok);
void region_monoq(domain& d, const index_t* list, index_t lo, index_t hi);
void region_eos(domain& d, const index_t* list, index_t lo, index_t hi,
                int rep, kernels::eos_chunk_scratch& scratch);
void volume_update(domain& d, index_t lo, index_t hi);
void constraints(domain& d, const index_t* list, index_t lo, index_t hi,
                 kernels::dt_constraints& out);
}  // namespace wave_body

/// Task start/finish counters plus in-flight task labels, updated by every
/// guarded task body.  External observers (the watchdog) hold a shared_ptr
/// and sample it from their own thread: a barrier that stops making
/// `finished` progress while `started` is ahead means a task is stuck.
///
/// `site` is the label of the most recently *started* task — kept for
/// cheap single-label reporting (exact on a 1-worker runtime).  The
/// `worker_site` slots additionally track, per runtime worker, the label
/// of the task it is currently inside (nullptr between tasks), so a stall
/// report can name *every* in-flight site even when other workers started
/// tasks after the hung one.  Slot 0 collects tasks run inline on
/// non-worker threads; worker w uses slot w+1, saturating at the last
/// slot for runtimes wider than max_tracked_workers.
struct progress_state {
    static constexpr std::size_t max_tracked_workers = 64;

    amt::atomic<std::uint64_t> started{0};
    amt::atomic<std::uint64_t> finished{0};
    amt::atomic<const char*> site{nullptr};
    std::array<amt::atomic<const char*>, max_tracked_workers + 1>
        worker_site{};

    /// Labels of all tasks currently in flight (one entry per busy worker).
    [[nodiscard]] std::vector<const char*> in_flight_sites() const {
        std::vector<const char*> sites;
        for (const auto& slot : worker_site) {
            const char* s = slot.load(amt::memory_order_relaxed);
            if (s != nullptr) sites.push_back(s);
        }
        return sites;
    }
};

/// Opt-in per-task instrumentation shared by one iteration's tasks: the
/// dynamic shadow-epoch hazard tracker (amt/hazard) and the NaN sentinel.
/// Null in error_flags by default — spawning then skips building contexts
/// entirely.  Contexts are created at spawn time (wave builders know each
/// task's ranges) and live in stable-address storage until the next
/// iteration begins; in-flight tasks reference them by pointer.
struct iteration_sentinel {
    struct task_ctx {
        std::vector<access> accs;          ///< declared accesses of the task
        amt::hazard::access_set decl;      ///< accs expanded for the tracker
        std::int64_t partition = -1;
    };

    const domain* dom = nullptr;  ///< arena key + connectivity for expansion
    bool track_hazards = false;
    bool scan_nan = false;

    /// Where the NaN scan found trouble (static strings; set once per
    /// episode, first writer wins is not needed — any site will do).
    amt::atomic<const char*> nan_wave_site{nullptr};
    amt::atomic<const char*> nan_field_name{nullptr};

    const task_ctx* add(std::vector<access> accs, std::int64_t partition) {
        std::lock_guard lk(mu_);
        task_ctx& c = storage_.emplace_back();
        c.accs = std::move(accs);
        c.partition = partition;
        if (track_hazards) c.decl = expand_to_hazard_set(c.accs, *dom);
        return &c;
    }

    /// Drops last iteration's contexts (all tasks have finished: the
    /// driver's barrier get() precedes the next begin_iteration()).
    void begin_iteration() {
        std::lock_guard lk(mu_);
        storage_.clear();
    }

private:
    std::mutex mu_;
    std::deque<task_ctx> storage_;
};

/// Shared per-iteration context: error flags aggregated by tasks and
/// checked at iteration end, a cooperative stop flag that lets sibling
/// tasks short-circuit once one task has failed, and the progress tracker.
/// Copies share state (everything is behind shared_ptrs / shared stop
/// state), so capturing by value in task lambdas is the intended use.
struct error_flags {
    std::shared_ptr<amt::atomic<bool>> volume_ok =
        std::make_shared<amt::atomic<bool>>(true);
    std::shared_ptr<amt::atomic<bool>> qstop_ok =
        std::make_shared<amt::atomic<bool>>(true);

    /// Cleared by a task whose NaN scan (sentinel->scan_nan) found a
    /// non-finite value in a field it had just written; checked at the
    /// barrier so a blow-up is reported with its wave site instead of
    /// surfacing as a wrong answer many iterations later.  Always true
    /// when the sentinel is off.
    std::shared_ptr<amt::atomic<bool>> nan_ok =
        std::make_shared<amt::atomic<bool>>(true);

    /// Opt-in dynamic instrumentation (hazard tracking, NaN scanning);
    /// null by default.
    std::shared_ptr<iteration_sentinel> sentinel;

    /// Requested by the first task that throws; later tasks of the
    /// iteration return immediately (their output is about to be thrown
    /// away by the rollback anyway).
    amt::stop_source stop;

    /// Stable across iterations (begin_iteration keeps the object), so a
    /// watchdog can keep observing one shared_ptr for a whole run.
    std::shared_ptr<progress_state> progress =
        std::make_shared<progress_state>();

    void reset() {
        volume_ok->store(true, amt::memory_order_relaxed);
        qstop_ok->store(true, amt::memory_order_relaxed);
        nan_ok->store(true, amt::memory_order_relaxed);
    }

    /// Fresh cancellation scope for a new iteration: error flags reset and
    /// the stop source replaced (a stop request must not leak into the next
    /// iteration), while the progress tracker object stays the same.
    void begin_iteration() {
        reset();
        stop = amt::stop_source();
        if (sentinel) sentinel->begin_iteration();
    }

    [[nodiscard]] bool cancelled() const { return stop.stop_requested(); }
};

/// Wave 1 — corner forces: stress chains ∥ hourglass chains over element
/// partitions of size `p_nodal` (paper trick T4: both launched together).
wave spawn_force_wave(amt::runtime& rt, domain& d, index_t p_nodal,
                      const error_flags& flags);

/// Force tasks restricted to elements [elem_lo, elem_hi) — used by the
/// eager halo exchange to gate boundary-plane sends on just the boundary
/// tasks instead of the whole wave.
wave spawn_force_wave_range(amt::runtime& rt, domain& d, index_t elem_lo,
                            index_t elem_hi, index_t p_nodal,
                            const error_flags& flags);

/// Wave 2 — node chains: gather+acceleration+BC, then velocity→position as
/// a continuation (tricks T2+T3), over node partitions of size `p_nodal`.
wave spawn_node_wave(amt::runtime& rt, domain& d, index_t p_nodal, real_t dt,
                     const error_flags& flags);

/// Wave 3 — element kinematics + strain deviators + monotonic-Q gradients +
/// qstop check + EOS pre-clamp, fused per element partition (T3).
wave spawn_elem_wave(amt::runtime& rt, domain& d, index_t p_elems, real_t dt,
                     const error_flags& flags);

/// Wave-3 tasks restricted to elements [elem_lo, elem_hi) (eager delv_zeta
/// exchange).
wave spawn_elem_wave_range(amt::runtime& rt, domain& d, index_t elem_lo,
                           index_t elem_hi, index_t p_elems, real_t dt,
                           const error_flags& flags);

/// Wave 4 — per-region monotonic-Q → EOS chains (T2+T4+T5, all regions
/// launched together) plus the independent volume update.
wave spawn_region_wave(amt::runtime& rt, domain& d, index_t p_elems,
                       const error_flags& flags);

/// Number of constraint partial slots wave 5 will fill for this domain.
std::size_t constraint_slot_count(const domain& d, index_t p_elems);

/// Wave 5 — Courant/hydro constraint partials, one slot per (region, chunk),
/// written into `partials[0 .. constraint_slot_count)`.
wave spawn_constraint_wave(amt::runtime& rt, domain& d, index_t p_elems,
                           kernels::dt_constraints* partials,
                           const error_flags& flags);

}  // namespace lulesh::graph
