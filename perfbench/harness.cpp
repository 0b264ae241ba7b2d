// perfbench/harness.cpp — the workload runner behind perfbench/run.py.
//
//   perfbench_cpp serial-ref <problem>             untimed serial reference
//   perfbench_cpp eos-reps <problem>               EOS load of each region map
//   perfbench_cpp run <problem> <run options>      one workload run
//
// <problem> is --size --regions --balance --cost --cycles, plus
// --region-seed (serial-ref) or --region-seeds a,b,... (eos-reps: one
// figure per seed; run: job j uses seed j modulo the list).  run.py
// generates every value from its --seed, so the program sees only the
// generated options.  Each mode prints one JSON object on stdout.
//
// The harness only calls the public APIs of lulesh, core, amt, ompsim and
// dist.  Spans (--trace 1) are recorded here, around those calls; nothing
// inside the program is instrumented.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "amt/amt.hpp"
#include "core/access.hpp"
#include "core/compiled_iteration.hpp"
#include "core/critical_path.hpp"
#include "core/driver_taskgraph.hpp"
#include "dist/resilient_dist.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/driver_parallel_for.hpp"
#include "lulesh/kernels.hpp"
#include "lulesh/validate.hpp"
#include "ompsim/ompsim.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using clk = std::chrono::steady_clock;
using lulesh::index_t;
using lulesh::real_t;

double seconds_between(clk::time_point a, clk::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- arguments

class args {
public:
    args(int argc, char** argv) {
        for (int i = 2; i + 1 < argc; i += 2) {
            const std::string k = argv[i];
            if (k.rfind("--", 0) != 0) {
                throw std::invalid_argument("expected --key value, got " + k);
            }
            kv_[k.substr(2)] = argv[i + 1];
        }
        if (argc % 2 != 0) {
            throw std::invalid_argument("option without a value");
        }
    }
    [[nodiscard]] long long num(const std::string& k) const {
        const auto it = kv_.find(k);
        if (it == kv_.end()) throw std::invalid_argument("missing --" + k);
        std::size_t used = 0;
        const long long v = std::stoll(it->second, &used);
        if (used != it->second.size()) {
            throw std::invalid_argument("--" + k + " is not an integer");
        }
        return v;
    }
    [[nodiscard]] long long num_or(const std::string& k, long long d) const {
        return kv_.count(k) != 0 ? num(k) : d;
    }
    [[nodiscard]] std::vector<std::uint64_t> seeds(const std::string& k) const {
        std::vector<std::uint64_t> out;
        std::istringstream in(str_or(k, ""));
        for (std::string item; std::getline(in, item, ',');) {
            std::size_t used = 0;
            out.push_back(std::stoull(item, &used));
            if (used != item.size()) {
                throw std::invalid_argument("--" + k + " is not a seed list");
            }
        }
        if (out.empty()) throw std::invalid_argument("missing --" + k);
        return out;
    }
    [[nodiscard]] std::string str_or(const std::string& k,
                                     const std::string& d) const {
        const auto it = kv_.find(k);
        return it == kv_.end() ? d : it->second;
    }

private:
    std::map<std::string, std::string> kv_;
};

lulesh::options problem_from(const args& a) {
    lulesh::options o;
    o.size = static_cast<index_t>(a.num("size"));
    o.num_regions = static_cast<index_t>(a.num("regions"));
    o.balance = static_cast<int>(a.num("balance"));
    o.cost = static_cast<int>(a.num("cost"));
    o.max_cycles = static_cast<int>(a.num("cycles"));
    o.region_seed = static_cast<std::uint64_t>(a.num_or("region-seed", 0));
    if (o.size < 2 || o.num_regions < 1 || o.cost < 0 || o.max_cycles < 2) {
        throw std::invalid_argument("problem options out of range");
    }
    return o;
}

// -------------------------------------------------------------------- JSON

class json_object {
public:
    /// Non-finite values use the NaN/Infinity tokens Python's json reads,
    /// so a blown-up answer reaches the check as what it is.
    json_object& num(const std::string& k, double v) {
        if (std::isnan(v)) return raw(k, "NaN");
        if (std::isinf(v)) return raw(k, v > 0 ? "Infinity" : "-Infinity");
        std::ostringstream s;
        s << std::setprecision(17) << v;
        return raw(k, s.str());
    }
    json_object& str(const std::string& k, const std::string& v) {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\') q += '\\';
            q += (c == '\n' ? ' ' : c);
        }
        return raw(k, q + "\"");
    }
    json_object& nums(const std::string& k, const std::vector<double>& v) {
        std::ostringstream s;
        s << std::setprecision(17) << '[';
        for (std::size_t i = 0; i < v.size(); ++i) {
            s << (i != 0 ? "," : "") << v[i];
        }
        return raw(k, s.str() + "]");
    }
    json_object& raw(const std::string& k, const std::string& v) {
        body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":") + v;
        return *this;
    }
    [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

private:
    std::string body_;
};

std::string json_array(const std::vector<std::string>& items) {
    std::string s = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        s += (i != 0 ? "," : "") + items[i];
    }
    return s + "]";
}

// ------------------------------------------------------------------- spans

/// In-memory span recorder for the benchmark's own calls into the program.
/// Single-threaded: only the harness's main thread opens spans.  The layer
/// of a span is its name's prefix before the first '.'.
class span_log {
public:
    struct span {
        const char* name;
        double start_s;
        double end_s;
        int parent;
    };

    void arm(bool on) { on_ = on; }
    [[nodiscard]] bool armed() const noexcept { return on_; }

    int open(const char* name) {
        if (!on_) return -1;
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({name, now(), 0.0, stack_.empty() ? -1 : stack_.back()});
        stack_.push_back(id);
        return id;
    }
    void close(int id) {
        if (id < 0) return;
        spans_[static_cast<std::size_t>(id)].end_s = now();
        stack_.pop_back();
    }

    /// Self time per layer: each span's duration minus the part its child
    /// spans cover (children never overlap: one thread opens them).
    [[nodiscard]] std::map<std::string, double> self_seconds() const {
        std::vector<double> child(spans_.size(), 0.0);
        for (const auto& s : spans_) {
            if (s.parent >= 0) {
                child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
            }
        }
        std::map<std::string, double> self;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const std::string n = spans_[i].name;
            self[n.substr(0, n.find('.'))] +=
                spans_[i].end_s - spans_[i].start_s - child[i];
        }
        return self;
    }

    [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

    bool write(const std::string& path) const {
        std::ofstream out(path);
        if (!out) return false;
        out << std::setprecision(9) << "{\"spans\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto& s = spans_[i];
            out << (i != 0 ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
                << s.name << "\",\"start_s\":" << s.start_s
                << ",\"end_s\":" << s.end_s << ",\"parent\":" << s.parent << "}";
        }
        json_object self;
        for (const auto& [layer, sec] : self_seconds()) self.num(layer, sec);
        out << "],\n\"self_s\":" << self.text() << "}\n";
        return static_cast<bool>(out);
    }

private:
    [[nodiscard]] double now() const { return seconds_between(origin_, clk::now()); }

    bool on_ = false;
    clk::time_point origin_ = clk::now();
    std::vector<span> spans_;
    std::vector<int> stack_;
};

class scoped_span {
public:
    scoped_span(span_log& log, const char* name) : log_(log), id_(log.open(name)) {}
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;
    ~scoped_span() { log_.close(id_); }

private:
    span_log& log_;
    int id_;
};

// ------------------------------------------------------------- answer data

/// FNV-1a over the bytes of the primary state fields, in the order
/// max_field_difference compares them: equal digests mean bitwise-equal
/// final states across processes.
std::uint64_t state_digest(const lulesh::domain& d) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const auto* f : {&d.x, &d.y, &d.z, &d.xd, &d.yd, &d.zd, &d.e, &d.p,
                          &d.q, &d.v, &d.ss}) {
        const auto* bytes = reinterpret_cast<const unsigned char*>(f->data());
        for (std::size_t i = 0; i < f->size() * sizeof(real_t); ++i) {
            h = (h ^ bytes[i]) * 1099511628211ULL;
        }
    }
    return h;
}

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

struct job_record {
    int cycles = 0;
    lulesh::status code = lulesh::status::ok;
    std::string error;
    real_t e0 = 0.0;
    std::string digest;  ///< empty where no single-domain state exists
    lulesh::symmetry_report sym;
    double setup_s = 0.0;
    double solve_s = 0.0;  ///< setup start → answer data ready
    double timed_s = 0.0;  ///< the cycles after the first
    int timed_cycles = 0;
    bool traced = false;

    [[nodiscard]] std::string json(index_t zones) const {
        return json_object{}
            .num("cycles", cycles)
            .str("status", lulesh::status_name(code))
            .str("error", error)
            .num("e0", e0)
            .str("digest", digest)
            .num("sym_max_rel", sym.max_rel_diff)
            .num("setup_s", setup_s)
            .num("solve_s", solve_s)
            .num("timed_s", timed_s)
            .num("timed_cycles", timed_cycles)
            .num("zones", static_cast<double>(zones))
            .raw("traced", traced ? "true" : "false")
            .text();
    }
};

// ------------------------------------------------- per-layer observations

/// What a traced single-domain job reads from the runtime and driver over
/// its timed cycles (all jobs of a run accumulate here).
struct tg_observation {
    amt::counters_snapshot counters{};  ///< summed deltas over timed cycles
    lulesh::phase_profile profile{};    ///< summed over timed cycles
    std::size_t tasks_per_cycle = 0;
    int cycles = 0;
    double reps_cycles = 0.0;  ///< Σ EOS repetitions per element × cycles
    std::vector<double> cycle_ms;  ///< traced job cycle times, in order
    std::optional<lulesh::domain> snapshot;
};

/// EOS evaluations per element and cycle that the domain's region map asks
/// for; the region map, and so this work, varies with the region seed.
double eos_reps_per_elem(const lulesh::domain& d) {
    double reps = 0.0;
    for (index_t r = 0; r < d.numReg(); ++r) {
        reps += lulesh::kernels::eos_rep_for_region(d, r) *
                static_cast<double>(d.regElemList(r).size());
    }
    return reps / static_cast<double>(d.numElem());
}

void accumulate(amt::counters_snapshot& sum, const amt::counters_snapshot& d) {
    sum.steals += d.steals;
    sum.productive_ns += d.productive_ns;
    sum.wall_ns += d.wall_ns;
    sum.num_workers = d.num_workers;
}

// ------------------------------------------------------- single-domain jobs

struct run_config {
    lulesh::options problem;
    std::size_t threads = 4;
    double seconds = 10.0;
    int min_cycle_samples = 100;
    int setup_reps = 15;
    bool shared_runtime = false;  ///< one runtime for all jobs of the run
    int snapshot_cycle = 0;       ///< traced: kernel-sweep snapshot cycle
};

/// One job: set-up (domain, runtime unless shared, driver, first cycle),
/// the remaining cycles one by one, then the answer data.  `setup_only`
/// stops after the first cycle (extra set-up samples).
job_record run_taskgraph_job(const run_config& cfg, amt::runtime* shared_rt,
                             span_log& log, std::vector<double>* cycle_ms,
                             tg_observation* obs, bool setup_only) {
    job_record rec;
    rec.traced = log.armed();
    scoped_span job_span(log, setup_only ? "bench.setup_probe" : "bench.job");
    const auto t0 = clk::now();
    const auto parts = lulesh::partition_sizes::tuned_for(cfg.problem.size);
    std::optional<lulesh::domain> dom;
    std::optional<amt::runtime> own_rt;
    std::optional<lulesh::taskgraph_driver> drv;
    int sid = log.open("bench.setup");
    {
        scoped_span s(log, "lulesh.domain");
        dom.emplace(cfg.problem);
    }
    amt::runtime* rt = shared_rt;
    if (rt == nullptr) {
        scoped_span s(log, "amt.runtime");
        rt = &own_rt.emplace(cfg.threads);
    }
    {
        scoped_span s(log, "core.driver");
        drv.emplace(*rt, parts);
    }
    lulesh::domain& d = *dom;
    std::optional<std::string> failure;
    try {
        {
            scoped_span s(log, "lulesh.time_increment");
            lulesh::kernels::time_increment(d);
        }
        // The first advance compiles (captures) the replay graph.
        scoped_span s(log, "core.capture");
        drv->advance(d);
    } catch (const lulesh::simulation_error& err) {
        rec.code = err.code();
        failure = err.what();
    }
    log.close(sid);
    const auto t_setup = clk::now();
    rec.setup_s = seconds_between(t0, t_setup);
    if (setup_only) return rec;

    if (obs != nullptr) drv->reset_profile();
    const auto c_begin = obs != nullptr ? rt->snapshot_counters()
                                        : amt::counters_snapshot{};
    try {
        while (!failure && d.time_ < d.stoptime && d.cycle < cfg.problem.max_cycles) {
            if (obs != nullptr && d.cycle == cfg.snapshot_cycle && !obs->snapshot) {
                obs->snapshot.emplace(d);  // copied outside the cycle timing
            }
            scoped_span cs(log, "bench.cycle");
            const auto c0 = clk::now();
            {
                scoped_span s(log, "lulesh.time_increment");
                lulesh::kernels::time_increment(d);
            }
            {
                scoped_span s(log, "core.advance");
                drv->advance(d);
            }
            const double ms = seconds_between(c0, clk::now()) * 1e3;
            rec.timed_s += ms * 1e-3;
            ++rec.timed_cycles;
            if (cycle_ms != nullptr) cycle_ms->push_back(ms);
            if (obs != nullptr) obs->cycle_ms.push_back(ms);
        }
    } catch (const lulesh::simulation_error& err) {
        rec.code = err.code();
        failure = err.what();
    }
    if (obs != nullptr) {
        accumulate(obs->counters, amt::delta(c_begin, rt->snapshot_counters()));
        const auto& p = drv->profile();
        for (std::size_t i = 0; i < p.seconds.size(); ++i) {
            obs->profile.seconds[i] += p.seconds[i];
        }
        obs->profile.iterations += p.iterations;
        obs->tasks_per_cycle = drv->tasks_last_iteration();
        obs->cycles += rec.timed_cycles;
        obs->reps_cycles += eos_reps_per_elem(d) * rec.timed_cycles;
    }
    {
        scoped_span s(log, "lulesh.answer");
        rec.cycles = d.cycle;
        rec.e0 = d.e[0];
        rec.error = failure.value_or("");
        rec.sym = lulesh::check_energy_symmetry(d);
        rec.digest = hex64(state_digest(d));
    }
    rec.solve_s = seconds_between(t0, clk::now());
    return rec;
}

// ----------------------------------------------------------------- dist job

// The dist probe runs the published problem (s=30 Sedov, r=11, b=1, c=1,
// to stoptime) in z-slabs, with the retry layer and checkpoints armed as
// `distributed_sedov --checkpoint-every 10` arms them.
constexpr index_t dist_slabs = 4;
constexpr int dist_checkpoint_every = 10;

lulesh::options published_problem(std::uint64_t region_seed) {
    lulesh::options o;
    o.size = 30;
    o.num_regions = 11;
    o.balance = 1;
    o.cost = 1;
    o.region_seed = region_seed;
    return o;
}

struct dist_observation {
    int cycles = 0;
    int recoveries = 0;
    std::uint64_t resends = 0;
    std::uint64_t records = 0;
    std::uint64_t record_bytes = 0;
};

/// Global problem in dist_slabs z-slabs, futurized exchange with the retry
/// layer armed as `distributed_sedov --checkpoint-every` arms it, run
/// through dist::run_resilient.  Per-cycle times are not observable from
/// outside run_resilient; the checkpoint hook marks every ckpt_every
/// cycles, so `cycle_ms` gets one sample per checkpoint window (window /
/// cycles).
job_record run_dist_job(const run_config& cfg, int ckpt_every, span_log& log,
                        std::vector<double>* cycle_ms, dist_observation* obs) {
    job_record rec;
    rec.traced = log.armed();
    scoped_span job_span(log, "dist.job");
    amt::resilience().reset();
    const auto t0 = clk::now();
    const auto parts = lulesh::partition_sizes::tuned_for(cfg.problem.size);
    std::optional<lulesh::dist::cluster> cl;
    std::optional<amt::runtime> rt;
    std::optional<lulesh::dist::dist_driver> drv;
    int sid = log.open("bench.setup");
    {
        scoped_span s(log, "dist.cluster");
        cl.emplace(cfg.problem, dist_slabs);
    }
    {
        scoped_span s(log, "amt.runtime");
        rt.emplace(cfg.threads);
    }
    {
        scoped_span s(log, "dist.driver");
        drv.emplace(*rt, parts, lulesh::dist::dist_driver::exchange_mode::futurized,
                    std::chrono::milliseconds(0), lulesh::dist::retry_policy{});
    }
    lulesh::run_result first;
    {
        scoped_span s(log, "dist.run_simulation");
        first = lulesh::dist::run_simulation(*cl, *drv, 1);
    }
    log.close(sid);
    rec.setup_s = seconds_between(t0, clk::now());

    lulesh::dist::dist_resilience_options ropt;
    ropt.checkpoint_every = ckpt_every;
    std::uint64_t records = 0;
    std::uint64_t record_bytes = 0;
    auto last_mark = clk::now();
    int last_cycle = cl->cycle();
    const int entry_cycle = cl->cycle();
    ropt.record_hook = [&](index_t slab, std::string& record) {
        ++records;
        record_bytes += record.size();
        if (slab != 0 || cl->cycle() == entry_cycle) return;
        const auto now = clk::now();
        const int n = cl->cycle() - last_cycle;
        if (cycle_ms != nullptr && n > 0) {
            cycle_ms->push_back(seconds_between(last_mark, now) * 1e3 / n);
        }
        last_mark = now;
        last_cycle = cl->cycle();
    };
    lulesh::dist::dist_resilient_result rr;
    const auto r0 = clk::now();
    if (first.run_status == lulesh::status::ok) {
        scoped_span s(log, "dist.run_resilient");
        rr = lulesh::dist::run_resilient(*cl, *drv, ropt, cfg.problem.max_cycles);
    } else {
        rr.result = first;
    }
    const auto r1 = clk::now();
    rec.timed_s = seconds_between(r0, r1);
    rec.timed_cycles = rr.result.cycles - entry_cycle;
    if (obs != nullptr) {
        obs->cycles += rec.timed_cycles;
        obs->recoveries += rr.recoveries;
        obs->resends += amt::resilience().halo_resends.load();
        obs->records += records;
        obs->record_bytes += record_bytes;
    }
    {
        // Symmetry needs the whole energy field: gather the slabs' e into a
        // global domain (element ids are global plane-major).
        scoped_span s(log, "lulesh.answer");
        rec.cycles = rr.result.cycles;
        rec.code = rr.result.run_status;
        rec.error = rr.result.error_message;
        rec.e0 = rr.result.final_origin_energy;
        lulesh::domain global(cfg.problem);
        for (index_t i = 0; i < cl->num_slabs(); ++i) {
            const auto& sl = cl->slab(i);
            std::copy(sl.e.begin(), sl.e.begin() + sl.numElem(),
                      global.e.begin() + sl.elem_offset());
        }
        rec.sym = lulesh::check_energy_symmetry(global);
    }
    rec.solve_s = seconds_between(t0, clk::now());
    return rec;
}

// --------------------------------------------------------- layer probes

double read_peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
        }
    }
    return 0.0;
}

/// Times `body` on a fresh copy of `snap` `reps` times; median seconds.
template <class Body>
double time_on_copy(const lulesh::domain& snap, int reps, Body body) {
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        lulesh::domain work = snap;
        const auto a = clk::now();
        body(work);
        t.push_back(seconds_between(a, clk::now()));
    }
    return median(t);
}

std::size_t field_bytes(lulesh::field f) {
    switch (f) {
        case lulesh::field::symm_mask: return sizeof(std::uint8_t);
        case lulesh::field::elem_bc: return sizeof(int);
        case lulesh::field::dt_partial: return sizeof(lulesh::kernels::dt_constraints);
        default: return sizeof(real_t);
    }
}

/// Bytes one call touches, computed from its declared access set: distinct
/// indices per (field, read/write) times the element size.  Connectivity
/// arrays are not declared fields and are not counted; caches are ignored.
double declared_bytes(const std::vector<lulesh::graph::access>& accs,
                      const lulesh::domain& d) {
    double bytes = 0.0;
    for (int m = 0; m < 2; ++m) {
        std::map<lulesh::field, std::vector<char>> seen;
        for (const auto& a : accs) {
            if (static_cast<int>(a.m) != m) continue;
            auto& marks = seen[a.f];
            if (marks.empty()) {
                marks.assign(lulesh::graph::space_extent(
                                 lulesh::field_space(a.f), d, 1) + 1, 0);
            }
            lulesh::graph::expand_access(a, d, [&](index_t i) {
                auto& mk = marks[static_cast<std::size_t>(i)];
                if (mk == 0) {
                    mk = 1;
                    bytes += static_cast<double>(field_bytes(a.f));
                }
            });
        }
    }
    return bytes;
}

/// Single-thread per-kernel sweep with no runtime alive, on a snapshot of
/// the workload's domain, using the fused bodies the task driver runs.
json_object kernel_sweep(const lulesh::domain& snap, double reps_per_elem,
                         span_log& log) {
    namespace k = lulesh::kernels;
    constexpr int reps = 5;
    const double ne = static_cast<double>(snap.numElem());
    const double nn = static_cast<double>(snap.numNode());
    const index_t n_el = snap.numElem();
    const index_t n_nd = snap.numNode();
    const real_t dt = snap.deltatime;
    const index_t chunk = lulesh::partition_sizes::tuned_for(snap.size_per_edge()).elems;
    auto timed = [&](const char* name, auto body) {
        scoped_span s(log, name);
        return time_on_copy(snap, reps, body);
    };
    const double fs = timed("lulesh.kernel.force_stress", [&](lulesh::domain& d) {
        k::force_stress_chunk(d, 0, n_el);
    });
    const double fh = timed("lulesh.kernel.force_hourglass", [&](lulesh::domain& d) {
        k::force_hourglass_chunk(d, 0, n_el);
    });
    const double node = timed("lulesh.kernel.node", [&](lulesh::domain& d) {
        k::gather_forces(d, 0, n_nd);
        k::calc_acceleration(d, 0, n_nd);
        k::apply_acceleration_bc_masked(d, 0, n_nd);
        k::velocity_position_chunk(d, 0, n_nd, dt);
    });
    const double kin = timed("lulesh.kernel.kinematics", [&](lulesh::domain& d) {
        k::calc_kinematics(d, 0, n_el, dt);
        k::calc_lagrange_deviatoric(d, 0, n_el);
        k::calc_monotonic_q_gradients(d, 0, n_el);
        k::check_qstop(d, 0, n_el);
        k::apply_material_vnewc(d, 0, n_el);
    });
    const double monoq = timed("lulesh.kernel.monoq", [&](lulesh::domain& d) {
        for (index_t r = 0; r < d.numReg(); ++r) {
            const auto& l = d.regElemList(r);
            k::calc_monotonic_q_region(d, l.data(), 0, static_cast<index_t>(l.size()));
        }
    });
    k::eos_scratch scratch;
    const double eos = timed("lulesh.kernel.eos", [&](lulesh::domain& d) {
        for (index_t r = 0; r < d.numReg(); ++r) {
            const auto& l = d.regElemList(r);
            const auto n = static_cast<index_t>(l.size());
            for (index_t lo = 0; lo < n; lo += chunk) {
                const index_t hi = std::min(n, lo + chunk);
                scratch.resize(static_cast<std::size_t>(hi - lo));
                k::eval_eos_chunk(d, l.data(), lo, hi, 1, scratch);
            }
        }
    });
    const double vol = timed("lulesh.kernel.volume", [&](lulesh::domain& d) {
        k::update_volumes(d, 0, n_el);
    });
    const double cons = timed("lulesh.kernel.constraints", [&](lulesh::domain& d) {
        for (index_t r = 0; r < d.numReg(); ++r) {
            const auto& l = d.regElemList(r);
            (void)k::calc_time_constraints(d, l.data(), 0, static_cast<index_t>(l.size()));
        }
    });

    double bytes_eos = 0.0;
    for (index_t r = 0; r < snap.numReg(); ++r) {
        const auto& l = snap.regElemList(r);
        bytes_eos += declared_bytes(lulesh::graph::region_eos_accesses(
                                        l.data(), 0, static_cast<index_t>(l.size())),
                                    snap);
    }
    bytes_eos /= ne;
    const double bytes_fs =
        declared_bytes(lulesh::graph::force_stress_accesses(0, n_el), snap) / ne;
    const double bytes_fh =
        declared_bytes(lulesh::graph::force_hourglass_accesses(0, n_el), snap) / ne;

    auto per_elem = [&](double s) { return s * 1e9 / ne; };
    const double work = per_elem(fs) + per_elem(fh) + node * 1e9 / ne +
                        per_elem(kin) + per_elem(monoq) +
                        per_elem(eos) * reps_per_elem + per_elem(vol) + per_elem(cons);
    json_object o;
    o.num("force_stress.ns_per_elem", per_elem(fs))
        .num("force_hourglass.ns_per_elem", per_elem(fh))
        .num("node.ns_per_node", node * 1e9 / nn)
        .num("kinematics.ns_per_elem", per_elem(kin))
        .num("monoq.ns_per_elem", per_elem(monoq))
        .num("eos.ns_per_elem_rep", per_elem(eos))
        .num("volume.ns_per_elem", per_elem(vol))
        .num("constraints.ns_per_elem", per_elem(cons))
        .num("work_ns_per_zone_cycle", work)
        .num("force_stress.bytes_per_elem", bytes_fs)
        .num("force_hourglass.bytes_per_elem", bytes_fh)
        .num("eos.bytes_per_elem", bytes_eos)
        .num("force_stress.gbps", bytes_fs / per_elem(fs))
        .num("force_hourglass.gbps", bytes_fh / per_elem(fh))
        .num("eos.gbps", bytes_eos / per_elem(eos));
    return o;
}

/// Times cycles [1, cycles) of a fresh run with `drv`; returns µs per zone
/// per cycle.  The first cycle (cold caches, graph compile) is excluded, as
/// in the workload's own grind_us.
double window_grind_us(const lulesh::options& o, lulesh::driver& drv, int cycles) {
    lulesh::domain d(o);
    double s = 0.0;
    int timed = 0;
    for (int c = 0; c < cycles && d.time_ < d.stoptime; ++c) {
        const auto a = clk::now();
        lulesh::kernels::time_increment(d);
        drv.advance(d);
        if (c > 0) {
            s += seconds_between(a, clk::now());
            ++timed;
        }
    }
    return timed > 0 ? s * 1e6 / (static_cast<double>(d.numElem()) * timed) : 0.0;
}

/// Runtime costs with no workload: empty-task round trip, a when_all
/// barrier over one task per worker, and replay of an empty static_graph
/// with `nodes` nodes.
json_object amt_micro(std::size_t threads, std::size_t nodes, span_log& log) {
    amt::runtime rt(threads);
    auto per_op_ns = [](int n, auto op) {
        std::vector<double> batches;
        for (int b = 0; b < 5; ++b) {
            const auto a = clk::now();
            for (int i = 0; i < n; ++i) op();
            batches.push_back(seconds_between(a, clk::now()) * 1e9 / n);
        }
        return median(batches);
    };
    double task_ns = 0.0;
    double barrier_ns = 0.0;
    double replay_ns = 0.0;
    {
        scoped_span s(log, "amt.task_round_trip");
        task_ns = per_op_ns(2000, [&] { amt::async(rt, [] {}).get(); });
    }
    {
        scoped_span s(log, "amt.when_all_barrier");
        barrier_ns = per_op_ns(1000, [&] {
            std::vector<amt::future<void>> fs;
            for (std::size_t w = 0; w < rt.num_workers(); ++w) {
                fs.push_back(amt::async(rt, [] {}));
            }
            amt::when_all_void(std::move(fs)).get();
        });
    }
    {
        scoped_span s(log, "amt.static_graph_replay");
        amt::static_graph g;
        for (std::size_t i = 0; i < nodes; ++i) g.add_node([] {});
        g.seal();
        replay_ns = per_op_ns(200, [&] { g.run(rt); }) / static_cast<double>(nodes);
    }
    json_object o;
    o.num("task_ns", task_ns).num("barrier_ns", barrier_ns).num("replay_ns_per_node", replay_ns);
    return o;
}

/// Compile time of the replay graph and the critical path of the compiled
/// iteration, on a fresh domain of the workload's problem.
json_object core_probe(const run_config& cfg, int cycles, span_log& log) {
    const auto parts = lulesh::partition_sizes::tuned_for(cfg.problem.size);
    json_object o;
    amt::runtime rt(cfg.threads);
    {
        scoped_span s(log, "core.compile");
        lulesh::domain d(cfg.problem);
        lulesh::graph::error_flags flags;
        std::vector<double> t;
        for (int r = 0; r < 5; ++r) {
            const auto a = clk::now();
            lulesh::graph::compiled_iteration ci(rt, d, {parts}, flags);
            t.push_back(seconds_between(a, clk::now()));
        }
        o.num("compile_ms", median(t) * 1e3);
    }
    scoped_span s(log, "core.critical_path");
    lulesh::domain d(cfg.problem);
    lulesh::taskgraph_driver drv(rt, parts);
    drv.enable_node_profiling(true);
    for (int c = 0; c < cycles && d.time_ < d.stoptime; ++c) {
        lulesh::kernels::time_increment(d);
        drv.advance(d);
    }
    const auto cp = lulesh::analyze_critical_path(*drv.compiled(), rt.num_workers());
    o.num("critical_path_ms", cp.critical_path_ns * 1e-6)
        .num("parallelism", cp.ideal_speedup);
    return o;
}

// -------------------------------------------------------------------- modes

int mode_serial_ref(const args& a) {
    const lulesh::options o = problem_from(a);
    lulesh::domain d(o);
    lulesh::serial_driver drv;
    const auto r = lulesh::run_simulation(d, drv, o.max_cycles);
    std::printf("%s\n", json_object{}
                            .num("cycles", r.cycles)
                            .str("status", lulesh::status_name(r.run_status))
                            .num("e0", r.final_origin_energy)
                            .str("digest", hex64(state_digest(d)))
                            .text()
                            .c_str());
    return 0;
}

std::string env_json() {
    return json_object{}
        .str("compiler", PERFBENCH_COMPILER)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .num("hardware_threads", std::thread::hardware_concurrency())
        .text();
}

/// The EOS repetitions per element of each region map, for run.py to order
/// the jobs by.
int mode_eos_reps(const args& a) {
    lulesh::options o = problem_from(a);
    std::vector<double> reps;
    for (const auto seed : a.seeds("region-seeds")) {
        o.region_seed = seed;
        reps.push_back(eos_reps_per_elem(lulesh::domain(o)));
    }
    std::printf("%s\n", json_object{}.nums("reps", reps).text().c_str());
    return 0;
}

int mode_run(const args& a) {
    run_config cfg;
    cfg.problem = problem_from(a);
    const std::vector<std::uint64_t> seeds = a.seeds("region-seeds");
    std::size_t next_seed = 0;
    auto next_job = [&] {
        cfg.problem.region_seed = seeds[next_seed++ % seeds.size()];
    };
    cfg.threads = static_cast<std::size_t>(a.num("threads"));
    cfg.seconds = static_cast<double>(a.num("seconds"));
    cfg.shared_runtime = a.num_or("shared-runtime", 0) != 0;
    cfg.snapshot_cycle = static_cast<int>(a.num_or("snapshot-cycle", 1));
    const int probe_cycles = static_cast<int>(a.num_or("probe-cycles", 60));
    const bool trace = a.num_or("trace", 0) != 0;
    const std::string spans_out = a.str_or("spans-out", "");
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    if (cfg.threads < 1 || cfg.threads > hw) {
        throw std::invalid_argument("--threads must be in [1, hardware threads]");
    }

    span_log log;
    std::vector<job_record> jobs;
    std::vector<double> cycle_ms;
    std::vector<double> setups;
    tg_observation tg_obs;
    dist_observation dist_obs;
    json_object layers;
    const index_t zones = cfg.problem.size * cfg.problem.size * cfg.problem.size;

    const auto start = clk::now();
    auto elapsed = [&] { return seconds_between(start, clk::now()); };
    auto need_more = [&] {
        return jobs.empty() || elapsed() < cfg.seconds ||
               static_cast<int>(cycle_ms.size()) < cfg.min_cycle_samples;
    };
    log.arm(trace);
    const int run_span = log.open("bench.run");
    {
        std::optional<amt::runtime> shared;
        if (cfg.shared_runtime) shared.emplace(cfg.threads);
        amt::runtime* srt = shared ? &*shared : nullptr;
        // With --trace 1, jobs come in pairs on one region map: untraced,
        // then traced, so each pair's cost ratio is the tracing overhead.
        bool traced_next = false;
        while (need_more() || (trace && traced_next)) {
            log.arm(trace && traced_next);
            if (!log.armed()) next_job();
            auto rec = run_taskgraph_job(cfg, srt, log, &cycle_ms,
                                         log.armed() ? &tg_obs : nullptr, false);
            setups.push_back(rec.setup_s);
            jobs.push_back(std::move(rec));
            traced_next = trace && !traced_next;
        }
        log.arm(false);
        while (static_cast<int>(setups.size()) < cfg.setup_reps) {
            next_job();
            setups.push_back(run_taskgraph_job(cfg, srt, log, nullptr, nullptr, true).setup_s);
        }
    }
    const double peak_rss = read_peak_rss_mb();

    if (trace) {
        // Each probe keeps only the executor it measures alive: the
        // workload's runtime is gone, and the serial and kernel probes run
        // with no runtime or team at all.  The probes run the first job
        // pair's region map, so the paper's ratios compare like with like.
        log.arm(true);
        cfg.problem.region_seed = seeds.front();
        const lulesh::options window = cfg.problem;
        {
            // The dist layer, whatever the workload: the published problem
            // in slabs with checkpoints, the same without (entry snapshot
            // only), and one single-domain taskgraph job of it.
            run_config dcfg = cfg;
            dcfg.problem = published_problem(seeds.front());
            std::vector<double> windows;
            const auto ckpt = run_dist_job(dcfg, dist_checkpoint_every, log, &windows, &dist_obs);
            const auto plain = run_dist_job(dcfg, 0, log, nullptr, nullptr);
            const auto single = run_taskgraph_job(dcfg, nullptr, log, nullptr, nullptr, false);
            const auto per_cycle = [](const job_record& j) {
                return j.timed_s / std::max(1, j.timed_cycles);
            };
            const index_t dz = dcfg.problem.size * dcfg.problem.size * dcfg.problem.size;
            json_object d;
            d.num("cycles", dist_obs.cycles)
                .num("slabs", dist_slabs)
                .num("recoveries", dist_obs.recoveries)
                .num("resends", static_cast<double>(dist_obs.resends))
                .num("records", static_cast<double>(dist_obs.records))
                .num("record_bytes", static_cast<double>(dist_obs.record_bytes))
                .num("elems_per_plane", static_cast<double>(dcfg.problem.size * dcfg.problem.size))
                .num("cycle_ms_p50", median(windows))
                .num("decomp_overhead", per_cycle(ckpt) / per_cycle(single))
                .num("ckpt_over_plain", per_cycle(ckpt) / per_cycle(plain))
                .raw("jobs", json_array({ckpt.json(dz), plain.json(dz)}));
            layers.raw("dist.run", d.text());
        }
        {
            scoped_span s(log, "lulesh.serial_window");
            lulesh::serial_driver drv;
            layers.num("lulesh.serial.grind_us", window_grind_us(window, drv, probe_cycles));
        }
        {
            scoped_span s(log, "ompsim.parallel_for_window");
            ompsim::team team(cfg.threads);
            lulesh::parallel_for_driver drv(team);
            team.reset_timing();
            layers.num("ompsim.grind_us", window_grind_us(window, drv, probe_cycles));
            layers.num("ompsim.productive_ratio", team.snapshot_timing().productive_ratio());
        }
        if (tg_obs.snapshot) {
            layers.raw("lulesh.kernel",
                       kernel_sweep(*tg_obs.snapshot,
                                    tg_obs.reps_cycles / std::max(1, tg_obs.cycles), log)
                           .text());
        }
        const std::size_t nodes = std::max<std::size_t>(tg_obs.tasks_per_cycle, 1);
        layers.raw("amt.micro", amt_micro(cfg.threads, nodes, log).text());
        layers.raw("core.probe", core_probe(cfg, probe_cycles, log).text());
        log.close(run_span);
        log.arm(false);

        const auto& c = tg_obs.counters;
        const double cyc = std::max(1, tg_obs.cycles);
        json_object amt_run;
        amt_run.num("tasks_per_cycle", static_cast<double>(tg_obs.tasks_per_cycle))
            .num("productive_ratio", c.productive_ratio())
            .num("busy_ns_per_cycle", static_cast<double>(c.productive_ns) / cyc)
            .num("idle_ms_per_cycle",
                 (static_cast<double>(c.wall_ns) * static_cast<double>(c.num_workers) -
                  static_cast<double>(c.productive_ns)) / cyc * 1e-6)
            .num("steals_per_cycle", static_cast<double>(c.steals) / cyc);
        layers.raw("amt.run", amt_run.text());
        json_object phases;
        const double it = std::max(1, tg_obs.profile.iterations);
        for (std::size_t p = 0; p < lulesh::phase_profile::num_phases; ++p) {
            phases.num(lulesh::phase_profile::name(p), tg_obs.profile.seconds[p] * 1e3 / it);
        }
        layers.raw("core.phase_ms", phases.text());
        layers.nums("traced_cycle_ms", tg_obs.cycle_ms);
        json_object self;
        for (const auto& [layer, sec] : log.self_seconds()) self.num(layer, sec);
        layers.raw("self_s", self.text());
        layers.num("spans", static_cast<double>(log.size()));
        if (!spans_out.empty() && !log.write(spans_out)) {
            throw std::runtime_error("cannot write spans to " + spans_out);
        }
    }

    std::vector<std::string> job_json;
    for (const auto& j : jobs) job_json.push_back(j.json(zones));
    json_object out;
    out.raw("env", env_json())
        .raw("jobs", json_array(job_json))
        .nums("setup_s", setups)
        .nums("cycle_ms", cycle_ms)
        .num("peak_rss_mb", peak_rss)
        .num("zones", static_cast<double>(zones))
        .raw("layers", layers.text());
    std::printf("%s\n", out.text().c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        if (argc < 2) throw std::invalid_argument("usage: perfbench_cpp serial-ref|eos-reps|run --key value ...");
        const std::string mode = argv[1];
        const args a(argc, argv);
        if (mode == "serial-ref") return mode_serial_ref(a);
        if (mode == "eos-reps") return mode_eos_reps(a);
        if (mode == "run") return mode_run(a);
        throw std::invalid_argument("unknown mode " + mode);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_cpp: %s\n", e.what());
        return 2;
    }
}
