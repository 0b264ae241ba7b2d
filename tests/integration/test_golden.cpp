// Golden answers (`ctest -L golden`): complete Sedov runs pinned to fixed
// numbers rather than to another driver of this code, so a physics change
// that every driver shares still fails here.
//
//  * s=30 to stoptime is the published LULESH 2.0 result: 932 cycles and a
//    final origin energy printed as 2.025075e+05.
//  * s=10 to stoptime is pinned to the serial driver's exact e(0) bits,
//    recorded before the EOS became one fused pass per repetition.
//
// Each run also keeps the Sedov symmetry: energies of elements that mirror
// each other agree to a relative 1e-8 (round-off leaves about 1e-12).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "amt/amt.hpp"
#include "core/driver_taskgraph.hpp"
#include "lulesh/driver.hpp"
#include "lulesh/driver_parallel_for.hpp"
#include "lulesh/validate.hpp"
#include "ompsim/ompsim.hpp"

namespace {

using lulesh::domain;
using lulesh::index_t;
using lulesh::options;
using lulesh::real_t;

struct golden_run {
    lulesh::run_result result;
    real_t sym_max_rel = 0.0;
};

/// Runs the default Sedov problem of size `size` to stoptime on `driver`
/// with 4 threads.
golden_run run_to_stoptime(index_t size, const std::string& driver) {
    options o;
    o.size = size;
    auto d = std::make_unique<domain>(o);
    golden_run g;
    if (driver == "serial") {
        lulesh::serial_driver drv;
        g.result = lulesh::run_simulation(*d, drv);
    } else if (driver == "parallel_for") {
        ompsim::team team(4);
        lulesh::parallel_for_driver drv(team);
        g.result = lulesh::run_simulation(*d, drv);
    } else {
        amt::runtime rt(4);
        lulesh::taskgraph_driver drv(rt,
                                     lulesh::partition_sizes::tuned_for(size));
        g.result = lulesh::run_simulation(*d, drv);
    }
    g.sym_max_rel = lulesh::check_energy_symmetry(*d).max_rel_diff;
    return g;
}

std::string driver_name(const ::testing::TestParamInfo<const char*>& info) {
    return info.param;
}

std::string printed(real_t e) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6e", e);
    return buf;
}

class GoldenS30 : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenS30, MatchesThePublishedReference) {
    const golden_run g = run_to_stoptime(30, GetParam());
    EXPECT_EQ(g.result.run_status, lulesh::status::ok);
    EXPECT_EQ(g.result.cycles, 932);
    EXPECT_EQ(printed(g.result.final_origin_energy), "2.025075e+05");
    EXPECT_LE(g.sym_max_rel, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Drivers, GoldenS30,
                         ::testing::Values("taskgraph", "parallel_for"),
                         driver_name);

class GoldenS10 : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenS10, MatchesTheRecordedSerialAnswerBitwise) {
    const golden_run g = run_to_stoptime(10, GetParam());
    EXPECT_EQ(g.result.run_status, lulesh::status::ok);
    EXPECT_EQ(g.result.cycles, 231);
    // 27205.311684703462, printed 2.720531e+04.
    EXPECT_EQ(g.result.final_origin_energy, 0x1.a9153f2a46602p+14);
    EXPECT_LE(g.sym_max_rel, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Drivers, GoldenS10,
                         ::testing::Values("serial", "taskgraph",
                                           "parallel_for"),
                         driver_name);

}  // namespace
