// ndb_bench: pipeline + table-engine micro-benchmark harness.
//
//   ndb_bench [--packets N] [--lookups N] [--seeds N] [--threads T]
//             [--out BENCH_pipeline.json] [--baseline FILE]
//
// Three benches, written as one JSON document so the repo has a perf
// trajectory across PRs:
//
//   * pipeline  -- packets/sec through the reference device for every
//                  fuzzable catalogue program (config applied once, the
//                  scenario's packet stream replayed in batches), plus a
//                  coverage-instrumented pass and the derived
//                  coverage-overhead row (the cost of the CoverageMap hooks
//                  when enabled);
//   * tables    -- lookups/sec per match-engine kind on populated engines
//                  (1k-entry exact, 1k-prefix LPM, 256-row ternary);
//   * campaign  -- scenarios/sec and packets/sec of a bounded differential
//                  campaign sweep (the end-to-end number CI tracks).
//
// --baseline FILE compares the run against committed reference numbers and
// exits non-zero when pipeline packets/sec regresses by more than 30% or a
// per-program floor is missed, so CI catches hot-path regressions without
// flaking on machine variance.
// --coverage-gate PCT additionally fails the run when the enabled-coverage
// pass costs more than PCT percent of aggregate pipeline throughput.
// --metrics-gate PCT does the same for the telemetry layer: a fourth
// interleaved pass runs with metrics + tracing enabled, reports each
// program's sampled packet-latency percentiles (p50/p90/p99 ns), and fails
// the run when telemetry costs more than PCT percent of throughput.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "core/generator.h"
#include "core/specgen.h"
#include "coverage/coverage.h"
#include "dataplane/tables.h"
#include "obs/telemetry.h"
#include "target/device.h"
#include "util/strings.h"

namespace {

using Clock = std::chrono::steady_clock;
using ndb::util::Bitvec;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration_cast<std::chrono::duration<double>>(
               Clock::now() - t0)
        .count();
}

struct ProgramBench {
    std::string name;
    std::uint64_t packets = 0;
    double seconds = 0;
    double pps = 0;
};

struct ProgramRow {
    ProgramBench plain;
    // Sampled whole-packet latency percentiles from the telemetry pass.
    std::uint64_t p50_ns = 0;
    std::uint64_t p90_ns = 0;
    std::uint64_t p99_ns = 0;
};

// Replays one catalogue scenario's packet stream through a reference device
// until ~`target_packets` injections have happened; returns packets/sec.
// When `coverage` is non-null the device streams execution edges into it
// (the instrumented pass the coverage-overhead row is derived from).
ProgramBench bench_program(const std::string& name, std::uint64_t target_packets,
                           ndb::coverage::CoverageMap* coverage = nullptr) {
    ndb::core::SpecGenerator gen({name});
    const ndb::core::Scenario sc = gen.make(/*seed=*/42);

    auto dev = ndb::target::make_device("reference");
    if (!dev || !dev->load(*sc.compiled)) {
        std::fprintf(stderr, "bench: cannot set up program '%s'\n", name.c_str());
        std::exit(1);
    }
    dev->set_coverage(coverage);
    dev->apply(sc.config);

    ndb::core::TestPacketGenerator pgen(sc.spec);
    std::vector<ndb::packet::Packet> stream;
    stream.reserve(sc.spec.count);
    for (std::uint64_t seq = 1; seq <= sc.spec.count; ++seq) {
        stream.push_back(pgen.make_packet(seq, 1'000'000 + (seq - 1) * 672));
    }

    ProgramBench out;
    out.name = name;
    std::vector<ndb::packet::Packet> drained;
    const auto t0 = Clock::now();
    while (out.packets < target_packets) {
        for (const auto& pkt : stream) {
            dev->inject(pkt);
            ++out.packets;
        }
        for (int p = 0; p < dev->config().num_ports; ++p) {
            drained.clear();
            dev->drain_port_into(static_cast<std::uint32_t>(p), drained);
        }
    }
    out.seconds = seconds_since(t0);
    out.pps = out.seconds > 0 ? static_cast<double>(out.packets) / out.seconds : 0;
    return out;
}

struct EngineBench {
    std::string kind;
    std::size_t entries = 0;
    std::uint64_t lookups = 0;
    double seconds = 0;
    double lps = 0;
};

EngineBench bench_engine(const std::string& kind, ndb::dataplane::MatchEngine& eng,
                         std::size_t entries,
                         const std::vector<std::vector<Bitvec>>& probes,
                         std::uint64_t target_lookups) {
    EngineBench out;
    out.kind = kind;
    out.entries = entries;
    std::uint64_t hits = 0;
    const auto t0 = Clock::now();
    while (out.lookups < target_lookups) {
        for (const auto& probe : probes) {
            if (eng.lookup(probe)) ++hits;
            ++out.lookups;
        }
    }
    out.seconds = seconds_since(t0);
    out.lps = out.seconds > 0 ? static_cast<double>(out.lookups) / out.seconds : 0;
    if (hits == 0) std::fprintf(stderr, "bench: %s saw no hits\n", kind.c_str());
    return out;
}

// Deterministic 64-bit mix for synthetic keys.
std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdull;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ull;
    x ^= x >> 33;
    return x;
}

std::vector<EngineBench> bench_tables(std::uint64_t target_lookups) {
    using namespace ndb::dataplane;
    std::vector<EngineBench> out;

    {  // exact: 1k entries over a 48-bit key, probes alternate hit/miss
        constexpr int kWidth = 48;
        constexpr std::size_t kEntries = 1024;
        auto indexed = make_exact_engine(kWidth, kEntries);
        auto naive = make_naive_exact_engine(kWidth, kEntries);
        for (std::size_t i = 0; i < kEntries; ++i) {
            TableEntry e;
            e.key_values = {Bitvec(kWidth, mix(i))};
            e.action_id = static_cast<int>(i & 7);
            indexed->insert(e);
            naive->insert(e);
        }
        std::vector<std::vector<Bitvec>> probes;
        for (std::size_t i = 0; i < 256; ++i) {
            probes.push_back({Bitvec(kWidth, i % 2 ? mix(i) : mix(i) + 1)});
        }
        out.push_back(bench_engine("exact", *indexed, kEntries, probes, target_lookups));
        out.push_back(bench_engine("exact_naive", *naive, kEntries, probes,
                                   target_lookups / 8));
    }

    {  // lpm: 1k prefixes across lengths 8..32 on a 32-bit key
        constexpr int kWidth = 32;
        constexpr std::size_t kEntries = 1024;
        auto indexed = make_lpm_engine(kWidth, kEntries);
        auto naive = make_naive_lpm_engine(kWidth, kEntries);
        std::size_t inserted = 0;
        for (std::size_t i = 0; inserted < kEntries; ++i) {
            TableEntry e;
            const int plen = 8 + static_cast<int>(i % 25);
            e.key_values = {Bitvec(kWidth, mix(i) & (~0ull << (kWidth - plen)))};
            e.prefix_len = plen;
            e.action_id = static_cast<int>(i & 7);
            if (indexed->insert(e) == InsertStatus::ok) ++inserted;
            naive->insert(e);
        }
        std::vector<std::vector<Bitvec>> probes;
        for (std::size_t i = 0; i < 256; ++i) {
            probes.push_back({Bitvec(kWidth, mix(i * 3))});
        }
        out.push_back(bench_engine("lpm", *indexed, kEntries, probes, target_lookups));
        out.push_back(bench_engine("lpm_naive", *naive, kEntries, probes,
                                   target_lookups / 8));
    }

    {  // ternary: 256 overlapping masked rows over a 48-bit key
        constexpr int kWidth = 48;
        constexpr std::size_t kEntries = 256;
        auto indexed = make_ternary_engine(kWidth, kEntries, /*inverted=*/false);
        auto naive = make_naive_ternary_engine(kWidth, kEntries, /*inverted=*/false);
        for (std::size_t i = 0; i < kEntries; ++i) {
            TableEntry e;
            e.key_values = {Bitvec(kWidth, mix(i))};
            e.key_masks = {Bitvec(kWidth, mix(i * 7) | 0xffffull)};
            e.priority = static_cast<int>(i % 17);
            e.action_id = static_cast<int>(i & 7);
            indexed->insert(e);
            naive->insert(e);
        }
        std::vector<std::vector<Bitvec>> probes;
        for (std::size_t i = 0; i < 256; ++i) {
            probes.push_back({Bitvec(kWidth, mix(i * 5))});
        }
        out.push_back(
            bench_engine("ternary", *indexed, kEntries, probes, target_lookups / 4));
        out.push_back(bench_engine("ternary_naive", *naive, kEntries, probes,
                                   target_lookups / 32));
    }

    return out;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--packets N] [--lookups N] [--seeds N] [--threads T]\n"
                 "          [--out FILE] [--baseline FILE] [--coverage-gate PCT]\n"
                 "          [--metrics-gate PCT]\n",
                 argv0);
    return 2;
}

// Strict numeric option parsing: non-numeric text, trailing junk, overflow
// and zero are usage errors, never a silent 0-iteration benchmark (what
// the old atoi/strtoull calls degenerated to).
std::uint64_t parse_count(const char* flag, const char* text,
                          std::uint64_t min_value, std::uint64_t max_value) {
    std::uint64_t v = 0;
    if (!ndb::util::parse_u64(text, v) || v < min_value || v > max_value) {
        std::fprintf(stderr, "%s wants an integer in [%llu, %llu], got '%s'\n",
                     flag, static_cast<unsigned long long>(min_value),
                     static_cast<unsigned long long>(max_value), text);
        std::exit(2);
    }
    return v;
}

// Pulls `"key": <number>` out of a flat JSON document (enough for the
// baseline files this tool writes itself).
bool json_number(const std::string& doc, const std::string& key, double& out) {
    const std::string needle = "\"" + key + "\":";
    const auto pos = doc.find(needle);
    if (pos == std::string::npos) return false;
    out = std::strtod(doc.c_str() + pos + needle.size(), nullptr);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    using ndb::util::format;

    std::uint64_t packets = 200'000;
    std::uint64_t lookups = 2'000'000;
    std::uint64_t seeds = 400;
    int threads = 2;
    std::string out_path = "BENCH_pipeline.json";
    std::string baseline_path;
    double coverage_gate_pct = -1.0;  // <0 = report only, no gate
    double metrics_gate_pct = -1.0;   // <0 = report only, no gate

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--packets") {
            packets = parse_count("--packets", value(), 1, 1ull << 32);
        } else if (arg == "--lookups") {
            lookups = parse_count("--lookups", value(), 1, 1ull << 32);
        } else if (arg == "--seeds") {
            seeds = parse_count("--seeds", value(), 1, 1u << 24);
        } else if (arg == "--threads" || arg == "-j") {
            threads =
                static_cast<int>(parse_count("--threads", value(), 1, 64));
        } else if (arg == "--out" || arg == "-o") {
            out_path = value();
        } else if (arg == "--baseline") {
            baseline_path = value();
        } else if (arg == "--coverage-gate") {
            const char* text = value();
            if (!ndb::util::parse_double(text, coverage_gate_pct) ||
                coverage_gate_pct < 0.0 || coverage_gate_pct > 100.0) {
                std::fprintf(stderr,
                             "--coverage-gate wants a percentage in [0,100], "
                             "got '%s'\n",
                             text);
                return 2;
            }
        } else if (arg == "--metrics-gate") {
            const char* text = value();
            if (!ndb::util::parse_double(text, metrics_gate_pct) ||
                metrics_gate_pct < 0.0 || metrics_gate_pct > 100.0) {
                std::fprintf(stderr,
                             "--metrics-gate wants a percentage in [0,100], "
                             "got '%s'\n",
                             text);
                return 2;
            }
        } else {
            return usage(argv[0]);
        }
    }

    // --- pipeline ------------------------------------------------------------
    // Each program runs twice back to back: a plain pass and a pass with
    // coverage instrumentation streaming into one shared map.  The
    // interleaving matters for the overhead gate below -- a transient
    // slowdown on a noisy CI runner lands on both sums instead of
    // masquerading as instrumentation cost.
    ndb::coverage::CoverageMap coverage_map;
    std::vector<ProgramRow> programs;
    std::uint64_t total_packets = 0;
    double total_seconds = 0;
    std::uint64_t cov_packets = 0;
    double cov_seconds = 0;
    std::uint64_t tel_packets = 0;
    double tel_seconds = 0;
    for (const auto& name : ndb::core::SpecGenerator::default_programs()) {
        // Interleave the three passes per program (plain, coverage,
        // telemetry) so runner noise lands on all sums at once.
        ProgramRow row;
        row.plain = bench_program(name, packets);
        std::printf("pipeline  %-16s %9.0f pkts/sec\n", name.c_str(),
                    row.plain.pps);
        total_packets += row.plain.packets;
        total_seconds += row.plain.seconds;

        const ProgramBench cov = bench_program(name, packets, &coverage_map);
        cov_packets += cov.packets;
        cov_seconds += cov.seconds;

        // Telemetry pass: the full layer (metrics + tracing) enabled only
        // for the duration, reset per program so the latency histogram
        // covers exactly this program's packets.
        ndb::obs::Telemetry::set_enabled(true, true);
        ndb::obs::Telemetry::reset();
        const ProgramBench tel = bench_program(name, packets);
        const ndb::obs::MetricsSnapshot snap =
            ndb::obs::Metrics::instance().snapshot();
        ndb::obs::Telemetry::set_enabled(false, false);
        tel_packets += tel.packets;
        tel_seconds += tel.seconds;
        const ndb::obs::HistogramData& lat = snap.hists[static_cast<std::size_t>(
            ndb::obs::Hist::packet_ns)];
        row.p50_ns = lat.percentile(50.0);
        row.p90_ns = lat.percentile(90.0);
        row.p99_ns = lat.percentile(99.0);
        std::printf("latency   %-16s p50 %6llu ns, p90 %6llu ns, p99 %6llu ns "
                    "(sampled)\n",
                    name.c_str(), static_cast<unsigned long long>(row.p50_ns),
                    static_cast<unsigned long long>(row.p90_ns),
                    static_cast<unsigned long long>(row.p99_ns));
        programs.push_back(std::move(row));
    }
    const double pipeline_pps =
        total_seconds > 0 ? static_cast<double>(total_packets) / total_seconds : 0;
    std::printf("pipeline  %-16s %9.0f pkts/sec\n", "(aggregate)",
                pipeline_pps);

    const double coverage_pps =
        cov_seconds > 0 ? static_cast<double>(cov_packets) / cov_seconds : 0;
    const double coverage_overhead_pct =
        pipeline_pps > 0 ? 100.0 * (1.0 - coverage_pps / pipeline_pps) : 0;
    std::printf("pipeline  %-16s %9.0f pkts/sec (coverage on: %.1f%% overhead, "
                "%zu edges)\n",
                "(coverage)", coverage_pps, coverage_overhead_pct,
                coverage_map.edges_covered());

    const double telemetry_pps =
        tel_seconds > 0 ? static_cast<double>(tel_packets) / tel_seconds : 0;
    const double telemetry_overhead_pct =
        pipeline_pps > 0 ? 100.0 * (1.0 - telemetry_pps / pipeline_pps) : 0;
    std::printf("pipeline  %-16s %9.0f pkts/sec (telemetry on: %.1f%% "
                "overhead)\n",
                "(telemetry)", telemetry_pps, telemetry_overhead_pct);

    // --- tables --------------------------------------------------------------
    const std::vector<EngineBench> engines = bench_tables(lookups);
    for (const auto& e : engines) {
        std::printf("tables    %-16s %9.0f lookups/sec (%zu entries)\n",
                    e.kind.c_str(), e.lps, e.entries);
    }

    // --- campaign ------------------------------------------------------------
    ndb::core::CampaignConfig config;
    config.scenarios = seeds;
    config.threads = threads;
    ndb::core::CampaignEngine engine(config);
    const ndb::core::CampaignReport report = engine.run();
    const ndb::core::CampaignStats& stats = engine.stats();
    std::printf("campaign  %-16s %9.1f scenarios/sec, %.0f pkts/sec\n", "(sweep)",
                stats.scenarios_per_sec, stats.packets_per_sec);

    // --- JSON ----------------------------------------------------------------
    std::string json = "{\n";
    json += "  \"bench\": \"pipeline\",\n";
    json += format("  \"pipeline_pps\": %.1f,\n", pipeline_pps);
    json += format("  \"pipeline_coverage_pps\": %.1f,\n", coverage_pps);
    json += format("  \"coverage_overhead_pct\": %.2f,\n", coverage_overhead_pct);
    json += format("  \"coverage_edges\": %zu,\n", coverage_map.edges_covered());
    json += format("  \"pipeline_telemetry_pps\": %.1f,\n", telemetry_pps);
    json += format("  \"telemetry_overhead_pct\": %.2f,\n",
                   telemetry_overhead_pct);
    json += "  \"programs\": [";
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const auto& row = programs[i];
        json += i ? ",\n    " : "\n    ";
        json += format("{\"name\": \"%s\", \"packets\": %llu, "
                       "\"seconds\": %.6f, \"pps\": %.1f, "
                       "\"latency_p50_ns\": %llu, \"latency_p90_ns\": %llu, "
                       "\"latency_p99_ns\": %llu}",
                       row.plain.name.c_str(),
                       static_cast<unsigned long long>(row.plain.packets),
                       row.plain.seconds, row.plain.pps,
                       static_cast<unsigned long long>(row.p50_ns),
                       static_cast<unsigned long long>(row.p90_ns),
                       static_cast<unsigned long long>(row.p99_ns));
    }
    json += "\n  ],\n";
    json += "  \"tables\": [";
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const auto& e = engines[i];
        json += i ? ",\n    " : "\n    ";
        json += format("{\"kind\": \"%s\", \"entries\": %zu, "
                       "\"lookups\": %llu, \"seconds\": %.6f, "
                       "\"lookups_per_sec_%s\": %.1f}",
                       e.kind.c_str(), e.entries,
                       static_cast<unsigned long long>(e.lookups), e.seconds,
                       e.kind.c_str(), e.lps);
    }
    json += "\n  ],\n";
    json += format("  \"campaign_scenarios\": %llu,\n",
                   static_cast<unsigned long long>(seeds));
    json += format("  \"campaign_threads\": %d,\n", threads);
    json += format("  \"campaign_scenarios_per_sec\": %.1f,\n",
                   stats.scenarios_per_sec);
    json += format("  \"campaign_packets_per_sec\": %.1f,\n",
                   stats.packets_per_sec);
    json += format("  \"campaign_divergences_unique\": %zu\n",
                   report.divergences.size());
    json += "}\n";

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    out << json;
    std::printf("wrote %s\n", out_path.c_str());

    // --- baseline gate -------------------------------------------------------
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        if (!in) {
            std::fprintf(stderr, "cannot read baseline %s\n", baseline_path.c_str());
            return 1;
        }
        std::stringstream buf;
        buf << in.rdbuf();
        const std::string doc = buf.str();
        double base_pps = 0;
        if (!json_number(doc, "pipeline_pps", base_pps) || base_pps <= 0) {
            std::fprintf(stderr, "baseline %s has no pipeline_pps\n",
                         baseline_path.c_str());
            return 1;
        }
        const double floor = base_pps * 0.7;
        std::printf("baseline gate: pipeline_pps %.0f vs committed %.0f "
                    "(floor %.0f)\n",
                    pipeline_pps, base_pps, floor);
        if (pipeline_pps < floor) {
            std::fprintf(stderr,
                         "FAIL: pipeline packets/sec regressed more than 30%% "
                         "(%.0f < %.0f)\n",
                         pipeline_pps, floor);
            return 1;
        }
        // Per-program absolute floors.  The baseline carries a
        // floor_<program>_pps key for programs whose throughput
        // CI tracks individually -- the stateful NFs, whose register traffic
        // makes them the slowest rows in the sweep.
        for (const auto& row : programs) {
            double prog_floor = 0;
            if (json_number(doc, "floor_" + row.plain.name + "_pps",
                            prog_floor) &&
                prog_floor > 0) {
                std::printf("baseline gate: %s %.0f pkts/sec vs floor %.0f\n",
                            row.plain.name.c_str(), row.plain.pps, prog_floor);
                if (row.plain.pps < prog_floor) {
                    std::fprintf(stderr,
                                 "FAIL: %s packets/sec below floor "
                                 "(%.0f < %.0f)\n",
                                 row.plain.name.c_str(), row.plain.pps,
                                 prog_floor);
                    return 1;
                }
            }
        }
    }

    // --- coverage-overhead gate ----------------------------------------------
    if (coverage_gate_pct >= 0) {
        std::printf("coverage gate: %.2f%% overhead vs limit %.2f%%\n",
                    coverage_overhead_pct, coverage_gate_pct);
        if (coverage_overhead_pct > coverage_gate_pct) {
            std::fprintf(stderr,
                         "FAIL: coverage instrumentation costs %.2f%% of "
                         "pipeline throughput (limit %.2f%%)\n",
                         coverage_overhead_pct, coverage_gate_pct);
            return 1;
        }
    }

    // --- telemetry-overhead gate ---------------------------------------------
    if (metrics_gate_pct >= 0) {
        std::printf("metrics gate: %.2f%% overhead vs limit %.2f%%\n",
                    telemetry_overhead_pct, metrics_gate_pct);
        if (telemetry_overhead_pct > metrics_gate_pct) {
            std::fprintf(stderr,
                         "FAIL: telemetry costs %.2f%% of pipeline throughput "
                         "(limit %.2f%%)\n",
                         telemetry_overhead_pct, metrics_gate_pct);
            return 1;
        }
    }
    return 0;
}
