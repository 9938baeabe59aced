// The campaign workloads: sweep_detect, sweep_triage and guided_greybox.
//
// Each run drives CampaignEngine through its public API, reference vs
// sdnet with the DUT set named explicitly, and measures whole campaign
// runs ("chunks") back to back until the time budget is spent.  Rates are
// medians over chunks.  Correctness is checked against properties the
// method must have (a zero-finding self-diff, reproducible and minimal
// findings, monotone coverage, thread-count and tracing invariance),
// never against stored output.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/campaign.h"
#include "core/scenario_exec.h"
#include "core/specgen.h"
#include "coverage/coverage.h"
#include "target/device.h"
#include "timed_device.h"

namespace perfbench {

namespace {

namespace core = ndb::core;
namespace tgt = ndb::target;

enum class Kind { detect, triage, guided };

// Scenarios per CampaignEngine::run: large enough that a chunk's wall time
// dwarfs the engine's per-run set-up, small enough for several chunks per
// run.  The guided budget is the fixed scenario count coverage_edges is
// read at.
constexpr std::uint64_t kSweepChunk = 4096;
constexpr std::uint64_t kGuidedBudget = 2000;
// Run seed s owns the scenario seeds [s * kSeedStride, (s + 1) * kSeedStride).
constexpr std::uint64_t kSeedStride = std::uint64_t{1} << 32;
// One worker thread: on a shared machine it is markedly steadier than two.
// The traced run checks its report against an untraced run at kCheckThreads.
constexpr int kThreads = 1;
constexpr int kCheckThreads = 2;
// Fixed sample sizes of the untimed checks and direct timers.
constexpr std::uint64_t kTwinSample = 1024;
constexpr std::uint64_t kTimerSample = 512;

Kind kind_of(const std::string& workload) {
    if (workload == "sweep_detect") return Kind::detect;
    if (workload == "sweep_triage") return Kind::triage;
    return Kind::guided;
}

std::uint64_t chunk_size(Kind kind) {
    return kind == Kind::guided ? kGuidedBudget : kSweepChunk;
}

std::uint64_t chunk_base(const Options& opt, std::uint64_t chunk) {
    return opt.seed * kSeedStride + chunk * chunk_size(kind_of(opt.workload));
}

core::CampaignConfig make_config(Kind kind, std::uint64_t base, int threads,
                                 const std::string& prefix = "") {
    core::CampaignConfig c;
    c.base_seed = base;
    c.scenarios = chunk_size(kind);
    c.threads = threads;
    c.reference_backend = prefix + "reference";
    // Named explicitly: backends registered by the traced run must never
    // join a sweep through resolve_duts' every-registered-backend default.
    c.duts = {core::BackendSpec{prefix + "sdnet", std::nullopt, "sdnet"}};
    c.minimize = c.localize = kind == Kind::triage;
    if (kind == Kind::guided) {
        c.mutate = true;
        c.concolic = true;
    }
    return c;
}

struct Timed {
    core::CampaignReport report;
    double wall_s = 0;
};

Timed run_campaign(const core::CampaignConfig& config) {
    core::CampaignEngine engine(config);
    const auto t0 = Clock::now();
    Timed t;
    t.report = engine.run();
    t.wall_s = seconds_since(t0);
    return t;
}

// Set-up of a campaign: compiling the catalogue (SpecGenerator) and
// building one worker's device pool.  Sampled a few times before every
// chunk, so that the samples span the same spells of the machine as the
// chunk rates do.
constexpr int kSetupSamplesPerChunk = 3;

void sample_setup(std::vector<double>& samples, Result& out) {
    for (int i = 0; i < kSetupSamplesPerChunk; ++i) {
        const auto t0 = Clock::now();
        const core::SpecGenerator gen;
        const core::WorkerContext ctx(
            "reference", {core::BackendSpec{"sdnet", std::nullopt, "sdnet"}},
            ndb::dataplane::default_engine());
        samples.push_back(seconds_since(t0));
        out.check(!gen.programs().empty() && ctx.duts.size() == 1,
                  "campaign set-up built no catalogue or device pool");
    }
}

// Stimulus packets of the detection runs: every scenario's stream, once
// on the reference and once on the DUT.
std::uint64_t detection_packets(const core::SpecGenerator& gen,
                                std::uint64_t base, std::uint64_t n) {
    std::uint64_t packets = 0;
    for (std::uint64_t i = 0; i < n; ++i) packets += 2 * gen.make(base + i).spec.count;
    return packets;
}

// Distinct coverage slots a uniform sweep lights, reference and DUT maps
// together, over the guided workload's budget of scenarios.
std::uint64_t uniform_coverage(const core::SpecGenerator& gen, std::uint64_t base) {
    ndb::coverage::CoverageMap map;
    auto ref = tgt::make_device("reference");
    auto dut = tgt::make_device("sdnet");
    ref->set_coverage(&map);
    dut->set_coverage(&map);
    for (std::uint64_t i = 0; i < kGuidedBudget; ++i) {
        const core::Scenario sc = gen.make(base + i);
        const auto packets = core::scenario_packets(sc);
        core::run_scenario_on(*ref, sc, packets, 8);
        core::run_scenario_on(*dut, sc, packets, 8);
    }
    return map.edges_covered();
}

// --- checks -------------------------------------------------------------------

// An identical reference twin as the DUT must never diverge.
void check_twin(Kind kind, std::uint64_t base, Result& out) {
    core::CampaignConfig c = make_config(kind, base, kThreads);
    c.scenarios = kTwinSample;
    c.mutate = c.concolic = false;
    c.duts = {core::BackendSpec{"reference", std::nullopt, "reference_twin"}};
    const core::CampaignReport rep = core::CampaignEngine(c).run();
    out.attempted += kTwinSample;
    out.failed += rep.findings_total;
    if (rep.findings_total) {
        out.correct = false;
        out.note("self-diff: reference twin diverged " +
                 std::to_string(rep.findings_total) + " time(s)");
    }
}

// Every unique sweep finding reproduces when its seed is replayed alone.
void check_reproduces(Kind kind, const core::CampaignReport& rep, Result& out) {
    for (const core::DivergenceRecord& d : rep.divergences) {
        core::CampaignConfig c = make_config(kind, d.seed, kThreads);
        c.scenarios = 1;
        const core::CampaignReport one = core::CampaignEngine(c).run();
        const bool ok = one.divergences.size() == 1 &&
                        one.divergences[0].fingerprint == d.fingerprint &&
                        one.divergences[0].kind == d.kind &&
                        one.divergences[0].detail == d.detail;
        out.check(ok, "finding " + d.fingerprint + " (seed " +
                          std::to_string(d.seed) + ") does not reproduce alone");
    }
}

// A minimized finding of length k: the k-packet prefix diverges and the
// (k-1)-packet prefix does not (minimization searches prefixes from one
// packet up, so k = 1 has no shorter prefix to check).
void check_minimal(const core::CampaignReport& rep, Result& out) {
    const core::SpecGenerator gen;
    auto ref = tgt::make_device("reference");
    auto dut = tgt::make_device("sdnet");
    const auto diverges = [&](const core::Scenario& sc,
                              const std::vector<ndb::packet::Packet>& all,
                              std::uint64_t k) {
        const std::vector<ndb::packet::Packet> prefix(
            all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k));
        const core::DeviceRun r = core::run_scenario_on(*ref, sc, prefix, 8);
        const core::DeviceRun u = core::run_scenario_on(*dut, sc, prefix, 8);
        return core::diff_runs(u, r).has_value();
    };
    for (const core::DivergenceRecord& d : rep.divergences) {
        const std::string what = "finding " + d.fingerprint + " (seed " +
                                 std::to_string(d.seed) + ", k=" +
                                 std::to_string(d.minimized_count) + ")";
        out.check(d.minimized_reproduces && d.minimized_count > 0,
                  what + " was not minimized");
        if (d.minimized_count == 0) continue;
        const core::Scenario sc = gen.make(d.seed);
        const auto packets = core::scenario_packets(sc);
        if (d.minimized_count > packets.size()) {
            out.check(false, what + " is longer than its scenario");
            continue;
        }
        out.check(diverges(sc, packets, d.minimized_count),
                  what + ": the k-packet prefix does not diverge");
        if (d.minimized_count > 1) {
            out.check(!diverges(sc, packets, d.minimized_count - 1),
                      what + ": the (k-1)-packet prefix still diverges");
        }
    }
}

// The guided coverage series never decreases, ends at coverage_edges, and
// stays within the map.
void check_coverage(const core::CampaignReport& rep, Result& out) {
    bool monotone = !rep.coverage_series.empty();
    for (std::size_t i = 1; i < rep.coverage_series.size(); ++i) {
        if (rep.coverage_series[i].edges < rep.coverage_series[i - 1].edges ||
            rep.coverage_series[i].scenarios <= rep.coverage_series[i - 1].scenarios) {
            monotone = false;
        }
    }
    out.check(monotone, "coverage series is empty or decreases");
    out.check(!rep.coverage_series.empty() &&
                  rep.coverage_series.back().edges == rep.coverage_edges,
              "coverage series does not end at coverage_edges");
    out.check(rep.coverage_edges > 0 &&
                  rep.coverage_edges <= ndb::coverage::CoverageMap::kSlots,
              "coverage_edges outside (0, CoverageMap::kSlots]");
}

// --- untraced: the end-to-end metrics ----------------------------------------

void run_untraced(const Options& opt, Kind kind, Result& out) {
    const core::SpecGenerator gen;

    std::vector<double> rates, pkt_rates, edges, setups;
    std::vector<core::CampaignReport> kept;  // the first chunk, for checks
    const auto start = Clock::now();
    for (std::uint64_t chunk = 0; chunk == 0 || seconds_since(start) < opt.seconds;
         ++chunk) {
        const std::uint64_t base = chunk_base(opt, chunk);
        sample_setup(setups, out);
        Timed t = run_campaign(make_config(kind, base, kThreads));
        out.attempted += t.report.scenarios;
        rates.push_back(static_cast<double>(t.report.scenarios) / t.wall_s);
        if (kind == Kind::guided) {
            // Triage is off here, so every injected packet is a detection
            // packet.
            pkt_rates.push_back(static_cast<double>(t.report.packets_injected) /
                                t.wall_s);
            edges.push_back(static_cast<double>(t.report.coverage_edges));
            check_coverage(t.report, out);
        } else {
            const std::uint64_t packets =
                detection_packets(gen, base, t.report.scenarios);
            if (kind == Kind::detect) {
                out.check(packets == t.report.packets_injected,
                          "report counts " + std::to_string(t.report.packets_injected) +
                              " packets, the scenarios hold " +
                              std::to_string(packets));
            }
            pkt_rates.push_back(static_cast<double>(packets) / t.wall_s);
        }
        if (kept.empty()) kept.push_back(std::move(t.report));
    }

    const std::uint64_t base0 = chunk_base(opt, 0);
    if (kind != Kind::guided) {
        check_twin(kind, base0, out);
        check_reproduces(kind, kept[0], out);
        if (kind == Kind::triage) check_minimal(kept[0], out);
        edges.push_back(static_cast<double>(uniform_coverage(gen, base0)));
    }
    out.note(opt.workload + ": " + std::to_string(rates.size()) + " chunk(s) of " +
             std::to_string(chunk_size(kind)) + " scenarios, " +
             std::to_string(kept[0].divergences.size()) +
             " unique finding(s) in the first");

    // Speeds are the run's fastest chunk and set-up its fastest sample (see
    // best_of in common.h); coverage is a count and takes the median.
    out.metric("scenarios_per_s", best_of(rates, true), "scenarios/s");
    out.metric("packets_per_s", best_of(pkt_rates, true), "packets/s");
    out.metric("setup_s", best_of(setups, false), "s");
    out.metric("coverage_edges", median(edges), "edges");
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

// --- traced: the per-layer breakdown -----------------------------------------

// Direct timers for calls CampaignEngine makes internally, on the
// workload's own first scenarios.
void direct_timers(Kind kind, std::uint64_t base, LayerMetrics& lm, Result& out) {
    const core::SpecGenerator gen;
    std::vector<core::Scenario> scenarios;
    scenarios.reserve(kTimerSample);
    std::uint64_t t0 = now_ns();
    for (std::uint64_t i = 0; i < kTimerSample; ++i) {
        scenarios.push_back(gen.make(base + i));
    }
    lm.specgen_make_us = static_cast<double>(now_ns() - t0) / 1e3 / kTimerSample;

    std::vector<std::vector<ndb::packet::Packet>> packets;
    packets.reserve(kTimerSample);
    t0 = now_ns();
    for (const auto& sc : scenarios) packets.push_back(core::scenario_packets(sc));
    lm.scenario_packets_us = static_cast<double>(now_ns() - t0) / 1e3 / kTimerSample;

    // diff_runs on the detection runs of each scenario.
    auto ref = tgt::make_device("reference");
    auto dut = tgt::make_device("sdnet");
    std::vector<std::pair<core::DeviceRun, core::DeviceRun>> runs;
    runs.reserve(kTimerSample);
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        runs.emplace_back(core::run_scenario_on(*dut, scenarios[i], packets[i], 8),
                          core::run_scenario_on(*ref, scenarios[i], packets[i], 8));
    }
    constexpr std::uint64_t kDiffReps = 20;
    std::uint64_t diverged = 0;
    t0 = now_ns();
    for (std::uint64_t r = 0; r < kDiffReps; ++r) {
        for (const auto& [u, g] : runs) diverged += core::diff_runs(u, g).has_value();
    }
    lm.diff_us = static_cast<double>(now_ns() - t0) / 1e3 /
                 (kDiffReps * static_cast<double>(runs.size()));
    std::uint64_t diverged_once = 0;
    for (const auto& [u, g] : runs) diverged_once += core::diff_runs(u, g).has_value();
    out.check(diverged == kDiffReps * diverged_once, "diff_runs is not deterministic");

    // hash_packet_state over the stage states of the scenarios' packets.
    ref->set_taps_enabled(true);
    CallStat digests;
    for (std::size_t i = 0; i < scenarios.size() && i < 128; ++i) {
        ref->clear_tap_records();
        core::run_scenario_on(*ref, scenarios[i], packets[i], 8);
        time_tap_digests(*ref, 16, digests);
    }
    ref->set_taps_enabled(false);
    lm.digest_ns = digests.mean_ns();

    // Triage cost: execute_scenario with minimize+localize off vs on, on
    // timed devices so replay loads are counted.
    if (kind != Kind::triage) return;
    const std::vector<core::BackendSpec> duts = {
        core::BackendSpec{"traced.sdnet", std::nullopt, "sdnet"}};
    core::WorkerContext ctx("traced.reference", duts,
                            ndb::dataplane::default_engine());
    core::ExecOptions off;
    off.minimize = off.localize = false;
    core::ExecOptions on;
    std::uint64_t findings = 0, probes = 0;
    std::uint64_t ns_off = 0, ns_on = 0, loads_off = 0, loads_on = 0;
    for (const auto& sc : scenarios) {
        std::uint64_t l0 = collected_stats().load.calls;
        core::ScenarioOutcome o1;
        t0 = now_ns();
        core::execute_scenario(ctx, sc, duts, off, o1, "");
        ns_off += now_ns() - t0;
        std::uint64_t l1 = collected_stats().load.calls;
        loads_off += l1 - l0;
        core::ScenarioOutcome o2;
        t0 = now_ns();
        core::execute_scenario(ctx, sc, duts, on, o2, "");
        ns_on += now_ns() - t0;
        loads_on += collected_stats().load.calls - l1;
        findings += o2.findings.size();
        for (const auto& f : o2.findings) {
            probes += static_cast<std::uint64_t>(f.localized.probes);
        }
        out.check(o1.findings.size() == o2.findings.size(),
                  "triage changed how many findings seed " + std::to_string(sc.seed) +
                      " has");
    }
    if (findings) {
        const double f = static_cast<double>(findings);
        lm.triage_ms_per_finding =
            (static_cast<double>(ns_on) - static_cast<double>(ns_off)) / 1e6 / f;
        lm.replay_loads_per_finding =
            (static_cast<double>(loads_on) - static_cast<double>(loads_off)) / f;
        lm.localize_probes_per_finding = static_cast<double>(probes) / f;
    }
}

void run_traced(const Options& opt, Kind kind, Result& out) {
    register_traced_backends();
    const std::uint64_t base = chunk_base(opt, 0);

    // The reference report, untraced at several threads.
    const Timed reference = run_campaign(make_config(kind, base, kCheckThreads));
    const std::string expected = reference.report.to_json();
    out.attempted += reference.report.scenarios;

    // Untraced and traced single-thread runs, alternating; medians give the
    // overhead, and the traced totals give the layer figures.
    constexpr int kReps = 3;
    std::vector<double> untraced_s, traced_s;
    reset_collected_stats();
    core::CampaignReport traced_report;
    for (int r = 0; r < kReps; ++r) {
        untraced_s.push_back(run_campaign(make_config(kind, base, 1)).wall_s);
        Timed t = run_campaign(make_config(kind, base, 1, "traced."));
        traced_s.push_back(t.wall_s);
        out.attempted += 2 * t.report.scenarios;
        out.check(t.report.to_json() == expected,
                  "traced 1-thread report differs from the untraced " +
                      std::to_string(kCheckThreads) + "-thread report");
        traced_report = std::move(t.report);
    }
    const DeviceCallStats st = collected_stats();
    const double scenarios = static_cast<double>(kReps * traced_report.scenarios);
    double traced_total = 0;
    for (double s : traced_s) traced_total += s;

    LayerMetrics lm;
    lm.from_device_stats(st, scenarios);
    lm.orchestration_share =
        std::max(0.0, 1.0 - static_cast<double>(st.busy_ns()) / 1e9 / traced_total);
    lm.unique_findings = static_cast<double>(traced_report.divergences.size());
    if (kind == Kind::guided) {
        lm.coverage_rounds = static_cast<double>(traced_report.coverage_series.size());
        lm.concolic_targets = static_cast<double>(
            traced_report.concolic_solved + traced_report.concolic_unsat +
            traced_report.concolic_unknown + traced_report.concolic_no_path);
    }
    lm.overhead_pct = 100.0 * (median(traced_s) / median(untraced_s) - 1.0);
    direct_timers(kind, base, lm, out);
    lm.emit(out);
}

}  // namespace

void run_campaign_workload(const Options& opt, Result& out) {
    const Kind kind = kind_of(opt.workload);
    if (opt.trace) {
        run_traced(opt, kind, out);
    } else {
        run_untraced(opt, kind, out);
    }
}

}  // namespace perfbench
