// Telemetry subsystem: histogram math against a naive reference, the
// deterministic sharded merge, the observe-only contract (campaign reports
// byte-identical with telemetry on or off), trace JSON
// well-formedness, and the fabric delta codec.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace {

using namespace ndb;

// Every obs test leaves the process-global telemetry the way it found it:
// disabled and zeroed.
struct TelemetryGuard {
    ~TelemetryGuard() {
        obs::Telemetry::set_enabled(false, false);
        obs::Telemetry::reset();
    }
};

// The naive reference for hist_bucket: count how many shifts empty the
// value (i.e. its bit width), the long way.
int naive_bucket(std::uint64_t v) {
    int width = 0;
    while (v != 0) {
        ++width;
        v >>= 1;
    }
    return width < obs::kHistBuckets ? width : obs::kHistBuckets - 1;
}

TEST(Histogram, BucketMathMatchesNaiveReference) {
    EXPECT_EQ(obs::hist_bucket(0), 0);
    for (std::uint64_t v :
         {1ull, 2ull, 3ull, 4ull, 7ull, 8ull, 255ull, 256ull, 1023ull,
          (1ull << 31), (1ull << 31) + 1, (1ull << 62), ~0ull}) {
        EXPECT_EQ(obs::hist_bucket(v), naive_bucket(v)) << "value " << v;
    }
    // Exhaustive near every power-of-two boundary.
    for (int b = 1; b < 63; ++b) {
        const std::uint64_t lo = 1ull << (b - 1);
        EXPECT_EQ(obs::hist_bucket(lo), b);
        EXPECT_EQ(obs::hist_bucket(lo + (lo >> 1)), b);
        EXPECT_EQ(obs::hist_bucket((lo << 1) - 1), b);
    }
    // Upper bounds: inclusive, saturating at the top.
    EXPECT_EQ(obs::hist_bucket_upper(0), 0u);
    EXPECT_EQ(obs::hist_bucket_upper(1), 1u);
    EXPECT_EQ(obs::hist_bucket_upper(10), 1023u);
    EXPECT_EQ(obs::hist_bucket_upper(obs::kHistBuckets - 1), ~0ull);
}

TEST(Histogram, PercentileMatchesNaiveCumulativeWalk) {
    obs::HistogramData h;
    const std::vector<std::uint64_t> values = {0,  1,   1,   5,    9,   17,
                                               90, 100, 900, 1000, 5000};
    for (const std::uint64_t v : values) ++h.buckets[obs::hist_bucket(v)];
    EXPECT_EQ(h.count(), values.size());

    for (const double p : {1.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
        // Naive: rank = ceil(p/100 * n) clamped to >= 1, walk the sorted
        // bucket upper bounds.
        const std::uint64_t rank = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   std::ceil(p / 100.0 * static_cast<double>(values.size()))));
        std::uint64_t seen = 0;
        std::uint64_t expect = 0;
        for (int b = 0; b < obs::kHistBuckets; ++b) {
            seen += h.buckets[b];
            if (seen >= rank) {
                expect = obs::hist_bucket_upper(b);
                break;
            }
        }
        EXPECT_EQ(h.percentile(p), expect) << "percentile " << p;
    }
    EXPECT_EQ(obs::HistogramData{}.percentile(50.0), 0u);
}

TEST(Histogram, AddSubtractRoundTripIsExact) {
    obs::HistogramData a, b;
    for (std::uint64_t v = 0; v < 2000; v += 7) ++a.buckets[obs::hist_bucket(v)];
    for (std::uint64_t v = 1; v < 5000; v += 13) {
        ++b.buckets[obs::hist_bucket(v)];
    }
    obs::HistogramData sum = a;
    sum.add(b);
    EXPECT_EQ(sum.count(), a.count() + b.count());
    sum.subtract(b);
    EXPECT_EQ(sum, a);
}

TEST(Metrics, ShardedMergeIsDeterministicAcrossThreadCounts) {
    TelemetryGuard guard;
    obs::Telemetry::set_enabled(true, false);

    // The identical multiset of recordings, once on 1 thread and once
    // sharded over 4: the merged snapshots must compare equal.
    const auto record_range = [](std::uint64_t lo, std::uint64_t hi) {
        for (std::uint64_t i = lo; i < hi; ++i) {
            obs::count(obs::Counter::packets);
            obs::count(obs::Counter::scenarios, 2);
            obs::record(obs::Hist::packet_ns, i * 37 % 4096);
        }
    };

    obs::Telemetry::reset();
    record_range(0, 4000);
    const obs::MetricsSnapshot one = obs::Metrics::instance().snapshot();

    obs::Telemetry::reset();
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back(record_range, 1000ull * t, 1000ull * (t + 1));
    }
    for (auto& th : pool) th.join();
    const obs::MetricsSnapshot four = obs::Metrics::instance().snapshot();

    EXPECT_EQ(one.counters[static_cast<std::size_t>(obs::Counter::packets)],
              4000u);
    EXPECT_EQ(one, four);
}

TEST(Metrics, CampaignReportByteIdenticalWithTelemetryOnOrOff) {
    TelemetryGuard guard;
    for (const int threads : {1, 4}) {
        core::CampaignConfig cfg;
        cfg.base_seed = 1;
        cfg.scenarios = 16;
        cfg.threads = threads;

        obs::Telemetry::set_enabled(false, false);
        core::CampaignEngine off(cfg);
        const std::string plain = off.run().to_json();

        obs::Telemetry::set_enabled(true, true);
        obs::Telemetry::reset();
        core::CampaignEngine on(cfg);
        const std::string instrumented = on.run().to_json();

        EXPECT_EQ(plain, instrumented) << "threads=" << threads;
        // And the run actually recorded something.
        const obs::MetricsSnapshot snap = obs::Telemetry::merged_metrics();
        EXPECT_EQ(
            snap.counters[static_cast<std::size_t>(obs::Counter::scenarios)],
            16u);
        EXPECT_GT(
            snap.counters[static_cast<std::size_t>(obs::Counter::packets)],
            0u);
    }
}

// Minimal JSON shape check: balanced braces/brackets outside string
// literals, with escape handling.
void expect_balanced_json(const std::string& doc) {
    int braces = 0;
    int brackets = 0;
    bool in_string = false;
    bool escaped = false;
    for (const char c : doc) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (in_string) {
            if (c == '\\') escaped = true;
            if (c == '"') in_string = false;
            continue;
        }
        switch (c) {
            case '"': in_string = true; break;
            case '{': ++braces; break;
            case '}': --braces; break;
            case '[': ++brackets; break;
            case ']': --brackets; break;
            default: break;
        }
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(Trace, ChromeTraceJsonIsWellFormed) {
    TelemetryGuard guard;
    obs::Telemetry::set_enabled(true, true);
    obs::Telemetry::reset();

    const std::uint64_t t0 = obs::now_ns();
    obs::trace_complete("scenario", t0, 1500, "seed", 7, "findings", 1);
    obs::trace_instant("divergence", "seed", 7, "ordinal", 3);
    obs::trace_complete("round", t0, 90000, "round", 0, "slots", 8);

    const std::string doc = obs::Telemetry::trace_json();
    expect_balanced_json(doc);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"scenario\""), std::string::npos);
    EXPECT_NE(doc.find("\"divergence\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\": \"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
    // metrics_json, while here.
    expect_balanced_json(obs::Telemetry::metrics_json());
}

TEST(Telemetry, DeltaCodecRoundTripsAndRejectsTruncation) {
    obs::TelemetryDelta delta;
    delta.pid = 4242;
    delta.metrics.counters[static_cast<std::size_t>(obs::Counter::packets)] = 99;
    delta.metrics.gauges[static_cast<std::size_t>(obs::Gauge::fabric_workers)] =
        -3;
    delta.metrics.hists[static_cast<std::size_t>(obs::Hist::scenario_ns)]
        .buckets[12] = 5;
    obs::TraceEventRecord ev;
    ev.name = "scenario";
    ev.arg0 = "seed";
    ev.v0 = 17;
    ev.arg1 = "findings";
    ev.v1 = 2;
    ev.ts_ns = 1000;
    ev.dur_ns = 250;
    ev.tid = 9;
    delta.events.push_back(ev);

    const std::vector<std::uint8_t> bytes = obs::Telemetry::encode_delta(delta);
    obs::TelemetryDelta out;
    ASSERT_TRUE(obs::Telemetry::decode_delta(bytes, out));
    EXPECT_EQ(out.pid, 4242u);
    EXPECT_EQ(out.metrics, delta.metrics);
    ASSERT_EQ(out.events.size(), 1u);
    EXPECT_EQ(out.events[0].name, "scenario");
    EXPECT_EQ(out.events[0].v0, 17u);
    EXPECT_EQ(out.events[0].dur_ns, 250u);
    // Decoding stamps the shipping process's pid onto each event.
    EXPECT_EQ(out.events[0].pid, 4242u);

    // Any truncation fails whole; so do bad magic and trailing junk.
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        obs::TelemetryDelta scratch;
        const std::vector<std::uint8_t> head(bytes.begin(),
                                             bytes.begin() + cut);
        EXPECT_FALSE(obs::Telemetry::decode_delta(head, scratch))
            << "cut at " << cut;
    }
    std::vector<std::uint8_t> bad = bytes;
    bad[0] ^= 0xff;
    obs::TelemetryDelta scratch;
    EXPECT_FALSE(obs::Telemetry::decode_delta(bad, scratch));
    std::vector<std::uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(obs::Telemetry::decode_delta(padded, scratch));
}

TEST(Telemetry, TakeDeltaShipsOnceAndImportMerges) {
    TelemetryGuard guard;
    obs::Telemetry::set_enabled(true, true);
    obs::Telemetry::reset();

    obs::count(obs::Counter::wire_requests, 5);
    obs::trace_instant("wire_retry", "seq", 1, "attempt", 1);

    obs::TelemetryDelta first = obs::Telemetry::take_delta();
    EXPECT_EQ(first.metrics.counters[static_cast<std::size_t>(
                  obs::Counter::wire_requests)],
              5u);
    EXPECT_EQ(first.events.size(), 1u);

    // Nothing new happened: the next delta is empty (baseline advanced,
    // events drained exactly once).
    const obs::TelemetryDelta second = obs::Telemetry::take_delta();
    EXPECT_TRUE(second.empty());

    // Importing folds into the merged view on top of local state.  Go
    // through the codec like the fabric does: decode stamps the shipping
    // pid onto every event.
    first.pid = 777;
    obs::TelemetryDelta shipped;
    ASSERT_TRUE(obs::Telemetry::decode_delta(
        obs::Telemetry::encode_delta(first), shipped));
    obs::Telemetry::import_delta(shipped);
    const obs::MetricsSnapshot merged = obs::Telemetry::merged_metrics();
    EXPECT_EQ(merged.counters[static_cast<std::size_t>(
                  obs::Counter::wire_requests)],
              10u);  // 5 local + 5 imported
    bool saw_imported = false;
    for (const auto& e : obs::Telemetry::collect_trace_events()) {
        if (e.pid == 777) saw_imported = true;
    }
    EXPECT_TRUE(saw_imported);
}

TEST(Telemetry, UnwritableOutputPathFailsGracefully) {
    std::string error;
    EXPECT_FALSE(obs::Telemetry::write_file(
        "/nonexistent-ndb-dir/metrics.json", "{}", error));
    EXPECT_FALSE(error.empty());
    error.clear();
    EXPECT_TRUE(
        obs::Telemetry::write_file("/dev/null", "{}\n", error));
    EXPECT_TRUE(error.empty());
}

}  // namespace
