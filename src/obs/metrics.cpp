#include "obs/metrics.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <vector>

#include "util/strings.h"

namespace ndb::obs {

namespace detail {
std::atomic<bool> g_metrics_on{false};
}  // namespace detail

std::uint64_t now_ns() {
    timespec ts{};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t epoch_ns() {
    static const std::uint64_t epoch = now_ns();
    return epoch;
}

const char* counter_name(Counter c) {
    switch (c) {
        case Counter::packets: return "packets";
        case Counter::packets_sampled: return "packets_sampled";
        case Counter::lookups_exact: return "lookups_exact";
        case Counter::lookups_lpm: return "lookups_lpm";
        case Counter::lookups_ternary: return "lookups_ternary";
        case Counter::wire_requests: return "wire_requests";
        case Counter::wire_retries: return "wire_retries";
        case Counter::wire_timeouts: return "wire_timeouts";
        case Counter::scenarios: return "scenarios";
        case Counter::divergences: return "divergences";
        case Counter::rounds: return "rounds";
        case Counter::concolic_injected: return "concolic_injected";
        case Counter::worker_spawns: return "worker_spawns";
        case Counter::worker_restarts: return "worker_restarts";
        case Counter::trace_events_dropped: return "trace_events_dropped";
        case Counter::count_: break;
    }
    return "?";
}

const char* gauge_name(Gauge g) {
    switch (g) {
        case Gauge::campaign_threads: return "campaign_threads";
        case Gauge::fabric_workers: return "fabric_workers";
        case Gauge::count_: break;
    }
    return "?";
}

const char* hist_name(Hist h) {
    switch (h) {
        case Hist::parse_ns: return "parse_ns";
        case Hist::match_action_ns: return "match_action_ns";
        case Hist::deparse_ns: return "deparse_ns";
        case Hist::packet_ns: return "packet_ns";
        case Hist::lookup_ns_exact: return "lookup_ns_exact";
        case Hist::lookup_ns_lpm: return "lookup_ns_lpm";
        case Hist::lookup_ns_ternary: return "lookup_ns_ternary";
        case Hist::wire_rtt_ns: return "wire_rtt_ns";
        case Hist::scenario_ns: return "scenario_ns";
        case Hist::count_: break;
    }
    return "?";
}

// --- HistogramData ------------------------------------------------------------

std::uint64_t HistogramData::count() const {
    std::uint64_t total = 0;
    for (const std::uint64_t b : buckets) total += b;
    return total;
}

std::uint64_t HistogramData::percentile(double p) const {
    const std::uint64_t total = count();
    if (total == 0) return 0;
    p = std::clamp(p, 0.0, 100.0);
    // Rank of the percentile sample, 1-based, at least 1.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(p / 100.0 *
                                                static_cast<double>(total))));
    std::uint64_t cum = 0;
    for (int b = 0; b < kHistBuckets; ++b) {
        cum += buckets[static_cast<std::size_t>(b)];
        if (cum >= rank) return hist_bucket_upper(b);
    }
    return hist_bucket_upper(kHistBuckets - 1);
}

void HistogramData::add(const HistogramData& other) {
    for (int b = 0; b < kHistBuckets; ++b) {
        buckets[static_cast<std::size_t>(b)] +=
            other.buckets[static_cast<std::size_t>(b)];
    }
}

void HistogramData::subtract(const HistogramData& other) {
    for (int b = 0; b < kHistBuckets; ++b) {
        buckets[static_cast<std::size_t>(b)] -=
            other.buckets[static_cast<std::size_t>(b)];
    }
}

// --- MetricsSnapshot ----------------------------------------------------------

void MetricsSnapshot::add(const MetricsSnapshot& other) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        counters[i] += other.counters[i];
    }
    for (std::size_t i = 0; i < kNumGauges; ++i) gauges[i] += other.gauges[i];
    for (std::size_t i = 0; i < kNumHists; ++i) hists[i].add(other.hists[i]);
}

void MetricsSnapshot::subtract(const MetricsSnapshot& other) {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        counters[i] -= other.counters[i];
    }
    for (std::size_t i = 0; i < kNumGauges; ++i) gauges[i] -= other.gauges[i];
    for (std::size_t i = 0; i < kNumHists; ++i) {
        hists[i].subtract(other.hists[i]);
    }
}

bool MetricsSnapshot::empty() const { return *this == MetricsSnapshot{}; }

std::string MetricsSnapshot::to_json(int indent) const {
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    std::string s = "{\n";
    s += pad + "  \"counters\": {";
    bool first = true;
    for (std::size_t i = 0; i < kNumCounters; ++i) {
        if (!first) s += ", ";
        first = false;
        s += util::format("\"%s\": %llu", counter_name(static_cast<Counter>(i)),
                          static_cast<unsigned long long>(counters[i]));
    }
    s += "},\n";
    s += pad + "  \"gauges\": {";
    first = true;
    for (std::size_t i = 0; i < kNumGauges; ++i) {
        if (!first) s += ", ";
        first = false;
        s += util::format("\"%s\": %lld", gauge_name(static_cast<Gauge>(i)),
                          static_cast<long long>(gauges[i]));
    }
    s += "},\n";
    s += pad + "  \"histograms\": {\n";
    for (std::size_t i = 0; i < kNumHists; ++i) {
        const HistogramData& h = hists[i];
        s += pad + util::format("    \"%s\": {", hist_name(static_cast<Hist>(i)));
        s += util::format("\"count\": %llu, ",
                          static_cast<unsigned long long>(h.count()));
        s += util::format("\"p50\": %llu, \"p90\": %llu, \"p99\": %llu, ",
                          static_cast<unsigned long long>(h.percentile(50)),
                          static_cast<unsigned long long>(h.percentile(90)),
                          static_cast<unsigned long long>(h.percentile(99)));
        s += "\"buckets\": [";
        bool fb = true;
        for (int b = 0; b < kHistBuckets; ++b) {
            const std::uint64_t n = h.buckets[static_cast<std::size_t>(b)];
            if (n == 0) continue;
            if (!fb) s += ", ";
            fb = false;
            s += util::format("[%d, %llu]", b,
                              static_cast<unsigned long long>(n));
        }
        s += "]}";
        s += i + 1 < kNumHists ? ",\n" : "\n";
    }
    s += pad + "  }\n" + pad + "}";
    return s;
}

// --- registry internals -------------------------------------------------------

namespace {

constexpr std::uint32_t kPacketSampleMask = 15;  // 1/16
constexpr std::uint32_t kLookupSampleMask = 63;  // 1/64

// One thread's private recording block.  Atomics because snapshot() reads
// them concurrently; contention-free because only the leasing thread writes.
struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
    std::array<std::array<std::atomic<std::uint64_t>, kHistBuckets>, kNumHists>
        hists{};
    // Decimation ticks: single-writer, never read cross-thread.
    std::uint32_t packet_tick = 0;
    std::uint32_t lookup_tick = 0;
    bool leased = false;
};

struct Registry {
    std::mutex mu;
    // Stable addresses for the lifetime of the process: shards are leased
    // to threads, returned on thread exit, and re-leased to later threads
    // (campaign rounds spin up fresh pools) instead of accumulating.
    std::vector<std::unique_ptr<Shard>> shards;
    std::array<std::atomic<std::int64_t>, kNumGauges> gauges{};
};

Registry& registry() {
    static Registry* r = new Registry();  // leaked: see Metrics::instance()
    return *r;
}

Shard* acquire_shard() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    for (auto& s : r.shards) {
        if (!s->leased) {
            s->leased = true;
            return s.get();
        }
    }
    r.shards.push_back(std::make_unique<Shard>());
    r.shards.back()->leased = true;
    return r.shards.back().get();
}

void release_shard(Shard* shard) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    shard->leased = false;  // accumulated counts stay; snapshot sums them
}

struct ShardLease {
    Shard* shard = nullptr;
    ~ShardLease() {
        if (shard) release_shard(shard);
    }
};

Shard& local_shard() {
    thread_local ShardLease lease;
    if (!lease.shard) lease.shard = acquire_shard();
    return *lease.shard;
}

}  // namespace

Metrics& Metrics::instance() {
    static Metrics* m = new Metrics();  // leaked by design; never destroyed
    return *m;
}

void Metrics::set_enabled(bool on) {
    if (on) epoch_ns();  // pin the export epoch before any fork
    detail::g_metrics_on.store(on, std::memory_order_relaxed);
}

MetricsSnapshot Metrics::snapshot() {
    Registry& r = registry();
    MetricsSnapshot out;
    const std::lock_guard<std::mutex> lock(r.mu);
    for (const auto& s : r.shards) {
        for (std::size_t i = 0; i < kNumCounters; ++i) {
            out.counters[i] += s->counters[i].load(std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < kNumHists; ++i) {
            for (int b = 0; b < kHistBuckets; ++b) {
                out.hists[i].buckets[static_cast<std::size_t>(b)] +=
                    s->hists[i][static_cast<std::size_t>(b)].load(
                        std::memory_order_relaxed);
            }
        }
    }
    for (std::size_t i = 0; i < kNumGauges; ++i) {
        out.gauges[i] = r.gauges[i].load(std::memory_order_relaxed);
    }
    return out;
}

void Metrics::reset() {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    for (auto& s : r.shards) {
        for (auto& c : s->counters) c.store(0, std::memory_order_relaxed);
        for (auto& h : s->hists) {
            for (auto& b : h) b.store(0, std::memory_order_relaxed);
        }
        s->packet_tick = 0;
        s->lookup_tick = 0;
    }
    for (auto& g : r.gauges) g.store(0, std::memory_order_relaxed);
}

void Metrics::gauge_set(Gauge g, std::int64_t value) {
    registry().gauges[static_cast<std::size_t>(g)].store(
        value, std::memory_order_relaxed);
}

void Metrics::gauge_add(Gauge g, std::int64_t delta) {
    registry().gauges[static_cast<std::size_t>(g)].fetch_add(
        delta, std::memory_order_relaxed);
}

void count(Counter c, std::uint64_t n) {
    Shard& s = local_shard();
    s.counters[static_cast<std::size_t>(c)].fetch_add(
        n, std::memory_order_relaxed);
}

void record(Hist h, std::uint64_t value) {
    Shard& s = local_shard();
    s.hists[static_cast<std::size_t>(h)]
        [static_cast<std::size_t>(hist_bucket(value))]
            .fetch_add(1, std::memory_order_relaxed);
}

bool sample_packet() {
    Shard& s = local_shard();
    return (s.packet_tick++ & kPacketSampleMask) == 0;
}

bool sample_lookup() {
    Shard& s = local_shard();
    return (s.lookup_tick++ & kLookupSampleMask) == 0;
}

}  // namespace ndb::obs
