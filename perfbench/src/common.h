// Shared plumbing of the campaign benchmark: options, the result every
// workload fills, timers, a fine-grained latency histogram and memory
// probes.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

// What one run prints: the correctness verdict, the operation counts and
// the metrics, in insertion order.
struct Result {
    struct Metric {
        std::string name;
        double value = 0;
        std::string unit;
    };

    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;  // one line each, printed before the JSON

    void metric(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    // One checked operation: counts it, and on failure counts it as failed
    // and keeps the first few reasons for the log.
    void check(bool ok, const std::string& what) {
        ++attempted;
        if (ok) return;
        ++failed;
        correct = false;
        if (notes.size() < 20) notes.push_back("check failed: " + what);
    }
    void note(std::string line) { notes.push_back(std::move(line)); }
    std::string to_json() const;
};

double median(std::vector<double> v);

// The best of a run's samples: the highest rate, or the shortest time.  On
// a shared machine other tenants slow the program in spells that last
// seconds, so the median over one run moves with how much of the run those
// spells covered.  The best sample is the one closest to what the program
// itself costs, as in timeit's best-of-N, and it is far steadier from run
// to run.
inline double best_of(const std::vector<double>& v, bool higher_is_better) {
    if (v.empty()) return 0;
    return higher_is_better ? *std::max_element(v.begin(), v.end())
                            : *std::min_element(v.begin(), v.end());
}

// Peak resident set of this process so far, in MiB (getrusage).
double peak_rss_mb();

// Log-linear latency histogram: 32 linear sub-buckets per power of two,
// so a reported percentile is within ~3% of the true sample.  Values are
// nanoseconds.
class LatencyHistogram {
public:
    void record(std::uint64_t ns) {
        ++buckets_[index(ns)];
        ++count_;
    }
    void merge(const LatencyHistogram& o) {
        for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += o.buckets_[i];
        count_ += o.count_;
    }
    std::uint64_t count() const { return count_; }
    // Midpoint of the bucket holding the q-quantile (0 when empty).
    double quantile(double q) const;

private:
    static constexpr int kSub = 32;  // sub-buckets per octave
    static constexpr int kLinear = 2 * kSub;
    static std::size_t index(std::uint64_t v);
    static double lower_bound(std::size_t i);

    std::array<std::uint64_t, kLinear + 64 * kSub> buckets_{};
    std::uint64_t count_ = 0;
};

// Workload entry points (one file each).
void run_campaign_workload(const Options& opt, Result& out);
void run_fib_workload(const Options& opt, Result& out);

}  // namespace perfbench
