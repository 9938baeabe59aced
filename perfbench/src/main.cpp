// ndb_perfbench: the campaign benchmark binary that run.py builds and runs.
//
//   ndb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: sweep_detect, sweep_triage, guided_greybox, fib_scale (see
// perfbench/README.md).  The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end ones, measured untraced; with --trace 1
// they are the per-layer breakdown of a traced run.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "dataplane/engine.h"

namespace perfbench {

std::string Result::to_json() const {
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        if (i) s += ", ";
        s += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
             m.unit + "\"}";
    }
    return s + "}}";
}

double median(std::vector<double> v) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t LatencyHistogram::index(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // e >= 6
    const std::uint64_t sub = (v >> (e - 5)) & (kSub - 1);
    return static_cast<std::size_t>(kLinear + (e - 6) * kSub) + sub;
}

double LatencyHistogram::lower_bound(std::size_t i) {
    if (i < kLinear) return static_cast<double>(i);
    const int e = static_cast<int>((i - kLinear) / kSub) + 6;
    const double sub = static_cast<double>((i - kLinear) % kSub);
    return std::ldexp(kSub + sub, e - 5);
}

double LatencyHistogram::quantile(double q) const {
    if (count_ == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(std::ceil(q * count_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= rank && buckets_[i] > 0) {
            const double lo = lower_bound(i);
            return 0.5 * (lo + lower_bound(i + 1));
        }
    }
    return lower_bound(buckets_.size() - 1);
}

}  // namespace perfbench

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why) {
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload "
                 "sweep_detect|sweep_triage|guided_greybox|fib_scale --seed N "
                 "--seconds S --trace 0|1\n",
                 argv0, why.c_str(), argv0);
    std::exit(2);
}

std::uint64_t parse_u64(const char* argv0, const std::string& flag,
                        const std::string& text) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0') usage(argv0, "bad value for " + flag);
    return v;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(argv[0], "missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            opt.seed = parse_u64(argv[0], flag, value);
        } else if (flag == "--seconds") {
            opt.seconds = static_cast<double>(parse_u64(argv[0], flag, value));
        } else if (flag == "--trace") {
            opt.trace = parse_u64(argv[0], flag, value) != 0;
        } else {
            usage(argv[0], "unknown flag " + flag);
        }
    }
    if (!have_workload) usage(argv[0], "--workload is required");
    if (opt.seconds < 1) usage(argv[0], "--seconds must be at least 1");

    perfbench::Result result;
    try {
        if (opt.workload == "fib_scale") {
            perfbench::run_fib_workload(opt, result);
        } else if (opt.workload == "sweep_detect" ||
                   opt.workload == "sweep_triage" ||
                   opt.workload == "guided_greybox") {
            perfbench::run_campaign_workload(opt, result);
        } else {
            usage(argv[0], "unknown workload " + opt.workload);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
    // Provenance: NDB_ENGINE changes which executor the default engine is,
    // and with it what was measured.
    const char* env_engine = std::getenv("NDB_ENGINE");
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "engine=%s NDB_ENGINE=%s\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0,
                ndb::dataplane::engine_name(ndb::dataplane::default_engine()),
                env_engine ? env_engine : "(unset)");
    for (const std::string& line : result.notes) {
        std::printf("perfbench: %s\n", line.c_str());
    }
    std::printf("%s\n", result.to_json().c_str());
    return 0;
}
