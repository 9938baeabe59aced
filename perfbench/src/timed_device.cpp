#include "timed_device.h"

#include <mutex>
#include <optional>
#include <set>
#include <type_traits>
#include <utility>

#include "dataplane/digest.h"

namespace perfbench {

namespace ctl = ndb::control;
namespace tgt = ndb::target;
using ndb::util::Bitvec;

void DeviceCallStats::merge(const DeviceCallStats& o) {
    load.merge(o.load);
    apply.merge(o.apply);
    apply_ops += o.apply_ops;
    config_single.merge(o.config_single);
    inject_digest.merge(o.inject_digest);
    inject_tap.merge(o.inject_tap);
    inject_plain.merge(o.inject_plain);
    drain.merge(o.drain);
    snapshot.merge(o.snapshot);
    tap_ops.merge(o.tap_ops);
    other.merge(o.other);
    inject_digest_hist.merge(o.inject_digest_hist);
}

std::uint64_t DeviceCallStats::busy_ns() const {
    return load.ns + apply.ns + config_single.ns + inject_digest.ns +
           inject_tap.ns + inject_plain.ns + drain.ns + snapshot.ns +
           tap_ops.ns + other.ns;
}

void time_tap_digests(const tgt::Device& dev, int reps, CallStat& stat) {
    const ndb::p4::ir::Program& prog = dev.program();
    for (const tgt::TapRecord& rec : dev.tap_records()) {
        for (const auto* tap : {&rec.result.tap_after_parser,
                                &rec.result.tap_after_ingress,
                                &rec.result.tap_after_egress}) {
            if (!tap->has_value()) continue;
            // hash_packet_state lives in another translation unit, so the
            // calls cannot be folded away.
            const std::uint64_t t0 = now_ns();
            for (int r = 0; r < reps; ++r) ndb::dataplane::hash_packet_state(prog, **tap);
            stat.ns += now_ns() - t0;
            stat.calls += static_cast<std::uint64_t>(reps);
        }
    }
}

void LayerMetrics::from_device_stats(const DeviceCallStats& st, double scenarios) {
    const double busy = static_cast<double>(st.busy_ns());
    load_us = st.load.mean_ns() / 1e3;
    loads_per_scenario = static_cast<double>(st.load.calls) / scenarios;
    load_share = busy > 0 ? static_cast<double>(st.load.ns) / busy : 0;
    snapshot_us = st.snapshot.mean_ns() / 1e3;
    apply_us = st.apply.mean_ns() / 1e3;
    apply_op_ns = st.apply_ops ? static_cast<double>(st.apply.ns) /
                                     static_cast<double>(st.apply_ops)
                               : 0;
    inject_ns = st.inject_digest.mean_ns();
    inject_p99_ns = st.inject_digest_hist.quantile(0.99);
    inject_tap_ns = st.inject_tap.mean_ns();
    injects_per_scenario = static_cast<double>(st.injects()) / scenarios;
}

void LayerMetrics::emit(Result& out) const {
    out.metric("core.specgen.make_us", specgen_make_us, "us");
    out.metric("core.scenario_packets_us", scenario_packets_us, "us");
    out.metric("core.diff_us", diff_us, "us");
    out.metric("core.triage_ms_per_finding", triage_ms_per_finding, "ms");
    out.metric("core.replay_loads_per_finding", replay_loads_per_finding, "count");
    out.metric("core.localize_probes_per_finding", localize_probes_per_finding,
               "count");
    out.metric("core.orchestration_share", orchestration_share, "fraction");
    out.metric("core.unique_findings", unique_findings, "count");
    out.metric("target.load_us", load_us, "us");
    out.metric("target.loads_per_scenario", loads_per_scenario, "count");
    out.metric("target.load_share", load_share, "fraction");
    out.metric("target.snapshot_us", snapshot_us, "us");
    out.metric("control.apply_us", apply_us, "us");
    out.metric("control.apply_op_ns", apply_op_ns, "ns");
    out.metric("dataplane.inject_ns", inject_ns, "ns");
    out.metric("dataplane.inject_p99_ns", inject_p99_ns, "ns");
    out.metric("dataplane.inject_tap_ns", inject_tap_ns, "ns");
    out.metric("dataplane.injects_per_scenario", injects_per_scenario, "count");
    out.metric("dataplane.digest_ns", digest_ns, "ns");
    out.metric("dataplane.tables.lpm_lookup_ns", lpm_lookup_ns, "ns");
    out.metric("dataplane.tables.lpm_insert_ns", lpm_insert_ns, "ns");
    out.metric("dataplane.tables.lpm_rss_mb", lpm_rss_mb, "MB");
    out.metric("coverage.rounds", coverage_rounds, "count");
    out.metric("verify.concolic_targets", concolic_targets, "count");
    out.metric("trace.overhead_pct", overhead_pct, "%");
}

namespace {

class TimedDevice;

// Devices alive now plus the sum of those already destroyed.
struct Collector {
    std::mutex mutex;
    std::set<const TimedDevice*> live;
    DeviceCallStats retired;
};

Collector& collector() {
    static Collector c;
    return c;
}

// Times one forwarded call into `stat`.
template <typename F>
auto timed(CallStat& stat, F&& call) {
    const std::uint64_t t0 = now_ns();
    if constexpr (std::is_void_v<decltype(call())>) {
        call();
        stat.add(now_ns() - t0);
    } else {
        auto out = call();
        stat.add(now_ns() - t0);
        return out;
    }
}

class TimedDevice final : public tgt::Device {
public:
    explicit TimedDevice(std::unique_ptr<tgt::Device> inner)
        : inner_(std::move(inner)) {
        const std::lock_guard<std::mutex> lock(collector().mutex);
        collector().live.insert(this);
    }
    ~TimedDevice() override {
        const std::lock_guard<std::mutex> lock(collector().mutex);
        collector().live.erase(this);
        collector().retired.merge(stats_);
    }
    TimedDevice(const TimedDevice&) = delete;
    TimedDevice& operator=(const TimedDevice&) = delete;

    const DeviceCallStats& stats() const { return stats_; }

    // --- Device --------------------------------------------------------------
    ctl::Status load(const ndb::p4::ir::Program& prog) override {
        return timed(stats_.load, [&] { return inner_->load(prog); });
    }
    bool loaded() const override { return inner_->loaded(); }
    const ndb::p4::ir::Program& program() const override {
        return inner_->program();
    }
    const tgt::DeviceConfig& config() const override { return inner_->config(); }

    void inject(ndb::packet::Packet pkt) override {
        const bool taps = inner_->taps_enabled();
        const bool digests = inner_->digests_enabled();
        const std::uint64_t t0 = perfbench::now_ns();
        inner_->inject(std::move(pkt));
        const std::uint64_t dt = perfbench::now_ns() - t0;
        if (taps) {
            stats_.inject_tap.add(dt);
        } else if (digests) {
            stats_.inject_digest.add(dt);
            stats_.inject_digest_hist.record(dt);
        } else {
            stats_.inject_plain.add(dt);
        }
    }
    std::vector<ndb::packet::Packet> drain_port(std::uint32_t port) override {
        return timed(stats_.drain, [&] { return inner_->drain_port(port); });
    }
    void drain_port_into(std::uint32_t port,
                         std::vector<ndb::packet::Packet>& out) override {
        timed(stats_.drain, [&] { inner_->drain_port_into(port, out); });
    }

    void set_taps_enabled(bool on) override {
        timed(stats_.tap_ops, [&] { inner_->set_taps_enabled(on); });
    }
    bool taps_enabled() const override { return inner_->taps_enabled(); }
    const std::vector<tgt::TapRecord>& tap_records() const override {
        const std::uint64_t t0 = perfbench::now_ns();
        const std::vector<tgt::TapRecord>& records = inner_->tap_records();
        stats_.tap_ops.add(perfbench::now_ns() - t0);
        return records;
    }
    void clear_tap_records() override {
        timed(stats_.tap_ops, [&] { inner_->clear_tap_records(); });
    }
    void set_digests_enabled(bool on) override {
        timed(stats_.tap_ops, [&] { inner_->set_digests_enabled(on); });
    }
    bool digests_enabled() const override { return inner_->digests_enabled(); }
    const std::vector<ndb::dataplane::TapDigest>& digest_records() const override {
        const std::uint64_t t0 = perfbench::now_ns();
        const std::vector<ndb::dataplane::TapDigest>& records = inner_->digest_records();
        stats_.tap_ops.add(perfbench::now_ns() - t0);
        return records;
    }
    void clear_digest_records() override {
        timed(stats_.tap_ops, [&] { inner_->clear_digest_records(); });
    }
    std::vector<ndb::dataplane::TapDigest> take_digest_records() override {
        return timed(stats_.tap_ops, [&] { return inner_->take_digest_records(); });
    }

    void set_coverage(ndb::coverage::CoverageMap* map) override {
        timed(stats_.other, [&] { inner_->set_coverage(map); });
    }
    ndb::coverage::CoverageMap* coverage() const override {
        return inner_->coverage();
    }
    std::uint64_t coverage_salt() const override { return inner_->coverage_salt(); }
    void set_engine(ndb::dataplane::Engine engine) override {
        timed(stats_.other, [&] { inner_->set_engine(engine); });
    }
    ndb::dataplane::Engine engine() const override { return inner_->engine(); }
    std::uint64_t now_ns() const override { return inner_->now_ns(); }

    // --- RuntimeApi ----------------------------------------------------------
    ctl::TableHandle resolve_table(const std::string& name) override {
        return timed(stats_.config_single, [&] { return inner_->resolve_table(name); });
    }
    ctl::ExternHandle resolve_extern(const std::string& name) override {
        return timed(stats_.config_single,
                     [&] { return inner_->resolve_extern(name); });
    }
    ctl::Status add_entry(const std::string& table,
                          const ctl::EntrySpec& entry) override {
        return timed(stats_.config_single,
                     [&] { return inner_->add_entry(table, entry); });
    }
    ctl::Status delete_entry(const std::string& table,
                             const ctl::EntrySpec& entry) override {
        return timed(stats_.config_single,
                     [&] { return inner_->delete_entry(table, entry); });
    }
    ctl::Status set_default_action(const std::string& table,
                                   const std::string& action,
                                   const std::vector<Bitvec>& args) override {
        return timed(stats_.config_single, [&] {
            return inner_->set_default_action(table, action, args);
        });
    }
    ctl::Status clear_table(const std::string& table) override {
        return timed(stats_.config_single, [&] { return inner_->clear_table(table); });
    }
    ctl::Status write_register(const std::string& name, std::uint64_t index,
                               const Bitvec& value) override {
        return timed(stats_.config_single,
                     [&] { return inner_->write_register(name, index, value); });
    }
    ctl::Status read_register(const std::string& name, std::uint64_t index,
                              Bitvec& out) override {
        return timed(stats_.other,
                     [&] { return inner_->read_register(name, index, out); });
    }
    ctl::Status read_counter(const std::string& name, std::uint64_t index,
                             ctl::CounterValue& out) override {
        return timed(stats_.other,
                     [&] { return inner_->read_counter(name, index, out); });
    }
    ctl::Status configure_meter(const std::string& name, std::uint64_t index,
                                const ctl::MeterConfig& config) override {
        return timed(stats_.config_single,
                     [&] { return inner_->configure_meter(name, index, config); });
    }
    ctl::Status add_entry(const ctl::TableHandle& table,
                          const ctl::EntrySpec& entry) override {
        return timed(stats_.config_single,
                     [&] { return inner_->add_entry(table, entry); });
    }
    ctl::Status delete_entry(const ctl::TableHandle& table,
                             const ctl::EntrySpec& entry) override {
        return timed(stats_.config_single,
                     [&] { return inner_->delete_entry(table, entry); });
    }
    ctl::Status set_default_action(const ctl::TableHandle& table,
                                   const std::string& action,
                                   const std::vector<Bitvec>& args) override {
        return timed(stats_.config_single, [&] {
            return inner_->set_default_action(table, action, args);
        });
    }
    ctl::Status write_register(const ctl::ExternHandle& ext, std::uint64_t index,
                               const Bitvec& value) override {
        return timed(stats_.config_single,
                     [&] { return inner_->write_register(ext, index, value); });
    }
    ctl::Status read_register(const ctl::ExternHandle& ext, std::uint64_t index,
                              Bitvec& out) override {
        return timed(stats_.other,
                     [&] { return inner_->read_register(ext, index, out); });
    }
    std::vector<ctl::Status> apply(std::span<const ctl::ConfigOp> ops) override {
        stats_.apply_ops += ops.size();
        return timed(stats_.apply, [&] { return inner_->apply(ops); });
    }
    ctl::StatusSnapshot snapshot() override {
        return timed(stats_.snapshot, [&] { return inner_->snapshot(); });
    }
    ctl::Status reset_state() override {
        return timed(stats_.other, [&] { return inner_->reset_state(); });
    }

private:
    std::unique_ptr<tgt::Device> inner_;
    // The const tap accessors still count as device calls.
    mutable DeviceCallStats stats_;
};

}  // namespace

void register_traced_backends() {
    for (const char* name : {"reference", "sdnet"}) {
        const std::string inner = name;
        tgt::register_backend(
            "traced." + inner,
            [inner](std::optional<ndb::dataplane::Quirks> quirks) {
                return std::unique_ptr<tgt::Device>(
                    new TimedDevice(tgt::make_device(inner, quirks)));
            });
    }
}

std::unique_ptr<tgt::Device> make_timed(std::unique_ptr<tgt::Device> inner) {
    return std::unique_ptr<tgt::Device>(new TimedDevice(std::move(inner)));
}

DeviceCallStats collected_stats() {
    const std::lock_guard<std::mutex> lock(collector().mutex);
    DeviceCallStats sum = collector().retired;
    for (const TimedDevice* dev : collector().live) sum.merge(dev->stats());
    return sum;
}

void reset_collected_stats() {
    const std::lock_guard<std::mutex> lock(collector().mutex);
    collector().retired = DeviceCallStats{};
}

}  // namespace perfbench
