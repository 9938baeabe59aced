// Software device model shared by every built-in backend.
//
// One SimDevice is one switch instance: a dataplane::Pipeline plus the
// table/stateful stores behind it, per-port egress queues, port and stage
// counters, a tap ring and a deterministic virtual clock.  Backend identity
// lives entirely in DeviceConfig (name + quirks), so the reference and
// SDNet-like devices are the same machine configured differently -- exactly
// how one vendor toolchain produces differently-buggy images from the same
// source.
#pragma once

#include <memory>
#include <vector>

#include "control/snapshot.h"
#include "dataplane/stateful.h"
#include "dataplane/tables.h"
#include "target/device.h"

namespace ndb::target {

using util::Bitvec;

class SimDevice final : public Device {
public:
    explicit SimDevice(DeviceConfig config);

    // Device.
    control::Status load(const p4::ir::Program& prog) override;
    bool loaded() const override { return pipeline_ != nullptr; }
    const p4::ir::Program& program() const override;
    const DeviceConfig& config() const override { return config_; }
    void inject(packet::Packet pkt) override;
    std::vector<packet::Packet> drain_port(std::uint32_t port) override;
    void drain_port_into(std::uint32_t port,
                         std::vector<packet::Packet>& out) override;
    void set_taps_enabled(bool on) override;
    bool taps_enabled() const override { return taps_enabled_; }
    const std::vector<TapRecord>& tap_records() const override { return taps_; }
    void clear_tap_records() override { taps_.clear(); }
    void set_digests_enabled(bool on) override;
    bool digests_enabled() const override { return digests_enabled_; }
    const std::vector<dataplane::TapDigest>& digest_records() const override {
        return digests_;
    }
    void clear_digest_records() override { digests_.clear(); }
    std::vector<dataplane::TapDigest> take_digest_records() override {
        std::vector<dataplane::TapDigest> out;
        out.swap(digests_);
        return out;
    }
    void set_coverage(coverage::CoverageMap* map) override;
    coverage::CoverageMap* coverage() const override { return coverage_; }
    std::uint64_t coverage_salt() const override { return cov_salt_; }
    std::uint64_t now_ns() const override { return clock_ns_; }

    // control::RuntimeApi -- resolution.  Handles carry the device's image
    // generation; load() bumps it, so handles resolved against a previous
    // image fail loudly instead of addressing whatever reused the id.
    control::TableHandle resolve_table(const std::string& name) override;
    control::ExternHandle resolve_extern(const std::string& name) override;

    // control::RuntimeApi -- handle-addressed (the resolution-free paths).
    control::Status add_entry(const control::TableHandle& table,
                              const control::EntrySpec& entry) override;
    control::Status delete_entry(const control::TableHandle& table,
                                 const control::EntrySpec& entry) override;
    control::Status set_default_action(const control::TableHandle& table,
                                       const std::string& action,
                                       const std::vector<Bitvec>& args) override;
    control::Status write_register(const control::ExternHandle& ext,
                                   std::uint64_t index,
                                   const Bitvec& value) override;
    control::Status read_register(const control::ExternHandle& ext,
                                  std::uint64_t index, Bitvec& out) override;

    // control::RuntimeApi -- string-addressed (resolve-then-delegate shims).
    control::Status add_entry(const std::string& table,
                              const control::EntrySpec& entry) override;
    control::Status delete_entry(const std::string& table,
                                 const control::EntrySpec& entry) override;
    control::Status set_default_action(const std::string& table,
                                       const std::string& action,
                                       const std::vector<Bitvec>& args) override;
    control::Status clear_table(const std::string& table) override;
    control::Status write_register(const std::string& name, std::uint64_t index,
                                   const Bitvec& value) override;
    control::Status read_register(const std::string& name, std::uint64_t index,
                                  Bitvec& out) override;
    control::Status read_counter(const std::string& name, std::uint64_t index,
                                 control::CounterValue& out) override;
    control::Status configure_meter(const std::string& name, std::uint64_t index,
                                    const control::MeterConfig& config) override;
    control::StatusSnapshot snapshot() override;

    // Clears dynamic state (queues, counters, registers, taps) but keeps the
    // loaded image and installed table entries, like a hardware soft-reset.
    control::Status reset_state() override;

private:
    // Validates a table handle (generation + range), falling back to name
    // resolution for handles from backends without id support.
    control::Status check_table(const control::TableHandle& handle,
                                const p4::ir::Table*& out) const;
    // Same for an extern handle, additionally checking the extern kind.
    control::Status check_extern(const control::ExternHandle& handle,
                                 p4::ir::ExternDecl::Kind kind,
                                 const p4::ir::ExternDecl*& out) const;
    // Resolves an extern of the given kind by name.
    control::Status resolve_extern_decl(const std::string& name,
                                        p4::ir::ExternDecl::Kind kind,
                                        const p4::ir::ExternDecl*& out) const;
    // Maps a control-plane EntrySpec onto the table's engine entry.
    control::Status translate_entry(const p4::ir::Table& table,
                                    const control::EntrySpec& entry,
                                    dataplane::TableEntry& out) const;
    // Resolves an action name + args against a table's permitted actions.
    control::Status resolve_action(const p4::ir::Table& table,
                                   const std::string& action,
                                   const std::vector<Bitvec>& args,
                                   dataplane::ActionEntry& out) const;
    // Clears queues, port counters and taps (shared by load and soft reset).
    void clear_dynamic_state();

    DeviceConfig config_;

    std::unique_ptr<p4::ir::Program> prog_;
    std::unique_ptr<dataplane::TableSet> tables_;
    std::unique_ptr<dataplane::StatefulSet> stateful_;
    std::unique_ptr<dataplane::Pipeline> pipeline_;

    // Per-port egress queues: pre-reserved vectors drained by moving the
    // elements out and keeping the capacity, so batched inject/drain rounds
    // stop reallocating.
    std::vector<std::vector<packet::Packet>> egress_queues_;
    std::vector<control::PortCounters> port_counters_;
    std::uint64_t misdirected_ = 0;

    bool taps_enabled_ = false;
    std::vector<TapRecord> taps_;
    bool digests_enabled_ = false;
    std::vector<dataplane::TapDigest> digests_;
    coverage::CoverageMap* coverage_ = nullptr;  // not owned
    // Per-backend coverage salt: fnv(backend name) ^ fnv(quirk signature),
    // folded into every edge the pipeline records.  Two devices tracing the
    // identical path light different slots when they are different
    // backends, which is what lets the campaign scheduler see DUT-side
    // (quirk-divergent) novelty as distinct from reference novelty.
    std::uint64_t cov_salt_ = 0;

    std::uint64_t clock_ns_ = 0;

    // Bumped by every load(): the validity epoch of issued handles.
    std::uint64_t generation_ = 0;
};

}  // namespace ndb::target
