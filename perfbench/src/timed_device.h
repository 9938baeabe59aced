// The traced run's timing device: a target::Device that forwards every
// call to a real backend and counts and times it from outside.
//
// Registered under its own names ("traced.reference", "traced.sdnet"), so a
// campaign picks it up through the ordinary backend registry while its
// BackendSpec labels stay "reference"/"sdnet".  Everything the report
// derives from a device (quirk signature, coverage salt, engine) comes from
// the wrapped backend, which keeps the traced report byte-identical to an
// untraced one.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common.h"
#include "target/device.h"

namespace perfbench {

// Counts and busy time of one device-call family.
struct CallStat {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    void add(std::uint64_t dt) {
        ++calls;
        ns += dt;
    }
    void merge(const CallStat& o) {
        calls += o.calls;
        ns += o.ns;
    }
    double mean_ns() const { return calls ? static_cast<double>(ns) / calls : 0; }
};

struct DeviceCallStats {
    CallStat load;
    CallStat apply;            // batched RuntimeApi::apply
    std::uint64_t apply_ops = 0;
    CallStat config_single;    // add_entry & co. outside apply()
    CallStat inject_digest;    // digests on, taps off: the detection path
    CallStat inject_tap;       // taps on: localization replays
    CallStat inject_plain;     // neither
    CallStat drain;
    CallStat snapshot;
    CallStat tap_ops;          // tap/digest ring toggles, reads and clears
    CallStat other;            // coverage, engine, reset, registers, ...
    LatencyHistogram inject_digest_hist;

    void merge(const DeviceCallStats& o);
    std::uint64_t busy_ns() const;
    std::uint64_t injects() const {
        return inject_digest.calls + inject_tap.calls + inject_plain.calls;
    }
};

// The per-layer metrics a traced run prints, in BENCHMARK.json order.  A
// layer that does no such work on a workload reads 0 there.
struct LayerMetrics {
    double specgen_make_us = 0;
    double scenario_packets_us = 0;
    double diff_us = 0;
    double triage_ms_per_finding = 0;
    double replay_loads_per_finding = 0;
    double localize_probes_per_finding = 0;
    double orchestration_share = 0;
    double unique_findings = 0;
    double load_us = 0;
    double loads_per_scenario = 0;
    double load_share = 0;
    double snapshot_us = 0;
    double apply_us = 0;
    double apply_op_ns = 0;
    double inject_ns = 0;
    double inject_p99_ns = 0;
    double inject_tap_ns = 0;
    double injects_per_scenario = 0;
    double digest_ns = 0;
    double lpm_lookup_ns = 0;
    double lpm_insert_ns = 0;
    double lpm_rss_mb = 0;
    double coverage_rounds = 0;
    double concolic_targets = 0;
    double overhead_pct = 0;

    // Fills the target/control/dataplane device-call figures.
    void from_device_stats(const DeviceCallStats& st, double scenarios);
    void emit(Result& out) const;
};

// Direct timer for the tap digest: hashes every stage state in the
// device's tap ring `reps` times with dataplane::hash_packet_state and adds
// the calls and their time to `stat`.
void time_tap_digests(const ndb::target::Device& dev, int reps, CallStat& stat);

// Registers "traced.reference" and "traced.sdnet" (idempotent).
void register_traced_backends();

// Wraps an already-built device (the FIB workload builds its own).
std::unique_ptr<ndb::target::Device> make_timed(
    std::unique_ptr<ndb::target::Device> inner);

// Sum over every timed device destroyed since the last reset, plus the
// live ones.  Not thread-safe against concurrently running campaigns:
// read it after the run has joined its workers.
DeviceCallStats collected_stats();
void reset_collected_stats();

}  // namespace perfbench
