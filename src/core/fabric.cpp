#include "core/fabric.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "control/transport.h"
#include "control/wire.h"
#include "core/scenario_exec.h"
#include "obs/telemetry.h"
#include "util/strings.h"

namespace ndb::core {
namespace {

namespace wire = control::wire;
using Clock = std::chrono::steady_clock;

// --- outcome serialization ----------------------------------------------------
//
// A job_result payload carries the shard's ScenarioOutcomes: everything the
// parent's ReportBuilder needs to fold findings exactly as the in-process
// engine would.  duplicates/discovered_at are fold outputs, not worker
// observations, so they do not cross the wire.

void write_localize(wire::Writer& w, const LocalizeResult& l) {
    w.u8(l.diverged ? 1 : 0);
    w.u8(static_cast<std::uint8_t>(l.stage));
    w.str(l.description);
    w.i32(l.probes);
    w.u64(l.packets_replayed);
    w.u8(l.conclusive ? 1 : 0);
}

bool read_localize(wire::Reader& r, LocalizeResult& out) {
    std::uint8_t diverged = 0;
    std::uint8_t stage = 0;
    std::uint8_t conclusive = 0;
    r.u8(diverged);
    r.u8(stage);
    r.str(out.description);
    r.i32(out.probes);
    r.u64(out.packets_replayed);
    if (!r.u8(conclusive)) return false;
    out.diverged = diverged != 0;
    out.stage = static_cast<dataplane::Stage>(stage);
    out.conclusive = conclusive != 0;
    return true;
}

void write_record(wire::Writer& w, const DivergenceRecord& rec) {
    w.u64(rec.seed);
    w.str(rec.backend);
    w.str(rec.program);
    w.str(rec.quirk_signature);
    w.str(rec.kind);
    w.str(rec.detail);
    w.u64(rec.first_diverging_packet);
    w.u64(rec.minimized_count);
    w.u8(rec.minimized_reproduces ? 1 : 0);
    write_localize(w, rec.localized);
    w.str(rec.recipe);
    w.str(rec.fingerprint);
}

bool read_record(wire::Reader& r, DivergenceRecord& out) {
    std::uint8_t reproduces = 0;
    r.u64(out.seed);
    r.str(out.backend);
    r.str(out.program);
    r.str(out.quirk_signature);
    r.str(out.kind);
    r.str(out.detail);
    r.u64(out.first_diverging_packet);
    r.u64(out.minimized_count);
    if (!r.u8(reproduces)) return false;
    out.minimized_reproduces = reproduces != 0;
    if (!read_localize(r, out.localized)) return false;
    r.str(out.recipe);
    return r.str(out.fingerprint);
}

void write_outcome(wire::Writer& w, const ScenarioOutcome& o) {
    w.u64(o.packets);
    w.u64(o.mgmt.requests);
    w.u64(o.mgmt.frames_sent);
    w.u64(o.mgmt.retries);
    w.u64(o.mgmt.timeouts);
    w.u64(o.mgmt.decode_errors);
    w.u64(o.mgmt.faults_injected);
    w.u64(o.mgmt.dedup_hits);
    w.u32(static_cast<std::uint32_t>(o.findings.size()));
    for (const auto& rec : o.findings) write_record(w, rec);
}

bool read_outcome(wire::Reader& r, ScenarioOutcome& out) {
    r.u64(out.packets);
    r.u64(out.mgmt.requests);
    r.u64(out.mgmt.frames_sent);
    r.u64(out.mgmt.retries);
    r.u64(out.mgmt.timeouts);
    r.u64(out.mgmt.decode_errors);
    r.u64(out.mgmt.faults_injected);
    std::uint32_t findings = 0;
    if (!r.u64(out.mgmt.dedup_hits) || !r.count(findings)) return false;
    out.findings.resize(findings);
    for (auto& rec : out.findings) {
        if (!read_record(r, rec)) return false;
    }
    return r.ok();
}

// --- worker process -----------------------------------------------------------

// Event loop of one forked worker: answer heartbeats, execute job shards
// through the shared execute_scenario() core, stream results back.  Exits
// via _Exit (never returns into the parent's stack): the forked child must
// not run the parent's atexit/static-destructor chain.
[[noreturn]] void worker_main(int fd, const FabricConfig& cfg,
                              const std::vector<BackendSpec>& duts,
                              const ExecOptions& exec,
                              const control::FaultPlan& link_plan,
                              std::uint64_t link_salt) {
    try {
        // Telemetry enable flags and the trace epoch were inherited across
        // the fork; zero the inherited samples so this worker's deltas
        // cover only what it records itself.
        if (obs::Telemetry::any_enabled()) obs::Telemetry::reset();
        control::FdTransport transport(fd);
        control::FaultInjector out(link_plan, link_salt);
        wire::FrameReader reader;
        const SpecGenerator gen(cfg.campaign.programs);
        std::unique_ptr<WorkerContext> ctx;
        // Injector decisions already reported to the parent (each result
        // frame carries the delta, so the parent can aggregate link faults
        // it never directly observed).
        std::uint64_t faults_reported = 0;

        const auto pump = [&] {
            std::vector<std::vector<std::uint8_t>> due;
            out.tick(due);
            for (const auto& chunk : due) transport.send(chunk);
        };
        const auto send_frame = [&](const wire::Frame& f) {
            out.send(wire::encode_frame(f));
            pump();
        };

        for (;;) {
            transport.tick();  // ~1ms poll
            std::vector<std::uint8_t> rx;
            if (transport.receive(rx)) reader.feed(rx);
            if (!transport.alive()) std::_Exit(0);  // parent is gone
            pump();  // delayed frames drain even while idle

            wire::Frame frame;
            while (reader.next(frame)) {
                switch (frame.kind) {
                    case wire::FrameKind::heartbeat: {
                        // The ack doubles as the telemetry ship: its payload
                        // is the delta since the last ack (empty payload =
                        // nothing new).  It rides the injected link, so a
                        // dropped ack loses that delta -- acceptable for
                        // observe-only cargo.
                        wire::Frame ack;
                        ack.kind = wire::FrameKind::heartbeat_ack;
                        ack.seq = frame.seq;
                        if (obs::Telemetry::any_enabled()) {
                            const obs::TelemetryDelta delta =
                                obs::Telemetry::take_delta();
                            if (!delta.empty()) {
                                ack.payload = obs::Telemetry::encode_delta(delta);
                            }
                        }
                        send_frame(ack);
                        break;
                    }
                    case wire::FrameKind::shutdown:
                        // Last telemetry delta goes out on the raw transport:
                        // like the shutdown frame itself, teardown
                        // housekeeping bypasses fault injection.
                        if (obs::Telemetry::any_enabled()) {
                            const obs::TelemetryDelta delta =
                                obs::Telemetry::take_delta();
                            if (!delta.empty()) {
                                wire::Frame fin;
                                fin.kind = wire::FrameKind::heartbeat_ack;
                                fin.seq = frame.seq;
                                fin.payload = obs::Telemetry::encode_delta(delta);
                                transport.send(wire::encode_frame(fin));
                            }
                        }
                        std::_Exit(0);
                    case wire::FrameKind::job: {
                        wire::Reader r(frame.payload);
                        std::uint64_t start = 0;
                        std::uint32_t count = 0;
                        // A malformed job is dropped; the parent's
                        // retransmit path recovers it.
                        if (!r.u64(start) || !r.u32(count) || !r.done()) break;
                        if (!ctx) {
                            ctx = std::make_unique<WorkerContext>(
                                cfg.campaign.reference_backend, duts);
                        }
                        wire::Writer w;
                        w.u64(frame.seq);  // shard id
                        w.u64(out.faults() - faults_reported);
                        faults_reported = out.faults();
                        w.u32(count);
                        for (std::uint32_t k = 0; k < count; ++k) {
                            const Scenario sc =
                                gen.make(cfg.campaign.base_seed + start + k);
                            ScenarioOutcome outcome;
                            execute_scenario(*ctx, sc, duts, exec, outcome,
                                             std::string());
                            write_outcome(w, outcome);
                        }
                        wire::Frame res;
                        res.kind = wire::FrameKind::job_result;
                        res.seq = frame.seq;
                        res.payload = w.take();
                        send_frame(res);
                        break;
                    }
                    default:
                        break;  // not worker-bound traffic; ignore
                }
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "ndb fabric worker: %s\n", e.what());
        std::_Exit(2);
    } catch (...) {
        std::_Exit(2);
    }
}

// --- parent-side bookkeeping --------------------------------------------------

struct Shard {
    std::uint64_t id = 0;     // ordinal; doubles as the job frame seq
    std::uint64_t start = 0;  // first scenario index
    std::uint32_t count = 0;
};

struct WorkerSlot {
    pid_t pid = -1;
    std::unique_ptr<control::FdTransport> transport;
    wire::FrameReader reader;
    control::FaultInjector out;
    std::optional<Shard> inflight;
    Clock::time_point job_sent{};
    Clock::time_point last_frame{};  // any well-formed frame received
    Clock::time_point last_ack{};    // heartbeat_ack specifically
    Clock::time_point last_hb{};     // heartbeat emitted
    int restarts = 0;                // respawn generation
};

}  // namespace

FabricEngine::FabricEngine(FabricConfig config)
    : config_(std::move(config)) {}

CampaignReport FabricEngine::run() {
    CampaignConfig& cc = config_.campaign;

    if (config_.workers < 1 || config_.workers > 64) {
        throw std::invalid_argument("fabric: workers must be in [1, 64]");
    }
    if (config_.shard_size < 1 ||
        config_.shard_size > wire::kMaxSequenceItems) {
        throw std::invalid_argument(util::format(
            "fabric: shard size must be in [1, %zu]", wire::kMaxSequenceItems));
    }
    if (cc.coverage || cc.mutate || cc.concolic || !cc.mutation_recipe.empty()) {
        throw std::invalid_argument(
            "fabric: only the uniform sweep shards across processes "
            "(coverage/mutation/concolic modes keep their feedback loops at "
            "round barriers inside one process)");
    }

    const std::vector<BackendSpec> duts = resolve_duts(cc);
    const SpecGenerator gen(cc.programs);

    ExecOptions exec;
    exec.batch_size = cc.batch_size;
    exec.minimize = cc.minimize;
    exec.localize = cc.localize;
    exec.coverage = false;
    // Both plans parse up front, before any fork: a malformed spec must be
    // a clean invalid_argument, not a worker crash loop.
    exec.mgmt.plan = control::FaultPlan::parse(cc.mgmt_fault_plan);
    exec.mgmt.enabled = exec.mgmt.plan.enabled();
    const control::FaultPlan link_plan =
        control::FaultPlan::parse(config_.link_fault_plan);

    CampaignReport report;
    report.base_seed = cc.base_seed;
    report.scenarios = cc.scenarios;
    report.programs = gen.programs();
    for (const auto& d : duts) report.backends.push_back(d.label);
    report.mgmt_enabled = exec.mgmt.enabled;
    report.fabric_enabled = true;
    report.fabric.workers = static_cast<std::uint64_t>(config_.workers);
    if (obs::metrics_on()) {
        obs::Metrics::instance().gauge_set(obs::Gauge::fabric_workers,
                                           config_.workers);
    }

    // The shard plan: fixed up front, so a shard id names the same scenario
    // range no matter which worker (or respawn generation) runs it.
    std::deque<Shard> pending;
    const std::uint64_t total_shards =
        (cc.scenarios + config_.shard_size - 1) / config_.shard_size;
    for (std::uint64_t sid = 0; sid < total_shards; ++sid) {
        const std::uint64_t start = sid * config_.shard_size;
        pending.push_back(
            {sid, start,
             static_cast<std::uint32_t>(std::min<std::uint64_t>(
                 config_.shard_size, cc.scenarios - start))});
    }
    std::vector<std::unique_ptr<ScenarioOutcome>> outcomes(cc.scenarios);
    std::vector<bool> shard_done(total_shards, false);
    std::uint64_t shards_left = total_shards;
    std::uint64_t results_received = 0;
    std::uint64_t hb_seq = 0;
    bool kill_fired = false;

    const auto hb_interval =
        std::chrono::milliseconds(config_.heartbeat_interval_ms);
    const auto hb_timeout =
        std::chrono::milliseconds(config_.heartbeat_timeout_ms);
    const auto resend_after = std::chrono::milliseconds(config_.job_resend_ms);

    std::vector<WorkerSlot> slots(static_cast<std::size_t>(config_.workers));

    // Link-layer accounting survives a slot's respawn by folding the dying
    // incarnation's reader/injector stats into the report first.
    const auto retire_link = [&](WorkerSlot& s) {
        report.fabric.link_frames += s.reader.stats().frames;
        report.fabric.link_corrupt += s.reader.stats().corrupt_frames;
        report.fabric.link_faults += s.out.faults();
    };

    const auto spawn = [&](std::size_t slot_index) {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
            throw std::runtime_error("fabric: socketpair failed");
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::close(sv[0]);
            ::close(sv[1]);
            throw std::runtime_error("fabric: fork failed");
        }
        WorkerSlot& s = slots[slot_index];
        if (pid == 0) {
            // Child: drop every parent-side fd, ours included -- a sibling
            // holding a dead worker's socket open would mask its death.
            ::close(sv[0]);
            for (auto& other : slots) {
                if (other.transport) other.transport->close();
            }
            // Salt by slot and respawn generation: a respawned worker must
            // not replay its predecessor's exact fault schedule, or a
            // deterministically-dropped result frame could live-lock the
            // shard into the restart cap.
            const std::uint64_t salt =
                util::fnv1a_64("ndb.fabric.worker") ^
                (slot_index + 1) * 0x9e3779b97f4a7c15ull ^
                static_cast<std::uint64_t>(s.restarts) * 0xc2b2ae3d27d4eb4full;
            worker_main(sv[1], config_, duts, exec, link_plan, salt);
        }
        ::close(sv[1]);
        if (obs::metrics_on()) obs::count(obs::Counter::worker_spawns);
        if (obs::trace_on()) {
            obs::trace_instant(s.restarts > 0 ? "worker_respawn" : "worker_spawn",
                               "slot", slot_index,
                               "pid", static_cast<std::uint64_t>(pid));
        }
        s.pid = pid;
        s.transport = std::make_unique<control::FdTransport>(sv[0]);
        s.reader = wire::FrameReader();
        s.out = control::FaultInjector(
            link_plan, util::fnv1a_64("ndb.fabric.parent") ^
                           (slot_index + 1) * 0x9e3779b97f4a7c15ull ^
                           static_cast<std::uint64_t>(s.restarts) *
                               0xc2b2ae3d27d4eb4full);
        s.inflight.reset();
        const auto now = Clock::now();
        s.job_sent = s.last_frame = s.last_ack = s.last_hb = now;
    };

    const auto send_frame = [&](WorkerSlot& s, const wire::Frame& f) {
        s.out.send(wire::encode_frame(f));
    };
    // Heartbeat acks carry the worker's telemetry delta as payload; fold it
    // into the parent's imported accumulators (a bad payload is dropped
    // whole -- telemetry never poisons the run).
    const auto import_telemetry = [](const wire::Frame& frame) {
        if (frame.payload.empty() || !obs::Telemetry::any_enabled()) return;
        obs::TelemetryDelta delta;
        if (obs::Telemetry::decode_delta(frame.payload, delta)) {
            obs::Telemetry::import_delta(std::move(delta));
        }
    };
    const auto send_job = [&](WorkerSlot& s) {
        wire::Frame job;
        job.kind = wire::FrameKind::job;
        job.seq = s.inflight->id;
        wire::Writer w;
        w.u64(s.inflight->start);
        w.u32(s.inflight->count);
        job.payload = w.take();
        send_frame(s, job);
        s.job_sent = Clock::now();
    };

    const auto handle_result = [&](WorkerSlot& s, const wire::Frame& frame) {
        wire::Reader r(frame.payload);
        std::uint64_t shard_id = 0;
        std::uint64_t faults_delta = 0;
        std::uint32_t count = 0;
        if (!r.u64(shard_id) || !r.u64(faults_delta) || !r.count(count)) return;
        if (shard_id >= total_shards) return;
        const std::uint64_t start = shard_id * config_.shard_size;
        const auto expected = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(config_.shard_size, cc.scenarios - start));
        if (count != expected) return;
        // Decode the whole payload before committing anything: a result
        // that goes bad half-way is treated as lost, not half-applied.
        std::vector<ScenarioOutcome> decoded(count);
        for (auto& o : decoded) {
            if (!read_outcome(r, o)) return;
        }
        if (!r.done()) return;

        report.fabric.link_faults += faults_delta;
        ++results_received;
        if (s.inflight && s.inflight->id == shard_id) s.inflight.reset();
        // A retransmitted job or a re-dispatched shard can complete twice;
        // first result wins, duplicates are dropped whole.
        if (shard_done[shard_id]) return;
        shard_done[shard_id] = true;
        --shards_left;
        for (std::uint32_t k = 0; k < count; ++k) {
            outcomes[start + k] =
                std::make_unique<ScenarioOutcome>(std::move(decoded[k]));
        }
    };

    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < slots.size(); ++i) spawn(i);

    while (shards_left > 0) {
        const auto now = Clock::now();
        for (auto& s : slots) {
            if (!s.inflight && !pending.empty()) {
                s.inflight = pending.front();
                pending.pop_front();
                send_job(s);
            }
            if (now - s.last_hb >= hb_interval) {
                send_frame(s, {wire::FrameKind::heartbeat, ++hb_seq, {}});
                s.last_hb = now;
            }
            // The worker answered a heartbeat sent after its job went out,
            // yet no result: it is alive and idle, so the job or the result
            // frame died on the link -- retransmit (execution is safe to
            // repeat; shard dedup keeps the first result).
            if (s.inflight && s.last_ack > s.job_sent &&
                now - s.job_sent >= resend_after) {
                ++report.fabric.jobs_resent;
                send_job(s);
            }
            // Flush injector-held frames, then collect inbound traffic.
            std::vector<std::vector<std::uint8_t>> due;
            s.out.tick(due);
            for (const auto& chunk : due) s.transport->send(chunk);
            s.transport->tick();
            std::vector<std::uint8_t> rx;
            if (s.transport->receive(rx)) s.reader.feed(rx);
            wire::Frame frame;
            while (s.reader.next(frame)) {
                s.last_frame = now;
                if (frame.kind == wire::FrameKind::heartbeat_ack) {
                    s.last_ack = now;
                    import_telemetry(frame);
                } else if (frame.kind == wire::FrameKind::job_result) {
                    handle_result(s, frame);
                }
            }
        }

        if (!kill_fired && config_.kill_worker_after_results >= 0 &&
            results_received >=
                static_cast<std::uint64_t>(config_.kill_worker_after_results)) {
            kill_fired = true;
            if (slots[0].pid > 0) ::kill(slots[0].pid, SIGKILL);
        }

        // Watchdog: a slot is dead when its process was reaped, its stream
        // closed, or it sat silent past the heartbeat timeout with a shard
        // in flight (hung).  Death costs a respawn and a shard re-dispatch,
        // never a lost scenario.
        for (std::size_t i = 0; i < slots.size(); ++i) {
            WorkerSlot& s = slots[i];
            bool dead = false;
            if (s.pid > 0 && ::waitpid(s.pid, nullptr, WNOHANG) == s.pid) {
                s.pid = -1;
                dead = true;
            }
            if (!dead && !s.transport->alive()) dead = true;
            if (!dead && s.inflight && now - s.last_frame > hb_timeout) {
                dead = true;
            }
            if (!dead) continue;
            if (s.pid > 0) {
                ::kill(s.pid, SIGKILL);
                ::waitpid(s.pid, nullptr, 0);
                s.pid = -1;
            }
            retire_link(s);
            ++report.fabric.worker_restarts;
            if (obs::metrics_on()) obs::count(obs::Counter::worker_restarts);
            if (obs::trace_on()) {
                obs::trace_instant("worker_kill", "slot", i, "restarts",
                                   static_cast<std::uint64_t>(s.restarts));
            }
            if (s.inflight) {
                pending.push_front(*s.inflight);
                s.inflight.reset();
                ++report.fabric.shards_redispatched;
            }
            if (++s.restarts > config_.max_restarts_per_worker) {
                throw std::runtime_error(util::format(
                    "fabric: worker slot %zu died %d times; a worker that "
                    "keeps dying is failing deterministically, not crashing "
                    "by injection",
                    i, s.restarts));
            }
            spawn(i);
        }
    }

    // Orderly teardown: shutdown frames bypass the fault injector (this is
    // housekeeping, not the experiment), stragglers get SIGKILL.
    for (auto& s : slots) {
        if (s.pid <= 0) continue;
        wire::Frame bye;
        bye.kind = wire::FrameKind::shutdown;
        s.transport->send(wire::encode_frame(bye));
    }
    // Each worker's final telemetry delta lands on its link right before
    // exit; pump the transport while waiting to reap (no-op when telemetry
    // is off, so the untelemetered teardown is unchanged).
    const auto drain_telemetry = [&](WorkerSlot& s) {
        if (!s.transport || !obs::Telemetry::any_enabled()) return;
        s.transport->tick();
        std::vector<std::uint8_t> rx;
        if (s.transport->receive(rx)) s.reader.feed(rx);
        wire::Frame frame;
        while (s.reader.next(frame)) {
            if (frame.kind == wire::FrameKind::heartbeat_ack) {
                import_telemetry(frame);
            }
        }
    };
    for (auto& s : slots) {
        if (s.pid > 0) {
            bool reaped = false;
            for (int i = 0; i < 250 && !reaped; ++i) {
                drain_telemetry(s);
                if (::waitpid(s.pid, nullptr, WNOHANG) == s.pid) {
                    reaped = true;
                } else {
                    std::this_thread::sleep_for(std::chrono::milliseconds(2));
                }
            }
            if (!reaped) {
                ::kill(s.pid, SIGKILL);
                ::waitpid(s.pid, nullptr, 0);
            }
            s.pid = -1;
        }
        drain_telemetry(s);
        retire_link(s);
        s.transport.reset();
    }

    // Fold in scenario-index order -- the exact order the single-process
    // uniform sweep folds -- so the report comes out byte-identical.
    ReportBuilder builder(report);
    for (std::uint64_t i = 0; i < cc.scenarios; ++i) {
        if (!outcomes[i]) {
            throw std::runtime_error(
                util::format("fabric: scenario %llu completed no outcome",
                             static_cast<unsigned long long>(i)));
        }
        builder.fold(*outcomes[i]);
    }

    const auto t1 = Clock::now();
    stats_.wall_seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
    if (stats_.wall_seconds > 0) {
        stats_.scenarios_per_sec =
            static_cast<double>(cc.scenarios) / stats_.wall_seconds;
        stats_.packets_per_sec =
            static_cast<double>(report.packets_injected) / stats_.wall_seconds;
    }
    return report;
}

}  // namespace ndb::core
