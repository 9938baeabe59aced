// fib_scale: ipv4_router with a million-prefix FIB on the reference and
// sdnet devices.
//
// Set-up (the write side, reported as setup_s) loads the image and
// installs every route through RuntimeApi::apply on both devices.  The
// traffic phase (the read side, packets_per_s) forwards batches of
// random-destination packets through both devices with tap digests on.
// Every output is checked against the benchmark's own LPM and IPv4
// checksum model; the program's tables, checksum code and packet builders
// are never the oracle.
#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "control/runtime.h"
#include "coverage/coverage.h"
#include "dataplane/tables.h"
#include "p4/compiler.h"
#include "p4/programs.h"
#include "target/device.h"
#include "timed_device.h"

namespace perfbench {

namespace {

using ndb::util::Bitvec;
namespace ctl = ndb::control;
namespace tgt = ndb::target;

constexpr std::size_t kRoutes = 1'000'000;
constexpr std::size_t kBatch = 256;       // packets per validated batch
constexpr std::size_t kApplyChunk = 8192; // ConfigOps per RuntimeApi::apply
constexpr std::uint32_t kPorts = 4;
constexpr std::uint64_t kRouterMac = 0x02aa'bbcc'dd01ull;
constexpr std::uint64_t kHostMac = 0x02aa'bbcc'dd02ull;

// SplitMix64: the benchmark's own generator, so its inputs never change
// with the program's util::Rng.
struct SplitMix {
    std::uint64_t x;
    std::uint64_t next() {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }
};

// Prefix-length mix, per mille.  It is synthetic: the figures are chosen,
// not taken from a table dump.  Like a public full table it is dominated by
// /24, then /22-/23 and /16-/21, with a thin tail of short prefixes and
// nothing longer than /24, which full tables filter.
constexpr std::array<std::pair<int, int>, 17> kLengthMix = {{
    {8, 1},   {9, 1},   {10, 1},  {11, 2},  {12, 3},  {13, 5},  {14, 8},
    {15, 10}, {16, 20}, {17, 15}, {18, 20}, {19, 30}, {20, 50}, {21, 50},
    {22, 100}, {23, 90}, {24, 594},
}};

// 240.0.0.0/4 is never routed: destinations drawn there must be dropped.
bool in_unrouted_block(std::uint32_t addr) { return (addr >> 28) == 0xF; }

struct Route {
    std::uint32_t prefix = 0;  // network address (host bits zero)
    int len = 0;
    std::uint32_t port = 0;
    std::uint64_t mac = 0;     // next-hop MAC
};

struct Fib {
    std::vector<Route> routes;
    // The model: per prefix length, (network >> (32 - len), route index)
    // sorted by network, probed longest first.
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> by_len;

    const Route* lookup(std::uint32_t addr) const {
        for (int len = 32; len >= 0; --len) {
            const auto& v = by_len[static_cast<std::size_t>(len)];
            if (v.empty()) continue;
            const std::uint32_t key =
                len == 0 ? 0 : addr >> (32 - len);
            const auto it = std::lower_bound(
                v.begin(), v.end(), std::make_pair(key, std::uint32_t{0}));
            if (it != v.end() && it->first == key) return &routes[it->second];
        }
        return nullptr;
    }
};

// Unique prefixes in kLengthMix proportions.  Short lengths are capped at a
// quarter of their value space so draws stay cheap; the shortfall goes to
// /24.  Networks inside 240.0.0.0/4 are redrawn.
Fib make_fib(std::uint64_t seed) {
    SplitMix rng{seed ^ 0xf1bf1bf1bull};
    std::vector<std::pair<int, std::size_t>> counts;
    std::size_t assigned = 0;
    for (const auto& [len, permille] : kLengthMix) {
        std::size_t want = kRoutes * static_cast<std::size_t>(permille) / 1000;
        want = std::min<std::size_t>(want, (std::size_t{1} << len) / 4);
        counts.push_back({len, want});
        assigned += want;
    }
    for (auto& [len, n] : counts) {
        if (len == 24) n += kRoutes - assigned;
    }
    Fib fib;
    fib.by_len.resize(33);
    fib.routes.reserve(kRoutes);
    for (const auto& [len, n] : counts) {
        std::vector<std::uint32_t> nets;
        nets.reserve(n + n / 8);
        while (nets.size() < n) {
            while (nets.size() < n) {
                const auto net = static_cast<std::uint32_t>(
                    rng.next() >> (64 - len));
                if (in_unrouted_block(net << (32 - len))) continue;
                nets.push_back(net);
            }
            std::sort(nets.begin(), nets.end());
            nets.erase(std::unique(nets.begin(), nets.end()), nets.end());
        }
        auto& index = fib.by_len[static_cast<std::size_t>(len)];
        index.reserve(n);
        for (const std::uint32_t net : nets) {
            Route r;
            r.prefix = net << (32 - len);
            r.len = len;
            r.port = static_cast<std::uint32_t>(rng.below(kPorts));
            r.mac = 0x0200'0000'0000ull | fib.routes.size();
            index.push_back({net, static_cast<std::uint32_t>(fib.routes.size())});
            fib.routes.push_back(r);
        }
    }
    return fib;
}

// One stimulus: the destination and a 60-byte Ethernet/IPv4/UDP-sized
// frame whose source address is the packet's unique id.
struct Stim {
    std::uint32_t id = 0;
    std::uint32_t dst = 0;
    std::uint8_t ttl = 64;
};

// Destination mix per mille: 900 inside a uniformly chosen route (routed
// by it or by a more specific prefix), 50 uniform outside 240/4 (routed or
// not, as the model says), 50 inside 240/4 (never routed).
class TrafficGen {
public:
    TrafficGen(const Fib& fib, std::uint64_t seed)
        : fib_(fib), rng_{seed ^ 0x7aff1c7aff1cull} {}

    Stim next() {
        Stim s;
        s.id = next_id_++;
        s.ttl = static_cast<std::uint8_t>(2 + rng_.below(254));
        const std::uint64_t pick = rng_.below(1000);
        if (pick < 900) {
            const Route& r = fib_.routes[rng_.below(fib_.routes.size())];
            const std::uint32_t host_mask =
                r.len == 32 ? 0 : (0xffffffffu >> r.len);
            s.dst = r.prefix | (static_cast<std::uint32_t>(rng_.next()) & host_mask);
        } else if (pick < 950) {
            do {
                s.dst = static_cast<std::uint32_t>(rng_.next());
            } while (in_unrouted_block(s.dst));
        } else {
            s.dst = 0xF0000000u | (static_cast<std::uint32_t>(rng_.next()) >> 4);
        }
        return s;
    }

private:
    const Fib& fib_;
    SplitMix rng_;
    std::uint32_t next_id_ = 1;
};

void put_be(std::vector<std::uint8_t>& b, std::size_t off, std::uint64_t v,
            int bytes) {
    for (int i = bytes - 1; i >= 0; --i) {
        b[off + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(v);
        v >>= 8;
    }
}

std::uint64_t get_be(const std::vector<std::uint8_t>& b, std::size_t off,
                     int bytes) {
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) v = (v << 8) | b[off + static_cast<std::size_t>(i)];
    return v;
}

// RFC 1071 checksum of the 20-byte IPv4 header at offset 14, computed
// with the checksum field taken as zero.
std::uint16_t ipv4_checksum(const std::vector<std::uint8_t>& b) {
    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < 20; i += 2) {
        if (i == 10) continue;
        sum += static_cast<std::uint32_t>(get_be(b, 14 + i, 2));
    }
    while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
    return static_cast<std::uint16_t>(~sum);
}

std::vector<std::uint8_t> frame_bytes(const Stim& s) {
    std::vector<std::uint8_t> b(60, 0);
    put_be(b, 0, kRouterMac, 6);
    put_be(b, 6, kHostMac, 6);
    put_be(b, 12, 0x0800, 2);
    b[14] = 0x45;
    put_be(b, 16, 46, 2);                // total length: 20 + 26 payload
    put_be(b, 18, s.id & 0xffff, 2);     // identification
    b[22] = s.ttl;
    b[23] = 17;                          // UDP
    put_be(b, 26, s.id, 4);              // source address = packet id
    put_be(b, 30, s.dst, 4);
    put_be(b, 24, ipv4_checksum(b), 2);
    for (std::size_t i = 34; i < 60; ++i) b[i] = static_cast<std::uint8_t>(s.id + i);
    return b;
}

// What the router must emit for `s` routed by `r`.
std::vector<std::uint8_t> expected_bytes(const Stim& s, const Route& r) {
    std::vector<std::uint8_t> b = frame_bytes(s);
    put_be(b, 0, r.mac, 6);          // dstAddr = next hop
    put_be(b, 6, kRouterMac, 6);     // srcAddr = the old dstAddr
    b[22] = static_cast<std::uint8_t>(s.ttl - 1);
    put_be(b, 24, ipv4_checksum(b), 2);
    return b;
}

std::string router_source() {
    std::string src(ndb::p4::programs::ipv4_router());
    const std::string table = "table ipv4_lpm";
    const std::size_t at = src.find(table);
    const std::size_t size_at = src.find("size = ", at);
    const std::size_t end = src.find(';', size_at);
    if (at == std::string::npos || size_at == std::string::npos ||
        end == std::string::npos) {
        throw std::runtime_error("fib_scale: ipv4_lpm size not found in ipv4_router");
    }
    return src.replace(size_at, end - size_at,
                       "size = " + std::to_string(kRoutes));
}

ctl::ConfigOp route_op(const Route& r) {
    ctl::ConfigOp op;
    op.kind = ctl::ConfigOp::Kind::add_entry;
    op.target = "ipv4_lpm";
    op.entry.key_values = {Bitvec(32, r.prefix)};
    op.entry.prefix_len = r.len;
    op.entry.action = "ipv4_forward";
    op.entry.action_args = {Bitvec(48, r.mac), Bitvec(9, r.port)};
    return op;
}

struct Pair {
    std::unique_ptr<tgt::Device> ref;
    std::unique_ptr<tgt::Device> dut;
};

Pair make_pair_devices() {
    Pair p{tgt::make_device("reference"), tgt::make_device("sdnet")};
    if (!p.ref || !p.dut) throw std::runtime_error("fib_scale: backend missing");
    return p;
}

// Loads the image and installs the FIB on `dev`; returns the seconds spent
// inside load() and apply() (building the ConfigOps is client work and is
// not counted).  Every op status is one checked operation.
double install(tgt::Device& dev, const ndb::p4::ir::Program& prog,
               const Fib& fib, Result& out) {
    auto t0 = Clock::now();
    const ctl::Status loaded = dev.load(prog);
    double busy = seconds_since(t0);
    out.check(loaded.ok, "fib_scale: load: " + loaded.message);
    std::vector<ctl::ConfigOp> ops;
    ops.reserve(kApplyChunk);
    std::uint64_t rejected = 0;
    std::string first_reason;
    for (std::size_t i = 0; i < fib.routes.size(); i += kApplyChunk) {
        ops.clear();
        const std::size_t end = std::min(fib.routes.size(), i + kApplyChunk);
        for (std::size_t k = i; k < end; ++k) ops.push_back(route_op(fib.routes[k]));
        t0 = Clock::now();
        const std::vector<ctl::Status> st = dev.apply(ops);
        busy += seconds_since(t0);
        for (const ctl::Status& s : st) {
            if (!s.ok && rejected++ == 0) first_reason = s.message;
        }
        if (st.size() != ops.size()) rejected += ops.size();
    }
    out.attempted += fib.routes.size();
    out.failed += rejected;
    if (rejected) {
        out.correct = false;
        out.note("fib_scale: " + std::to_string(rejected) +
                 " route insert(s) failed on " + dev.config().backend +
                 ", first: " + first_reason);
    }
    return busy;
}

struct TrafficStats {
    double busy_s = 0;               // inside inject/drain/take_digest_records
    std::uint64_t packets = 0;       // injected, both devices
    std::uint64_t batches = 0;
    std::vector<double> window_pps;  // per window of kWindow batches
};

constexpr std::size_t kWindow = 16;

// Sends one batch through `dev` (timed) and checks every output against
// the model (untimed).  Returns the busy seconds.
double run_batch(tgt::Device& dev, const std::vector<Stim>& stims,
                 const std::vector<ndb::packet::Packet>& frames, const Fib& fib,
                 std::vector<ndb::packet::Packet>& drained,
                 std::vector<std::uint32_t>& ports, Result& out) {
    std::vector<ndb::packet::Packet> copies = frames;
    drained.clear();
    ports.clear();
    const auto t0 = Clock::now();
    for (auto& f : copies) dev.inject(std::move(f));
    for (std::uint32_t p = 0; p < kPorts; ++p) {
        dev.drain_port_into(p, drained);
        ports.resize(drained.size(), p);
    }
    const std::vector<ndb::dataplane::TapDigest> digests = dev.take_digest_records();
    const double busy = seconds_since(t0);

    out.check(digests.size() == stims.size(),
              "fib_scale: digest ring holds " + std::to_string(digests.size()) +
                  " record(s) for " + std::to_string(stims.size()) + " packet(s)");
    // Outputs by packet id (the IPv4 source address).  An output that
    // carries no id of this batch answers no stimulus: it fails the run
    // without counting as an operation.
    std::unordered_map<std::uint32_t, std::vector<std::size_t>> outputs;
    outputs.reserve(drained.size());
    for (std::size_t i = 0; i < drained.size(); ++i) {
        const auto& bytes = drained[i].data();
        const auto id = bytes.size() >= 34
                            ? static_cast<std::uint32_t>(get_be(bytes, 26, 4))
                            : 0u;
        if (id < stims.front().id || id > stims.back().id) {
            out.correct = false;
            out.note("fib_scale: " + dev.config().backend +
                     " emitted a packet of no stimulus on port " +
                     std::to_string(ports[i]));
            continue;
        }
        outputs[id].push_back(i);
    }
    // Every stimulus is one checked operation: a routed one must come out
    // once, right; an unrouted one must be dropped.
    for (const Stim& s : stims) {
        const Route* r = fib.lookup(s.dst);
        const auto it = outputs.find(s.id);
        const std::size_t n = it == outputs.end() ? 0 : it->second.size();
        bool ok = n == (r ? 1u : 0u);
        if (ok && r) {
            const std::size_t i = it->second.front();
            ok = ports[i] == r->port && drained[i].data() == expected_bytes(s, *r);
        }
        out.check(ok, ok ? std::string()
                         : "fib_scale: " + dev.config().backend + ": packet " +
                               std::to_string(s.id) +
                               (r ? " (routed)" : " (unrouted)") + " came out " +
                               std::to_string(n) + " time(s)" +
                               (n && r ? ", or wrong" : ""));
    }
    return busy;
}

// Runs batches on both devices until `seconds` of busy time or
// `max_batches` batches, whichever comes first.
TrafficStats run_traffic(tgt::Device& ref, tgt::Device& dut, const Fib& fib,
                         std::uint64_t seed, double seconds,
                         std::uint64_t max_batches, Result& out) {
    ref.set_digests_enabled(true);
    dut.set_digests_enabled(true);
    TrafficGen gen(fib, seed);
    TrafficStats ts;
    std::vector<Stim> stims(kBatch);
    std::vector<ndb::packet::Packet> frames(kBatch);
    std::vector<ndb::packet::Packet> drained;
    std::vector<std::uint32_t> ports;
    double window_busy = 0;
    while (ts.batches < max_batches && ts.busy_s < seconds) {
        for (std::size_t i = 0; i < kBatch; ++i) {
            stims[i] = gen.next();
            frames[i] = ndb::packet::Packet(frame_bytes(stims[i]));
        }
        double busy = run_batch(ref, stims, frames, fib, drained, ports, out);
        busy += run_batch(dut, stims, frames, fib, drained, ports, out);
        ts.busy_s += busy;
        window_busy += busy;
        ts.packets += 2 * kBatch;
        ++ts.batches;
        if (ts.batches % kWindow == 0) {
            ts.window_pps.push_back(2.0 * kBatch * kWindow / window_busy);
            window_busy = 0;
        }
    }
    ref.set_digests_enabled(false);
    dut.set_digests_enabled(false);
    return ts;
}

// The snapshot must show the whole FIB installed.
void check_snapshot(tgt::Device& dev, Result& out) {
    const ctl::StatusSnapshot snap = dev.snapshot();
    bool found = false;
    for (const auto& t : snap.tables) {
        if (t.name.find("ipv4_lpm") == std::string::npos) continue;
        found = true;
        out.check(t.entries == kRoutes,
                  "fib_scale: " + dev.config().backend + " snapshot shows " +
                      std::to_string(t.entries) + " route(s)");
    }
    out.check(found, "fib_scale: snapshot lacks ipv4_lpm");
}

// Distinct coverage slots both devices light on the first packets of the
// stream (untimed; instrumentation is off during the measured phase).
std::size_t coverage_edges(Pair& devs, const Fib& fib, std::uint64_t seed) {
    ndb::coverage::CoverageMap map;
    TrafficGen gen(fib, seed);
    std::vector<ndb::packet::Packet> sink;
    devs.ref->set_coverage(&map);
    devs.dut->set_coverage(&map);
    for (int i = 0; i < 1024; ++i) {
        const ndb::packet::Packet frame(frame_bytes(gen.next()));
        devs.ref->inject(frame);
        devs.dut->inject(frame);
    }
    devs.ref->set_coverage(nullptr);
    devs.dut->set_coverage(nullptr);
    for (std::uint32_t p = 0; p < kPorts; ++p) {
        devs.ref->drain_port_into(p, sink);
        devs.dut->drain_port_into(p, sink);
    }
    return map.edges_covered();
}

// The LPM engine alone, filled with the same route set: per-insert and
// per-lookup cost plus the resident memory the fill adds.  Runs first in
// the traced process so the RSS growth is not hidden by freed device
// memory.  Every lookup is checked against the model.
void lpm_engine_probe(const Fib& fib, std::uint64_t seed, LayerMetrics& lm,
                      Result& out) {
    const double rss0 = peak_rss_mb();
    auto engine = ndb::dataplane::make_lpm_engine(32, kRoutes);
    std::uint64_t insert_ns = 0;
    std::uint64_t rejected = 0;
    for (std::size_t i = 0; i < fib.routes.size(); ++i) {
        const Route& r = fib.routes[i];
        ndb::dataplane::TableEntry e;
        e.key_values = {Bitvec(32, r.prefix)};
        e.prefix_len = r.len;
        e.action_id = static_cast<int>(r.port) + 1;
        e.action_args = {Bitvec(32, static_cast<std::uint64_t>(i))};
        const std::uint64_t t0 = now_ns();
        const auto st = engine->insert(e);
        insert_ns += now_ns() - t0;
        if (st != ndb::dataplane::InsertStatus::ok) ++rejected;
    }
    const double rss1 = peak_rss_mb();
    out.attempted += fib.routes.size();
    out.failed += rejected;
    if (rejected) {
        out.correct = false;
        out.note("fib_scale: LPM engine rejected " + std::to_string(rejected) +
                 " route(s)");
    }

    TrafficGen gen(fib, seed);
    constexpr std::size_t kLookups = 200'000;
    std::vector<Bitvec> keys;
    keys.reserve(kLookups);
    for (std::size_t i = 0; i < kLookups; ++i) keys.emplace_back(32, gen.next().dst);
    std::vector<const ndb::dataplane::ActionEntry*> hits(kLookups);
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < kLookups; ++i) {
        hits[i] = engine->lookup(std::span<const Bitvec>(&keys[i], 1));
    }
    const std::uint64_t lookup_ns = now_ns() - t0;
    std::uint64_t wrong = 0;
    for (std::size_t i = 0; i < kLookups; ++i) {
        const Route* r = fib.lookup(static_cast<std::uint32_t>(keys[i].to_u64()));
        const bool ok = r ? hits[i] && hits[i]->args.size() == 1 &&
                                &fib.routes[hits[i]->args[0].to_u64()] == r
                          : hits[i] == nullptr;
        if (!ok) ++wrong;
    }
    out.attempted += kLookups;
    out.failed += wrong;
    if (wrong) {
        out.correct = false;
        out.note("fib_scale: LPM engine answered " + std::to_string(wrong) +
                 " lookup(s) differently from the model");
    }
    lm.lpm_lookup_ns = static_cast<double>(lookup_ns) / kLookups;
    lm.lpm_insert_ns =
        static_cast<double>(insert_ns) / static_cast<double>(fib.routes.size());
    lm.lpm_rss_mb = rss1 - rss0;
}

// Direct timer for the tap digest: the stage states of a sample batch,
// captured with taps on the reference device, hashed in a loop.
double digest_ns(const ndb::p4::ir::Program& prog, const Fib& fib,
                 std::uint64_t seed) {
    auto dev = tgt::make_device("reference");
    dev->load(prog);
    std::vector<ctl::ConfigOp> routes;
    for (std::size_t i = 0; i < 64; ++i) routes.push_back(route_op(fib.routes[i]));
    dev->apply(routes);
    dev->set_taps_enabled(true);
    TrafficGen gen(fib, seed);
    for (std::size_t i = 0; i < kBatch; ++i) {
        Stim s = gen.next();
        s.dst = fib.routes[i % 64].prefix;
        dev->inject(ndb::packet::Packet(frame_bytes(s)));
    }
    CallStat digests;
    time_tap_digests(*dev, 256, digests);
    return digests.mean_ns();
}

}  // namespace

void run_fib_workload(const Options& opt, Result& out) {
    const Fib fib = make_fib(opt.seed);
    const auto prog = ndb::p4::compile_source(router_source(), "ipv4_router");
    const std::uint64_t traffic_seed = opt.seed * 0x100000001b3ull + 7;

    if (!opt.trace) {
        // Set-up three times on fresh devices; the last pair carries the
        // traffic phase.
        std::vector<double> setups;
        Pair devs;
        for (int rep = 0; rep < 3; ++rep) {
            devs = Pair{};
            devs = make_pair_devices();
            setups.push_back(install(*devs.ref, *prog, fib, out) +
                             install(*devs.dut, *prog, fib, out));
        }
        const TrafficStats ts =
            run_traffic(*devs.ref, *devs.dut, fib, traffic_seed, opt.seconds,
                        ~0ull, out);
        check_snapshot(*devs.ref, out);
        check_snapshot(*devs.dut, out);
        const double pps = ts.window_pps.empty()
                               ? static_cast<double>(ts.packets) / ts.busy_s
                               : best_of(ts.window_pps, true);
        const std::size_t edges = coverage_edges(devs, fib, traffic_seed);
        out.note("fib_scale: " + std::to_string(fib.routes.size()) + " routes, " +
                 std::to_string(ts.packets) + " packets in " +
                 std::to_string(ts.busy_s) + " s busy, setups " +
                 std::to_string(setups[0]) + "/" + std::to_string(setups[1]) +
                 "/" + std::to_string(setups[2]) + " s");
        out.metric("scenarios_per_s", pps / (2.0 * kBatch), "scenarios/s");
        out.metric("packets_per_s", pps, "packets/s");
        out.metric("setup_s", best_of(setups, false), "s");
        out.metric("coverage_edges", static_cast<double>(edges), "edges");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        return;
    }

    // Traced run.  The LPM engine probe goes first (see lpm_engine_probe).
    LayerMetrics lm;
    lpm_engine_probe(fib, traffic_seed, lm, out);

    // One pair of devices, timed from outside, with the whole FIB
    // installed through the wrappers (the write-side figures).
    Pair devs = make_pair_devices();
    tgt::Device& raw_ref = *devs.ref;
    tgt::Device& raw_dut = *devs.dut;
    devs.ref = make_timed(std::move(devs.ref));
    devs.dut = make_timed(std::move(devs.dut));
    reset_collected_stats();
    install(*devs.ref, *prog, fib, out);
    install(*devs.dut, *prog, fib, out);
    check_snapshot(*devs.ref, out);
    check_snapshot(*devs.dut, out);

    // The overhead is taken on the traffic phase alone: the same batches
    // sent untraced (straight to the backends) and traced (through the
    // wrappers), alternating which goes first, compared by the busy time
    // inside the device calls.
    constexpr int kPairs = 6;
    constexpr std::uint64_t kPassBatches = 16;
    std::vector<double> untraced_s, traced_s;
    for (int r = 0; r < kPairs; ++r) {
        for (const bool traced : {r % 2 == 0, r % 2 != 0}) {
            const TrafficStats ts =
                traced ? run_traffic(*devs.ref, *devs.dut, fib, traffic_seed, 1e9,
                                     kPassBatches, out)
                       : run_traffic(raw_ref, raw_dut, fib, traffic_seed, 1e9,
                                     kPassBatches, out);
            (traced ? traced_s : untraced_s).push_back(ts.busy_s);
        }
    }
    lm.from_device_stats(collected_stats(),
                         static_cast<double>(kPairs * kPassBatches));
    lm.digest_ns = digest_ns(*prog, fib, traffic_seed);
    lm.overhead_pct = 100.0 * (median(traced_s) / median(untraced_s) - 1.0);
    lm.emit(out);
}

}  // namespace perfbench
