// Differential fuzzing campaign engine.
//
// Turns the one-spec/one-backend validation loop into a throughput-oriented
// sweep (FP4-style greybox fuzzing, arXiv:2207.13147): seeded scenarios from
// SpecGenerator run on the reference backend and on every DUT backend, the
// reference's behaviour is the ground truth, and any observable difference
// (output stream, internal status counters, control-plane acceptance) is a
// divergence.  Scenarios shard across a worker-thread pool -- each worker
// owns its own device instances and injects/drains in batches -- and every
// divergence is triaged: minimized to the shortest reproducing packet
// prefix, replayed through FaultLocalizer to name the first diverging
// stage, and deduplicated by (backend, quirk-signature, stage) fingerprint.
//
// Determinism contract: CampaignReport (including its JSON form) depends
// only on the config, never on thread count or timing.  Wall-clock derived
// rates live in CampaignStats, which the ndb_campaign CLI writes to
// BENCH_campaign.json.
//
// Coverage-guided mode (config.coverage): instead of the uniform sweep,
// scenarios are scheduled in deterministic rounds by a
// coverage::CorpusScheduler -- programs whose recent scenarios lit fresh
// coverage edges (reference-device CoverageMap) or produced fresh
// divergence fingerprints earn more of the next round's budget.  Rounds
// are planned from config + already-merged feedback only, and feedback is
// merged in scenario order at a round barrier, so the report (coverage
// series included) keeps the byte-identical-across-thread-counts contract.
//
// Mutation mode (config.mutate, implies coverage): the full greybox loop.
// Interesting scenarios -- fresh coverage edges or a fresh fingerprint --
// are retained in a ScenarioCorpus (optionally preloaded from `.corpus`
// recipes), and subsequent rounds draw a scheduler-controlled mix of fresh
// seeds and splice/havoc mutants over that corpus (src/core/mutate.h).
// Coverage feedback now includes per-backend-salted *DUT* edge maps, so
// quirk-divergent paths -- not just reference-side novelty -- earn energy.
// Every divergence records its parentage: a bare seed for fresh scenarios,
// an encoded mutation recipe (replayable via config.mutation_recipe) for
// mutants.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/localize.h"
#include "core/specgen.h"
#include "dataplane/quirks.h"

namespace ndb::coverage {
class CoverageMap;
}  // namespace ndb::coverage

namespace ndb::core {

// One backend in the sweep, instantiated per worker via the target registry.
struct BackendSpec {
    std::string name;                              // registry name
    std::optional<dataplane::Quirks> quirks;       // override; nullopt = catalogue
    std::string label;                             // report key; defaults to name
};

struct CampaignConfig {
    std::uint64_t base_seed = 1;
    std::uint64_t scenarios = 64;
    int threads = 1;
    // Packets injected per inject/drain round-trip: the hot loop touches the
    // egress queues once per batch instead of once per packet.
    std::size_t batch_size = 8;
    // Catalogue programs to sweep; empty = SpecGenerator::default_programs().
    std::vector<std::string> programs;
    // DUT backends; empty = every registered backend except the reference.
    std::vector<BackendSpec> duts;
    std::string reference_backend = "reference";
    bool localize = true;  // replay divergences through FaultLocalizer
    bool minimize = true;  // reduce to the shortest reproducing prefix

    // Coverage-guided adaptive seed scheduling (see file header).  Off by
    // default: the uniform sweep remains the corpus-replay contract.
    bool coverage = false;

    // Greybox mutation over the stored corpus (src/core/mutate.h).  Implies
    // coverage: guided rounds draw a scheduler-controlled mix of fresh
    // seeds and corpus mutants (splice/havoc recipes over retained
    // scenarios), planned at round barriers so the report keeps the
    // byte-identical-across-thread-counts contract.
    bool mutate = false;
    // Probability that a slot whose program already has corpus entries is
    // drawn as a mutant instead of a fresh seed.
    double mutation_rate = 0.5;
    // Directory of .corpus recipes preloaded into the mutation corpus
    // (empty = the corpus grows from this run's own retained scenarios).
    std::string corpus_dir;
    // Single-scenario replay of one encoded recipe: when non-empty the
    // engine runs exactly that scenario (`scenarios` is ignored).  A '#'
    // head parses as a MutationRecipe, an '@' head as a ConcolicRecipe --
    // this is how a mutated or synthesized divergence replays through the
    // ordinary detection path.
    std::string mutation_recipe;

    // Concolic seed synthesis (src/verify/concolic.h; implies coverage).
    // At every guided round barrier the engine maps the reference device's
    // never-lit coverage slots back to IR sites (coverage::EdgeIndex), asks
    // the symbolic layer to solve a packet + default-action programming
    // reaching each, verifies that every solved seed actually lights its
    // target slot on an interpreter-engine reference device, and schedules
    // the survivors ahead of the next round's plan as high-energy corpus
    // entries.  Synthesis consumes only barrier-merged state, so the report
    // keeps the byte-identical-across-thread-counts contract.
    bool concolic = false;
    // Dark sites attempted per round barrier (bounds solver time per round).
    std::uint64_t concolic_per_round = 8;

    // When set, receives a copy of the final merged coverage map (guided
    // and single-recipe-replay modes; the uniform sweep has no map).  Not
    // owned; must outlive run().
    coverage::CoverageMap* coverage_map_out = nullptr;

    // Management-plane fault injection (control::FaultPlan spec string;
    // empty or "none" = clean).  When set, every DUT's configuration is
    // delivered through a fault-injected wire channel while the reference's
    // stays clean -- a config op that exhausts its retry budget surfaces as
    // a "mgmt" divergence, a new class the data path cannot produce.  The
    // per-run schedule is a pure function of (plan seed, program, scenario
    // seed, DUT index), so reports keep the determinism contract.
    std::string mgmt_fault_plan;
};

// The per-DUT backend list with defaults applied: empty `duts` expands to
// every registered backend except the reference, and empty labels default
// to the backend name.  Shared by CampaignEngine and FabricEngine so both
// sweep the identical backend set in the identical order.
std::vector<BackendSpec> resolve_duts(const CampaignConfig& config);

struct DivergenceRecord {
    std::uint64_t seed = 0;
    std::string backend;   // BackendSpec label
    std::string program;
    std::string quirk_signature;
    std::string kind;  // "output"|"snapshot"|"config"|"internal"|"mgmt"|"state"
    std::string detail;    // first observed difference, human-readable

    // Triage results.
    std::uint64_t first_diverging_packet = 0;  // 1-based seq; 0 = unknown
    std::uint64_t minimized_count = 0;         // shortest reproducing prefix
    bool minimized_reproduces = false;
    LocalizeResult localized;

    // Parentage: empty for a fresh seed (the seed field alone replays it),
    // otherwise the encoded MutationRecipe whose replay -- through
    // CampaignConfig::mutation_recipe -- reproduces this divergence.
    std::string recipe;

    // backend|quirk-signature|first-diverging-stage: the dedup key.
    std::string fingerprint;
    std::uint64_t duplicates = 0;  // later findings folded into this record
    // 1-based ordinal (in deterministic merge order) of the scenario that
    // first produced this fingerprint: "how much budget until discovery".
    std::uint64_t discovered_at = 0;
};

// One sample of the guided campaign's coverage trajectory, taken at every
// scheduler round barrier.
struct CoveragePoint {
    std::uint64_t scenarios = 0;  // scenarios completed so far
    std::uint64_t edges = 0;      // distinct coverage-map slots lit so far
};

// Aggregated wire-channel traffic counters (management plane), summed over
// every scenario in deterministic merge order.  Deterministic: the loopback
// transport runs on virtual ticks.
struct ChannelAccounting {
    std::uint64_t requests = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t decode_errors = 0;
    std::uint64_t faults_injected = 0;
    std::uint64_t dedup_hits = 0;

    void add(const ChannelAccounting& o) {
        requests += o.requests;
        frames_sent += o.frames_sent;
        retries += o.retries;
        timeouts += o.timeouts;
        decode_errors += o.decode_errors;
        faults_injected += o.faults_injected;
        dedup_hits += o.dedup_hits;
    }
};

// Multi-process fabric accounting (FabricEngine only).  Unlike the rest of
// the report these counters are timing-dependent -- which worker dies with
// which shard in flight depends on the OS scheduler -- so byte-identity
// comparisons must exclude them (see CampaignReport::to_json's
// "robustness" block).
struct FabricAccounting {
    std::uint64_t workers = 0;
    std::uint64_t worker_restarts = 0;      // killed/hung workers respawned
    std::uint64_t shards_redispatched = 0;  // shards re-run after a death
    std::uint64_t jobs_resent = 0;          // job frames retransmitted
    std::uint64_t link_frames = 0;          // well-formed frames parent saw
    std::uint64_t link_corrupt = 0;         // frames the parent reader rejected
    std::uint64_t link_faults = 0;          // injector decisions on both ends
};

struct CampaignReport {
    std::uint64_t base_seed = 0;
    std::uint64_t scenarios = 0;
    std::vector<std::string> programs;
    std::vector<std::string> backends;        // labels, sweep order
    std::uint64_t packets_injected = 0;       // every inject() the engine issued
    std::uint64_t findings_total = 0;         // divergent scenarios before dedup
    std::vector<DivergenceRecord> divergences;  // deduplicated, discovery order

    // Coverage-guided mode outputs (empty when coverage is off).
    bool coverage_enabled = false;
    std::uint64_t coverage_map_slots = 0;  // CoverageMap::kSlots
    std::uint64_t coverage_edges = 0;      // final edges_covered()
    std::vector<CoveragePoint> coverage_series;
    // Split of coverage_edges by which device's map lit them first, merged
    // in slot order (reference before DUTs): the DUT maps are salted per
    // backend, so quirk-divergent execution earns its own novelty.
    std::uint64_t coverage_edges_reference = 0;
    std::vector<std::uint64_t> coverage_edges_dut;  // parallel to `backends`

    // Mutation-mode output: slots drawn as corpus mutants (0 when mutate
    // was off or the corpus never produced a parent).
    std::uint64_t scenarios_mutated = 0;

    // Concolic-mode outputs (config.concolic).  The per-target counters sum
    // over every dark site attempted; `unknown` means the SAT conflict
    // budget ran out -- explicitly NOT a proof of unreachability, unlike
    // `unsat`.
    bool concolic_enabled = false;
    std::uint64_t scenarios_concolic = 0;   // slots run from synthesized seeds
    std::uint64_t concolic_injected = 0;    // seeds verified + added to corpus
    std::uint64_t concolic_solved = 0;      // targets the solver modeled
    std::uint64_t concolic_unsat = 0;       // targets with no satisfiable path
    std::uint64_t concolic_unknown = 0;     // SAT budget exhausted (skipped)
    std::uint64_t concolic_no_path = 0;     // no symexec path covers the site
    std::uint64_t concolic_mismatched = 0;  // solved but failed the relight check
    // True when symexec truncated exploration at its max_paths budget for
    // at least one program: a no_path target then means "not found within
    // budget", never "unreachable".
    bool concolic_paths_exhausted = false;
    // Encoded ConcolicRecipe text of every injected seed, injection order;
    // each is a replayable `concolic=` corpus line.
    std::vector<std::string> concolic_recipes;

    // Robustness outputs.  mgmt sums the DUT management-channel traffic
    // (deterministic); fabric is filled by FabricEngine only and is the one
    // timing-dependent part of the report.  Neither block is rendered when
    // its mode is off, so pre-existing report bytes are unchanged.
    bool mgmt_enabled = false;
    ChannelAccounting mgmt;
    bool fabric_enabled = false;
    FabricAccounting fabric;

    double dedup_ratio() const {
        return divergences.empty()
                   ? 1.0
                   : static_cast<double>(findings_total) /
                         static_cast<double>(divergences.size());
    }

    std::string to_string() const;
    // Machine-readable form; deterministic for a given config (no wall time).
    std::string to_json() const;
};

// Wall-clock throughput of one run; NOT part of the deterministic report.
struct CampaignStats {
    double wall_seconds = 0;
    double scenarios_per_sec = 0;
    double packets_per_sec = 0;
};

class CampaignEngine {
public:
    explicit CampaignEngine(CampaignConfig config);

    // Runs the whole sweep; safe to call once per engine.
    CampaignReport run();

    // Throughput of the last run().
    const CampaignStats& stats() const { return stats_; }

private:
    CampaignConfig config_;
    CampaignStats stats_;
};

}  // namespace ndb::core
