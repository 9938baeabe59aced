#include "core/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/generator.h"
#include "core/mutate.h"
#include "core/scenario_exec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "coverage/coverage.h"
#include "coverage/edge_index.h"
#include "coverage/scheduler.h"
#include "target/device.h"
#include "util/random.h"
#include "util/strings.h"
#include "verify/concolic.h"

namespace ndb::core {

namespace {

// Decorrelates the fresh-vs-mutant coin (and parent pick) from both the
// scenario seed stream and the mutation-derivation stream.
constexpr std::uint64_t kMutateCoinSalt = 0x636f696e666c6970ull;  // "coinflip"

// --- JSON helpers -------------------------------------------------------------

std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out += util::format("\\u%04x", c);
                } else {
                    out += c;
                }
        }
    }
    return out;
}

std::string json_string_array(const std::vector<std::string>& items) {
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i) out += ", ";
        out += '"';
        out += json_escape(items[i]);
        out += '"';
    }
    return out + "]";
}

}  // namespace

// --- engine -------------------------------------------------------------------

std::vector<BackendSpec> resolve_duts(const CampaignConfig& config) {
    std::vector<BackendSpec> duts = config.duts;
    if (duts.empty()) {
        for (const auto& name : target::registered_backends()) {
            if (name == config.reference_backend) continue;
            duts.push_back(BackendSpec{name, std::nullopt, name});
        }
    }
    for (auto& d : duts) {
        if (d.label.empty()) d.label = d.name;
    }
    return duts;
}

CampaignEngine::CampaignEngine(CampaignConfig config)
    : config_(std::move(config)) {}

CampaignReport CampaignEngine::run() {
    const std::vector<BackendSpec> duts = resolve_duts(config_);

    if (config_.mutate) config_.coverage = true;    // mutants need the scheduler
    if (config_.concolic) config_.coverage = true;  // synthesis needs the map

    const SpecGenerator gen(config_.programs);

    ExecOptions exec;
    exec.batch_size = config_.batch_size;
    exec.minimize = config_.minimize;
    exec.localize = config_.localize;
    exec.coverage = config_.coverage;
    // throws std::invalid_argument on a malformed spec, before any work
    exec.mgmt.plan = control::FaultPlan::parse(config_.mgmt_fault_plan);
    exec.mgmt.enabled = exec.mgmt.plan.enabled();

    CampaignReport report;
    report.base_seed = config_.base_seed;
    report.scenarios = config_.scenarios;
    report.programs = gen.programs();
    for (const auto& d : duts) report.backends.push_back(d.label);
    report.coverage_enabled = config_.coverage;
    report.concolic_enabled = config_.concolic;
    report.mgmt_enabled = exec.mgmt.enabled;
    if (config_.coverage) {
        report.coverage_map_slots = coverage::CoverageMap::kSlots;
        report.coverage_edges_dut.assign(duts.size(), 0);
    }

    // `recipe` is the slot's mutation parentage ("" = fresh seed); it rides
    // into every DivergenceRecord so reports stay replayable.
    const auto run_one = [&](WorkerContext& ctx, const Scenario& sc,
                             ScenarioOutcome& outcome,
                             const std::string& recipe) {
        execute_scenario(ctx, sc, duts, exec, outcome, recipe);
    };

    // An exception anywhere in a worker (unknown backend, a device refusing
    // an image) must surface to the caller, not std::terminate the process:
    // capture the first one, stop the pool, rethrow after the join.
    const int threads = std::clamp(config_.threads, 1, 64);
    if (obs::metrics_on()) {
        obs::Metrics::instance().gauge_set(obs::Gauge::campaign_threads, threads);
    }
    std::atomic<bool> failed{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    // One device pool per worker slot, created on first use and reused
    // across every scheduling round (load() replaces image + state).
    std::vector<std::unique_ptr<WorkerContext>> contexts(
        static_cast<std::size_t>(threads));

    // Runs `jobs` indexed work items over the worker pool.  Guided mode
    // calls this once per scheduler round; the job body only writes its own
    // outcome slot, so results are mergeable in index order afterwards.
    const auto run_pool =
        [&](std::uint64_t jobs,
            const std::function<void(WorkerContext&, std::uint64_t)>& job) {
            std::atomic<std::uint64_t> next{0};
            const auto worker = [&](std::size_t slot) {
                try {
                    if (!contexts[slot]) {
                        contexts[slot] = std::make_unique<WorkerContext>(
                            config_.reference_backend, duts);
                    }
                    while (!failed.load(std::memory_order_relaxed)) {
                        const std::uint64_t index = next.fetch_add(1);
                        if (index >= jobs) break;
                        job(*contexts[slot], index);
                    }
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error) first_error = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                }
            };
            if (threads <= 1) {
                worker(0);
            } else {
                std::vector<std::thread> pool;
                pool.reserve(static_cast<std::size_t>(threads));
                for (int i = 0; i < threads; ++i) {
                    pool.emplace_back(worker, static_cast<std::size_t>(i));
                }
                for (auto& t : pool) t.join();
            }
            if (first_error) std::rethrow_exception(first_error);
        };

    // Merge in scenario order so the report never depends on scheduling
    // (see ReportBuilder::fold).
    ReportBuilder builder(report);
    const auto fold_outcome = [&](ScenarioOutcome& outcome) {
        return builder.fold(outcome);
    };

    const auto t0 = std::chrono::steady_clock::now();
    if (!config_.mutation_recipe.empty()) {
        // Single-recipe replay: run exactly the recorded scenario through
        // the ordinary detection/triage path.  This is how a mutated or
        // concolically synthesized corpus entry (or a report's parentage
        // recipe) reproduces its divergence.  The two recipe grammars are
        // mutually unparseable ('#' vs '@' head), so trying concolic first
        // can never misread a mutation recipe.
        const Mutator mutator(gen);
        Scenario sc;
        if (const auto conc = ConcolicRecipe::parse(config_.mutation_recipe)) {
            sc = mutator.apply_concolic(*conc);
            report.scenarios_concolic = 1;
        } else if (const auto parsed =
                       MutationRecipe::parse(config_.mutation_recipe)) {
            sc = mutator.apply(*parsed);
            report.scenarios_mutated = 1;
        } else {
            throw std::invalid_argument("campaign: unparseable recipe '" +
                                        config_.mutation_recipe + "'");
        }
        report.scenarios = 1;
        std::vector<ScenarioOutcome> outcomes(1);
        run_pool(1, [&](WorkerContext& ctx, std::uint64_t) {
            run_one(ctx, sc, outcomes[0], config_.mutation_recipe);
        });
        fold_outcome(outcomes[0]);
        if (config_.coverage) {
            coverage::CoverageMap global;
            if (outcomes[0].coverage) {
                report.coverage_edges_reference +=
                    global.merge_new_from(*outcomes[0].coverage);
            }
            for (std::size_t d = 0; d < outcomes[0].dut_coverage.size(); ++d) {
                if (!outcomes[0].dut_coverage[d]) continue;
                report.coverage_edges_dut[d] +=
                    global.merge_new_from(*outcomes[0].dut_coverage[d]);
            }
            report.coverage_edges =
                static_cast<std::uint64_t>(global.edges_covered());
            report.coverage_series.push_back({1, report.coverage_edges});
            if (config_.coverage_map_out) *config_.coverage_map_out = global;
        }
    } else if (!config_.coverage) {
        // Uniform sweep: every seed in [base, base + scenarios) once.
        std::vector<ScenarioOutcome> outcomes(config_.scenarios);
        run_pool(config_.scenarios,
                 [&](WorkerContext& ctx, std::uint64_t index) {
                     const Scenario sc = gen.make(config_.base_seed + index);
                     run_one(ctx, sc, outcomes[index], std::string());
                 });
        for (auto& outcome : outcomes) fold_outcome(outcome);
    } else {
        // Guided mode: deterministic rounds.  Each round the scheduler
        // apportions the budget across programs from the feedback merged so
        // far; slots -- (program, fresh seed) or a fully derived mutation
        // recipe -- are fixed before any worker starts, so thread count
        // never changes what runs or how it merges.
        coverage::CorpusScheduler scheduler(gen.programs().size());
        coverage::CoverageMap global;
        const Mutator mutator(gen);
        ScenarioCorpus corpus;
        if (config_.mutate && !config_.corpus_dir.empty()) {
            corpus.load_dir(config_.corpus_dir, gen.programs());
        }
        struct GuidedSlot {
            std::size_t program = 0;
            std::uint64_t seed = 0;
            std::string recipe_text;  // empty = fresh seed
            MutationRecipe recipe;    // valid when recipe_text is non-empty
            bool is_concolic = false;
            ConcolicRecipe concolic;  // valid when is_concolic
        };
        // Concolic synthesis state, per catalogue program, built lazily the
        // first time a program's dark sites are attempted.  `attempted`
        // remembers every slot ever handed to the solver so a hard target
        // is not re-solved at each barrier.
        struct ConcolicState {
            std::shared_ptr<const p4::ir::Program> compiled;
            std::unique_ptr<coverage::EdgeIndex> index;
            std::unique_ptr<verify::ConcolicSynthesizer> synth;
            std::set<std::uint32_t> attempted;
        };
        std::vector<ConcolicState> concolic_states(
            config_.concolic ? gen.programs().size() : 0);
        // Seeds synthesized at one barrier, scheduled ahead of the next
        // round's plan.
        struct PendingSeed {
            std::size_t program = 0;
            ConcolicRecipe recipe;
        };
        std::vector<PendingSeed> pending;
        // Relight oracle: a dedicated reference instance.  Its salt is what
        // EdgeIndex must be built with -- the campaign's own reference
        // devices fold the identical salt into their maps, so "dark in
        // `global`" and "dark for this oracle" agree.
        std::unique_ptr<target::Device> oracle;
        std::uint64_t ref_salt = 0;
        if (config_.concolic) {
            oracle = target::make_device(config_.reference_backend);
            if (!oracle) {
                throw std::invalid_argument(
                    "campaign: unknown reference backend '" +
                    config_.reference_backend + "'");
            }
            ref_salt = oracle->coverage_salt();
        }
        const std::uint64_t round_cap =
            std::max<std::uint64_t>(8, 2 * gen.programs().size());
        std::uint64_t done = 0;
        std::uint64_t seed_cursor = 0;
        std::uint64_t round_index = 0;
        while (done < config_.scenarios) {
            const std::uint64_t round_t0 =
                obs::trace_on() ? obs::now_ns() : 0;
            const std::uint64_t round =
                std::min(config_.scenarios - done, round_cap);
            std::vector<GuidedSlot> slots;
            slots.reserve(static_cast<std::size_t>(round));
            // Synthesized seeds first: they were solved specifically to
            // light still-dark slots, so they outrank anything the
            // scheduler would plan.  Each consumes one slot of the round's
            // budget; its "seed" is the target slot id (that is what
            // replays it via the corpus).
            const std::size_t take = static_cast<std::size_t>(
                std::min<std::uint64_t>(pending.size(), round));
            for (std::size_t i = 0; i < take; ++i) {
                GuidedSlot slot;
                slot.program = pending[i].program;
                slot.seed = pending[i].recipe.slot;
                slot.is_concolic = true;
                slot.concolic = std::move(pending[i].recipe);
                slot.recipe_text = slot.concolic.encode();
                slots.push_back(std::move(slot));
            }
            pending.erase(pending.begin(),
                          pending.begin() + static_cast<std::ptrdiff_t>(take));
            report.scenarios_concolic += take;
            const std::vector<std::uint64_t> plan =
                scheduler.plan_round(round - take);
            for (std::size_t p = 0; p < plan.size(); ++p) {
                for (std::uint64_t k = 0; k < plan[p]; ++k) {
                    GuidedSlot slot;
                    slot.program = p;
                    slot.seed = config_.base_seed + seed_cursor++;
                    // Fresh-vs-mutant draw: corpus membership only changes
                    // at round barriers, and the coin is a pure function of
                    // the slot seed, so the mix is schedule-independent.
                    if (config_.mutate) {
                        const auto& pool = corpus.entries(gen.programs()[p]);
                        // Concolic entries replay whole, never as mutation
                        // parents: their packet is a solver model with no
                        // field plan for havoc ops to perturb (and their
                        // recipe text is not a MutationRecipe chain).
                        std::vector<const CorpusEntry*> parents;
                        parents.reserve(pool.size());
                        for (const CorpusEntry& e : pool) {
                            if (!e.concolic) parents.push_back(&e);
                        }
                        if (!parents.empty()) {
                            util::Rng coin(slot.seed ^ kMutateCoinSalt);
                            if (coin.next_double() < config_.mutation_rate) {
                                const CorpusEntry& parent =
                                    *parents[coin.next_below(parents.size())];
                                slot.recipe =
                                    mutator.derive(corpus, parent, slot.seed);
                                slot.recipe_text = slot.recipe.encode();
                                ++report.scenarios_mutated;
                            }
                        }
                    }
                    slots.push_back(std::move(slot));
                }
            }
            std::vector<ScenarioOutcome> outcomes(slots.size());
            run_pool(slots.size(), [&](WorkerContext& ctx, std::uint64_t i) {
                const Scenario sc =
                    slots[i].is_concolic ? mutator.apply_concolic(slots[i].concolic)
                    : slots[i].recipe_text.empty()
                        ? gen.make_for(slots[i].program, slots[i].seed)
                        : mutator.apply(slots[i].recipe);
                run_one(ctx, sc, outcomes[i], slots[i].recipe_text);
            });
            // Round barrier: fold outcomes in slot order, then reward each
            // program with its per-scenario energy gain (new reference and
            // DUT coverage edges plus a bonus per fresh divergence
            // fingerprint), and retain every interesting scenario in the
            // mutation corpus.
            std::vector<double> gain(plan.size(), 0.0);
            for (std::size_t i = 0; i < slots.size(); ++i) {
                const bool fresh = fold_outcome(outcomes[i]);
                std::size_t ref_edges = 0;
                std::size_t dut_edges = 0;
                if (outcomes[i].coverage) {
                    ref_edges = global.merge_new_from(*outcomes[i].coverage);
                    report.coverage_edges_reference += ref_edges;
                }
                for (std::size_t d = 0; d < outcomes[i].dut_coverage.size();
                     ++d) {
                    if (!outcomes[i].dut_coverage[d]) continue;
                    const std::size_t fresh_dut =
                        global.merge_new_from(*outcomes[i].dut_coverage[d]);
                    report.coverage_edges_dut[d] += fresh_dut;
                    dut_edges += fresh_dut;
                }
                gain[slots[i].program] +=
                    static_cast<double>(ref_edges) / 8.0 +
                    static_cast<double>(dut_edges) / 16.0 + (fresh ? 1.0 : 0.0);
                if (config_.mutate && !slots[i].is_concolic &&
                    (fresh || ref_edges > 0 || dut_edges > 0)) {
                    // (Concolic slots are already corpus entries: they were
                    // added when their seed passed the relight check.)
                    if (slots[i].recipe_text.empty()) {
                        corpus.add(gen.programs()[slots[i].program],
                                   slots[i].seed);
                    } else {
                        corpus.add(gen.programs()[slots[i].program],
                                   slots[i].recipe.parent_seed,
                                   slots[i].recipe_text);
                    }
                }
            }
            // Per-program slot counts include concolic slots, so their edge
            // gains reward the program at the same per-scenario scale as
            // planned slots.
            std::vector<std::uint64_t> ran(plan.size(), 0);
            for (const GuidedSlot& slot : slots) ++ran[slot.program];
            for (std::size_t p = 0; p < plan.size(); ++p) {
                if (ran[p] == 0) continue;
                const double energy = gain[p] / static_cast<double>(ran[p]);
                scheduler.reward(p, energy);
                if (obs::trace_on()) {
                    obs::trace_instant(
                        "energy", "program", p, "gain_milli",
                        static_cast<std::uint64_t>(1000.0 * energy));
                }
            }

            // Concolic synthesis at the barrier: map still-dark reference
            // slots back to IR sites, solve for covering seeds, verify each
            // actually lights its slot on the oracle, and queue the
            // survivors for the next round.  Sequential and driven by
            // barrier-merged state only -- thread count cannot change what
            // gets synthesized.
            if (config_.concolic) {
                std::uint64_t budget = config_.concolic_per_round;
                for (std::size_t p = 0;
                     p < gen.programs().size() && budget > 0; ++p) {
                    ConcolicState& st = concolic_states[p];
                    if (!st.index) {
                        st.compiled =
                            gen.make_for(p, config_.base_seed).compiled;
                        st.index = std::make_unique<coverage::EdgeIndex>(
                            *st.compiled, ref_salt);
                        st.synth =
                            std::make_unique<verify::ConcolicSynthesizer>(
                                *st.compiled);
                    }
                    std::vector<coverage::EdgeSite> targets;
                    for (const coverage::EdgeSite& site :
                         st.index->dark_sites(global)) {
                        if (targets.size() >= budget) break;
                        if (!st.attempted.insert(site.slot).second) continue;
                        targets.push_back(site);
                    }
                    if (targets.empty()) continue;
                    budget -= targets.size();
                    const verify::ConcolicResult result =
                        st.synth->synthesize(targets);
                    if (result.paths_exhausted) {
                        report.concolic_paths_exhausted = true;
                    }
                    for (const verify::TargetOutcome& out : result.outcomes) {
                        switch (out.status) {
                            case verify::TargetStatus::solved:
                                ++report.concolic_solved;
                                break;
                            case verify::TargetStatus::unsat:
                                ++report.concolic_unsat;
                                break;
                            case verify::TargetStatus::unknown:
                                ++report.concolic_unknown;
                                break;
                            case verify::TargetStatus::no_path:
                                ++report.concolic_no_path;
                                break;
                        }
                    }
                    for (const verify::ConcolicSeed& seed : result.seeds) {
                        ConcolicRecipe recipe;
                        recipe.program = gen.programs()[p];
                        recipe.slot = seed.target.slot;
                        recipe.ingress_port = seed.ingress_port;
                        recipe.packet = seed.packet;
                        for (const auto& def : seed.defaults) {
                            ConcolicRecipe::Default d;
                            d.table = def.table;
                            d.action = def.action;
                            for (const util::Bitvec& arg : def.args) {
                                d.args.push_back(arg.to_bytes());
                            }
                            recipe.defaults.push_back(std::move(d));
                        }
                        // Relight check: inject the synthesized scenario on
                        // the oracle exactly the way run_one will and
                        // require the target slot to light.  A model the
                        // interpreter disagrees with is a verify-layer bug
                        // and must not pollute the corpus.
                        const Scenario sc = mutator.apply_concolic(recipe);
                        const std::vector<packet::Packet> packets =
                            scenario_packets(sc);
                        coverage::CoverageMap scratch;
                        oracle->set_coverage(&scratch);
                        run_scenario_on(*oracle, sc, packets,
                                        config_.batch_size);
                        oracle->set_coverage(nullptr);
                        if (scratch.count(seed.target.slot) == 0) {
                            ++report.concolic_mismatched;
                            continue;
                        }
                        const std::string text = recipe.encode();
                        if (!corpus.add(recipe.program, recipe.slot, text,
                                        /*concolic=*/true)) {
                            continue;  // slot-colliding duplicate
                        }
                        ++report.concolic_injected;
                        if (obs::metrics_on()) {
                            obs::count(obs::Counter::concolic_injected);
                        }
                        if (obs::trace_on()) {
                            obs::trace_instant("concolic_inject", "program", p,
                                               "slot", recipe.slot);
                        }
                        report.concolic_recipes.push_back(text);
                        pending.push_back({p, std::move(recipe)});
                    }
                }
            }
            done += round;
            report.coverage_series.push_back(
                {done, static_cast<std::uint64_t>(global.edges_covered())});
            if (obs::metrics_on()) obs::count(obs::Counter::rounds);
            if (obs::trace_on()) {
                obs::trace_complete("round", round_t0, obs::now_ns() - round_t0,
                                    "round", round_index, "slots", round);
            }
            ++round_index;
        }
        report.coverage_edges =
            static_cast<std::uint64_t>(global.edges_covered());
        if (config_.coverage_map_out) *config_.coverage_map_out = global;
    }
    const auto t1 = std::chrono::steady_clock::now();

    stats_.wall_seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0).count();
    if (stats_.wall_seconds > 0) {
        stats_.scenarios_per_sec =
            static_cast<double>(config_.scenarios) / stats_.wall_seconds;
        stats_.packets_per_sec =
            static_cast<double>(report.packets_injected) / stats_.wall_seconds;
    }
    return report;
}

// --- report rendering ---------------------------------------------------------

std::string CampaignReport::to_string() const {
    std::string s = util::format(
        "campaign: %llu scenario(s) from seed %llu, %llu packet(s), "
        "%llu finding(s) -> %zu unique (dedup x%.1f)\n",
        static_cast<unsigned long long>(scenarios),
        static_cast<unsigned long long>(base_seed),
        static_cast<unsigned long long>(packets_injected),
        static_cast<unsigned long long>(findings_total), divergences.size(),
        dedup_ratio());
    if (coverage_enabled) {
        std::uint64_t dut_total = 0;
        for (const auto e : coverage_edges_dut) dut_total += e;
        s += util::format(
            "  coverage: %llu/%llu edges (%.1f%%: %llu reference + %llu dut) "
            "over %zu round(s)\n",
            static_cast<unsigned long long>(coverage_edges),
            static_cast<unsigned long long>(coverage_map_slots),
            coverage_map_slots
                ? 100.0 * static_cast<double>(coverage_edges) /
                      static_cast<double>(coverage_map_slots)
                : 0.0,
            static_cast<unsigned long long>(coverage_edges_reference),
            static_cast<unsigned long long>(dut_total),
            coverage_series.size());
    }
    if (scenarios_mutated) {
        s += util::format("  mutated: %llu of %llu scenario(s) drawn from the "
                          "corpus\n",
                          static_cast<unsigned long long>(scenarios_mutated),
                          static_cast<unsigned long long>(scenarios));
    }
    if (concolic_enabled) {
        s += util::format(
            "  concolic: %llu seed(s) injected, %llu scenario(s) run "
            "(targets: %llu solved, %llu unsat, %llu unknown, %llu no-path, "
            "%llu mismatched)%s\n",
            static_cast<unsigned long long>(concolic_injected),
            static_cast<unsigned long long>(scenarios_concolic),
            static_cast<unsigned long long>(concolic_solved),
            static_cast<unsigned long long>(concolic_unsat),
            static_cast<unsigned long long>(concolic_unknown),
            static_cast<unsigned long long>(concolic_no_path),
            static_cast<unsigned long long>(concolic_mismatched),
            concolic_paths_exhausted ? "; paths exhausted" : "");
        for (const auto& r : concolic_recipes) {
            s += util::format("  concolic+ %s\n", r.c_str());
        }
    }
    if (mgmt_enabled) {
        s += util::format(
            "  mgmt wire: %llu request(s), %llu frame(s), %llu retrie(s), "
            "%llu timeout(s), %llu fault(s) injected, %llu dedup hit(s)\n",
            static_cast<unsigned long long>(mgmt.requests),
            static_cast<unsigned long long>(mgmt.frames_sent),
            static_cast<unsigned long long>(mgmt.retries),
            static_cast<unsigned long long>(mgmt.timeouts),
            static_cast<unsigned long long>(mgmt.faults_injected),
            static_cast<unsigned long long>(mgmt.dedup_hits));
    }
    if (fabric_enabled) {
        s += util::format(
            "  fabric: %llu worker(s), %llu restart(s), %llu shard(s) "
            "re-dispatched, %llu job(s) resent, %llu link frame(s) "
            "(%llu corrupt, %llu fault(s) injected)\n",
            static_cast<unsigned long long>(fabric.workers),
            static_cast<unsigned long long>(fabric.worker_restarts),
            static_cast<unsigned long long>(fabric.shards_redispatched),
            static_cast<unsigned long long>(fabric.jobs_resent),
            static_cast<unsigned long long>(fabric.link_frames),
            static_cast<unsigned long long>(fabric.link_corrupt),
            static_cast<unsigned long long>(fabric.link_faults));
    }
    for (const auto& d : divergences) {
        s += util::format(
            "  [%s] seed=%llu %s: %s (min=%llu pkt, +%llu dup) %s\n",
            d.fingerprint.c_str(), static_cast<unsigned long long>(d.seed),
            d.kind.c_str(), d.detail.c_str(),
            static_cast<unsigned long long>(d.minimized_count),
            static_cast<unsigned long long>(d.duplicates),
            d.localized.diverged ? d.localized.to_string().c_str() : "");
        if (!d.recipe.empty()) {
            s += util::format("    parentage: %s\n", d.recipe.c_str());
        }
    }
    return s;
}

std::string CampaignReport::to_json() const {
    std::string s = "{\n";
    s += util::format("  \"base_seed\": %llu,\n",
                      static_cast<unsigned long long>(base_seed));
    s += util::format("  \"scenarios\": %llu,\n",
                      static_cast<unsigned long long>(scenarios));
    s += "  \"programs\": " + json_string_array(programs) + ",\n";
    s += "  \"backends\": " + json_string_array(backends) + ",\n";
    s += util::format("  \"packets_injected\": %llu,\n",
                      static_cast<unsigned long long>(packets_injected));
    s += util::format("  \"findings_total\": %llu,\n",
                      static_cast<unsigned long long>(findings_total));
    s += util::format("  \"divergences_unique\": %zu,\n", divergences.size());
    s += util::format("  \"dedup_ratio\": %.3f,\n", dedup_ratio());
    s += util::format("  \"scenarios_mutated\": %llu,\n",
                      static_cast<unsigned long long>(scenarios_mutated));
    if (concolic_enabled) {
        s += "  \"concolic\": {";
        s += util::format("\"scenarios\": %llu, ",
                          static_cast<unsigned long long>(scenarios_concolic));
        s += util::format("\"injected\": %llu, ",
                          static_cast<unsigned long long>(concolic_injected));
        s += util::format("\"solved\": %llu, ",
                          static_cast<unsigned long long>(concolic_solved));
        s += util::format("\"unsat\": %llu, ",
                          static_cast<unsigned long long>(concolic_unsat));
        s += util::format("\"unknown\": %llu, ",
                          static_cast<unsigned long long>(concolic_unknown));
        s += util::format("\"no_path\": %llu, ",
                          static_cast<unsigned long long>(concolic_no_path));
        s += util::format("\"mismatched\": %llu, ",
                          static_cast<unsigned long long>(concolic_mismatched));
        s += util::format("\"paths_exhausted\": %s, ",
                          concolic_paths_exhausted ? "true" : "false");
        s += "\"recipes\": " + json_string_array(concolic_recipes);
        s += "},\n";
    }
    if (coverage_enabled) {
        // Edges-discovered over scenarios: the guided campaign's trajectory,
        // one sample per scheduler round.  Deterministic like the rest.
        s += "  \"coverage\": {";
        s += util::format("\"map_slots\": %llu, ",
                          static_cast<unsigned long long>(coverage_map_slots));
        s += util::format("\"edges_discovered\": %llu, ",
                          static_cast<unsigned long long>(coverage_edges));
        s += util::format("\"edges_reference\": %llu, ",
                          static_cast<unsigned long long>(coverage_edges_reference));
        s += "\"edges_dut\": [";
        for (std::size_t i = 0; i < coverage_edges_dut.size(); ++i) {
            if (i) s += ", ";
            s += util::format(
                "{\"backend\": \"%s\", \"edges\": %llu}",
                json_escape(i < backends.size() ? backends[i] : "").c_str(),
                static_cast<unsigned long long>(coverage_edges_dut[i]));
        }
        s += "], ";
        s += util::format(
            "\"coverage_pct\": %.2f, ",
            coverage_map_slots
                ? 100.0 * static_cast<double>(coverage_edges) /
                      static_cast<double>(coverage_map_slots)
                : 0.0);
        s += "\"series\": [";
        for (std::size_t i = 0; i < coverage_series.size(); ++i) {
            const CoveragePoint& p = coverage_series[i];
            if (i) s += ", ";
            s += util::format(
                "{\"scenarios\": %llu, \"edges\": %llu, \"pct\": %.2f}",
                static_cast<unsigned long long>(p.scenarios),
                static_cast<unsigned long long>(p.edges),
                coverage_map_slots
                    ? 100.0 * static_cast<double>(p.edges) /
                          static_cast<double>(coverage_map_slots)
                    : 0.0);
        }
        s += "]},\n";
    }
    if (mgmt_enabled || fabric_enabled) {
        // Byte-identity consumers: "mgmt" is deterministic like the rest of
        // the report; "fabric" is timing-dependent (which worker dies with
        // which shard in flight) and must be excluded from comparisons.
        s += "  \"robustness\": {";
        s += util::format(
            "\"mgmt\": {\"requests\": %llu, \"frames_sent\": %llu, "
            "\"retries\": %llu, \"timeouts\": %llu, \"decode_errors\": %llu, "
            "\"faults_injected\": %llu, \"dedup_hits\": %llu}",
            static_cast<unsigned long long>(mgmt.requests),
            static_cast<unsigned long long>(mgmt.frames_sent),
            static_cast<unsigned long long>(mgmt.retries),
            static_cast<unsigned long long>(mgmt.timeouts),
            static_cast<unsigned long long>(mgmt.decode_errors),
            static_cast<unsigned long long>(mgmt.faults_injected),
            static_cast<unsigned long long>(mgmt.dedup_hits));
        if (fabric_enabled) {
            s += util::format(
                ", \"fabric\": {\"workers\": %llu, \"worker_restarts\": %llu, "
                "\"shards_redispatched\": %llu, \"jobs_resent\": %llu, "
                "\"link_frames\": %llu, \"link_corrupt\": %llu, "
                "\"link_faults\": %llu}",
                static_cast<unsigned long long>(fabric.workers),
                static_cast<unsigned long long>(fabric.worker_restarts),
                static_cast<unsigned long long>(fabric.shards_redispatched),
                static_cast<unsigned long long>(fabric.jobs_resent),
                static_cast<unsigned long long>(fabric.link_frames),
                static_cast<unsigned long long>(fabric.link_corrupt),
                static_cast<unsigned long long>(fabric.link_faults));
        }
        s += "},\n";
    }
    s += "  \"divergences\": [";
    for (std::size_t i = 0; i < divergences.size(); ++i) {
        const auto& d = divergences[i];
        s += i ? ",\n    {" : "\n    {";
        s += util::format("\"seed\": %llu, ",
                          static_cast<unsigned long long>(d.seed));
        s += "\"recipe\": \"" + json_escape(d.recipe) + "\", ";
        s += "\"backend\": \"" + json_escape(d.backend) + "\", ";
        s += "\"program\": \"" + json_escape(d.program) + "\", ";
        s += "\"quirks\": \"" + json_escape(d.quirk_signature) + "\", ";
        s += "\"kind\": \"" + json_escape(d.kind) + "\", ";
        s += "\"detail\": \"" + json_escape(d.detail) + "\", ";
        s += "\"fingerprint\": \"" + json_escape(d.fingerprint) + "\", ";
        s += util::format("\"discovered_at\": %llu, ",
                          static_cast<unsigned long long>(d.discovered_at));
        s += util::format("\"first_diverging_packet\": %llu, ",
                          static_cast<unsigned long long>(d.first_diverging_packet));
        s += util::format("\"minimized_count\": %llu, ",
                          static_cast<unsigned long long>(d.minimized_count));
        s += util::format("\"minimized_reproduces\": %s, ",
                          d.minimized_reproduces ? "true" : "false");
        s += util::format("\"duplicates\": %llu, ",
                          static_cast<unsigned long long>(d.duplicates));
        s += "\"localized\": {";
        s += util::format("\"diverged\": %s, ",
                          d.localized.diverged ? "true" : "false");
        s += util::format(
            "\"stage\": \"%s\", ",
            d.localized.diverged ? dataplane::stage_name(d.localized.stage) : "");
        s += "\"description\": \"" + json_escape(d.localized.description) + "\", ";
        s += util::format("\"probes\": %d, ", d.localized.probes);
        s += util::format("\"conclusive\": %s}",
                          d.localized.conclusive ? "true" : "false");
        s += "}";
    }
    s += divergences.empty() ? "]\n" : "\n  ]\n";
    s += "}\n";
    return s;
}

}  // namespace ndb::core
