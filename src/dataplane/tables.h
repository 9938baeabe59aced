// Match-action table engines: exact (hash), LPM, ternary (TCAM).
//
// The control plane programs entries through TableSet; the interpreter
// performs lookups with key values it evaluated from the packet state.
//
// Two engine families implement the same MatchEngine contract:
//
//   * the indexed engines (the default) keep the lookup path off the heap
//     and off linear scans: exact match hashes the concatenated key image,
//     LPM keeps one hash table per installed prefix length probed longest
//     first, and ternary keeps its rows priority-sorted so the first match
//     wins and the scan exits early;
//   * the naive engines are the original straight-line implementations,
//     retained as the semantic reference for differential tests and
//     benchmarks (make_naive_*).
//
// Both families are byte-identical in behaviour, including the quirk
// interplay (ternary_priority_inverted, table_size_clamp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "p4/ir.h"
#include "util/bitvec.h"

namespace ndb::dataplane {

using util::Bitvec;

// Control-plane view of one table entry.
struct TableEntry {
    std::vector<Bitvec> key_values;   // one per key element
    std::vector<Bitvec> key_masks;    // ternary only (parallel to key_values)
    int prefix_len = -1;              // lpm only
    int priority = 0;                 // ternary only; higher wins
    int action_id = 0;
    std::vector<Bitvec> action_args;
};

// Result of a lookup: the action to run.
struct ActionEntry {
    int action_id = 0;
    std::vector<Bitvec> args;
};

// Outcome of inserting an entry.
enum class InsertStatus { ok, table_full, duplicate, bad_entry };

const char* insert_status_name(InsertStatus status);

// One table's match engine.  `capacity` is enforced at insert.
class MatchEngine {
public:
    virtual ~MatchEngine() = default;
    virtual InsertStatus insert(const TableEntry& entry) = 0;
    virtual bool erase(const TableEntry& entry) = 0;  // match on key part only
    // Returns the matched action, or nullptr on miss.  The pointer stays
    // valid until the engine is next mutated.
    virtual const ActionEntry* lookup(std::span<const Bitvec> keys) const = 0;
    virtual std::size_t entry_count() const = 0;
    virtual void clear() = 0;
};

// Indexed engines (the hot-path default).
std::unique_ptr<MatchEngine> make_exact_engine(int total_width, std::size_t capacity);
std::unique_ptr<MatchEngine> make_lpm_engine(int key_width, std::size_t capacity);
std::unique_ptr<MatchEngine> make_ternary_engine(int total_width, std::size_t capacity,
                                                 bool inverted_priority);

// Naive reference engines (linear/bit-at-a-time; for differential testing).
std::unique_ptr<MatchEngine> make_naive_exact_engine(int total_width,
                                                     std::size_t capacity);
std::unique_ptr<MatchEngine> make_naive_lpm_engine(int key_width,
                                                   std::size_t capacity);
std::unique_ptr<MatchEngine> make_naive_ternary_engine(int total_width,
                                                       std::size_t capacity,
                                                       bool inverted_priority);

// Per-program collection of table engines plus default actions and
// hit/miss statistics (the statistics feed the status-monitoring use-case).
class TableSet {
public:
    struct Stats {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };

    // `size_clamp` models vendor table-capacity limits (0 = none).
    TableSet(const p4::ir::Program& prog, int size_clamp, bool inverted_priority);

    InsertStatus insert(int table_id, const TableEntry& entry);
    bool erase(int table_id, const TableEntry& entry);
    void set_default_action(int table_id, ActionEntry entry);

    // Lookup; falls back to the table's default action on miss.
    // `hit` reports whether an entry matched.  The reference stays valid
    // until the table is next mutated.
    const ActionEntry& lookup(int table_id, std::span<const Bitvec> keys, bool& hit);

    const Stats& stats(int table_id) const;
    std::size_t entry_count(int table_id) const;
    std::size_t capacity(int table_id) const;
    void clear(int table_id);
    void reset_stats();

private:
    // One table's engine plus its default action and statistics.
    struct Slot {
        std::unique_ptr<MatchEngine> engine;
        ActionEntry default_action;
        Stats stats;
        std::size_t capacity = 0;
        // Which engine family backs this slot (telemetry's per-kind
        // lookup counters/histograms key off it).
        p4::ir::MatchKind kind = p4::ir::MatchKind::exact;
    };

    // lookup() with telemetry: per-kind lookup counters (exact) plus a
    // 1/64-sampled latency histogram.  Out of line so the instrumented path
    // costs the fast path nothing but the one enabled check.
    static const ActionEntry& lookup_timed(Slot& slot, std::span<const Bitvec> keys,
                                           bool& hit);

    std::vector<Slot> slots_;
};

}  // namespace ndb::dataplane
