#include "dataplane/tables.h"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <stdexcept>

#include "obs/metrics.h"

namespace ndb::dataplane {

const char* insert_status_name(InsertStatus status) {
    switch (status) {
        case InsertStatus::ok: return "ok";
        case InsertStatus::table_full: return "table_full";
        case InsertStatus::duplicate: return "duplicate";
        case InsertStatus::bad_entry: return "bad_entry";
    }
    return "?";
}

namespace {

Bitvec concat_keys(std::span<const Bitvec> keys) {
    Bitvec out;
    for (const auto& k : keys) out = Bitvec::concat(out, k);
    return out;
}

// --- packed key image ---------------------------------------------------------
//
// Little-endian word image of the concatenated key elements (first element
// in the high-order bits), truncated/zero-extended to the table's total key
// width -- exactly concat_keys(keys).resize(total_width), but built on the
// stack with no Bitvec temporaries.  Keys up to kInlineWords*64 bits
// (everything in the catalogue) never allocate.
class PackedKey {
public:
    static int words_for(int width) { return width <= 64 ? 1 : (width + 63) / 64; }

    void pack(std::span<const Bitvec> keys, int total_width) {
        nwords_ = words_for(total_width);
        std::uint64_t* w = data();
        for (int i = 0; i < nwords_; ++i) w[i] = 0;
        // Last key occupies the low bits: walk the elements back to front.
        int bitpos = 0;
        for (std::size_t k = keys.size(); k-- > 0;) {
            const Bitvec& key = keys[k];
            const auto src = key.word_span();
            const int off = bitpos % 64;
            for (std::size_t i = 0; i < src.size(); ++i) {
                const int base = bitpos / 64 + static_cast<int>(i);
                if (base < nwords_) w[base] |= src[i] << off;
                if (off != 0 && base + 1 < nwords_) {
                    w[base + 1] |= src[i] >> (64 - off);
                }
            }
            bitpos += key.width();
        }
        const int rem = total_width % 64;
        if (rem != 0) w[nwords_ - 1] &= ~0ull >> (64 - rem);
    }

    // In-place AND with a mask image of the same word count.
    void band_with(const PackedKey& mask) {
        std::uint64_t* w = data();
        const std::uint64_t* m = mask.data();
        for (int i = 0; i < nwords_; ++i) w[i] &= m[i];
    }

    // Clears the low `drop` bits (LPM prefix masking: keep the top bits).
    void clear_low_bits(int drop) {
        std::uint64_t* w = data();
        for (int i = 0; i < nwords_ && drop > 0; ++i, drop -= 64) {
            if (drop >= 64) {
                w[i] = 0;
            } else {
                w[i] &= ~0ull << drop;
            }
        }
    }

    std::span<const std::uint64_t> words() const {
        return {data(), static_cast<std::size_t>(nwords_)};
    }

    bool operator==(const PackedKey& o) const {
        if (nwords_ != o.nwords_) return false;
        const std::uint64_t* a = data();
        const std::uint64_t* b = o.data();
        for (int i = 0; i < nwords_; ++i) {
            if (a[i] != b[i]) return false;
        }
        return true;
    }

    std::size_t hash() const {
        std::size_t h = 0xcbf29ce484222325ull;
        const std::uint64_t* w = data();
        for (int i = 0; i < nwords_; ++i) {
            h ^= w[i];
            h *= 0x100000001b3ull;
            h ^= h >> 29;
        }
        return h;
    }

private:
    static constexpr int kInlineWords = 4;

    std::uint64_t* data() {
        if (nwords_ > kInlineWords && wide_.size() < static_cast<std::size_t>(nwords_)) {
            wide_.resize(static_cast<std::size_t>(nwords_));
        }
        return nwords_ <= kInlineWords ? inline_.data() : wide_.data();
    }
    const std::uint64_t* data() const {
        return nwords_ <= kInlineWords ? inline_.data() : wide_.data();
    }

    std::array<std::uint64_t, kInlineWords> inline_{};
    std::vector<std::uint64_t> wide_;  // only for keys wider than 256 bits
    int nwords_ = 1;
};

struct PackedKeyHash {
    std::size_t operator()(const PackedKey& k) const { return k.hash(); }
};

// Open-addressing hash map from PackedKey to ActionEntry: power-of-two
// capacity, linear probing, tombstoned erase.  A lookup is one hash, a
// couple of contiguous slot probes and zero pointer chasing -- the node
// allocations and bucket indirection of std::unordered_map are what kept
// the previous exact engine an order of magnitude below line rate.
//
// Two slot-diet refinements close the one-word-key gap against the inline
// Bitvec naive engine (ROADMAP item):
//   * the key hash is cached in each slot, so probe-chain walks compare one
//     word before ever touching the key image, and grow() rehashes without
//     recomputing a single hash;
//   * ActionEntry values live in a side pool addressed by a 32-bit index
//     ("indirect ActionEntry"), keeping the probed slot array dense --
//     a slot is state + hash + index + key image, no vector payloads.
class FlatKeyMap {
public:
    const ActionEntry* find(const PackedKey& k) const {
        if (slots_.empty()) return nullptr;
        const std::size_t h = k.hash();
        std::size_t i = h & mask_;
        for (;;) {
            const Slot& s = slots_[i];
            if (s.state == kEmpty) return nullptr;
            if (s.state == kFull && s.hash == h && s.key == k) {
                return &values_[s.value];
            }
            i = (i + 1) & mask_;
        }
    }

    bool contains(const PackedKey& k) const { return find(k) != nullptr; }

    // Precondition: !contains(k).
    void insert(PackedKey k, ActionEntry v) {
        if ((used_ + 1) * 10 >= slots_.size() * 7) grow();
        const std::size_t h = k.hash();
        std::uint32_t index;
        if (!free_.empty()) {
            index = free_.back();
            free_.pop_back();
            values_[index] = std::move(v);
        } else {
            index = static_cast<std::uint32_t>(values_.size());
            values_.push_back(std::move(v));
        }
        place(std::move(k), h, index);
        ++size_;
    }

    bool erase(const PackedKey& k) {
        if (slots_.empty()) return false;
        const std::size_t h = k.hash();
        std::size_t i = h & mask_;
        for (;;) {
            Slot& s = slots_[i];
            if (s.state == kEmpty) return false;
            if (s.state == kFull && s.hash == h && s.key == k) {
                s.state = kTombstone;
                values_[s.value] = ActionEntry{};
                free_.push_back(s.value);
                --size_;
                return true;
            }
            i = (i + 1) & mask_;
        }
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void clear() {
        slots_.clear();
        values_.clear();
        free_.clear();
        mask_ = 0;
        size_ = 0;
        used_ = 0;
    }

private:
    enum State : std::uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
    struct Slot {
        State state = kEmpty;
        std::uint32_t value = 0;  // index into values_
        std::size_t hash = 0;     // cached key hash
        PackedKey key;
    };

    void place(PackedKey k, std::size_t h, std::uint32_t index) {
        std::size_t i = h & mask_;
        while (slots_[i].state == kFull) i = (i + 1) & mask_;
        Slot& s = slots_[i];
        if (s.state == kEmpty) ++used_;  // tombstones are re-used
        s.state = kFull;
        s.hash = h;
        s.value = index;
        s.key = std::move(k);
    }

    void grow() {
        const std::size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
        used_ = 0;
        // Re-place using the cached hashes; the value pool is untouched.
        for (auto& s : old) {
            if (s.state == kFull) place(std::move(s.key), s.hash, s.value);
        }
    }

    std::vector<Slot> slots_;
    std::vector<ActionEntry> values_;   // indirect payloads, index-stable
    std::vector<std::uint32_t> free_;   // recycled value-pool indices
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
    std::size_t used_ = 0;  // full + tombstoned slots (probe-chain length bound)
};

// --- indexed exact ------------------------------------------------------------

class IndexedExactEngine final : public MatchEngine {
public:
    IndexedExactEngine(int total_width, std::size_t capacity)
        : total_width_(total_width), capacity_(capacity) {}

    InsertStatus insert(const TableEntry& entry) override {
        PackedKey key;
        key.pack(entry.key_values, total_width_);
        if (map_.contains(key)) return InsertStatus::duplicate;
        if (map_.size() >= capacity_) return InsertStatus::table_full;
        map_.insert(std::move(key), ActionEntry{entry.action_id, entry.action_args});
        return InsertStatus::ok;
    }

    bool erase(const TableEntry& entry) override {
        PackedKey key;
        key.pack(entry.key_values, total_width_);
        return map_.erase(key);
    }

    const ActionEntry* lookup(std::span<const Bitvec> keys) const override {
        PackedKey key;
        key.pack(keys, total_width_);
        return map_.find(key);
    }

    std::size_t entry_count() const override { return map_.size(); }
    void clear() override { map_.clear(); }

private:
    int total_width_;
    std::size_t capacity_;
    FlatKeyMap map_;
};

// --- indexed lpm --------------------------------------------------------------

// One hash table per installed prefix length, probed longest length first:
// the classic software-LPM layout.  Every map key is the lookup key with
// its low (width - length) bits cleared.
//
// Bitmap-guided probe order (the ROADMAP's many-distinct-lengths fix):
//
//   * active lengths live in a bitmap (bit L set <=> length L holds
//     entries) walked top word down with one count-leading-zeros per
//     candidate, replacing the sorted-vector scan;
//   * each active length additionally keeps a 256-bit *guard* filter over
//     the top min(8, L) bits of its installed prefixes.  A lookup computes
//     its own top bits once and tests one guard bit before committing to a
//     hash probe, so the dominant cost of the ~25-active-lengths shape --
//     a full hash-and-miss per length -- collapses to a shift-and-AND for
//     every length that cannot possibly match.  Guards are conservative
//     (erase leaves bits set until a length empties), which only costs a
//     wasted probe, never a wrong result.
class IndexedLpmEngine final : public MatchEngine {
public:
    IndexedLpmEngine(int key_width, std::size_t capacity)
        : key_width_(key_width), capacity_(capacity),
          guard_bits_(std::min(key_width, 8)),
          by_len_(static_cast<std::size_t>(key_width) + 1),
          active_bits_((static_cast<std::size_t>(key_width) + 64) / 64, 0),
          guards_(static_cast<std::size_t>(key_width) + 1) {}

    InsertStatus insert(const TableEntry& entry) override {
        if (entry.key_values.size() != 1 || entry.prefix_len < 0 ||
            entry.prefix_len > key_width_) {
            return InsertStatus::bad_entry;
        }
        if (count_ >= capacity_) return InsertStatus::table_full;
        PackedKey key = masked_key(entry.key_values[0], entry.prefix_len);
        auto& map = by_len_[static_cast<std::size_t>(entry.prefix_len)];
        if (map.contains(key)) return InsertStatus::duplicate;
        if (map.empty()) set_active(entry.prefix_len, true);
        set_guard(entry.prefix_len, guard_index(top_bits(key), entry.prefix_len));
        map.insert(std::move(key), ActionEntry{entry.action_id, entry.action_args});
        ++count_;
        return InsertStatus::ok;
    }

    bool erase(const TableEntry& entry) override {
        if (entry.key_values.size() != 1 || entry.prefix_len < 0 ||
            entry.prefix_len > key_width_) {
            return false;
        }
        auto& map = by_len_[static_cast<std::size_t>(entry.prefix_len)];
        if (!map.erase(masked_key(entry.key_values[0], entry.prefix_len))) {
            return false;
        }
        --count_;
        if (map.empty()) {
            set_active(entry.prefix_len, false);
            guards_[static_cast<std::size_t>(entry.prefix_len)] = {};
        }
        return true;
    }

    const ActionEntry* lookup(std::span<const Bitvec> keys) const override {
        if (keys.size() != 1) return nullptr;
        PackedKey key;
        key.pack(keys.subspan(0, 1), key_width_);
        // Masking clears low bits only, so the key's top guard_bits_ are
        // invariant across every candidate length: compute them once.
        const std::uint32_t top = top_bits(key);
        int masked_to = key_width_;  // bits still intact (from the top)
        // Bitmap-guided probe order: walk set bits from the highest word
        // down, longest prefix first.
        for (std::size_t w = active_bits_.size(); w-- > 0;) {
            std::uint64_t bits = active_bits_[w];
            while (bits != 0) {
                const int hi = 63 - std::countl_zero(bits);
                bits &= ~(1ull << hi);
                const int len = static_cast<int>(w) * 64 + hi;
                if (!test_guard(len, guard_index(top, len))) continue;
                // Lengths are visited descending, so masking is monotone:
                // clear a few more low bits each step instead of re-packing.
                if (len < masked_to) {
                    key.clear_low_bits(key_width_ - len);
                    masked_to = len;
                }
                if (const ActionEntry* found =
                        by_len_[static_cast<std::size_t>(len)].find(key)) {
                    return found;
                }
            }
        }
        return nullptr;
    }

    std::size_t entry_count() const override { return count_; }

    void clear() override {
        for (auto& map : by_len_) map.clear();
        std::fill(active_bits_.begin(), active_bits_.end(), 0);
        std::fill(guards_.begin(), guards_.end(), Guard{});
        count_ = 0;
    }

private:
    PackedKey masked_key(const Bitvec& value, int prefix_len) const {
        PackedKey key;
        key.pack(std::span<const Bitvec>(&value, 1), key_width_);
        key.clear_low_bits(key_width_ - prefix_len);
        return key;
    }

    void set_active(int len, bool on) {
        auto& word = active_bits_[static_cast<std::size_t>(len) / 64];
        const std::uint64_t bit = 1ull << (static_cast<std::size_t>(len) % 64);
        word = on ? (word | bit) : (word & ~bit);
    }

    // Top min(8, key_width) bits of a packed key image.
    std::uint32_t top_bits(const PackedKey& key) const {
        const auto words = key.words();
        if (guard_bits_ == 0) return 0;
        const int lo = key_width_ - guard_bits_;  // lowest extracted bit
        const std::size_t word = static_cast<std::size_t>(lo) / 64;
        const int off = lo % 64;
        std::uint64_t v = words[word] >> off;
        if (off > 64 - guard_bits_ && word + 1 < words.size()) {
            v |= words[word + 1] << (64 - off);
        }
        return static_cast<std::uint32_t>(v & ((1u << guard_bits_) - 1));
    }

    // Guard bit index for prefix length `len`: the top min(len, guard_bits_)
    // bits.  Shorter prefixes collapse onto coarser buckets, so a stored
    // /L prefix and a lookup key agreeing on those bits share the index.
    std::uint32_t guard_index(std::uint32_t top, int len) const {
        const int significant = std::min(len, guard_bits_);
        return top >> (guard_bits_ - significant);
    }

    void set_guard(int len, std::uint32_t index) {
        guards_[static_cast<std::size_t>(len)][index / 64] |=
            1ull << (index % 64);
    }
    bool test_guard(int len, std::uint32_t index) const {
        return (guards_[static_cast<std::size_t>(len)][index / 64] >>
                (index % 64)) &
               1;
    }

    using Guard = std::array<std::uint64_t, 4>;  // 256 bits: all top-8 values

    int key_width_;
    std::size_t capacity_;
    int guard_bits_;  // min(8, key_width): bits each guard filter keys on
    std::vector<FlatKeyMap> by_len_;
    std::vector<std::uint64_t> active_bits_;  // bit L <=> length L non-empty
    std::vector<Guard> guards_;               // per-length presence filters
    std::size_t count_ = 0;
};

// --- indexed ternary ----------------------------------------------------------

// Rows kept sorted best-priority-first (insertion order breaks ties, like
// the naive scan), so a lookup returns the first matching row and exits.
class IndexedTernaryEngine final : public MatchEngine {
public:
    IndexedTernaryEngine(int total_width, std::size_t capacity, bool inverted)
        : total_width_(total_width), capacity_(capacity), inverted_(inverted) {}

    InsertStatus insert(const TableEntry& entry) override {
        if (rows_.size() >= capacity_) return InsertStatus::table_full;
        Row row;
        make_row_key(entry, row.value, row.mask);
        for (const auto& existing : rows_) {
            if (existing.value == row.value && existing.mask == row.mask) {
                return InsertStatus::duplicate;
            }
        }
        row.priority = entry.priority;
        row.seq = next_seq_++;
        row.action = {entry.action_id, entry.action_args};
        const auto pos = std::upper_bound(
            rows_.begin(), rows_.end(), row,
            [this](const Row& a, const Row& b) { return wins(a, b); });
        rows_.insert(pos, std::move(row));
        return InsertStatus::ok;
    }

    bool erase(const TableEntry& entry) override {
        PackedKey value, mask;
        make_row_key(entry, value, mask);
        for (auto it = rows_.begin(); it != rows_.end(); ++it) {
            if (it->value == value && it->mask == mask) {
                rows_.erase(it);
                return true;
            }
        }
        return false;
    }

    const ActionEntry* lookup(std::span<const Bitvec> keys) const override {
        PackedKey key;
        key.pack(keys, total_width_);
        const auto kw = key.words();
        for (const auto& row : rows_) {
            const auto vw = row.value.words();
            const auto mw = row.mask.words();
            bool match = true;
            for (std::size_t i = 0; i < kw.size(); ++i) {
                if ((kw[i] & mw[i]) != vw[i]) {
                    match = false;
                    break;
                }
            }
            if (match) return &row.action;  // best-first order: done
        }
        return nullptr;
    }

    std::size_t entry_count() const override { return rows_.size(); }
    void clear() override { rows_.clear(); }

private:
    struct Row {
        PackedKey value;
        PackedKey mask;
        int priority = 0;
        std::uint64_t seq = 0;
        ActionEntry action;
    };

    // Strict-weak order: does `a` win over `b`?
    bool wins(const Row& a, const Row& b) const {
        if (a.priority != b.priority) {
            return inverted_ ? a.priority < b.priority : a.priority > b.priority;
        }
        return a.seq < b.seq;  // first-inserted wins ties, like the naive scan
    }

    void make_row_key(const TableEntry& entry, PackedKey& value,
                      PackedKey& mask) const {
        value.pack(entry.key_values, total_width_);
        if (entry.key_masks.empty()) {
            const Bitvec all = Bitvec::ones(total_width_);
            mask.pack(std::span<const Bitvec>(&all, 1), total_width_);
        } else {
            mask.pack(entry.key_masks, total_width_);
        }
        // Pre-mask the value so matching is (key & mask) == value.
        value.band_with(mask);
    }

    int total_width_;
    std::size_t capacity_;
    bool inverted_;
    std::uint64_t next_seq_ = 0;
    std::vector<Row> rows_;
};

// --- naive exact (reference) --------------------------------------------------

class NaiveExactEngine final : public MatchEngine {
public:
    NaiveExactEngine(int total_width, std::size_t capacity)
        : total_width_(total_width), capacity_(capacity) {}

    InsertStatus insert(const TableEntry& entry) override {
        const Bitvec key = concat_keys(entry.key_values).resize(total_width_);
        if (map_.count(key)) return InsertStatus::duplicate;
        if (map_.size() >= capacity_) return InsertStatus::table_full;
        map_.emplace(key, ActionEntry{entry.action_id, entry.action_args});
        return InsertStatus::ok;
    }

    bool erase(const TableEntry& entry) override {
        const Bitvec key = concat_keys(entry.key_values).resize(total_width_);
        return map_.erase(key) > 0;
    }

    const ActionEntry* lookup(std::span<const Bitvec> keys) const override {
        const Bitvec key = concat_keys(keys).resize(total_width_);
        const auto it = map_.find(key);
        return it == map_.end() ? nullptr : &it->second;
    }

    std::size_t entry_count() const override { return map_.size(); }
    void clear() override { map_.clear(); }

private:
    int total_width_;
    std::size_t capacity_;
    std::unordered_map<Bitvec, ActionEntry, util::BitvecHash> map_;
};

// --- naive lpm (reference) ----------------------------------------------------

// Binary trie over the key bits, most significant bit first.  The longest
// prefix on the lookup path wins.
class NaiveLpmEngine final : public MatchEngine {
public:
    NaiveLpmEngine(int key_width, std::size_t capacity)
        : key_width_(key_width), capacity_(capacity) {
        nodes_.push_back(Node{});  // root
    }

    InsertStatus insert(const TableEntry& entry) override {
        if (entry.key_values.size() != 1 || entry.prefix_len < 0 ||
            entry.prefix_len > key_width_) {
            return InsertStatus::bad_entry;
        }
        if (count_ >= capacity_) return InsertStatus::table_full;
        const Bitvec value = entry.key_values[0].resize(key_width_);
        std::size_t node = 0;
        for (int i = 0; i < entry.prefix_len; ++i) {
            const bool bit = value.bit(key_width_ - 1 - i);
            const std::size_t child = bit ? nodes_[node].one : nodes_[node].zero;
            if (child == 0) {
                const std::size_t fresh = nodes_.size();
                nodes_.push_back(Node{});
                if (bit) {
                    nodes_[node].one = fresh;
                } else {
                    nodes_[node].zero = fresh;
                }
                node = fresh;
            } else {
                node = child;
            }
        }
        if (nodes_[node].entry) return InsertStatus::duplicate;
        nodes_[node].entry = ActionEntry{entry.action_id, entry.action_args};
        ++count_;
        return InsertStatus::ok;
    }

    bool erase(const TableEntry& entry) override {
        if (entry.key_values.size() != 1 || entry.prefix_len < 0 ||
            entry.prefix_len > key_width_) {
            return false;
        }
        const Bitvec value = entry.key_values[0].resize(key_width_);
        std::size_t node = 0;
        for (int i = 0; i < entry.prefix_len; ++i) {
            const bool bit = value.bit(key_width_ - 1 - i);
            const std::size_t child = bit ? nodes_[node].one : nodes_[node].zero;
            if (child == 0) return false;
            node = child;
        }
        if (!nodes_[node].entry) return false;
        nodes_[node].entry.reset();
        --count_;
        return true;
    }

    const ActionEntry* lookup(std::span<const Bitvec> keys) const override {
        if (keys.size() != 1) return nullptr;
        const Bitvec key = keys[0].resize(key_width_);
        const ActionEntry* best = nullptr;
        std::size_t node = 0;
        if (nodes_[0].entry) best = &*nodes_[0].entry;
        for (int i = 0; i < key_width_; ++i) {
            const bool bit = key.bit(key_width_ - 1 - i);
            const std::size_t child = bit ? nodes_[node].one : nodes_[node].zero;
            if (child == 0) break;
            node = child;
            if (nodes_[node].entry) best = &*nodes_[node].entry;
        }
        return best;
    }

    std::size_t entry_count() const override { return count_; }

    void clear() override {
        nodes_.clear();
        nodes_.push_back(Node{});
        count_ = 0;
    }

private:
    struct Node {
        std::size_t zero = 0;  // 0 = absent (root is never a child)
        std::size_t one = 0;
        std::optional<ActionEntry> entry;
    };
    int key_width_;
    std::size_t capacity_;
    std::vector<Node> nodes_;
    std::size_t count_ = 0;
};

// --- naive ternary (reference) ------------------------------------------------

class NaiveTernaryEngine final : public MatchEngine {
public:
    NaiveTernaryEngine(int total_width, std::size_t capacity, bool inverted)
        : total_width_(total_width), capacity_(capacity), inverted_(inverted) {}

    InsertStatus insert(const TableEntry& entry) override {
        if (entries_.size() >= capacity_) return InsertStatus::table_full;
        Row row;
        row.value = concat_keys(entry.key_values).resize(total_width_);
        if (entry.key_masks.empty()) {
            row.mask = Bitvec::ones(total_width_);
        } else {
            row.mask = concat_keys(entry.key_masks).resize(total_width_);
        }
        row.value = row.value.band(row.mask);
        row.priority = entry.priority;
        row.action = {entry.action_id, entry.action_args};
        for (const auto& existing : entries_) {
            if (existing.value == row.value && existing.mask == row.mask) {
                return InsertStatus::duplicate;
            }
        }
        entries_.push_back(std::move(row));
        return InsertStatus::ok;
    }

    bool erase(const TableEntry& entry) override {
        Bitvec value = concat_keys(entry.key_values).resize(total_width_);
        Bitvec mask = entry.key_masks.empty()
                          ? Bitvec::ones(total_width_)
                          : concat_keys(entry.key_masks).resize(total_width_);
        value = value.band(mask);
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->value == value && it->mask == mask) {
                entries_.erase(it);
                return true;
            }
        }
        return false;
    }

    const ActionEntry* lookup(std::span<const Bitvec> keys) const override {
        const Bitvec key = concat_keys(keys).resize(total_width_);
        const Row* best = nullptr;
        for (const auto& row : entries_) {
            if (!key.band(row.mask).eq(row.value)) continue;
            if (!best) {
                best = &row;
            } else if (inverted_ ? row.priority < best->priority
                                 : row.priority > best->priority) {
                best = &row;
            }
        }
        return best ? &best->action : nullptr;
    }

    std::size_t entry_count() const override { return entries_.size(); }
    void clear() override { entries_.clear(); }

private:
    struct Row {
        Bitvec value;
        Bitvec mask;
        int priority = 0;
        ActionEntry action;
    };
    int total_width_;
    std::size_t capacity_;
    bool inverted_;
    std::vector<Row> entries_;
};

}  // namespace

std::unique_ptr<MatchEngine> make_exact_engine(int total_width, std::size_t capacity) {
    return std::make_unique<IndexedExactEngine>(total_width, capacity);
}

std::unique_ptr<MatchEngine> make_lpm_engine(int key_width, std::size_t capacity) {
    return std::make_unique<IndexedLpmEngine>(key_width, capacity);
}

std::unique_ptr<MatchEngine> make_ternary_engine(int total_width, std::size_t capacity,
                                                 bool inverted_priority) {
    return std::make_unique<IndexedTernaryEngine>(total_width, capacity,
                                                  inverted_priority);
}

std::unique_ptr<MatchEngine> make_naive_exact_engine(int total_width,
                                                     std::size_t capacity) {
    return std::make_unique<NaiveExactEngine>(total_width, capacity);
}

std::unique_ptr<MatchEngine> make_naive_lpm_engine(int key_width,
                                                   std::size_t capacity) {
    return std::make_unique<NaiveLpmEngine>(key_width, capacity);
}

std::unique_ptr<MatchEngine> make_naive_ternary_engine(int total_width,
                                                       std::size_t capacity,
                                                       bool inverted_priority) {
    return std::make_unique<NaiveTernaryEngine>(total_width, capacity,
                                                inverted_priority);
}

// --- TableSet -------------------------------------------------------------------

TableSet::TableSet(const p4::ir::Program& prog, int size_clamp,
                   bool inverted_priority) {
    slots_.reserve(prog.tables.size());
    for (const auto& t : prog.tables) {
        Slot slot;
        std::size_t cap = static_cast<std::size_t>(std::max<std::int64_t>(t.size, 1));
        if (size_clamp > 0) {
            cap = std::min(cap, static_cast<std::size_t>(size_clamp));
        }
        slot.capacity = cap;
        if (t.has_lpm()) {
            slot.engine = make_lpm_engine(t.keys[0].width, cap);
            slot.kind = p4::ir::MatchKind::lpm;
        } else if (t.has_ternary()) {
            slot.engine = make_ternary_engine(t.total_key_width(), cap, inverted_priority);
            slot.kind = p4::ir::MatchKind::ternary;
        } else {
            slot.engine = make_exact_engine(t.total_key_width(), cap);
            slot.kind = p4::ir::MatchKind::exact;
        }
        slot.default_action = {t.default_action, t.default_args};
        slots_.push_back(std::move(slot));
    }
}

InsertStatus TableSet::insert(int table_id, const TableEntry& entry) {
    return slots_.at(static_cast<std::size_t>(table_id)).engine->insert(entry);
}

bool TableSet::erase(int table_id, const TableEntry& entry) {
    return slots_.at(static_cast<std::size_t>(table_id)).engine->erase(entry);
}

void TableSet::set_default_action(int table_id, ActionEntry entry) {
    slots_.at(static_cast<std::size_t>(table_id)).default_action = std::move(entry);
}

const ActionEntry& TableSet::lookup(int table_id, std::span<const Bitvec> keys,
                                    bool& hit) {
    Slot& slot = slots_.at(static_cast<std::size_t>(table_id));
    if (obs::metrics_on()) [[unlikely]] {
        return lookup_timed(slot, keys, hit);
    }
    if (const ActionEntry* found = slot.engine->lookup(keys)) {
        hit = true;
        ++slot.stats.hits;
        return *found;
    }
    hit = false;
    ++slot.stats.misses;
    return slot.default_action;
}

const ActionEntry& TableSet::lookup_timed(Slot& slot, std::span<const Bitvec> keys,
                                          bool& hit) {
    obs::Counter counter = obs::Counter::lookups_exact;
    obs::Hist hist = obs::Hist::lookup_ns_exact;
    switch (slot.kind) {
        case p4::ir::MatchKind::lpm:
            counter = obs::Counter::lookups_lpm;
            hist = obs::Hist::lookup_ns_lpm;
            break;
        case p4::ir::MatchKind::ternary:
            counter = obs::Counter::lookups_ternary;
            hist = obs::Hist::lookup_ns_ternary;
            break;
        case p4::ir::MatchKind::exact:
            break;
    }
    obs::count(counter);
    const bool timed = obs::sample_lookup();
    const std::uint64_t t0 = timed ? obs::now_ns() : 0;
    const ActionEntry* found = slot.engine->lookup(keys);
    if (timed) obs::record(hist, obs::now_ns() - t0);
    if (found) {
        hit = true;
        ++slot.stats.hits;
        return *found;
    }
    hit = false;
    ++slot.stats.misses;
    return slot.default_action;
}

const TableSet::Stats& TableSet::stats(int table_id) const {
    return slots_.at(static_cast<std::size_t>(table_id)).stats;
}

std::size_t TableSet::entry_count(int table_id) const {
    return slots_.at(static_cast<std::size_t>(table_id)).engine->entry_count();
}

std::size_t TableSet::capacity(int table_id) const {
    return slots_.at(static_cast<std::size_t>(table_id)).capacity;
}

void TableSet::clear(int table_id) {
    slots_.at(static_cast<std::size_t>(table_id)).engine->clear();
}

void TableSet::reset_stats() {
    for (auto& slot : slots_) slot.stats = {};
}

}  // namespace ndb::dataplane
