// Vendor-backend behaviour deviations ("quirks").
//
// A Quirks value travels with a compiled device image and tells the
// parser engine and interpreter how the modeled target diverges from P4
// semantics.
// The reference target uses the all-defaults value; the SDNet-like target
// injects the bug catalogue here.  The headline entry is
// `reject_as_accept`: the paper's discovery that SDNet does not implement
// the parser reject state, so packets that must be dropped are forwarded.
#pragma once

#include <string>

namespace ndb::dataplane {

struct Quirks {
    // Parser `reject` behaves like `accept`: headers extracted so far stay
    // valid and the packet continues through the pipeline (paper Section 4).
    bool reject_as_accept = false;

    // Maximum number of header extracts the hardware parser supports;
    // further extracts are silently skipped and the parser accepts early.
    // 0 means unlimited.
    int parser_depth_limit = 0;

    // The checksum engine is not wired up: ipv4_checksum_update is a no-op.
    bool skip_checksum_update = false;

    // Right shifts are miscompiled into left shifts.
    bool shift_miscompile = false;

    // Tables hold at most this many entries regardless of the declared
    // size.  0 means no clamp.
    int table_size_clamp = 0;

    // Ternary match selects the lowest-priority matching entry instead of
    // the highest.
    bool ternary_priority_inverted = false;

    // User metadata starts with a garbage pattern instead of zeros.
    bool metadata_clobber = false;

    // --- state-quirk family: bugs only per-flow state can expose ---

    // A register write to a cell already holding a non-zero value is
    // silently dropped: stale flow entries win over refreshes (the classic
    // failed learn/refresh path in NAT and firewall tables).
    bool stale_entry = false;

    // The aging clock loses its low microsecond bit (half-resolution
    // timestamp latch), so expiry decisions flip near the timeout boundary
    // and stored last-seen stamps drift off the reference by one.
    bool expiry_off_by_one = false;

    // The hash unit only produces this many low-order result bits (0 = no
    // quirk): flows that should spread over the whole bucket space collide
    // into 2^N buckets and get misdirected.
    int hash_collision_misdirect = 0;

    bool any() const {
        return reject_as_accept || parser_depth_limit > 0 || skip_checksum_update ||
               shift_miscompile || table_size_clamp > 0 ||
               ternary_priority_inverted || metadata_clobber || stale_entry ||
               expiry_off_by_one || hash_collision_misdirect > 0;
    }

    // Canonical "+"-joined list of the active quirks ("none" when faithful),
    // stable across runs: campaign fingerprints and corpus entries key on it.
    std::string signature() const {
        std::string s;
        const auto tag = [&s](const std::string& t) {
            if (!s.empty()) s += '+';
            s += t;
        };
        if (reject_as_accept) tag("reject_as_accept");
        if (parser_depth_limit > 0) {
            tag("parser_depth_limit=" + std::to_string(parser_depth_limit));
        }
        if (skip_checksum_update) tag("skip_checksum_update");
        if (shift_miscompile) tag("shift_miscompile");
        if (table_size_clamp > 0) {
            tag("table_size_clamp=" + std::to_string(table_size_clamp));
        }
        if (ternary_priority_inverted) tag("ternary_priority_inverted");
        if (metadata_clobber) tag("metadata_clobber");
        if (stale_entry) tag("stale_entry");
        if (expiry_off_by_one) tag("expiry_off_by_one");
        if (hash_collision_misdirect > 0) {
            tag("hash_collision_misdirect=" +
                std::to_string(hash_collision_misdirect));
        }
        return s.empty() ? "none" : s;
    }
};

}  // namespace ndb::dataplane
