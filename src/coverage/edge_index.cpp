#include "coverage/edge_index.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/strings.h"

namespace ndb::coverage {

namespace {

std::string state_name(const p4::ir::Program& prog, std::int64_t id) {
    if (id == p4::ir::kAccept) return "accept";
    if (id == p4::ir::kReject) return "reject";
    if (id >= 0 && id < static_cast<std::int64_t>(prog.parser_states.size())) {
        return prog.parser_states[static_cast<std::size_t>(id)].name;
    }
    return util::format("state#%lld", static_cast<long long>(id));
}

}  // namespace

std::string EdgeSite::describe(const p4::ir::Program& prog) const {
    switch (kind) {
        case Site::parser_edge:
            return util::format("parser_edge %s->%s", state_name(prog, a).c_str(),
                                state_name(prog, b).c_str());
        case Site::parser_finish:
            return util::format("parser_finish %s", state_name(prog, a).c_str());
        case Site::table: {
            const auto& name = prog.tables.at(static_cast<std::size_t>(a)).name;
            return util::format("table %s %s", name.c_str(), b ? "hit" : "miss");
        }
        case Site::action:
            return util::format(
                "action %s",
                prog.actions.at(static_cast<std::size_t>(a)).name.c_str());
        case Site::branch:
            return util::format("branch #%lld %s", static_cast<long long>(a),
                                b ? "taken" : "not-taken");
    }
    return "?";
}

EdgeIndex::EdgeIndex(const p4::ir::Program& prog, std::uint64_t device_salt)
    : cov_salt_(program_salt(prog.name) ^ device_salt) {
    // Parser transitions: direct targets, select-case targets, and the
    // implicit no-case-matched fall-through to reject.  Deduplicate -- two
    // cases jumping to the same state are one dynamic edge.
    std::set<std::pair<int, int>> edges;
    for (std::size_t s = 0; s < prog.parser_states.size(); ++s) {
        const int from = static_cast<int>(s);
        const auto& t = prog.parser_states[s].transition;
        if (t.kind == p4::ir::Transition::Kind::direct) {
            edges.emplace(from, t.next_state);
            continue;
        }
        for (const auto& c : t.cases) edges.emplace(from, c.next_state);
        edges.emplace(from, p4::ir::kReject);
    }
    for (const auto& [from, to] : edges) add(Site::parser_edge, from, to);

    // Terminal parser sites.  Verdict ordinals follow ParserVerdict:
    // accept = 0 at state kAccept, reject = 1 at state kReject.  Truncation
    // and loop-guard verdicts fire at arbitrary states and are not modeled
    // by symexec, so they are not enumerated as targets.
    add(Site::parser_finish, p4::ir::kAccept, 0);
    add(Site::parser_finish, p4::ir::kReject, 1);

    for (const auto& table : prog.tables) {
        add(Site::table, table.id, 1);  // hit
        add(Site::table, table.id, 0);  // miss
    }
    for (const auto& action : prog.actions) add(Site::action, action.id, 0);

    // Branch ordinals from the same walk the interpreter instruments with.
    const auto branch_ids = p4::ir::number_branches(prog);
    std::vector<std::uint32_t> ordinals;
    ordinals.reserve(branch_ids.size());
    for (const auto& [stmt, id] : branch_ids) ordinals.push_back(id);
    std::sort(ordinals.begin(), ordinals.end());
    for (const std::uint32_t id : ordinals) {
        add(Site::branch, id, 0);
        add(Site::branch, id, 1);
    }
}

void EdgeIndex::add(Site kind, std::int64_t a, std::int64_t b) {
    EdgeSite site;
    site.kind = kind;
    site.a = a;
    site.b = b;
    // Mirror the instrumentation exactly: salt folded into the first
    // operand, both operands sign-extended through uint64_t.
    site.slot = CoverageMap::slot(kind, cov_salt_ ^ static_cast<std::uint64_t>(a),
                                  static_cast<std::uint64_t>(b));
    sites_.push_back(site);
}

std::vector<EdgeSite> EdgeIndex::dark_sites(const CoverageMap& map) const {
    std::vector<EdgeSite> dark;
    for (const auto& site : sites_) {
        if (map.count(site.slot) == 0) dark.push_back(site);
    }
    return dark;
}

}  // namespace ndb::coverage
