// IR interpreter: expression evaluation and match-action control execution.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <unordered_map>
#include <vector>

#include "dataplane/quirks.h"
#include "dataplane/state.h"
#include "dataplane/stateful.h"
#include "dataplane/tables.h"
#include "p4/ir.h"

namespace ndb::coverage {
class CoverageMap;
}  // namespace ndb::coverage

namespace ndb::dataplane {

// Local/parameter slots for the body currently executing.
struct Frame {
    std::vector<Bitvec> locals;
    std::vector<Bitvec> params;
};

// One table application observed while a control ran.
struct TableApply {
    int table = -1;
    bool hit = false;
    int action = -1;
};

// Evaluates `e` against packet state and frame.  Shared by the parser
// engine (select keys), the interpreter and tests.  Honours the quirks
// that affect expression semantics (shift miscompilation).
Bitvec eval_expr(const p4::ir::Program& prog, const p4::ir::Expr& e,
                 const PacketState& state, const Frame& frame,
                 const Quirks& quirks);

// Executes ingress/egress controls over a PacketState.
//
// The execution machinery (call frames, table-key scratch, extern byte
// buffers) is pooled on the interpreter and reused across packets, so a
// steady-state packet traversal performs no heap allocation of its own.
class Interpreter {
public:
    Interpreter(const p4::ir::Program& prog, TableSet& tables, StatefulSet& stateful,
                Quirks quirks = {});

    // Runs a control body; table applies are appended to `applies_`.
    void run_control(const p4::ir::Control& control, PacketState& state);

    // Runs one action directly (used for table results and direct calls).
    void run_action(int action_id, std::span<const Bitvec> args, PacketState& state);

    const std::vector<TableApply>& applies() const { return applies_; }
    void clear_applies() { applies_.clear(); }

    // Coverage instrumentation: when a map is set, table hits/misses,
    // action invocations and branch edges are recorded into it, salted by
    // the program name XOR `salt` (devices pass a per-backend salt so DUT
    // edges never alias reference edges).  The static branch ordinals are
    // assigned on the first call (a deterministic pre-order walk of the
    // controls and actions), so enabling coverage allocates once here and
    // never on the per-packet path.
    void set_coverage(coverage::CoverageMap* map, std::uint64_t salt = 0);

private:
    void exec_body(const std::vector<p4::ir::StmtPtr>& body, PacketState& state,
                   Frame& frame);
    void exec(const p4::ir::Stmt& s, PacketState& state, Frame& frame);
    void exec_extern(const p4::ir::Stmt& s, PacketState& state, Frame& frame);

    // Call-frame pool: frames_ grows to the deepest nesting ever seen and
    // its vectors keep their capacity, so re-entry is allocation-free.
    struct FrameScope;
    Frame& push_frame();
    void pop_frame() { --depth_; }

    const p4::ir::Program& prog_;
    TableSet& tables_;
    StatefulSet& stateful_;
    Quirks quirks_;
    std::vector<TableApply> applies_;

    std::deque<Frame> frames_;  // deque: references stay valid while growing
    std::size_t depth_ = 0;
    std::vector<Bitvec> keys_scratch_;
    std::vector<Bitvec> args_scratch_;
    std::vector<std::uint8_t> bytes_scratch_;

    coverage::CoverageMap* coverage_ = nullptr;
    std::uint64_t cov_salt_ = 0;  // program_salt(prog_.name) ^ device salt
    // if_stmt -> stable ordinal; built once per program when coverage is
    // first enabled (identical walk order => identical ordinals everywhere).
    std::unordered_map<const p4::ir::Stmt*, std::uint32_t> branch_ids_;
};

}  // namespace ndb::dataplane
