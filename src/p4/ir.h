// Intermediate representation produced by the compiler.
//
// The IR is the contract between the P4 frontend and every backend in the
// repository: the reference interpreter executes it, the vendor backend
// lowers (and possibly mis-lowers) it to a device image, the symbolic
// executor analyses it, and the resource model costs it.  All names and
// widths are resolved; expressions are typed; header instances are flat.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "p4/ast.h"
#include "util/bitvec.h"

namespace ndb::p4::ir {

using util::Bitvec;

// --- headers & fields -------------------------------------------------------

struct Field {
    std::string name;
    int width = 0;    // bits
    int offset = 0;   // bit offset from the start of the header
};

struct Header {
    std::string name;        // instance name as seen by the program (e.g. "ethernet")
    std::string type_name;   // declared header type
    std::vector<Field> fields;
    int size_bits = 0;
    bool is_metadata = false;  // metadata is always valid and never deparsed

    int field_index(std::string_view field_name) const;
};

// (header index, field index) pair; (-1,-1) means "none".
struct FieldRef {
    int header = -1;
    int field = -1;

    bool valid() const { return header >= 0 && field >= 0; }
    friend bool operator==(const FieldRef&, const FieldRef&) = default;
};

// --- expressions --------------------------------------------------------------

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
    enum class Kind {
        constant,   // cvalue
        field,      // fref
        param,      // index: action parameter slot
        local,      // index: local variable slot in the enclosing body
        is_valid,   // fref.header
        unary,      // un, a
        binary,     // bin, a, b
        ternary,    // c ? a : b
        slice,      // a[hi:lo]
        cast,       // (bit<width>) a   (zero-extend or truncate)
    };

    Kind kind = Kind::constant;
    int width = 0;         // result width in bits (bool is width 1 + is_bool)
    bool is_bool = false;

    Bitvec cvalue;
    FieldRef fref;
    int index = 0;
    ast::UnOp un = ast::UnOp::neg;
    ast::BinOp bin = ast::BinOp::add;
    ExprPtr a;
    ExprPtr b;
    ExprPtr c;
    int hi = 0;
    int lo = 0;

    ExprPtr clone() const;
    std::string to_string() const;
};

ExprPtr make_const(const Bitvec& value);
ExprPtr make_field(FieldRef fref, int width);

// --- statements -----------------------------------------------------------------

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

enum class ExternKind {
    none,
    register_read,     // ext_dst = externs[extern_id][index_expr]
    register_write,    // externs[extern_id][index_expr] = value
    counter_count,     // bump counter cell index_expr
    meter_execute,     // ext_dst = color of meter cell index_expr
    mark_to_drop,      // egress_spec = drop port
    hash,              // ext_dst = crc32(inputs) truncated
    checksum_update,   // recompute IPv4-style checksum of header `hash_header`
};

struct Stmt {
    enum class Kind {
        assign_field,   // dst = value
        assign_local,   // locals[local_index] = value
        assign_slice,   // dst[hi:lo] = value
        if_stmt,        // cond ? then_body : else_body
        apply_table,    // tables[table]
        call_action,    // actions[action](action_args)
        set_valid,      // dst.header.setValid()/setInvalid() per make_valid
        extern_op,      // see ExternKind
        exit_pipeline,  // exit;
    };

    Kind kind = Kind::exit_pipeline;

    FieldRef dst;
    int local_index = 0;
    int hi = 0;
    int lo = 0;
    ExprPtr value;
    ExprPtr cond;
    std::vector<StmtPtr> then_body;
    std::vector<StmtPtr> else_body;
    int table = -1;
    int action = -1;
    std::vector<ExprPtr> action_args;
    bool make_valid = true;

    ExternKind ext = ExternKind::none;
    int extern_id = -1;
    ExprPtr index_expr;
    FieldRef ext_dst;
    std::vector<ExprPtr> hash_inputs;
    int hash_header = -1;        // checksum_update target header
    int checksum_field = -1;     // field index of the checksum within that header

    StmtPtr clone() const;
    std::string to_string(int indent = 0) const;
};

std::vector<StmtPtr> clone_body(const std::vector<StmtPtr>& body);

// --- parser ----------------------------------------------------------------------

// Distinguished pseudo-states for parser transitions.
inline constexpr int kAccept = -1;
inline constexpr int kReject = -2;

struct ParserOp {
    enum class Kind { extract, advance, assign };
    Kind kind = Kind::extract;
    int header = -1;   // extract target
    int bits = 0;      // advance amount
    FieldRef dst;      // assign
    ExprPtr value;

    ParserOp clone() const;
};

struct Keyset {
    bool any = false;
    Bitvec value;   // compared as (key & mask) == (value & mask)
    Bitvec mask;
};

struct Transition {
    enum class Kind { direct, select };
    Kind kind = Kind::direct;
    int next_state = kReject;         // direct
    std::vector<ExprPtr> keys;        // select
    struct Case {
        std::vector<Keyset> sets;     // one per key
        int next_state = kReject;
    };
    std::vector<Case> cases;          // evaluated in order; no match => reject

    Transition clone() const;
};

struct ParserState {
    std::string name;
    std::vector<ParserOp> ops;
    Transition transition;

    ParserState clone() const;
};

// --- tables, actions, externs ------------------------------------------------------

enum class MatchKind { exact, lpm, ternary };

const char* match_kind_name(MatchKind kind);

struct TableKey {
    ExprPtr expr;
    MatchKind kind = MatchKind::exact;
    int width = 0;
    std::string name;   // source text, for control-plane display
};

struct Table {
    std::string name;
    int id = -1;
    std::vector<TableKey> keys;
    std::vector<int> actions;          // action ids permitted on this table
    int default_action = -1;
    std::vector<Bitvec> default_args;
    std::int64_t size = 1024;

    int total_key_width() const;
    bool has_lpm() const;
    bool has_ternary() const;
};

struct Action {
    std::string name;
    int id = -1;
    std::vector<int> param_widths;
    std::vector<int> local_widths;
    std::vector<StmtPtr> body;
};

struct ExternDecl {
    enum class Kind { reg, counter, meter };
    Kind kind = Kind::reg;
    std::string name;
    int id = -1;
    int elem_width = 0;        // registers
    std::int64_t array_size = 0;
};

struct Control {
    std::string name;
    std::vector<int> local_widths;
    std::vector<StmtPtr> body;
};

// --- whole program -------------------------------------------------------------------

struct Program {
    std::string name;

    std::vector<Header> headers;
    int stdmeta = -1;    // index of the standard_metadata pseudo-header
    int usermeta = -1;   // index of the flattened user metadata (-1 if none)

    std::vector<ParserState> parser_states;
    int start_state = 0;

    std::vector<Action> actions;
    std::vector<Table> tables;
    std::vector<ExternDecl> externs;

    Control ingress;
    std::optional<Control> egress;
    std::vector<int> deparse_order;   // header indices emitted when valid

    // Well-known standard_metadata fields.
    FieldRef f_ingress_port;
    FieldRef f_egress_spec;
    FieldRef f_egress_port;
    FieldRef f_packet_length;
    FieldRef f_timestamp;

    int header_index(std::string_view instance_name) const;
    FieldRef field_ref(std::string_view header, std::string_view field) const;
    const Field& field(FieldRef ref) const;
    std::string field_name(FieldRef ref) const;   // "hdr.field" for messages
    const Table* table_by_name(std::string_view name) const;
    const Action* action_by_name(std::string_view name) const;
    const ExternDecl* extern_by_name(std::string_view name) const;

    // Deep copy (the vendor backend mutates a clone, never the original).
    Program clone() const;

    std::string to_string() const;
};

// Value of egress_spec that marks a packet for drop.
inline constexpr std::uint64_t kDropPort = 511;

// Stable pre-order ordinal for every if_stmt in the program, walking
// ingress, then egress, then actions by id.  The interpreter's
// branch-coverage slots, coverage::EdgeIndex and the concolic synthesizer
// all derive from this single walk, so the ordinals can never drift
// between them.
std::unordered_map<const Stmt*, std::uint32_t> number_branches(const Program& prog);

}  // namespace ndb::p4::ir
