// Execution-engine provenance for the data plane.
//
// The tree-walking Interpreter is the only executor: it is both the
// production path and the trusted semantic reference that target devices
// are differentially tested against.
#pragma once

namespace ndb::dataplane {

// Kept only for perfbench/, which names the engine in its provenance line
// and forwards it through its timing device wrapper.
enum class Engine {
    interpreter = 0,
};

// Kept only for perfbench/src/main.cpp's provenance line.
constexpr const char* engine_name(Engine /*engine*/) { return "interpreter"; }

// Kept only for perfbench/ callers; there is no other engine to select.
constexpr Engine default_engine() { return Engine::interpreter; }

}  // namespace ndb::dataplane
