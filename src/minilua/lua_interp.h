#ifndef CHEF_MINILUA_LUA_INTERP_H_
#define CHEF_MINILUA_LUA_INTERP_H_

/// \file
/// The MiniLua interpreter: an instrumented tree walker.
///
/// Where MiniPy demonstrates CHEF on a bytecode interpreter, MiniLua
/// demonstrates it on an AST interpreter: log_pc(node_id, node_kind) is
/// reported at the head of the statement/expression dispatch — the paper's
/// point that "CHEF's correctness does not depend on the specific
/// instrumentation pattern" (§4.1). Guest errors follow Lua's error/pcall
/// model; there is no exception hierarchy (Table 3 reports no exception
/// counts for Lua).
///
/// Names are resolved by the parser: a local is read from a slot of a
/// LuaFrame chain, a global from a vector indexed by the chunk's global
/// id, so the guest path never hashes an identifier. A scope that declares
/// no names runs in its parent's frame.

#include <memory>
#include <set>
#include <string>

#include "interp/build_options.h"
#include "interp/int_ops.h"
#include "interp/mem_ops.h"
#include "lowlevel/runtime.h"
#include "minilua/lua_ast.h"
#include "minilua/lua_value.h"

namespace chef::minilua {

/// Result of running guest code.
struct LuaOutcome {
    bool ok = true;
    std::string error_message;  ///< Set on uncaught error().
    bool aborted = false;       ///< Engine cut the run short.
};

class LuaInterp
{
  public:
    struct Options {
        interp::InterpBuildOptions build =
            interp::InterpBuildOptions::FullyOptimized();
        bool coverage = false;
    };

    /// Guest call depth beyond which a call raises a stack overflow
    /// error.
    static constexpr int kMaxDepth = 48;

    LuaInterp(lowlevel::LowLevelRuntime* rt,
              std::shared_ptr<LuaChunk> chunk, Options options);
    /// Breaks the closure <-> frame reference cycles (a function stored in
    /// a frame it captured) so the run's frames and values are freed with
    /// the interpreter.
    ~LuaInterp();
    LuaInterp(const LuaInterp&) = delete;
    LuaInterp& operator=(const LuaInterp&) = delete;

    /// Runs the chunk body, then promotes the chunk's locals to globals
    /// of the same name that are not yet set.
    LuaOutcome RunChunk();

    /// Calls a global function (after RunChunk defined it). Only names the
    /// chunk mentions can be globals.
    LuaOutcome CallGlobal(const std::string& name,
                          std::vector<LuaValue> args,
                          LuaValue* result = nullptr);

    const std::string& output() const { return output_; }
    const std::set<int>& covered_lines() const { return covered_lines_; }

    lowlevel::LowLevelRuntime* rt() { return rt_; }
    interp::StrOps& str_ops() { return str_ops_; }
    const interp::InterpBuildOptions& build() const
    {
        return options_.build;
    }

    // -- Value operations (used by LuaTable too) ---------------------------

    /// Lua equality as a width-1 concolic value.
    SymValue ValueEq(const LuaValue& a, const LuaValue& b);

    /// Hash for table keys (neutralization-aware).
    SymValue HashKey(const LuaValue& key);

    /// Truthiness: nil and false are false, everything else true.
    SymValue Truthy(const LuaValue& value);

    /// Interns a freshly created string (vanilla builds only).
    LuaValue NewString(SymStr bytes);
    /// NewString for bytes that are already shared (literals).
    LuaValue NewString(const std::shared_ptr<const SymStr>& bytes);

    /// Raises a Lua error with a message; execution unwinds to the
    /// nearest pcall (or the top level).
    void Error(const std::string& message);
    bool errored() const { return error_raised_; }

    /// tostring() semantics.
    SymStr ToStringValue(const LuaValue& value);

  private:
    enum class Sig : uint8_t { kNone, kBreak, kReturn, kError };

    Sig ExecBlock(const LuaAst& block, const LuaFramePtr& env);
    /// Runs \p block in a scope of its own: a new frame if it declares
    /// names, else \p env.
    Sig ExecScope(const LuaAst& block, const LuaFramePtr& env);
    Sig ExecStat(const LuaAst& stat, const LuaFramePtr& env);
    LuaValue EvalExpr(const LuaAst& expr, const LuaFramePtr& env);
    /// Evaluates an expression list; calls in the last position may
    /// contribute two values (pcall).
    std::vector<LuaValue> EvalExprList(
        const std::vector<LuaAstPtr>& exprs, const LuaFramePtr& env);
    std::vector<LuaValue> EvalCallMulti(const LuaAst& call,
                                        const LuaFramePtr& env);

    LuaValue CallFunction(const LuaValue& callee,
                          std::vector<LuaValue> args);
    std::vector<LuaValue> CallFunctionMulti(const LuaValue& callee,
                                            std::vector<LuaValue> args);
    std::vector<LuaValue> CallBuiltinMulti(int builtin_id,
                                           std::vector<LuaValue>& args);
    LuaValue CallStringMethod(const LuaValue& receiver,
                              const std::string& name,
                              std::vector<LuaValue>& args);

    void AssignTo(const LuaAst& target, const LuaFramePtr& env,
                  LuaValue value);

    /// Sets the global \p name if the chunk mentions it.
    void InstallGlobal(const char* name, LuaValue value);
    /// A frame of \p num_slots slots whose first \p declared are
    /// declared.
    static LuaFramePtr NewFrame(uint32_t num_slots, uint32_t declared,
                                const LuaFramePtr& parent);
    /// The variable the kName reference \p ref names (a global that was
    /// never set holds nil); \p assign marks a global as set.
    LuaValue& Variable(const LuaNameRef& ref, const LuaFramePtr& env,
                       bool assign);

    LuaValue BinOp(const LuaAst& node, const LuaFramePtr& env);
    LuaValue Concat(const LuaValue& lhs, const LuaValue& rhs);
    LuaValue Index(const LuaValue& object, const LuaValue& key);

    bool DecideTruthy(const LuaValue& value, uint64_t llpc);
    SymValue ToNumber(const LuaValue& value, bool* ok);

    void LogNode(const LuaAst& node);

    lowlevel::LowLevelRuntime* rt_;
    std::shared_ptr<LuaChunk> chunk_;
    Options options_;
    interp::StrOps str_ops_;
    interp::InternTable interns_;

    /// Indexed by the chunk's global ids. global_set_ tells a global that
    /// was assigned (nil included) from one never set.
    std::vector<LuaValue> globals_;
    std::vector<bool> global_set_;
    /// Every closure this interpreter created, for the destructor.
    std::vector<std::weak_ptr<LuaFunction>> closures_;
    std::vector<LuaValue> return_values_;
    std::string error_message_;
    bool error_raised_ = false;
    int depth_ = 0;

    std::string output_;
    std::set<int> covered_lines_;
};

}  // namespace chef::minilua

#endif  // CHEF_MINILUA_LUA_INTERP_H_
