#ifndef CHEF_MINILUA_LUA_AST_H_
#define CHEF_MINILUA_LUA_AST_H_

/// \file
/// MiniLua front end: tokens and AST.
///
/// MiniLua is a Lua-5.2-shaped guest language. Numbers are integers (the
/// paper configures the Lua interpreter for integer numbers because S2E's
/// solver lacks symbolic floats, §5.2). The interpreter is a tree walker;
/// every AST node carries a unique id that serves as the high-level PC
/// reported through log_pc, with the node kind as the opcode.
///
/// The parser resolves every name in its one pass. A scope that declares
/// names gets a frame of slots at run time; a local is a (hops, slot) pair
/// over those frames, a global a dense per-chunk id. Frames are created
/// only for scopes that declare names, so a block without locals costs
/// nothing. Lookup keeps the interpreter's dynamic-scope behaviour: a
/// function sees an enclosing local declared after the function once that
/// declaration has run (LuaNameRef's later candidates), and a
/// re-declaration in the same scope reuses the slot.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/str_ops.h"

namespace chef::minilua {

enum class LuaAstKind : uint8_t {
    // Expressions.
    kNil,
    kTrue,
    kFalse,
    kNumber,     ///< int_value.
    kString,     ///< literal.
    kVararg,     ///< `...` (supported only as "no value" placeholder).
    kName,       ///< name; ref.
    kIndex,      ///< kids = {object, key-expr}.
    kCall,       ///< kids = {callee, args...}.
    kMethodCall, ///< name = method; literal; kids = {object, args...}.
    kFunction,   ///< slots = the parameters'; kids = {body}.
    kBinOp,      ///< op; kids = {lhs, rhs}.
    kUnOp,       ///< op; kids = {operand}.
    kTable,      ///< kids alternate key, value; null key = array entry.
    // Statements.
    kBlock,      ///< kids = statements.
    kLocal,      ///< slots = the names'; kids = value exprs.
    kAssign,     ///< extra = targets; kids = value exprs.
    kExprStat,   ///< kids = {call expr}.
    kIf,         ///< kids = {cond, then-block, [cond, block]..., else?};
                 ///< int_value = number of (cond, block) pairs.
    kWhile,      ///< kids = {cond, body}.
    kRepeat,     ///< kids = {body, cond}.
    kForNum,     ///< name = var (slot 0); kids = {start, stop, [step], body}.
    kForIn,      ///< slots = the first two variables';
                 ///< kids = {iter-expr, body}.
    kFunctionStat,   ///< extra = {target}; kids = {function literal}.
    kLocalFunction,  ///< name; slots = {its slot}; kids = {function literal}.
    kReturn,     ///< kids = value exprs.
    kBreak,
};

const char* LuaAstKindName(LuaAstKind kind);

/// Operators of kBinOp and kUnOp nodes.
enum class LuaOp : uint8_t {
    kNone,
    // Binary.
    kAnd, kOr,
    kEq, kNe, kLt, kLe, kGt, kGe,
    kConcat,
    kAdd, kSub, kMul, kDiv, kMod,
    // Unary.
    kNot, kNeg, kLen,
};

/// A local's place: \p hops frames up from the innermost one, slot \p slot.
struct LuaSlotRef {
    uint32_t hops = 0;
    uint32_t slot = 0;
};

/// What a kName node reads or writes.
struct LuaNameRef {
    static constexpr uint32_t kLocal = UINT32_MAX;

    /// The global's id, or kLocal for the local at \p local.
    uint32_t global = kLocal;
    LuaSlotRef local;
    /// LuaChunk::later_refs[later_begin, later_end): locals of enclosing
    /// scopes outside the name's function that are declared after the
    /// function, innermost first. Each is used, before the above, once its
    /// frame has declared it (slot < LuaFrame::declared).
    uint32_t later_begin = 0;
    uint32_t later_end = 0;
};

struct LuaAst;
using LuaAstPtr = std::unique_ptr<LuaAst>;

struct LuaAst {
    LuaAstKind kind;
    LuaOp op = LuaOp::kNone;  ///< kBinOp, kUnOp.
    int line = 0;
    /// Unique node id (per compiled chunk); the high-level PC.
    uint32_t node_id = 0;
    /// kBlock: the size of the frame its scope opens, 0 for none. The
    /// scope of a function or loop body includes its parameters or loop
    /// variables.
    uint32_t num_slots = 0;
    /// kLocal, kLocalFunction: the scope's declared slots once it ran;
    /// kFunction, kForIn: the slots its parameters or variables declare.
    uint32_t declared = 0;
    /// kString: the string; kMethodCall: the method name. An index into
    /// LuaChunk::literals.
    uint32_t literal = 0;
    LuaNameRef ref;  ///< kName.
    int64_t int_value = 0;
    std::string name;
    std::vector<LuaAstPtr> kids;
    std::vector<LuaAstPtr> extra;
    /// kLocal, kLocalFunction, kForIn, kFunction: the slots of the names
    /// bound, in order.
    std::vector<uint32_t> slots;

    explicit LuaAst(LuaAstKind k, int source_line = 0)
        : kind(k), line(source_line)
    {
    }
};

/// A parsed chunk plus front-end metadata.
struct LuaChunk {
    LuaAstPtr body;             ///< kBlock.
    uint32_t num_nodes = 0;
    std::vector<int> coverable_lines;
    /// The dense id of every global the chunk names. Chunk locals have
    /// ids too: RunChunk promotes them to globals.
    std::unordered_map<std::string, uint32_t> global_ids;
    /// The global id of each slot of the chunk's frame.
    std::vector<uint32_t> chunk_slot_globals;
    /// The bytes of every distinct string literal and method name, built
    /// once and shared by every value made from them.
    std::vector<std::shared_ptr<const interp::SymStr>> literals;
    /// Every name's later candidates (LuaNameRef::later_begin/end).
    std::vector<LuaSlotRef> later_refs;
};

struct LuaParseResult {
    bool ok = true;
    std::string error;
    int error_line = 0;
    std::shared_ptr<LuaChunk> chunk;
};

/// Parses MiniLua source.
LuaParseResult LuaParse(const std::string& source);

}  // namespace chef::minilua

#endif  // CHEF_MINILUA_LUA_AST_H_
