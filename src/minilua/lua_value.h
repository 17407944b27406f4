#ifndef CHEF_MINILUA_LUA_VALUE_H_
#define CHEF_MINILUA_LUA_VALUE_H_

/// \file
/// MiniLua runtime values.
///
/// Numbers are 64-bit integers (the paper's integer Lua build, §5.2).
/// Strings are immutable concolic byte vectors and — like real Lua — are
/// interned on creation in the vanilla interpreter build; the optimized
/// build eliminates interning. Tables have the classic array part plus an
/// instrumented hash part, whose buckets are allocated on the first insert.
/// Locals live in slot frames, one per activation of a scope that declares
/// names; the parser resolves each name to a slot (lua_ast.h).
///
/// Frames and string blocks come from the node pool
/// (support/node_pool.h). Tables, functions and iterators stay on the
/// default allocator: LuaInterp::HashKey hashes a table key's address
/// into its bucket, so where the allocator puts these objects decides a
/// table's bucket order, and a pool would tie that order to its slot
/// reuse.

#include <memory>
#include <string>
#include <vector>

#include "interp/str_ops.h"
#include "lowlevel/symvalue.h"
#include "minilua/lua_ast.h"
#include "support/node_pool.h"

namespace chef::minilua {

using interp::SymStr;
using lowlevel::SymValue;

struct LuaTable;
struct LuaFunction;
struct LuaIterator;
class LuaInterp;

/// A Lua value. Cheap to copy (payloads are shared).
struct LuaValue {
    enum class Type : uint8_t {
        kNil,
        kBool,
        kInt,
        kStr,
        kTable,
        kFunction,
        kBuiltin,
        kIterator,  ///< pairs()/ipairs() result driving a for-in loop.
    };

    Type type = Type::kNil;
    SymValue num{0, 64};  ///< kInt payload; kBool uses width 1.
    std::shared_ptr<const SymStr> str;
    std::shared_ptr<LuaTable> table;
    std::shared_ptr<LuaFunction> function;
    std::shared_ptr<LuaIterator> iterator;
    int builtin_id = 0;

    bool IsNil() const { return type == Type::kNil; }

    static LuaValue Nil() { return LuaValue(); }
    static LuaValue Bool(SymValue value);
    static LuaValue BoolC(bool value);
    static LuaValue Int(SymValue value);
    static LuaValue IntC(int64_t value);
    static LuaValue Str(SymStr value);
    /// A string value sharing \p bytes.
    static LuaValue Str(std::shared_ptr<const SymStr> bytes);
    static LuaValue StrC(const std::string& value);
    static LuaValue Table(std::shared_ptr<LuaTable> table);
    static LuaValue Builtin(int id);
};

const char* LuaTypeName(LuaValue::Type type);

/// The locals of one activation of a scope that declares names, in the
/// slots the parser assigned. Closures capture the frame chain, so frames
/// are shared and outlive their activation.
struct LuaFrame {
    LuaFrame(uint32_t num_slots, uint32_t declared,
             std::shared_ptr<LuaFrame> parent)
        : slots(num_slots), declared(declared), parent(std::move(parent))
    {
    }

    std::vector<LuaValue> slots;
    /// Slots [0, declared) are declared: a scope declares its names in
    /// slot order, so the declared ones are always a prefix.
    uint32_t declared = 0;
    std::shared_ptr<LuaFrame> parent;

    /// The frame \p hops up the chain from this one.
    LuaFrame* Up(uint32_t hops)
    {
        LuaFrame* frame = this;
        for (uint32_t hop = 0; hop < hops; ++hop) {
            frame = frame->parent.get();
        }
        return frame;
    }
    /// The local at \p ref, counting hops from this frame.
    LuaValue& At(const LuaSlotRef& ref)
    {
        return Up(ref.hops)->slots[ref.slot];
    }
};

using LuaFramePtr = std::shared_ptr<LuaFrame>;

/// A Lua closure.
struct LuaFunction {
    const LuaAst* node = nullptr;  ///< kFunction: parameters and body.
    LuaFramePtr closure;
};

/// Snapshot iterator produced by pairs()/ipairs().
struct LuaIterator {
    std::vector<std::pair<LuaValue, LuaValue>> entries;
};

/// A Lua table: dense 1-based array part + instrumented hash part.
///
/// The hash part has a fixed kBuckets buckets, allocated on the first
/// insertion: a table used only as an array, or never written, holds none.
/// Get and Set still hash the key through ResolveBucket(..., kBuckets)
/// before finding the table empty, so a symbolic key forks exactly as it
/// would against allocated empty buckets.
struct LuaTable {
    static constexpr uint64_t kBuckets = 8;

    struct Entry {
        LuaValue key;
        LuaValue value;
        bool alive = true;
    };

    std::vector<LuaValue> array;  ///< array[i] holds t[i+1].

    /// Hash part: bucket chains of entry indices (insertion ordered).
    /// buckets is empty until the first insertion, then holds kBuckets.
    std::vector<Entry> entries;
    std::vector<std::vector<uint32_t>> buckets;
    size_t live_count = 0;

    /// The entry indices in \p bucket; none while buckets is empty.
    const std::vector<uint32_t>& Chain(uint64_t bucket) const
    {
        static const std::vector<uint32_t> kNoEntries;
        return buckets.empty() ? kNoEntries : buckets[bucket];
    }
    /// The chain to append a new entry of \p bucket to, allocating the
    /// buckets on the first insertion.
    std::vector<uint32_t>& ChainForInsert(uint64_t bucket)
    {
        if (buckets.empty()) {
            buckets.resize(kBuckets);
        }
        return buckets[bucket];
    }

    /// Raw get/set run through the interpreter for instrumented hashing
    /// and key comparison; declared here, implemented with the interp.
    LuaValue Get(LuaInterp& interp, const LuaValue& key);
    void Set(LuaInterp& interp, const LuaValue& key, LuaValue value);

    /// The '#' border: length of the dense array part.
    int64_t Border() const;
};

}  // namespace chef::minilua

#endif  // CHEF_MINILUA_LUA_VALUE_H_
