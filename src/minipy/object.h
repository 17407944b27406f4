#ifndef CHEF_MINIPY_OBJECT_H_
#define CHEF_MINIPY_OBJECT_H_

/// \file
/// MiniPy runtime object model.
///
/// Values mirror CPython's: ints are (modeled) arbitrary-precision numbers,
/// strings are immutable byte strings, dicts are hash tables whose hashing
/// and probing run through the instrumented primitives (so symbolic keys
/// fork exactly like the paper describes). Namespaces keyed by *source*
/// identifiers (globals, attributes) use plain C++ maps: identifier text is
/// never symbolic.
///
/// Every value is one PyObject with a payload field per type, so an empty
/// payload must cost nothing: a PyDict allocates its buckets on the first
/// insertion, not when an int or a string is made.

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/str_ops.h"
#include "lowlevel/symvalue.h"
#include "support/node_pool.h"

namespace chef::minipy {

using interp::SymStr;
using lowlevel::SymValue;

struct CodeObject;
struct PyObject;
using PyRef = std::shared_ptr<PyObject>;
class Vm;

enum class PyType : uint8_t {
    kNone,
    kBool,
    kInt,
    kStr,
    kList,
    kTuple,
    kDict,
    kFunction,
    kBuiltin,      ///< Builtin free function.
    kBoundMethod,  ///< self + function or builtin method id.
    kClass,
    kInstance,
    kRange,
    kIterator,
};

const char* PyTypeName(PyType type);

/// Class payload. Exception classes are ordinary classes rooted at the
/// builtin Exception.
struct PyClass {
    std::string name;
    PyRef base;  ///< Class object or null.
    std::unordered_map<std::string, PyRef> ns;
};

/// Function payload.
struct PyFunc {
    const CodeObject* code = nullptr;
    std::vector<PyRef> defaults;
};

/// Instrumented guest dictionary: open hashing with per-bucket chains.
/// Hashing, bucket selection and key comparison fork through the runtime.
///
/// The buckets are allocated on the first insertion. Before it the table
/// behaves as kInitialBuckets empty buckets: Find and Erase still hash the
/// key through BucketFor(..., 8), so a symbolic key forks exactly as it
/// would against allocated empty buckets.
class PyDict
{
  public:
    struct Entry {
        PyRef key;
        PyRef value;
        bool alive = true;
    };

    /// Returns a pointer to the value slot for \p key, or null.
    PyRef* Find(Vm& vm, const PyRef& key);

    /// Inserts or updates.
    void Set(Vm& vm, const PyRef& key, PyRef value);

    /// Removes the key; returns false if absent.
    bool Erase(Vm& vm, const PyRef& key);

    size_t size() const { return live_count_; }

    /// Insertion-ordered live entries.
    const std::vector<Entry>& entries() const { return entries_; }

  private:
    static constexpr uint64_t kInitialBuckets = 8;

    /// The bucket count lookups hash into: kInitialBuckets before the
    /// first insertion.
    uint64_t num_buckets() const
    {
        return buckets_.empty() ? kInitialBuckets : buckets_.size();
    }

    /// Makes room for one more entry: allocates the buckets on the first
    /// insertion and rehashes into twice as many when the table is full.
    void MaybeGrow(Vm& vm);
    uint64_t BucketFor(Vm& vm, const PyRef& key, uint64_t num_buckets);

    std::vector<Entry> entries_;
    std::vector<std::vector<uint32_t>> buckets_;  ///< Empty until an insert.
    size_t live_count_ = 0;
};

/// A MiniPy value. One struct with per-type payload fields keeps the
/// interpreter compact; the active fields are determined by `type`.
struct PyObject {
    explicit PyObject(PyType t) : type(t) {}

    PyType type;

    SymValue num{0, 64};  ///< kInt / kBool payload.
    SymStr str;           ///< kStr payload.

    std::vector<PyRef> items;  ///< kList / kTuple payload.
    PyDict dict;               ///< kDict payload.

    /// kInstance attribute table; also exception state (args under
    /// "args"). Keys are source identifiers: plain map.
    std::unordered_map<std::string, PyRef> attrs;

    std::shared_ptr<PyClass> cls;  ///< kClass payload / kInstance class.

    PyFunc func;               ///< kFunction payload.
    int builtin_id = 0;        ///< kBuiltin / builtin kBoundMethod.
    PyRef self;                ///< kBoundMethod receiver.
    PyRef callee;              ///< kBoundMethod user function.

    SymValue range_start{0, 64}, range_stop{0, 64};  ///< kRange payload.
    int64_t range_step = 1;

    PyRef iter_target;       ///< kIterator payload.
    size_t iter_index = 0;
    SymValue iter_value{0, 64};  ///< Range iterator position.
};

/// A new object of \p type. Objects and their counts share one slot of
/// the node pool (support/node_pool.h): a guest step can make several.
inline PyRef
NewObject(PyType type)
{
    return support::MakePooled<PyObject>(type);
}

// Constructors for common values.
PyRef MakeNone();
PyRef MakeBool(SymValue value);
PyRef MakeInt(SymValue value);
PyRef MakeInt64(int64_t value);
PyRef MakeStr(SymStr value);
PyRef MakeStrC(const std::string& value);
PyRef MakeList(std::vector<PyRef> items);
PyRef MakeTuple(std::vector<PyRef> items);
PyRef MakeDict();

}  // namespace chef::minipy

#endif  // CHEF_MINIPY_OBJECT_H_
