#ifndef CHEF_MINIPY_VM_H_
#define CHEF_MINIPY_VM_H_

/// \file
/// The MiniPy virtual machine: an instrumented CPython-style bytecode
/// interpreter.
///
/// The dispatch loop reports every executed instruction through
/// log_pc(HLPC, opcode) (§4.1); every guest-data-dependent branch inside
/// the VM and its builtin library goes through the low-level runtime. The
/// same VM serves as the "vanilla interpreter" for test replay (same code,
/// concrete inputs, optimizations off, coverage on).

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/build_options.h"
#include "interp/int_ops.h"
#include "interp/mem_ops.h"
#include "interp/str_ops.h"
#include "lowlevel/runtime.h"
#include "minipy/code.h"
#include "minipy/object.h"

namespace chef::minipy {

/// Result of executing guest code.
struct VmOutcome {
    bool ok = true;
    /// Set when an exception escaped to the top level.
    std::string exception_type;
    std::string exception_message;
    /// True when the run was cut short by the engine (hang budget).
    bool aborted = false;
};

class Vm
{
  public:
    struct Options {
        interp::InterpBuildOptions build =
            interp::InterpBuildOptions::FullyOptimized();
        /// Record executed source lines (replay/coverage mode).
        bool coverage = false;
    };

    /// Guest call depth beyond which a call raises RecursionError.
    static constexpr int kMaxRecursion = 64;

    Vm(lowlevel::LowLevelRuntime* rt, std::shared_ptr<Program> program,
       Options options);

    /// Executes the module body (defines functions/classes, runs
    /// top-level statements).
    VmOutcome RunModule();

    /// Calls a module-level function. RunModule must have succeeded.
    VmOutcome CallGlobal(const std::string& name, std::vector<PyRef> args,
                         PyRef* result = nullptr);

    /// Everything print()ed by the guest.
    const std::string& output() const { return output_; }

    /// Covered source lines (when Options::coverage).
    const std::set<int>& covered_lines() const { return covered_lines_; }

    lowlevel::LowLevelRuntime* rt() { return rt_; }
    interp::StrOps& str_ops() { return str_ops_; }
    const interp::InterpBuildOptions& build() const
    {
        return options_.build;
    }

    /// Module namespace access (used by symbolic tests to inject values).
    std::unordered_map<std::string, PyRef>& globals() { return globals_; }

    // -- Guest-value operations (used by the VM, builtins, and PyDict) ----

    /// Generic equality as a width-1 concolic value. String comparisons
    /// run the instrumented loop (forking in vanilla builds).
    SymValue ValueEq(const PyRef& a, const PyRef& b);

    /// Hash of a dict key (instrumented; neutralization-aware). Raises
    /// TypeError for unhashable types and returns 0.
    SymValue HashKey(const PyRef& key);

    /// Truthiness as a width-1 concolic value.
    SymValue Truthy(const PyRef& value);

    /// Branches on the truthiness of a guest value.
    bool DecideTruthy(const PyRef& value, uint64_t llpc);

    /// str() of a value (instrumented; symbolic ints produce symbolic
    /// digit strings).
    SymStr ToStr(const PyRef& value);

    /// repr() used inside container printing.
    SymStr ToRepr(const PyRef& value);

    // -- Exception machinery ------------------------------------------------

    /// Raises a builtin exception of the named class.
    void RaiseError(const std::string& class_name,
                    const std::string& message);

    /// Raises a guest exception object (class or instance).
    void RaiseObject(const PyRef& exception);

    bool raised() const { return current_exception_ != nullptr; }
    const PyRef& current_exception() const { return current_exception_; }
    void ClearException() { current_exception_ = nullptr; }

    /// The exception's class name (for outcome reporting).
    std::string ExceptionTypeName(const PyRef& exception) const;
    std::string ExceptionMessage(const PyRef& exception);

    /// isinstance check against a class object (concrete).
    bool IsInstanceOf(const PyRef& value, const PyRef& cls);

    /// Calls a callable with arguments (used by builtins like map-style
    /// helpers and by the dedicated-engine comparison harness).
    PyRef CallCallable(const PyRef& callable, std::vector<PyRef> args);

    /// Looks up the class object for a builtin type name.
    PyRef BuiltinClass(const std::string& name);

  private:
    friend class PyDict;

    struct Frame {
        const CodeObject* code = nullptr;
        size_t ip = 0;
        std::vector<PyRef> stack;
        std::vector<PyRef> locals;  ///< Function fast locals.
        /// Module or class-body namespace (null for functions).
        std::unordered_map<std::string, PyRef>* ns = nullptr;
        struct Block {
            int handler = 0;
            size_t stack_size = 0;
        };
        std::vector<Block> blocks;
    };

    PyRef RunFrame(Frame& frame);
    void DispatchBinary(Frame& frame, BinOpKind kind);
    void DispatchCompare(Frame& frame, CmpOpKind kind);
    PyRef LoadAttribute(const PyRef& object, const std::string& name);
    void StoreAttribute(const PyRef& object, const std::string& name,
                        PyRef value);
    PyRef IndexLoad(const PyRef& object, const PyRef& index);
    void IndexStore(const PyRef& object, const PyRef& index, PyRef value);
    PyRef SliceLoad(const PyRef& object, PyRef start, PyRef stop);
    PyRef GetIter(const PyRef& iterable);
    PyRef IterNext(const PyRef& iterator, bool* exhausted);
    PyRef MakeFunctionObject(const CodeObject* code,
                             std::vector<PyRef> defaults);
    PyRef InstantiateClass(const PyRef& cls, std::vector<PyRef> args);

    /// Resolves a possibly negative / possibly symbolic sequence index to
    /// a concrete position, raising IndexError when out of bounds.
    bool ResolveSequenceIndex(const PyRef& index, size_t length,
                              uint64_t* out);

    /// Builtins.
    PyRef CallBuiltinFunction(int builtin_id, std::vector<PyRef>& args);
    PyRef CallBuiltinMethod(const PyRef& self, int method_id,
                            std::vector<PyRef>& args);
    int LookupBuiltinMethod(PyType type, const std::string& name) const;
    /// The builtin function or exception class called \p name, or null.
    /// Builtins are made on their first lookup in this Vm and kept, so a
    /// run that names a few pays for those alone, and every lookup of one
    /// name returns the same object.
    PyRef LookupBuiltin(const std::string& name);

    /// Integer construction applying CPython-model costs (bignum digit
    /// normalization + small-int cache) to fresh arithmetic results.
    PyRef MakeArithInt(SymValue value);

    /// 1-character string construction; models CPython's cached character
    /// objects (interned in the vanilla build).
    PyRef MakeCharString(const SymValue& byte);

    int64_t ConcretizeStep(const SymValue& value);

    lowlevel::LowLevelRuntime* rt_;
    std::shared_ptr<Program> program_;
    Options options_;
    interp::StrOps str_ops_;
    interp::InternTable interns_;

    std::unordered_map<std::string, PyRef> globals_;
    /// Builtins made so far by LookupBuiltin.
    std::unordered_map<std::string, PyRef> builtins_;
    PyRef current_exception_;
    int call_depth_ = 0;
    bool module_ran_ = false;

    std::string output_;
    std::set<int> covered_lines_;
};

}  // namespace chef::minipy

#endif  // CHEF_MINIPY_VM_H_
