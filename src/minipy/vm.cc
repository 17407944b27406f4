#include "minipy/vm.h"

#include "minipy/builtin_ids.h"
#include "support/diagnostics.h"

namespace chef::minipy {

using namespace chef::lowlevel;  // NOLINT
using interp::ConcreteStr;
using interp::ConcreteView;

namespace {

/// HLPC layout (§5.1): code-object id in the high bits, instruction offset
/// in the low bits.
uint64_t
MakeHlpc(int32_t code_id, size_t ip)
{
    return (static_cast<uint64_t>(code_id) << 20) |
           (static_cast<uint64_t>(ip) & 0xfffff);
}

PyRef
MakeClassObject(const std::string& name, PyRef base)
{
    auto object = NewObject(PyType::kClass);
    object->cls = std::make_shared<PyClass>();
    object->cls->name = name;
    object->cls->base = std::move(base);
    return object;
}

/// Builtin functions, by the name the guest calls them by.
struct BuiltinFnEntry {
    const char* name;
    int id;
};
constexpr BuiltinFnEntry kBuiltinFns[] = {
    {"len", kFnLen},     {"ord", kFnOrd},
    {"chr", kFnChr},     {"str", kFnStr},
    {"int", kFnInt},     {"bool", kFnBool},
    {"range", kFnRange}, {"print", kFnPrint},
    {"isinstance", kFnIsinstance},
    {"min", kFnMin},     {"max", kFnMax},
    {"abs", kFnAbs},     {"repr", kFnRepr},
    {"list", kFnList},   {"dict", kFnDict},
    {"tuple", kFnTuple},
};

/// The builtin exception hierarchy: each class and its base (null: root).
struct BuiltinClassEntry {
    const char* name;
    const char* base;
};
constexpr BuiltinClassEntry kBuiltinClasses[] = {
    {"BaseException", nullptr},
    {"Exception", "BaseException"},
    {"ValueError", "Exception"},
    {"TypeError", "Exception"},
    {"KeyError", "Exception"},
    {"IndexError", "Exception"},
    {"AttributeError", "Exception"},
    {"ZeroDivisionError", "Exception"},
    {"AssertionError", "Exception"},
    {"RuntimeError", "Exception"},
    {"StopIteration", "Exception"},
    {"NameError", "Exception"},
    {"RecursionError", "Exception"},
    {"NotImplementedError", "Exception"},
    {"OverflowError", "Exception"},
};

}  // namespace

Vm::Vm(lowlevel::LowLevelRuntime* rt, std::shared_ptr<Program> program,
       Options options)
    : rt_(rt),
      program_(std::move(program)),
      options_(options),
      str_ops_(rt, options.build),
      interns_(&str_ops_)
{
}

PyRef
Vm::BuiltinClass(const std::string& name)
{
    PyRef cls = LookupBuiltin(name);
    CHEF_CHECK_MSG(cls != nullptr, "unknown builtin class");
    return cls;
}

// ---------------------------------------------------------------------------
// Exceptions.
// ---------------------------------------------------------------------------

void
Vm::RaiseError(const std::string& class_name, const std::string& message)
{
    if (raised()) {
        return;  // First exception wins until handled.
    }
    PyRef cls = BuiltinClass(class_name);
    auto instance = NewObject(PyType::kInstance);
    instance->cls = cls->cls;
    instance->attrs["args"] = MakeTuple({MakeStrC(message)});
    current_exception_ = instance;
}

void
Vm::RaiseObject(const PyRef& exception)
{
    if (raised()) {
        return;
    }
    if (exception->type == PyType::kClass) {
        PyRef instance = InstantiateClass(exception, {});
        if (raised()) {
            return;
        }
        current_exception_ = instance;
        return;
    }
    if (exception->type == PyType::kInstance) {
        current_exception_ = exception;
        return;
    }
    RaiseError("TypeError", "exceptions must derive from BaseException");
}

std::string
Vm::ExceptionTypeName(const PyRef& exception) const
{
    if (exception && exception->cls) {
        return exception->cls->name;
    }
    return "<unknown>";
}

std::string
Vm::ExceptionMessage(const PyRef& exception)
{
    if (!exception) {
        return "";
    }
    auto it = exception->attrs.find("args");
    if (it == exception->attrs.end() || it->second->items.empty()) {
        return "";
    }
    const PyRef& first = it->second->items[0];
    if (first->type == PyType::kStr) {
        return ConcreteView(first->str);
    }
    return ConcreteView(ToStr(first));
}

bool
Vm::IsInstanceOf(const PyRef& value, const PyRef& cls)
{
    if (cls->type == PyType::kTuple) {
        for (const PyRef& entry : cls->items) {
            if (IsInstanceOf(value, entry)) {
                return true;
            }
        }
        return false;
    }
    if (cls->type != PyType::kClass) {
        return false;
    }
    // Builtin types spelled as classes.
    const std::string& name = cls->cls->name;
    switch (value->type) {
      case PyType::kInstance: {
        const PyClass* walk = value->cls.get();
        while (walk != nullptr) {
            if (walk->name == name) {
                return true;
            }
            walk = walk->base ? walk->base->cls.get() : nullptr;
        }
        return false;
      }
      case PyType::kInt:
        return name == "int";
      case PyType::kBool:
        return name == "bool" || name == "int";
      case PyType::kStr:
        return name == "str";
      case PyType::kList:
        return name == "list";
      case PyType::kTuple:
        return name == "tuple";
      case PyType::kDict:
        return name == "dict";
      default:
        return false;
    }
}

// ---------------------------------------------------------------------------
// Value operations.
// ---------------------------------------------------------------------------

SymValue
Vm::ValueEq(const PyRef& a, const PyRef& b)
{
    const bool a_num =
        a->type == PyType::kInt || a->type == PyType::kBool;
    const bool b_num =
        b->type == PyType::kInt || b->type == PyType::kBool;
    if (a_num && b_num) {
        return SvEq(a->num, b->num);
    }
    if (a->type != b->type) {
        return SymValue(0, 1);
    }
    switch (a->type) {
      case PyType::kNone:
        return SymValue(1, 1);
      case PyType::kStr:
        return str_ops_.Eq(a->str, b->str);
      case PyType::kList:
      case PyType::kTuple: {
        if (a->items.size() != b->items.size()) {
            return SymValue(0, 1);
        }
        for (size_t i = 0; i < a->items.size(); ++i) {
            if (!rt_->Branch(ValueEq(a->items[i], b->items[i]),
                             CHEF_LLPC)) {
                return SymValue(0, 1);
            }
            if (!rt_->running()) {
                return SymValue(0, 1);
            }
        }
        return SymValue(1, 1);
      }
      default:
        return SymValue(a.get() == b.get() ? 1 : 0, 1);
    }
}

SymValue
Vm::HashKey(const PyRef& key)
{
    switch (key->type) {
      case PyType::kInt:
      case PyType::kBool:
        if (options_.build.neutralize_hashes) {
            return SymValue(0, 64);
        }
        return key->num;
      case PyType::kStr:
        return str_ops_.Hash(key->str);
      case PyType::kNone:
        return SymValue(0, 64);
      case PyType::kTuple: {
        if (options_.build.neutralize_hashes) {
            return SymValue(0, 64);
        }
        SymValue h(0x345678, 64);
        for (const PyRef& item : key->items) {
            h = SvXor(SvMul(h, SymValue(1000003, 64)), HashKey(item));
            if (raised()) {
                return SymValue(0, 64);
            }
        }
        return h;
      }
      default:
        RaiseError("TypeError", std::string("unhashable type: '") +
                                    PyTypeName(key->type) + "'");
        return SymValue(0, 64);
    }
}

SymValue
Vm::Truthy(const PyRef& value)
{
    switch (value->type) {
      case PyType::kNone:
        return SymValue(0, 1);
      case PyType::kBool:
      case PyType::kInt:
        return SvNe(value->num, SymValue(0, 64));
      case PyType::kStr:
        return SymValue(value->str.empty() ? 0 : 1, 1);
      case PyType::kList:
      case PyType::kTuple:
        return SymValue(value->items.empty() ? 0 : 1, 1);
      case PyType::kDict:
        return SymValue(value->dict.size() == 0 ? 0 : 1, 1);
      default:
        return SymValue(1, 1);
    }
}

bool
Vm::DecideTruthy(const PyRef& value, uint64_t llpc)
{
    return rt_->Branch(Truthy(value), llpc);
}

SymStr
Vm::ToStr(const PyRef& value)
{
    switch (value->type) {
      case PyType::kNone:
        return ConcreteStr("None");
      case PyType::kBool:
        return ConcreteStr(value->num.concrete() ? "True" : "False");
      case PyType::kInt:
        return interp::FormatInt(rt_, value->num);
      case PyType::kStr:
        return value->str;
      case PyType::kClass:
        return ConcreteStr("<class '" + value->cls->name + "'>");
      case PyType::kFunction:
        return ConcreteStr("<function>");
      case PyType::kInstance: {
        // Exception instances stringify to their message.
        auto it = value->attrs.find("args");
        if (it != value->attrs.end() && !it->second->items.empty()) {
            return ToStr(it->second->items[0]);
        }
        return ConcreteStr("<" + value->cls->name + " object>");
      }
      default:
        return ToRepr(value);
    }
}

SymStr
Vm::ToRepr(const PyRef& value)
{
    switch (value->type) {
      case PyType::kStr: {
        // Classification of bytes for escaping is concrete-only: printing
        // is test output, not engine semantics (see vm.h).
        SymStr out = ConcreteStr("'");
        for (const SymValue& byte : value->str) {
            const uint8_t c = static_cast<uint8_t>(byte.concrete());
            if (c >= 0x20 && c < 0x7f && c != '\'' && c != '\\') {
                out.push_back(byte);
            } else if (c == '\n') {
                for (char e : {'\\', 'n'}) {
                    out.emplace_back(e, 8);
                }
            } else if (c == '\t') {
                for (char e : {'\\', 't'}) {
                    out.emplace_back(e, 8);
                }
            } else if (c == '\'' || c == '\\') {
                out.emplace_back('\\', 8);
                out.push_back(byte);
            } else {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\x%02x", c);
                for (const char* p = buffer; *p; ++p) {
                    out.emplace_back(*p, 8);
                }
            }
        }
        out.emplace_back('\'', 8);
        return out;
      }
      case PyType::kList:
      case PyType::kTuple: {
        const bool is_tuple = value->type == PyType::kTuple;
        SymStr out = ConcreteStr(is_tuple ? "(" : "[");
        for (size_t i = 0; i < value->items.size(); ++i) {
            if (i > 0) {
                for (char c : {',', ' '}) {
                    out.emplace_back(c, 8);
                }
            }
            const SymStr item = ToRepr(value->items[i]);
            out.insert(out.end(), item.begin(), item.end());
        }
        if (is_tuple && value->items.size() == 1) {
            out.emplace_back(',', 8);
        }
        out.emplace_back(is_tuple ? ')' : ']', 8);
        return out;
      }
      case PyType::kDict: {
        SymStr out = ConcreteStr("{");
        bool first = true;
        for (const auto& entry : value->dict.entries()) {
            if (!entry.alive) {
                continue;
            }
            if (!first) {
                for (char c : {',', ' '}) {
                    out.emplace_back(c, 8);
                }
            }
            first = false;
            const SymStr key = ToRepr(entry.key);
            out.insert(out.end(), key.begin(), key.end());
            for (char c : {':', ' '}) {
                out.emplace_back(c, 8);
            }
            const SymStr val = ToRepr(entry.value);
            out.insert(out.end(), val.begin(), val.end());
        }
        out.emplace_back('}', 8);
        return out;
      }
      default:
        return ToStr(value);
    }
}

// ---------------------------------------------------------------------------
// Integer results (bignum + small-int cache model).
// ---------------------------------------------------------------------------

PyRef
Vm::MakeArithInt(SymValue value)
{
    interp::NormalizeBignum(rt_, value);
    interp::SmallIntCacheLookup(rt_, value, options_.build);
    return MakeInt(value);
}

PyRef
Vm::MakeCharString(const SymValue& byte)
{
    // CPython returns a *cached* 1-character string object here; under
    // low-level symbolic execution the cache lookup makes the result's
    // identity depend on the byte value (a symbolic pointer). The vanilla
    // build models it with the interning table's hash + probe circuit;
    // the optimized build eliminates interning (§4.2, §5.1).
    if (!options_.build.avoid_symbolic_pointers && byte.IsSymbolic() &&
        rt_->running()) {
        interns_.Intern({byte});
    }
    return MakeStr({byte});
}

int64_t
Vm::ConcretizeStep(const SymValue& value)
{
    if (value.IsSymbolic()) {
        // Range steps must be concrete; pin the current value.
        return static_cast<int64_t>(rt_->Concretize(value));
    }
    return value.concrete_signed();
}

// ---------------------------------------------------------------------------
// Attribute / index / slice operations.
// ---------------------------------------------------------------------------

PyRef
Vm::LoadAttribute(const PyRef& object, const std::string& name)
{
    switch (object->type) {
      case PyType::kInstance: {
        auto it = object->attrs.find(name);
        if (it != object->attrs.end()) {
            return it->second;
        }
        // Class chain lookup; functions bind to the instance.
        const PyClass* walk = object->cls.get();
        while (walk != nullptr) {
            auto entry = walk->ns.find(name);
            if (entry != walk->ns.end()) {
                if (entry->second->type == PyType::kFunction) {
                    auto bound =
                        NewObject(PyType::kBoundMethod);
                    bound->self = object;
                    bound->callee = entry->second;
                    return bound;
                }
                return entry->second;
            }
            walk = walk->base ? walk->base->cls.get() : nullptr;
        }
        RaiseError("AttributeError",
                   "'" + object->cls->name + "' object has no attribute '" +
                       name + "'");
        return MakeNone();
      }
      case PyType::kClass: {
        const PyClass* walk = object->cls.get();
        while (walk != nullptr) {
            auto entry = walk->ns.find(name);
            if (entry != walk->ns.end()) {
                return entry->second;
            }
            walk = walk->base ? walk->base->cls.get() : nullptr;
        }
        RaiseError("AttributeError", "type object '" + object->cls->name +
                                         "' has no attribute '" + name +
                                         "'");
        return MakeNone();
      }
      case PyType::kStr:
      case PyType::kList:
      case PyType::kDict: {
        const int method = LookupBuiltinMethod(object->type, name);
        if (method == 0) {
            RaiseError("AttributeError",
                       std::string("'") + PyTypeName(object->type) +
                           "' object has no attribute '" + name + "'");
            return MakeNone();
        }
        auto bound = NewObject(PyType::kBoundMethod);
        bound->self = object;
        bound->builtin_id = method;
        return bound;
      }
      default:
        RaiseError("AttributeError",
                   std::string("'") + PyTypeName(object->type) +
                       "' object has no attribute '" + name + "'");
        return MakeNone();
    }
}

void
Vm::StoreAttribute(const PyRef& object, const std::string& name,
                   PyRef value)
{
    if (object->type == PyType::kInstance) {
        object->attrs[name] = std::move(value);
        return;
    }
    if (object->type == PyType::kClass) {
        object->cls->ns[name] = std::move(value);
        return;
    }
    RaiseError("AttributeError",
               std::string("cannot set attributes on '") +
                   PyTypeName(object->type) + "'");
}

bool
Vm::ResolveSequenceIndex(const PyRef& index, size_t length, uint64_t* out)
{
    if (index->type != PyType::kInt && index->type != PyType::kBool) {
        RaiseError("TypeError", "sequence index must be an integer");
        return false;
    }
    SymValue i = index->num;
    if (rt_->Branch(SvSlt(i, SymValue(0, 64)), CHEF_LLPC)) {
        i = SvAdd(i, SymValue(length, 64));
    }
    const SymValue in_bounds = SvBoolAnd(
        SvSge(i, SymValue(0, 64)), SvSlt(i, SymValue(length, 64)));
    if (!rt_->Branch(in_bounds, CHEF_LLPC)) {
        RaiseError("IndexError", "index out of range");
        return false;
    }
    *out = interp::ResolveIndex(rt_, i, length);
    return true;
}

PyRef
Vm::IndexLoad(const PyRef& object, const PyRef& index)
{
    switch (object->type) {
      case PyType::kList:
      case PyType::kTuple: {
        uint64_t position = 0;
        if (!ResolveSequenceIndex(index, object->items.size(),
                                  &position)) {
            return MakeNone();
        }
        return object->items[position];
      }
      case PyType::kStr: {
        uint64_t position = 0;
        if (!ResolveSequenceIndex(index, object->str.size(), &position)) {
            return MakeNone();
        }
        return MakeCharString(object->str[position]);
      }
      case PyType::kDict: {
        PyRef* slot = object->dict.Find(*this, index);
        if (raised()) {
            return MakeNone();
        }
        if (slot == nullptr) {
            RaiseError("KeyError", ConcreteView(ToRepr(index)));
            return MakeNone();
        }
        return *slot;
      }
      default:
        RaiseError("TypeError",
                   std::string("'") + PyTypeName(object->type) +
                       "' object is not subscriptable");
        return MakeNone();
    }
}

void
Vm::IndexStore(const PyRef& object, const PyRef& index, PyRef value)
{
    switch (object->type) {
      case PyType::kList: {
        uint64_t position = 0;
        if (!ResolveSequenceIndex(index, object->items.size(),
                                  &position)) {
            return;
        }
        object->items[position] = std::move(value);
        return;
      }
      case PyType::kDict:
        object->dict.Set(*this, index, std::move(value));
        return;
      default:
        RaiseError("TypeError",
                   std::string("'") + PyTypeName(object->type) +
                       "' object does not support item assignment");
    }
}

PyRef
Vm::SliceLoad(const PyRef& object, PyRef start, PyRef stop)
{
    size_t length = 0;
    if (object->type == PyType::kStr) {
        length = object->str.size();
    } else if (object->type == PyType::kList ||
               object->type == PyType::kTuple) {
        length = object->items.size();
    } else {
        RaiseError("TypeError", "object is not sliceable");
        return MakeNone();
    }

    auto resolve_bound = [this, length](const PyRef& bound,
                                        int64_t fallback) -> int64_t {
        if (bound == nullptr || bound->type == PyType::kNone) {
            return fallback;
        }
        SymValue v = bound->num;
        if (rt_->Branch(SvSlt(v, SymValue(0, 64)), CHEF_LLPC)) {
            v = SvAdd(v, SymValue(length, 64));
        }
        if (rt_->Branch(SvSlt(v, SymValue(0, 64)), CHEF_LLPC)) {
            return 0;
        }
        if (rt_->Branch(SvSgt(v, SymValue(length, 64)), CHEF_LLPC)) {
            return static_cast<int64_t>(length);
        }
        if (v.IsSymbolic()) {
            return static_cast<int64_t>(
                interp::ResolveIndex(rt_, v, length + 1));
        }
        return v.concrete_signed();
    };

    const int64_t begin = resolve_bound(start, 0);
    const int64_t end =
        resolve_bound(stop, static_cast<int64_t>(length));
    if (object->type == PyType::kStr) {
        SymStr out;
        for (int64_t i = begin; i < end; ++i) {
            out.push_back(object->str[static_cast<size_t>(i)]);
        }
        return MakeStr(std::move(out));
    }
    std::vector<PyRef> out;
    for (int64_t i = begin; i < end; ++i) {
        out.push_back(object->items[static_cast<size_t>(i)]);
    }
    return object->type == PyType::kTuple ? MakeTuple(std::move(out))
                                          : MakeList(std::move(out));
}

// ---------------------------------------------------------------------------
// Iteration.
// ---------------------------------------------------------------------------

PyRef
Vm::GetIter(const PyRef& iterable)
{
    auto iterator = NewObject(PyType::kIterator);
    switch (iterable->type) {
      case PyType::kList:
      case PyType::kTuple:
      case PyType::kStr:
        iterator->iter_target = iterable;
        return iterator;
      case PyType::kDict: {
        // Iterate a snapshot of the keys (insertion order).
        std::vector<PyRef> keys;
        for (const auto& entry : iterable->dict.entries()) {
            if (entry.alive) {
                keys.push_back(entry.key);
            }
        }
        iterator->iter_target = MakeList(std::move(keys));
        return iterator;
      }
      case PyType::kRange:
        iterator->iter_target = iterable;
        iterator->iter_value = iterable->range_start;
        return iterator;
      case PyType::kIterator:
        return iterable;
      default:
        RaiseError("TypeError",
                   std::string("'") + PyTypeName(iterable->type) +
                       "' object is not iterable");
        return MakeNone();
    }
}

PyRef
Vm::IterNext(const PyRef& iterator, bool* exhausted)
{
    *exhausted = false;
    PyRef target = iterator->iter_target;
    if (target->type == PyType::kRange) {
        const int64_t step = target->range_step;
        const SymValue more =
            step > 0 ? SvSlt(iterator->iter_value, target->range_stop)
                     : SvSgt(iterator->iter_value, target->range_stop);
        if (!rt_->Branch(more, CHEF_LLPC)) {
            *exhausted = true;
            return MakeNone();
        }
        PyRef value = MakeInt(iterator->iter_value);
        iterator->iter_value = SvAdd(
            iterator->iter_value,
            SymValue(static_cast<uint64_t>(step), 64));
        return value;
    }
    if (target->type == PyType::kStr) {
        if (iterator->iter_index >= target->str.size()) {
            *exhausted = true;
            return MakeNone();
        }
        return MakeCharString(target->str[iterator->iter_index++]);
    }
    if (iterator->iter_index >= target->items.size()) {
        *exhausted = true;
        return MakeNone();
    }
    return target->items[iterator->iter_index++];
}

// ---------------------------------------------------------------------------
// Functions, classes, calls.
// ---------------------------------------------------------------------------

PyRef
Vm::MakeFunctionObject(const CodeObject* code, std::vector<PyRef> defaults)
{
    auto object = NewObject(PyType::kFunction);
    object->func.code = code;
    object->func.defaults = std::move(defaults);
    return object;
}

PyRef
Vm::InstantiateClass(const PyRef& cls, std::vector<PyRef> args)
{
    auto instance = NewObject(PyType::kInstance);
    instance->cls = cls->cls;
    // Find __init__ along the chain.
    const PyClass* walk = cls->cls.get();
    PyRef init;
    while (walk != nullptr) {
        auto it = walk->ns.find("__init__");
        if (it != walk->ns.end()) {
            init = it->second;
            break;
        }
        walk = walk->base ? walk->base->cls.get() : nullptr;
    }
    if (init != nullptr) {
        std::vector<PyRef> call_args;
        call_args.push_back(instance);
        for (PyRef& arg : args) {
            call_args.push_back(std::move(arg));
        }
        CallCallable(init, std::move(call_args));
        if (raised()) {
            return MakeNone();
        }
        return instance;
    }
    // Default exception-style constructor: store args.
    instance->attrs["args"] = MakeTuple(std::move(args));
    return instance;
}

PyRef
Vm::CallCallable(const PyRef& callable, std::vector<PyRef> args)
{
    if (!rt_->running()) {
        return MakeNone();
    }
    switch (callable->type) {
      case PyType::kBuiltin:
        return CallBuiltinFunction(callable->builtin_id, args);
      case PyType::kBoundMethod: {
        if (callable->builtin_id != 0) {
            return CallBuiltinMethod(callable->self,
                                     callable->builtin_id, args);
        }
        std::vector<PyRef> with_self;
        with_self.push_back(callable->self);
        for (PyRef& arg : args) {
            with_self.push_back(std::move(arg));
        }
        return CallCallable(callable->callee, std::move(with_self));
      }
      case PyType::kClass:
        return InstantiateClass(callable, std::move(args));
      case PyType::kFunction: {
        const CodeObject* code = callable->func.code;
        const size_t num_params = code->params.size();
        const size_t required =
            num_params - callable->func.defaults.size();
        if (args.size() > num_params || args.size() < required) {
            RaiseError("TypeError",
                       code->name + "() takes " +
                           std::to_string(num_params) +
                           " arguments but got " +
                           std::to_string(args.size()));
            return MakeNone();
        }
        if (++call_depth_ > kMaxRecursion) {
            --call_depth_;
            RaiseError("RecursionError",
                       "maximum recursion depth exceeded");
            return MakeNone();
        }
        Frame frame;
        frame.code = code;
        frame.locals.resize(code->local_names.size());
        for (size_t i = 0; i < num_params; ++i) {
            if (i < args.size()) {
                frame.locals[i] = std::move(args[i]);
            } else {
                frame.locals[i] =
                    callable->func
                        .defaults[i - (num_params -
                                       callable->func.defaults.size())];
            }
        }
        PyRef result = RunFrame(frame);
        --call_depth_;
        return result ? result : MakeNone();
      }
      default:
        RaiseError("TypeError",
                   std::string("'") + PyTypeName(callable->type) +
                       "' object is not callable");
        return MakeNone();
    }
}

// ---------------------------------------------------------------------------
// Binary / comparison dispatch.
// ---------------------------------------------------------------------------

void
Vm::DispatchBinary(Frame& frame, BinOpKind kind)
{
    PyRef rhs = std::move(frame.stack.back());
    frame.stack.pop_back();
    PyRef lhs = std::move(frame.stack.back());
    frame.stack.pop_back();

    const bool lhs_num =
        lhs->type == PyType::kInt || lhs->type == PyType::kBool;
    const bool rhs_num =
        rhs->type == PyType::kInt || rhs->type == PyType::kBool;

    if (lhs_num && rhs_num) {
        const SymValue& a = lhs->num;
        const SymValue& b = rhs->num;
        switch (kind) {
          case BinOpKind::kAdd:
            frame.stack.push_back(MakeArithInt(SvAdd(a, b)));
            return;
          case BinOpKind::kSub:
            frame.stack.push_back(MakeArithInt(SvSub(a, b)));
            return;
          case BinOpKind::kMul:
            frame.stack.push_back(MakeArithInt(SvMul(a, b)));
            return;
          case BinOpKind::kDiv:
          case BinOpKind::kFloorDiv:
          case BinOpKind::kMod: {
            if (rt_->Branch(SvEq(b, SymValue(0, 64)), CHEF_LLPC)) {
                RaiseError("ZeroDivisionError",
                           "integer division or modulo by zero");
                frame.stack.push_back(MakeNone());
                return;
            }
            // Python floor semantics: round toward negative infinity.
            const SymValue q = SvSDiv(a, b);
            const SymValue r = SvSRem(a, b);
            const SymValue needs_adjust = SvBoolAnd(
                SvNe(r, SymValue(0, 64)),
                SvNe(SvSlt(a, SymValue(0, 64)),
                     SvSlt(b, SymValue(0, 64))));
            if (kind == BinOpKind::kMod) {
                const SymValue mod =
                    SvIte(needs_adjust, SvAdd(r, b), r);
                frame.stack.push_back(MakeArithInt(mod));
            } else {
                const SymValue div = SvIte(
                    needs_adjust, SvSub(q, SymValue(1, 64)), q);
                frame.stack.push_back(MakeArithInt(div));
            }
            return;
          }
          case BinOpKind::kAnd:
            frame.stack.push_back(MakeArithInt(SvAnd(a, b)));
            return;
          case BinOpKind::kOr:
            frame.stack.push_back(MakeArithInt(SvOr(a, b)));
            return;
          case BinOpKind::kXor:
            frame.stack.push_back(MakeArithInt(SvXor(a, b)));
            return;
          case BinOpKind::kShl:
            frame.stack.push_back(MakeArithInt(SvShl(a, b)));
            return;
          case BinOpKind::kShr:
            frame.stack.push_back(MakeArithInt(SvAShr(a, b)));
            return;
        }
    }

    if (kind == BinOpKind::kAdd) {
        if (lhs->type == PyType::kStr && rhs->type == PyType::kStr) {
            SymStr out = lhs->str;
            out.insert(out.end(), rhs->str.begin(), rhs->str.end());
            frame.stack.push_back(MakeStr(std::move(out)));
            return;
        }
        if (lhs->type == PyType::kList && rhs->type == PyType::kList) {
            std::vector<PyRef> out = lhs->items;
            out.insert(out.end(), rhs->items.begin(), rhs->items.end());
            frame.stack.push_back(MakeList(std::move(out)));
            return;
        }
        if (lhs->type == PyType::kTuple && rhs->type == PyType::kTuple) {
            std::vector<PyRef> out = lhs->items;
            out.insert(out.end(), rhs->items.begin(), rhs->items.end());
            frame.stack.push_back(MakeTuple(std::move(out)));
            return;
        }
    }
    if (kind == BinOpKind::kMul) {
        // str * int and list * int replication: a symbolic count is an
        // allocation whose size is input-dependent (paper Figure 6).
        const PyRef* seq = nullptr;
        const PyRef* count = nullptr;
        if ((lhs->type == PyType::kStr || lhs->type == PyType::kList) &&
            rhs_num) {
            seq = &lhs;
            count = &rhs;
        } else if ((rhs->type == PyType::kStr ||
                    rhs->type == PyType::kList) &&
                   lhs_num) {
            seq = &rhs;
            count = &lhs;
        }
        if (seq != nullptr) {
            const uint64_t n = interp::ResolveAllocationSize(
                rt_, (*count)->num, options_.build, 4096);
            if ((*seq)->type == PyType::kStr) {
                SymStr out;
                for (uint64_t i = 0; i < n; ++i) {
                    out.insert(out.end(), (*seq)->str.begin(),
                               (*seq)->str.end());
                }
                frame.stack.push_back(MakeStr(std::move(out)));
            } else {
                std::vector<PyRef> out;
                for (uint64_t i = 0; i < n; ++i) {
                    out.insert(out.end(), (*seq)->items.begin(),
                               (*seq)->items.end());
                }
                frame.stack.push_back(MakeList(std::move(out)));
            }
            return;
        }
    }
    if (kind == BinOpKind::kMod && lhs->type == PyType::kStr) {
        RaiseError("TypeError",
                   "%-formatting is not supported by MiniPy; use str() "
                   "and concatenation");
        frame.stack.push_back(MakeNone());
        return;
    }
    RaiseError("TypeError",
               std::string("unsupported operand types: '") +
                   PyTypeName(lhs->type) + "' and '" +
                   PyTypeName(rhs->type) + "'");
    frame.stack.push_back(MakeNone());
}

void
Vm::DispatchCompare(Frame& frame, CmpOpKind kind)
{
    PyRef rhs = std::move(frame.stack.back());
    frame.stack.pop_back();
    PyRef lhs = std::move(frame.stack.back());
    frame.stack.pop_back();

    auto push_bool = [&frame](SymValue value) {
        frame.stack.push_back(MakeBool(value));
    };

    switch (kind) {
      case CmpOpKind::kEq:
        push_bool(ValueEq(lhs, rhs));
        return;
      case CmpOpKind::kNe:
        push_bool(SvBoolNot(ValueEq(lhs, rhs)));
        return;
      case CmpOpKind::kIs:
        push_bool(SymValue(
            lhs.get() == rhs.get() ||
                    (lhs->type == PyType::kNone &&
                     rhs->type == PyType::kNone)
                ? 1
                : 0,
            1));
        return;
      case CmpOpKind::kIsNot:
        push_bool(SymValue(
            lhs.get() == rhs.get() ||
                    (lhs->type == PyType::kNone &&
                     rhs->type == PyType::kNone)
                ? 0
                : 1,
            1));
        return;
      case CmpOpKind::kIn:
      case CmpOpKind::kNotIn: {
        SymValue contains(0, 1);
        if (rhs->type == PyType::kStr) {
            if (lhs->type != PyType::kStr) {
                RaiseError("TypeError",
                           "'in <string>' requires string operand");
                frame.stack.push_back(MakeNone());
                return;
            }
            contains = SymValue(
                str_ops_.Find(rhs->str, lhs->str) >= 0 ? 1 : 0, 1);
        } else if (rhs->type == PyType::kList ||
                   rhs->type == PyType::kTuple) {
            for (const PyRef& item : rhs->items) {
                if (rt_->Branch(ValueEq(item, lhs), CHEF_LLPC)) {
                    contains = SymValue(1, 1);
                    break;
                }
                if (!rt_->running()) {
                    break;
                }
            }
        } else if (rhs->type == PyType::kDict) {
            contains = SymValue(
                rhs->dict.Find(*this, lhs) != nullptr ? 1 : 0, 1);
            if (raised()) {
                frame.stack.push_back(MakeNone());
                return;
            }
        } else {
            RaiseError("TypeError",
                       std::string("argument of type '") +
                           PyTypeName(rhs->type) + "' is not iterable");
            frame.stack.push_back(MakeNone());
            return;
        }
        if (kind == CmpOpKind::kNotIn) {
            contains = SvBoolNot(contains);
        }
        push_bool(contains);
        return;
      }
      default:
        break;
    }

    // Ordering comparisons.
    const bool lhs_num =
        lhs->type == PyType::kInt || lhs->type == PyType::kBool;
    const bool rhs_num =
        rhs->type == PyType::kInt || rhs->type == PyType::kBool;
    if (lhs_num && rhs_num) {
        switch (kind) {
          case CmpOpKind::kLt: push_bool(SvSlt(lhs->num, rhs->num)); return;
          case CmpOpKind::kLe: push_bool(SvSle(lhs->num, rhs->num)); return;
          case CmpOpKind::kGt: push_bool(SvSgt(lhs->num, rhs->num)); return;
          case CmpOpKind::kGe: push_bool(SvSge(lhs->num, rhs->num)); return;
          default: break;
        }
    }
    if (lhs->type == PyType::kStr && rhs->type == PyType::kStr) {
        const int ordering = str_ops_.Compare(lhs->str, rhs->str);
        bool result = false;
        switch (kind) {
          case CmpOpKind::kLt: result = ordering < 0; break;
          case CmpOpKind::kLe: result = ordering <= 0; break;
          case CmpOpKind::kGt: result = ordering > 0; break;
          case CmpOpKind::kGe: result = ordering >= 0; break;
          default: break;
        }
        push_bool(SymValue(result ? 1 : 0, 1));
        return;
    }
    RaiseError("TypeError",
               std::string("'<' not supported between instances of '") +
                   PyTypeName(lhs->type) + "' and '" +
                   PyTypeName(rhs->type) + "'");
    frame.stack.push_back(MakeNone());
}

// ---------------------------------------------------------------------------
// The dispatch loop.
// ---------------------------------------------------------------------------

PyRef
Vm::RunFrame(Frame& frame)
{
    std::unordered_map<std::string, PyRef> class_namespace;
    if (frame.ns == nullptr && !frame.code->is_function) {
        frame.ns = &class_namespace;
    }

    const std::vector<Instr>& instrs = frame.code->instrs;
    while (frame.ip < instrs.size()) {
        if (!rt_->running()) {
            return nullptr;
        }
        const Instr& instr = instrs[frame.ip];
        // The paper's log_pc instrumentation: one call at the head of the
        // dispatch loop (§4.1, §5.1).
        rt_->LogPc(MakeHlpc(frame.code->id, frame.ip),
                   static_cast<uint32_t>(instr.op));
        if (options_.coverage && instr.line > 0) {
            covered_lines_.insert(instr.line);
        }
        ++frame.ip;

        switch (instr.op) {
          case Op::kNop:
            break;
          case Op::kLoadConst: {
            const Const& constant = frame.code->consts[instr.arg];
            switch (constant.kind) {
              case Const::Kind::kNone:
                frame.stack.push_back(MakeNone());
                break;
              case Const::Kind::kBool:
                frame.stack.push_back(
                    MakeBool(SymValue(constant.int_value, 1)));
                break;
              case Const::Kind::kInt:
                frame.stack.push_back(MakeInt64(constant.int_value));
                break;
              case Const::Kind::kStr: {
                PyRef value = MakeStrC(constant.str_value);
                // CPython interns short identifier-like strings; the
                // optimized build removes interning.
                if (!options_.build.avoid_symbolic_pointers &&
                    value->str.size() <= 8) {
                    interns_.Intern(value->str);
                }
                frame.stack.push_back(std::move(value));
                break;
              }
              case Const::Kind::kCode:
                frame.stack.push_back(MakeInt64(constant.code_id));
                break;
            }
            break;
          }
          case Op::kLoadLocal: {
            PyRef value = frame.locals[instr.arg];
            if (value == nullptr) {
                RaiseError("NameError",
                           "local variable '" +
                               frame.code->local_names[instr.arg] +
                               "' referenced before assignment");
                break;
            }
            frame.stack.push_back(std::move(value));
            break;
          }
          case Op::kStoreLocal:
            frame.locals[instr.arg] = std::move(frame.stack.back());
            frame.stack.pop_back();
            break;
          case Op::kLoadName: {
            const std::string& name = frame.code->names[instr.arg];
            auto local = frame.ns->find(name);
            if (local != frame.ns->end()) {
                frame.stack.push_back(local->second);
                break;
            }
            auto global = globals_.find(name);
            if (global != globals_.end()) {
                frame.stack.push_back(global->second);
                break;
            }
            PyRef builtin = LookupBuiltin(name);
            if (builtin != nullptr) {
                frame.stack.push_back(std::move(builtin));
                break;
            }
            RaiseError("NameError",
                       "name '" + name + "' is not defined");
            break;
          }
          case Op::kStoreName:
            (*frame.ns)[frame.code->names[instr.arg]] =
                std::move(frame.stack.back());
            frame.stack.pop_back();
            break;
          case Op::kLoadGlobal: {
            const std::string& name = frame.code->names[instr.arg];
            auto global = globals_.find(name);
            if (global != globals_.end()) {
                frame.stack.push_back(global->second);
                break;
            }
            PyRef builtin = LookupBuiltin(name);
            if (builtin != nullptr) {
                frame.stack.push_back(std::move(builtin));
                break;
            }
            RaiseError("NameError",
                       "name '" + name + "' is not defined");
            break;
          }
          case Op::kStoreGlobal:
            globals_[frame.code->names[instr.arg]] =
                std::move(frame.stack.back());
            frame.stack.pop_back();
            break;
          case Op::kBinaryOp:
            DispatchBinary(frame, static_cast<BinOpKind>(instr.arg));
            break;
          case Op::kUnaryOp: {
            PyRef value = std::move(frame.stack.back());
            frame.stack.pop_back();
            switch (static_cast<UnOpKind>(instr.arg)) {
              case UnOpKind::kNeg:
                if (value->type != PyType::kInt &&
                    value->type != PyType::kBool) {
                    RaiseError("TypeError", "bad operand for unary -");
                    break;
                }
                frame.stack.push_back(MakeArithInt(SvNeg(value->num)));
                break;
              case UnOpKind::kInvert:
                if (value->type != PyType::kInt &&
                    value->type != PyType::kBool) {
                    RaiseError("TypeError", "bad operand for unary ~");
                    break;
                }
                frame.stack.push_back(MakeArithInt(SvNot(value->num)));
                break;
              case UnOpKind::kNot:
                frame.stack.push_back(MakeBool(SvBoolNot(Truthy(value))));
                break;
            }
            break;
          }
          case Op::kCompareOp:
            DispatchCompare(frame, static_cast<CmpOpKind>(instr.arg));
            break;
          case Op::kJump:
            frame.ip = static_cast<size_t>(instr.arg);
            break;
          case Op::kPopJumpIfFalse: {
            PyRef value = std::move(frame.stack.back());
            frame.stack.pop_back();
            if (!DecideTruthy(value, CHEF_LLPC)) {
                frame.ip = static_cast<size_t>(instr.arg);
            }
            break;
          }
          case Op::kPopJumpIfTrue: {
            PyRef value = std::move(frame.stack.back());
            frame.stack.pop_back();
            if (DecideTruthy(value, CHEF_LLPC)) {
                frame.ip = static_cast<size_t>(instr.arg);
            }
            break;
          }
          case Op::kJumpIfFalseOrPop: {
            if (!DecideTruthy(frame.stack.back(), CHEF_LLPC)) {
                frame.ip = static_cast<size_t>(instr.arg);
            } else {
                frame.stack.pop_back();
            }
            break;
          }
          case Op::kJumpIfTrueOrPop: {
            if (DecideTruthy(frame.stack.back(), CHEF_LLPC)) {
                frame.ip = static_cast<size_t>(instr.arg);
            } else {
                frame.stack.pop_back();
            }
            break;
          }
          case Op::kPop:
            frame.stack.pop_back();
            break;
          case Op::kDup:
            frame.stack.push_back(frame.stack.back());
            break;
          case Op::kRot2:
            std::swap(frame.stack[frame.stack.size() - 1],
                      frame.stack[frame.stack.size() - 2]);
            break;
          case Op::kBuildList:
          case Op::kBuildTuple: {
            std::vector<PyRef> items(
                frame.stack.end() - instr.arg, frame.stack.end());
            frame.stack.resize(frame.stack.size() - instr.arg);
            frame.stack.push_back(instr.op == Op::kBuildList
                                      ? MakeList(std::move(items))
                                      : MakeTuple(std::move(items)));
            break;
          }
          case Op::kBuildDict: {
            PyRef dict = MakeDict();
            const size_t base = frame.stack.size() -
                                2 * static_cast<size_t>(instr.arg);
            for (int i = 0; i < instr.arg; ++i) {
                dict->dict.Set(*this, frame.stack[base + 2 * i],
                               frame.stack[base + 2 * i + 1]);
                if (raised()) {
                    break;
                }
            }
            frame.stack.resize(base);
            frame.stack.push_back(std::move(dict));
            break;
          }
          case Op::kIndexLoad: {
            PyRef index = std::move(frame.stack.back());
            frame.stack.pop_back();
            PyRef object = std::move(frame.stack.back());
            frame.stack.pop_back();
            frame.stack.push_back(IndexLoad(object, index));
            break;
          }
          case Op::kIndexStore: {
            PyRef index = std::move(frame.stack.back());
            frame.stack.pop_back();
            PyRef object = std::move(frame.stack.back());
            frame.stack.pop_back();
            PyRef value = std::move(frame.stack.back());
            frame.stack.pop_back();
            IndexStore(object, index, std::move(value));
            break;
          }
          case Op::kSliceLoad: {
            PyRef stop;
            PyRef start;
            if (instr.arg & 2) {
                stop = std::move(frame.stack.back());
                frame.stack.pop_back();
            }
            if (instr.arg & 1) {
                start = std::move(frame.stack.back());
                frame.stack.pop_back();
            }
            PyRef object = std::move(frame.stack.back());
            frame.stack.pop_back();
            frame.stack.push_back(SliceLoad(object, start, stop));
            break;
          }
          case Op::kLoadAttr: {
            PyRef object = std::move(frame.stack.back());
            frame.stack.pop_back();
            frame.stack.push_back(
                LoadAttribute(object, frame.code->names[instr.arg]));
            break;
          }
          case Op::kStoreAttr: {
            PyRef object = std::move(frame.stack.back());
            frame.stack.pop_back();
            PyRef value = std::move(frame.stack.back());
            frame.stack.pop_back();
            StoreAttribute(object, frame.code->names[instr.arg],
                           std::move(value));
            break;
          }
          case Op::kCall: {
            const int argc = instr.arg & 0xffff;
            const int kwc = (instr.arg >> 16) & 0xffff;
            // Keyword pairs are on top: name const, value, repeated.
            std::vector<std::pair<std::string, PyRef>> kwargs;
            for (int i = 0; i < kwc; ++i) {
                PyRef value = std::move(frame.stack.back());
                frame.stack.pop_back();
                PyRef name = std::move(frame.stack.back());
                frame.stack.pop_back();
                kwargs.emplace_back(ConcreteView(name->str),
                                    std::move(value));
            }
            std::vector<PyRef> args(frame.stack.end() - argc,
                                    frame.stack.end());
            frame.stack.resize(frame.stack.size() - argc);
            PyRef callable = std::move(frame.stack.back());
            frame.stack.pop_back();

            if (!kwargs.empty()) {
                // Resolve the target user function so keywords can be
                // mapped onto parameter slots.
                PyRef target = callable;
                size_t param_offset = 0;
                if (target->type == PyType::kBoundMethod &&
                    target->builtin_id == 0) {
                    target = target->callee;
                    param_offset = 1;  // self
                }
                PyRef function = target;
                if (target->type == PyType::kClass) {
                    const PyClass* walk = target->cls.get();
                    function = nullptr;
                    while (walk != nullptr) {
                        auto it = walk->ns.find("__init__");
                        if (it != walk->ns.end() &&
                            it->second->type == PyType::kFunction) {
                            function = it->second;
                            param_offset = 1;  // self
                            break;
                        }
                        walk = walk->base ? walk->base->cls.get()
                                          : nullptr;
                    }
                }
                if (function == nullptr ||
                    function->type != PyType::kFunction) {
                    RaiseError("TypeError",
                               "keyword arguments are only supported "
                               "for user-defined callables");
                    frame.stack.push_back(MakeNone());
                    break;
                }
                const CodeObject* code = function->func.code;
                const size_t nparams =
                    code->params.size() - param_offset;
                std::vector<PyRef> slots(nparams);
                bool kw_error = false;
                if (args.size() > nparams) {
                    RaiseError("TypeError", "too many positional "
                                            "arguments");
                    kw_error = true;
                }
                for (size_t i = 0; !kw_error && i < args.size(); ++i) {
                    slots[i] = std::move(args[i]);
                }
                for (auto& [name, value] : kwargs) {
                    if (kw_error) {
                        break;
                    }
                    size_t position = SIZE_MAX;
                    for (size_t p = param_offset;
                         p < code->params.size(); ++p) {
                        if (code->params[p] == name) {
                            position = p - param_offset;
                            break;
                        }
                    }
                    if (position == SIZE_MAX) {
                        RaiseError("TypeError",
                                   "unexpected keyword argument '" +
                                       name + "'");
                        kw_error = true;
                    } else if (slots[position] != nullptr) {
                        RaiseError("TypeError",
                                   "got multiple values for argument "
                                   "'" + name + "'");
                        kw_error = true;
                    } else {
                        slots[position] = std::move(value);
                    }
                }
                if (!kw_error) {
                    const size_t defaults_start =
                        nparams - function->func.defaults.size();
                    for (size_t i = 0; i < nparams; ++i) {
                        if (slots[i] != nullptr) {
                            continue;
                        }
                        if (i >= defaults_start) {
                            slots[i] = function->func
                                           .defaults[i - defaults_start];
                        } else {
                            RaiseError("TypeError",
                                       "missing required argument '" +
                                           code->params[param_offset +
                                                        i] + "'");
                            kw_error = true;
                            break;
                        }
                    }
                }
                if (kw_error) {
                    frame.stack.push_back(MakeNone());
                    break;
                }
                frame.stack.push_back(
                    CallCallable(callable, std::move(slots)));
                break;
            }
            frame.stack.push_back(CallCallable(callable, std::move(args)));
            break;
          }
          case Op::kReturn: {
            PyRef value = std::move(frame.stack.back());
            frame.stack.pop_back();
            return value;
          }
          case Op::kGetIter: {
            PyRef iterable = std::move(frame.stack.back());
            frame.stack.pop_back();
            frame.stack.push_back(GetIter(iterable));
            break;
          }
          case Op::kForIter: {
            bool exhausted = false;
            PyRef value = IterNext(frame.stack.back(), &exhausted);
            if (raised()) {
                break;
            }
            if (exhausted) {
                frame.stack.pop_back();  // Drop the iterator.
                frame.ip = static_cast<size_t>(instr.arg);
            } else {
                frame.stack.push_back(std::move(value));
            }
            break;
          }
          case Op::kUnpack: {
            PyRef sequence = std::move(frame.stack.back());
            frame.stack.pop_back();
            if (sequence->type != PyType::kList &&
                sequence->type != PyType::kTuple) {
                RaiseError("TypeError", "cannot unpack non-sequence");
                break;
            }
            if (sequence->items.size() !=
                static_cast<size_t>(instr.arg)) {
                RaiseError("ValueError",
                           "unpack expected " +
                               std::to_string(instr.arg) +
                               " values, got " +
                               std::to_string(sequence->items.size()));
                break;
            }
            // Push in reverse so targets store left-to-right.
            for (size_t i = sequence->items.size(); i > 0; --i) {
                frame.stack.push_back(sequence->items[i - 1]);
            }
            break;
          }
          case Op::kMakeFunction: {
            const int code_const = instr.arg & 0xffff;
            const int defaults_count = (instr.arg >> 16) & 0xffff;
            const Const& constant = frame.code->consts[code_const];
            std::vector<PyRef> defaults(
                frame.stack.end() - defaults_count, frame.stack.end());
            frame.stack.resize(frame.stack.size() - defaults_count);
            frame.stack.push_back(MakeFunctionObject(
                program_->code[constant.code_id].get(),
                std::move(defaults)));
            break;
          }
          case Op::kMakeClass: {
            // Stack: base-or-None, code-const-int.
            PyRef code_ref = std::move(frame.stack.back());
            frame.stack.pop_back();
            PyRef base = std::move(frame.stack.back());
            frame.stack.pop_back();
            // The code constant pushes the code-object id itself.
            const CodeObject* body =
                program_->code[static_cast<size_t>(
                                   code_ref->num.concrete())]
                    .get();
            if (base->type == PyType::kNone) {
                base = nullptr;
            } else if (base->type != PyType::kClass) {
                RaiseError("TypeError", "base must be a class");
                break;
            }
            PyRef cls = MakeClassObject(
                frame.code->names[instr.arg], base);
            // Execute the class body with the class namespace.
            Frame class_frame;
            class_frame.code = body;
            class_frame.ns = &cls->cls->ns;
            RunFrame(class_frame);
            if (raised()) {
                break;
            }
            frame.stack.push_back(std::move(cls));
            break;
          }
          case Op::kSetupExcept:
            frame.blocks.push_back(
                {instr.arg, frame.stack.size()});
            break;
          case Op::kPopBlock:
            frame.blocks.pop_back();
            break;
          case Op::kRaise: {
            PyRef value = std::move(frame.stack.back());
            frame.stack.pop_back();
            if (instr.arg == 0) {
                // Internal re-raise: value is the exception instance.
                current_exception_ = value;
            } else {
                RaiseObject(value);
            }
            break;
          }
          case Op::kExcMatch: {
            PyRef cls = std::move(frame.stack.back());
            frame.stack.pop_back();
            const bool matches =
                IsInstanceOf(frame.stack.back(), cls);
            frame.stack.push_back(
                MakeBool(SymValue(matches ? 1 : 0, 1)));
            break;
          }
          default:
            CHEF_UNREACHABLE("unhandled opcode");
        }

        // Exception unwinding.
        if (raised()) {
            if (frame.blocks.empty()) {
                return nullptr;  // Propagate to the caller.
            }
            const Frame::Block block = frame.blocks.back();
            frame.blocks.pop_back();
            frame.stack.resize(block.stack_size);
            frame.stack.push_back(current_exception_);
            ClearException();
            frame.ip = static_cast<size_t>(block.handler);
        }
    }
    return MakeNone();
}

// ---------------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------------

VmOutcome
Vm::RunModule()
{
    Frame frame;
    frame.code = program_->code[0].get();
    frame.ns = &globals_;
    ClearException();
    RunFrame(frame);
    VmOutcome outcome;
    if (!rt_->running()) {
        outcome.ok = false;
        outcome.aborted = true;
        return outcome;
    }
    if (raised()) {
        outcome.ok = false;
        outcome.exception_type = ExceptionTypeName(current_exception_);
        outcome.exception_message = ExceptionMessage(current_exception_);
        ClearException();
        return outcome;
    }
    module_ran_ = true;
    return outcome;
}

VmOutcome
Vm::CallGlobal(const std::string& name, std::vector<PyRef> args,
               PyRef* result)
{
    VmOutcome outcome;
    auto it = globals_.find(name);
    if (it == globals_.end()) {
        outcome.ok = false;
        outcome.exception_type = "NameError";
        outcome.exception_message = "name '" + name + "' is not defined";
        return outcome;
    }
    PyRef value = CallCallable(it->second, std::move(args));
    if (!rt_->running()) {
        outcome.ok = false;
        outcome.aborted = true;
        return outcome;
    }
    if (raised()) {
        outcome.ok = false;
        outcome.exception_type = ExceptionTypeName(current_exception_);
        outcome.exception_message = ExceptionMessage(current_exception_);
        ClearException();
        return outcome;
    }
    if (result != nullptr) {
        *result = std::move(value);
    }
    return outcome;
}

// ---------------------------------------------------------------------------
// Builtin lookup.
// ---------------------------------------------------------------------------

PyRef
Vm::LookupBuiltin(const std::string& name)
{
    auto it = builtins_.find(name);
    if (it != builtins_.end()) {
        return it->second;
    }
    auto keep = [this, &name](PyRef object) {
        return builtins_.emplace(name, std::move(object)).first->second;
    };
    for (const BuiltinFnEntry& fn : kBuiltinFns) {
        if (name == fn.name) {
            auto object = NewObject(PyType::kBuiltin);
            object->builtin_id = fn.id;
            return keep(std::move(object));
        }
    }
    for (const BuiltinClassEntry& cls : kBuiltinClasses) {
        if (name == cls.name) {
            PyRef base =
                cls.base == nullptr ? nullptr : LookupBuiltin(cls.base);
            return keep(MakeClassObject(name, std::move(base)));
        }
    }
    return nullptr;
}

}  // namespace chef::minipy
