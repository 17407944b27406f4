#include "minipy/object.h"

#include "interp/mem_ops.h"
#include "minipy/vm.h"
#include "support/diagnostics.h"

namespace chef::minipy {

using namespace chef::lowlevel;  // NOLINT

const char*
PyTypeName(PyType type)
{
    switch (type) {
      case PyType::kNone: return "NoneType";
      case PyType::kBool: return "bool";
      case PyType::kInt: return "int";
      case PyType::kStr: return "str";
      case PyType::kList: return "list";
      case PyType::kTuple: return "tuple";
      case PyType::kDict: return "dict";
      case PyType::kFunction: return "function";
      case PyType::kBuiltin: return "builtin_function_or_method";
      case PyType::kBoundMethod: return "method";
      case PyType::kClass: return "type";
      case PyType::kInstance: return "object";
      case PyType::kRange: return "range";
      case PyType::kIterator: return "iterator";
    }
    return "?";
}

PyRef
MakeNone()
{
    static const PyRef none = NewObject(PyType::kNone);
    return none;
}

PyRef
MakeBool(SymValue value)
{
    auto object = NewObject(PyType::kBool);
    object->num = SvZExt(value, 64);
    return object;
}

PyRef
MakeInt(SymValue value)
{
    auto object = NewObject(PyType::kInt);
    object->num = value.width() == 64 ? value : SvSExt(value, 64);
    return object;
}

PyRef
MakeInt64(int64_t value)
{
    return MakeInt(SymValue(static_cast<uint64_t>(value), 64));
}

PyRef
MakeStr(SymStr value)
{
    auto object = NewObject(PyType::kStr);
    object->str = std::move(value);
    return object;
}

PyRef
MakeStrC(const std::string& value)
{
    return MakeStr(interp::ConcreteStr(value));
}

PyRef
MakeList(std::vector<PyRef> items)
{
    auto object = NewObject(PyType::kList);
    object->items = std::move(items);
    return object;
}

PyRef
MakeTuple(std::vector<PyRef> items)
{
    auto object = NewObject(PyType::kTuple);
    object->items = std::move(items);
    return object;
}

PyRef
MakeDict()
{
    return NewObject(PyType::kDict);
}

uint64_t
PyDict::BucketFor(Vm& vm, const PyRef& key, uint64_t num_buckets)
{
    const SymValue hash = vm.HashKey(key);
    return interp::ResolveBucket(vm.rt(), hash, num_buckets);
}

PyRef*
PyDict::Find(Vm& vm, const PyRef& key)
{
    if (vm.raised()) {
        return nullptr;
    }
    const uint64_t bucket = BucketFor(vm, key, num_buckets());
    if (vm.raised() || buckets_.empty()) {
        return nullptr;
    }
    for (uint32_t index : buckets_[bucket]) {
        Entry& entry = entries_[index];
        if (!entry.alive) {
            continue;
        }
        if (vm.rt()->Branch(vm.ValueEq(entry.key, key), CHEF_LLPC)) {
            return &entry.value;
        }
        if (!vm.rt()->running()) {
            return nullptr;
        }
    }
    return nullptr;
}

void
PyDict::Set(Vm& vm, const PyRef& key, PyRef value)
{
    if (PyRef* slot = Find(vm, key)) {
        *slot = std::move(value);
        return;
    }
    if (vm.raised() || !vm.rt()->running()) {
        return;
    }
    MaybeGrow(vm);
    const uint64_t bucket = BucketFor(vm, key, buckets_.size());
    if (vm.raised()) {
        return;
    }
    buckets_[bucket].push_back(static_cast<uint32_t>(entries_.size()));
    entries_.push_back({key, std::move(value), true});
    ++live_count_;
}

bool
PyDict::Erase(Vm& vm, const PyRef& key)
{
    if (vm.raised()) {
        return false;
    }
    const uint64_t bucket = BucketFor(vm, key, num_buckets());
    if (vm.raised() || buckets_.empty()) {
        return false;
    }
    auto& chain = buckets_[bucket];
    for (size_t i = 0; i < chain.size(); ++i) {
        Entry& entry = entries_[chain[i]];
        if (!entry.alive) {
            continue;
        }
        if (vm.rt()->Branch(vm.ValueEq(entry.key, key), CHEF_LLPC)) {
            entry.alive = false;
            chain.erase(chain.begin() + static_cast<long>(i));
            --live_count_;
            return true;
        }
        if (!vm.rt()->running()) {
            return false;
        }
    }
    return false;
}

void
PyDict::MaybeGrow(Vm& vm)
{
    if (buckets_.empty()) {
        buckets_.resize(kInitialBuckets);  // The first insertion.
        return;
    }
    if (live_count_ + 1 <= buckets_.size() * 2 / 3) {
        return;
    }
    // Rehash into twice as many buckets; recomputes every key hash with
    // full instrumentation, like a real table resize would.
    const uint64_t new_size = buckets_.size() * 2;
    std::vector<std::vector<uint32_t>> fresh(new_size);
    for (uint32_t index = 0; index < entries_.size(); ++index) {
        if (!entries_[index].alive) {
            continue;
        }
        const uint64_t bucket =
            BucketFor(vm, entries_[index].key, new_size);
        if (vm.raised() || !vm.rt()->running()) {
            return;
        }
        fresh[bucket].push_back(index);
    }
    buckets_ = std::move(fresh);
}

}  // namespace chef::minipy
