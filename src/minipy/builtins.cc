/// \file
/// MiniPy builtin functions and methods. String and container routines run
/// through the instrumented substrate so their interpreter-internal control
/// flow forks exactly like CPython's C code would under low-level symbolic
/// execution.

#include "minipy/builtin_ids.h"
#include "minipy/vm.h"
#include "support/diagnostics.h"

namespace chef::minipy {

using namespace chef::lowlevel;  // NOLINT
using interp::ConcreteStr;
using interp::ConcreteView;

int
Vm::LookupBuiltinMethod(PyType type, const std::string& name) const
{
    switch (type) {
      case PyType::kStr:
        if (name == "find") return kStrFind;
        if (name == "split") return kStrSplit;
        if (name == "strip") return kStrStrip;
        if (name == "lstrip") return kStrLstrip;
        if (name == "rstrip") return kStrRstrip;
        if (name == "startswith") return kStrStartswith;
        if (name == "endswith") return kStrEndswith;
        if (name == "lower") return kStrLower;
        if (name == "upper") return kStrUpper;
        if (name == "join") return kStrJoin;
        if (name == "replace") return kStrReplace;
        if (name == "count") return kStrCount;
        if (name == "isdigit") return kStrIsdigit;
        if (name == "isalpha") return kStrIsalpha;
        if (name == "isspace") return kStrIsspace;
        if (name == "index") return kStrIndex;
        return 0;
      case PyType::kList:
        if (name == "append") return kListAppend;
        if (name == "pop") return kListPop;
        if (name == "extend") return kListExtend;
        if (name == "insert") return kListInsert;
        if (name == "index") return kListIndex;
        if (name == "remove") return kListRemove;
        if (name == "reverse") return kListReverse;
        if (name == "count") return kListCount;
        return 0;
      case PyType::kDict:
        if (name == "get") return kDictGet;
        if (name == "keys") return kDictKeys;
        if (name == "values") return kDictValues;
        if (name == "items") return kDictItems;
        if (name == "setdefault") return kDictSetdefault;
        if (name == "pop") return kDictPop;
        if (name == "update") return kDictUpdate;
        return 0;
      default:
        return 0;
    }
}

namespace {

bool
IsNum(const PyRef& value)
{
    return value->type == PyType::kInt || value->type == PyType::kBool;
}

}  // namespace

PyRef
Vm::CallBuiltinFunction(int builtin_id, std::vector<PyRef>& args)
{
    auto arity_error = [this](const char* name) {
        RaiseError("TypeError",
                   std::string(name) + "() received a bad argument count");
        return MakeNone();
    };

    switch (builtin_id) {
      case kFnLen: {
        if (args.size() != 1) return arity_error("len");
        const PyRef& value = args[0];
        switch (value->type) {
          case PyType::kStr:
            return MakeInt64(static_cast<int64_t>(value->str.size()));
          case PyType::kList:
          case PyType::kTuple:
            return MakeInt64(static_cast<int64_t>(value->items.size()));
          case PyType::kDict:
            return MakeInt64(static_cast<int64_t>(value->dict.size()));
          default:
            RaiseError("TypeError",
                       std::string("object of type '") +
                           PyTypeName(value->type) + "' has no len()");
            return MakeNone();
        }
      }
      case kFnOrd: {
        if (args.size() != 1 || args[0]->type != PyType::kStr ||
            args[0]->str.size() != 1) {
            RaiseError("TypeError",
                       "ord() expects a string of length 1");
            return MakeNone();
        }
        return MakeInt(SvZExt(args[0]->str[0], 64));
      }
      case kFnChr: {
        if (args.size() != 1 || !IsNum(args[0])) {
            return arity_error("chr");
        }
        const SymValue in_range =
            SvBoolAnd(SvSge(args[0]->num, SymValue(0, 64)),
                      SvSlt(args[0]->num, SymValue(256, 64)));
        if (!rt_->Branch(in_range, CHEF_LLPC)) {
            RaiseError("ValueError", "chr() arg not in range(256)");
            return MakeNone();
        }
        return MakeStr({SvTrunc(args[0]->num, 8)});
      }
      case kFnStr: {
        if (args.empty()) {
            return MakeStrC("");
        }
        return MakeStr(ToStr(args[0]));
      }
      case kFnRepr: {
        if (args.size() != 1) return arity_error("repr");
        return MakeStr(ToRepr(args[0]));
      }
      case kFnInt: {
        if (args.empty() || args.size() > 2) return arity_error("int");
        if (args.size() == 2) {
            RaiseError("TypeError",
                       "int() with an explicit base is not supported");
            return MakeNone();
        }
        const PyRef& value = args[0];
        if (IsNum(value)) {
            return MakeInt(value->num);
        }
        if (value->type == PyType::kStr) {
            // Leading/trailing ASCII whitespace is accepted, as in
            // CPython.
            int start = 0;
            int end = static_cast<int>(value->str.size());
            while (start < end &&
                   rt_->Branch(str_ops_.IsSpace(value->str[start]),
                               CHEF_LLPC)) {
                ++start;
            }
            while (end > start &&
                   rt_->Branch(str_ops_.IsSpace(value->str[end - 1]),
                               CHEF_LLPC)) {
                --end;
            }
            SymValue parsed;
            if (!interp::ParseInt(str_ops_, value->str, start, end,
                                  &parsed)) {
                if (rt_->running()) {
                    RaiseError("ValueError",
                               "invalid literal for int(): '" +
                                   ConcreteView(value->str) + "'");
                }
                return MakeNone();
            }
            return MakeArithInt(parsed);
        }
        RaiseError("TypeError", "int() argument must be a string or a "
                                "number");
        return MakeNone();
      }
      case kFnBool: {
        if (args.empty()) {
            return MakeBool(SymValue(0, 1));
        }
        return MakeBool(Truthy(args[0]));
      }
      case kFnRange: {
        if (args.empty() || args.size() > 3) return arity_error("range");
        for (const PyRef& arg : args) {
            if (!IsNum(arg)) {
                RaiseError("TypeError", "range() expects integers");
                return MakeNone();
            }
        }
        auto range = NewObject(PyType::kRange);
        if (args.size() == 1) {
            range->range_start = SymValue(0, 64);
            range->range_stop = args[0]->num;
        } else {
            range->range_start = args[0]->num;
            range->range_stop = args[1]->num;
        }
        range->range_step =
            args.size() == 3 ? ConcretizeStep(args[2]->num) : 1;
        if (range->range_step == 0) {
            RaiseError("ValueError", "range() arg 3 must not be zero");
            return MakeNone();
        }
        return range;
      }
      case kFnPrint: {
        SymStr line;
        for (size_t i = 0; i < args.size(); ++i) {
            if (i > 0) {
                line.emplace_back(' ', 8);
            }
            const SymStr text = ToStr(args[i]);
            line.insert(line.end(), text.begin(), text.end());
        }
        output_ += ConcreteView(line);
        output_ += '\n';
        return MakeNone();
      }
      case kFnIsinstance: {
        if (args.size() != 2) return arity_error("isinstance");
        return MakeBool(
            SymValue(IsInstanceOf(args[0], args[1]) ? 1 : 0, 1));
      }
      case kFnMin:
      case kFnMax: {
        std::vector<PyRef> values;
        if (args.size() == 1 && (args[0]->type == PyType::kList ||
                                 args[0]->type == PyType::kTuple)) {
            values = args[0]->items;
        } else {
            values = args;
        }
        if (values.empty()) {
            RaiseError("ValueError", "min()/max() of empty sequence");
            return MakeNone();
        }
        PyRef best = values[0];
        for (size_t i = 1; i < values.size(); ++i) {
            if (!IsNum(values[i]) || !IsNum(best)) {
                RaiseError("TypeError",
                           "min()/max() supports integers only");
                return MakeNone();
            }
            const SymValue better =
                builtin_id == kFnMin ? SvSlt(values[i]->num, best->num)
                                     : SvSgt(values[i]->num, best->num);
            if (rt_->Branch(better, CHEF_LLPC)) {
                best = values[i];
            }
        }
        return best;
      }
      case kFnAbs: {
        if (args.size() != 1 || !IsNum(args[0])) {
            return arity_error("abs");
        }
        const SymValue negative =
            SvSlt(args[0]->num, SymValue(0, 64));
        return MakeArithInt(
            SvIte(negative, SvNeg(args[0]->num), args[0]->num));
      }
      case kFnList: {
        if (args.empty()) {
            return MakeList({});
        }
        if (args.size() != 1) return arity_error("list");
        PyRef iterator = GetIter(args[0]);
        if (raised()) {
            return MakeNone();
        }
        std::vector<PyRef> items;
        for (;;) {
            bool exhausted = false;
            PyRef item = IterNext(iterator, &exhausted);
            if (raised() || exhausted || !rt_->running()) {
                break;
            }
            items.push_back(std::move(item));
        }
        return MakeList(std::move(items));
      }
      case kFnTuple: {
        if (args.empty()) {
            return MakeTuple({});
        }
        if (args.size() != 1) return arity_error("tuple");
        if (args[0]->type == PyType::kList ||
            args[0]->type == PyType::kTuple) {
            return MakeTuple(args[0]->items);
        }
        RaiseError("TypeError", "tuple() expects a sequence");
        return MakeNone();
      }
      case kFnDict: {
        if (!args.empty()) {
            RaiseError("TypeError", "dict() takes no arguments");
            return MakeNone();
        }
        return MakeDict();
      }
      default:
        CHEF_UNREACHABLE("unknown builtin function id");
    }
}

PyRef
Vm::CallBuiltinMethod(const PyRef& self, int method_id,
                      std::vector<PyRef>& args)
{
    auto arg_str = [this](const std::vector<PyRef>& a, size_t i) -> const
        SymStr* {
        if (i >= a.size() || a[i]->type != PyType::kStr) {
            RaiseError("TypeError", "expected a string argument");
            return nullptr;
        }
        return &a[i]->str;
    };

    switch (method_id) {
      // ---- str -------------------------------------------------------------
      case kStrFind:
      case kStrIndex: {
        const SymStr* needle = arg_str(args, 0);
        if (needle == nullptr) return MakeNone();
        int start = 0;
        if (args.size() > 1) {
            if (!IsNum(args[1])) {
                RaiseError("TypeError", "find() start must be an int");
                return MakeNone();
            }
            start = static_cast<int>(interp::ResolveIndex(
                rt_, args[1]->num, self->str.size() + 1));
        }
        const int position = str_ops_.Find(self->str, *needle, start);
        if (method_id == kStrIndex && position < 0) {
            RaiseError("ValueError", "substring not found");
            return MakeNone();
        }
        return MakeInt64(position);
      }
      case kStrStartswith:
      case kStrEndswith: {
        const SymStr* prefix = arg_str(args, 0);
        if (prefix == nullptr) return MakeNone();
        if (method_id == kStrStartswith) {
            return MakeBool(str_ops_.StartsWith(self->str, *prefix, 0));
        }
        if (prefix->size() > self->str.size()) {
            return MakeBool(SymValue(0, 1));
        }
        return MakeBool(str_ops_.StartsWith(
            self->str, *prefix,
            static_cast<int>(self->str.size() - prefix->size())));
      }
      case kStrSplit: {
        std::vector<PyRef> parts;
        if (args.empty()) {
            // Whitespace split: skips runs of whitespace.
            SymStr current;
            for (const SymValue& byte : self->str) {
                if (rt_->Branch(str_ops_.IsSpace(byte), CHEF_LLPC)) {
                    if (!current.empty()) {
                        parts.push_back(MakeStr(std::move(current)));
                        current = SymStr();
                    }
                } else {
                    current.push_back(byte);
                }
                if (!rt_->running()) {
                    return MakeNone();
                }
            }
            if (!current.empty()) {
                parts.push_back(MakeStr(std::move(current)));
            }
            return MakeList(std::move(parts));
        }
        const SymStr* sep = arg_str(args, 0);
        if (sep == nullptr) return MakeNone();
        if (sep->empty()) {
            RaiseError("ValueError", "empty separator");
            return MakeNone();
        }
        int64_t max_split = -1;
        if (args.size() > 1 && IsNum(args[1])) {
            max_split = static_cast<int64_t>(
                rt_->Concretize(args[1]->num));
        }
        SymStr current;
        size_t i = 0;
        int64_t splits = 0;
        while (i < self->str.size()) {
            if ((max_split < 0 || splits < max_split) &&
                i + sep->size() <= self->str.size() &&
                rt_->Branch(str_ops_.StartsWith(
                                self->str, *sep, static_cast<int>(i)),
                            CHEF_LLPC)) {
                parts.push_back(MakeStr(std::move(current)));
                current = SymStr();
                i += sep->size();
                ++splits;
            } else {
                current.push_back(self->str[i]);
                ++i;
            }
            if (!rt_->running()) {
                return MakeNone();
            }
        }
        parts.push_back(MakeStr(std::move(current)));
        return MakeList(std::move(parts));
      }
      case kStrStrip:
      case kStrLstrip:
      case kStrRstrip: {
        size_t begin = 0;
        size_t end = self->str.size();
        if (method_id != kStrRstrip) {
            while (begin < end &&
                   rt_->Branch(str_ops_.IsSpace(self->str[begin]),
                               CHEF_LLPC)) {
                ++begin;
            }
        }
        if (method_id != kStrLstrip) {
            while (end > begin &&
                   rt_->Branch(str_ops_.IsSpace(self->str[end - 1]),
                               CHEF_LLPC)) {
                --end;
            }
        }
        return MakeStr(SymStr(self->str.begin() + begin,
                              self->str.begin() + end));
      }
      case kStrLower:
      case kStrUpper: {
        SymStr out;
        out.reserve(self->str.size());
        for (const SymValue& byte : self->str) {
            rt_->CountStep();
            out.push_back(method_id == kStrLower
                              ? str_ops_.ToLower(byte)
                              : str_ops_.ToUpper(byte));
        }
        return MakeStr(std::move(out));
      }
      case kStrJoin: {
        if (args.size() != 1 || (args[0]->type != PyType::kList &&
                                 args[0]->type != PyType::kTuple)) {
            RaiseError("TypeError", "join() expects a sequence");
            return MakeNone();
        }
        SymStr out;
        for (size_t i = 0; i < args[0]->items.size(); ++i) {
            const PyRef& item = args[0]->items[i];
            if (item->type != PyType::kStr) {
                RaiseError("TypeError",
                           "join() sequence items must be strings");
                return MakeNone();
            }
            if (i > 0) {
                out.insert(out.end(), self->str.begin(),
                           self->str.end());
            }
            out.insert(out.end(), item->str.begin(), item->str.end());
        }
        return MakeStr(std::move(out));
      }
      case kStrReplace: {
        const SymStr* old_text = arg_str(args, 0);
        if (old_text == nullptr) return MakeNone();
        const SymStr* new_text = arg_str(args, 1);
        if (new_text == nullptr) return MakeNone();
        if (old_text->empty()) {
            RaiseError("ValueError", "replace() of empty substring");
            return MakeNone();
        }
        SymStr out;
        size_t i = 0;
        while (i < self->str.size()) {
            if (i + old_text->size() <= self->str.size() &&
                rt_->Branch(str_ops_.StartsWith(self->str, *old_text,
                                                static_cast<int>(i)),
                            CHEF_LLPC)) {
                out.insert(out.end(), new_text->begin(),
                           new_text->end());
                i += old_text->size();
            } else {
                out.push_back(self->str[i]);
                ++i;
            }
            if (!rt_->running()) {
                return MakeNone();
            }
        }
        return MakeStr(std::move(out));
      }
      case kStrCount: {
        const SymStr* needle = arg_str(args, 0);
        if (needle == nullptr) return MakeNone();
        if (needle->empty()) {
            return MakeInt64(
                static_cast<int64_t>(self->str.size()) + 1);
        }
        int64_t count = 0;
        size_t i = 0;
        while (i + needle->size() <= self->str.size()) {
            if (rt_->Branch(str_ops_.StartsWith(self->str, *needle,
                                                static_cast<int>(i)),
                            CHEF_LLPC)) {
                ++count;
                i += needle->size();
            } else {
                ++i;
            }
            if (!rt_->running()) {
                return MakeNone();
            }
        }
        return MakeInt64(count);
      }
      case kStrIsdigit:
      case kStrIsalpha:
      case kStrIsspace: {
        if (self->str.empty()) {
            return MakeBool(SymValue(0, 1));
        }
        SymValue all(1, 1);
        for (const SymValue& byte : self->str) {
            rt_->CountStep();
            SymValue one;
            if (method_id == kStrIsdigit) {
                one = str_ops_.IsDigit(byte);
            } else if (method_id == kStrIsalpha) {
                one = str_ops_.IsAlpha(byte);
            } else {
                one = str_ops_.IsSpace(byte);
            }
            all = SvBoolAnd(all, one);
        }
        return MakeBool(all);
      }

      // ---- list ------------------------------------------------------------
      case kListAppend: {
        if (args.size() != 1) {
            RaiseError("TypeError", "append() takes one argument");
            return MakeNone();
        }
        self->items.push_back(args[0]);
        return MakeNone();
      }
      case kListPop: {
        if (self->items.empty()) {
            RaiseError("IndexError", "pop from empty list");
            return MakeNone();
        }
        uint64_t position = self->items.size() - 1;
        if (!args.empty()) {
            if (!ResolveSequenceIndex(args[0], self->items.size(),
                                      &position)) {
                return MakeNone();
            }
        }
        PyRef value = self->items[position];
        self->items.erase(self->items.begin() +
                          static_cast<long>(position));
        return value;
      }
      case kListExtend: {
        if (args.size() != 1 || (args[0]->type != PyType::kList &&
                                 args[0]->type != PyType::kTuple)) {
            RaiseError("TypeError", "extend() expects a sequence");
            return MakeNone();
        }
        // Self-extension copies first (x.extend(x)).
        const std::vector<PyRef> source = args[0]->items;
        self->items.insert(self->items.end(), source.begin(),
                           source.end());
        return MakeNone();
      }
      case kListInsert: {
        if (args.size() != 2 || !IsNum(args[0])) {
            RaiseError("TypeError", "insert() expects (index, value)");
            return MakeNone();
        }
        int64_t position = static_cast<int64_t>(interp::ResolveIndex(
            rt_, args[0]->num, self->items.size() + 1));
        if (position < 0) {
            position = 0;
        }
        if (position > static_cast<int64_t>(self->items.size())) {
            position = static_cast<int64_t>(self->items.size());
        }
        self->items.insert(self->items.begin() + position, args[1]);
        return MakeNone();
      }
      case kListIndex: {
        for (size_t i = 0; i < self->items.size(); ++i) {
            if (rt_->Branch(ValueEq(self->items[i], args[0]),
                            CHEF_LLPC)) {
                return MakeInt64(static_cast<int64_t>(i));
            }
            if (!rt_->running()) {
                return MakeNone();
            }
        }
        RaiseError("ValueError", "value not in list");
        return MakeNone();
      }
      case kListRemove: {
        for (size_t i = 0; i < self->items.size(); ++i) {
            if (rt_->Branch(ValueEq(self->items[i], args[0]),
                            CHEF_LLPC)) {
                self->items.erase(self->items.begin() +
                                  static_cast<long>(i));
                return MakeNone();
            }
            if (!rt_->running()) {
                return MakeNone();
            }
        }
        RaiseError("ValueError", "list.remove(x): x not in list");
        return MakeNone();
      }
      case kListReverse: {
        std::reverse(self->items.begin(), self->items.end());
        return MakeNone();
      }
      case kListCount: {
        int64_t count = 0;
        for (const PyRef& item : self->items) {
            if (rt_->Branch(ValueEq(item, args[0]), CHEF_LLPC)) {
                ++count;
            }
            if (!rt_->running()) {
                return MakeNone();
            }
        }
        return MakeInt64(count);
      }

      // ---- dict ------------------------------------------------------------
      case kDictGet: {
        if (args.empty() || args.size() > 2) {
            RaiseError("TypeError", "get() expects 1 or 2 arguments");
            return MakeNone();
        }
        PyRef* slot = self->dict.Find(*this, args[0]);
        if (raised()) {
            return MakeNone();
        }
        if (slot != nullptr) {
            return *slot;
        }
        return args.size() == 2 ? args[1] : MakeNone();
      }
      case kDictKeys:
      case kDictValues:
      case kDictItems: {
        std::vector<PyRef> out;
        for (const auto& entry : self->dict.entries()) {
            if (!entry.alive) {
                continue;
            }
            if (method_id == kDictKeys) {
                out.push_back(entry.key);
            } else if (method_id == kDictValues) {
                out.push_back(entry.value);
            } else {
                out.push_back(MakeTuple({entry.key, entry.value}));
            }
        }
        return MakeList(std::move(out));
      }
      case kDictSetdefault: {
        if (args.empty() || args.size() > 2) {
            RaiseError("TypeError",
                       "setdefault() expects 1 or 2 arguments");
            return MakeNone();
        }
        PyRef* slot = self->dict.Find(*this, args[0]);
        if (raised()) {
            return MakeNone();
        }
        if (slot != nullptr) {
            return *slot;
        }
        PyRef value = args.size() == 2 ? args[1] : MakeNone();
        self->dict.Set(*this, args[0], value);
        return value;
      }
      case kDictPop: {
        if (args.empty() || args.size() > 2) {
            RaiseError("TypeError", "pop() expects 1 or 2 arguments");
            return MakeNone();
        }
        PyRef* slot = self->dict.Find(*this, args[0]);
        if (raised()) {
            return MakeNone();
        }
        if (slot == nullptr) {
            if (args.size() == 2) {
                return args[1];
            }
            RaiseError("KeyError", ConcreteView(ToRepr(args[0])));
            return MakeNone();
        }
        PyRef value = *slot;
        self->dict.Erase(*this, args[0]);
        return value;
      }
      case kDictUpdate: {
        if (args.size() != 1 || args[0]->type != PyType::kDict) {
            RaiseError("TypeError", "update() expects a dict");
            return MakeNone();
        }
        for (const auto& entry : args[0]->dict.entries()) {
            if (entry.alive) {
                self->dict.Set(*this, entry.key, entry.value);
                if (raised()) {
                    return MakeNone();
                }
            }
        }
        return MakeNone();
      }
      default:
        CHEF_UNREACHABLE("unknown builtin method id");
    }
}

}  // namespace chef::minipy
