#include <algorithm>
#include <cctype>
#include <initializer_list>
#include <unordered_map>

#include "minilua/lua_ast.h"

namespace chef::minilua {

const char*
LuaAstKindName(LuaAstKind kind)
{
    switch (kind) {
      case LuaAstKind::kNil: return "nil";
      case LuaAstKind::kTrue: return "true";
      case LuaAstKind::kFalse: return "false";
      case LuaAstKind::kNumber: return "number";
      case LuaAstKind::kString: return "string";
      case LuaAstKind::kVararg: return "vararg";
      case LuaAstKind::kName: return "name";
      case LuaAstKind::kIndex: return "index";
      case LuaAstKind::kCall: return "call";
      case LuaAstKind::kMethodCall: return "methodcall";
      case LuaAstKind::kFunction: return "function";
      case LuaAstKind::kBinOp: return "binop";
      case LuaAstKind::kUnOp: return "unop";
      case LuaAstKind::kTable: return "table";
      case LuaAstKind::kBlock: return "block";
      case LuaAstKind::kLocal: return "local";
      case LuaAstKind::kAssign: return "assign";
      case LuaAstKind::kExprStat: return "exprstat";
      case LuaAstKind::kIf: return "if";
      case LuaAstKind::kWhile: return "while";
      case LuaAstKind::kRepeat: return "repeat";
      case LuaAstKind::kForNum: return "fornum";
      case LuaAstKind::kForIn: return "forin";
      case LuaAstKind::kFunctionStat: return "functionstat";
      case LuaAstKind::kLocalFunction: return "localfunction";
      case LuaAstKind::kReturn: return "return";
      case LuaAstKind::kBreak: return "break";
    }
    return "?";
}

namespace {

enum class T : uint8_t {
    kEof, kName, kNumber, kString,
    kPlus, kMinus, kStar, kSlash, kPercent,
    kEq, kNe, kLt, kLe, kGt, kGe, kAssign,
    kLParen, kRParen, kLBrace, kRBrace, kLBracket, kRBracket,
    kSemi, kColon, kComma, kDot, kConcat, kEllipsis, kHash,
    // Keywords.
    kAnd, kBreak, kDo, kElse, kElseif, kEnd, kFalse, kFor, kFunction,
    kIf, kIn, kLocal, kNil, kNot, kOr, kRepeat, kReturn, kThen, kTrue,
    kUntil, kWhile,
};

struct LuaToken {
    T kind = T::kEof;
    std::string text;
    int64_t number = 0;
    int line = 1;
    uint32_t id = 0;  ///< kName: the identifier's dense id.
};

/// The keyword \p word spells, or T::kName.
T
KeywordKind(const std::string& word)
{
    switch (word[0]) {
      case 'a': return word == "and" ? T::kAnd : T::kName;
      case 'b': return word == "break" ? T::kBreak : T::kName;
      case 'd': return word == "do" ? T::kDo : T::kName;
      case 'e':
        if (word == "else") return T::kElse;
        if (word == "elseif") return T::kElseif;
        return word == "end" ? T::kEnd : T::kName;
      case 'f':
        if (word == "false") return T::kFalse;
        if (word == "for") return T::kFor;
        return word == "function" ? T::kFunction : T::kName;
      case 'i':
        if (word == "if") return T::kIf;
        return word == "in" ? T::kIn : T::kName;
      case 'l': return word == "local" ? T::kLocal : T::kName;
      case 'n':
        if (word == "nil") return T::kNil;
        return word == "not" ? T::kNot : T::kName;
      case 'o': return word == "or" ? T::kOr : T::kName;
      case 'r':
        if (word == "repeat") return T::kRepeat;
        return word == "return" ? T::kReturn : T::kName;
      case 't':
        if (word == "then") return T::kThen;
        return word == "true" ? T::kTrue : T::kName;
      case 'u': return word == "until" ? T::kUntil : T::kName;
      case 'w': return word == "while" ? T::kWhile : T::kName;
      default: return T::kName;
    }
}

/// Dense ids of the identifiers of one source, in order of appearance.
using IdentifierIds = std::unordered_map<std::string, uint32_t>;

class LuaLexer
{
  public:
    LuaLexer(const std::string& source, IdentifierIds* ids)
        : src_(source), ids_(ids)
    {
    }

    bool Run(std::vector<LuaToken>* tokens, std::string* error,
             int* error_line)
    {
        while (pos_ < src_.size()) {
            const char c = src_[pos_];
            if (c == '\n') {
                ++line_;
                ++pos_;
                continue;
            }
            if (std::isspace(static_cast<unsigned char>(c))) {
                ++pos_;
                continue;
            }
            if (c == '-' && pos_ + 1 < src_.size() &&
                src_[pos_ + 1] == '-') {
                pos_ += 2;
                // Long comment --[[ ... ]] or line comment.
                if (pos_ + 1 < src_.size() && src_[pos_] == '[' &&
                    src_[pos_ + 1] == '[') {
                    pos_ += 2;
                    while (pos_ + 1 < src_.size() &&
                           !(src_[pos_] == ']' && src_[pos_ + 1] == ']')) {
                        if (src_[pos_] == '\n') {
                            ++line_;
                        }
                        ++pos_;
                    }
                    pos_ += 2;
                } else {
                    while (pos_ < src_.size() && src_[pos_] != '\n') {
                        ++pos_;
                    }
                }
                continue;
            }
            if (c == '\'' || c == '"') {
                if (!LexString(c, tokens, error)) {
                    *error_line = line_;
                    return false;
                }
                continue;
            }
            if (std::isdigit(static_cast<unsigned char>(c))) {
                LexNumber(tokens, error);
                if (!error->empty()) {
                    *error_line = line_;
                    return false;
                }
                continue;
            }
            if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
                const size_t start = pos_;
                while (pos_ < src_.size() &&
                       (std::isalnum(static_cast<unsigned char>(
                            src_[pos_])) ||
                        src_[pos_] == '_')) {
                    ++pos_;
                }
                LuaToken token;
                token.line = line_;
                token.text.assign(src_, start, pos_ - start);
                token.kind = KeywordKind(token.text);
                if (token.kind == T::kName) {
                    // The parser resolves names by these ids, so no
                    // identifier is hashed twice.
                    token.id = ids_->try_emplace(token.text, ids_->size())
                                   .first->second;
                } else {
                    token.text.clear();
                }
                tokens->push_back(std::move(token));
                continue;
            }
            if (!LexOperator(tokens, error)) {
                *error_line = line_;
                return false;
            }
        }
        tokens->push_back({T::kEof, "", 0, line_});
        return true;
    }

  private:
    bool LexString(char quote, std::vector<LuaToken>* tokens,
                   std::string* error)
    {
        ++pos_;
        std::string decoded;
        while (pos_ < src_.size() && src_[pos_] != quote) {
            char c = src_[pos_++];
            if (c == '\n') {
                *error = "unterminated string";
                return false;
            }
            if (c != '\\') {
                decoded.push_back(c);
                continue;
            }
            if (pos_ >= src_.size()) {
                *error = "unterminated escape";
                return false;
            }
            const char escape = src_[pos_++];
            switch (escape) {
              case 'n': decoded.push_back('\n'); break;
              case 't': decoded.push_back('\t'); break;
              case 'r': decoded.push_back('\r'); break;
              case '\\': decoded.push_back('\\'); break;
              case '\'': decoded.push_back('\''); break;
              case '"': decoded.push_back('"'); break;
              case '0': decoded.push_back('\0'); break;
              default: decoded.push_back(escape);
            }
        }
        if (pos_ >= src_.size()) {
            *error = "unterminated string";
            return false;
        }
        ++pos_;  // Closing quote.
        tokens->push_back({T::kString, std::move(decoded), 0, line_});
        return true;
    }

    void LexNumber(std::vector<LuaToken>* tokens, std::string* error)
    {
        int64_t value = 0;
        if (src_[pos_] == '0' && pos_ + 1 < src_.size() &&
            (src_[pos_ + 1] == 'x' || src_[pos_ + 1] == 'X')) {
            pos_ += 2;
            while (pos_ < src_.size() &&
                   std::isxdigit(
                       static_cast<unsigned char>(src_[pos_]))) {
                const char c = src_[pos_++];
                int digit = (c >= '0' && c <= '9')
                                ? c - '0'
                                : std::tolower(c) - 'a' + 10;
                value = value * 16 + digit;
            }
        } else {
            while (pos_ < src_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(src_[pos_]))) {
                value = value * 10 + (src_[pos_++] - '0');
            }
            if (pos_ < src_.size() && src_[pos_] == '.') {
                *error = "MiniLua is an integer-number build (the paper "
                         "configures Lua for integers, §5.2); "
                         "floating-point literals are not supported";
                return;
            }
        }
        tokens->push_back({T::kNumber, "", value, line_});
    }

    bool LexOperator(std::vector<LuaToken>* tokens, std::string* error)
    {
        const char c = src_[pos_++];
        auto push = [this, tokens](T kind) {
            tokens->push_back({kind, "", 0, line_});
        };
        auto two = [this, push](char next, T yes, T no) {
            if (pos_ < src_.size() && src_[pos_] == next) {
                ++pos_;
                push(yes);
            } else {
                push(no);
            }
        };
        switch (c) {
          case '+': push(T::kPlus); return true;
          case '-': push(T::kMinus); return true;
          case '*': push(T::kStar); return true;
          case '/': push(T::kSlash); return true;
          case '%': push(T::kPercent); return true;
          case '#': push(T::kHash); return true;
          case '(': push(T::kLParen); return true;
          case ')': push(T::kRParen); return true;
          case '{': push(T::kLBrace); return true;
          case '}': push(T::kRBrace); return true;
          case '[': push(T::kLBracket); return true;
          case ']': push(T::kRBracket); return true;
          case ';': push(T::kSemi); return true;
          case ':': push(T::kColon); return true;
          case ',': push(T::kComma); return true;
          case '=': two('=', T::kEq, T::kAssign); return true;
          case '<': two('=', T::kLe, T::kLt); return true;
          case '>': two('=', T::kGe, T::kGt); return true;
          case '~':
            if (pos_ < src_.size() && src_[pos_] == '=') {
                ++pos_;
                push(T::kNe);
                return true;
            }
            *error = "unexpected '~'";
            return false;
          case '.':
            if (pos_ + 1 < src_.size() && src_[pos_] == '.' &&
                src_[pos_ + 1] == '.') {
                pos_ += 2;
                push(T::kEllipsis);
                return true;
            }
            if (pos_ < src_.size() && src_[pos_] == '.') {
                ++pos_;
                push(T::kConcat);
                return true;
            }
            push(T::kDot);
            return true;
          default:
            *error = std::string("unexpected character '") + c + "'";
            return false;
        }
    }

    const std::string& src_;
    IdentifierIds* ids_;
    size_t pos_ = 0;
    int line_ = 1;
};

class LuaParser
{
  public:
    LuaParser(std::vector<LuaToken> tokens, IdentifierIds ids)
        : toks_(std::move(tokens)), ids_(std::move(ids))
    {
        names_.resize(ids_.size());
        for (const auto& [name, id] : ids_) {
            names_[id].name = &name;
        }
    }

    LuaParseResult Run()
    {
        auto chunk = std::make_shared<LuaChunk>();
        chunk_ = chunk.get();
        OpenScope(/*new_function=*/true);
        chunk->body = Block({T::kEof});
        CloseScope(chunk->body.get());
        LuaParseResult result;
        result.ok = ok_;
        result.error = error_;
        result.error_line = error_line_;
        if (ok_) {
            FixHops();
            // Assign node ids and collect coverable lines.
            std::vector<int>& lines = chunk->coverable_lines;
            uint32_t next_id = 1;
            AssignIds(chunk->body.get(), &next_id, &lines);
            chunk->num_nodes = next_id;
            std::sort(lines.begin(), lines.end());
            lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
            result.chunk = std::move(chunk);
        }
        return result;
    }

  private:
    // -- Name resolution ---------------------------------------------------
    //
    // One scope stack, resolved as the parser goes. A name binds to the
    // innermost declaration seen so far; a frame exists at run time only
    // for a scope that declares names, which is known when the scope
    // closes, so local hops are counted once parsing ends (FixHops).
    //
    // The interpreter's lookup is dynamic: a function's frame chain is the
    // one it captured, so it sees a local of an enclosing scope declared
    // after the function once that declaration has run. A name in a
    // function that passes enclosing scopes outside the function without
    // finding a declaration is therefore kept as a miss; if one of those
    // scopes declares the name later, the name gets a LuaNameRef "later"
    // candidate, checked against the frame's declared count at run time.
    // Within one activation statements run in text order, so a scope of
    // the name's own function can never show it a later declaration.
    //
    // Scopes are numbered in opening order, so a scope's ancestors all
    // have smaller numbers.

    static constexpr uint32_t kNone = UINT32_MAX;

    /// A visible declaration of identifier \p id; \p outer is the one it
    /// shadows (an index into bindings_, or kNone).
    struct Binding {
        uint32_t id;
        int scope;
        uint32_t slot;
        uint32_t outer;
    };
    /// A kName node that passed scopes outside its function: it appears in
    /// scope \p scope and resolved to a declaration in \p target (-1 for
    /// a global). \p previous is the identifier's previous miss.
    struct Miss {
        LuaAst* node;
        int scope;
        int target;
        uint32_t previous;
    };
    /// Per identifier id: its spelling, its innermost visible declaration
    /// and latest miss (indices, or kNone) and its global id once it has
    /// one.
    struct NameInfo {
        const std::string* name = nullptr;
        uint32_t binding = kNone;
        uint32_t last_miss = kNone;
        uint32_t global = LuaNameRef::kLocal;
    };
    struct Scope {
        int parent = -1;
        int function = 0;  ///< The function whose body holds the scope.
        uint32_t num_slots = 0;
        /// Where this scope's declarations start in bindings_.
        size_t bindings_begin = 0;
    };
    /// A resolved local whose hops FixHops counts.
    struct HopFixup {
        LuaSlotRef* ref;
        int from;
        int to;
    };

    void OpenScope(bool new_function)
    {
        Scope scope;
        scope.parent = current_;
        scope.function =
            new_function ? next_function_++ : scopes_[current_].function;
        scope.bindings_begin = bindings_.size();
        scopes_.push_back(scope);
        current_ = static_cast<int>(scopes_.size()) - 1;
    }

    /// Closes the current scope, whose frame size goes to \p block.
    void CloseScope(LuaAst* block)
    {
        const Scope& scope = scopes_[current_];
        while (bindings_.size() > scope.bindings_begin) {
            names_[bindings_.back().id].binding = bindings_.back().outer;
            bindings_.pop_back();
        }
        block->num_slots = scope.num_slots;
        current_ = scope.parent;
    }

    /// Declares the identifier \p id in the current scope; returns its
    /// slot. A re-declaration in the same scope reuses the slot.
    uint32_t Declare(uint32_t id)
    {
        Scope& scope = scopes_[current_];
        NameInfo& info = names_[id];
        if (info.binding != kNone &&
            bindings_[info.binding].scope == current_) {
            return bindings_[info.binding].slot;
        }
        const uint32_t slot = scope.num_slots++;
        bindings_.push_back({id, current_, slot, info.binding});
        info.binding = static_cast<uint32_t>(bindings_.size() - 1);
        if (current_ == 0) {
            chunk_->chunk_slot_globals.push_back(GlobalId(&info));
        }
        for (uint32_t m = info.last_miss; m != kNone;
             m = misses_[m].previous) {
            const Miss& miss = misses_[m];
            if (miss.target < current_ &&
                scopes_[miss.scope].function != scope.function &&
                IsAncestor(current_, miss.scope)) {
                AddLater(miss, slot);
            }
        }
        return slot;
    }

    /// True if scope \p ancestor encloses scope \p scope.
    bool IsAncestor(int ancestor, int scope) const
    {
        while (scope > ancestor) {
            scope = scopes_[scope].parent;
        }
        return scope == ancestor;
    }

    /// The identifier id of \p name, which need not appear in the source.
    uint32_t IdOf(const std::string& name)
    {
        auto [it, inserted] = ids_.try_emplace(name, ids_.size());
        if (inserted) {
            names_.emplace_back();
            names_.back().name = &it->first;
        }
        return it->second;
    }

    /// The global id of the identifier \p info.
    uint32_t GlobalId(NameInfo* info)
    {
        if (info->global == LuaNameRef::kLocal) {
            info->global = static_cast<uint32_t>(chunk_->global_ids.size());
            chunk_->global_ids.emplace(*info->name, info->global);
        }
        return info->global;
    }

    /// The kName node for the current token, which it consumes, resolved
    /// in the current scope.
    LuaAstPtr NameNode()
    {
        auto node = Node(LuaAstKind::kName);
        const LuaToken& token = Advance();
        node->name = token.text;
        NameInfo& info = names_[token.id];
        const int target =
            info.binding == kNone ? -1 : bindings_[info.binding].scope;
        if (target >= 0) {
            node->ref.local.slot = bindings_[info.binding].slot;
            fixups_.push_back({&node->ref.local, current_, target});
        } else {
            node->ref.global = GlobalId(&info);
        }
        const int function = scopes_[current_].function;
        if (target < 0 ? function != 0
                       : scopes_[target].function != function) {
            misses_.push_back({node.get(), current_, target, info.last_miss});
            info.last_miss = static_cast<uint32_t>(misses_.size() - 1);
        }
        return node;
    }

    /// Frames between \p from (inclusive) and its enclosing scope \p to
    /// (exclusive); every scope in between is closed.
    uint32_t CountHops(int from, int to) const
    {
        uint32_t hops = 0;
        for (int s = from; s != to; s = scopes_[s].parent) {
            hops += scopes_[s].num_slots > 0 ? 1 : 0;
        }
        return hops;
    }

    /// The current scope just declared, in \p slot, a name that \p miss
    /// passed: look there first once it is declared.
    void AddLater(const Miss& miss, uint32_t slot)
    {
        const LuaSlotRef later{CountHops(miss.scope, current_), slot};
        std::vector<LuaSlotRef>& candidates = later_[miss.node];
        candidates.insert(
            std::upper_bound(candidates.begin(), candidates.end(), later,
                             [](const LuaSlotRef& a, const LuaSlotRef& b) {
                                 return a.hops < b.hops;
                             }),
            later);
    }

    /// Counts the hops of resolved locals and lays out the later
    /// candidates, once every scope is closed.
    void FixHops()
    {
        for (const HopFixup& fixup : fixups_) {
            fixup.ref->hops = CountHops(fixup.from, fixup.to);
        }
        for (auto& [node, candidates] : later_) {
            std::vector<LuaSlotRef>& refs = chunk_->later_refs;
            node->ref.later_begin = static_cast<uint32_t>(refs.size());
            refs.insert(refs.end(), candidates.begin(), candidates.end());
            node->ref.later_end = static_cast<uint32_t>(refs.size());
        }
    }

    LuaAstPtr ScopedBlock(std::initializer_list<T> terminators)
    {
        OpenScope(/*new_function=*/false);
        LuaAstPtr block = Block(terminators);
        CloseScope(block.get());
        return block;
    }

    void AssignIds(LuaAst* node, uint32_t* next_id, std::vector<int>* lines)
    {
        node->node_id = (*next_id)++;
        if (node->line > 0 && node->kind != LuaAstKind::kBlock &&
            (lines->empty() || lines->back() != node->line)) {
            lines->push_back(node->line);
        }
        for (auto& kid : node->kids) {
            if (kid) {
                AssignIds(kid.get(), next_id, lines);
            }
        }
        for (auto& kid : node->extra) {
            if (kid) {
                AssignIds(kid.get(), next_id, lines);
            }
        }
    }

    const LuaToken& Cur() const { return toks_[pos_]; }
    bool At(T kind) const { return Cur().kind == kind; }

    const LuaToken& Advance()
    {
        const LuaToken& token = toks_[pos_];
        if (pos_ + 1 < toks_.size()) {
            ++pos_;
        }
        return token;
    }

    bool Accept(T kind)
    {
        if (At(kind)) {
            Advance();
            return true;
        }
        return false;
    }

    void Expect(T kind, const char* what)
    {
        if (!Accept(kind)) {
            Error(std::string("expected ") + what);
        }
    }

    void Error(const std::string& message)
    {
        if (ok_) {
            ok_ = false;
            error_ = message;
            error_line_ = Cur().line;
        }
        pos_ = toks_.size() - 1;
    }

    LuaAstPtr Node(LuaAstKind kind)
    {
        return std::make_unique<LuaAst>(kind, Cur().line);
    }

    /// The LuaChunk::literals index of \p text; equal texts share one.
    uint32_t Literal(const std::string& text)
    {
        std::vector<std::shared_ptr<const interp::SymStr>>& literals =
            chunk_->literals;
        auto [it, inserted] = literal_ids_.try_emplace(
            text, static_cast<uint32_t>(literals.size()));
        if (inserted) {
            literals.push_back(std::make_shared<const interp::SymStr>(
                interp::ConcreteStr(text)));
        }
        return it->second;
    }

    /// A kString node for the current token, which it consumes.
    LuaAstPtr StringNode()
    {
        auto node = Node(LuaAstKind::kString);
        node->literal = Literal(Advance().text);
        return node;
    }

    bool BlockEnds(std::initializer_list<T> terminators) const
    {
        for (T t : terminators) {
            if (Cur().kind == t) {
                return true;
            }
        }
        return false;
    }

    LuaAstPtr Block(std::initializer_list<T> terminators)
    {
        auto block = Node(LuaAstKind::kBlock);
        while (ok_ && !BlockEnds(terminators)) {
            if (Accept(T::kSemi)) {
                continue;
            }
            block->kids.push_back(Statement());
            // return/break must be the last statement of a block.
            if (!block->kids.empty() &&
                (block->kids.back()->kind == LuaAstKind::kReturn ||
                 block->kids.back()->kind == LuaAstKind::kBreak)) {
                Accept(T::kSemi);
                break;
            }
        }
        return block;
    }

    LuaAstPtr Statement();
    LuaAstPtr IfStatement();
    LuaAstPtr ForStatement();
    /// Parses parameters and body; a method declares "self" first.
    LuaAstPtr FunctionBody(bool is_method = false);

    std::vector<LuaAstPtr> ExprList();
    LuaAstPtr Expr() { return OrExpr(); }
    LuaAstPtr OrExpr();
    LuaAstPtr AndExpr();
    LuaAstPtr CmpExpr();
    LuaAstPtr ConcatExpr();
    LuaAstPtr AddExpr();
    LuaAstPtr MulExpr();
    LuaAstPtr UnaryExpr();
    LuaAstPtr PostfixExpr();
    LuaAstPtr PrimaryExpr();
    LuaAstPtr TableConstructor();

    std::vector<LuaToken> toks_;
    size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
    int error_line_ = 0;

    LuaChunk* chunk_ = nullptr;
    std::vector<Scope> scopes_;
    int current_ = -1;
    int next_function_ = 0;
    IdentifierIds ids_;
    std::vector<NameInfo> names_;  ///< By identifier id.
    /// The declarations of the open scopes, innermost scope's last.
    std::vector<Binding> bindings_;
    std::vector<Miss> misses_;
    std::vector<HopFixup> fixups_;
    std::unordered_map<LuaAst*, std::vector<LuaSlotRef>> later_;
    std::unordered_map<std::string, uint32_t> literal_ids_;
};

LuaAstPtr
LuaParser::Statement()
{
    switch (Cur().kind) {
      case T::kIf:
        return IfStatement();
      case T::kWhile: {
        auto node = Node(LuaAstKind::kWhile);
        Advance();
        node->kids.push_back(Expr());
        Expect(T::kDo, "'do'");
        node->kids.push_back(ScopedBlock({T::kEnd}));
        Expect(T::kEnd, "'end'");
        return node;
      }
      case T::kRepeat: {
        auto node = Node(LuaAstKind::kRepeat);
        Advance();
        // The until-condition sees the loop body's scope.
        OpenScope(/*new_function=*/false);
        node->kids.push_back(Block({T::kUntil}));
        Expect(T::kUntil, "'until'");
        node->kids.push_back(Expr());
        CloseScope(node->kids[0].get());
        return node;
      }
      case T::kFor:
        return ForStatement();
      case T::kDo: {
        Advance();
        auto block = ScopedBlock({T::kEnd});
        Expect(T::kEnd, "'end'");
        return block;
      }
      case T::kReturn: {
        auto node = Node(LuaAstKind::kReturn);
        Advance();
        if (!BlockEnds({T::kEnd, T::kElse, T::kElseif, T::kUntil,
                        T::kEof, T::kSemi})) {
            node->kids = ExprList();
        }
        return node;
      }
      case T::kBreak: {
        auto node = Node(LuaAstKind::kBreak);
        Advance();
        return node;
      }
      case T::kLocal: {
        Advance();
        if (Accept(T::kFunction)) {
            auto node = Node(LuaAstKind::kLocalFunction);
            if (!At(T::kName)) {
                Error("expected function name");
                return node;
            }
            const LuaToken& name = Advance();
            node->name = name.text;
            // Bound before the body, so the function can recurse.
            node->slots.push_back(Declare(name.id));
            node->declared = scopes_[current_].num_slots;
            node->kids.push_back(FunctionBody());
            return node;
        }
        auto node = Node(LuaAstKind::kLocal);
        // The names are every other token from here: name {',' name}.
        const size_t first_name = pos_;
        size_t num_names = 0;
        do {
            if (!At(T::kName)) {
                Error("expected local name");
                return node;
            }
            Advance();
            ++num_names;
        } while (Accept(T::kComma));
        if (Accept(T::kAssign)) {
            node->kids = ExprList();
        }
        // The values are evaluated before the names are bound.
        for (size_t i = 0; i < num_names; ++i) {
            node->slots.push_back(Declare(toks_[first_name + 2 * i].id));
        }
        node->declared = scopes_[current_].num_slots;
        return node;
      }
      case T::kFunction: {
        auto node = Node(LuaAstKind::kFunctionStat);
        Advance();
        // funcname: Name {'.' Name} [':' Name]
        if (!At(T::kName)) {
            Error("expected function name");
            return node;
        }
        LuaAstPtr target = NameNode();
        bool is_method = false;
        while (At(T::kDot) || At(T::kColon)) {
            is_method = At(T::kColon);
            Advance();
            if (!At(T::kName)) {
                Error("expected name");
                return node;
            }
            auto index = Node(LuaAstKind::kIndex);
            index->kids.reserve(2);
            auto key = StringNode();
            index->kids.push_back(std::move(target));
            index->kids.push_back(std::move(key));
            target = std::move(index);
            if (is_method) {
                break;
            }
        }
        node->extra.push_back(std::move(target));
        node->kids.push_back(FunctionBody(is_method));
        return node;
      }
      default: {
        // exprstat or assignment.
        LuaAstPtr first = PostfixExpr();
        if (At(T::kAssign) || At(T::kComma)) {
            auto node = std::make_unique<LuaAst>(LuaAstKind::kAssign,
                                                 first->line);
            node->extra.push_back(std::move(first));
            while (Accept(T::kComma)) {
                node->extra.push_back(PostfixExpr());
            }
            Expect(T::kAssign, "'='");
            node->kids = ExprList();
            return node;
        }
        if (first->kind != LuaAstKind::kCall &&
            first->kind != LuaAstKind::kMethodCall) {
            Error("syntax error: expression is not a statement");
        }
        auto node = std::make_unique<LuaAst>(LuaAstKind::kExprStat,
                                             first->line);
        node->kids.push_back(std::move(first));
        return node;
      }
    }
}

LuaAstPtr
LuaParser::IfStatement()
{
    auto node = Node(LuaAstKind::kIf);
    Advance();  // if / elseif
    int pairs = 0;
    for (;;) {
        node->kids.push_back(Expr());
        Expect(T::kThen, "'then'");
        node->kids.push_back(
            ScopedBlock({T::kEnd, T::kElse, T::kElseif}));
        ++pairs;
        if (Accept(T::kElseif)) {
            continue;
        }
        break;
    }
    node->int_value = pairs;
    if (Accept(T::kElse)) {
        node->kids.push_back(ScopedBlock({T::kEnd}));
    }
    Expect(T::kEnd, "'end'");
    return node;
}

LuaAstPtr
LuaParser::ForStatement()
{
    Advance();  // for
    if (!At(T::kName)) {
        Error("expected loop variable");
        return Node(LuaAstKind::kBlock);
    }
    // The variables are every other token from here: name {',' name}.
    const size_t first_name = pos_;
    Advance();
    if (Accept(T::kAssign)) {
        auto node = Node(LuaAstKind::kForNum);
        node->name = toks_[first_name].text;
        node->kids.push_back(Expr());
        Expect(T::kComma, "','");
        node->kids.push_back(Expr());
        if (Accept(T::kComma)) {
            node->kids.push_back(Expr());
        }
        Expect(T::kDo, "'do'");
        // Each iteration's frame holds the variable (slot 0) and the
        // body's locals.
        OpenScope(/*new_function=*/false);
        Declare(toks_[first_name].id);
        node->kids.push_back(Block({T::kEnd}));
        CloseScope(node->kids.back().get());
        Expect(T::kEnd, "'end'");
        return node;
    }
    auto node = Node(LuaAstKind::kForIn);
    size_t num_names = 1;
    while (Accept(T::kComma)) {
        if (!At(T::kName)) {
            Error("expected name");
            return node;
        }
        Advance();
        ++num_names;
    }
    Expect(T::kIn, "'in'");
    node->kids.push_back(Expr());
    Expect(T::kDo, "'do'");
    // Only the first two variables are bound (key and value); any more
    // resolve outside the loop.
    OpenScope(/*new_function=*/false);
    for (size_t i = 0; i < num_names && i < 2; ++i) {
        node->slots.push_back(Declare(toks_[first_name + 2 * i].id));
    }
    node->declared = scopes_[current_].num_slots;
    node->kids.push_back(Block({T::kEnd}));
    CloseScope(node->kids.back().get());
    Expect(T::kEnd, "'end'");
    return node;
}

LuaAstPtr
LuaParser::FunctionBody(bool is_method)
{
    auto node = Node(LuaAstKind::kFunction);
    // Parameters and the body's top-level locals share one frame.
    OpenScope(/*new_function=*/true);
    if (is_method) {
        node->slots.push_back(Declare(IdOf("self")));
    }
    Expect(T::kLParen, "'('");
    while (ok_ && !Accept(T::kRParen)) {
        if (Accept(T::kEllipsis)) {
            Expect(T::kRParen, "')' after '...'");
            break;
        }
        if (!At(T::kName)) {
            Error("expected parameter name");
            break;
        }
        node->slots.push_back(Declare(Advance().id));
        if (!Accept(T::kComma) && !At(T::kRParen)) {
            Error("expected ',' or ')'");
            break;
        }
    }
    node->declared = scopes_[current_].num_slots;
    node->kids.push_back(Block({T::kEnd}));
    CloseScope(node->kids.back().get());
    Expect(T::kEnd, "'end'");
    return node;
}

std::vector<LuaAstPtr>
LuaParser::ExprList()
{
    std::vector<LuaAstPtr> exprs;
    exprs.push_back(Expr());
    while (Accept(T::kComma)) {
        exprs.push_back(Expr());
    }
    return exprs;
}

namespace {

template <typename Sub, typename Match>
LuaAstPtr
LeftAssoc(Sub&& sub, Match&& match)
{
    LuaAstPtr left = sub();
    for (;;) {
        const LuaOp op = match();
        if (op == LuaOp::kNone) {
            return left;
        }
        auto node = std::make_unique<LuaAst>(LuaAstKind::kBinOp,
                                             left->line);
        node->op = op;
        node->kids.reserve(2);
        node->kids.push_back(std::move(left));
        node->kids.push_back(sub());
        left = std::move(node);
    }
}

}  // namespace

LuaAstPtr
LuaParser::OrExpr()
{
    return LeftAssoc([this] { return AndExpr(); },
                     [this] {
                         return Accept(T::kOr) ? LuaOp::kOr : LuaOp::kNone;
                     });
}

LuaAstPtr
LuaParser::AndExpr()
{
    return LeftAssoc([this] { return CmpExpr(); },
                     [this] {
                         return Accept(T::kAnd) ? LuaOp::kAnd : LuaOp::kNone;
                     });
}

LuaAstPtr
LuaParser::CmpExpr()
{
    return LeftAssoc([this] { return ConcatExpr(); },
                     [this] {
                         if (Accept(T::kEq)) return LuaOp::kEq;
                         if (Accept(T::kNe)) return LuaOp::kNe;
                         if (Accept(T::kLt)) return LuaOp::kLt;
                         if (Accept(T::kLe)) return LuaOp::kLe;
                         if (Accept(T::kGt)) return LuaOp::kGt;
                         if (Accept(T::kGe)) return LuaOp::kGe;
                         return LuaOp::kNone;
                     });
}

LuaAstPtr
LuaParser::ConcatExpr()
{
    // Right associative.
    LuaAstPtr left = AddExpr();
    if (!Accept(T::kConcat)) {
        return left;
    }
    auto node =
        std::make_unique<LuaAst>(LuaAstKind::kBinOp, left->line);
    node->op = LuaOp::kConcat;
    node->kids.reserve(2);
    node->kids.push_back(std::move(left));
    node->kids.push_back(ConcatExpr());
    return node;
}

LuaAstPtr
LuaParser::AddExpr()
{
    return LeftAssoc([this] { return MulExpr(); },
                     [this] {
                         if (Accept(T::kPlus)) return LuaOp::kAdd;
                         if (Accept(T::kMinus)) return LuaOp::kSub;
                         return LuaOp::kNone;
                     });
}

LuaAstPtr
LuaParser::MulExpr()
{
    return LeftAssoc([this] { return UnaryExpr(); },
                     [this] {
                         if (Accept(T::kStar)) return LuaOp::kMul;
                         if (Accept(T::kSlash)) return LuaOp::kDiv;
                         if (Accept(T::kPercent)) return LuaOp::kMod;
                         return LuaOp::kNone;
                     });
}

LuaAstPtr
LuaParser::UnaryExpr()
{
    LuaOp op = LuaOp::kNone;
    if (Accept(T::kNot)) {
        op = LuaOp::kNot;
    } else if (Accept(T::kMinus)) {
        op = LuaOp::kNeg;
    } else if (Accept(T::kHash)) {
        op = LuaOp::kLen;
    }
    if (op != LuaOp::kNone) {
        auto node = Node(LuaAstKind::kUnOp);
        node->op = op;
        node->kids.push_back(UnaryExpr());
        return node;
    }
    return PostfixExpr();
}

LuaAstPtr
LuaParser::PostfixExpr()
{
    LuaAstPtr value = PrimaryExpr();
    for (;;) {
        if (Accept(T::kDot)) {
            if (!At(T::kName)) {
                Error("expected field name");
                return value;
            }
            auto node = std::make_unique<LuaAst>(LuaAstKind::kIndex,
                                                 value->line);
            node->kids.reserve(2);
            auto key = StringNode();
            node->kids.push_back(std::move(value));
            node->kids.push_back(std::move(key));
            value = std::move(node);
        } else if (Accept(T::kLBracket)) {
            auto node = std::make_unique<LuaAst>(LuaAstKind::kIndex,
                                                 value->line);
            node->kids.reserve(2);
            node->kids.push_back(std::move(value));
            node->kids.push_back(Expr());
            Expect(T::kRBracket, "']'");
            value = std::move(node);
        } else if (At(T::kLParen) || At(T::kString) || At(T::kLBrace)) {
            auto node = std::make_unique<LuaAst>(LuaAstKind::kCall,
                                                 value->line);
            node->kids.push_back(std::move(value));
            if (Accept(T::kLParen)) {
                while (ok_ && !Accept(T::kRParen)) {
                    node->kids.push_back(Expr());
                    if (!Accept(T::kComma) && !At(T::kRParen)) {
                        Error("expected ',' or ')'");
                        break;
                    }
                }
            } else if (At(T::kString)) {
                node->kids.push_back(StringNode());
            } else {
                node->kids.push_back(TableConstructor());
            }
            value = std::move(node);
        } else if (Accept(T::kColon)) {
            if (!At(T::kName)) {
                Error("expected method name");
                return value;
            }
            auto node = std::make_unique<LuaAst>(
                LuaAstKind::kMethodCall, value->line);
            node->name = Advance().text;
            node->literal = Literal(node->name);
            node->kids.push_back(std::move(value));
            if (Accept(T::kLParen)) {
                while (ok_ && !Accept(T::kRParen)) {
                    node->kids.push_back(Expr());
                    if (!Accept(T::kComma) && !At(T::kRParen)) {
                        Error("expected ',' or ')'");
                        break;
                    }
                }
            } else if (At(T::kString)) {
                node->kids.push_back(StringNode());
            } else {
                Error("expected method arguments");
            }
            value = std::move(node);
        } else {
            return value;
        }
    }
}

LuaAstPtr
LuaParser::PrimaryExpr()
{
    switch (Cur().kind) {
      case T::kNil: Advance(); return Node(LuaAstKind::kNil);
      case T::kTrue: Advance(); return Node(LuaAstKind::kTrue);
      case T::kFalse: Advance(); return Node(LuaAstKind::kFalse);
      case T::kNumber: {
        auto node = Node(LuaAstKind::kNumber);
        node->int_value = Advance().number;
        return node;
      }
      case T::kString:
        return StringNode();
      case T::kEllipsis:
        Advance();
        return Node(LuaAstKind::kVararg);
      case T::kName:
        return NameNode();
      case T::kLParen: {
        Advance();
        LuaAstPtr inner = Expr();
        Expect(T::kRParen, "')'");
        return inner;
      }
      case T::kLBrace:
        return TableConstructor();
      case T::kFunction:
        Advance();
        return FunctionBody();
      default:
        Error(std::string("unexpected token in expression"));
        return Node(LuaAstKind::kNil);
    }
}

LuaAstPtr
LuaParser::TableConstructor()
{
    auto node = Node(LuaAstKind::kTable);
    Expect(T::kLBrace, "'{'");
    while (ok_ && !Accept(T::kRBrace)) {
        if (At(T::kName) && toks_[pos_ + 1].kind == T::kAssign) {
            auto key = StringNode();
            Advance();  // '='
            node->kids.push_back(std::move(key));
            node->kids.push_back(Expr());
        } else if (Accept(T::kLBracket)) {
            node->kids.push_back(Expr());
            Expect(T::kRBracket, "']'");
            Expect(T::kAssign, "'='");
            node->kids.push_back(Expr());
        } else {
            node->kids.push_back(nullptr);  // Array-style entry.
            node->kids.push_back(Expr());
        }
        if (!Accept(T::kComma) && !Accept(T::kSemi) && !At(T::kRBrace)) {
            Error("expected ',' or '}'");
            break;
        }
    }
    return node;
}

}  // namespace

LuaParseResult
LuaParse(const std::string& source)
{
    IdentifierIds ids;
    LuaLexer lexer(source, &ids);
    std::vector<LuaToken> tokens;
    tokens.reserve(source.size() / 4);
    std::string error;
    int error_line = 0;
    if (!lexer.Run(&tokens, &error, &error_line)) {
        LuaParseResult result;
        result.ok = false;
        result.error = error;
        result.error_line = error_line;
        return result;
    }
    return LuaParser(std::move(tokens), std::move(ids)).Run();
}

}  // namespace chef::minilua
