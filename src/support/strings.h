#ifndef CHEF_SUPPORT_STRINGS_H_
#define CHEF_SUPPORT_STRINGS_H_

/// \file
/// Small string helpers shared across the project.

#include <cstdint>
#include <string>
#include <vector>

namespace chef {

/// Splits \p text on the single-character separator \p sep. Keeps empty
/// fields, so Split("a,,b", ',') yields {"a", "", "b"}.
std::vector<std::string> Split(const std::string& text, char sep);

/// Joins \p parts with \p sep between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Returns text with leading and trailing ASCII whitespace removed.
std::string Trim(const std::string& text);

/// True if \p text begins with \p prefix.
bool StartsWith(const std::string& text, const std::string& prefix);

/// True if \p text ends with \p suffix.
bool EndsWith(const std::string& text, const std::string& suffix);

/// Renders a byte buffer as a C-style escaped string literal (for test-case
/// reports), e.g. bytes {0x41, 0x00} become "A\x00".
std::string EscapeBytes(const std::vector<uint8_t>& bytes);

/// FNV-1a hash of a byte range; used for structural hashing.
uint64_t FnvHash(const void* data, size_t size, uint64_t seed = 0xcbf29ce484222325ull);

/// Combines two hash values (boost-style).
constexpr uint64_t
HashCombine(uint64_t a, uint64_t b)
{
    return a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
}

}  // namespace chef

#endif  // CHEF_SUPPORT_STRINGS_H_
