// Small contract-checking helpers shared across the COYOTE libraries.
//
// Follows the C++ Core Guidelines (I.6/E.x): preconditions are checked and
// violations reported as exceptions so that library misuse is diagnosed
// eagerly instead of corrupting downstream computations.
//
// Checks must not allocate when they pass: accessors such as Graph::edge()
// and TrafficMatrix::at() run them millions of times per optimizer call.
// The message is therefore a std::string_view (a literal costs nothing) and
// the std::string is built only on the throwing path. Call sites whose
// message needs formatting build it under their own `if (!cond)` instead
// of concatenating ahead of the check.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace coyote {

/// Throws std::invalid_argument with `what` unless `cond` holds.
/// Used for checking caller-supplied arguments (preconditions).
inline void require(bool cond, std::string_view what) {
  if (!cond) [[unlikely]] throw std::invalid_argument(std::string(what));
}

/// Throws std::logic_error with `what` unless `cond` holds.
/// Used for internal invariants that should be unreachable.
inline void ensure(bool cond, std::string_view what) {
  if (!cond) [[unlikely]] throw std::logic_error(std::string(what));
}

}  // namespace coyote
