// The one error path of config validation.  Each config lists every
// violation at once (`violations()`); its owner turns a non-empty list into
// one std::invalid_argument whose message tests and benches match on.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace shuffledef::util {

/// Throws std::invalid_argument reading "<what>: N violation(s); v1; ...; vN"
/// unless `violations` is empty.
inline void throw_if_invalid(std::string_view what,
                             const std::vector<std::string>& violations) {
  if (violations.empty()) return;
  std::string message = std::string(what) + ": " +
                        std::to_string(violations.size()) + " violation(s)";
  for (const auto& v : violations) message += "; " + v;
  throw std::invalid_argument(message);
}

}  // namespace shuffledef::util
