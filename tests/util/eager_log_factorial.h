// The eager log-factorial recurrence, t[i] = t[i-1] + log(i) over the whole
// LogFactorialTable capacity: the doubles a table must hold bit for bit
// however it grew.
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "util/math.h"

namespace shuffledef::util {

inline const std::vector<double>& eager_log_factorials() {
  static const std::vector<double> table = [] {
    std::vector<double> t(LogFactorialTable::kCapacity);
    t[0] = 0.0;
    for (std::int64_t i = 1; i < LogFactorialTable::kCapacity; ++i) {
      t[static_cast<std::size_t>(i)] =
          t[static_cast<std::size_t>(i - 1)] +
          std::log(static_cast<double>(i));
    }
    return t;
  }();
  return table;
}

}  // namespace shuffledef::util
