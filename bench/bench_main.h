// Shared entry point of the bench binaries.  Every bench's main runs its
// body through guarded_main, so a bad configuration ends the way a bad flag
// does (util::Flags): a one-line message on stderr and exit code 2, not
// std::terminate.  The require_* helpers reject numeric flags whose bad
// values would otherwise crash a run, hit undefined behaviour, or silently
// simulate something else (a vacuous verdict); benches call them right after
// parsing.  Verdict turns a bench's "Reproduction check" claim into a test of
// its table.
#pragma once

#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/table.h"

namespace shuffledef::bench {

/// Runs body(argc, argv).  An exception out of it prints
/// `<program>: <what>` to stderr (program = basename of argv[0]) and
/// returns 2.
inline int guarded_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& e) {
    std::string_view program = argc > 0 ? argv[0] : "bench";
    program.remove_prefix(program.find_last_of('/') + 1);
    std::cerr << program << ": " << e.what() << "\n";
    return 2;
  }
}

/// Throws std::invalid_argument unless the integer flag --`name` is at
/// least `floor`; `floor_flag` names the flag the floor comes from, if any.
inline void require_at_least(std::string_view name, std::int64_t value,
                             std::int64_t floor,
                             std::string_view floor_flag = {}) {
  if (value < floor) {
    const std::string bound =
        floor_flag.empty()
            ? std::to_string(floor)
            : "--" + std::string(floor_flag) + " = " + std::to_string(floor);
    throw std::invalid_argument("--" + std::string(name) + " must be >= " +
                                bound + " (got " + std::to_string(value) +
                                ")");
  }
}

/// Throws std::invalid_argument unless the integer flag --`name` is at
/// least 1.
inline void require_at_least_one(std::string_view name, std::int64_t value) {
  require_at_least(name, value, 1);
}

/// Throws std::invalid_argument unless the integer flag --`name` is at
/// least 0.
inline void require_at_least_zero(std::string_view name, std::int64_t value) {
  require_at_least(name, value, 0);
}

/// Throws std::invalid_argument unless the flag --`name` is finite and > 0.
inline void require_positive(std::string_view name, double value) {
  if (!std::isfinite(value) || value <= 0.0) {
    throw std::invalid_argument("--" + std::string(name) +
                                " must be finite and > 0 (got " +
                                std::to_string(value) + ")");
  }
}

/// Throws std::invalid_argument unless the flag --`name` is finite and >= 0.
inline void require_non_negative(std::string_view name, double value) {
  if (!std::isfinite(value) || value < 0.0) {
    throw std::invalid_argument("--" + std::string(name) +
                                " must be finite and >= 0 (got " +
                                std::to_string(value) + ")");
  }
}

/// Throws std::invalid_argument unless --reps is at least 1.
inline void require_reps(std::int64_t reps) {
  require_at_least_one("reps", reps);
}

/// A "Reproduction check" verdict computed from a table's means: each check
/// names one clause of the claim, the row it reads and that row's value, and
/// the first clause that fails is the one reported.
class Verdict {
 public:
  void check(bool holds, std::string_view clause, std::string_view row,
             double value) {
    if (holds || !failure_.empty()) return;
    failure_ = std::string(clause) + ": " + std::string(row) + " = " +
               util::fmt(value, 1);
  }
  /// "holds", or "does NOT hold: <clause>: <row> = <value>".
  [[nodiscard]] std::string str() const {
    return failure_.empty() ? "holds" : "does NOT hold: " + failure_;
  }

 private:
  std::string failure_;
};

/// Throws std::invalid_argument unless --horizon is finite and positive.
inline void require_horizon(double horizon) {
  if (!std::isfinite(horizon) || horizon <= 0.0) {
    throw std::invalid_argument(
        "--horizon must be a finite number of seconds > 0 (got " +
        std::to_string(horizon) + ")");
  }
}

}  // namespace shuffledef::bench
