// Minimal command-line flag parser for the bench and example binaries.
//
//   util::Flags flags("fig08", "Reproduces Figure 8");
//   auto& reps = flags.add_int("reps", 30, "repetitions per data point");
//   auto& full = flags.add_bool("full", false, "paper-scale parameters");
//   flags.parse(argc, argv);        // exit(0) on --help, exit(2) on errors
//
// Accepted syntaxes: --name value, --name=value, and bare --name for bools.
// Each name has one owner: registering it twice throws std::logic_error.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace shuffledef::util {

class Flags {
 public:
  Flags(std::string program, std::string description);

  std::int64_t& add_int(const std::string& name, std::int64_t default_value,
                        const std::string& help);
  double& add_double(const std::string& name, double default_value,
                     const std::string& help);
  bool& add_bool(const std::string& name, bool default_value,
                 const std::string& help);
  std::string& add_string(const std::string& name, std::string default_value,
                          const std::string& help);

  /// Parse argv.  Prints usage to stdout and exits 0 if --help is present.
  /// An unknown flag, a stray positional argument, a missing value or a
  /// value that does not parse in full prints the message and usage to
  /// stderr and exits 2.
  void parse(int argc, char** argv);

  [[nodiscard]] std::string usage() const;

 private:
  enum class Type { kInt, kDouble, kBool, kString };
  struct Flag {
    std::string name;
    std::string help;
    Type type;
    std::unique_ptr<std::int64_t> int_value;
    std::unique_ptr<double> double_value;
    std::unique_ptr<bool> bool_value;
    std::unique_ptr<std::string> string_value;
    std::string default_repr;
  };

  Flag& add(const std::string& name, const std::string& help, Type type,
            std::string default_repr);
  Flag* find(const std::string& name);
  void assign(Flag& flag, const std::string& value);
  [[noreturn]] void fail(const std::string& message) const;

  std::string program_;
  std::string description_;
  std::vector<std::unique_ptr<Flag>> flags_;
};

}  // namespace shuffledef::util
