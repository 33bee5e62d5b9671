#include "util/flags.h"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace shuffledef::util {

Flags::Flags(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

Flags::Flag& Flags::add(const std::string& name, const std::string& help,
                        Type type, std::string default_repr) {
  if (find(name) != nullptr) {
    throw std::logic_error("flag --" + name + " registered twice");
  }
  auto flag = std::make_unique<Flag>();
  flag->name = name;
  flag->help = help;
  flag->type = type;
  flag->default_repr = std::move(default_repr);
  flags_.push_back(std::move(flag));
  return *flags_.back();
}

std::int64_t& Flags::add_int(const std::string& name,
                             std::int64_t default_value,
                             const std::string& help) {
  auto& flag = add(name, help, Type::kInt, std::to_string(default_value));
  flag.int_value = std::make_unique<std::int64_t>(default_value);
  return *flag.int_value;
}

double& Flags::add_double(const std::string& name, double default_value,
                          const std::string& help) {
  std::ostringstream os;
  os << default_value;
  auto& flag = add(name, help, Type::kDouble, os.str());
  flag.double_value = std::make_unique<double>(default_value);
  return *flag.double_value;
}

bool& Flags::add_bool(const std::string& name, bool default_value,
                      const std::string& help) {
  auto& flag = add(name, help, Type::kBool, default_value ? "true" : "false");
  flag.bool_value = std::make_unique<bool>(default_value);
  return *flag.bool_value;
}

std::string& Flags::add_string(const std::string& name,
                               std::string default_value,
                               const std::string& help) {
  auto& flag = add(name, help, Type::kString, default_value);
  flag.string_value = std::make_unique<std::string>(std::move(default_value));
  return *flag.string_value;
}

Flags::Flag* Flags::find(const std::string& name) {
  for (auto& f : flags_) {
    if (f->name == name) return f.get();
  }
  return nullptr;
}

void Flags::fail(const std::string& message) const {
  std::cerr << program_ << ": " << message << "\n\n" << usage();
  std::exit(2);
}

void Flags::assign(Flag& flag, const std::string& value) {
  // The whole value must parse: "10x" or "1e6" for an integer is an error,
  // not 10 or 1.
  bool ok = true;
  try {
    std::size_t used = 0;
    switch (flag.type) {
      case Type::kInt:
        *flag.int_value = std::stoll(value, &used);
        ok = used == value.size();
        break;
      case Type::kDouble:
        *flag.double_value = std::stod(value, &used);
        ok = used == value.size();
        break;
      case Type::kBool:
        ok = value == "true" || value == "1" || value == "false" ||
             value == "0";
        if (ok) *flag.bool_value = value == "true" || value == "1";
        break;
      case Type::kString:
        *flag.string_value = value;
        break;
    }
  } catch (const std::exception&) {  // no number at all, or out of range
    ok = false;
  }
  if (!ok) fail("invalid value for --" + flag.name + ": '" + value + "'");
}

void Flags::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) fail("unexpected positional argument: " + arg);
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    Flag* flag = find(arg);
    if (flag == nullptr) fail("unknown flag --" + arg);
    if (!has_value) {
      if (flag->type == Type::kBool) {
        *flag->bool_value = true;
        continue;
      }
      if (i + 1 >= argc) fail("missing value for --" + arg);
      value = argv[++i];
    }
    assign(*flag, value);
  }
}

std::string Flags::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& f : flags_) {
    os << "  --" << f->name << "  (default: " << f->default_repr << ")  "
       << f->help << "\n";
  }
  return os.str();
}

}  // namespace shuffledef::util
