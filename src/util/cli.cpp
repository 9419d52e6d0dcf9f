#include "util/cli.hpp"

#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace hinet {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    if (tok == "--help" || tok == "-h") {
      help_ = true;
      continue;
    }
    if (tok.rfind("--", 0) != 0 || tok.size() <= 2) {
      throw std::invalid_argument("unrecognised argument: " + tok);
    }
    const auto eq = tok.find('=');
    if (eq == std::string::npos) {
      values_[tok.substr(2)] = "true";  // bare flag
    } else {
      values_[tok.substr(2, eq - 2)] = tok.substr(eq + 1);
    }
  }
}

std::optional<std::string> CliArgs::raw(const std::string& name) {
  auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  consumed_[name] = true;
  return it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t def,
                              const std::string& description) {
  registered_.push_back({name, std::to_string(def), description});
  auto v = raw(name);
  if (!v) return def;
  try {
    std::size_t pos = 0;
    const std::int64_t out = std::stoll(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects an integer, got '" +
                                *v + "'");
  }
}

std::uint64_t CliArgs::get_uint(const std::string& name, std::uint64_t def,
                                const std::string& description) {
  const std::int64_t v =
      get_int(name, static_cast<std::int64_t>(def), description);
  if (v < 0) {
    throw std::invalid_argument("--" + name +
                                " expects a non-negative integer, got " +
                                std::to_string(v));
  }
  return static_cast<std::uint64_t>(v);
}

int CliArgs::get_int32(const std::string& name, int def,
                       const std::string& description) {
  const std::int64_t v = get_int(name, def, description);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    throw std::invalid_argument("--" + name +
                                " expects an integer an int can hold, got " +
                                std::to_string(v));
  }
  return static_cast<int>(v);
}

double CliArgs::get_double(const std::string& name, double def,
                           const std::string& description) {
  registered_.push_back({name, std::to_string(def), description});
  auto v = raw(name);
  if (!v) return def;
  try {
    std::size_t pos = 0;
    const double out = std::stod(*v, &pos);
    if (pos != v->size()) throw std::invalid_argument("trailing chars");
    return out;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + name + " expects a number, got '" + *v +
                                "'");
  }
}

bool CliArgs::get_bool(const std::string& name, bool def,
                       const std::string& description) {
  registered_.push_back({name, def ? "true" : "false", description});
  auto v = raw(name);
  if (!v) return def;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument("--" + name + " expects true/false, got '" + *v +
                              "'");
}

std::string CliArgs::get_string(const std::string& name, const std::string& def,
                                const std::string& description) {
  registered_.push_back({name, def, description});
  auto v = raw(name);
  return v ? *v : def;
}

std::size_t CliArgs::get_jobs() {
  const std::uint64_t jobs = get_uint(
      "jobs", 0,
      "worker threads for repetition batches (0 = hardware concurrency)");
  if (jobs > 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::string CliArgs::usage(const std::string& program_summary) const {
  std::ostringstream os;
  os << program_summary << "\n\nOptions:\n";
  for (const auto& r : registered_) {
    os << "  --" << r.name << "=<value>  " << r.description
       << " (default: " << r.default_value << ")\n";
  }
  os << "  --help  Show this message\n";
  return os.str();
}

std::vector<std::string> CliArgs::unknown_options() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : values_) {
    if (!consumed_.contains(name)) out.push_back(name);
  }
  return out;
}

}  // namespace hinet
