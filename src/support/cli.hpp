#pragma once
// Tiny flag parser shared by the tools, bench and example executables.
// Flags take the form --name=value or --name value. Every has()/get*() call
// marks its flag as read; once a program has read all its flags it calls
// reject_unread(), so a flag it never reads (a typo, a retired option) is an
// error instead of a silent default. A numeric value (and every element of a
// numeric list) must parse completely: trailing characters, an empty value
// or an out-of-range one exit with status 2 and an error naming the flag and
// the value, as an unknown flag does.

#include <map>
#include <set>
#include <string>
#include <vector>

namespace lra {

class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& name) const;
  std::string get(const std::string& name, const std::string& dflt) const;
  long long get_int(const std::string& name, long long dflt) const;
  double get_double(const std::string& name, double dflt) const;
  bool get_bool(const std::string& name, bool dflt) const;

  /// Comma-separated list of integers, e.g. --np=1,2,4,8.
  std::vector<long long> get_int_list(const std::string& name,
                                      std::vector<long long> dflt) const;
  /// Comma-separated list of doubles, e.g. --tau=1e-1,1e-2.
  std::vector<double> get_double_list(const std::string& name,
                                      std::vector<double> dflt) const;

  /// Exit with status 2 and "error: unknown flag --NAME" on stderr when the
  /// command line holds a flag no has() or get*() call has read. Call it
  /// after the last flag is read and before the work starts.
  void reject_unread() const;

 private:
  /// The value of `name` (null when absent), marking the flag read.
  const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> kv_;
  mutable std::set<std::string> read_;
};

}  // namespace lra
