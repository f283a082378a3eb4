#ifndef CODES_COMMON_FLAGS_H_
#define CODES_COMMON_FLAGS_H_

// One command-line flag table for every tool and bench binary.
//
// A binary declares each flag once, with its typed destination and the
// placeholder its usage line shows; the table is then the parser, the
// range checker and the usage text:
//
//   codes::FlagSet flags("codes_crash");
//   flags.Int("--threads", &threads, "N").AtLeast(1);
//   flags.Path("--metrics-out", &metrics_out);
//   flags.Bool("--smoke", &smoke);
//   if (int rc = flags.Parse(argc, argv)) return rc;
//
// Arguments take the "--name" / "--name=value" forms of ParseFlag, and the
// values go through the strict Parse* functions, so garbage never becomes
// a silent 0. A bool flag given "=value", an empty string or path value,
// an unknown flag and a value outside a declared range are all usage
// errors: Parse prints a diagnostic naming the flag plus the usage text
// built from the table, and returns exit code 2. A flag that is absent
// leaves its destination at the caller's default; when a flag repeats,
// the last value wins.
//
// A mode such as --smoke is a preset: data naming flags and the values
// the mode gives them, applied after Parse. A preset fills only the flags
// the command line did not give, so an explicit flag always wins; a flag
// the mode cannot honour is rejected by name instead of being dropped:
//
//   constexpr codes::FlagSet::Setting kSmoke[] = {{"--threads", "2"},
//                                                 {"--selfcheck", ""}};
//   if (smoke) flags.Preset(kSmoke);

#include <cstddef>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>

namespace codes {

class FlagSet {
 public:
  /// One declared flag. The range setters apply to numeric flags and are
  /// checked on every parsed value; the diagnostic is derived from the
  /// bound ("--threads must be >= 1").
  class Flag {
   public:
    Flag& AtLeast(double min);             ///< value >= min
    Flag& Above(double min);               ///< value > min
    Flag& Within(double min, double max);  ///< min <= value <= max

   private:
    friend class FlagSet;
    enum class Kind { kInt, kUint64, kSize, kDouble, kString, kBool };
    Flag(std::string name, Kind kind, void* dest, std::string placeholder)
        : name_(std::move(name)),
          kind_(kind),
          dest_(dest),
          placeholder_(std::move(placeholder)) {}

    /// Stores the value of `arg` (which matched this flag with `value`)
    /// into the destination; on failure fills `*error` and returns false.
    bool Set(std::string_view arg, const std::string& value,
             std::string* error) const;
    /// Parses `value` with `parse`, range-checks it, then stores it.
    template <typename T>
    bool Store(bool (*parse)(std::string_view, T*), std::string_view arg,
               const std::string& value, std::string* error) const;
    /// Empty when `v` is in range, else the diagnostic.
    std::string RangeError(double v) const;

    std::string name_;
    Kind kind_;
    void* dest_;  ///< the declared typed destination, per kind_
    std::string placeholder_;  ///< empty for bool flags
    double min_ = -std::numeric_limits<double>::infinity();
    double max_ = std::numeric_limits<double>::infinity();
    bool min_exclusive_ = false;
    bool given_ = false;
  };

  /// `program` heads the usage text; `operands` (e.g. "<a.json> <b.json>")
  /// follows it for binaries that also take positional arguments.
  explicit FlagSet(std::string program, std::string operands = "")
      : program_(std::move(program)), operands_(std::move(operands)) {}

  Flag& Int(std::string name, int* dest, std::string placeholder) {
    return Add(std::move(name), Flag::Kind::kInt, dest, std::move(placeholder));
  }
  Flag& Uint64(std::string name, uint64_t* dest, std::string placeholder) {
    return Add(std::move(name), Flag::Kind::kUint64, dest,
               std::move(placeholder));
  }
  Flag& Size(std::string name, size_t* dest, std::string placeholder) {
    return Add(std::move(name), Flag::Kind::kSize, dest,
               std::move(placeholder));
  }
  /// Finite doubles only (ParseFiniteDouble).
  Flag& Double(std::string name, double* dest, std::string placeholder) {
    return Add(std::move(name), Flag::Kind::kDouble, dest,
               std::move(placeholder));
  }
  /// A non-empty string value.
  Flag& String(std::string name, std::string* dest, std::string placeholder) {
    return Add(std::move(name), Flag::Kind::kString, dest,
               std::move(placeholder));
  }
  /// A non-empty file path; usage shows "=PATH".
  Flag& Path(std::string name, std::string* dest) {
    return String(std::move(name), dest, "PATH");
  }
  /// A switch: "--name" sets `*dest` to true; "--name=..." is an error.
  Flag& Bool(std::string name, bool* dest) {
    return Add(std::move(name), Flag::Kind::kBool, dest, "");
  }

  /// Parses argv[first..argc). Returns 0 on success, or prints the
  /// diagnostic and usage to stderr and returns 2.
  int Parse(int argc, char** argv, int first = 1);

  /// True when the flag `name` appeared in the parsed arguments.
  bool Given(std::string_view name) const;

  /// One preset entry: a declared flag and the value a mode gives it,
  /// written as on the command line ("" for a bool switch).
  struct Setting {
    std::string_view name;
    std::string_view value;
  };

  /// Sets each flag of `preset` that the command line did not give. The
  /// values go through the same parsers and range checks as arguments; a
  /// preset naming an undeclared flag or a bad value is a programming
  /// error and CHECK-fails.
  void Preset(std::span<const Setting> preset);

  /// The usage error (exit 2) "<flag> cannot be used with <mode>" for the
  /// first of `names` the command line gave; 0 when it gave none of them.
  int Reject(std::initializer_list<std::string_view> names,
             std::string_view mode) const;

  /// "usage: program [--a=N] [--b] ...", wrapped, newline-terminated.
  std::string Usage() const;

  /// Prints `message` and the usage text to stderr; returns 2.
  int Fail(std::string_view message) const;

 private:
  Flag& Add(std::string name, Flag::Kind kind, void* dest,
            std::string placeholder);
  const Flag* Find(std::string_view name) const;

  std::string program_;
  std::string operands_;
  std::deque<Flag> flags_;  ///< deque: Add's returned references stay valid
};

/// Writes `contents` to `path` and notes "<what> written to <path>" on
/// stderr. A no-op returning true when `path` is empty (the output was not
/// requested); on an I/O failure prints "cannot write <path>" and returns
/// false, so the caller can exit non-zero.
bool WriteSnapshot(const std::string& path, std::string_view contents,
                   std::string_view what);

}  // namespace codes

#endif  // CODES_COMMON_FLAGS_H_
