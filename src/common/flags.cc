#include "common/flags.h"

#include <cstdio>
#include <type_traits>

#include "common/status.h"
#include "common/string_util.h"

namespace codes {

namespace {

/// Usage lines wrap before this column.
constexpr size_t kUsageWidth = 72;

std::string FormatBound(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

bool ParseNonEmpty(std::string_view s, std::string* out) {
  if (s.empty()) return false;
  out->assign(s);
  return true;
}

}  // namespace

FlagSet::Flag& FlagSet::Flag::AtLeast(double min) {
  min_ = min;
  min_exclusive_ = false;
  return *this;
}

FlagSet::Flag& FlagSet::Flag::Above(double min) {
  min_ = min;
  min_exclusive_ = true;
  return *this;
}

FlagSet::Flag& FlagSet::Flag::Within(double min, double max) {
  min_ = min;
  min_exclusive_ = false;
  max_ = max;
  return *this;
}

std::string FlagSet::Flag::RangeError(double v) const {
  if ((min_exclusive_ ? v > min_ : v >= min_) && v <= max_) return "";
  if (max_ != std::numeric_limits<double>::infinity()) {
    return name_ + " must be in [" + FormatBound(min_) + ", " +
           FormatBound(max_) + "]";
  }
  return name_ + " must be " + (min_exclusive_ ? "> " : ">= ") +
         FormatBound(min_);
}

template <typename T>
bool FlagSet::Flag::Store(bool (*parse)(std::string_view, T*),
                          std::string_view arg, const std::string& value,
                          std::string* error) const {
  T parsed{};
  if (!parse(value, &parsed)) {
    *error = "bad value in flag: " + std::string(arg) + " (expected " +
             placeholder_ + ")";
    return false;
  }
  if constexpr (std::is_arithmetic_v<T>) {
    *error = RangeError(static_cast<double>(parsed));
    if (!error->empty()) return false;
  }
  *static_cast<T*>(dest_) = std::move(parsed);
  return true;
}

bool FlagSet::Flag::Set(std::string_view arg, const std::string& value,
                        std::string* error) const {
  switch (kind_) {
    case Kind::kInt:
      return Store(ParseInt, arg, value, error);
    case Kind::kUint64:
      return Store(ParseUint64, arg, value, error);
    case Kind::kSize:
      return Store(ParseSize, arg, value, error);
    case Kind::kDouble:
      return Store(ParseFiniteDouble, arg, value, error);
    case Kind::kString:
      return Store(ParseNonEmpty, arg, value, error);
    case Kind::kBool:
      if (arg.size() != name_.size()) {
        *error =
            "bad value in flag: " + std::string(arg) + " (takes no value)";
        return false;
      }
      *static_cast<bool*>(dest_) = true;
      return true;
  }
  return false;
}

FlagSet::Flag& FlagSet::Add(std::string name, Flag::Kind kind, void* dest,
                            std::string placeholder) {
  return flags_.emplace_back(
      Flag(std::move(name), kind, dest, std::move(placeholder)));
}

int FlagSet::Parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string_view arg(argv[i]);
    std::string value;
    Flag* flag = nullptr;
    for (Flag& candidate : flags_) {
      if (ParseFlag(arg, candidate.name_, &value)) {
        flag = &candidate;
        break;
      }
    }
    if (flag == nullptr) return Fail("unknown flag: " + std::string(arg));
    std::string error;
    if (!flag->Set(arg, value, &error)) return Fail(error);
    flag->given_ = true;
  }
  return 0;
}

const FlagSet::Flag* FlagSet::Find(std::string_view name) const {
  for (const Flag& flag : flags_) {
    if (flag.name_ == name) return &flag;
  }
  return nullptr;
}

bool FlagSet::Given(std::string_view name) const {
  const Flag* flag = Find(name);
  return flag != nullptr && flag->given_;
}

void FlagSet::Preset(std::span<const Setting> preset) {
  for (const Setting& setting : preset) {
    const Flag* flag = Find(setting.name);
    CODES_CHECK(flag != nullptr);
    if (flag->given_) continue;
    std::string arg(setting.name);
    if (!setting.value.empty()) arg += "=" + std::string(setting.value);
    std::string error;
    CODES_CHECK(flag->Set(arg, std::string(setting.value), &error));
  }
}

int FlagSet::Reject(std::initializer_list<std::string_view> names,
                    std::string_view mode) const {
  for (std::string_view name : names) {
    if (Given(name)) {
      return Fail(std::string(name) + " cannot be used with " +
                  std::string(mode));
    }
  }
  return 0;
}

std::string FlagSet::Usage() const {
  std::string head = "usage: " + program_;
  std::string indent(head.size(), ' ');
  std::string out;
  std::string line = head;
  auto append = [&](const std::string& item) {
    if (line.size() > indent.size() &&
        line.size() + 1 + item.size() > kUsageWidth) {
      out += line + "\n";
      line = indent;
    }
    line += " " + item;
  };
  if (!operands_.empty()) append(operands_);
  for (const Flag& flag : flags_) {
    append("[" + flag.name_ +
           (flag.placeholder_.empty() ? "" : "=" + flag.placeholder_) + "]");
  }
  return out + line + "\n";
}

int FlagSet::Fail(std::string_view message) const {
  std::fprintf(stderr, "%.*s\n%s", static_cast<int>(message.size()),
               message.data(), Usage().c_str());
  return 2;
}

bool WriteSnapshot(const std::string& path, std::string_view contents,
                   std::string_view what) {
  if (path.empty()) return true;
  std::FILE* out = std::fopen(path.c_str(), "w");
  bool ok = out != nullptr;
  if (ok) {
    ok = std::fwrite(contents.data(), 1, contents.size(), out) ==
         contents.size();
    ok = std::fclose(out) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(stderr, "%.*s written to %s\n", static_cast<int>(what.size()),
               what.data(), path.c_str());
  return true;
}

}  // namespace codes
