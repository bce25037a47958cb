// Shared name -> value registry behind the three string-selectable
// extension seams (filter scenarios, autonomy update policies, fleet
// admission policies). One contract, pinned by
// tests/test_registries.cpp:
//
//   * lookup of an unknown name throws std::invalid_argument whose
//     message names the offender AND lists every registered name;
//   * add() of an existing name replaces the mapping in place and
//     returns false (first registrations return true) — sweep order is
//     insertion order and never grows a duplicate;
//   * lookup() hands back a *copy* of the value taken inside the lock
//     and lets the caller invoke it outside — a factory that re-enters
//     the registry (e.g. a derived scenario built from a built-in) must
//     not deadlock on the non-recursive mutex.
//
// The registry is thread-safe; its values are factories (std::function).
#pragma once

#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cimnav::core {

template <typename Value>
class NameRegistry {
 public:
  /// `kind` is the human label used in error messages:
  /// "unknown <kind> '<name>'; registered: a, b, c".
  explicit NameRegistry(std::string kind) : kind_(std::move(kind)) {}

  NameRegistry(const NameRegistry&) = delete;
  NameRegistry& operator=(const NameRegistry&) = delete;

  /// Inserts or replaces. Returns true iff `name` was new.
  bool add(std::string name, std::string description, Value value) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (Entry* e = find_locked(name)) {
      e->description = std::move(description);
      e->value = std::move(value);
      return false;
    }
    entries_.push_back(
        {std::move(name), std::move(description), std::move(value)});
    return true;
  }

  /// Copy of the registered value; throws listing every known name.
  Value lookup(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const Entry* e = find_locked(name);
    if (e == nullptr) throw_unknown_locked(name);
    return e->value;
  }

  /// Registered description; throws listing every known name.
  std::string description(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const Entry* e = find_locked(name);
    if (e == nullptr) throw_unknown_locked(name);
    return e->description;
  }

  /// Throws (listing every known name) unless `name` is registered;
  /// allocation-free when it is.
  void require(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    if (find_locked(name) == nullptr) throw_unknown_locked(name);
  }

  /// Registered names in insertion order (stable sweep order).
  std::vector<std::string> names() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& e : entries_) out.push_back(e.name);
    return out;
  }

 private:
  struct Entry {
    std::string name;
    std::string description;
    Value value;
  };

  Entry* find_locked(std::string_view name) {
    for (auto& e : entries_)
      if (e.name == name) return &e;
    return nullptr;
  }
  const Entry* find_locked(std::string_view name) const {
    for (const auto& e : entries_)
      if (e.name == name) return &e;
    return nullptr;
  }

  [[noreturn]] void throw_unknown_locked(std::string_view name) const {
    std::string known;
    for (const auto& e : entries_)
      known += (known.empty() ? "" : ", ") + e.name;
    throw std::invalid_argument("unknown " + kind_ + " '" +
                                std::string(name) +
                                "'; registered: " + known);
  }

  std::string kind_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace cimnav::core
